"""Signatures (inertia) of symmetric matrices under an explicit zero tolerance.

The zero tolerance is the one knob that decides eigenvalue counts at the
semidefiniteness boundary, so every :class:`Signature` records the tolerance
it was computed with, and eigenvalues within a factor of ten of that
tolerance set the ``near_singular`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FactorNotPDError, InvalidToleranceError, NotSymmetricError

SYMMETRY_RTOL = 1e-12


@dataclass(frozen=True)
class Signature:
    """Counts of positive, negative, and zero eigenvalues of a symmetric matrix."""

    n_plus: int
    n_minus: int
    n_zero: int
    tolerance_used: float
    near_singular: bool = False

    @property
    def dimension(self) -> int:
        return self.n_plus + self.n_minus + self.n_zero

    def as_tuple(self) -> tuple[int, int, int]:
        return (self.n_plus, self.n_minus, self.n_zero)


def default_zero_tolerance(eigenvalues: np.ndarray, dim: int) -> float:
    """dim * machine epsilon * max |eigenvalue|, or epsilon if all vanish."""
    eps = float(np.finfo(float).eps)
    scale = float(np.max(np.abs(eigenvalues))) if eigenvalues.size else 0.0
    if scale == 0.0:
        return eps
    return dim * eps * scale


def _symmetrized(m) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    if m.size == 0:
        return m
    asym = float(np.max(np.abs(m - m.T)))
    scale = float(np.max(np.abs(m)))
    if asym > SYMMETRY_RTOL * scale:
        raise NotSymmetricError(
            f"matrix is not symmetric: max asymmetry {asym:.3e} over scale {scale:.3e}"
        )
    return 0.5 * (m + m.T)


def _check_tolerance(tol: float | None) -> None:
    """Raise :class:`InvalidToleranceError` unless ``tol`` is None or >= 0."""
    if tol is not None and not tol >= 0.0:
        raise InvalidToleranceError(f"zero tolerance must be >= 0, got {tol!r}")


def signature(m, tol: float | None = None) -> Signature:
    """Signature of a symmetric matrix; |eig| <= tol counts as zero.

    ``m`` must be symmetric to 1e-12 relative (it is symmetrized by
    averaging); the default tolerance is ``dim * eps * max|eig|``.

    Raises:
        InvalidToleranceError: ``tol`` is negative or NaN.
    """
    _check_tolerance(tol)
    s = _symmetrized(m)
    dim = s.shape[0]
    if dim == 0:
        return Signature(0, 0, 0, tol if tol is not None else float(np.finfo(float).eps))
    eigs = np.linalg.eigvalsh(s)
    if tol is None:
        tol = default_zero_tolerance(eigs, dim)
    mags = np.abs(eigs)
    n_zero = int(np.count_nonzero(mags <= tol))
    n_plus = int(np.count_nonzero(eigs > tol))
    n_minus = dim - n_zero - n_plus
    near = bool(tol > 0.0 and np.any((mags > 0.1 * tol) & (mags <= 10.0 * tol)))
    return Signature(n_plus, n_minus, n_zero, float(tol), near)


def signature_of_similar_nonsymmetric(pd_factor, symmetric_factor,
                                      tol: float | None = None) -> Signature:
    """Signature of the (nonsymmetric) product ``pd_factor @ symmetric_factor``.

    The product is similar to the symmetric matrix
    ``pd_factor**(1/2) @ symmetric_factor @ pd_factor**(1/2)``, which is
    congruent to ``symmetric_factor``; its signature is computed from that
    symmetric form.

    Raises:
        FactorNotPDError: if ``pd_factor`` is not positive definite.
    """
    A = _symmetrized(pd_factor)
    S = _symmetrized(symmetric_factor)
    if A.shape != S.shape:
        raise ValueError(f"factor shapes differ: {A.shape} vs {S.shape}")
    if A.shape[0] == 0:
        return signature(S, tol)
    lam, V = np.linalg.eigh(A)
    if lam[0] <= default_zero_tolerance(lam, A.shape[0]):
        raise FactorNotPDError(
            f"factor is not positive definite: smallest eigenvalue {lam[0]:.3e}"
        )
    root = (V * np.sqrt(lam)) @ V.T
    return signature(root @ S @ root, tol)


def pseudo_inverse_eig(m, tol: float | None = None) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix via eigendecomposition.

    Eigenvalues with ``|eig| > tol`` are inverted; the rest are dropped.
    """
    s = _symmetrized(m)
    if s.size == 0:
        return s.copy()
    lam, V = np.linalg.eigh(s)
    if tol is None:
        tol = default_zero_tolerance(lam, s.shape[0])
    keep = np.abs(lam) > tol
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / lam[keep]
    return (V * inv) @ V.T
