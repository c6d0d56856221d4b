"""Signatures (inertia) of symmetric matrices under an explicit zero tolerance.

The zero tolerance is the one knob that decides eigenvalue counts at the
semidefiniteness boundary, so every :class:`Signature` records the tolerance
it was computed with, and eigenvalues within a factor of ten of that
tolerance set the ``near_singular`` flag.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._inputs import MAX_NODE_COUNT, _check_tolerance, _is_integer, _real_array
from .errors import InvalidParameterError, NotSymmetricError

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
    """dim * machine epsilon * max |eigenvalue|, or epsilon if all vanish.

    Raises:
        InvalidParameterError: ``eigenvalues`` are not finite real numbers,
            or ``dim`` is not an integer from 0 to ``MAX_NODE_COUNT``.
    """
    eigenvalues = _real_array(eigenvalues)
    if eigenvalues is None or not np.isfinite(eigenvalues).all():
        raise InvalidParameterError("eigenvalues must be finite real numbers")
    if not (_is_integer(dim) and 0 <= dim <= MAX_NODE_COUNT):
        raise InvalidParameterError(f"dim must be an integer from 0 to {MAX_NODE_COUNT}, "
                                    f"got {dim!r}")
    eps = float(np.finfo(float).eps)
    scale = float(np.max(np.abs(eigenvalues), initial=0.0))
    if scale == 0.0:
        return eps
    return dim * eps * scale


def _symmetrized(m, stack_ok: bool = False) -> np.ndarray:
    """``m`` averaged with its transpose, after checking that it is a finite
    real matrix, symmetric to ``SYMMETRY_RTOL`` relative; with ``stack_ok``,
    a 3-d ``m`` is a stack ``(k, s, s)`` and each matrix of it is checked on
    its own scale."""
    m = _real_array(m)
    if m is None:
        raise InvalidParameterError("expected a matrix of real numbers")
    stacked = stack_ok and m.ndim == 3
    if m.ndim != 2 + stacked or m.shape[-1] != m.shape[-2]:
        what = "stack of square matrices" if stacked else "square matrix"
        raise InvalidParameterError(f"expected a {what}, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise InvalidParameterError("matrix entries must be finite")
    mt = np.swapaxes(m, -1, -2)
    asym = np.max(np.abs(m - mt), axis=(-2, -1), initial=0.0)
    scale = np.max(np.abs(m), axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(asym > SYMMETRY_RTOL * scale)
    if bad.size:
        k = bad[0]
        where = f"matrix {k} of the stack" if stacked else "matrix"
        raise NotSymmetricError(
            f"{where} is not symmetric: max asymmetry {float(asym.flat[k]):.3e} "
            f"over scale {float(scale.flat[k]):.3e}"
        )
    return 0.5 * (m + mt)


def signature(m, tol: float | None = None) -> Signature:
    """Signature of a symmetric matrix; |eig| <= tol counts as zero.

    ``m`` is a square matrix, or a stack ``(k, s, s)`` of the diagonal blocks
    of a block-diagonal one, whose eigenvalues are those of its blocks: one
    batched ``eigvalsh`` gives them all.  Every matrix must be symmetric to
    1e-12 relative (it is symmetrized by averaging); the default tolerance
    is ``dim * eps * max|eig|``, over the whole block-diagonal matrix for a
    stack.

    Raises:
        InvalidToleranceError: ``tol`` is not a real number, or negative or
            NaN.
        InvalidParameterError: ``m`` is not a finite real square matrix or
            stack of them.
        NotSymmetricError: ``m`` is not symmetric to 1e-12 relative.
    """
    if tol is not None:
        tol = _check_tolerance(tol)
    s = _symmetrized(m, stack_ok=True)
    dim = int(np.prod(s.shape[:-1]))
    eigs = np.linalg.eigvalsh(s)
    if tol is None:
        tol = default_zero_tolerance(eigs, dim)
    mags = np.abs(eigs)
    n_zero = int(np.count_nonzero(mags <= tol))
    n_plus = int(np.count_nonzero(eigs > tol))
    n_minus = dim - n_zero - n_plus
    near = bool(tol > 0.0 and np.any((mags > 0.1 * tol) & (mags <= 10.0 * tol)))
    return Signature(n_plus, n_minus, n_zero, tol, near)


def pseudo_inverse_eig(m) -> np.ndarray:
    """Moore-Penrose pseudo-inverse of a symmetric matrix via eigendecomposition.

    Eigenvalues with ``|eig| > dim * eps * max|eig|`` (see
    :func:`default_zero_tolerance`) are inverted; the rest are dropped.

    Raises:
        InvalidParameterError: ``m`` is not a finite real square matrix.
        NotSymmetricError: ``m`` is not symmetric to 1e-12 relative.
    """
    s = _symmetrized(m)
    lam, V = np.linalg.eigh(s)
    tol = default_zero_tolerance(lam, s.shape[0])
    keep = np.abs(lam) > tol
    inv = np.zeros_like(lam)
    inv[keep] = 1.0 / lam[keep]
    return (V * inv) @ V.T
