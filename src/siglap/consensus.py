"""Linear weighted consensus dynamics x' = -L x: simulation, cluster
prediction at the resistance boundary, and cluster detection in trajectories.

Trajectories are sampled from the exact modal solution ``V exp(-t Lambda)
V^T x0`` of one eigendecomposition (LAPACK ``dsyevd``); the state mean is a
conserved quantity of the dynamics (1^T L = 0) and is preserved to rounding
error.  Clusters are detected in order of final value: one vectorized pass
over the final window joins agreeing rank neighbours into runs, and only a
node whose near neighbours reach past its run is compared with them one by
one.  At the boundary ``|w| = 1/R_uv`` of a single negative edge, the
clusters are the components left once the cycle -- the biconnected block
holding the negative edge -- is removed, and the extra null vector of L is
that edge's grounded potential on the cycle, from the resistance layer's
block solve (the one the verdict reads), scattered over the clusters.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh

from .definiteness import BOUNDARY_RTOL
from .errors import (CrossCheckError, HypothesisViolatedError, InvalidParameterError,
                     UnboundedError)
from .graph_core import SignedGraph, _first_seen_ids, _is_integer, component_labels
from .laplacians import _laplacian_product, laplacian_matrix
from .resistance import _block_solve
from .spectra import _check_tolerance, _is_real, _real_array, default_zero_tolerance

DEFAULT_T_FINAL = 20.0
DEFAULT_STEP = 1e-3
DEFAULT_OUTPUT_STRIDE = 10
DEFAULT_CLUSTER_TOL = 1e-5
UNBOUNDED_FACTOR = 1e6
MAX_RECORDED_VALUES = 10**7  # samples x nodes; 80 MB of float64 states
# Time samples per matrix product in ``simulate``; each block's
# ``exp(-t lam) * modes`` is computed in place in one reused _SAMPLE_BLOCK x n
# buffer.  On a 307-node graph sampled 2001 times, 256 ran faster than 64 and
# than one product over the whole grid, whose buffer is as large as the states.
_SAMPLE_BLOCK = 256
# Final-window rows gathered in rank order at a time by cluster detection, so
# that it never holds a second copy of the whole window.
_GAP_ROWS = 64


@dataclass(frozen=True)
class ClusterAssignment:
    """Node partition with one consensus value per cluster."""

    labels: tuple[int, ...]
    values: tuple[float, ...]

    @property
    def cluster_count(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class Trajectory:
    """Recorded simulation states; ``final_clusters`` is None when the run
    diverged (indefinite Laplacian), which is reported rather than hidden."""

    times: np.ndarray
    states: np.ndarray
    step_size: float
    final_clusters: ClusterAssignment | None

    @property
    def diverged(self) -> bool:
        return self.final_clusters is None


@dataclass(frozen=True)
class ClusterPrediction:
    """Predicted cluster count with the constructed extra null-space vector."""

    q: int
    null_vector: np.ndarray
    component_map: tuple[int, ...]


def simulate(g: SignedGraph, x0, t_final: float = DEFAULT_T_FINAL,
             step: float = DEFAULT_STEP, output_stride: int = DEFAULT_OUTPUT_STRIDE,
             cluster_tol: float = DEFAULT_CLUSTER_TOL) -> Trajectory:
    """Exact solution of x' = -L x from x0, sampled at t = 0, every
    ``output_stride`` steps of size ``step``, and ``t_final``.

    Each sample is ``V exp(-t Lambda) V^T x0`` from one eigendecomposition
    of L.  Divergence (possible when L is indefinite) is legitimate: the
    trajectory is returned with ``final_clusters = None``.  The run has
    diverged when x0 excites a mode whose eigenvalue is below minus
    ``default_zero_tolerance`` of the spectrum, however little that mode has
    grown by ``t_final``, or when the final window fails the norm test of
    :func:`detect_clusters`.

    Raises:
        InvalidParameterError: x0 is not a finite real vector over the nodes,
            ``t_final`` or ``step`` is not a finite positive real number,
            ``output_stride`` is not an integer >= 1 (a bool is not one), or
            more than ``MAX_RECORDED_VALUES`` values would be recorded.
        InvalidToleranceError: ``cluster_tol`` is not a real number, or
            negative or NaN.
    """
    n = g.node_count
    x0 = _real_array(x0)
    if x0 is None:
        raise InvalidParameterError("x0 must be a vector of real numbers")
    if x0.shape != (n,):
        raise InvalidParameterError(f"x0 must have shape ({n},), got {x0.shape}")
    if not np.all(np.isfinite(x0)):
        raise InvalidParameterError("x0 must be finite")
    for name, value in (("t_final", t_final), ("step", step)):
        if not (_is_real(value) and math.isfinite(value) and value > 0.0):
            raise InvalidParameterError(f"{name} must be finite and positive, got {value!r}")
    if not (_is_integer(output_stride) and output_stride >= 1):
        raise InvalidParameterError(f"output_stride must be an integer >= 1, got {output_stride!r}")
    _check_tolerance(cluster_tol, "cluster tolerance")

    # The cap keeps an absurd (even infinite) step count an int to reject.
    n_steps = math.floor(min(t_final / step + 1e-9, 2.0 ** 62))
    remainder = t_final - n_steps * step
    exact_end = remainder <= 1e-12 * max(1.0, t_final)
    tail = not exact_end or n_steps % output_stride != 0
    samples = n_steps // output_stride + 1 + tail
    if samples * n > MAX_RECORDED_VALUES:
        raise InvalidParameterError(
            f"{samples} samples of {n} nodes exceed the {MAX_RECORDED_VALUES} recorded "
            "values allowed; increase step or decrease t_final"
        )
    times = np.arange(0, n_steps + 1, output_stride) * step
    if tail:
        times = np.append(times, n_steps * step if exact_end else t_final)

    # L is finite by construction (SignedGraph bounds weights and degrees) and
    # freshly built, so LAPACK may overwrite it unchecked.
    lam, V = eigh(laplacian_matrix(g), driver="evd", overwrite_a=True, check_finite=False)
    zero_tol = default_zero_tolerance(lam, n)
    # V^T x0 on a row-major copy of V, the layout numpy.linalg.eigh returns: on
    # LAPACK's column-major V the product runs another BLAS kernel, which
    # rounds differently and would move the recorded states in their last
    # bits.  The block products below keep V column-major, as V[:, active] is.
    modes = np.ascontiguousarray(V).T @ x0
    # A mode that x0 misses exactly stays zero even where exp(-t lam) overflows.
    active = modes != 0.0
    if not active.all():
        lam, V, modes = lam[active], V[:, active], modes[active]
    # Any excited mode with a negative eigenvalue grows without bound.
    diverged = bool(np.any(lam < -zero_tol))
    states = np.empty((times.size, n))
    block = np.empty((min(_SAMPLE_BLOCK, times.size), lam.size))
    # An indefinite L overflows exp(-t lam) to inf, and (... inf ...) @ V^T can
    # give NaN; both are reported as divergence below.
    with np.errstate(over="ignore", invalid="ignore"):
        for s in range(0, times.size, _SAMPLE_BLOCK):
            t_blk = times[s:s + _SAMPLE_BLOCK]
            blk = block[:t_blk.size]
            np.multiply(-t_blk[:, None], lam, out=blk)
            np.exp(blk, out=blk)
            blk *= modes
            np.matmul(blk, V.T, out=states[s:s + t_blk.size])
    states[0] = x0
    clusters = None
    if not diverged:
        try:
            clusters = _detect(states, cluster_tol)
        except UnboundedError:  # growth from eigenvalues inside the zero tolerance
            pass
    return Trajectory(times, states, step, clusters)


def _detect(states: np.ndarray, tol: float) -> ClusterAssignment:
    m, n = states.shape
    start = int(np.floor(0.9 * (m - 1)))
    window = states[start:]

    if not (np.all(np.isfinite(states[0])) and np.all(np.isfinite(window))):
        raise UnboundedError("the initial state or the final window holds an inf or NaN")
    # Rows scaled by the initial state's largest entry: row 0's norm is at most
    # sqrt(n), so only a window row far beyond the bound can overflow (to inf).
    scale = float(np.max(np.abs(states[0]))) or 1.0
    with np.errstate(over="ignore"):
        norm_end = float(np.max(np.linalg.norm(window / scale, axis=1)))
    norm_start = float(np.linalg.norm(states[0] / scale))
    if not norm_end <= UNBOUNDED_FACTOR * norm_start:
        raise UnboundedError(
            f"final-window norm {norm_end * scale:.3e} exceeds {UNBOUNDED_FACTOR:g} x "
            f"initial norm {norm_start * scale:.3e}"
        )

    # Nodes that agree over the window agree in its last row, so in order of
    # final value each node's partners lie within tol after it.  The slack of a
    # few ulps keeps every pair that the rounded gap test below accepts.
    final = states[-1]
    order = np.argsort(final, kind="stable")
    ranked = final[order]
    with np.errstate(over="ignore", invalid="ignore"):  # an inf bound keeps all
        slack = 4.0 * np.spacing(np.abs(ranked) + tol)
        ends = np.searchsorted(ranked, ranked + tol + slack, side="right")
    # One pass over the window compares each rank position with the next; the
    # window is gathered in rank order a few rows at a time.
    next_gap = np.zeros(n - 1)
    for r in range(0, window.shape[0], _GAP_ROWS):
        rows = window[r:r + _GAP_ROWS][:, order]
        diff = np.subtract(rows[:, 1:], rows[:, :-1])
        np.maximum(next_gap, np.max(np.abs(diff, out=diff), axis=0), out=next_gap)
    # Agreeing rank neighbours chain into runs of consecutive positions, each
    # inside one cluster.  Only a position whose candidates reach past the end
    # of its run can join another run, so only those are compared one by one.
    joined = (next_gap <= tol) & (ends[:-1] > np.arange(1, n))
    run_starts = np.concatenate(([True], ~joined))
    run = np.cumsum(run_starts) - 1
    starts = np.flatnonzero(run_starts)
    run_end = np.append(starts[1:], n)[run]
    # root[i] is the lowest node of the group joined to i so far.
    root = np.empty(n, dtype=order.dtype)
    root[order] = np.minimum.reduceat(order, starts)[run]
    for p in np.flatnonzero(ends > run_end):
        i = order[p]
        cand = order[p + 1:ends[p]]
        cand = cand[root[cand] != root[i]]
        gap = np.max(np.abs(window[:, cand] - window[:, [i]]), axis=0)
        agree = cand[gap <= tol]
        if agree.size:
            groups = np.append(root[agree], root[i])
            root[np.isin(root, groups)] = groups.min()
    # Each root is its group's lowest node, so first-seen order is canonical.
    labels = _first_seen_ids(root)
    # Each cluster's final values in ascending node order, the order in which
    # final[labels == cid] holds them, so each mean sums them alike.
    by_cluster = final[np.argsort(labels, kind="stable")]
    bounds = np.cumsum(np.bincount(labels))[:-1]
    values = tuple(float(np.mean(part)) for part in np.split(by_cluster, bounds))
    return ClusterAssignment(tuple(labels.tolist()), values)


def detect_clusters(traj: Trajectory, tol: float = DEFAULT_CLUSTER_TOL) -> ClusterAssignment:
    """Partition nodes by agreement over the final 10% of the recorded run.

    Nodes share a cluster when their states stay within ``tol`` of each other
    throughout the window (transitively closed).

    Raises:
        UnboundedError: the final window grew beyond 1e6 x the initial norm,
            or it or the initial state holds an inf or NaN, the footprint of
            an indefinite Laplacian.
        InvalidToleranceError: ``tol`` is not a real number, or negative or
            NaN.
    """
    _check_tolerance(tol, "cluster tolerance")
    return _detect(traj.states, tol)


def predict_clusters(g: SignedGraph) -> ClusterPrediction:
    """Cluster count and null-space vector for the single-cycle boundary case.

    Requires: connected graph with exactly one cycle (|E| = |V|), exactly one
    negative edge (u, v), a connected positive subgraph G+ (hence a spanning
    tree, so the negative edge closes the cycle), and the negative magnitude
    sitting at the threshold 1/R_uv within ``BOUNDARY_RTOL``.

    The verdict's block solve gives R_uv (so this accepts exactly when
    :func:`~siglap.definiteness.multi_edge_verdict` says BOUNDARY), the cycle,
    the negative edge's biconnected block of G, and the potential ``z`` on
    it, with ``z_v - z_u = R_uv``.  q is the number of components of G
    without the cycle, each holding one cycle node; with each node at its
    cycle node's potential, ``L z = -margin (e_v - e_u)``, in the kernel of
    L at the boundary.  It is returned orthogonal to the all-ones vector.

    Raises:
        HypothesisViolatedError: listing every precondition that failed.
        CrossCheckError: ``max|L z|`` exceeds 1e-8.
    """
    n = g.node_count
    g_plus = g.positive_subgraph()
    plus_connected = int(component_labels(g_plus).max()) == 0
    failures = []
    # A connected G+ spans every node, so G is connected too.
    if not plus_connected and int(component_labels(g).max()) != 0:
        failures.append("graph must be connected")
    if g.edge_count != n:
        failures.append(
            f"exactly one cycle required (|E| = |V|), got {g.edge_count} edges on {n} nodes"
        )
    neg = g.negative_edge_indices()
    if len(neg) != 1:
        failures.append(f"exactly one negative edge required, found {len(neg)}")
    if not plus_connected:
        failures.append("positive subgraph must be connected")
    if failures:
        raise HypothesisViolatedError(failures)

    k = neg[0]
    u, v, w = int(g.tails[k]), int(g.heads[k]), float(g.weights[k])
    # G+ is connected here, as the block solve requires.
    _, diagonal, x, copy_node, blocks = _block_solve(g_plus, np.array([[u, v]]))
    r_uv = float(diagonal[0])
    margin = abs(w) * r_uv - 1.0
    if abs(margin) > BOUNDARY_RTOL:
        raise HypothesisViolatedError(
            [f"negative weight must equal the threshold 1/{r_uv:.12g}; margin {margin:.3e}"]
        )

    # G+ is G without edge k, so its edges are G's others in order.
    on_cycle = np.flatnonzero(g.weights > 0.0)[blocks[:-1] == blocks[-1]]
    labels = component_labels(g, skip_edges=[*on_cycle.tolist(), k])
    potential = np.empty(n)
    potential[labels[copy_node]] = x[:, 0]
    z = potential[labels]
    null_vector = z - z.mean()
    residual = float(np.max(np.abs(_laplacian_product(g, null_vector[:, None]))))
    if residual > 1e-8:
        raise CrossCheckError(
            f"null-vector residual max|L z| {residual:.3e} exceeds 1e-8; "
            "the boundary structure is not consistent"
        )
    return ClusterPrediction(int(labels.max()) + 1, null_vector,
                             tuple(int(c) for c in labels))
