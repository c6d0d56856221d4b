"""Linear weighted consensus dynamics x' = -L x: simulation, cluster
prediction at the resistance boundary, and cluster detection in trajectories.

The integrator is deterministic fixed-step classical Runge-Kutta; the state
mean is a conserved quantity of the dynamics (1^T L = 0) and is preserved to
rounding error.  At the boundary ``|w| = 1/R_uv`` of a single negative edge,
the extra null vector of L is that edge's grounded potential over the
positive spanning tree (the resistance layer's sparse solve), and the
clusters are the components left once the cycle is removed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .definiteness import BOUNDARY_RTOL
from .errors import CrossCheckError, HypothesisViolatedError, UnboundedError
from .graph_core import SignedGraph, _canonical_labels, component_labels, path_edge_sets
from .laplacians import laplacian_matrix, sparse_laplacian
from .resistance import _grounded_solve, _indicator_difference

DEFAULT_T_FINAL = 20.0
DEFAULT_STEP = 1e-3
DEFAULT_OUTPUT_STRIDE = 10
DEFAULT_CLUSTER_TOL = 1e-5
UNBOUNDED_FACTOR = 1e6


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


def _rk4_step(A: np.ndarray, x: np.ndarray, h: float) -> np.ndarray:
    k1 = A @ x
    k2 = A @ (x + 0.5 * h * k1)
    k3 = A @ (x + 0.5 * h * k2)
    k4 = A @ (x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def simulate(g: SignedGraph, x0, t_final: float = DEFAULT_T_FINAL,
             step: float = DEFAULT_STEP, output_stride: int = DEFAULT_OUTPUT_STRIDE,
             cluster_tol: float = DEFAULT_CLUSTER_TOL) -> Trajectory:
    """Integrate x' = -L x from x0 with fixed-step RK4.

    States are recorded at t = 0, every ``output_stride`` steps, and at
    ``t_final``.  Divergence (possible when L is indefinite) is legitimate:
    the trajectory is returned with ``final_clusters = None``.
    """
    x0 = np.asarray(x0, dtype=float)
    if x0.shape != (g.node_count,):
        raise ValueError(f"x0 must have shape ({g.node_count},), got {x0.shape}")
    if t_final <= 0.0 or step <= 0.0:
        raise ValueError("t_final and step must be positive")
    if output_stride < 1:
        raise ValueError("output_stride must be >= 1")

    A = -laplacian_matrix(g)
    n_steps = int(np.floor(t_final / step + 1e-9))
    remainder = t_final - n_steps * step

    times = [0.0]
    states = [x0.copy()]
    x = x0.copy()
    for i in range(1, n_steps + 1):
        x = _rk4_step(A, x, step)
        if i % output_stride == 0:
            times.append(i * step)
            states.append(x.copy())
    if remainder > 1e-12 * max(1.0, t_final):
        x = _rk4_step(A, x, remainder)
        times.append(t_final)
        states.append(x.copy())
    elif n_steps % output_stride != 0:
        times.append(n_steps * step)
        states.append(x.copy())

    times_arr = np.array(times)
    states_arr = np.array(states)
    try:
        clusters = _detect(times_arr, states_arr, cluster_tol)
    except UnboundedError:
        clusters = None
    return Trajectory(times_arr, states_arr, step, clusters)


def _detect(times: np.ndarray, states: np.ndarray, tol: float) -> ClusterAssignment:
    m, n = states.shape
    start = int(np.floor(0.9 * (m - 1)))
    window = states[start:]

    norm_end = float(np.max(np.linalg.norm(window, axis=1)))
    norm_start = float(np.linalg.norm(states[0]))
    if norm_end > UNBOUNDED_FACTOR * norm_start:
        raise UnboundedError(
            f"final-window norm {norm_end:.3e} exceeds {UNBOUNDED_FACTOR:g} x "
            f"initial norm {norm_start:.3e}"
        )

    # Row i compares node i with every later node over the whole window.
    tails, heads = [np.empty(0, dtype=int)], [np.empty(0, dtype=int)]
    for i in range(n - 1):
        gap = np.max(np.abs(window[:, i + 1:] - window[:, [i]]), axis=0)
        agree = np.flatnonzero(gap <= tol) + i + 1
        tails.append(np.full(agree.size, i))
        heads.append(agree)
    labels = _canonical_labels(n, np.concatenate(tails), np.concatenate(heads))
    final = states[-1]
    values = [float(np.mean(final[labels == cid])) for cid in range(int(labels.max()) + 1)]
    return ClusterAssignment(tuple(int(c) for c in labels), tuple(values))


def detect_clusters(traj: Trajectory, tol: float = DEFAULT_CLUSTER_TOL) -> ClusterAssignment:
    """Partition nodes by agreement over the final 10% of the recorded run.

    Nodes share a cluster when their states stay within ``tol`` of each other
    throughout the window (transitively closed).

    Raises:
        UnboundedError: the final window grew beyond 1e6 x the initial norm,
            the footprint of an indefinite Laplacian.
    """
    return _detect(traj.times, traj.states, tol)


def predict_clusters(g: SignedGraph,
                     boundary_rtol: float = BOUNDARY_RTOL) -> ClusterPrediction:
    """Cluster count and null-space vector for the single-cycle boundary case.

    Requires: connected graph with exactly one cycle (|E| = |V|), exactly one
    negative edge (u, v), a connected positive subgraph G+ (hence a spanning
    tree, so the negative edge closes the cycle), and the negative magnitude
    sitting at the threshold 1/R_uv within ``boundary_rtol``.

    One grounded solve gives both R_uv and the extra null vector: the
    potential ``z = L(G+)^+ (e_v - e_u)`` has ``z_v - z_u = R_uv`` and
    ``L z = -margin (e_v - e_u)``, so it lies in the kernel of L at the
    boundary.  It is returned projected orthogonal to the all-ones vector.
    The cycle is the tree path from u to v plus the negative edge, and q is
    the number of components left once it is removed.

    Raises:
        HypothesisViolatedError: listing every precondition that failed.
        CrossCheckError: ``max|L z|`` exceeds 1e-8.
    """
    n = g.node_count
    failures = []
    if int(component_labels(g).max()) != 0:
        failures.append("graph must be connected")
    if g.edge_count != n:
        failures.append(
            f"exactly one cycle required (|E| = |V|), got {g.edge_count} edges on {n} nodes"
        )
    neg = g.negative_edge_indices()
    if len(neg) != 1:
        failures.append(f"exactly one negative edge required, found {len(neg)}")
    positive = g.positive_edge_indices()
    g_plus = g.subgraph(positive)
    if int(component_labels(g_plus).max()) != 0:
        failures.append("positive subgraph must be connected")
    if failures:
        raise HypothesisViolatedError(failures)

    u, v, w = g.edges[neg[0]]
    z = _grounded_solve(g_plus, _indicator_difference(n, v, u)[:, None])[:, 0]
    r_uv = float(z[v] - z[u])
    margin = abs(w) * r_uv - 1.0
    if abs(margin) > boundary_rtol:
        raise HypothesisViolatedError(
            [f"negative weight must equal the threshold 1/{r_uv:.12g}; margin {margin:.3e}"]
        )

    null_vector = z - z.mean()
    residual = float(np.max(np.abs(sparse_laplacian(g) @ null_vector)))
    if residual > 1e-8:
        raise CrossCheckError(
            f"null-vector residual max|L z| {residual:.3e} exceeds 1e-8; "
            "the boundary structure is not consistent"
        )
    (path,) = path_edge_sets(g_plus, [(u, v)])
    cycle = {positive[k] for k in path} | {neg[0]}
    labels = component_labels(g, skip_edges=cycle)
    return ClusterPrediction(int(labels.max()) + 1, null_vector,
                             tuple(int(c) for c in labels))
