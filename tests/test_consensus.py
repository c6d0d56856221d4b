import copy
import gc
import pickle
import sys
import threading
import weakref
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import paper_constructions as pc
import siglap as sl
from siglap import consensus
from conftest import (
    bfs_component_count,
    brute_force_path_edges,
    caterpillar_with_chord,
    dense_laplacian,
    edge_difference_null_vector,
    modal_states,
    pairwise_closure_clusters,
    random_boundary_cycle_graph,
    rk4_trajectory,
)


def test_zero_initial_state_stays_zero():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    traj = sl.simulate(g, np.zeros(3), t_final=1.0)
    assert np.array_equal(traj.states, np.zeros_like(traj.states))
    assert traj.final_clusters.cluster_count == 1


def test_zero_initial_state_stays_zero_on_indefinite_graph():
    g = sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -5.0)])
    traj = sl.simulate(g, np.zeros(3), t_final=300.0)
    assert np.array_equal(traj.states, np.zeros_like(traj.states))
    assert traj.final_clusters.cluster_count == 1


def test_triangle_reaches_average_consensus():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    x0 = np.array([1.0, -2.0, 4.0])
    traj = sl.simulate(g, x0, t_final=10.0)
    assert np.max(np.abs(traj.states[-1] - x0.mean())) < 1e-6
    assert traj.final_clusters.cluster_count == 1
    assert traj.final_clusters.values[0] == pytest.approx(x0.mean(), abs=1e-6)


def test_times_start_at_zero_and_increase():
    g = sl.build_graph(2, [(0, 1, 1.0)])
    traj = sl.simulate(g, np.array([1.0, 0.0]), t_final=0.0153, step=1e-3)
    assert traj.times[0] == 0.0
    assert np.all(np.diff(traj.times) > 0)
    assert traj.times[-1] == pytest.approx(0.0153, abs=1e-12)
    assert traj.states.shape == (len(traj.times), 2)


def test_mean_is_conserved():
    rng = np.random.default_rng(97)
    g = caterpillar_with_chord(-0.25)
    x0 = rng.uniform(0.0, 1.0, 9)
    traj = sl.simulate(g, x0, t_final=20.0)
    means = traj.states.sum(axis=1)
    assert np.max(np.abs(means - means[0])) <= 1e-8 * abs(means[0])


def test_rk4_error_drops_sixteenfold_when_halving_step():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    x0 = np.array([1.0, 0.0, -1.0])
    L = dense_laplacian(3, g.edges)
    lam, V = np.linalg.eigh(L)
    exact = V @ (np.exp(-lam * 1.0) * (V.T @ x0))
    errs = []
    for h in (0.02, 0.01):
        _, states = rk4_trajectory(L, x0, t_final=1.0, step=h, output_stride=1)
        errs.append(np.max(np.abs(states[-1] - exact)))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0


def test_simulate_rows_match_modal_oracle():
    rng = np.random.default_rng(211)
    graphs = [caterpillar_with_chord(w) for w in (-0.1, -0.2, -0.25, -0.5)]
    graphs += [random_boundary_cycle_graph(rng) for _ in range(5)]
    for g in graphs:
        x0 = rng.uniform(0.0, 1.0, g.node_count)
        traj = sl.simulate(g, x0, t_final=20.0, step=3e-3)
        assert np.array_equal(traj.states[0], x0)
        expected = modal_states(dense_laplacian(g.node_count, g.edges), x0, traj.times)
        for row, exp in zip(traj.states, expected):
            assert np.max(np.abs(row - exp)) <= 1e-12 * max(1.0, float(np.max(np.abs(row))))


# The default grid, an off-grid t_final, and exact ends off and on the sample grid.
@pytest.mark.parametrize("t_final,step", [(20.0, 1e-3), (2.0153, 1e-3), (0.507, 1e-3),
                                          (0.5, 1e-4)])
def test_simulate_matches_rk4_oracle_on_the_same_grid(t_final, step):
    g = caterpillar_with_chord(-0.25)
    x0 = np.random.default_rng(5).uniform(0.0, 1.0, 9)
    traj = sl.simulate(g, x0, t_final=t_final, step=step)
    times, states = rk4_trajectory(dense_laplacian(9, g.edges), x0, t_final, step)
    assert np.array_equal(traj.times, times)
    assert np.max(np.abs(traj.states - states)) <= 1e-9


def test_non_finite_runs_are_reported_as_diverged():
    g = sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -5.0)])
    for t_final in (75.0, 300.0):  # a huge finite window, then an infinite one
        traj = sl.simulate(g, np.array([0.2, 0.5, 0.9]), t_final=t_final)
        assert traj.diverged
    for bad in (np.nan, np.inf):
        states = np.ones((20, 3))
        states[-1, 1] = bad
        with pytest.raises(sl.UnboundedError):
            sl.detect_clusters(trajectory_of(states))


def test_growth_from_an_eigenvalue_inside_the_zero_tolerance_is_divergence():
    # A 50-node cycle whose chord is 3e-12 past its threshold 1/49: L has one
    # negative eigenvalue, inside the zero tolerance, so only the norm test of
    # cluster detection sees the growth by t_final.
    n = 50
    g = sl.build_graph(n, [(v, v + 1, 1.0) for v in range(n - 1)]
                       + [(0, n - 1, -(1 + 3e-12) / (n - 1))])
    assert sl.multi_edge_verdict(g).classification is sl.Classification.BOUNDARY
    traj = sl.simulate(g, np.linspace(0.0, 1.0, n), t_final=1e16, step=1e13)
    lam = vars(g)["_modes"].lam
    rounding = np.finfo(float).eps * np.max(np.abs(lam))
    assert 10 * rounding < -lam.min() < sl.default_zero_tolerance(lam, n)
    assert traj.times.size == 101 and traj.diverged


def test_detect_rejects_an_inf_among_states_whose_norms_overflow():
    # Every row's norm overflows to inf, so a norm ratio alone misses the inf.
    for row in (-1, 0):
        states = np.full((20, 3), 1e200)
        states[row, 1] = np.inf
        with pytest.raises(sl.UnboundedError):
            sl.detect_clusters(trajectory_of(states))


def test_detect_rejects_growth_from_an_initial_state_whose_norm_overflows():
    states = np.geomspace(1e200, 2e300, 20)[:, None] * np.ones(3)
    with pytest.raises(sl.UnboundedError):
        sl.detect_clusters(trajectory_of(states))
    # the same magnitude held steady is bounded, and agrees
    assert sl.detect_clusters(trajectory_of(np.full((20, 3), 1e200))).cluster_count == 1


@pytest.mark.parametrize("kwargs", [
    {"step": 0.0}, {"step": -1e-3}, {"step": np.nan}, {"t_final": np.nan},
    {"t_final": np.inf}, {"t_final": 0.0}, {"step": 1e-12},
    {"x0": [0.0, np.nan, 1.0]}, {"x0": [0.0, 1.0]},
    {"x0": np.array([0.0, 0.5j, 1.0])}, {"x0": [0.0, 0.5j, 1.0]}, {"x0": ["a", "b", "c"]},
    {"t_final": 10**400}, {"step": Fraction(10**400, 3)},
], ids=["step-0", "step-neg", "step-nan", "t-final-nan", "t-final-inf", "t-final-0",
        "step-1e-12", "x0-nan", "x0-short", "x0-complex-array",
        "x0-complex-list", "x0-strings", "t-final-beyond-doubles", "step-beyond-doubles"])
def test_simulate_rejects_bad_parameters(kwargs):
    g = sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    x0 = kwargs.pop("x0", [0.0, 0.5, 1.0])
    with pytest.raises(sl.InvalidParameterError):
        sl.simulate(g, x0, **kwargs)


def test_cluster_tol_is_keyword_only():
    # a fifth positional argument is refused, not read as a cluster tolerance
    g = sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(TypeError):
        sl.simulate(g, [0.0, 0.5, 1.0], 2.0, 1e-3, 10)


def test_recorded_values_bound_counts_samples_times_nodes():
    # 10**5 + 1 samples (t = 0 included) of 100 nodes: one sample over the bound
    g = sl.build_graph(100, [(v - 1, v, 1.0) for v in range(1, 100)])
    with pytest.raises(sl.InvalidParameterError, match="100001 samples of 100 nodes"):
        sl.simulate(g, np.zeros(100), t_final=1e6, step=1.0)


@pytest.mark.parametrize("tol", [-1.0, np.nan])
def test_cluster_tolerance_rejected(tol):
    g = sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(sl.InvalidToleranceError):
        sl.simulate(g, [0.0, 0.5, 1.0], t_final=1.0, cluster_tol=tol)
    traj = sl.simulate(g, [0.0, 0.5, 1.0], t_final=1.0)
    with pytest.raises(sl.InvalidToleranceError):
        sl.detect_clusters(traj, tol=tol)


@pytest.mark.parametrize("given, read", [
    ({"t_final": Fraction(1, 3)}, {"t_final": 1 / 3}),
    ({"step": Fraction(1, 100)}, {"step": 0.01}),
    ({"cluster_tol": Fraction(1, 3)}, {"cluster_tol": 1 / 3}),
    ({"step": 2**70}, {"step": 2.0**70}),
    ({"t_final": Decimal("1.5")}, {"t_final": 1.5}),
    ({"step": Decimal("0.01")}, {"step": 0.01}),
    ({"cluster_tol": Decimal("1e-3")}, {"cluster_tol": 1e-3}),
], ids=["t-final-fraction", "step-fraction", "cluster-tol-fraction", "step-beyond-int64",
        "t-final-decimal", "step-decimal", "cluster-tol-decimal"])
def test_a_real_scalar_is_read_once_as_its_float(given, read):
    # a Fraction or an int beyond int64 passes its check, so it must run as
    # the float it reads as, not reach numpy as itself
    g = sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    args = {"t_final": 2.0, "step": 1e-3, "cluster_tol": 1e-5}
    got = sl.simulate(g, [0.0, 0.5, 1.0], **(args | given))
    expected = sl.simulate(g, [0.0, 0.5, 1.0], **(args | read))
    assert np.array_equal(got.times, expected.times)
    assert np.array_equal(got.states, expected.states)
    assert got.final_clusters == expected.final_clusters
    assert type(got.step_size) is float and got.step_size == expected.step_size


def test_detect_clusters_reads_a_fraction_tolerance_as_its_float():
    g = sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    traj = sl.simulate(g, [0.0, 0.5, 1.0], t_final=1.0)
    assert sl.detect_clusters(traj, Fraction(1, 3)) == sl.detect_clusters(traj, 1 / 3)
    assert sl.detect_clusters(traj, Fraction(1, 3)).cluster_count == 1


def test_synchronization_with_weak_negative_edge():
    g = caterpillar_with_chord(-0.1)
    rng = np.random.default_rng(0)
    x0 = rng.uniform(0.0, 1.0, 9)
    # slowest stable mode is ~0.11, so full agreement needs a long horizon
    traj = sl.simulate(g, x0, t_final=120.0)
    assert traj.final_clusters.cluster_count == 1
    assert np.max(traj.states[-1]) - np.min(traj.states[-1]) < 1e-5


def test_detect_clusters_boundary_run_matches_prediction():
    g = caterpillar_with_chord(-0.25)
    prediction = sl.predict_clusters(g)
    rng = np.random.default_rng(0)
    traj = sl.simulate(g, rng.uniform(0.0, 1.0, 9))
    clusters = sl.detect_clusters(traj, tol=1e-5)
    assert clusters.cluster_count == prediction.q == 5
    assert clusters.labels == prediction.component_map


def test_detect_clusters_unbounded_on_indefinite_run():
    g = caterpillar_with_chord(-0.5)
    rng = np.random.default_rng(0)
    traj = sl.simulate(g, rng.uniform(0.0, 1.0, 9), t_final=80.0)
    assert traj.diverged
    with pytest.raises(sl.UnboundedError):
        sl.detect_clusters(traj)


def test_predict_clusters_three_cycle():
    g = sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -0.5)])
    prediction = sl.predict_clusters(g)
    assert prediction.q == 3
    assert prediction.component_map == (0, 1, 2)
    L = dense_laplacian(3, g.edges)
    assert sorted(np.abs(np.linalg.eigvalsh(L)) < 1e-9) == [False, True, True]
    assert np.max(np.abs(L @ prediction.null_vector)) < 1e-8
    assert abs(prediction.null_vector.sum()) < 1e-8


def test_predict_clusters_caterpillar():
    g = caterpillar_with_chord(-0.25)
    prediction = sl.predict_clusters(g)
    assert prediction.q == 5
    assert prediction.component_map == (0, 1, 2, 3, 4, 0, 1, 3, 4)
    v = prediction.null_vector
    assert np.max(np.abs(dense_laplacian(9, g.edges) @ v)) < 1e-8
    assert abs(v.sum()) < 1e-8
    # constant on each off-cycle component: every leaf equals its anchor
    for leaf, anchor in ((5, 0), (6, 1), (7, 3), (8, 4)):
        assert v[leaf] == pytest.approx(v[anchor], abs=1e-10)
    # on this symmetric graph the cycle entries also sum to zero
    assert abs(v[:5].sum()) < 1e-8
    assert len(np.unique(np.round(v[:5], 9))) == 5


def test_predict_clusters_checks_the_null_vector_residual(monkeypatch):
    # a potential off by 1e-6 at node 0's copy keeps R(0, 4) but breaks
    # L z = 0 at 0's cycle neighbours 1 and 4 and at 0 itself
    solve = consensus._block_solve

    def perturbed(g_plus, pairs):
        matrix, diagonal, x, copy_node, blocks = solve(g_plus, pairs)
        x[copy_node == 0] += 1e-6
        return matrix, diagonal, x, copy_node, blocks

    monkeypatch.setattr(consensus, "_block_solve", perturbed)
    with pytest.raises(sl.CrossCheckError,
                       match=r"null-vector residual max\|L z\| 1\.000e-06 exceeds 1e-8"):
        sl.predict_clusters(caterpillar_with_chord(-0.25))


@st.composite
def trees_with_chord_at_threshold(draw):
    """A random tree with weights 10**U(0, 8) plus one chord (possibly
    parallel to a tree edge) at ``-1/R`` over the tree."""
    n = draw(st.integers(4, 40))
    tree = [(draw(st.integers(0, v - 1)), v, 10.0 ** draw(st.floats(0.0, 8.0)))
            for v in range(1, n)]
    v = draw(st.integers(1, n - 1))
    u = draw(st.integers(0, v - 1))
    r_uv = sl.effective_resistance(sl.build_graph(n, tree), u, v)
    return sl.build_graph(n, tree + [(u, v, -1.0 / r_uv)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(trees_with_chord_at_threshold())
def test_predict_clusters_accepts_exactly_the_boundary_verdicts(g):
    # one block solve gives R_uv to both, so they agree on every margin,
    # and the scattered null vector never fails its residual check
    boundary = sl.multi_edge_verdict(g).classification is sl.Classification.BOUNDARY
    try:
        sl.predict_clusters(g)
        accepted = True
    except sl.HypothesisViolatedError:
        accepted = False
    assert accepted == boundary


def test_predict_clusters_reports_all_failed_preconditions():
    g = sl.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0)])  # tree, no negatives
    with pytest.raises(sl.HypothesisViolatedError) as err:
        sl.predict_clusters(g)
    text = " ".join(err.value.failures)
    assert "cycle" in text
    assert "negative" in text


def test_predict_clusters_rejects_off_boundary_weight():
    g = caterpillar_with_chord(-0.2)
    with pytest.raises(sl.HypothesisViolatedError) as err:
        sl.predict_clusters(g)
    assert any("threshold" in f for f in err.value.failures)


def test_predict_clusters_rejects_negative_edge_off_cycle():
    # cycle 0-1-2, pendant 3 attached negatively
    g = sl.build_graph(4, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0), (2, 3, -1.0)])
    with pytest.raises(sl.HypothesisViolatedError):
        sl.predict_clusters(g)


def test_prediction_matches_detection_on_random_boundary_graphs():
    rng = np.random.default_rng(101)
    for _ in range(5):
        g = random_boundary_cycle_graph(rng)
        prediction = sl.predict_clusters(g)
        L = dense_laplacian(g.node_count, g.edges)
        lam = np.linalg.eigvalsh(L)
        slowest = float(np.min(lam[lam > 1e-8]))
        x0 = rng.uniform(0.0, 1.0, g.node_count)
        t_final = min(400.0, np.log(1e8) / slowest)
        traj = sl.simulate(g, x0, t_final=t_final, step=0.01)
        clusters = sl.detect_clusters(traj, tol=1e-5)
        assert clusters.cluster_count == prediction.q
        assert clusters.labels == prediction.component_map


def test_cycle_projection_eigenvalue_equals_resistance():
    rng = np.random.default_rng(103)
    for _ in range(5):
        g = random_boundary_cycle_graph(rng)
        positive = np.flatnonzero(g.weights > 0)
        dec = pc.decompose_with_forest(g, positive)
        t_vec = dec.tree_to_cycle[:, 0]
        w_plus = g.weights[list(dec.forest_edges)]
        m = np.outer(t_vec / np.sqrt(w_plus), t_vec / np.sqrt(w_plus))
        lam = np.linalg.eigvalsh(m)
        (k,) = g.negative_edge_indices()
        u, v, _ = g.edges[k]
        r_uv = sl.effective_resistance(g.subgraph(positive), u, v)
        assert lam[-1] == pytest.approx(r_uv, abs=1e-9)
        assert np.max(np.abs(lam[:-1])) < 1e-12


def trajectory_of(states: np.ndarray) -> sl.Trajectory:
    return sl.Trajectory(np.arange(len(states), dtype=float), states, 1.0, None)


def test_detect_clusters_reads_states_given_as_lists():
    listed = sl.Trajectory(np.arange(2.0), [[0.0, 1.0]] * 2, 1.0, None)
    assert sl.detect_clusters(listed) == sl.detect_clusters(trajectory_of(np.array(listed.states)))
    assert sl.detect_clusters(listed).cluster_count == 2


def test_detect_clusters_matches_pairwise_closure():
    rng = np.random.default_rng(107)
    for case in range(60):
        m, n = int(rng.integers(2, 25)), int(rng.integers(1, 16))
        if case % 3 == 0:  # exact ties: columns copied from a few source nodes
            states = rng.uniform(0.0, 1.0, (m, 4))[:, rng.integers(0, 4, n)]
        elif case % 3 == 1:  # values on a coarse grid, so ties and near-ties
            states = np.round(4.0 * rng.uniform(0.0, 1.0, (m, n))) / 4.0
        else:
            states = rng.integers(0, 3, n) + rng.normal(0.0, 0.05, (m, n))
        for tol in (0.0, 0.05, 0.25, 2.0):
            clusters = sl.detect_clusters(trajectory_of(states), tol=tol)
            labels, values = pairwise_closure_clusters(states, tol)
            assert clusters.labels == labels
            assert clusters.values == values


def test_predict_clusters_matches_edge_difference_construction():
    rng = np.random.default_rng(8088)
    for _ in range(50):
        g = random_boundary_cycle_graph(rng)
        prediction = sl.predict_clusters(g)
        expected = edge_difference_null_vector(g)
        scale = float(np.max(np.abs(expected)))
        assert np.max(np.abs(prediction.null_vector - expected)) <= 1e-12 * scale
        # the cycle is every edge on a simple u-v path of G+, plus the chord
        positive = np.flatnonzero(g.weights > 0)
        (k,) = g.negative_edge_indices()
        u, v, _ = g.edges[k]
        path = brute_force_path_edges(g.subgraph(positive), u, v)
        cycle = {positive[e] for e in path} | {k}
        kept = [(a, b) for e, (a, b, _) in enumerate(g.edges) if e not in cycle]
        assert prediction.q == bfs_component_count(g.node_count, kept)
        labels = sl.component_labels(g.subgraph([e for e in range(g.edge_count)
                                                 if e not in cycle]))
        assert prediction.component_map == tuple(labels.tolist())


def test_slowly_growing_indefinite_run_is_diverged():
    # smallest eigenvalue -0.228: by t = 20 the run has grown only about
    # sevenfold, far from the norm test's 1e6, yet it never converges
    g = caterpillar_with_chord(-0.5)
    traj = sl.simulate(g, np.random.default_rng(0).uniform(0.0, 1.0, 9))
    assert np.max(np.abs(traj.states)) < 10.0
    assert traj.diverged


def window_states(window_rows) -> np.ndarray:
    """21 samples whose final 10% window (samples 18-20) is ``window_rows``;
    the earlier samples repeat the window's first row."""
    rows = np.array(window_rows, dtype=float)
    return np.vstack([np.repeat(rows[:1], 18, axis=0), rows])


ULP_1E8 = float(np.spacing(1e8))

# (window rows, tol, expected labels); each is also checked against the
# pairwise-closure oracle.
STRESS_CASES = {
    # nodes 0 and 1 end equal but are apart earlier in the window
    "crossing": ([[0.0, 1.0, 2.0], [0.5, 0.75, 2.0], [0.625, 0.625, 2.0]], 0.125,
                 (0, 1, 2)),
    # node 1 ~ 2 ~ 0 ~ 3, each link exactly tol apart, 1 and 0 apart; node ids
    # out of final-value order
    "chain": ([[0.25, 0.0, 0.125, 0.375, 1.0]] * 3, 0.125, (0, 0, 0, 0, 1)),
    # the same chain with the 2 ~ 0 link broken earlier in the window
    "broken-chain": ([[0.25, 0.0, 0.0, 0.375, 1.0], [0.25, 0.0, 0.125, 0.375, 1.0],
                      [0.25, 0.0, 0.125, 0.375, 1.0]], 0.125, (0, 1, 1, 0, 2)),
    # tol = 0: exact ties only, and a tie in the last row alone does not count
    "tol-zero": ([[3.0, 1.0, 3.0, 1.0, 2.0], [3.0, 1.0, 3.0, 1.0, 2.0],
                  [3.0, 1.0, 3.0, 3.0, 2.0]], 0.0, (0, 1, 0, 2, 3)),
    # near 1e8 the spacing is 2**-26; gaps of exactly 1 and 2 ulps
    "offset-1e8": ([[1e8 + 2 * ULP_1E8, 1e8, 1e8 + ULP_1E8, 1e8 + 3 * ULP_1E8]] * 3,
                   ULP_1E8, (0, 0, 0, 0)),
    # -1e8 + tol is 0 exactly, yet 5e-9 - (-1e8) rounds to tol: the gap test
    # accepts a pair that lies past the unpadded final-value bound
    "rounded-gap": ([[5e-9, -1e8, 3.0]] * 3, 1e8, (0, 0, 0)),
    "rounded-gap-split": ([[5e-9, -1e8, 3.0, 2e8 + 1.0]] * 3, 1e8, (0, 0, 0, 1)),
}


@pytest.mark.parametrize("name", sorted(STRESS_CASES))
def test_detect_clusters_stress_cases_match_pairwise_closure(name):
    rows, tol, expected = STRESS_CASES[name]
    states = window_states(rows)
    clusters = sl.detect_clusters(trajectory_of(states), tol=tol)
    labels, values = pairwise_closure_clusters(states, tol)
    assert clusters.labels == labels == expected
    assert clusters.values == values


# Entries that make ties, gaps of exactly a tolerance below, and mixed
# magnitudes whose differences round.
GRID_VALUES = [0.0, 0.125, 0.25, 0.375, 1.0, -1e8, 5e-9, -5e-9, 1e8, 1e8 + ULP_1E8,
               1e8 + 2 * ULP_1E8]
GRID_TOLS = [0.0, 0.125, 0.25, 1.0, ULP_1E8, 1e8, 2e8]


@st.composite
def state_matrices(draw):
    n = draw(st.integers(1, 10))
    m = draw(st.integers(1, 12))
    entry = st.one_of(st.sampled_from(GRID_VALUES), st.floats(-2.0, 2.0))
    states = np.array(draw(st.lists(st.lists(entry, min_size=n, max_size=n),
                                    min_size=m, max_size=m)))
    # a first row as large as any entry keeps the norm test from firing
    big = max(1.0, float(np.max(np.abs(states))))
    return np.vstack([np.full((1, n), big), states])


@settings(derandomize=True, max_examples=400, deadline=None)
@given(state_matrices(), st.sampled_from(GRID_TOLS))
def test_detect_clusters_equals_pairwise_closure_property(states, tol):
    clusters = sl.detect_clusters(trajectory_of(states), tol=tol)
    assert (clusters.labels, clusters.values) == pairwise_closure_clusters(states, tol)


def test_detect_clusters_at_workload_scale_matches_pairwise_closure():
    # 300 nodes in 5 clusters jittered well inside tol, as a boundary run ends,
    # plus a planted trio a < b < c in final value: a and c agree over the
    # window, b agrees with neither.  The clusters join rank neighbours in one
    # pass; the trio's rank neighbours disagree, so a must reach past b to c.
    rng = np.random.default_rng(17)
    tol = 1e-5
    centres = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    final = centres[rng.integers(0, 5, 300)] + rng.uniform(-1e-6, 1e-6, 300)
    clustered = final + rng.uniform(-1e-6, 1e-6, (3, 300))
    trio = [[2.0, 3.0, 2.0 + 5e-6], [2.0, 3.0, 2.0 + 5e-6], [2.0, 2.0 + 2.5e-6, 2.0 + 5e-6]]
    perm = rng.permutation(303)
    states = window_states(np.hstack([clustered, trio]))[:, perm]
    a, b, c = np.argsort(perm)[300:]  # the trio's node ids after the shuffle
    clusters = sl.detect_clusters(trajectory_of(states), tol=tol)
    assert (clusters.labels, clusters.values) == pairwise_closure_clusters(states, tol)
    assert clusters.cluster_count == 7
    assert clusters.labels[a] == clusters.labels[c] != clusters.labels[b]


@pytest.mark.parametrize("extra, step, past_grid, stiff", [
    (-1, 0.0625, 0.0, False),
    (0, 0.0625, 0.0, False),
    (1, 0.0625, 0.0, False),
    (consensus._SAMPLE_BLOCK + 1, 0.0625, 0.0, False),
    # t_s + t_j is not exactly the recorded time t_{s+j}
    (consensus._SAMPLE_BLOCK + 1, 0.013, 0.0, False),
    # an off-grid t_final: its own row, alone in the last block
    (0, 0.013, 0.0052, False),
    # weights 10**U(-1, 3); the tail row shares the last block
    (consensus._SAMPLE_BLOCK + 1, 0.013, 0.0052, True),
], ids=["one-short", "one-block", "one-over", "two-blocks", "non-dyadic", "off-grid-end",
        "stiff"])
def test_simulate_rows_match_modal_oracle_around_the_sample_block(extra, step, past_grid,
                                                                  stiff):
    # samples on-grid samples, one every OUTPUT_STRIDE steps, and one more at
    # t_final past the grid
    samples = consensus._SAMPLE_BLOCK + extra
    rng = np.random.default_rng(13)
    x0 = rng.uniform(0.0, 1.0, 9)
    g = caterpillar_with_chord(-0.25)
    if stiff:
        g = sl.build_graph(9, [(u, v, float(10 ** rng.uniform(-1.0, 3.0))) for u, v, _ in g.edges])
    t_final = (samples - 1) * consensus.OUTPUT_STRIDE * step + past_grid
    traj = sl.simulate(g, x0, t_final=t_final, step=step)
    assert traj.states.shape == (samples + (past_grid > 0), 9)
    assert traj.times[-1] == t_final
    assert np.array_equal(traj.states[0], x0)
    expected = modal_states(dense_laplacian(9, g.edges), x0, traj.times)
    scale = np.maximum(1.0, np.max(np.abs(traj.states), axis=1))
    assert np.all(np.max(np.abs(traj.states - expected), axis=1) <= 1e-12 * scale)


def test_predict_clusters_labels_g_only_when_g_plus_is_disconnected(monkeypatch):
    calls = []

    def counting(g):
        calls.append(g.edge_count)
        return sl.component_labels(g)

    monkeypatch.setattr(consensus, "component_labels", counting)
    assert sl.predict_clusters(caterpillar_with_chord(-0.25)).q == 5
    # G+ (8 edges), then G without its five cycle edges; G itself (9 edges)
    # is not labelled
    assert calls == [8, 4]

    # G+ disconnected: G is labelled to report whether it is connected too,
    # and the failures keep their order
    calls.clear()
    g = sl.build_graph(4, [(0, 1, 1.0), (1, 2, -1.0), (0, 2, 1.0)])
    with pytest.raises(sl.HypothesisViolatedError) as err:
        sl.predict_clusters(g)
    assert err.value.failures == (
        "graph must be connected",
        "exactly one cycle required (|E| = |V|), got 3 edges on 4 nodes",
        "positive subgraph must be connected",
    )
    assert calls == [2, 3]
    g = sl.build_graph(3, [(0, 1, 1.0), (1, 2, -1.0), (0, 2, -1.0)])
    with pytest.raises(sl.HypothesisViolatedError) as err:
        sl.predict_clusters(g)
    assert err.value.failures == (
        "exactly one negative edge required, found 2",
        "positive subgraph must be connected",
    )


def test_simulate_on_the_empty_graph_records_no_node():
    g0 = sl.SignedGraph(0, [], [], [])
    traj = sl.simulate(g0, [], t_final=2.0)
    assert np.array_equal(traj.times, sl.simulate(sl.SignedGraph(1, [], [], []), [0.5],
                                                  t_final=2.0).times)
    assert traj.states.shape == (traj.times.size, 0)
    assert traj.final_clusters == sl.ClusterAssignment((), ())
    assert sl.detect_clusters(traj) == sl.ClusterAssignment((), ())


def test_predict_clusters_on_the_empty_graph_lists_its_failures():
    with pytest.raises(sl.HypothesisViolatedError) as err:
        sl.predict_clusters(sl.SignedGraph(0, [], [], []))
    assert err.value.failures == (
        "graph must be connected",
        "exactly one negative edge required, found 0",
        "positive subgraph must be connected",
    )


# ---------------------------------------------------------------------------
# The eigendecomposition kept on a simulated graph
# ---------------------------------------------------------------------------

# Varied runs on one graph: grids that end on and off the step and the sample
# grid, sample spacings, and tolerances that part or join clusters.
SIMULATE_ARGS = (
    {},
    {"t_final": 3.0, "step": 0.01},
    {"t_final": 2.5, "step": 7e-3},
    {"t_final": 5.0, "cluster_tol": 1e-3},
    {"t_final": 0.4, "step": 1e-4, "cluster_tol": 0.0},
    {"t_final": 20.0, "step": 0.00411},
)


def record_cases(rng) -> list[tuple[sl.SignedGraph, list[np.ndarray]]]:
    """Graphs with the initial states they are simulated from: a boundary
    caterpillar, an indefinite one (diverged runs), a boundary cycle graph,
    two components, and a 307-node hub tree; each x0 list holds a state
    that misses modes (constant, or zero on one component)."""
    two = sl.build_graph(7, [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 0.5), (3, 4, 1.5),
                             (4, 5, 1.0), (5, 6, 0.25)])
    hubs = [(0, h, float(rng.uniform(50.0, 100.0))) for h in range(1, 7)]
    leaves = [(1 + (v - 7) // 50, v, float(rng.uniform(1.0, 2.0))) for v in range(7, 307)]
    graphs = [caterpillar_with_chord(-0.25), caterpillar_with_chord(-0.5),
              random_boundary_cycle_graph(rng, 20, 40), two, sl.build_graph(307, hubs + leaves)]
    cases = []
    for g in graphs:
        n = g.node_count
        x0s = [rng.uniform(0.0, 1.0, n), np.full(n, 0.25), rng.normal(size=n)]
        if g is two:
            x0s.append(np.concatenate([np.zeros(3), rng.uniform(0.0, 1.0, 4)]))
        cases.append((g, x0s))
    return cases


def fresh_graph(g: sl.SignedGraph) -> sl.SignedGraph:
    return sl.SignedGraph(g.node_count, g.tails, g.heads, g.weights)


def trajectory_bits(traj: sl.Trajectory) -> tuple:
    return traj.times.tobytes(), traj.states.tobytes(), traj.step_size, traj.final_clusters


def test_repeated_simulate_calls_give_the_bits_of_a_fresh_graph():
    for g, x0s in record_cases(np.random.default_rng(173)):
        for x0 in x0s:
            for kwargs in SIMULATE_ARGS:
                expected = trajectory_bits(sl.simulate(fresh_graph(g), x0, **kwargs))
                assert trajectory_bits(sl.simulate(g, x0, **kwargs)) == expected
                assert trajectory_bits(sl.simulate(g, list(x0), **kwargs)) == expected


def eigh_spy(monkeypatch) -> list[int]:
    """Record the order of every matrix that ``simulate`` decomposes."""
    calls = []
    real = consensus.eigh
    monkeypatch.setattr(consensus, "eigh", lambda a, *args, **kw:
                        calls.append(a.shape[0]) or real(a, *args, **kw))
    return calls


def test_a_graph_is_decomposed_once(monkeypatch):
    calls = eigh_spy(monkeypatch)
    cases = record_cases(np.random.default_rng(179))
    for g, x0s in cases:
        for x0 in x0s:
            for kwargs in SIMULATE_ARGS:
                sl.simulate(g, x0, **kwargs)
    assert calls == [g.node_count for g, _ in cases]
    # An equal graph is another object and decomposes its own Laplacian.
    g = cases[0][0]
    sl.simulate(fresh_graph(g), cases[0][1][0])
    assert calls[-1] == g.node_count and len(calls) == len(cases) + 1


def test_the_kept_decomposition_cannot_be_made_writeable():
    g = caterpillar_with_chord(-0.25)
    x0 = np.linspace(0.0, 1.0, 9)
    before = trajectory_bits(sl.simulate(g, x0))
    record = vars(g)["_modes"]
    assert record.lam.shape == (9,) and record.vectors.shape == (9, 9)
    for kept in (record.lam, record.vectors):
        with pytest.raises(ValueError):
            kept[:1] = 5.0
        owner = kept  # nor may any array it is a view of
        while isinstance(owner, np.ndarray):
            with pytest.raises(ValueError):
                owner.flags.writeable = True
            owner = owner.base
    assert trajectory_bits(sl.simulate(g, x0)) == before


def test_a_refused_simulate_call_keeps_nothing(monkeypatch):
    calls = eigh_spy(monkeypatch)
    g = sl.build_graph(100, [(v - 1, v, 1.0) for v in range(1, 100)])
    x0 = np.linspace(0.0, 1.0, 100)
    refused = [
        lambda: sl.simulate(g, x0[:-1]),
        lambda: sl.simulate(g, ["0.5"] * 100),
        lambda: sl.simulate(g, np.full(100, np.nan)),
        lambda: sl.simulate(g, x0, t_final=-1.0),
        lambda: sl.simulate(g, x0, t_final=1e6, step=1.0),
    ]
    for call in refused:
        with pytest.raises(sl.InvalidParameterError):
            call()
    with pytest.raises(sl.InvalidToleranceError):
        sl.simulate(g, x0, cluster_tol=-1.0)
    assert calls == [] and "_modes" not in vars(g)

    # A decomposition that fails is not kept either: the next call makes one.
    def failing(*args, **kwargs):
        raise np.linalg.LinAlgError("no convergence")

    real = consensus.eigh
    monkeypatch.setattr(consensus, "eigh", failing)
    with pytest.raises(np.linalg.LinAlgError):
        sl.simulate(g, x0)
    assert "_modes" not in vars(g)
    monkeypatch.setattr(consensus, "eigh", real)
    assert trajectory_bits(sl.simulate(g, x0)) == trajectory_bits(sl.simulate(fresh_graph(g), x0))
    assert "_modes" in vars(g)


def test_copied_and_derived_graphs_carry_no_decomposition():
    g = caterpillar_with_chord(-0.25)
    x0 = np.linspace(0.0, 1.0, 9)
    expected = trajectory_bits(sl.simulate(g, x0))
    assert "_modes" in vars(g)
    for other in (pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        assert other == g and "_modes" not in vars(other)
        assert trajectory_bits(sl.simulate(other, x0)) == expected
    for derived in (g.positive_subgraph(), g.subgraph(range(g.edge_count))):
        assert "_modes" not in vars(derived)


def test_a_simulated_graph_is_freed_with_its_last_reference():
    # The record holds no reference back to the graph, so dropping the graph
    # frees it and its decomposition at once, with no cycle collection.
    cases = record_cases(np.random.default_rng(181))
    while cases:
        g, x0s = cases.pop()
        sl.simulate(g, x0s[0], t_final=1.0)
        alive = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert alive() is None
        finally:
            gc.enable()


def test_threads_sharing_a_graph_get_the_bits_of_a_fresh_graph():
    # Four threads race on one graph's first simulate: each may decompose it,
    # and every trajectory must still be the fresh graph's.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for g, x0s in record_cases(np.random.default_rng(191)):
            fresh = [trajectory_bits(sl.simulate(fresh_graph(g), x0, t_final=2.0)) for x0 in x0s]
            results = []

            def run(g=g, x0s=x0s, results=results):
                for _ in range(3):
                    results.append([trajectory_bits(sl.simulate(g, x0, t_final=2.0))
                                    for x0 in x0s])

            threads = [threading.Thread(target=run) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [fresh] * 12
    finally:
        sys.setswitchinterval(interval)
