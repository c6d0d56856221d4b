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
        traj = sl.simulate(g, x0, t_final=20.0, step=1e-2, output_stride=3)
        assert np.array_equal(traj.states[0], x0)
        expected = modal_states(dense_laplacian(g.node_count, g.edges), x0, traj.times)
        for row, exp in zip(traj.states, expected):
            assert np.max(np.abs(row - exp)) <= 1e-12 * max(1.0, float(np.max(np.abs(row))))


@pytest.mark.parametrize("t_final,output_stride", [(20.0, 10), (2.0153, 7), (0.5, 1)])
def test_simulate_matches_rk4_oracle_on_the_same_grid(t_final, output_stride):
    g = caterpillar_with_chord(-0.25)
    x0 = np.random.default_rng(5).uniform(0.0, 1.0, 9)
    traj = sl.simulate(g, x0, t_final=t_final, step=1e-3, output_stride=output_stride)
    times, states = rk4_trajectory(dense_laplacian(9, g.edges), x0, t_final, 1e-3,
                                   output_stride)
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
    {"t_final": np.inf}, {"t_final": 0.0}, {"step": 1e-12}, {"output_stride": 0},
    {"x0": [0.0, np.nan, 1.0]}, {"x0": [0.0, 1.0]},
    {"x0": np.array([0.0, 0.5j, 1.0])}, {"x0": [0.0, 0.5j, 1.0]}, {"x0": ["a", "b", "c"]},
], ids=["step-0", "step-neg", "step-nan", "t-final-nan", "t-final-inf", "t-final-0",
        "step-1e-12", "stride-0", "x0-nan", "x0-short", "x0-complex-array",
        "x0-complex-list", "x0-strings"])
def test_simulate_rejects_bad_parameters(kwargs):
    g = sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    x0 = kwargs.pop("x0", [0.0, 0.5, 1.0])
    with pytest.raises(sl.InvalidParameterError):
        sl.simulate(g, x0, **kwargs)


def test_recorded_values_bound_counts_samples_times_nodes():
    # 10**5 + 1 samples (t = 0 included) of 100 nodes: one sample over the bound
    g = sl.build_graph(100, [(v - 1, v, 1.0) for v in range(1, 100)])
    with pytest.raises(sl.InvalidParameterError, match="100001 samples of 100 nodes"):
        sl.simulate(g, np.zeros(100), t_final=1e5, step=1.0, output_stride=1)


@pytest.mark.parametrize("tol", [-1.0, np.nan])
def test_cluster_tolerance_rejected(tol):
    g = sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    with pytest.raises(sl.InvalidToleranceError):
        sl.simulate(g, [0.0, 0.5, 1.0], t_final=1.0, cluster_tol=tol)
    traj = sl.simulate(g, [0.0, 0.5, 1.0], t_final=1.0)
    with pytest.raises(sl.InvalidToleranceError):
        sl.detect_clusters(traj, tol=tol)


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
        assert prediction.component_map == tuple(sl.component_labels(g, cycle).tolist())


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


@pytest.mark.parametrize("extra", [-1, 0, 1, consensus._SAMPLE_BLOCK + 1])
def test_simulate_rows_match_modal_oracle_around_the_sample_block(extra):
    # stride 1 and an exact end: n_steps + 1 samples
    samples = consensus._SAMPLE_BLOCK + extra
    g = caterpillar_with_chord(-0.25)
    x0 = np.random.default_rng(13).uniform(0.0, 1.0, 9)
    traj = sl.simulate(g, x0, t_final=(samples - 1) * 0.0625, step=0.0625,
                       output_stride=1)
    assert traj.states.shape == (samples, 9)
    assert np.array_equal(traj.states[0], x0)
    expected = modal_states(dense_laplacian(9, g.edges), x0, traj.times)
    scale = np.maximum(1.0, np.max(np.abs(traj.states), axis=1))
    assert np.all(np.max(np.abs(traj.states - expected), axis=1) <= 1e-12 * scale)


def test_predict_clusters_labels_g_only_when_g_plus_is_disconnected(monkeypatch):
    calls = []

    def counting(g, skip_edges=()):
        calls.append(g.edge_count)
        return sl.component_labels(g, skip_edges)

    monkeypatch.setattr(consensus, "component_labels", counting)
    assert sl.predict_clusters(caterpillar_with_chord(-0.25)).q == 5
    # G+, then G without the cycle; G itself is not labelled
    assert calls == [8, 9]

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
