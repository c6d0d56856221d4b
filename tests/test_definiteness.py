import numpy as np
import pytest

import siglap as sl
from conftest import (
    blocks_glued_at_cut_vertices,
    caterpillar_with_chord,
    cycle_chain_at_threshold,
    dense_laplacian,
    eig_signature,
    random_boundary_cycle_graph,
    random_connected_positive,
    random_tree,
    triangle_chain_with_chords,
)
from siglap import definiteness, graph_core, resistance
from siglap.definiteness import BOUNDARY_RTOL, Classification, _lift_schur_inertia


def test_parallel_pair_strict_interior():
    g = sl.build_graph(2, [(0, 1, 1.0), (0, 1, -0.5)])
    verdict = sl.single_edge_verdict(g)
    assert verdict.classification is Classification.STRICT_INTERIOR
    assert verdict.per_edge[0].threshold == pytest.approx(1.0)
    assert verdict.sigma.as_tuple() == (1, 0, 1)
    assert eig_signature(dense_laplacian(2, g.edges)) == (1, 0, 1)


def test_caterpillar_boundary():
    verdict = sl.single_edge_verdict(caterpillar_with_chord(-0.25))
    assert verdict.classification is Classification.BOUNDARY
    assert verdict.sigma.as_tuple() == (7, 0, 2)
    assert verdict.per_edge[0].threshold == pytest.approx(0.25, abs=1e-12)


def test_caterpillar_indefinite():
    verdict = sl.single_edge_verdict(caterpillar_with_chord(-0.3))
    assert verdict.classification is Classification.INDEFINITE
    assert verdict.sigma.n_minus == 1
    assert eig_signature(dense_laplacian(9, caterpillar_with_chord(-0.3).edges))[1] == 1


def test_single_edge_hypothesis_violations():
    with pytest.raises(sl.HypothesisViolatedError):
        sl.single_edge_verdict(sl.build_graph(2, [(0, 1, 1.0)]))  # no negative edge
    with pytest.raises(sl.HypothesisViolatedError):
        sl.single_edge_verdict(sl.build_graph(3, [(0, 1, -1.0), (1, 2, -1.0), (0, 2, 1.0)]))
    # removing the negative edge disconnects the graph
    with pytest.raises(sl.HypothesisViolatedError):
        sl.single_edge_verdict(sl.build_graph(3, [(0, 1, 1.0), (1, 2, -1.0)]))


def shared_node_triangles(chord_weights):
    edges = [(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0),
             (2, 3, 1.0), (2, 4, 1.0), (3, 4, 1.0)]
    edges.append((0, 1, chord_weights[0]))
    edges.append((3, 4, chord_weights[1]))
    return sl.build_graph(5, edges)


def test_multi_edge_strict_interior():
    g = shared_node_triangles([-1.0, -1.0])  # thresholds 1/(2/3) = 1.5 each
    verdict = sl.multi_edge_verdict(g)
    assert verdict.classification is Classification.STRICT_INTERIOR
    assert verdict.disjointness_hypothesis_holds
    assert [pytest.approx(1.5, abs=1e-9)] * 2 == [e.threshold for e in verdict.per_edge]
    assert eig_signature(dense_laplacian(5, g.edges))[1] == 0


def test_multi_edge_indefinite():
    g = shared_node_triangles([-2.0, -1.0])
    verdict = sl.multi_edge_verdict(g)
    assert verdict.classification is Classification.INDEFINITE
    assert eig_signature(dense_laplacian(5, g.edges))[1] == 1


def test_multi_edge_single_negative_matches_single_verdict():
    g = caterpillar_with_chord(-0.1)
    single = sl.single_edge_verdict(g)
    multi = sl.multi_edge_verdict(g)
    assert multi.classification is single.classification
    assert multi.sigma.as_tuple() == single.sigma.as_tuple()
    assert multi.per_edge[0].threshold == pytest.approx(single.per_edge[0].threshold)


@pytest.mark.parametrize("tol", [None, 0.5])
def test_single_edge_verdict_is_the_multi_edge_verdict(tol):
    rng = np.random.default_rng(61)
    graphs = [caterpillar_with_chord(w) for w in (-0.1, -0.25, -0.3)]
    graphs += [random_boundary_cycle_graph(rng) for _ in range(10)]
    for g in graphs:
        # whole records: per-edge terms, Corollary 6, disjointness and sigma
        assert sl.single_edge_verdict(g, tol) == sl.multi_edge_verdict(g, tol)


def test_multi_edge_non_disjoint_falls_back_to_spectrum():
    # both chords span the same asymmetric 4-cycle
    g = sl.build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0),
                           (0, 2, -0.1), (1, 3, -0.1)])
    verdict = sl.multi_edge_verdict(g)
    assert not verdict.disjointness_hypothesis_holds
    assert verdict.classification is Classification.STRICT_INTERIOR
    assert verdict.sigma.n_minus == 0
    g2 = sl.build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0),
                            (0, 2, -5.0), (1, 3, -5.0)])
    verdict2 = sl.multi_edge_verdict(g2)
    assert not verdict2.disjointness_hypothesis_holds
    assert verdict2.classification is Classification.INDEFINITE


def test_multi_edge_requires_connected_positive_part():
    g = sl.build_graph(3, [(0, 1, 1.0), (1, 2, -1.0)])
    with pytest.raises(sl.DisconnectedError):
        sl.multi_edge_verdict(g)


@pytest.mark.parametrize("text", [
    "nodes 4\n0 1 1.0\n2 3 1.0\n1 2 -0.5\n",  # G connected, G+ not
    "nodes 5\n0 1 1.0\n1 2 1.0\n0 2 -0.2\n3 4 1.0\n",  # G disconnected
], ids=["negative-bridge", "g-disconnected"])
def test_disconnected_positive_part_is_a_hypothesis_violation(text):
    # the block tests that replace the component labelling of G+ report a
    # genuine disconnection as DisconnectedError, not as CrossCheckError
    g = sl.parse_graph(text)
    for call in (sl.multi_edge_verdict, sl.corollary6_check, sl.negative_edge_report):
        with pytest.raises(sl.DisconnectedError, match="positive subgraph is disconnected"):
            call(g)


def test_multi_edge_requires_a_negative_edge():
    with pytest.raises(sl.HypothesisViolatedError):
        sl.multi_edge_verdict(sl.build_graph(2, [(0, 1, 1.0)]))


def test_corollary6_boundary_equality():
    result = sl.corollary6_check(caterpillar_with_chord(-0.25))
    assert result.satisfied
    assert result.inverse_weight_sum == pytest.approx(4.0)
    assert result.total_resistance == pytest.approx(4.0, abs=1e-9)


def test_corollary6_violated_implies_not_psd():
    g = caterpillar_with_chord(-0.5)
    result = sl.corollary6_check(g)
    assert not result.satisfied
    assert result.inverse_weight_sum == pytest.approx(2.0)
    assert eig_signature(dense_laplacian(9, g.edges))[1] >= 1


def test_corollary6_vacuous_without_negative_edges():
    result = sl.corollary6_check(sl.build_graph(2, [(0, 1, 1.0)]))
    assert result == (True, 0.0, 0.0)


def test_corollary6_vacuous_without_negative_edges_on_a_disconnected_graph():
    # node 2 is isolated; with no negative edge there is nothing to solve
    g = sl.build_graph(3, [(0, 1, 1.0)])
    assert sl.corollary6_check(g) == (True, 0.0, 0.0)
    report = sl.negative_edge_report(g)
    assert (report.pairs, report.matrix.shape, report.r_tot) == ((), (0, 0), 0.0)


def test_threshold_flips_exactly_at_boundary():
    rng = np.random.default_rng(73)
    for _ in range(40):
        g_plus = random_connected_positive(rng)
        u, v = (int(x) for x in rng.choice(g_plus.node_count, size=2, replace=False))
        r_uv = sl.effective_resistance(g_plus, u, v)
        for factor, expected in ((0.95, Classification.STRICT_INTERIOR),
                                 (1.0, Classification.BOUNDARY),
                                 (1.05, Classification.INDEFINITE)):
            g = sl.build_graph(g_plus.node_count,
                               list(g_plus.edges) + [(u, v, -factor / r_uv)])
            verdict = sl.single_edge_verdict(g)
            assert verdict.classification is expected
            sigma = eig_signature(dense_laplacian(g.node_count, g.edges))
            if expected is Classification.STRICT_INTERIOR:
                assert sigma == (g.node_count - 1, 0, 1)
            elif expected is Classification.BOUNDARY:
                assert sigma == (g.node_count - 2, 0, 2)
            else:
                assert sigma[1] == 1


def test_boundary_tree_plus_chord_gains_a_zero():
    rng = np.random.default_rng(79)
    for _ in range(20):
        tree = random_tree(rng, n_lo=4)
        u, v = (int(x) for x in rng.choice(tree.node_count, size=2, replace=False))
        r_uv = sl.effective_resistance(tree, u, v)
        g = sl.build_graph(tree.node_count, list(tree.edges) + [(u, v, -1.0 / r_uv)])
        assert eig_signature(dense_laplacian(g.node_count, g.edges))[2] == 2
        assert sl.single_edge_verdict(g).classification is Classification.BOUNDARY


def test_cactus_chain_verdicts_match_spectrum():
    rng = np.random.default_rng(83)
    for _ in range(20):
        k = int(rng.integers(2, 5))
        factors = [float(rng.choice([0.8, 1.0, 1.2])) for _ in range(k)]
        g, thresholds = triangle_chain_with_chords(rng, k, factors)
        verdict = sl.multi_edge_verdict(g)
        assert verdict.disjointness_hypothesis_holds
        sigma = eig_signature(dense_laplacian(g.node_count, g.edges))
        if any(f > 1.0 for f in factors):
            assert verdict.classification is Classification.INDEFINITE
            assert sigma[1] >= 1
        elif any(f == 1.0 for f in factors):
            assert verdict.classification is Classification.BOUNDARY
            assert sigma[1] == 0
        else:
            assert verdict.classification is Classification.STRICT_INTERIOR
            assert sigma == (g.node_count - 1, 0, 1)
        for item, threshold in zip(verdict.per_edge, thresholds):
            assert item.threshold == pytest.approx(threshold, abs=1e-9)


def test_corollary6_never_contradicts_psd():
    rng = np.random.default_rng(89)
    for _ in range(60):
        g_plus = random_connected_positive(rng)
        u, v = (int(x) for x in rng.choice(g_plus.node_count, size=2, replace=False))
        w = -float(rng.uniform(0.05, 3.0))
        g = sl.build_graph(g_plus.node_count, list(g_plus.edges) + [(u, v, w)])
        sigma = eig_signature(dense_laplacian(g.node_count, g.edges))
        result = sl.corollary6_check(g)
        assert not (sigma[1] == 0 and not result.satisfied)


def overlapping_chords_at_nine_tenths():
    """Asymmetric 4-cycle with both diagonals at 0.9x their own thresholds
    (R(0,2) = 0.42 and R(1,3) = 0.5 over the positive part)."""
    cycle = [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0)]
    g_plus = sl.build_graph(4, cycle)
    chords = [(u, v, -0.9 / sl.effective_resistance(g_plus, u, v)) for u, v in ((0, 2), (1, 3))]
    return sl.build_graph(4, cycle + chords)


def test_overlapping_chords_each_inside_threshold_can_be_indefinite():
    g = overlapping_chords_at_nine_tenths()
    verdict = sl.multi_edge_verdict(g)
    assert [e.margin for e in verdict.per_edge] == [pytest.approx(-0.1)] * 2
    assert not verdict.disjointness_hypothesis_holds
    assert verdict.classification is Classification.INDEFINITE
    assert verdict.sigma.as_tuple() == (2, 1, 1) == eig_signature(dense_laplacian(4, g.edges))


def test_wrong_disjointness_answer_is_caught(monkeypatch):
    # block ids that put every edge in a block of its own call the chords'
    # path sets disjoint; each chord's block then holds none of its positive
    # paths, which the resistance layer's connectivity test on the blocks
    # reports as inconsistent block ids, not as a disconnected G+
    monkeypatch.setattr(resistance, "_edge_blocks", lambda n, tails, heads: np.arange(tails.size))
    with pytest.raises(sl.CrossCheckError):
        sl.multi_edge_verdict(overlapping_chords_at_nine_tenths())


@pytest.mark.parametrize("family", ["cycle-chain", "tree-plus-chords"])
def test_each_query_makes_one_block_pass(monkeypatch, family):
    if family == "cycle-chain":
        g = cycle_chain_at_threshold([1.0, 2.0, 0.5, 1.0])
    else:
        rng = np.random.default_rng(5)
        g_plus = random_connected_positive(rng, 30, 30)
        chords = [(int(u), int(v), -0.05)
                  for u, v in (rng.choice(30, size=2, replace=False) for _ in range(3))]
        g = sl.build_graph(30, list(g_plus.edges) + chords)
    calls = []
    original = graph_core._edge_blocks

    def counted(*args):
        calls.append(args)
        return original(*args)

    # the pass as graph_core's edge_blocks and as the resistance layer reach it
    monkeypatch.setattr(graph_core, "_edge_blocks", counted)
    monkeypatch.setattr(resistance, "_edge_blocks", counted)
    assert not hasattr(definiteness, "edge_blocks")
    for call in (sl.multi_edge_verdict, sl.corollary6_check, sl.negative_edge_report):
        calls.clear()
        call(g)
        assert len(calls) == 1, call.__name__


def test_disjointness_flag_equals_pairwise_disjoint_path_sets():
    rng = np.random.default_rng(11)
    seen = set()
    for _ in range(300):
        positive, glue = blocks_glued_at_cut_vertices(rng)
        n = 1 + max(max(u, v) for u, v, _ in positive)
        pairs = []
        for _ in range(int(rng.integers(1, 5))):
            draw = rng.random()
            if pairs and draw < 0.15:
                pair = pairs[int(rng.integers(0, len(pairs)))]  # parallel negative edges
            elif draw < 0.4:
                pair = positive[int(rng.integers(0, len(positive)))][:2]  # parallel to G+
            elif draw < 0.7 and len(set(glue)) > 1:
                pair = tuple(int(x) for x in rng.choice(sorted(set(glue)), 2, replace=False))
            else:
                pair = tuple(int(x) for x in rng.choice(n, 2, replace=False))
            pairs.append(pair)
        g = sl.build_graph(n, positive + [(u, v, -float(rng.uniform(0.02, 2.0)))
                                          for u, v in pairs])
        verdict = sl.multi_edge_verdict(g)
        sets = sl.path_edge_sets(g.positive_subgraph(), [e.edge for e in verdict.per_edge])
        disjoint = all(not (sets[i] & sets[j])
                       for i in range(len(sets)) for j in range(i + 1, len(sets)))
        assert verdict.disjointness_hypothesis_holds == disjoint
        seen.add((disjoint, len(pairs)))
    # both answers occur, with one and with several negative edges
    assert {(True, 1), (True, 3), (False, 2), (False, 4)} <= seen


def test_schur_lift_rejects_impossible_counts():
    inner = sl.Signature(1, 1, 0, 1e-9, True)
    assert _lift_schur_inertia(5, inner) == sl.Signature(3, 1, 1, 1e-9, True)
    # three zero eigenvalues of T cannot sit inside a 2-node Laplacian
    with pytest.raises(sl.CrossCheckError):
        _lift_schur_inertia(2, sl.Signature(0, 0, 3, 1e-9))


def test_verdict_tolerance_applies_to_t():
    # eig(T) = -margin = 5e-3 here, so a tolerance above it counts a zero
    g = caterpillar_with_chord(-0.25 * 0.995)
    assert sl.single_edge_verdict(g).sigma == sl.Signature(8, 0, 1, BOUNDARY_RTOL)
    verdict = sl.single_edge_verdict(g, tol=1e-2)
    assert verdict.sigma == sl.Signature(7, 0, 2, 1e-2, near_singular=True)
    # the margins are classified with the same tolerance, so both say boundary
    assert verdict.classification is Classification.BOUNDARY


def test_margins_classified_with_the_user_tolerance():
    # margin 0.2: beyond the boundary by default, within it at tol = 0.5,
    # where eig(T) = -0.2 counts as zero too
    g = caterpillar_with_chord(-0.3)
    for verdict_of in (sl.single_edge_verdict, sl.multi_edge_verdict):
        assert verdict_of(g).classification is Classification.INDEFINITE
        verdict = verdict_of(g, tol=0.5)
        assert verdict.classification is Classification.BOUNDARY
        assert verdict.sigma.as_tuple() == (7, 0, 2)
        assert verdict_of(g, tol=0.1).classification is Classification.INDEFINITE


def test_resistance_above_half_the_largest_double_keeps_its_threshold():
    # R(0,4) = 4 / 2.3e-308 = 1.74e308: finite, but R + R is not
    tiny = 2.3e-308
    g = sl.build_graph(5, [(0, 1, tiny), (1, 2, tiny), (2, 3, tiny), (3, 4, tiny),
                           (0, 4, -1e-300)])
    matrix, diag = sl.resistance_matrix_for_negatives(g.positive_subgraph(), [(0, 4)])
    assert np.isfinite(matrix.toarray()).all() and diag[0] == pytest.approx(4.0 / tiny, rel=1e-12)
    verdict = sl.multi_edge_verdict(g)
    (edge,) = verdict.per_edge
    assert edge.threshold == pytest.approx(tiny / 4.0, rel=1e-12)
    assert edge.margin == pytest.approx(1e-300 * 4.0 / tiny - 1.0, rel=1e-12)
    assert verdict.classification is Classification.INDEFINITE
    assert verdict.sigma.as_tuple() == (3, 1, 1)


def test_non_finite_margin_raises_instead_of_a_verdict():
    # R(0,2) = 2**1023 is finite, |w| R = 1e300 * 2**1023 is not
    tiny = 2.0 ** -1022
    g = sl.build_graph(3, [(0, 1, tiny), (1, 2, tiny), (0, 2, -1e300)])
    with pytest.raises(sl.CrossCheckError, match="not finite"):
        sl.multi_edge_verdict(g)
    with pytest.raises(sl.CrossCheckError, match="not finite"):
        sl.corollary6_check(g)


@pytest.mark.parametrize("last", [1e6, 1.0])
def test_boundary_verdict_when_block_weights_differ_in_scale(last):
    # a heavy last cycle beside 39 light ones: every block's R must keep
    # its own relative accuracy, or the boundary verdicts flip
    weights = [1e-6] * 39 + [last]
    g = cycle_chain_at_threshold(weights)
    verdict = sl.multi_edge_verdict(g)
    assert verdict.classification is Classification.BOUNDARY
    assert verdict.sigma.as_tuple() == (520, 0, 41)
    matrix = sl.negative_edge_report(g).matrix.toarray()
    exact = np.array([3 * 12 / (15 * w) for w in weights])
    assert np.all(np.abs(np.diag(matrix) - exact) <= 1e-12 * exact)
    assert np.array_equal(matrix, np.diag(np.diag(matrix)))
