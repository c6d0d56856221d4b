import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    relabelled,
    triangle_chain_with_chords,
)
from siglap import consensus, definiteness, graph_core, resistance
from siglap.definiteness import BOUNDARY_RTOL, Classification, _lift_schur_inertia


def test_parallel_pair_strict_interior():
    g = sl.build_graph(2, [(0, 1, 1.0), (0, 1, -0.5)])
    verdict = sl.multi_edge_verdict(g)
    assert verdict.classification is Classification.STRICT_INTERIOR
    assert verdict.per_edge[0].threshold == pytest.approx(1.0)
    assert verdict.sigma.as_tuple() == (1, 0, 1)
    assert eig_signature(dense_laplacian(2, g.edges)) == (1, 0, 1)


def test_caterpillar_boundary():
    verdict = sl.multi_edge_verdict(caterpillar_with_chord(-0.25))
    assert verdict.classification is Classification.BOUNDARY
    assert verdict.sigma.as_tuple() == (7, 0, 2)
    assert verdict.per_edge[0].threshold == pytest.approx(0.25, abs=1e-12)


def test_caterpillar_indefinite():
    verdict = sl.multi_edge_verdict(caterpillar_with_chord(-0.3))
    assert verdict.classification is Classification.INDEFINITE
    assert verdict.sigma.n_minus == 1
    assert eig_signature(dense_laplacian(9, caterpillar_with_chord(-0.3).edges))[1] == 1


def test_single_edge_hypothesis_violations():
    with pytest.raises(sl.HypothesisViolatedError, match="at least one negative edge"):
        sl.multi_edge_verdict(sl.build_graph(2, [(0, 1, 1.0)]))  # no negative edge
    # two negative edges leave node 1 without a positive edge
    with pytest.raises(sl.DisconnectedError, match="positive subgraph is disconnected"):
        sl.multi_edge_verdict(sl.build_graph(3, [(0, 1, -1.0), (1, 2, -1.0), (0, 2, 1.0)]))
    # removing the negative edge disconnects the graph
    with pytest.raises(sl.DisconnectedError, match="positive subgraph is disconnected"):
        sl.multi_edge_verdict(sl.build_graph(3, [(0, 1, 1.0), (1, 2, -1.0)]))


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
    # G+ is labelled up front, so a disconnection is a DisconnectedError,
    # never a failed cross-check of the block ids
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
            verdict = sl.multi_edge_verdict(g)
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
        assert sl.multi_edge_verdict(g).classification is Classification.BOUNDARY


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
    # chords at random magnitudes and at their thresholds, where the
    # inequality is an equality, on scaled copies too: scaling every weight
    # scales both sides alike
    rng = np.random.default_rng(89)
    for _ in range(60):
        g_plus = random_connected_positive(rng)
        u, v = (int(x) for x in rng.choice(g_plus.node_count, size=2, replace=False))
        w = -float(rng.uniform(0.05, 3.0))
        boundary = -1.0 / sl.effective_resistance(g_plus, u, v)
        for chord in (w, boundary):
            for scale in (1.0, 1e-9, 1e9):
                g = sl.build_graph(g_plus.node_count, [
                    (a, b, scale * x) for a, b, x in list(g_plus.edges) + [(u, v, chord)]])
                sigma = eig_signature(dense_laplacian(g.node_count, g.edges))
                result = sl.corollary6_check(g)
                assert not (sigma[1] == 0 and not result.satisfied), (chord, scale)


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
    # paths, which the resistance layer's test of the copies on the blocks
    # reports as inconsistent block ids, not as a disconnected G+
    block_pass = graph_core._edge_blocks

    def every_edge_alone(n, tails, heads):
        key, *rest = block_pass(n, tails, heads)
        return (np.arange(key.size) + n, *rest)

    monkeypatch.setattr(resistance, "_edge_blocks", every_edge_alone)
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
    # a numbering in which some node of G+ has no lower-numbered neighbour
    scrambled = relabelled(g, np.random.default_rng(7).permutation(g.node_count))
    plus = scrambled.positive_subgraph()
    assert graph_core._without_lower_neighbour(plus.node_count, plus.tails, plus.heads)[1:].any()
    calls, labellings, searches = [], [], []

    def recorded(into, original):
        def counted(*args, **kwargs):
            into.append(args)
            return original(*args, **kwargs)
        return counted

    # the pass as graph_core and as the resistance layer bind it; cluster
    # prediction reads the resistance layer's block solve, not a solve or a
    # block pass of its own
    counted = recorded(calls, graph_core._edge_blocks)
    monkeypatch.setattr(graph_core, "_edge_blocks", counted)
    monkeypatch.setattr(resistance, "_edge_blocks", counted)
    # csgraph's searches as graph_core binds them: a graph numbered in order
    # certifies its connectivity without a labelling, so a query labels
    # nothing and makes only the block pass's one depth-first search
    monkeypatch.setattr(graph_core, "connected_components",
                        recorded(labellings, graph_core.connected_components))
    monkeypatch.setattr(graph_core, "depth_first_order",
                        recorded(searches, graph_core.depth_first_order))
    assert not hasattr(definiteness, "edge_blocks")
    for name in ("_grounded_solve", "edge_blocks", "_edge_blocks"):
        assert not hasattr(consensus, name), name
    for call, graph in ((sl.multi_edge_verdict, g), (sl.corollary6_check, g),
                        (sl.negative_edge_report, g), (sl.multi_edge_verdict, scrambled),
                        (sl.corollary6_check, scrambled), (sl.negative_edge_report, scrambled),
                        (sl.predict_clusters, caterpillar_with_chord(-0.25))):
        for into in (calls, labellings, searches):
            into.clear()
        call(graph)
        assert len(calls) == 1 and len(searches) == 1, call.__name__
        if call is sl.predict_clusters:  # G without the cycle has five components
            assert len(labellings) == 1
        elif graph is scrambled:  # the certificate fails: csgraph labels G+ and
            # perhaps the split graph, but the block search reaches every node
            assert 1 <= len(labellings) <= 2, call.__name__
        else:
            assert not labellings, call.__name__


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
    assert sl.multi_edge_verdict(g).sigma == sl.Signature(8, 0, 1, BOUNDARY_RTOL)
    verdict = sl.multi_edge_verdict(g, tol=1e-2)
    assert verdict.sigma == sl.Signature(7, 0, 2, 1e-2, near_singular=True)
    # the classification is read from the same counts
    assert verdict.classification is Classification.BOUNDARY


def test_t_diagonal_is_minus_the_printed_margins(monkeypatch):
    # T's 1x1 blocks are the negated margins bit for bit, so its counts are
    # the per-edge threshold test exactly
    blocks = []
    original = definiteness.signature

    def recorded(m, tol=None):
        blocks.append(np.array(m))
        return original(m, tol)

    monkeypatch.setattr(definiteness, "signature", recorded)
    rng = np.random.default_rng(3)
    graphs = [cycle_chain_at_threshold([1.0, 2.0, 0.5, 1.0, 3.0, 0.7])]
    graphs += [random_boundary_cycle_graph(rng, 4, 40) for _ in range(40)]
    for g in graphs:
        blocks.clear()
        verdict = sl.multi_edge_verdict(g, tol=0.0)
        (t,) = blocks
        assert t.shape == (len(verdict.per_edge), 1, 1)
        minus_margins = -np.array([e.margin for e in verdict.per_edge])
        assert np.array_equal(t.ravel().view(np.int64), minus_margins.view(np.int64))


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_boundary_cycle_verdicts_count_their_margins_at_any_tolerance(seed):
    # a tree plus one chord at its threshold: the margin is round-off, on
    # either side of 0, and the verdict must follow its sign even at tol 0
    g = random_boundary_cycle_graph(np.random.default_rng(seed), 4, 40)
    for tol in (0.0, 1e-16, BOUNDARY_RTOL):
        verdict = sl.multi_edge_verdict(g, tol)
        if verdict.disjointness_hypothesis_holds:
            margins = [e.margin for e in verdict.per_edge]
            assert verdict.sigma.n_minus == sum(m > tol for m in margins)
            assert verdict.sigma.n_zero - 1 == sum(abs(m) <= tol for m in margins)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_scaling_every_weight_by_a_power_of_two_scales_only_the_thresholds(seed):
    # a power of two scales every step of the solve exactly: R by 2**-p, its
    # threshold 1/R by 2**p, and the dimensionless margins and T not at all
    g = random_boundary_cycle_graph(np.random.default_rng(seed), 4, 40)
    verdict = sl.multi_edge_verdict(g)
    for power in (40, -40):
        scaled = sl.build_graph(g.node_count, zip(g.tails.tolist(), g.heads.tolist(),
                                                  np.ldexp(g.weights, power).tolist()))
        other = sl.multi_edge_verdict(scaled)
        assert other.classification is verdict.classification
        assert other.sigma == verdict.sigma
        for edge, moved in zip(verdict.per_edge, other.per_edge):
            assert moved.margin.hex() == edge.margin.hex()
            assert moved.threshold == math.ldexp(edge.threshold, power)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.integers(0, 2**63 - 1))
def test_relabelling_keeps_classification_and_sigma(seed):
    # a boundary tree plus up to three positive chords with weights across
    # six decades; the eight-decade cycle that relabelling does flip is the
    # strict xfail in test_cli.py
    rng = np.random.default_rng(seed)
    g = random_boundary_cycle_graph(rng, 4, 40)
    n = g.node_count
    chords = [(int(u), int(v), float(10.0 ** rng.uniform(-3.0, 3.0)))
              for u, v in (rng.choice(n, 2, replace=False)
                           for _ in range(int(rng.integers(0, 4))))]
    g = sl.build_graph(n, list(g.edges) + chords)
    verdict = sl.multi_edge_verdict(g)
    other = sl.multi_edge_verdict(relabelled(g, rng.permutation(n)))
    assert other.classification is verdict.classification
    assert other.sigma == verdict.sigma


def test_margins_classified_with_the_user_tolerance():
    # margin 0.2: beyond the boundary by default, within it at tol = 0.5,
    # where eig(T) = -0.2 counts as zero too
    g = caterpillar_with_chord(-0.3)
    assert sl.multi_edge_verdict(g).classification is Classification.INDEFINITE
    verdict = sl.multi_edge_verdict(g, tol=0.5)
    assert verdict.classification is Classification.BOUNDARY
    assert verdict.sigma.as_tuple() == (7, 0, 2)
    assert sl.multi_edge_verdict(g, tol=0.1).classification is Classification.INDEFINITE


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
    # Corollary 6 holds with equality at the boundary, at any weight scale
    assert verdict.corollary6_satisfied
    matrix = sl.negative_edge_report(g).matrix.toarray()
    exact = np.array([3 * 12 / (15 * w) for w in weights])
    assert np.all(np.abs(np.diag(matrix) - exact) <= 1e-12 * exact)
    assert np.array_equal(matrix, np.diag(np.diag(matrix)))


def chain_with_far_chord(scale):
    """The positive edges of a chain of 40 unit-shaped 15-cycles, 39 of
    weight 1e-6 and the last of weight 1e6, plus the chord (0, 560) across
    all of them at ``scale`` times its exact threshold."""
    g_plus = cycle_chain_at_threshold([1e-6] * 39 + [1e6]).positive_subgraph()
    exact = 39 * 56 / (15 * Fraction(1e-6)) + 14 / (15 * Fraction(1e6))
    return sl.build_graph(g_plus.node_count,
                          list(g_plus.edges) + [(0, 560, -scale / float(exact))])


@pytest.mark.parametrize("scale, expected", [(0.9, Classification.STRICT_INTERIOR),
                                             (1.1, Classification.INDEFINITE)])
def test_a_chord_across_blocks_of_far_apart_scales_keeps_its_margin(scale, expected):
    # R(0, 560) is a series sum over 40 blocks of G+, one of them 1e12 times
    # heavier than the rest: one grounded solve of them all as one system
    # loses the light blocks' digits, enough to move the verdict
    verdict = sl.multi_edge_verdict(chain_with_far_chord(scale))
    assert verdict.classification is expected
    (edge,) = verdict.per_edge
    assert abs(edge.margin - (scale - 1.0)) <= 1e-12


def test_trees_with_weights_over_twelve_decades_sit_on_the_boundary_in_any_order():
    # Derandomized: random trees numbered parent first, weights 10**U(-6, 6),
    # and a chord at -1/fsum(1/w) along its tree path; in that order and in
    # a scrambled one, the verdict is BOUNDARY.
    rng = np.random.default_rng(2041)
    for _ in range(400):
        n = int(rng.integers(3, 30))
        parent = [int(rng.integers(0, v)) for v in range(1, n)]
        weights = 10.0 ** rng.uniform(-6.0, 6.0, n - 1)
        while True:
            u, v = sorted(int(x) for x in rng.choice(n, 2, replace=False))
            if parent[v - 1] != u:
                break
        up_from = {}
        for x, side in ((u, 0), (v, 1)):
            while x:
                up_from.setdefault(x, []).append(side)
                x = parent[x - 1]
        # edge x -> parent(x) lies on the path when only one end's climb uses it
        path = [weights[x - 1] for x, sides in up_from.items() if len(sides) == 1]
        chord = -1.0 / math.fsum(1.0 / w for w in path)
        tree = [(parent[x - 1], x, float(weights[x - 1])) for x in range(1, n)]
        g = sl.build_graph(n, tree + [(u, v, chord)])
        for graph in (g, relabelled(g, rng.permutation(n))):
            assert sl.multi_edge_verdict(graph).classification is Classification.BOUNDARY
