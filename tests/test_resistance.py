import math
from fractions import Fraction

import numpy as np
import pytest

import paper_constructions as pc
import siglap as sl
from conftest import (
    caterpillar_tree,
    caterpillar_with_chord,
    cycle_chain_at_threshold,
    dense_laplacian,
    positive_weight,
    random_connected_positive,
    random_tree,
    relabelled,
)
from siglap import graph_core, resistance


def test_series_path():
    g = sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0)])
    assert sl.effective_resistance(g, 0, 2) == pytest.approx(2.0, abs=1e-12)


def test_triangle_adjacent_nodes():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    # independent oracle: pseudo-inverse by brute numpy
    pinv = np.linalg.pinv(dense_laplacian(3, g.edges))
    e = np.array([1.0, -1.0, 0.0])
    expected = float(e @ pinv @ e)
    assert expected == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert sl.effective_resistance(g, 0, 1) == pytest.approx(expected, abs=1e-9)


def test_caterpillar_path_ends():
    assert sl.effective_resistance(caterpillar_tree(), 0, 4) == pytest.approx(4.0, abs=1e-9)


def test_disconnected_pair_raises():
    g = sl.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(sl.DisconnectedError):
        sl.effective_resistance(g, 0, 2)
    # same component of a disconnected graph still works
    assert sl.effective_resistance(g, 0, 1) == pytest.approx(1.0, abs=1e-9)


@pytest.mark.parametrize("u, v", [(1, 2), (-1, 0), (1, 1), (0, 0.5), (0, 1.0),
                                  (0, np.float64(1.0)), (True, 0)],
                         ids=["beyond", "negative", "same", "fraction", "float",
                              "numpy-float", "bool"])
def test_invalid_node_pair_is_a_siglap_error(u, v):
    g = sl.build_graph(2, [(0, 1, 1.0)])
    with pytest.raises(sl.InvalidParameterError) as err:
        sl.effective_resistance(g, u, v)
    assert isinstance(err.value, sl.SiglapError) and isinstance(err.value, ValueError)


PAIR_QUERIES = {
    "effective_resistance": lambda g, pair: sl.effective_resistance(g, *pair),
    "resistance_matrix_for_negatives": lambda g, pair: sl.resistance_matrix_for_negatives(
        g, [pair]),
    "path_edge_sets": lambda g, pair: sl.path_edge_sets(g, [pair]),
}


@pytest.mark.parametrize("pair", [(0, 4), (1, 1), (0, 2), (0, 1.5), (0, 1.0), (True, 0)],
                         ids=["out-of-range", "same-node", "disconnected", "fraction",
                              "float", "bool"])
@pytest.mark.parametrize("query", sorted(PAIR_QUERIES))
def test_every_pair_query_rejects_a_bad_pair_with_a_siglap_error(query, pair):
    g = sl.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(sl.SiglapError) as err:
        PAIR_QUERIES[query](g, pair)
    if pair == (0, 2):  # NodesDisconnectedError, a subclass, from two of the three
        assert isinstance(err.value, sl.DisconnectedError)
    else:
        assert isinstance(err.value, sl.InvalidParameterError)


@pytest.mark.parametrize("pair, error, message", [
    ((0, 0), sl.InvalidParameterError,
     "effective resistance needs two distinct nodes, got 0 twice"),
    ((0, 99), sl.InvalidParameterError, "node out of range: (0, 99) on 4 nodes"),
    ((True, 1), sl.InvalidParameterError, "node ids must be integers, got (True, 1)"),
    ((1,), sl.InvalidParameterError, "a node pair must be two node ids, got (1,)"),
    ((0, 2), sl.NodesDisconnectedError, "nodes 0 and 2 are in different components"),
], ids=["same-node", "out-of-range", "bool", "one-end", "across"])
def test_the_three_pair_entry_points_raise_one_error_per_bad_pair(pair, error, message):
    g = sl.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    for query in (resistance._pair_resistances, sl.path_edge_sets,
                  sl.resistance_matrix_for_negatives):
        expected = (error, message)
        if query is sl.resistance_matrix_for_negatives and error is sl.NodesDisconnectedError:
            # The matrix checks its pairs without components, then needs all
            # of G+ connected: the message the CLI prints for check-psd.
            expected = (sl.DisconnectedError, "positive subgraph is disconnected")
        with pytest.raises(expected[0]) as err:
            query(g, [(2, 3), pair])
        assert (type(err.value), str(err.value)) == expected


@pytest.mark.parametrize("dtype", [np.intp, np.int32, np.int8, np.uint64])
@pytest.mark.parametrize("bad", [None, (0, 0), (0, 99), (3, 1), (0, 2)],
                         ids=["none", "same-node", "out-of-range", "reversed", "across"])
def test_an_integer_pair_array_is_checked_as_its_list_is(dtype, bad):
    # A bad pair, after a good one, raises the error of the list walk, and
    # good pairs give its bits.
    two_parts = sl.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    joined = sl.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0), (1, 3, 2.0)])
    pairs = [(2, 3), (1, 0)] + ([bad] if bad else [])
    for g, query in ((two_parts, resistance._pair_resistances),
                     (joined, sl.resistance_matrix_for_negatives)):
        try:
            expected = query(g, pairs)
        except sl.SiglapError as exc:
            with pytest.raises(type(exc)) as err:
                query(g, np.array(pairs, dtype=dtype))
            assert str(err.value) == str(exc)
            continue
        got = query(g, np.array(pairs, dtype=dtype))
        if query is resistance._pair_resistances:
            assert got == expected
        else:
            assert got[0].toarray().tobytes() == expected[0].toarray().tobytes()


def test_resistance_on_signed_graph_is_defined():
    g = sl.build_graph(2, [(0, 1, 1.0), (0, 1, -0.25)])
    # parallel 1 ohm with -4 ohm: 1*(-4)/(1-4) = 4/3
    assert sl.effective_resistance(g, 0, 1) == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_resistance_falls_back_when_cut_form_is_singular():
    # boundary chord makes the closed-form route inapplicable; the
    # eigendecomposition route must take over and match a brute oracle
    g = caterpillar_with_chord(-0.25)
    d = pc.decompose(g)
    with pytest.raises(pc.SingularCutGramError):
        pc.laplacian_pseudo_inverse(pc.build_bundle(g, d), d)
    pinv = np.linalg.pinv(dense_laplacian(9, g.edges))
    e = np.zeros(9)
    e[1], e[3] = 1.0, -1.0
    assert sl.effective_resistance(g, 1, 3) == pytest.approx(float(e @ pinv @ e), abs=1e-9)


def test_route_agreement_on_random_graphs():
    rng = np.random.default_rng(61)
    for _ in range(40):
        g = random_connected_positive(rng)
        u, v = (int(x) for x in rng.choice(g.node_count, size=2, replace=False))
        d = pc.decompose(g)
        b = pc.build_bundle(g, d)
        e = np.zeros(g.node_count)
        e[u], e[v] = 1.0, -1.0
        via_eig = float(e @ sl.pseudo_inverse_eig(b.laplacian) @ e)
        via_cut = float(e @ pc.laplacian_pseudo_inverse(b, d) @ e)
        assert abs(via_eig - via_cut) <= 1e-9 * max(1.0, abs(via_eig))
        assert sl.effective_resistance(g, u, v) == pytest.approx(via_cut, abs=1e-9)


def test_tree_resistance_is_inverse_weight_path_sum():
    rng = np.random.default_rng(67)
    for _ in range(30):
        g = random_tree(rng)
        u, v = (int(x) for x in rng.choice(g.node_count, size=2, replace=False))
        (path,) = sl.path_edge_sets(g, [(u, v)])
        expected = sum(1.0 / g.edges[k][2] for k in path)
        assert sl.effective_resistance(g, u, v) == pytest.approx(expected, abs=1e-10)


def test_adding_positive_edge_never_increases_resistance():
    rng = np.random.default_rng(71)
    for _ in range(25):
        g = random_connected_positive(rng)
        u, v = (int(x) for x in rng.choice(g.node_count, size=2, replace=False))
        before = sl.effective_resistance(g, u, v)
        a, b = (int(x) for x in rng.choice(g.node_count, size=2, replace=False))
        g2 = sl.build_graph(g.node_count, list(g.edges) + [(a, b, positive_weight(rng))])
        after = sl.effective_resistance(g2, u, v)
        assert after <= before + 1e-10


def test_matrix_single_negative_edge():
    g = caterpillar_tree()
    m, diag = sl.resistance_matrix_for_negatives(g, [(0, 4)])
    assert m.shape == (1, 1)
    assert m[0, 0] == pytest.approx(4.0, abs=1e-9)
    assert diag[0] == pytest.approx(sl.effective_resistance(g, 0, 4), abs=1e-9)


def test_matrix_disjoint_chords_is_diagonal():
    # two complete unit triangles sharing node 2; negative edges run parallel
    # to the (0,1) and (3,4) sides, so each sees 1 || 2 = 2/3 ohm
    g_plus = sl.build_graph(5, [(0, 1, 1), (0, 2, 1), (1, 2, 1),
                                (2, 3, 1), (2, 4, 1), (3, 4, 1)])
    m, diag = sl.resistance_matrix_for_negatives(g_plus, [(0, 1), (3, 4)])
    expected = float(np.array([1.0, -1.0, 0.0, 0.0, 0.0])
                     @ np.linalg.pinv(dense_laplacian(5, g_plus.edges))
                     @ np.array([1.0, -1.0, 0.0, 0.0, 0.0]))
    assert expected == pytest.approx(2.0 / 3.0, abs=1e-12)
    assert np.allclose(diag, [2.0 / 3.0, 2.0 / 3.0], atol=1e-9)
    assert abs(m[0, 1]) < 1e-9


def test_matrix_same_cycle_chords_have_off_diagonal():
    # asymmetric 4-cycle; chords (0,2) and (1,3) share every cycle edge
    g_plus = sl.build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, 4.0)])
    m, diag = sl.resistance_matrix_for_negatives(g_plus, [(0, 2), (1, 3)])
    # diagonal still holds the pairwise resistances
    assert diag[0] == pytest.approx(sl.effective_resistance(g_plus, 0, 2), abs=1e-9)
    assert diag[1] == pytest.approx(sl.effective_resistance(g_plus, 1, 3), abs=1e-9)
    assert abs(m[0, 1]) > 1e-6


def test_matrix_requires_connected_positive():
    g = sl.build_graph(4, [(0, 1, 1.0), (2, 3, 1.0)])
    with pytest.raises(sl.DisconnectedError):
        sl.resistance_matrix_for_negatives(g, [(0, 1)])


def test_total_resistance():
    report = sl.negative_edge_report(caterpillar_with_chord(-0.25))
    assert report.r_tot == pytest.approx(4.0, abs=1e-9)
    assert sl.negative_edge_report(caterpillar_tree()).r_tot == 0.0


def test_total_resistance_sums_disjoint_diagonal():
    g = sl.build_graph(5, [(0, 1, 1), (0, 2, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1), (3, 4, 1),
                           (0, 1, -1), (3, 4, -1)])
    report = sl.negative_edge_report(g)
    assert report.r_tot == pytest.approx(sum(r for _, _, r in report.pairs), abs=1e-12)
    assert report.r_tot == pytest.approx(4.0 / 3.0, abs=1e-9)


def test_parallel_combination():
    assert pc.parallel_combination(1.0, 1.0) == pytest.approx(0.5)
    assert pc.parallel_combination(4.0, -4.0) == math.inf
    assert pc.parallel_combination(4.0, -8.0) == pytest.approx(8.0)
    with pytest.raises(ValueError):
        pc.parallel_combination(-1.0, 1.0)
    with pytest.raises(ValueError):
        pc.parallel_combination(1.0, 0.0)


def test_negative_edge_report():
    g = sl.build_graph(5, [(0, 2, 1), (1, 2, 1), (2, 3, 1), (2, 4, 1),
                           (0, 1, -0.5), (3, 4, -0.25)])
    report = sl.negative_edge_report(g)
    assert [p[:2] for p in report.pairs] == [(0, 1), (3, 4)]
    assert report.pairs[0][2] == pytest.approx(2.0, abs=1e-9)
    assert report.pairs[1][2] == pytest.approx(2.0, abs=1e-9)
    assert report.r_tot == pytest.approx(4.0, abs=1e-9)
    assert np.allclose(report.matrix.toarray(), np.diag([2.0, 2.0]), atol=1e-9)


def test_wrong_block_ids_are_caught(monkeypatch):
    # 4-cycle 0-1-2-3 with a chord (0, 2); G+ has one block
    g_plus = sl.build_graph(4, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (0, 3, 1)])
    block_pass = graph_core._edge_blocks

    def block_pass_keeping(in_block):
        # the block pass, with only the edges in_block left in the cycle's block
        def wrong(n, tails, heads):
            key, *rest = block_pass(n, tails, heads)
            return (np.where(in_block, key, key + n), *rest)

        monkeypatch.setattr(resistance, "_edge_blocks", wrong)

    # the chord's block holds only (0,1) and (2,3): both ends, not connected
    block_pass_keeping([True, False, True, False])
    with pytest.raises(sl.CrossCheckError, match=r"block of G\+ are not connected"):
        sl.resistance_matrix_for_negatives(g_plus, [(0, 2)])
    # the chord's block holds only (0,1): node 2 is missing
    block_pass_keeping([True, False, False, False])
    with pytest.raises(sl.CrossCheckError, match=r"\(0, 2\) misses an end"):
        sl.resistance_matrix_for_negatives(g_plus, [(0, 2)])


def test_consistent_blocks_in_scrambled_order_pass_the_block_tests(monkeypatch):
    # the 4-cycle 0-2-1-3 with the chord (0, 1): node 1 has no lower-numbered
    # neighbour, so the certificate on the block's copies fails and the copies
    # are labelled; the block ids are consistent and nothing is raised
    g_plus = sl.build_graph(4, [(0, 2, 1), (1, 2, 1), (1, 3, 1), (0, 3, 1)])
    assert graph_core._without_lower_neighbour(4, g_plus.tails, g_plus.heads)[1:].any()
    labellings = []

    def counted(*args):
        labellings.append(args[0])
        return graph_core._components(*args)

    monkeypatch.setattr(resistance, "_components", counted)
    matrix, diagonal = sl.resistance_matrix_for_negatives(g_plus, [(0, 1)])
    assert diagonal.tolist() == pytest.approx([1.0], abs=1e-12)
    assert labellings == [4, 4]  # G+ up front, then the split graph of its one block


def test_cancelling_parallel_edges_still_join_their_nodes():
    # L(0,1) sums to an explicitly stored 0; the edge still joins 0 and 1
    g = sl.build_graph(3, [(0, 1, 1.0), (0, 1, -1.0), (1, 2, 1.0)])
    pinv = np.linalg.pinv(dense_laplacian(3, g.edges))
    e = np.array([1.0, 0.0, -1.0])
    assert sl.effective_resistance(g, 0, 2) == pytest.approx(float(e @ pinv @ e), abs=1e-12)


def test_pair_resistance_when_block_weights_differ_in_scale():
    # chord (u, v) 3 apart on a unit-shaped 15-cycle of weight w: R = 36 / (15 w)
    weights = [1e-6] * 39 + [1e6]
    g = cycle_chain_at_threshold(weights)
    g_plus = g.positive_subgraph()
    for k, w in zip(g.negative_edge_indices(), weights):
        exact = 36.0 / (15.0 * w)
        r = sl.effective_resistance(g_plus, int(g.tails[k]), int(g.heads[k]))
        assert abs(r - exact) <= 1e-12 * exact


def test_pair_resistance_across_forty_blocks_is_their_exact_series_sum():
    # 0 and 560 are the ends of a chain of 40 unit-shaped 15-cycles: 7 steps
    # across each of the 39 light cycles, then one step on the heavy one
    g_plus = cycle_chain_at_threshold([1e-6] * 39 + [1e6]).positive_subgraph()
    exact = float(39 * 56 / (15 * Fraction(1e-6)) + 14 / (15 * Fraction(1e6)))
    assert abs(sl.effective_resistance(g_plus, 0, 560) - exact) <= 1e-12 * exact
    assert abs(sl.resistance_matrix_for_negatives(g_plus, [(0, 560)])[1][0] - exact) \
        <= 1e-12 * exact


def random_cactus(rng):
    """Blocks hung one by one on a node already placed: a bridge, or a cycle
    on 3..7 nodes, each block of one weight 10**U(-6, 6).  Returns the edges,
    the node count and, per block, its weight and its nodes in cycle order
    (a bridge's two ends), the first being the node it hangs on."""
    edges, blocks, n = [], [], 1
    for _ in range(int(rng.integers(1, 12))):
        w = float(10.0 ** rng.uniform(-6.0, 6.0))
        size = 2 if rng.random() < 0.3 else int(rng.integers(3, 8))
        ring = [int(rng.integers(0, n)), *range(n, n + size - 1)]
        n += size - 1
        edges += [(ring[i], ring[(i + 1) % size], w) for i in range(size if size > 2 else 1)]
        blocks.append((w, ring))
    return edges, n, blocks


def cactus_resistance(blocks, u, v):
    """Exact R_uv on a cactus: per block on the path, d (L - d) / (L w) for a
    cycle of L nodes entered and left d steps apart, 1/w for a bridge."""
    home = {node: b for b, (_, ring) in enumerate(blocks) for node in ring[1:]}

    def climb(x):  # (block, node where the path meets it) up to node 0
        steps = []
        while x in home:
            steps.append((home[x], x))
            x = blocks[home[x]][1][0]
        return steps

    def segment(b, p, q):
        w, ring = blocks[b]
        size, d = len(ring), abs(ring.index(p) - ring.index(q))
        if d == 0:
            return Fraction(0)
        return 1 / Fraction(w) if size == 2 else Fraction(d * (size - d)) / (size * Fraction(w))

    # The climbs from u and v first share their lowest common block, if any
    # (else they meet at node 0); above it they agree and carry no current.
    up_u, up_v = climb(u), climb(v)
    common = [b for b, _ in up_u if b in dict(up_v)]
    stop = common[0] if common else None
    total = Fraction(0)
    for steps in (up_u, up_v):
        for b, x in steps:
            if b == stop:
                break
            total += segment(b, x, blocks[b][1][0])
    if stop is not None:
        total += segment(stop, dict(up_u)[stop], dict(up_v)[stop])
    return total


def test_pair_resistances_on_cacti_match_exact_series_sums():
    # Derandomized: every block has its own weight over twelve decades, the
    # nodes come in build order or scrambled, and pairs are anywhere.
    rng = np.random.default_rng(4141)
    for trial in range(150):
        edges, n, blocks = random_cactus(rng)
        perm = np.arange(n) if trial % 2 else rng.permutation(n)
        g_plus = relabelled(sl.build_graph(n, edges), perm)
        pairs = [tuple(int(x) for x in rng.choice(n, 2, replace=False)) for _ in range(4)]
        exact = [float(cactus_resistance(blocks, u, v)) for u, v in pairs]
        named = [(int(perm[u]), int(perm[v])) for u, v in pairs]
        diagonal = sl.resistance_matrix_for_negatives(g_plus, named)[1]
        for (u, v), r, d in zip(named, exact, diagonal):
            assert abs(sl.effective_resistance(g_plus, u, v) - r) <= 1e-12 * r
            assert abs(d - r) <= 1e-12 * r
