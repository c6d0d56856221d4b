import numpy as np
import pytest

import paper_constructions as pc
import siglap as sl
from conftest import (
    bfs_component_count,
    brute_force_path_edges,
    caterpillar_with_chord,
    loop_build_graph,
    positive_weight,
    random_connected_positive,
)
from siglap.errors import GraphConstructionError


def test_build_graph_minimal():
    g = sl.build_graph(2, [(0, 1, 1.0)])
    assert g.node_count == 2
    assert g.edges == ((0, 1, 1.0),)


def test_build_graph_triangle_preserves_order():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert g.edges == ((0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0))


def test_build_graph_normalizes_orientation():
    g = sl.build_graph(4, [(3, 1, 2.0), (2, 0, -1.0)])
    assert g.edges == ((1, 3, 2.0), (0, 2, -1.0))


def test_build_graph_keeps_parallel_edges():
    g = sl.build_graph(2, [(0, 1, 1.0), (1, 0, 2.0)])
    assert g.edge_count == 2


def test_build_graph_zero_weight_names_edge():
    with pytest.raises(sl.ZeroWeightError) as err:
        sl.build_graph(3, [(0, 1, 1.0), (0, 2, 0.0)])
    assert err.value.edge_index == 1


def test_build_graph_self_loop_rejected():
    with pytest.raises(sl.SelfLoopError) as err:
        sl.build_graph(3, [(1, 1, 1.0)])
    assert err.value.edge_index == 0


def test_build_graph_node_out_of_range():
    with pytest.raises(sl.NodeOutOfRangeError):
        sl.build_graph(2, [(0, 2, 1.0)])


@pytest.mark.parametrize("weight", [float("nan"), float("inf"), float("-inf")])
def test_build_graph_non_finite_weight_names_edge(weight):
    with pytest.raises(sl.NonFiniteWeightError) as err:
        sl.build_graph(3, [(0, 1, 1.0), (1, 2, weight), (0, 2, -0.2)])
    assert err.value.edge_index == 1
    assert isinstance(err.value, GraphConstructionError)


def test_build_graph_names_first_edge_lifting_a_degree_to_2_pow_1022():
    half = 2.0 ** 1021
    with pytest.raises(GraphConstructionError) as err:
        sl.build_graph(3, [(0, 1, half), (1, 2, 1.0), (0, 2, -half)])
    assert err.value.edge_index == 2
    assert "node 0" in str(err.value)
    # a degree one ulp below the bound keeps the spectrum of L finite
    g = sl.build_graph(3, [(0, 1, half), (0, 2, half - 2.0 ** 969)])
    sig = sl.signature(sl.laplacian_matrix(g))
    assert sig.as_tuple() == (2, 0, 1) and np.isfinite(sig.tolerance_used)


@pytest.mark.parametrize("edges", [
    [(0, 1, 1e-320), (0, 1, -1e-320)],
    [(0, 1, 1e-320), (1, 2, 1e-320), (0, 2, -4e-321)],
], ids=["two-node", "three-node"])
def test_build_graph_rejects_subnormal_weights(edges):
    n = 1 + max(max(u, v) for u, v, _ in edges)
    with pytest.raises(GraphConstructionError) as err:
        sl.build_graph(n, edges)
    assert err.value.edge_index == 0
    assert str(err.value) == "edge 0: weight 1e-320 on (0, 1) is below 2**-1022 in magnitude"
    # the smallest normal magnitude itself is accepted
    g = sl.build_graph(2, [(0, 1, 2.0 ** -1022), (1, 0, -(2.0 ** -1022))])
    assert g.weights.tolist() == [2.0 ** -1022, -(2.0 ** -1022)]


def _random_edge(rng, n: int, big: float):
    """One edge drawn to trip, now and then, each check of build_graph."""
    u, v = (int(x) for x in rng.integers(0, n, size=2))
    w = float(rng.uniform(0.1, 2.0)) * (1.0 if rng.random() < 0.7 else -1.0)
    kind = rng.random()
    if kind < 0.03:
        u = int(rng.choice([-1, n, n + 5]))
    elif kind < 0.06:
        v = u
    elif kind < 0.09:
        w = float(rng.choice([0.0, -0.0]))
    elif kind < 0.12:
        w = float(rng.choice([np.nan, np.inf, -np.inf]))
    elif kind < 0.15:
        w = float(rng.choice([1e-320, -5e-324, 2.0 ** -1023, -1e-310]))
    elif kind < 0.30:
        w = big * float(rng.choice([1.0, -1.0]))
    return u, v, w


def _fails_alone(n: int, edge) -> bool:
    try:
        loop_build_graph(n, [edge])
    except GraphConstructionError:
        return True
    return False


def test_build_graph_matches_the_per_edge_loop():
    rng = np.random.default_rng(2024)
    outcomes = set()
    for trial in range(600):
        n = int(rng.integers(2, 9))
        # degrees near 2**1022: a node reaches the bound after a few big edges
        big = 2.0 ** 1022 / float(rng.choice([2.0, 3.0, 4.0, 7.0]))
        edges = [_random_edge(rng, n, big) for _ in range(int(rng.integers(0, 12)))]
        try:
            expected = loop_build_graph(n, edges)
        except GraphConstructionError as exc:
            with pytest.raises(type(exc)) as err:
                sl.build_graph(n, edges)
            assert str(err.value) == str(exc)
            assert err.value.edge_index == exc.edge_index
            kind = type(exc).__name__
            if "lifts" in str(exc):
                later = edges[exc.edge_index + 1:]
                kind += " degree" + (" before a bad edge" if any(
                    _fails_alone(n, e) for e in later) else "")
            outcomes.add(kind)
            continue
        g = sl.build_graph(n, edges)
        assert g == expected and hash(g) == hash(expected)
        assert g.tails.dtype == np.intp and g.heads.dtype == np.intp
        assert g.tails.tolist() == [e[0] for e in g.edges]
        assert g.heads.tolist() == [e[1] for e in g.edges]
        assert g.weights.tolist() == [e[2] for e in g.edges]
        for column in (g.tails, g.heads, g.weights):
            assert not column.flags.writeable
            with pytest.raises(ValueError):
                column[:1] = 0
        outcomes.add("valid")
    # every error kind came up, and the degree bound fired both with and
    # without a later edge that fails a check of its own
    assert outcomes == {"valid", "NodeOutOfRangeError", "SelfLoopError", "ZeroWeightError",
                        "NonFiniteWeightError", "GraphConstructionError",
                        "GraphConstructionError degree",
                        "GraphConstructionError degree before a bad edge"}


def test_signed_graph_columns_follow_subgraphs():
    g = sl.build_graph(5, [(3, 1, 2.0), (0, 4, -1.0), (2, 4, 0.5), (4, 2, -3.0)])
    plus = g.positive_subgraph()
    assert plus == sl.SignedGraph(5, [1, 2], [3, 4], [2.0, 0.5])
    assert plus.tails.tolist() == [1, 2] and plus.heads.tolist() == [3, 4]
    assert plus.weights.tolist() == [2.0, 0.5]
    picked = g.subgraph([3, 0])
    assert picked.edges == ((2, 4, -3.0), (1, 3, 2.0))
    assert picked.weights.tolist() == [-3.0, 2.0] and not picked.weights.flags.writeable
    assert g.subgraph(np.array([False, True, False, True])).edges == g.subgraph([1, 3]).edges
    assert g.negative_edge_indices() == [1, 3] and np.flatnonzero(g.weights > 0).tolist() == [0, 2]
    # a graph built straight from its columns keeps read-only copies of them,
    # coerced to intp, intp and float64
    direct = sl.SignedGraph(5, g.tails.tolist(), g.heads.tolist(), g.weights.tolist())
    assert direct == g and np.array_equal(direct.weights, g.weights)
    assert np.array_equal(direct.tails, g.tails) and not direct.tails.flags.writeable
    assert direct.tails.dtype == direct.heads.dtype == np.intp
    assert direct.weights.dtype == np.float64
    weights = g.weights.copy()
    copied = sl.SignedGraph(5, g.tails, g.heads, weights)
    weights[0] = 9.0
    assert copied == g and weights.flags.writeable
    with pytest.raises(ValueError):
        sl.SignedGraph(5, [0, 1], [1], [1.0, 2.0])


@pytest.mark.parametrize("call, message", [
    (lambda: sl.SignedGraph(5, [0, 1], [1], [1.0, 2.0]),
     "tails, heads and weights must be 1-d columns of one length"),
    (lambda: sl.build_graph(0, []), "node_count must be >= 1, got 0"),
    (lambda: sl.build_graph(2, [(0, 1)]), "every edge must be a (u, v, w) triple"),
    (lambda: sl.path_edge_sets(sl.build_graph(2, [(0, 1, -1.0)]), [(0, 1)]),
     "path_edge_sets requires an all-positive graph"),
    (lambda: sl.path_edge_sets(sl.build_graph(2, [(0, 1, 1.0)]), [(0, 0)]),
     "invalid node pair (0, 0)"),
    (lambda: sl.resistance_matrix_for_negatives(sl.build_graph(2, [(0, 1, -1.0)]), []),
     "resistance_matrix_for_negatives requires an all-positive graph"),
    (lambda: sl.resistance_matrix_for_negatives(sl.build_graph(2, [(0, 1, 1.0)]), [(0, 2)]),
     "invalid node pair (0, 2)"),
    (lambda: sl.signature(np.zeros((2, 3))), "expected a square matrix, got shape (2, 3)"),
], ids=["columns", "node-count", "triple", "path-sign", "path-pair", "matrix-sign",
        "matrix-pair", "square"])
def test_bad_library_input_raises_invalid_parameter_error(call, message):
    with pytest.raises(sl.InvalidParameterError) as err:
        call()
    assert str(err.value) == message
    assert isinstance(err.value, sl.SiglapError) and isinstance(err.value, ValueError)


def test_subgraph_reads_a_boolean_list_as_a_mask():
    g = sl.build_graph(4, [(0, 1, 1.0), (1, 2, 2.0), (2, 3, 3.0), (0, 3, -0.5)])
    picked = g.subgraph([True, False, True, False])
    assert picked.edges == ((0, 1, 1.0), (2, 3, 3.0))
    assert picked == g.subgraph(np.array([True, False, True, False])) == g.subgraph([0, 2])
    assert g.subgraph([]).edge_count == 0 and g.subgraph([]).node_count == 4


def test_incidence_single_edge():
    g = sl.build_graph(2, [(0, 1, 1.0)])
    E = pc.incidence_matrix(g)
    assert np.array_equal(E, [[-1.0], [1.0]])


def test_incidence_column_sums_vanish():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    E = pc.incidence_matrix(g)
    assert E.shape == (3, 3)
    assert np.array_equal(E.T @ np.ones(3), np.zeros(3))


def test_incidence_rank_is_nodes_minus_components():
    rng = np.random.default_rng(7)
    for _ in range(20):
        g = random_connected_positive(rng)
        # a second disconnected copy half the time
        if rng.random() < 0.5:
            shift = g.node_count
            extra = [(u + shift, v + shift, w) for u, v, w in g.edges]
            g = sl.build_graph(2 * shift, list(g.edges) + extra)
        E = pc.incidence_matrix(g)
        c = bfs_component_count(g.node_count, [(u, v) for u, v, _ in g.edges])
        assert np.linalg.matrix_rank(E) == g.node_count - c


def test_decompose_tree_has_no_cycle_edges():
    g = sl.build_graph(4, [(0, 1, 1), (1, 2, 1), (1, 3, 1)])
    d = pc.decompose(g)
    assert d.cycle_edges == ()
    assert d.tree_to_cycle.shape == (3, 0)
    assert np.array_equal(d.cut_basis, np.eye(3))


def test_decompose_triangle():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    d = pc.decompose(g)
    assert d.forest_edges == (0, 1)
    assert d.cycle_edges == (2,)
    # cycle edge is reproduced exactly by the forest columns
    assert np.allclose(d.incidence_forest @ d.tree_to_cycle, d.incidence_cycle)
    assert np.allclose(np.abs(d.tree_to_cycle.ravel()), [1.0, 1.0])


def test_decompose_disconnected():
    g = sl.build_graph(5, [(0, 1, 1), (1, 2, 1), (3, 4, 1)])
    d = pc.decompose(g)
    assert d.component_count == 2
    assert len(d.forest_edges) == 5 - 2


def test_decompose_deterministic():
    g = sl.build_graph(6, [(0, 1, 1), (1, 2, 1), (2, 3, 1), (3, 0, 1), (2, 4, 1),
                           (4, 5, 1), (5, 2, 1)])
    d1 = pc.decompose(g)
    d2 = pc.decompose(g)
    assert d1.forest_edges == d2.forest_edges
    assert d1.cycle_edges == d2.cycle_edges
    assert np.array_equal(d1.tree_to_cycle, d2.tree_to_cycle)


def test_decompose_random_invariants():
    rng = np.random.default_rng(11)
    for _ in range(30):
        g = random_connected_positive(rng)
        d = pc.decompose(g)
        if d.cycle_edges:
            assert np.max(np.abs(d.incidence_forest @ d.tree_to_cycle
                                 - d.incidence_cycle)) < 1e-10
        assert np.linalg.matrix_rank(d.incidence_forest) == g.node_count - d.component_count
        assert sorted(d.forest_edges + d.cycle_edges) == list(range(g.edge_count))


def test_decompose_with_forest_matches_decompose():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    d = pc.decompose(g)
    d2 = pc.decompose_with_forest(g, d.forest_edges)
    assert d2.forest_edges == d.forest_edges
    assert np.array_equal(d2.tree_to_cycle, d.tree_to_cycle)


def test_decompose_with_forest_rejects_cycles_and_nonspanning():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    with pytest.raises(ValueError):
        pc.decompose_with_forest(g, [0, 1, 2])
    with pytest.raises(ValueError):
        pc.decompose_with_forest(g, [0])


def test_path_edge_sets_unique_path():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1)])
    (p,) = sl.path_edge_sets(g, [(0, 2)])
    assert p == {0, 1}


def test_path_edge_sets_two_triangles_sharing_a_node():
    g = sl.build_graph(5, [(0, 1, 1), (1, 2, 1), (0, 2, 1), (2, 3, 1), (3, 4, 1),
                           (2, 4, 1)])
    p1, p2 = sl.path_edge_sets(g, [(0, 1), (3, 4)])
    assert p1 == brute_force_path_edges(g, 0, 1) == {0, 1, 2}
    assert p2 == brute_force_path_edges(g, 3, 4) == {3, 4, 5}
    assert not (p1 & p2)


def test_path_edge_sets_disconnected_pair():
    g = sl.build_graph(4, [(0, 1, 1), (2, 3, 1)])
    with pytest.raises(sl.NodesDisconnectedError):
        sl.path_edge_sets(g, [(0, 3)])


def test_path_edge_sets_rejects_negative_weights():
    g = sl.build_graph(2, [(0, 1, -1.0)])
    with pytest.raises(ValueError):
        sl.path_edge_sets(g, [(0, 1)])


def test_path_edge_sets_matches_enumeration():
    rng = np.random.default_rng(23)
    for _ in range(60):
        n = int(rng.integers(3, 9))
        edges = [(int(rng.integers(0, v)), v, positive_weight(rng)) for v in range(1, n)]
        for _ in range(int(rng.integers(0, n))):
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            edges.append((u, v, positive_weight(rng)))  # may create parallel edges
        g = sl.build_graph(n, edges)
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        (computed,) = sl.path_edge_sets(g, [(u, v)])
        assert computed == brute_force_path_edges(g, u, v)


def test_components_after_edge_removal_trivial():
    g = sl.build_graph(3, [(0, 1, 1), (1, 2, 1), (0, 2, 1)])
    assert pc.components_after_edge_removal(g, set()) == 1
    assert pc.components_after_edge_removal(g, {0, 1, 2}) == 3


def test_components_after_removing_cycle_of_caterpillar():
    g = caterpillar_with_chord(-0.25)
    cycle = {0, 1, 2, 3, 8}  # path edges plus the chord
    q = pc.components_after_edge_removal(g, cycle)
    kept = [(u, v) for k, (u, v, _) in enumerate(g.edges) if k not in cycle]
    assert q == bfs_component_count(9, kept) == 5
