import copy
import pickle

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


def test_build_graph_degree_error_names_the_first_edge_at_a_node_of_degree_2_pow_1022():
    half = 2.0 ** 1021
    with pytest.raises(GraphConstructionError) as err:
        sl.build_graph(3, [(1, 2, 1.0), (0, 1, half), (2, 0, -half)])
    # node 0 reaches the bound only at edge 2, but edge 1 is its first edge
    assert err.value.edge_index == 1
    assert str(err.value) == ("edge 1: node 0 of (0, 1) has weighted degree "
                              "4.49423283715579e+307, at or above 2**1022")
    # every per-edge fault comes first, even at a later edge
    with pytest.raises(sl.ZeroWeightError) as err:
        sl.build_graph(3, [(0, 1, half), (0, 2, half), (1, 2, 0.0)])
    assert err.value.edge_index == 2
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
    elif kind < 0.17:  # an edge that reaches the degree bound on its own
        w = float(rng.choice([2.0 ** 1022, -1.5 * 2.0 ** 1022]))
    elif kind < 0.32:
        w = big * float(rng.choice([1.0, -1.0]))
    return u, v, w


def _fails(n: int, edges) -> bool:
    try:
        loop_build_graph(n, edges)
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
            if "weighted degree" in str(exc):
                # the edges up to the named one may not reach the bound yet
                kind += " degree" + ("" if _fails(n, edges[:exc.edge_index + 1])
                                     else " before the bound is reached")
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
    # every error kind came up, and the degree error named both the edge
    # that reaches the bound and an earlier edge at the same node
    assert outcomes == {"valid", "NodeOutOfRangeError", "SelfLoopError", "ZeroWeightError",
                        "NonFiniteWeightError", "GraphConstructionError",
                        "GraphConstructionError degree",
                        "GraphConstructionError degree before the bound is reached"}


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



def test_graph_columns_cannot_be_made_writeable():
    g = sl.build_graph(5, [(3, 1, 2.0), (0, 4, -1.0), (2, 4, 0.5), (4, 2, -3.0)])
    ends = np.array([[0, 1], [1, 3]])  # rows are views of a writeable array
    derived = sl.SignedGraph._derived(4, ends[0], ends[1], np.array([1.0, 2.0]))
    ends[0, 0] = 2
    assert derived.tails.tolist() == [0, 1]
    for graph in (g, g.subgraph([3, 0]), g.positive_subgraph(), derived,
                  pickle.loads(pickle.dumps(g)), copy.copy(g), copy.deepcopy(g)):
        for column in (graph.tails, graph.heads, graph.weights):
            with pytest.raises(ValueError):
                column[:1] = 5
            owner = column  # nor may any array the column is a view of
            while isinstance(owner, np.ndarray):
                with pytest.raises(ValueError):
                    owner.flags.writeable = True
                owner = owner.base
    assert g.weights.tolist() == [2.0, -1.0, 0.5, -3.0]

TRIANGLE = sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0)])


@pytest.mark.parametrize("call, message", [
    (lambda: sl.SignedGraph(5, [0, 1], [1], [1.0, 2.0]),
     "tails, heads and weights must be 1-d columns of one length"),
    (lambda: sl.SignedGraph(3, [1], [0], [1.0]), "edge 0: tail 1 >= head 0"),
    (lambda: sl.SignedGraph(3, [0, 2], [1, 2], [1.0, 1.0]), "edge 1: self-loop at node 2"),
    (lambda: sl.build_graph(0, []), "node_count must be >= 1, got 0"),
    (lambda: sl.build_graph(2, [(0, 1)]), "every edge must be a (u, v, w) triple"),
    (lambda: sl.path_edge_sets(sl.build_graph(2, [(0, 1, -1.0)]), [(0, 1)]),
     "path_edge_sets requires an all-positive graph"),
    (lambda: sl.path_edge_sets(sl.build_graph(2, [(0, 1, 1.0)]), [(0, 0)]),
     "effective resistance needs two distinct nodes, got 0 twice"),
    (lambda: sl.resistance_matrix_for_negatives(sl.build_graph(2, [(0, 1, -1.0)]), []),
     "resistance_matrix_for_negatives requires an all-positive graph"),
    (lambda: sl.resistance_matrix_for_negatives(sl.build_graph(2, [(0, 1, 1.0)]), [(0, 2)]),
     "node out of range: (0, 2) on 2 nodes"),
    (lambda: sl.signature(np.zeros((2, 3))), "expected a square matrix, got shape (2, 3)"),
    (lambda: sl.signature([[np.nan]]), "matrix entries must be finite"),
    (lambda: sl.signature([[np.inf, 0.0], [0.0, 1.0]]), "matrix entries must be finite"),
    (lambda: sl.signature(np.array([[1.0, 1j], [-1j, 1.0]])),
     "expected a matrix of real numbers"),
    (lambda: sl.signature([[True, False], [False, True]]), "expected a matrix of real numbers"),
    (lambda: sl.signature([["1", "0"], ["0", "1"]]), "expected a matrix of real numbers"),
    (lambda: sl.pseudo_inverse_eig([[np.nan]]), "matrix entries must be finite"),
    (lambda: sl.simulate(TRIANGLE, ["0.5", "0.1", "0.2"]), "x0 must be a vector of real numbers"),
    (lambda: sl.simulate(TRIANGLE, [True, False, True]), "x0 must be a vector of real numbers"),
    (lambda: sl.simulate(TRIANGLE, [0.5, True, 0.2]), "x0 must be a vector of real numbers"),
    (lambda: sl.simulate(TRIANGLE, np.array([0.5, True, 0.2], dtype=object)),
     "x0 must be a vector of real numbers"),
    (lambda: sl.simulate(TRIANGLE, [0.0, 0.5, 1.0], t_final="1"),
     "t_final must be finite and positive, got '1'"),
    (lambda: sl.simulate(TRIANGLE, [0.0, 0.5, 1.0], output_stride="3"),
     "output_stride must be an integer >= 1, got '3'"),
    (lambda: sl.simulate(TRIANGLE, [0.0, 0.5, 1.0], output_stride=2.5),
     "output_stride must be an integer >= 1, got 2.5"),
    (lambda: sl.simulate(TRIANGLE, [0.0, 0.5, 1.0], output_stride=True),
     "output_stride must be an integer >= 1, got True"),
    (lambda: sl.build_graph("3", []), "node_count must be an integer, got '3'"),
    (lambda: sl.build_graph(2.5, []), "node_count must be an integer, got 2.5"),
    (lambda: sl.build_graph(3, [("a", 1, 1.0)]),
     "edge 0: node ids must be integers, got ('a', 1)"),
    (lambda: sl.build_graph(3, [(0, 1, "x")]), "edge 0: weight must be a real number, got 'x'"),
    (lambda: sl.build_graph(3, [(0, 1, 1.0), (1, 2, "1.5")]),
     "edge 1: weight must be a real number, got '1.5'"),
    (lambda: sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, b"1")]),
     "edge 2: weight must be a real number, got b'1'"),
    (lambda: sl.build_graph(3, [(0, 1, True)]), "edge 0: weight must be a real number, got True"),
    (lambda: sl.build_graph(3, [(0, 1, 1.0), (1, 2, None)]),
     "edge 1: weight must be a real number, got None"),
    (lambda: sl.build_graph(3, [(0, 1, 1.0), (0.5, np.float64(2.7), 1.0)]),
     "edge 1: node ids must be integers, got (0.5, np.float64(2.7))"),
    (lambda: sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (True, 2, 1.0)]),
     "edge 2: node ids must be integers, got (True, 2)"),
    (lambda: sl.build_graph(3, [(0, 2.0, 1.0)]), "edge 0: node ids must be integers, got (0, 2.0)"),
    (lambda: sl.build_graph(3, 5), "edge_list must be an iterable of (u, v, w) triples"),
    (lambda: TRIANGLE.subgraph([True, False]),
     "an edge mask must have shape (3,), got (2,)"),
    (lambda: TRIANGLE.subgraph([0, 3]), "edge indices must be integers from 0 to 2, got [0, 3]"),
    (lambda: TRIANGLE.subgraph([0.5]), "edge indices must be integers from 0 to 2, got [0.5]"),
    (lambda: TRIANGLE.subgraph([1, 0, 1]), "edge indices must be distinct, got [1, 0, 1]"),
    (lambda: TRIANGLE.subgraph([[0], [1, 2]]),
     "edge indices must be integers from 0 to 2, got [[0], [1, 2]]"),
    (lambda: TRIANGLE.subgraph([0, True]),
     "edge indices must be integers from 0 to 2, got [0, True]"),
    (lambda: TRIANGLE.subgraph(5), "edge indices must be an iterable, got 5"),
    (lambda: sl.SignedGraph(2, [0], [5], [1.0]),
     "edge 0: endpoint out of range: (0, 5)"),
    (lambda: sl.SignedGraph(3, [0, 1], [1, 2], [1.0, np.nan]),
     "edge 1: non-finite weight nan on (1, 2)"),
    (lambda: sl.SignedGraph(2, ["a"], [1], [1.0]), "tails must be a column of integers"),
    (lambda: sl.SignedGraph(3, [0.5], [1.5], [1.0]), "tails must be a column of integers"),
    (lambda: sl.SignedGraph(2, [0], [1], [1j]), "weights must be a column of real numbers"),
    (lambda: sl.SignedGraph(2**70, [], [], []),
     "node_count must be <= 1152921504606846975, got 1180591620717411303424"),
    (lambda: sl.build_graph(2**70, []),
     "node_count must be <= 1152921504606846975, got 1180591620717411303424"),
    (lambda: sl.resistance_matrix_for_negatives(TRIANGLE, 5),
     "node pairs must be an iterable of (u, v) pairs, got 5"),
    (lambda: sl.path_edge_sets(TRIANGLE, None),
     "node pairs must be an iterable of (u, v) pairs, got None"),
    (lambda: sl.parse_graph(None), "graph text must be a str, got NoneType"),
    (lambda: sl.parse_graph(b"nodes 2"), "graph text must be a str, got bytes"),
    (lambda: sl.build_graph(2, [(0, 1, np.complex128(1 + 2j))]),
     "edge 0: weight must be a real number, got np.complex128(1+2j)"),
    (lambda: sl.build_graph(2, [(0, 1, 1.0), (0, 1, np.complex64(1))]),
     "edge 1: weight must be a real number, got np.complex64(1+0j)"),
    (lambda: sl.SignedGraph(3, [0, 0], [1, 2], [True, 0.5]),
     "weights must be a column of real numbers"),
    (lambda: sl.simulate(TRIANGLE, [0.5, 10**400, 0.2]), "x0 must be finite"),
    (lambda: sl.signature([[1.0, 0.0], [0.0, -10**400]]), "matrix entries must be finite"),
    (lambda: sl.effective_resistance(None, 0, 1), "expected a SignedGraph, got NoneType"),
    (lambda: sl.resistance_matrix_for_negatives(5, [(0, 1)]), "expected a SignedGraph, got int"),
    (lambda: sl.negative_edge_report("g"), "expected a SignedGraph, got str"),
    (lambda: sl.multi_edge_verdict(None), "expected a SignedGraph, got NoneType"),
    (lambda: sl.corollary6_check(5), "expected a SignedGraph, got int"),
    (lambda: sl.simulate("g", [0.0, 1.0]), "expected a SignedGraph, got str"),
    (lambda: sl.predict_clusters(None), "expected a SignedGraph, got NoneType"),
    (lambda: sl.component_labels(5), "expected a SignedGraph, got int"),
    (lambda: sl.path_edge_sets("g", [(0, 1)]), "expected a SignedGraph, got str"),
    (lambda: sl.laplacian_matrix(None), "expected a SignedGraph, got NoneType"),
    (lambda: sl.format_graph(TRIANGLE.edges), "expected a SignedGraph, got tuple"),
    (lambda: sl.write_graph_file(None, "missing/unwritten.txt"),
     "expected a SignedGraph, got NoneType"),
    (lambda: sl.detect_clusters(None), "expected a Trajectory, got NoneType"),
    (lambda: sl.detect_clusters(sl.Trajectory(np.arange(2.0), [0.0, 1.0], 1.0, None)),
     "trajectory states must be a 2-d array of real numbers with at least one row"),
    (lambda: sl.detect_clusters(sl.Trajectory(np.arange(2.0), [["0", "1"]] * 2, 1.0, None)),
     "trajectory states must be a 2-d array of real numbers with at least one row"),
    (lambda: sl.detect_clusters(sl.Trajectory(np.zeros(0), np.zeros((0, 3)), 1.0, None)),
     "trajectory states must be a 2-d array of real numbers with at least one row"),
], ids=["columns", "reversed-edge", "loop-edge", "node-count", "triple", "path-sign",
        "path-pair", "matrix-sign", "matrix-pair", "square", "signature-nan", "signature-inf",
        "signature-complex", "signature-bool", "signature-text", "pinv-nan", "x0-text",
        "x0-bool", "x0-mixed-bool", "x0-object-bool", "t-final-text", "stride-text", "stride-fraction",
        "stride-bool", "node-count-text", "node-count-fraction", "edge-text", "weight-text",
        "weight-number-text", "weight-bytes", "weight-bool", "weight-none",
        "edge-fraction", "edge-bool", "edge-whole-float", "edge-list-int", "mask-length",
        "index-range", "index-fraction", "index-repeat", "index-ragged", "index-bool", "index-int",
        "graph-range",
        "graph-nan", "graph-text", "graph-fraction", "graph-complex", "graph-huge-count",
        "edge-list-huge-count", "matrix-pairs-int", "path-pairs-none", "parse-none",
        "parse-bytes", "weight-complex128", "weight-complex64", "graph-bool-weight",
        "x0-beyond-doubles", "matrix-beyond-doubles", "resistance-graph", "matrix-graph",
        "report-graph", "verdict-graph", "corollary6-graph", "simulate-graph", "predict-graph",
        "labels-graph", "path-graph", "laplacian-graph", "format-graph", "write-graph",
        "detect-trajectory", "detect-states-1d", "detect-states-text", "detect-states-no-row"])
def test_bad_library_input_raises_invalid_parameter_error(call, message):
    with pytest.raises(sl.InvalidParameterError) as err:
        call()
    assert str(err.value) == message
    assert isinstance(err.value, sl.SiglapError) and isinstance(err.value, ValueError)


@pytest.mark.parametrize("columns, error, message", [
    ((3, [0, 1, 0], [1, 2, 2], [1.0, 0.0, -0.2]), sl.ZeroWeightError,
     "edge 1: zero weight on (1, 2)"),
    ((2, [0, 0], [1, 1], [1e-320, -1e-320]), GraphConstructionError,
     "edge 0: weight 1e-320 on (0, 1) is below 2**-1022 in magnitude"),
    ((3, [0, 0, 1, 0], [1, 1, 2, 2], [1e308, 1e308, 1.0, -0.1]), GraphConstructionError,
     "edge 0: node 0 of (0, 1) has weighted degree inf, at or above 2**1022"),
    ((3, [0, 0], [1, 3], [1e308, 1e308]), sl.NodeOutOfRangeError,
     "edge 1: endpoint out of range: (0, 3)"),
    ((3, [0, 1], [1, 2], [1.0, -10**400]), sl.NonFiniteWeightError,
     "edge 1: non-finite weight -inf on (1, 2)"),
], ids=["zero", "subnormal", "degree", "range-before-degree", "beyond-doubles"])
def test_a_directly_built_graph_gets_the_same_graph_error_as_build_graph(columns, error, message):
    n, tails, heads, weights = columns
    for call in (lambda: sl.SignedGraph(*columns),
                 lambda: sl.build_graph(n, list(zip(heads, tails, weights)))):
        with pytest.raises(error) as err:
            call()
        assert type(err.value) is error and str(err.value) == message
        assert err.value.edge_index == int(message.split(":")[0].split()[1])
        assert isinstance(err.value, sl.InvalidParameterError)


@pytest.mark.parametrize("call, message", [
    (lambda: sl.multi_edge_verdict(sl.build_graph(3, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, -0.1)]),
                                   "0.1"),
     "zero tolerance must be a real number, got '0.1'"),
    (lambda: sl.detect_clusters(sl.simulate(TRIANGLE, [0.0, 0.5, 1.0], t_final=1.0), "x"),
     "cluster tolerance must be a real number, got 'x'"),
    (lambda: sl.signature(np.eye(2), True), "zero tolerance must be a real number, got True"),
    (lambda: sl.simulate(TRIANGLE, [0.0, 0.5, 1.0], t_final=1.0, cluster_tol=None),
     "cluster tolerance must be a real number, got None"),
    (lambda: sl.detect_clusters(sl.simulate(TRIANGLE, [0.0, 0.5, 1.0], t_final=1.0), None),
     "cluster tolerance must be a real number, got None"),
], ids=["verdict-text", "detect-text", "signature-bool", "simulate-none", "detect-none"])
def test_a_tolerance_that_is_not_a_real_number_raises_invalid_tolerance_error(call, message):
    with pytest.raises(sl.InvalidToleranceError) as err:
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
