"""Grounded-solve resistances against independent implementations.

``networkx.resistance_distance`` is the differential oracle; it takes edge
weights as conductances with ``invert_weight=False`` and, being a simple
graph, needs parallel edges merged by summing their conductances.  A dense
pseudo-inverse is the oracle for the whole resistance matrix.
"""

import gc
import pickle
import sys
import threading
import weakref

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siglap as sl
import siglap.resistance as resistance_module
from conftest import (
    blocks_glued_at_cut_vertices,
    caterpillar_tree,
    caterpillar_with_chord,
    cycle_chain_at_threshold,
    dense_laplacian,
    grid_edges,
    hub_tree,
    random_boundary_cycle_graph,
    random_connected_positive,
    random_signed,
    relabelled,
)
from paper_constructions import edge_blocks


def nx_graph(g: sl.SignedGraph) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.node_count))
    for u, v, w in g.edges:
        if G.has_edge(u, v):
            G[u][v]["weight"] += w
        else:
            G.add_edge(u, v, weight=w)
    return G


def nx_resistance(G: nx.Graph, u: int, v: int) -> float:
    component = G.subgraph(nx.node_connected_component(G, u))
    return nx.resistance_distance(component, u, v, weight="weight", invert_weight=False)


def random_pairs(rng, n: int, count: int) -> list[tuple[int, int]]:
    return [tuple(int(x) for x in rng.choice(n, size=2, replace=False)) for _ in range(count)]


def test_effective_resistance_matches_networkx():
    rng = np.random.default_rng(83)
    for _ in range(30):
        g = random_connected_positive(rng, 5, 25)
        G = nx_graph(g)
        for u, v in random_pairs(rng, g.node_count, 3):
            assert sl.effective_resistance(g, u, v) == pytest.approx(
                nx_resistance(G, u, v), rel=1e-9)


def test_resistance_matrix_matches_networkx_and_pseudo_inverse():
    rng = np.random.default_rng(89)
    for _ in range(30):
        g = random_connected_positive(rng, 5, 25)
        G = nx_graph(g)
        pairs = random_pairs(rng, g.node_count, int(rng.integers(1, 6)))
        matrix, diag = sl.resistance_matrix_for_negatives(g, pairs)
        expected = [nx_resistance(G, u, v) for u, v in pairs]
        assert np.allclose(diag, expected, rtol=1e-9, atol=0.0)
        # off-diagonal coupling against a dense pseudo-inverse oracle
        E = np.zeros((g.node_count, len(pairs)))
        for k, (u, v) in enumerate(pairs):
            E[min(u, v), k], E[max(u, v), k] = -1.0, 1.0
        oracle = E.T @ np.linalg.pinv(dense_laplacian(g.node_count, g.edges)) @ E
        assert np.allclose(matrix.toarray(), oracle, rtol=1e-9, atol=1e-9)


def test_same_component_pair_of_disconnected_graph_matches_networkx():
    rng = np.random.default_rng(97)
    for _ in range(15):
        first = random_connected_positive(rng)
        second = random_connected_positive(rng)
        offset = first.node_count + 1  # node first.node_count stays isolated
        edges = list(first.edges) + [(u + offset, v + offset, w) for u, v, w in second.edges]
        g = sl.build_graph(offset + second.node_count, edges)
        G = nx_graph(g)
        for u, v in random_pairs(rng, second.node_count, 2):
            u, v = u + offset, v + offset
            assert sl.effective_resistance(g, u, v) == pytest.approx(
                nx_resistance(G, u, v), rel=1e-9)
        u, v = random_pairs(rng, first.node_count, 1)[0]
        assert sl.effective_resistance(g, u, v) == pytest.approx(
            nx_resistance(G, u, v), rel=1e-9)


def test_scaling_weights_by_c_scales_resistance_by_one_over_c():
    rng = np.random.default_rng(101)
    for _ in range(15):
        g = random_connected_positive(rng, 5, 20)
        pairs = random_pairs(rng, g.node_count, 3)
        base_matrix, _ = sl.resistance_matrix_for_negatives(g, pairs)
        for c in (0.25, 3.0, 1e4):
            scaled = sl.build_graph(g.node_count, [(u, v, c * w) for u, v, w in g.edges])
            matrix, _ = sl.resistance_matrix_for_negatives(scaled, pairs)
            assert np.allclose(matrix.toarray(), base_matrix.toarray() / c, rtol=1e-10, atol=1e-12 / c)
            u, v = pairs[0]
            assert sl.effective_resistance(scaled, u, v) == pytest.approx(
                sl.effective_resistance(g, u, v) / c, rel=1e-10)


def perturb_both_solvers(monkeypatch):
    """Scale every solution of either factorization by 1 + 1e-3, so that
    whichever route runs fails its residual check."""
    real_splu, real_dpbtrs = resistance_module.splu, resistance_module.dpbtrs

    class Perturbed:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return self.lu.solve(b) * (1.0 + 1e-3)

    monkeypatch.setattr(resistance_module, "splu",
                        lambda *args, **kwargs: Perturbed(real_splu(*args, **kwargs)))
    monkeypatch.setattr(resistance_module, "dpbtrs", lambda *args, **kwargs: (
        real_dpbtrs(*args, **kwargs)[0] * (1.0 + 1e-3), 0))


def test_perturbed_grounded_solve_raises_cross_check(monkeypatch):
    perturb_both_solvers(monkeypatch)
    rng = np.random.default_rng(113)
    scrambled_grid = relabelled(sl.build_graph(256, grid_edges(rng, 16, 16)),
                                rng.permutation(256))
    for g, banded in ((caterpillar_tree(), True), (scrambled_grid, False)):
        assert (resistance_module._band(g, 1) is not None) == banded
        with pytest.raises(sl.CrossCheckError):
            sl.effective_resistance(g, 0, 4)
        with pytest.raises(sl.CrossCheckError):
            sl.resistance_matrix_for_negatives(g, [(0, 4)])


def test_numerically_singular_grounded_matrix_raises_cross_check():
    # 1e-300 vanishes next to 1e300 on node 1's diagonal, so the grounded
    # matrix is exactly singular in floating point although R = 1e300 is not
    g = sl.build_graph(3, [(0, 1, 1e-300), (1, 2, 1e300)])
    with pytest.raises(sl.CrossCheckError):
        sl.effective_resistance(g, 0, 2)
    with pytest.raises(sl.CrossCheckError):
        sl.resistance_matrix_for_negatives(g, [(0, 2)])


def test_numerically_singular_grounded_matrix_raises_cross_check_on_the_splu_route():
    # The graph of the test above, relabelled and hung on node 0 of a unit
    # 200-cycle in scrambled order, so that both solves take splu; node 0
    # is still grounded, and the pair's block of G is the whole graph.
    perm = np.random.default_rng(127).permutation(np.arange(1, 202))
    ring = [0, *perm[:199].tolist()]
    light, heavy = perm[199:].tolist()
    edges = [(ring[i], ring[(i + 1) % 200], 1.0) for i in range(200)]
    g = sl.build_graph(202, edges + [(0, light, 1e-300), (light, heavy, 1e300)])
    assert resistance_module._band(g, 1) is None
    with pytest.raises(sl.CrossCheckError):
        sl.effective_resistance(g, ring[100], heavy)
    with pytest.raises(sl.CrossCheckError):
        sl.resistance_matrix_for_negatives(g, [(ring[100], heavy)])


def test_pivot_guard_passes_cycle_chains_whose_weights_differ_in_scale():
    # Pivots well above rounding level (min c_jj**2 / A_jj: 5.6e-13 and 0.19),
    # so the banded route returns a value, within the accuracy the strict
    # xfail in test_resistance.py records.
    for weights in ([1e-6] * 39 + [1e6], list(np.geomspace(1e-6, 1e6, 40))):
        g = cycle_chain_at_threshold(weights)
        g_plus = g.positive_subgraph()
        assert resistance_module._band(g_plus, 1) is not None
        for k, w in zip(g.negative_edge_indices(), weights):
            exact = 36.0 / (15.0 * w)
            r = sl.effective_resistance(g_plus, int(g.tails[k]), int(g.heads[k]))
            assert abs(r - exact) <= 1e-2 * exact


def test_route_rule_on_a_grid_its_scrambled_copy_and_a_hub_tree():
    rng = np.random.default_rng(131)
    grid = sl.build_graph(36 * 36, grid_edges(rng, 36, 36))
    assert resistance_module._band(grid, 1) == 36
    assert resistance_module._band(relabelled(grid, rng.permutation(36 * 36)), 1) is None
    assert resistance_module._band(hub_tree(rng), 1) is None


@st.composite
def positive_graph_in_two_orders(draw):
    """A tree, a chain of cycles, a grid or a tree plus chords with weights
    in [0.5, 2], up to about 300 nodes; the same graph under a random
    relabelling; and 1..3 node pairs of the first (the second's pairs are
    their images)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    family = draw(st.sampled_from(["tree", "cycles", "grid", "random"]))
    if family == "grid":
        rows, cols = int(rng.integers(2, 18)), int(rng.integers(2, 18))
        n, edges = rows * cols, grid_edges(rng, rows, cols)
    elif family == "cycles":
        length = int(rng.integers(3, 16))
        g = cycle_chain_at_threshold([1.0] * int(rng.integers(1, 21)), length=length,
                                     chord=1, hop=int(rng.integers(0, length)))
        n = g.node_count
        edges = [(u, v, float(rng.uniform(0.5, 2.0))) for u, v, _ in g.positive_subgraph().edges]
    else:
        n = int(rng.integers(2, 301))
        edges = [(int(rng.integers(0, v)), v, float(rng.uniform(0.5, 2.0))) for v in range(1, n)]
        for _ in range(int(rng.integers(0, n)) if family == "random" else 0):
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            edges.append((u, v, float(rng.uniform(0.5, 2.0))))
    g = sl.build_graph(n, edges)
    perm = rng.permutation(n)
    pairs = [tuple(int(x) for x in rng.choice(n, size=2, replace=False))
             for _ in range(int(rng.integers(1, 4)))]
    return g, relabelled(g, perm), pairs, perm


@settings(derandomize=True, max_examples=120, deadline=None)
@given(positive_graph_in_two_orders())
def test_both_routes_match_dense_pseudo_inverse(case):
    g, scrambled, pairs, perm = case
    pinv = np.linalg.pinv(dense_laplacian(g.node_count, g.edges))
    expected = [pinv[u, u] + pinv[v, v] - 2.0 * pinv[u, v] for u, v in pairs]
    images = [(int(perm[u]), int(perm[v])) for u, v in pairs]
    for graph, nodes in ((g, pairs), (scrambled, images)):
        got = [sl.effective_resistance(graph, u, v) for u, v in nodes]
        _, diag = sl.resistance_matrix_for_negatives(graph, nodes)
        assert np.allclose(got, expected, rtol=1e-10, atol=0.0)
        assert np.allclose(diag, expected, rtol=1e-10, atol=0.0)


def two_grids_interleaved(rng):
    """A 12x12 grid in row order on the even nodes 0..286 and a 16x16 grid
    in scrambled order on the other 256 of 400 nodes: two components, the
    first solved on the band and the second by splu; and alternating pairs
    of the two, three in the first and two in the second."""
    first = np.arange(0, 288, 2)
    second = np.setdiff1d(np.arange(400), first)[rng.permutation(256)]
    edges = [(int(first[u]), int(first[v]), w) for u, v, w in grid_edges(rng, 12, 12)]
    edges += [(int(second[u]), int(second[v]), w) for u, v, w in grid_edges(rng, 16, 16)]
    pairs = [(int(first[0]), int(first[143])), (int(second[0]), int(second[255])),
             (int(first[13]), int(first[100])), (int(second[17]), int(second[200])),
             (int(first[143]), int(first[5]))]
    return sl.build_graph(400, edges), pairs


def solve_spy(monkeypatch) -> list[tuple[str, int]]:
    """Record (route, right-hand-side columns) of every grounded solve."""
    calls = []
    real = resistance_module._grounded_solve

    def spy(f, rhs):
        calls.append(("splu" if f.width is None else "band", rhs.shape[1]))
        return real(f, rhs)

    monkeypatch.setattr(resistance_module, "_grounded_solve", spy)
    return calls


def test_pairs_of_two_components_take_one_solve_each(monkeypatch):
    g, pairs = two_grids_interleaved(np.random.default_rng(137))
    one_by_one = [sl.effective_resistance(g, u, v) for u, v in pairs]
    calls = solve_spy(monkeypatch)
    assert resistance_module._pair_resistances(g, pairs) == one_by_one
    assert calls == [("band", 3), ("splu", 2)]
    pinv = np.linalg.pinv(dense_laplacian(g.node_count, g.edges))
    expected = [pinv[u, u] + pinv[v, v] - 2.0 * pinv[u, v] for u, v in pairs]
    assert np.allclose(one_by_one, expected, rtol=1e-10, atol=0.0)


def test_pairs_of_a_signed_graph_take_one_pseudo_inverse(monkeypatch):
    g, pairs = two_grids_interleaved(np.random.default_rng(139))
    weights = g.weights.copy()
    weights[[0, -1]] = -0.1  # one negative edge in each grid
    g = sl.SignedGraph(g.node_count, g.tails, g.heads, weights)
    one_by_one = [sl.effective_resistance(g, u, v) for u, v in pairs]
    real = resistance_module.pseudo_inverse_eig
    calls = []
    monkeypatch.setattr(resistance_module, "pseudo_inverse_eig",
                        lambda matrix: calls.append(1) or real(matrix))
    assert resistance_module._pair_resistances(g, pairs) == one_by_one
    assert len(calls) == 1


def test_an_invalid_pair_raises_before_any_solve(monkeypatch):
    g, pairs = two_grids_interleaved(np.random.default_rng(149))
    calls = solve_spy(monkeypatch)
    same_node = (pairs[2][0], pairs[2][0])
    across = (pairs[0][0], pairs[1][0])  # one node in each grid
    for invalid, error, message in (
            ((0, 400), sl.InvalidParameterError, "node out of range: \\(0, 400\\) on 400 nodes"),
            (same_node, sl.InvalidParameterError, "two distinct nodes"),
            (across, sl.DisconnectedError, "different components")):
        with pytest.raises(error, match=message):
            resistance_module._pair_resistances(g, pairs[:2] + [invalid] + pairs[2:])
        assert calls == []
    # With both solvers perturbed, the valid pairs alone fail their solve,
    # but after them an invalid pair is still the error raised.
    perturb_both_solvers(monkeypatch)
    for valid in (pairs[0], pairs[1]):
        with pytest.raises(sl.CrossCheckError):
            resistance_module._pair_resistances(g, [valid])
        with pytest.raises(sl.InvalidParameterError, match="node out of range"):
            resistance_module._pair_resistances(g, [valid, (0, 400)])


def pair_query_cases(rng):
    """Graphs with pair sequences that repeat, reverse and interleave their
    pairs: a 16x16 grid numbered row by row (the banded route), the same
    grid renamed by i -> 97 i mod 256 (``splu``; the renaming fixes every
    multiple of 8), and two grids as the components of one graph, one on
    each route, with pairs alternating between them."""
    grid = sl.build_graph(256, grid_edges(rng, 16, 16))
    pairs = [(0, 248), (8, 136), (248, 0), (40, 200), (0, 248), (136, 8), (200, 40)]
    two, alternating = two_grids_interleaved(rng)
    alternating += [(v, u) for u, v in alternating]
    return [(grid, pairs), (relabelled(grid, 97 * np.arange(256) % 256), pairs),
            (two, alternating)]


def fresh_resistances(g: sl.SignedGraph, pairs) -> list[float]:
    """R of each pair, each on a fresh graph with the edges of ``g``."""
    return [sl.effective_resistance(sl.SignedGraph(g.node_count, g.tails, g.heads, g.weights),
                                    u, v) for u, v in pairs]


def factor_spy(monkeypatch) -> tuple[list[str], list[int]]:
    """Record the route of every factorization and the columns of every
    residual check."""
    factorizations, products = [], []
    for name, real in (("dpbtrf", resistance_module.dpbtrf), ("splu", resistance_module.splu)):
        monkeypatch.setattr(resistance_module, name, lambda *args, real=real, name=name, **kw:
                            factorizations.append(name) or real(*args, **kw))
    real_product = resistance_module._laplacian_product
    monkeypatch.setattr(resistance_module, "_laplacian_product", lambda g, x:
                        products.append(x.shape[1]) or real_product(g, x))
    return factorizations, products


def test_pair_queries_factor_each_component_once_and_repeat_the_bits(monkeypatch):
    for k, (g, pairs) in enumerate(pair_query_cases(np.random.default_rng(151))):
        fresh = fresh_resistances(g, pairs)
        with monkeypatch.context() as patch:
            factorizations, products = factor_spy(patch)
            assert [sl.effective_resistance(g, u, v) for u, v in pairs] == fresh
            assert len(products) == len(pairs)  # one residual check per call
            assert resistance_module._pair_resistances(g, pairs) == fresh
        routes = [["dpbtrf"], ["splu"], ["dpbtrf", "splu"]][k]
        assert factorizations == routes  # once per component, on its route
        assert len(resistance_module._pair_factors(g).factors) == len(routes)
        values = dict(zip(pairs, fresh))  # a reversed pair gives the same bits
        assert all(values[u, v] == values[v, u] for u, v in pairs)


def test_threads_sharing_a_graph_get_the_bits_of_a_fresh_graph():
    # Four threads on two cores race on one graph's first pair queries: each
    # may factor a component, and every value must still be the fresh one.
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for g, pairs in pair_query_cases(np.random.default_rng(163)):
            fresh = fresh_resistances(g, pairs)
            results = []

            def query(g=g, pairs=pairs, results=results):
                for _ in range(5):
                    results.append([sl.effective_resistance(g, u, v) for u, v in pairs])

            threads = [threading.Thread(target=query) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not any(thread.is_alive() for thread in threads)
            assert results == [fresh] * 20
    finally:
        sys.setswitchinterval(interval)


def test_a_failed_factorization_is_not_kept():
    # The graphs of the two numerically singular tests above: the band's
    # pivot guard and splu's exact zero pivot.
    perm = np.random.default_rng(127).permutation(np.arange(1, 202))
    ring = [0, *perm[:199].tolist()]
    light, heavy = perm[199:].tolist()
    edges = [(ring[i], ring[(i + 1) % 200], 1.0) for i in range(200)]
    hung = sl.build_graph(202, edges + [(0, light, 1e-300), (light, heavy, 1e300)])
    for g, u, v in ((sl.build_graph(3, [(0, 1, 1e-300), (1, 2, 1e300)]), 0, 2),
                    (hung, ring[100], heavy)):
        for _ in range(2):
            with pytest.raises(sl.CrossCheckError, match="factorization failed"):
                sl.effective_resistance(g, u, v)
        assert resistance_module._pair_factors(g).factors == {}


def test_derived_and_unpickled_graphs_carry_no_factors():
    rng = np.random.default_rng(157)
    grid = sl.build_graph(256, grid_edges(rng, 16, 16))
    g = relabelled(grid, 97 * np.arange(256) % 256)  # the splu route
    pairs = [(0, 248), (8, 136), (40, 200)]
    values = [sl.effective_resistance(g, u, v) for u, v in pairs]
    assert resistance_module._band(g, 1) is None and "_pair_factors" in vars(g)
    assert "_pair_factors" not in vars(g.positive_subgraph())
    assert "_pair_factors" not in vars(g.subgraph([0, 1, 2]))
    copied = pickle.loads(pickle.dumps(g))
    assert copied == g and "_pair_factors" not in vars(copied)
    assert [sl.effective_resistance(copied, u, v) for u, v in pairs] == values


def test_a_queried_graph_is_freed_with_its_last_reference():
    # The record kept on a graph holds no reference back to it, so dropping
    # the graph frees it and its factors at once, with no cycle collection.
    cases = pair_query_cases(np.random.default_rng(167))
    while cases:
        g, pairs = cases.pop()
        sl.effective_resistance(g, *pairs[0])
        alive = weakref.ref(g)
        gc.disable()
        try:
            del g
            assert alive() is None
        finally:
            gc.enable()


def test_signed_effective_resistance_matches_pinv():
    rng = np.random.default_rng(331)
    graphs = [caterpillar_with_chord(w) for w in (-0.1, -0.25, -0.5)]
    graphs += [random_boundary_cycle_graph(rng) for _ in range(10)]
    graphs += [random_signed(rng) for _ in range(40)]
    checked = 0
    for g in graphs:
        if not g.negative_edge_indices():
            continue
        n = g.node_count
        # pinv by SVD, dropping singular values below the package's zero
        # tolerance n * eps * max|eig| (the two agree for symmetric L)
        pinv = np.linalg.pinv(dense_laplacian(n, g.edges), rcond=n * np.finfo(float).eps)
        labels = sl.component_labels(g)
        for u in range(n):
            for v in range(u + 1, n):
                if labels[u] != labels[v]:
                    continue
                expected = pinv[u, u] + pinv[v, v] - 2.0 * pinv[u, v]
                got = sl.effective_resistance(g, u, v)
                assert abs(got - expected) <= 1e-9 * max(1.0, abs(expected))
                checked += 1
    assert checked > 500


@st.composite
def glued_blocks_with_pairs(draw):
    """Blocks glued at cut vertices, positive weights log-uniform over
    [1e-3, 1e3], and 1..4 node pairs: each parallel to a positive edge (so
    several pairs may share a block) or between any two nodes (often in
    different blocks, or merging blocks)."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    positive, _ = blocks_glued_at_cut_vertices(rng)
    n = 1 + max(max(u, v) for u, v, _ in positive)
    exponents = draw(st.lists(st.floats(-3.0, 3.0), min_size=len(positive),
                              max_size=len(positive)))
    positive = [(u, v, 10.0 ** x) for (u, v, _), x in zip(positive, exponents)]
    any_pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    pair = st.one_of(st.sampled_from([e[:2] for e in positive]), any_pair)
    pairs = [draw(pair) for _ in range(draw(st.integers(1, 4)))]
    return sl.build_graph(n, positive), pairs


@settings(derandomize=True, max_examples=300, deadline=None)
@given(glued_blocks_with_pairs())
def test_block_route_matches_dense_pseudo_inverse(case):
    g_plus, pairs = case
    matrix, diag = sl.resistance_matrix_for_negatives(g_plus, pairs)
    matrix = matrix.toarray()
    n, m = g_plus.node_count, len(pairs)
    E = np.zeros((n, m))
    for k, (u, v) in enumerate(pairs):
        E[min(u, v), k], E[max(u, v), k] = -1.0, 1.0
    oracle = E.T @ np.linalg.pinv(dense_laplacian(n, g_plus.edges)) @ E
    assert np.max(np.abs(matrix - oracle)) <= 1e-9 * np.max(np.abs(oracle))
    assert np.array_equal(diag, np.diag(matrix))
    assert np.array_equal(matrix, matrix.T)
    g = sl.build_graph(n, list(g_plus.edges) + [(u, v, -1.0) for u, v in pairs])
    pair_block = edge_blocks(g)[g_plus.edge_count:]
    across = pair_block[:, None] != pair_block[None, :]
    assert np.all(matrix[across] == 0.0)
