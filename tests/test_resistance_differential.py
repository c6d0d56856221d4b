"""Grounded-solve resistances against independent implementations.

``networkx.resistance_distance`` is the differential oracle; it takes edge
weights as conductances with ``invert_weight=False`` and, being a simple
graph, needs parallel edges merged by summing their conductances.  A dense
pseudo-inverse is the oracle for the whole resistance matrix.
"""

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
    dense_laplacian,
    random_boundary_cycle_graph,
    random_connected_positive,
    random_signed,
)
from siglap.graph_core import edge_blocks


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


def test_perturbed_grounded_solve_raises_cross_check(monkeypatch):
    real_splu = resistance_module.splu

    class Perturbed:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            return self.lu.solve(b) * (1.0 + 1e-3)

    monkeypatch.setattr(resistance_module, "splu",
                        lambda *args, **kwargs: Perturbed(real_splu(*args, **kwargs)))
    g = caterpillar_tree()
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
