"""Grounded-solve resistances against independent implementations.

``networkx.resistance_distance`` is the differential oracle; it takes edge
weights as conductances with ``invert_weight=False`` and, being a simple
graph, needs parallel edges merged by summing their conductances.
"""

import networkx as nx
import numpy as np
import pytest

import siglap as sl
import siglap.resistance as resistance_module
from conftest import (
    caterpillar_tree,
    caterpillar_with_chord,
    dense_laplacian,
    random_boundary_cycle_graph,
    random_connected_positive,
    random_signed,
)


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
        assert np.allclose(matrix, oracle, rtol=1e-9, atol=1e-9)


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
            assert np.allclose(matrix, base_matrix / c, rtol=1e-10, atol=1e-12 / c)
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
