"""Component labels and path-edge sets against networkx.

Parallel edges are kept apart by subdividing every edge k with its own node
``("e", k)``: subdivision leaves connectivity and the biconnected blocks
unchanged, and turns each parallel pair into an ordinary 4-cycle.
"""

import networkx as nx
import numpy as np

import siglap as sl
from conftest import positive_weight, random_connected_positive


def subdivided(g: sl.SignedGraph, skip_edges=()) -> nx.Graph:
    G = nx.Graph()
    G.add_nodes_from(range(g.node_count))
    for k, (u, v, _) in enumerate(g.edges):
        if k not in skip_edges:
            G.add_edges_from([(u, ("e", k)), (("e", k), v)])
    return G


def nx_component_labels(g: sl.SignedGraph, skip_edges=()) -> list[int]:
    comps = [sorted(x for x in c if isinstance(x, int))
             for c in nx.connected_components(subdivided(g, skip_edges))]
    comps = sorted((c for c in comps if c), key=lambda c: c[0])
    labels = [-1] * g.node_count
    for cid, comp in enumerate(comps):
        for node in comp:
            labels[node] = cid
    return labels


def nx_path_edges(g: sl.SignedGraph, u: int, v: int) -> frozenset[int]:
    """Edge k lies on a simple u-v path exactly when it shares a simple cycle
    with an added u-v edge, i.e. when both sit in one biconnected block."""
    G = subdivided(g)
    G.add_edges_from([(u, "query"), ("query", v)])
    (block,) = [b for b in nx.biconnected_components(G) if "query" in b]
    return frozenset(x[1] for x in block if isinstance(x, tuple))


def test_component_labels_match_networkx():
    rng = np.random.default_rng(41)
    for _ in range(80):
        n = int(rng.integers(1, 15))
        edges = []
        for _ in range(int(rng.integers(0, 2 * n))):
            if n < 2:
                break
            u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
            edges.append((u, v, positive_weight(rng)))
            if rng.random() < 0.2:
                edges.append((u, v, -positive_weight(rng)))  # parallel edge
        g = sl.build_graph(n, edges)
        skip = {k for k in range(g.edge_count) if rng.random() < 0.3}
        labels = sl.component_labels(g, skip_edges=skip)
        assert labels.tolist() == nx_component_labels(g, skip)
        # canonical order: each new id first appears after every lower id
        _, first = np.unique(labels, return_index=True)
        assert np.all(np.diff(first) > 0)


def test_component_labels_with_isolated_nodes_and_parallel_edges():
    g = sl.build_graph(7, [(5, 6, 1.0), (2, 4, 1.0), (2, 4, -2.0), (4, 1, 1.0)])
    assert sl.component_labels(g).tolist() == [0, 1, 1, 2, 1, 3, 3]
    assert sl.component_labels(g, skip_edges={1}).tolist() == [0, 1, 1, 2, 1, 3, 3]
    assert sl.component_labels(g, skip_edges={1, 2}).tolist() == [0, 1, 2, 3, 1, 4, 4]
    assert sl.component_labels(g, skip_edges={1, 2}).tolist() == nx_component_labels(g, {1, 2})


def test_path_edge_sets_match_networkx_biconnected_components():
    rng = np.random.default_rng(43)
    for _ in range(40):
        g = random_connected_positive(rng, 3, 20)
        pairs = [tuple(int(x) for x in rng.choice(g.node_count, size=2, replace=False))
                 for _ in range(3)]
        computed = sl.path_edge_sets(g, pairs)
        assert computed == [nx_path_edges(g, u, v) for u, v in pairs]
