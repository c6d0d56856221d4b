"""Component labels, biconnected blocks and path-edge sets against networkx.

Parallel edges are kept apart by subdividing every edge k with its own node
``("e", k)``: subdivision leaves connectivity and the biconnected blocks
unchanged, and turns each parallel pair into an ordinary 4-cycle.
"""

from unittest import mock

import networkx as nx
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

import siglap as sl
from conftest import positive_weight, random_connected_positive, relabelled
from paper_constructions import component_edge_masks, edge_blocks, symmetric_adjacency
from siglap import graph_core


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
        labels = sl.component_labels(g.subgraph([k for k in range(g.edge_count) if k not in skip]))
        assert labels.tolist() == nx_component_labels(g, skip)
        # canonical order: each new id first appears after every lower id
        _, first = np.unique(labels, return_index=True)
        assert np.all(np.diff(first) > 0)


def test_component_labels_with_isolated_nodes_and_parallel_edges():
    g = sl.build_graph(7, [(5, 6, 1.0), (2, 4, 1.0), (2, 4, -2.0), (4, 1, 1.0)])
    assert sl.component_labels(g).tolist() == [0, 1, 1, 2, 1, 3, 3]
    assert sl.component_labels(g.subgraph([0, 2, 3])).tolist() == [0, 1, 1, 2, 1, 3, 3]
    assert sl.component_labels(g.subgraph([0, 3])).tolist() == [0, 1, 2, 3, 1, 4, 4]
    assert sl.component_labels(g.subgraph([0, 3])).tolist() == nx_component_labels(g, {1, 2})


def multigraph_in_order(rng) -> sl.SignedGraph:
    """1..14 nodes, each after the first joined to a random lower node
    unless it starts a new component, plus random chords, some of them
    parallel: connected graphs numbered in order, isolated nodes, n = 1, no
    edges and several components all come up."""
    n = int(rng.integers(1, 15))
    fresh = float(rng.choice([0.0, 0.0, 0.2, 0.6, 1.0]))  # chance to start a component
    edges = [(int(rng.integers(0, x)), x, 1.0) for x in range(1, n) if rng.random() >= fresh]
    for _ in range(int(rng.integers(0, n)) if n > 1 else 0):
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        edges.append((u, v, -0.5))
    edges += [edges[int(k)] for k in rng.integers(0, len(edges), size=2)] if edges else []
    return sl.build_graph(n, [edges[int(k)] for k in rng.permutation(len(edges))])


def test_components_equal_csgraph_labelling_on_either_path():
    # _components answers one component from the lower-neighbour certificate
    # when it holds and asks csgraph otherwise: count, partition and the
    # canonical labels must be csgraph's on both paths
    rng = np.random.default_rng(47)
    certified = searched = 0
    for _ in range(300):
        g = multigraph_in_order(rng)
        for graph in (g, relabelled(g, rng.permutation(g.node_count))):
            args = (graph.node_count, graph.tails, graph.heads)
            adjacency = coo_matrix((np.ones(graph.edge_count), (graph.tails, graph.heads)),
                                   shape=(graph.node_count, graph.node_count))
            count, labels = connected_components(adjacency, directed=False)
            if graph_core._without_lower_neighbour(*args)[1:].any():
                searched += 1
            else:
                certified += 1
            got_count, got_labels = graph_core._components(*args)
            assert got_count == count
            assert ({frozenset(np.flatnonzero(got_labels == c).tolist())
                     for c in range(got_count)}
                    == {frozenset(np.flatnonzero(labels == c).tolist()) for c in range(count)})
            first_seen = list(dict.fromkeys(labels.tolist()))
            assert sl.component_labels(graph).tolist() == [first_seen.index(c)
                                                          for c in labels.tolist()]
    assert certified > 200 and searched > 200, (certified, searched)


def test_path_edge_sets_match_networkx_biconnected_components():
    rng = np.random.default_rng(43)
    for _ in range(40):
        g = random_connected_positive(rng, 3, 20)
        pairs = [tuple(int(x) for x in rng.choice(g.node_count, size=2, replace=False))
                 for _ in range(3)]
        computed = sl.path_edge_sets(g, pairs)
        assert computed == [nx_path_edges(g, u, v) for u, v in pairs]
    # a disconnected G+: two random connected graphs side by side, each pair
    # inside one of them, and a pair across them
    rng = np.random.default_rng(44)
    for _ in range(40):
        first, second = (random_connected_positive(rng, 3, 20) for _ in range(2))
        n = first.node_count
        g = sl.build_graph(n + second.node_count, list(first.edges) + [
            (u + n, v + n, w) for u, v, w in second.edges])
        pairs = [tuple(int(x) + offset for x in rng.choice(part.node_count, size=2,
                                                           replace=False))
                 for offset, part in ((0, first), (n, second), (n, second), (0, first))]
        computed = sl.path_edge_sets(g, pairs)
        assert computed == [nx_path_edges(g, u, v) for u, v in pairs]
        u, v = int(rng.integers(0, n)), int(rng.integers(n, g.node_count))
        with pytest.raises(sl.NodesDisconnectedError, match=f"^nodes {u} and {v} are in "
                                                            "different components$"):
            sl.path_edge_sets(g, pairs + [(u, v)])


@st.composite
def multigraphs(draw):
    """1..14 nodes and up to 24 edges between distinct nodes, drawn with
    repeats: parallel edges, isolated nodes and several components all come
    up.  Weight signs are mixed; blocks ignore them."""
    n = draw(st.integers(1, 14))
    if n == 1:
        return sl.build_graph(1, [])
    pair = st.tuples(st.integers(0, n - 1), st.integers(1, n - 1)).map(
        lambda p: (p[0], (p[0] + p[1]) % n))
    pairs = draw(st.lists(pair, max_size=24))
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=4))  # parallel edges
    signs = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return sl.build_graph(n, [(u, v, 1.0 if s else -0.5) for (u, v), s in zip(pairs, signs)])


def edge_partition(labels) -> set[frozenset[int]]:
    groups: dict[int, set[int]] = {}
    for k, b in enumerate(labels):
        groups.setdefault(b, set()).add(k)
    return {frozenset(x) for x in groups.values()}


def nx_edge_partition(g: sl.SignedGraph) -> set[frozenset[int]]:
    """Blocks of the subdivided graph, each edge k read off its half
    ``(u, ("e", k))``: a bridge's two halves are separate blocks, and any
    other edge's halves share the block of its cycles."""
    G = subdivided(g)
    block_of = {}
    for b, block_edges in enumerate(nx.biconnected_component_edges(G)):
        for x, y in block_edges:
            for half, end in ((x, y), (y, x)):
                if isinstance(half, tuple) and end == g.edges[half[1]][0]:
                    block_of[half[1]] = b
    return edge_partition([block_of[k] for k in range(g.edge_count)])


@settings(derandomize=True, max_examples=300, deadline=None)
@given(multigraphs())
def test_edge_blocks_match_networkx_biconnected_component_edges(g):
    blocks = edge_blocks(g)
    assert edge_partition(blocks.tolist()) == nx_edge_partition(g)
    # block ids appear in order of each block's lowest edge index
    _, first = np.unique(blocks, return_index=True)
    assert np.all(np.diff(first) > 0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(multigraphs())
def test_every_non_tree_edge_of_the_dfs_joins_an_ancestor_and_a_descendant(g):
    for inside in component_edge_masks(g):
        part = g.subgraph(inside)
        order, parent = graph_core._dfs_tree(part.node_count, part.tails, part.heads)
        has_edge = np.zeros(part.node_count, dtype=bool)
        has_edge[part.tails] = has_edge[part.heads] = True
        assert sorted(order.tolist()) == np.flatnonzero(has_edge).tolist()
        preorder = {x: p for p, x in enumerate(order.tolist())}

        def ancestors(x: int) -> set[int]:
            seen = set()
            while parent[x] >= 0:
                assert preorder[int(parent[x])] < preorder[x]
                x = int(parent[x])
                seen.add(x)
            return seen

        for u, v, _ in part.edges:
            assert u in ancestors(v) or v in ancestors(u)


def test_block_search_rejects_a_graph_one_search_cannot_reach():
    # the search makes one pass; a node with an edge that it misses is an
    # error, not a component to join by a second search
    g = sl.build_graph(6, [(0, 1, 1.0), (1, 2, 1.0), (0, 2, 1.0),
                           (3, 4, 1.0), (4, 5, 1.0), (3, 5, 1.0)])
    with pytest.raises(sl.CrossCheckError):
        graph_core._dfs_tree(g.node_count, g.tails, g.heads)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(multigraphs())
def test_search_adjacency_keeps_the_neighbour_order_of_the_coo_oracle(g):
    # the CSR filled from the columns keeps parallel edges as repeated
    # entries; the search, its preorder and parents, and the block keys must
    # be those of the COO-built adjacency, which sums them into one entry
    args = (g.node_count, g.tails, g.heads)
    adjacency, oracle = graph_core._symmetric_adjacency(*args), symmetric_adjacency(*args)
    assert np.array_equal(adjacency.toarray(), oracle.toarray())
    assert all(np.all(np.diff(adjacency.indices[a:b]) >= 0)
               for a, b in zip(adjacency.indptr[:-1], adjacency.indptr[1:]))
    for inside in component_edge_masks(g):
        part = (g.node_count, g.tails[inside], g.heads[inside])
        order, parent = graph_core._dfs_tree(*part)
        blocks = graph_core._edge_blocks(*part)
        with mock.patch.object(graph_core, "_symmetric_adjacency", symmetric_adjacency):
            oracle_order, oracle_parent = graph_core._dfs_tree(*part)
            oracle_blocks = graph_core._edge_blocks(*part)
        assert np.array_equal(order, oracle_order)
        assert np.array_equal(parent, oracle_parent)
        assert all(map(np.array_equal, blocks, oracle_blocks))


def first_seen_reference(raw: list[int]) -> list[int]:
    """Each id numbered in order of its first occurrence, by a dict."""
    numbers: dict[int, int] = {}
    return [numbers.setdefault(x, len(numbers)) for x in raw]


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.integers(-3, 3), max_size=60)
       | st.lists(st.integers(-2**31, 2**31 - 1), unique=True, max_size=60))
@example([])
@example([7])
@example(list(range(40, 0, -1)))
def test_first_seen_ids_match_a_dict_numbering(raw):
    # int32 as csgraph labels components, intp as the cluster roots are
    for dtype in (np.int32, np.intp):
        ids = graph_core._first_seen_ids(np.array(raw, dtype=dtype))
        assert ids.dtype == np.intp and ids.tolist() == first_seen_reference(raw)
