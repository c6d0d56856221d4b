"""The graph invariant: one checking constructor, which ``build_graph`` and
the graph-file reader call, and derived graphs that inherit the invariant
without paying the check again."""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import siglap as sl
from conftest import (
    cycle_chain_at_threshold,
    grid_edges,
    hub_tree,
    random_boundary_cycle_graph,
    random_connected_positive,
    random_signed,
    relabelled,
    triangle_chain_with_chords,
)
from siglap import graph_core
from siglap.cli import main
from siglap.graphfile import format_graph

BIG = 2.0 ** 1022
WEIGHTS = st.one_of(
    st.floats(0.1, 2.0), st.floats(-2.0, -0.1),
    st.sampled_from([0.0, -0.0, np.nan, np.inf, -np.inf, 1e-320, -5e-324, 2.0 ** -1022,
                     BIG, -BIG / 2, BIG / 3, -BIG / 7, 1e308]),
)


@st.composite
def triples(draw):
    """A node count and an edge list in which each graph fault comes up."""
    n = draw(st.integers(1, 6))
    ends = st.integers(-1, n)
    return n, draw(st.lists(st.tuples(ends, ends, WEIGHTS), max_size=8))


def _outcome(call):
    try:
        return call()
    except sl.InvalidParameterError as exc:
        return type(exc), str(exc), getattr(exc, "edge_index", None)


def test_build_graph_and_the_constructor_agree_on_every_edge_list():
    seen = set()

    @settings(derandomize=True, max_examples=600, deadline=None)
    @given(triples())
    def agree(case):
        n, edges = case
        built = _outcome(lambda: sl.build_graph(n, edges))
        direct = _outcome(lambda: sl.SignedGraph(
            n, [min(u, v) for u, v, _ in edges], [max(u, v) for u, v, _ in edges],
            [w for _, _, w in edges]))
        assert built == direct
        seen.add(built[0].__name__ if isinstance(built, tuple) else "valid")

    agree()
    assert seen == {"valid", "NodeOutOfRangeError", "SelfLoopError", "ZeroWeightError",
                    "NonFiniteWeightError", "GraphConstructionError"}


@pytest.fixture
def checks(monkeypatch):
    """A list that grows by one each time a graph is checked."""
    made = []
    check = graph_core._check_columns

    def counted(*columns):
        made.append(columns[0])
        return check(*columns)

    monkeypatch.setattr(graph_core, "_check_columns", counted)
    return made


TWO_TRIANGLES = [(0, 1, 1.0), (1, 2, 2.0), (0, 2, 1.0), (3, 4, 1.0), (4, 5, 1.0), (3, 5, 0.5)]


def test_a_query_checks_its_input_graph_once(checks, tmp_path, capsys):
    g = sl.build_graph(9, [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (0, 3, 1.0),
                           (3, 4, 1.0), (4, 5, 1.0), (5, 6, 1.0), (6, 7, 1.0),
                           (7, 8, 1.0), (0, 2, -0.3), (5, 8, -0.2)])
    assert sl.multi_edge_verdict(g).classification is sl.Classification.STRICT_INTERIOR
    assert len(checks) == 1
    path = tmp_path / "g.txt"
    path.write_text(format_graph(g))
    assert main(["check-psd", str(path)]) == 0 and "PSD" in capsys.readouterr().out
    assert len(checks) == 2
    two = sl.build_graph(6, TWO_TRIANGLES)
    assert sl.effective_resistance(two, 3, 5) == pytest.approx(1.0)
    assert sl.effective_resistance(two, 0, 1) == pytest.approx(0.6)
    with pytest.raises(sl.DisconnectedError):
        sl.multi_edge_verdict(sl.build_graph(6, TWO_TRIANGLES + [(0, 2, -0.1)]))
    assert len(checks) == 4


def _families(rng):
    """Graphs of the benchmark's families, small: a tree plus chords with
    negative edges, a grid, a cycle chain and a hub tree with a chord at its
    threshold; scrambled copies; and graphs with several components."""
    for _ in range(20):
        g = random_connected_positive(rng, 5, 30)
        chords = [(int(a), int(b), -0.2) for a, b in rng.integers(0, g.node_count, (3, 2))
                  if a != b]
        yield sl.build_graph(g.node_count, list(g.edges) + chords)
        yield random_boundary_cycle_graph(rng, 4, 30)
        yield random_signed(rng)
    yield sl.build_graph(36, grid_edges(rng, 6, 6) + [(0, 35, -0.1), (5, 30, -0.1)])
    yield cycle_chain_at_threshold([1.0, 2.0, 0.5, 1.0])
    yield triangle_chain_with_chords(rng, 6, [0.5] * 6)[0]
    tree = hub_tree(rng, 4, 6)
    yield sl.build_graph(tree.node_count, list(tree.edges) + [(5, 28, -0.3)])
    yield relabelled(cycle_chain_at_threshold([1.0, 2.0]), rng.permutation(29))
    yield relabelled(sl.build_graph(25, grid_edges(rng, 5, 5) + [(0, 24, -0.2)]),
                     rng.permutation(25))


def test_every_derived_graph_holds_the_invariant(monkeypatch):
    derived = []
    unchecked = sl.SignedGraph._derived.__func__

    def checked(cls, node_count, tails, heads, weights):
        g = unchecked(cls, node_count, tails, heads, weights)
        full = sl.SignedGraph(node_count, tails, heads, weights)  # raises on a fault
        assert full == g and full.tails.dtype == g.tails.dtype == np.intp
        assert g.weights.dtype == np.float64 and not g.weights.flags.writeable
        derived.append(sys._getframe(1).f_code.co_name)
        return g

    monkeypatch.setattr(sl.SignedGraph, "_derived", classmethod(checked))
    rng = np.random.default_rng(31)
    for g in _families(rng):
        for query in (sl.multi_edge_verdict, sl.corollary6_check, sl.negative_edge_report,
                      sl.predict_clusters):
            try:
                query(g)
            except (sl.HypothesisViolatedError, sl.DisconnectedError):
                pass
        g_plus = g.positive_subgraph()
        labels = sl.component_labels(g_plus)
        pairs = [(u, v) for u, v in rng.integers(0, g.node_count, (4, 2)).tolist()
                 if u != v and labels[u] == labels[v]]
        if pairs:
            sl.resistance._pair_resistances(g_plus, pairs)
    # positive subgraphs, split graphs and component parts all came up
    assert set(derived) == {"subgraph", "_split_blocks", "_pair_resistances"}

