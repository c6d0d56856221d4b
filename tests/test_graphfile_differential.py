"""Differential test of the graph-file reader: ``parse_graph``, which reads
the edge lines with ``np.loadtxt`` and falls back to a per-line loop, against
the per-line reader alone, kept here as the oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import siglap as sl
from siglap import graphfile
from siglap.errors import GraphConstructionError, GraphParseError


def per_line_reader(text: str) -> sl.SignedGraph:
    """Every content line split and read with ``int`` and ``float``."""
    node_count = None
    edges, edge_lines = [], []
    raw_lines = text.splitlines()
    for lineno, raw in enumerate(raw_lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if node_count is None:
            if len(parts) != 2 or parts[0] != "nodes":
                raise GraphParseError(lineno, f"expected 'nodes N' header, got {line!r}")
            try:
                node_count = int(parts[1])
            except ValueError:
                raise GraphParseError(lineno, f"node count is not an integer: {parts[1]!r}") from None
            if node_count < 1:
                raise GraphParseError(lineno, f"node count must be >= 1, got {node_count}")
            continue
        if len(parts) != 3:
            raise GraphParseError(lineno, f"expected 'u v w' edge line, got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise GraphParseError(lineno, f"malformed edge line: {line!r}") from None
        edges.append((u, v, w))
        edge_lines.append(lineno)
    if node_count is None:
        raise GraphParseError(len(raw_lines) or 1, "missing 'nodes N' header")
    try:
        return sl.build_graph(node_count, edges)
    except GraphConstructionError as exc:
        raise GraphParseError(edge_lines[exc.edge_index], str(exc)) from exc


def outcome(read, text):
    """The graph's columns, bit for bit, or the error's type and message."""
    try:
        g = read(text)
    except GraphParseError as exc:
        return ("error", type(exc), exc.line, str(exc))
    return ("graph", g.node_count, g.tails.tolist(), g.heads.tolist(),
            g.weights.tobytes())


NODES = 6
odd_node = st.sampled_from([
    "+1", "-0", "00", "1_0", "0_1", "٣", "１", "6", "-1", "9223372036854775807",
    "9223372036854775808", "-9223372036854775809", "99999999999999999999999", "1.0",
    "1e0", "x", "0x1"])
plain_weight = st.floats(-1e3, 1e3, allow_nan=False).filter(lambda w: abs(w) > 1e-300).flatmap(
    lambda w: st.sampled_from([repr(w), f"{w:.17g}", f"{w:g}", f"{w:e}", f"+{abs(w)!r}"]))
odd_weight = st.sampled_from([
    "+.5", "5.", "1_0.5", "1.0_0", "١.5", "nan", "-nan", "inf", "-inf", "Infinity", "1e400",
    "-1e400", "1e-400", "1e-320", "0", "-0.0", "3e307", "0x1p3", "1,5", "1d5", "e5", "1e"])
separator = st.sampled_from([" ", "  ", "\t", " \t ", "\x1f", "\xa0", "\u3000"])
line_break = st.sampled_from(["\n", "\r\n", "\r", "\x0c", "\x0b", "\x1c", "\x85", "\u2028"])
comment = st.sampled_from(["", "", " # note", "#", "  #x y z", "\t# 1 2 3"])


@st.composite
def edge_lines(draw, odd: bool):
    """One body line: an edge, or with ``odd`` also a line of the wrong
    width, odd tokens, a blank or a comment line."""
    kinds = ["edge"] * 8 + (["short", "long", "blank", "comment"] if odd else [])
    kind = draw(st.sampled_from(kinds))
    if kind == "blank":
        return draw(st.sampled_from(["", "   ", "\t"]))
    if kind == "comment":
        return draw(st.sampled_from(["# c", "  # 0 1 1.0", "#"]))
    u = draw(st.integers(0, NODES - 1))
    v = (u + draw(st.integers(1, NODES - 1))) % NODES
    tokens = [str(u), str(v), draw(plain_weight)]
    if odd:
        k = draw(st.integers(0, 3))
        if k < 3:
            tokens[k] = draw(odd_weight if k == 2 else odd_node)
    if kind == "short":
        tokens = tokens[:draw(st.integers(1, 2))]
    elif kind == "long":
        tokens.append(draw(plain_weight))
    lead = draw(st.sampled_from(["", " ", "\t"]))
    return lead + draw(separator).join(tokens) + draw(comment)


@st.composite
def graph_texts(draw):
    """Graph files with plain or odd separators, line breaks and comments;
    half of them also hold odd tokens, lines of the wrong width, blank
    lines, bad headers, an empty body or only a header."""
    odd = draw(st.booleans())
    headers = [f"nodes {NODES}", f"nodes {NODES} # count", f"\tnodes\t{NODES}"]
    if odd:
        headers += [f"nodes +{NODES}", "nodes 0", "nodes x", "nodes", "# only a comment",
                    "", "0 1 1.0"]
    lines = draw(st.lists(st.sampled_from(["# preamble", ""]), max_size=2))
    lines.append(draw(st.sampled_from(headers)))
    lines += draw(st.lists(edge_lines(odd), max_size=12))
    breaks = [draw(st.one_of(st.just("\n"), line_break)) for _ in lines]
    text = "".join(line + br for line, br in zip(lines, breaks))
    if draw(st.booleans()):  # no line break after the last line
        text = text[:-len(breaks[-1])]
    return text


@settings(derandomize=True, max_examples=500, deadline=None)
@given(graph_texts())
def test_parse_graph_agrees_with_the_per_line_reader(text):
    assert outcome(sl.parse_graph, text) == outcome(per_line_reader, text)


def test_plain_files_skip_the_per_line_loop(monkeypatch):
    """The one-pass reader takes a plain file itself; a spelling that only
    ``float`` reads sends it to the per-line loop."""
    calls = []
    real = graphfile._parse_edge_lines
    monkeypatch.setattr(graphfile, "_parse_edge_lines",
                        lambda *args: calls.append(args) or real(*args))
    text = "# c\r\nnodes 3\r\n0\t1 1.0  # x\r\n\r\n1 2 2.5\r\n0 2 -0.25\r\n"
    g = sl.parse_graph(text)
    assert not calls
    assert sl.parse_graph(text.replace("2.5", "2.5_0")) == g
    assert len(calls) == 1
    assert sl.parse_graph("nodes 2\n") == sl.build_graph(2, [])
    assert np.array_equal(g.weights, [1.0, 2.5, -0.25])
