"""Plain-text graph files.

Format: the first non-comment line is ``nodes N``; every following line is
``u v w`` with 0-based node indices and a finite decimal weight of
magnitude at least 2**-1022 (see :func:`siglap.graph_core.build_graph`).
``#`` starts a comment.  Edge order in the file defines the edge indices.
"""

from __future__ import annotations

from .errors import GraphConstructionError, GraphParseError
from .graph_core import SignedGraph, build_graph


def parse_graph(text: str) -> SignedGraph:
    """Parse graph text; errors carry the offending 1-based line number."""
    node_count = None
    edges: list[tuple[int, int, float]] = []
    edge_lines: list[int] = []
    last_line = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        last_line = lineno
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
        raise GraphParseError(last_line or 1, "missing 'nodes N' header")
    try:
        return build_graph(node_count, edges)
    except GraphConstructionError as exc:
        raise GraphParseError(edge_lines[exc.edge_index], str(exc)) from exc


def format_graph(g: SignedGraph) -> str:
    """Canonical writer; weights round-trip at 17 significant digits."""
    lines = [f"nodes {g.node_count}"]
    for u, v, w in g.edges:
        lines.append(f"{u} {v} {w:.17g}")
    return "\n".join(lines) + "\n"


def read_graph_file(path) -> SignedGraph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def write_graph_file(g: SignedGraph, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(format_graph(g))
