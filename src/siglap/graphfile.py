"""Plain-text graph files.

Format: the first non-comment line is ``nodes N``; every following line is
``u v w``, two 0-based node indices that ``int`` reads (not ``2.0``) and a
decimal weight.  ``#`` starts a comment.  Edge order in the file defines
the edge indices.  :class:`siglap.graph_core.SignedGraph` checks the graph;
its errors come as a :class:`GraphParseError` naming the edge's line.  A
file is read as UTF-8, less a leading byte-order mark, and a byte that is
not UTF-8 also raises :class:`GraphParseError`, naming the line that holds
the first one.
"""

from __future__ import annotations

import codecs
import warnings
from collections.abc import Iterable, Iterator

import numpy as np

from ._inputs import _checked_node_count, _checked_path
from .errors import GraphConstructionError, GraphParseError, InvalidParameterError
from .graph_core import SignedGraph, _checked_graph, build_graph

_EDGE_COLUMNS = np.dtype([("u", np.int64), ("v", np.int64), ("w", np.float64)])


def _content_lines(raw_lines: Iterable[str], start: int = 1) -> Iterator[tuple[int, str]]:
    """``(line number, text)`` of each line that is not blank once its ``#``
    comment and surrounding whitespace are stripped; the first line is
    numbered ``start``."""
    for lineno, raw in enumerate(raw_lines, start=start):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _node_count(lineno: int, line: str) -> int:
    """The node count of a ``nodes N`` header line."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != "nodes":
        raise GraphParseError(lineno, f"expected 'nodes N' header, got {line!r}")
    try:
        node_count = int(parts[1])
    except ValueError:
        raise GraphParseError(lineno, f"node count is not an integer: {parts[1]!r}") from None
    try:
        return _checked_node_count(node_count, what="node count")
    except InvalidParameterError as exc:
        raise GraphParseError(lineno, str(exc)) from None


def _parse_edge_lines(node_count: int, body: list[str], start: int) -> SignedGraph:
    """The edge lines ``body``, the first of them numbered ``start``, read one
    by one with ``int`` and ``float``; errors name the offending line."""
    edges: list[tuple[int, int, float]] = []
    edge_lines: list[int] = []
    for lineno, line in _content_lines(body, start):
        parts = line.split()
        if len(parts) != 3:
            raise GraphParseError(lineno, f"expected 'u v w' edge line, got {line!r}")
        try:
            u, v, w = int(parts[0]), int(parts[1]), float(parts[2])
        except ValueError:
            raise GraphParseError(lineno, f"malformed edge line: {line!r}") from None
        edges.append((u, v, w))
        edge_lines.append(lineno)
    try:
        return build_graph(node_count, edges)
    except GraphConstructionError as exc:
        raise GraphParseError(edge_lines[exc.edge_index], str(exc)) from exc


def parse_graph(text: str) -> SignedGraph:
    """Parse graph text; errors carry the offending 1-based line number.

    The edge lines are read in one C pass by ``np.loadtxt`` straight into
    the graph's columns.  Wherever that reader refuses a line (a token that
    ``int`` or ``float`` reads but it does not, such as ``1_0`` or Unicode
    digits, an int beyond int64, a wrong column count) or the constructor
    refuses the graph, the lines are read again one by one into
    :func:`build_graph`, which gives the same graph or the error with its
    line number.  The lines are split by ``str.splitlines`` for both
    readers, so they agree on every line break.

    Raises:
        InvalidParameterError: ``text`` is not a ``str`` (bytes are not).
        GraphParseError: the text is not a graph file of a valid graph.
    """
    if not isinstance(text, str):
        raise InvalidParameterError(f"graph text must be a str, got {type(text).__name__}")
    raw_lines = text.splitlines()
    header = next(_content_lines(raw_lines), None)
    if header is None:
        raise GraphParseError(len(raw_lines) or 1, "missing 'nodes N' header")
    lineno, line = header
    node_count = _node_count(lineno, line)
    body = raw_lines[lineno:]
    try:
        # Any warning (an empty body, a deprecated conversion) also sends the
        # text to the line-by-line reader.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            columns = np.loadtxt(body, dtype=_EDGE_COLUMNS, comments="#", ndmin=1)
        u, v = columns["u"], columns["v"]
        return SignedGraph(node_count, np.minimum(u, v), np.maximum(u, v), columns["w"])
    except (ValueError, Warning):  # GraphConstructionError is a ValueError
        return _parse_edge_lines(node_count, body, lineno + 1)


def format_graph(g: SignedGraph) -> str:
    """Canonical writer; weights round-trip at 17 significant digits."""
    lines = [f"nodes {_checked_graph(g).node_count}"]
    for u, v, w in g.edges:
        lines.append(f"{u} {v} {w:.17g}")
    return "\n".join(lines) + "\n"


def _read_text(path, error) -> str:
    """The file at ``path`` decoded as UTF-8, less a leading byte-order mark
    (as ``utf-8-sig`` decodes).  A byte sequence that is not UTF-8 raises
    ``error(line, message)``, ``line`` being the 1-based number, by
    ``str.splitlines``, of the line that holds the first one."""
    with open(path, "rb") as fh:
        # The mark is cut off before decoding, so that the offset of a bad
        # byte and the line counted from it are those of the text.
        data = fh.read().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # The bytes before the first bad one decode; a character after them
        # makes splitlines count the line that holds it.
        line = len((data[:exc.start].decode("utf-8") + ".").splitlines())
        raise error(line, f"not UTF-8 text: byte {data[exc.start]:#04x} "
                          f"({exc.reason})") from None


def read_graph_file(path) -> SignedGraph:
    """The graph in the file at ``path``.

    Raises:
        InvalidParameterError: ``path`` is not a ``str`` or ``os.PathLike``
            (bytes and file descriptors are not).
        GraphParseError: the file is not a graph file of a valid graph.
        OSError: the file cannot be read.
    """
    return parse_graph(_read_text(_checked_path(path), GraphParseError))


def write_graph_file(g: SignedGraph, path) -> None:
    """Write ``g`` in the canonical format to the file at ``path``.

    Raises:
        InvalidParameterError: ``path`` is not a ``str`` or ``os.PathLike``
            (bytes and file descriptors are not).
        OSError: the file cannot be written.
    """
    text = format_graph(g)  # before the file is opened, which empties it
    with open(_checked_path(path), "w", encoding="utf-8") as fh:
        fh.write(text)
