"""Readers of the arguments of siglap's public functions, but for the graph
reader, ``graph_core._checked_graph``; :func:`_real` is the one rule for a
real number."""

from __future__ import annotations

import math
import os
from collections.abc import Iterator

import numpy as np

from .errors import InvalidParameterError, InvalidToleranceError, NodesDisconnectedError

# The most nodes a graph may have: numpy must be able to address one double
# per node (beyond that it raises ValueError, not MemoryError).
MAX_NODE_COUNT = int(np.iinfo(np.intp).max) // 8

# Values that ``float`` reads but that are not real numbers: text, bools and
# numpy complex values (``float`` drops their imaginary part with a warning).
_NOT_REAL = (str, bytes, bytearray, bool, np.bool_, complex, np.complexfloating)
# Python and numpy ints and floats: a set lookup spares them the _NOT_REAL test.
_PLAIN_REALS = frozenset({int, float, *(np.dtype(code).type for code in
                                        np.typecodes["AllInteger"] + np.typecodes["Float"])})


def _real(x) -> float | None:
    """``x`` read by ``float`` when it is a real number, else None: text, a
    bool, a complex number or a value that ``float`` cannot read is not one.
    A real too large for a double (``10**400``) reads as the infinity of its
    sign, which orders the same against every double."""
    if type(x) not in _PLAIN_REALS and isinstance(x, _NOT_REAL):
        return None
    try:
        return float(x)
    except OverflowError:
        return math.inf if x > 0 else -math.inf
    except (TypeError, ValueError):
        return None


def _real_array(values) -> np.ndarray | None:
    """``values`` as a float array, or None when they are ragged or hold an
    entry that is not a real number (:func:`_real`).  A numeric array is
    judged by its dtype, anything else entry by entry, since numpy reads
    ``[True, 0.5]`` as floats and ``[10**400]`` as objects."""
    try:
        given = np.asarray(values)
        if given.dtype.kind not in "iufO":
            return None
        if given.dtype.kind == "O" or not isinstance(values, np.ndarray):
            entries = list(map(_real, np.asarray(values, dtype=object).ravel().tolist()))
            if None in entries:
                return None
            return np.array(entries, dtype=float).reshape(given.shape)
        return given.astype(float, copy=False)
    except (TypeError, ValueError):
        return None


def _check_tolerance(tol, what: str = "zero tolerance") -> float:
    """``tol`` as a float, once checked to be a real number >= 0; one that is
    not, or None, which callers with a default read first, raises
    :class:`InvalidToleranceError`."""
    value = _real(tol)
    if value is None:
        raise InvalidToleranceError(f"{what} must be a real number, got {tol!r}")
    if not value >= 0.0:
        raise InvalidToleranceError(f"{what} must be >= 0, got {tol!r}")
    return value


def _is_integer(x) -> bool:
    """Whether ``x`` is a Python or numpy integer, not a bool: a node id, a
    node count or an output stride.  An exact type test, as the pair check
    makes two per pair: ``isinstance(x, numbers.Integral)`` took about 15
    times as long on an int (0.9 against 0.06 us, 2-core Xeon)."""
    return type(x) is int or isinstance(x, np.integer)


def _checked_node_count(node_count, least: int = 1, what: str = "node_count") -> int:
    """``node_count`` as an int, once checked to be an integer (a bool is not
    one) from ``least`` to ``MAX_NODE_COUNT``; ``what`` names it in the
    error."""
    if not _is_integer(node_count):
        raise InvalidParameterError(f"{what} must be an integer, got {node_count!r}")
    if node_count < least:
        raise InvalidParameterError(f"{what} must be >= {least}, got {node_count}")
    if node_count > MAX_NODE_COUNT:
        raise InvalidParameterError(f"{what} must be <= {MAX_NODE_COUNT}, got {node_count}")
    return int(node_count)


def _iterator(items, message: str) -> Iterator:
    """An iterator over ``items``; ``items`` that are not iterable raise
    :class:`InvalidParameterError` with ``message`` and the value."""
    try:
        return iter(items)
    except TypeError:
        raise InvalidParameterError(f"{message}, got {items!r}") from None


def _node_pairs(node_count: int, pairs, labels: np.ndarray | None = None) -> np.ndarray:
    """``pairs`` (an iterable or an array) as one ``(m, 2)`` intp array, each
    checked in order to be two node ids (:func:`_is_integer`) of distinct
    nodes, and of one component when ``labels`` gives a component per node.
    The first bad pair raises :class:`InvalidParameterError`, or
    :class:`NodesDisconnectedError` when its only fault is the components;
    ``pairs`` that are not iterable raise :class:`InvalidParameterError`.

    An ``(m, 2)`` integer array, as the verdict passes its negative edges,
    is checked in one numpy pass; only when some pair fails is it walked in
    order, like any other ``pairs``, to raise the first failure."""
    n = node_count
    if isinstance(pairs, np.ndarray):
        if pairs.dtype.kind in "iu" and pairs.ndim == 2 and pairs.shape[1] == 2:
            u, v = pairs.T
            good = (u >= 0) & (u < n) & (v >= 0) & (v < n) & (u != v)
            if labels is not None:
                good[good] = labels[u[good]] == labels[v[good]]
            if np.logical_and.reduce(good):
                return pairs.astype(np.intp)
        pairs = pairs.tolist()
    ends = []
    for pair in _iterator(pairs, "node pairs must be an iterable of (u, v) pairs"):
        try:
            u, v = pair
        except (TypeError, ValueError):
            raise InvalidParameterError(f"a node pair must be two node ids, got {pair!r}") from None
        if not (_is_integer(u) and _is_integer(v)):
            raise InvalidParameterError(f"node ids must be integers, got ({u!r}, {v!r})")
        if not (0 <= u < n and 0 <= v < n):
            raise InvalidParameterError(f"node out of range: ({u}, {v}) on {n} nodes")
        if u == v:
            raise InvalidParameterError(
                f"effective resistance needs two distinct nodes, got {u} twice")
        if labels is not None and labels[u] != labels[v]:
            raise NodesDisconnectedError(f"nodes {u} and {v} are in different components")
        ends.append((u, v))
    return np.array(ends, dtype=np.intp).reshape(-1, 2)


def _checked_path(path):
    """``path`` if it is a ``str`` or an ``os.PathLike``.  ``open`` would take
    an int (or a bool) as a file descriptor and close it when done."""
    if not isinstance(path, (str, os.PathLike)):
        raise InvalidParameterError(
            f"a graph file path must be a str or os.PathLike, got {type(path).__name__}")
    return path
