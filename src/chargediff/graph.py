"""Immutable graphs of flat per-node rows, loaded from edge-list text.

The edge-list format is one edge per line, ``u v`` or ``u v w``, with
whitespace separation. Lines starting with ``#`` are comments. Node ids are
non-negative integers; weights are positive decimals (unweighted edges store
weight 1.0). Undirected input materializes both arc directions; a self-loop
is stored once and contributes 1 to the node's degree.

Large clean texts are parsed in bulk with numpy, which is imported for them
only; small texts, and every text the bulk parse does not accept, go through
a line loop that reports the offending line. Both build equal graphs. The
bulk parse's graphs hold its flat arrays (``Graph.csr``), over which queries
play their rounds in numpy and which :meth:`Graph.row` slices; they build
their per-node rows from them only when compared, hashed, printed or
serialized.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Sequence

if TYPE_CHECKING:
    from .csr import Csr


class EdgeListError(ValueError):
    """Malformed edge-list input: bad line, duplicate edge, bad weight."""


@dataclass(frozen=True)
class Graph:
    """Graph of flat per-node rows, immutable after construction.

    ``targets[i]`` is the tuple of node ``i``'s out-neighbor ids, ascending,
    and ``weights[i][k]`` the weight of its arc to ``targets[i][k]``, as
    given. These four fields are the graph: equality, hashing and ``repr``
    read them alone. ``degrees[i]`` is ``len(targets[i])``, and
    ``max_degree`` the largest of them (0 without nodes), set once so that
    a config check reads it in O(1).

    :meth:`row` is the one reader of a node's arcs outside this module: it
    returns the node's targets and ratios, where the ratio of an arc is its
    share of the node's total out-weight (see :func:`_ratio_row`). The
    constructor derives the ratio rows from ``weights`` once, into a private
    field.

    ``csr`` holds the same rows as flat numpy arrays
    (:class:`chargediff.csr.Csr`) when the bulk parse built the graph, and
    is None otherwise. Such a graph comes from :meth:`of_arrays`. It holds
    ``node_count``, ``directed``, ``degrees`` and its arrays, and, when
    weighted, its weight rows; each ratio is stored once, in ``csr``.
    :meth:`row` slices the arrays. ``targets`` and ``weights`` are built
    from them on first read, once, and kept: the line loop's rows, bit for
    bit, with one shared weight tuple per degree for unweighted text. Only
    ``==``, ``hash``, ``repr`` and :func:`serialize_edge_list` read them.
    :func:`chargediff.diffusion.step` plays the rounds of a graph with
    ``csr`` in numpy, with the dict round's bits, and reads no row:
    receipts fold with ``np.add.at`` in ascending sender order, and the
    excess sums with ``np.cumsum`` (``step`` gives the cost of either
    round). The simulator and personalized pagerank read the rows they
    reach through :meth:`row`, and ``edge_count`` counts self-loops from
    ``csr``, so no subcommand builds the rows of a large file. A graph
    without ``csr``, such as a small file parsed line by line, keeps the
    dict round and never loads numpy, whose import cost ``_BULK_MIN_LINES``
    weighs.
    """

    node_count: int
    directed: bool
    targets: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[float, ...], ...]
    degrees: tuple[int, ...] = field(init=False, compare=False, repr=False)
    max_degree: int = field(init=False, compare=False, repr=False)
    _ratios: tuple[tuple[float, ...], ...] = field(init=False, compare=False, repr=False)
    csr: Csr | None = field(init=False, default=None, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "degrees", tuple(map(len, self.targets)))
        object.__setattr__(self, "max_degree", max(self.degrees, default=0))
        object.__setattr__(self, "_ratios", tuple(map(_ratio_row, self.weights)))

    @classmethod
    def of_arrays(cls, directed: bool, degrees, targets, weights) -> Graph:
        """The graph of flat arcs, sorted by source then target, as the bulk parse gives them.

        ``degrees`` counts each node's arcs, and ``targets`` and ``weights``
        (None for unweighted text) list the arcs, as numpy arrays. The graph
        keeps ``targets`` in its ``csr``, and builds its target rows from it
        on first read. A weighted graph builds its weight rows here, and
        from them the ratios of :func:`_ratio_row`'s exact rationals, whose
        bits ``csr`` keeps; it keeps no ratio rows.
        """
        from .csr import Csr

        graph = object.__new__(cls)
        degree_list = degrees.tolist()
        fields = {"node_count": len(degree_list), "directed": directed, "degrees": tuple(degree_list)}
        fields["max_degree"] = int(degrees.max()) if degree_list else 0
        ratios = None
        if weights is not None:
            fields["weights"] = tuple(_split_rows(weights.tolist(), degree_list))
            ratios = map(_ratio_row, fields["weights"])
        fields["csr"] = Csr.of(degrees, targets, ratios)
        vars(graph).update(fields)
        return graph

    def __getattr__(self, name: str):
        # Reached only for an attribute the instance lacks: on a graph from
        # of_arrays, a row not yet built. Build the rows once, and keep them.
        state = vars(self)
        if name not in ("targets", "weights") or state.get("csr") is None:
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        state["targets"] = tuple(_split_rows(self.csr.targets.tolist(), self.degrees))
        if "weights" not in state:
            # Unweighted rows of one degree share one weight tuple.
            shared = {d: (1.0,) * d for d in set(self.degrees)}
            state["weights"] = tuple(map(shared.__getitem__, self.degrees))
        return state[name]

    def row(self, i: int) -> tuple[tuple[int, ...], tuple[float, ...]]:
        """``(targets, ratios)`` of node ``i``'s arcs, as tuples with the line loop's bits.

        A graph with ``csr`` slices its arrays: the ratios of weighted text,
        or ``1.0 / degree`` for each arc of unweighted text.
        """
        csr = self.csr
        if csr is None:
            return self.targets[i], self._ratios[i]
        start, end = csr.indptr[i : i + 2].tolist()
        targets = tuple(csr.targets[start:end].tolist())
        if csr.ratios is not None:
            return targets, tuple(csr.ratios[start:end].tolist())
        return targets, ((1.0 / (end - start),) * (end - start) if end > start else ())

    @property
    def arc_count(self) -> int:
        """Number of stored arcs; an undirected graph stores each self-loop once."""
        return sum(self.degrees)

    @property
    def edge_count(self) -> int:
        """Number of edges in the input sense (arcs for directed input); a self-loop is one."""
        if self.directed:
            return self.arc_count
        if self.csr is not None:
            loops = self.csr.loop_count()
        else:
            loops = sum(i in row for i, row in enumerate(self.targets))
        return (self.arc_count + loops) // 2


def _ratio_row(weights: Sequence[float]) -> tuple[float, ...]:
    """Each weight's share of the row's total, rounded once from the exact w / sum(w).

    Rounding the exact rational keeps trajectories identical when all
    weights are rescaled by a common factor that the floats represent
    exactly.
    """
    if not weights:
        return ()
    if len(set(weights)) == 1:
        # Uniform weights cancel exactly; 1/d is the correctly rounded ratio.
        return (1.0 / len(weights),) * len(weights)
    # Each weight is p/q with q a power of two, so over the largest q every
    # weight is an integer m; w / sum(w) is then m / sum(m), and int true
    # division rounds that exact quotient correctly.
    pairs = [w.as_integer_ratio() for w in weights]
    scale = max(q for _, q in pairs)
    scaled = [p * (scale // q) for p, q in pairs]
    total = sum(scaled)
    return tuple(m / total for m in scaled)


def from_edges(
    edges: Iterable[tuple[int, int, float]],
    directed: bool = False,
    node_count: int | None = None,
) -> Graph:
    """Build a Graph from ``(u, v, w)`` triples.

    Undirected edges are given once and stored in both directions (self-loops
    once). Duplicate (u, v) pairs and non-positive weights are errors. When
    ``node_count`` is omitted it defaults to 1 + max node id.
    """
    rows: dict[int, list[tuple[int, float]]] = {}
    max_id = -1
    for u, v, w in edges:
        if u < 0 or v < 0:
            raise EdgeListError(f"negative node id in edge ({u}, {v})")
        if not (math.isfinite(w) and w > 0.0):
            raise EdgeListError(f"non-positive weight {w!r} on edge ({u}, {v})")
        max_id = max(max_id, u, v)
        rows.setdefault(u, []).append((v, w))
        if not directed and u != v:
            rows.setdefault(v, []).append((u, w))

    n = max_id + 1 if node_count is None else node_count
    if node_count is not None and max_id >= node_count:
        raise EdgeListError(f"edge endpoint {max_id} out of range for n={node_count}")

    targets = []
    weights = []
    for i in range(n):
        row_targets, row_weights = zip(*sorted(rows[i])) if i in rows else ((), ())
        if len(set(row_targets)) < len(row_targets):
            # Sorted by neighbor, so a repeated arc sits next to its twin.
            v = next(a for a, b in zip(row_targets, row_targets[1:]) if a == b)
            raise EdgeListError(f"duplicate edge ({i}, {v})")
        targets.append(row_targets)
        weights.append(row_weights)
    return Graph(n, directed, tuple(targets), tuple(weights))


def _read_edges(text: str, directed: bool) -> tuple[list[tuple[int, int, float]], set[int]]:
    """The ``(u, v, w)`` edges of edge-list text in file order, and the ids they use.

    Raises EdgeListError with the offending line number on malformed input.
    """
    edges = []
    ids: set[int] = set()
    seen: set[tuple[int, int]] = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) not in (2, 3):
            raise EdgeListError(f"line {lineno}: expected 'u v' or 'u v w', got {raw!r}")
        try:
            u = int(tokens[0])
            v = int(tokens[1])
        except ValueError:
            raise EdgeListError(f"line {lineno}: node ids must be integers, got {raw!r}") from None
        if u < 0 or v < 0:
            raise EdgeListError(f"line {lineno}: node ids must be non-negative, got {raw!r}")
        w = 1.0
        if len(tokens) == 3:
            try:
                w = float(tokens[2])
            except ValueError:
                raise EdgeListError(f"line {lineno}: weight must be a decimal, got {raw!r}") from None
            if not (math.isfinite(w) and w > 0.0):
                raise EdgeListError(f"line {lineno}: weight must be positive, got {tokens[2]}")
        if (u, v) in seen or (not directed and (v, u) in seen):
            raise EdgeListError(f"line {lineno}: duplicate edge ({u}, {v})")
        seen.add((u, v))
        ids.update((u, v))
        edges.append((u, v, w))
    return edges, ids


# Texts of fewer lines go to the line loop, so knn/simulate on small files
# start without numpy. In a fresh knn process the numpy import costs
# 0.18-0.26 s, which the bulk parse wins back near 26k-32k lines: between
# 30k and 32k with 4-digit ids, between 26k and 28k with 10-digit ids (16
# runs per point); a character count shifts by 2x between the two. Measured by
# scripts/bulk_threshold.py (Python 3.11, numpy 2.4, 2-core VM).
_BULK_MIN_LINES = 1 << 15


# Byte classes of a weight, ordered so that token bytes are _DIGIT and above,
# and the bytes of a decimal after its digits come in rank order.
_BLANK, _DIGIT, _SIGN, _POINT, _MARK = range(5)
_CLASSES = bytes.maketrans(
    b" \t\r\n0123456789+-.eE", bytes([_BLANK] * 4 + [_DIGIT] * 10 + [_SIGN] * 2 + [_POINT, _MARK, _MARK])
)


def _decimals_only(data: bytes, starts, width: int) -> bool:
    """Whether every sign, point and mark byte of ``data`` lies in a weight, and leaves it one decimal.

    ``data`` is clean text of ``width`` tokens a line, and ``starts`` holds
    where each token starts; a weight is a line's third token. A decimal is
    ``[+-]?([0-9]+.?[0-9]*|.[0-9]+)([eE][+-]?[0-9]+)?``, which is what
    ``float()`` accepts of these bytes and ``np.fromstring`` reads whole. In
    it a token's leading sign, point, mark and exponent sign come in that
    order, each at most once, and each has the digits the form needs next to
    it.
    """
    import numpy as np

    # Two blanks past the end, so that every neighbor below exists.
    padded = np.frombuffer((data + b"  ").translate(_CLASSES), dtype=np.uint8)
    at = np.flatnonzero(padded > _DIGIT)
    token_of = np.searchsorted(starts, at, side="right") - 1
    if (token_of % width != 2).any():
        return False
    kind, before, after = padded[at], padded[at - 1], padded[at + 1]
    leading = (kind == _SIGN) & (before < _DIGIT)
    exponent_sign = (kind == _SIGN) & (before == _MARK)
    mantissa_digit = (before == _DIGIT) | ((before == _POINT) & (padded[at - 2] == _DIGIT))
    exponent_digit = (after == _DIGIT) | ((after == _SIGN) & (padded[at + 2] == _DIGIT))
    placed = np.select(
        [kind == _POINT, kind == _MARK],
        [(before == _DIGIT) | (after == _DIGIT), mantissa_digit & exponent_digit],
        exponent_sign | (leading & (after >= _DIGIT)),
    )
    # An exponent sign ranks after the mark.
    rank = np.where(exponent_sign, _MARK + 1, kind)
    in_order = (token_of[1:] != token_of[:-1]) | (rank[1:] > rank[:-1])
    return bool(placed.all() and in_order.all())


def _bulk_arcs(text: str, directed: bool, relabel: bool):
    """Bulk-parse clean edge-list text into sorted arcs; None unless the text is large and clean.

    Returns ``(labels, degrees, targets, weights)`` as numpy arrays.
    ``labels`` holds the distinct ids in ascending order. ``targets`` and
    ``weights`` (None for 2-token lines) list every arc sorted by source,
    then target; ``degrees`` counts the arcs of each source. With
    ``relabel`` node ``i`` is ``labels[i]``; without it nodes keep the
    file's ids, and id gaps become isolated nodes.

    Clean text is ASCII with no ``#``, and has ``\r`` only before ``\n``.
    Its other bytes are blanks, digits, and the signs, points and marks of
    weights. Every non-blank line has the same count of tokens, 2 or 3. Ids
    are digit strings of at most 16 digits, below 2**53, so neither the
    int64 nor the float64 parse can overflow. Weights are decimals, finite
    and positive; see :func:`_decimals_only`, which reads only text with a
    sign, point or mark byte. So ``np.fromstring`` reads every token to its
    end, and no warnings filter is needed for numpy versions that warn
    rather than raise when it stops early. No edge repeats. Any other text
    is left to the line loop, which raises its line-numbered errors.
    """
    if (
        text.count("\n") < _BULK_MIN_LINES
        or "#" in text
        or not text.isascii()
        or ("\r" in text and text.count("\r") != text.count("\r\n"))
    ):
        return None
    import numpy as np

    data = (text + "\n").encode("ascii")  # so that a newline ends every line
    # The bytes besides blanks and digits: the signs, points and marks of weights, if any.
    marks = data.translate(None, b" \t\r\n0123456789")
    if marks.translate(None, b"+-.eE"):
        return None
    chars = np.frombuffer(data, dtype=np.uint8)
    # Blank bytes lie at or below the space, token bytes above it.
    blanks = np.flatnonzero(chars <= ord(" "))
    # A blank ends a token one byte shorter than its step from the blank before.
    steps = np.diff(blanks, prepend=-1)
    ends = steps > 1
    # The count of token ends so far steps at each newline by its line's tokens.
    per_line = np.diff(np.cumsum(ends)[chars[blanks] == ord("\n")], prepend=0)
    width = int(per_line.max())
    if width not in (2, 3) or ((per_line != 0) & (per_line != width)).any():
        return None
    # Ids of at most 16 digits, so neither parse below can overflow.
    steps = steps[ends].reshape(-1, width)
    if (steps[:, :2] > 17).any():
        return None
    # Only a weight may hold '+', '-', '.', 'e' or 'E'.
    if marks and not _decimals_only(data, blanks[ends] - steps.ravel() + 1, width):
        return None
    tokens = steps.size
    del blanks, chars, data, ends, per_line, steps

    try:
        values = np.fromstring(text, dtype=np.float64 if width == 3 else np.int64, sep=" ")
    except ValueError:
        return None
    # One number per token, or the rows below would misalign. Should a token
    # still stop the parse early, numpy 2 raises and older numpy warns and
    # returns fewer numbers.
    if values.size != tokens:
        return None
    values = values.reshape(-1, width)
    # Below 2**53 a float64 holds every id exactly.
    if values[:, :2].max() >= 2**53:
        return None
    weights = None
    if width == 3:
        weights = values[:, 2]
        if not (np.isfinite(weights) & (weights > 0.0)).all():
            return None
    ids = values[:, :2].astype(np.int64).ravel()
    del values

    top = int(ids.max())
    if top < 2 * ids.size:
        # Dense enough that a table over every id is at most twice the ids.
        # np.unique alone would serve here too, but its sort takes the set-up
        # of perfbench's query-er100k from 0.08 s to 0.12 s.
        present = np.bincount(ids) > 0
        labels = np.flatnonzero(present)
        if labels.size != top + 1:
            ids = (np.cumsum(present) - 1)[ids]
    else:
        labels, ids = np.unique(ids, return_inverse=True)
    n = labels.size

    src, dst = ids[0::2], ids[1::2]
    if not directed:
        mirror = src != dst
        src, dst = np.concatenate((src, dst[mirror])), np.concatenate((dst, src[mirror]))
        if weights is not None:
            weights = np.concatenate((weights, weights[mirror]))
    degrees = np.bincount(src, minlength=n)
    keys = src * n + dst
    del ids, src, dst
    if weights is None:
        keys.sort()
    else:
        order = np.argsort(keys)
        keys, weights = keys[order], weights[order]
    # A repeated edge, or an undirected edge listed both ways, repeats an arc.
    if (keys[1:] == keys[:-1]).any():
        return None
    # Each source's row of keys, less the source's offset, is its targets.
    targets = keys - np.repeat(np.arange(0, n * n, n), degrees)
    if not relabel and n != top + 1:
        # Back to the file's ids, where id gaps are isolated nodes.
        compact, degrees = degrees, np.zeros(top + 1, dtype=degrees.dtype)
        degrees[labels] = compact
        targets = labels[targets]
    return labels, degrees, targets, weights


def _bulk_parse(text: str, directed: bool, relabel: bool) -> tuple[Graph, list[int]] | None:
    """``(graph, labels)`` of large clean text, as :meth:`Graph.of_arrays` builds it; else None."""
    arcs = _bulk_arcs(text, directed, relabel)
    return None if arcs is None else (Graph.of_arrays(directed, *arcs[1:]), arcs[0].tolist())


def _split_rows(flat: list, lengths: Sequence[int]) -> list[tuple]:
    """Consecutive slices of ``flat`` with the given lengths, as tuples."""
    flat = tuple(flat)
    return [flat[end - d : end] for d, end in zip(lengths, itertools.accumulate(lengths))]


def parse_edge_list(text: str, directed: bool = False) -> Graph:
    """Parse edge-list text into a Graph.

    Node count is 1 + max node id, so id gaps become isolated nodes. Raises
    EdgeListError with the offending line number on malformed input.
    """
    bulk = _bulk_parse(text, directed, relabel=False)
    if bulk is not None:
        return bulk[0]
    return from_edges(_read_edges(text, directed)[0], directed=directed)


def parse_edge_list_relabeled(text: str, directed: bool = False) -> tuple[Graph, list[int]]:
    """Parse edge-list text, compacting sparse node ids to 0..n-1.

    Returns ``(graph, labels)`` where ``labels[i]`` is the original id of
    dense node ``i``. Labels are the distinct ids that appear in the file, in
    ascending order; for already-dense input this is the identity.
    """
    bulk = _bulk_parse(text, directed, relabel=True)
    if bulk is not None:
        return bulk
    edges, ids = _read_edges(text, directed)
    labels = sorted(ids)
    if labels and labels[-1] != len(labels) - 1:
        dense = {orig: idx for idx, orig in enumerate(labels)}
        edges = [(dense[u], dense[v], w) for u, v, w in edges]
    return from_edges(edges, directed=directed, node_count=len(labels)), labels


def serialize_edge_list(g: Graph) -> str:
    """Render a Graph back to edge-list text.

    Edges are emitted in ascending (i, j) order, undirected edges once with
    i <= j, weights with full round-trip precision (omitted when 1.0).
    Parsing the output reproduces an equal Graph.
    """
    lines = []
    directed = g.directed
    for i, (row, weights) in enumerate(zip(g.targets, g.weights)):
        for j, w in zip(row, weights):
            if not directed and j < i:
                continue
            lines.append(f"{i} {j}" if w == 1.0 else f"{i} {j} {w!r}")
    return "\n".join(lines) + ("\n" if lines else "")
