"""Immutable graphs of flat per-node rows, loaded from edge-list text.

The edge-list format is one edge per line, ``u v`` or ``u v w``, with
whitespace separation. Lines starting with ``#`` are comments. Node ids are
non-negative integers; weights are positive decimals (unweighted edges store
weight 1.0). Undirected input materializes both arc directions; a self-loop
is stored once and contributes 1 to the node's degree.

Large clean texts are parsed in bulk with numpy, which is imported for them
only; small texts, and every text the bulk parse does not accept, go through
a line loop that reports the offending line. Both build equal graphs.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Iterable, Sequence


class EdgeListError(ValueError):
    """Malformed edge-list input: bad line, duplicate edge, bad weight."""


@dataclass(frozen=True)
class Graph:
    """Graph of flat per-node rows, immutable after construction.

    ``targets[i]`` is the tuple of node ``i``'s out-neighbor ids, ascending,
    and ``weights[i][k]`` the weight of its arc to ``targets[i][k]``, as
    given. These four fields are the graph: equality and hashing read them
    alone. The constructor derives the other rows from them, once per
    weight-row object, so rows given as one shared tuple (the bulk parse
    passes one per degree for unweighted text) share their derived rows:

    - ``out_ratios[i][k]``, the share of node ``i``'s total out-weight
      carried by its arc to ``targets[i][k]`` (see :func:`_ratio_row`);
    - ``degrees[i]``, which is ``len(targets[i])``;
    - ``shares[i]``, the share every arc of row ``i`` carries when all of
      its ratios are equal (as in any unweighted graph), else None.
      :func:`chargediff.diffusion.step` computes one receipt for such a row.
    """

    node_count: int
    directed: bool
    targets: tuple[tuple[int, ...], ...]
    weights: tuple[tuple[float, ...], ...]
    out_ratios: tuple[tuple[float, ...], ...] = field(init=False, compare=False)
    degrees: tuple[int, ...] = field(init=False, compare=False)
    shares: tuple[float | None, ...] = field(init=False, compare=False)

    def __post_init__(self) -> None:
        # Keyed by the row's id, so no row of floats is hashed (hashing every
        # row made the 100k-node bulk parse about 15% slower). Equal rows
        # given as distinct tuples are derived apart, to the same bits.
        keys = list(map(id, self.weights))
        ratio_of = {key: _ratio_row(row) for key, row in dict(zip(keys, self.weights)).items()}
        share_of = {key: r[0] if r and r.count(r[0]) == len(r) else None for key, r in ratio_of.items()}
        object.__setattr__(self, "out_ratios", tuple(map(ratio_of.__getitem__, keys)))
        object.__setattr__(self, "degrees", tuple(map(len, self.targets)))
        object.__setattr__(self, "shares", tuple(map(share_of.__getitem__, keys)))

    @property
    def arc_count(self) -> int:
        """Number of stored arcs; an undirected graph stores each self-loop once."""
        return sum(self.degrees)

    @property
    def edge_count(self) -> int:
        """Number of edges in the input sense (arcs for directed input); a self-loop is one."""
        if self.directed:
            return self.arc_count
        loops = sum(i in row for i, row in enumerate(self.targets))
        return (self.arc_count + loops) // 2


def _ratio_row(weights: Sequence[float]) -> tuple[float, ...]:
    """Each weight's share of the row's total, rounded once from the exact w / sum(w).

    Rounding the exact rational keeps trajectories identical when all
    weights are rescaled by a common factor that the floats represent
    exactly. Only :class:`Graph`'s constructor calls this.
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
# start without numpy. In a fresh knn process the numpy import costs about
# 0.18 s, which the bulk parse wins back near 28k-36k lines, whether the ids
# have 4 digits or 10; a character count shifts by 2x between the two.
# Measured by scripts/bulk_threshold.py (Python 3.11, numpy 2.4, 2-core VM).
_BULK_MIN_LINES = 1 << 15


# Byte classes of the bulk parse, ordered so that token bytes are _DIGIT and
# above, and the bytes of a decimal after its digits come in rank order.
_BLANK, _NEWLINE, _DIGIT, _SIGN, _POINT, _MARK, _OTHER = range(7)


def _decimals_only(classes, at, token_of) -> bool:
    """Whether the sign, point and mark bytes at ``at`` leave each token one decimal.

    ``classes`` holds the byte classes of the text, and ``token_of`` the
    token of each position in ``at``. A decimal is
    ``[+-]?([0-9]+.?[0-9]*|.[0-9]+)([eE][+-]?[0-9]+)?``, which is what
    ``float()`` accepts of these bytes and ``np.fromstring`` reads whole. In
    it a token's leading sign, point, mark and exponent sign come in that
    order, each at most once, and each has the digits the form needs next to
    it.
    """
    import numpy as np

    # Two blanks past the end, so that every neighbor below exists.
    padded = np.concatenate((classes, np.full(2, _BLANK, dtype=classes.dtype)))
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
    Every non-blank line has the same count of tokens, 2 or 3. Ids are
    digit strings of at most 16 digits, below 2**53, so neither the int64
    nor the float64 parse can overflow. Weights are decimals, finite and
    positive; see :func:`_decimals_only`. So ``np.fromstring`` reads every
    token to its end, and no warnings filter is needed for numpy versions
    that warn rather than raise when it stops early. No edge repeats. Any
    other text is left to the line loop, which raises its line-numbered
    errors.
    """
    if (
        text.count("\n") < _BULK_MIN_LINES
        or "#" in text
        or not text.isascii()
        or text.count("\r") != text.count("\r\n")
    ):
        return None
    import numpy as np

    table = np.full(256, _OTHER, dtype=np.uint8)
    table[list(b" \t\r")] = _BLANK
    table[ord("\n")] = _NEWLINE
    table[list(b"0123456789")] = _DIGIT
    table[list(b"+-")] = _SIGN
    table[ord(".")] = _POINT
    table[list(b"eE")] = _MARK
    classes = table[np.frombuffer(text.encode("ascii"), dtype=np.uint8)]
    if (classes == _OTHER).any():
        return None
    in_token = classes >= _DIGIT
    # Token bounds alternate: where a token starts, then just past its end.
    bounds = np.flatnonzero(np.diff(in_token, prepend=False, append=False))
    starts = bounds[0::2]
    line_of = np.searchsorted(np.flatnonzero(classes == _NEWLINE), starts)
    width = int(np.searchsorted(line_of, line_of[0], side="right")) if starts.size else 0
    if width not in (2, 3) or starts.size % width:
        return None
    # Each row of `width` tokens lies on one line, below the row before it.
    rows = line_of.reshape(-1, width)
    if (rows[:, -1] != rows[:, 0]).any() or (rows[1:, 0] <= rows[:-1, 0]).any():
        return None
    # Ids of at most 16 digits, so neither parse below can overflow.
    if ((bounds[1::2] - starts).reshape(-1, width)[:, :2] > 16).any():
        return None
    # Only the weight column may hold '+', '-', '.', 'e' or 'E'.
    at = np.flatnonzero(classes > _DIGIT)
    token_of = np.searchsorted(starts, at, side="right") - 1
    if (token_of % width != 2).any() or not _decimals_only(classes, at, token_of):
        return None
    tokens = starts.size
    del at, bounds, classes, in_token, line_of, rows, starts, token_of

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
        # of perfbench's query-er100k from 0.26 s to 0.34 s.
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
    keys = src * n + dst
    if weights is None:
        keys.sort()
    else:
        order = np.argsort(keys)
        keys, weights = keys[order], weights[order]
    # A repeated edge, or an undirected edge listed both ways, repeats an arc.
    if (keys[1:] == keys[:-1]).any():
        return None
    degrees = np.bincount(keys // n, minlength=n)
    targets = keys % n
    if not relabel and n != top + 1:
        # Back to the file's ids, where id gaps are isolated nodes.
        compact, degrees = degrees, np.zeros(top + 1, dtype=degrees.dtype)
        degrees[labels] = compact
        targets = labels[targets]
    return labels, degrees, targets, weights


def _bulk_parse(text: str, directed: bool, relabel: bool) -> tuple[Graph, list[int]] | None:
    """``(graph, labels)`` of large clean text, built from :func:`_bulk_arcs`; else None."""
    arcs = _bulk_arcs(text, directed, relabel)
    if arcs is None:
        return None
    labels, degrees, targets, weights = arcs
    degree_list = degrees.tolist()
    target_rows = _split_rows(targets.tolist(), degree_list)
    if weights is None:
        # Unweighted rows of one degree share one weight tuple.
        shared = {d: (1.0,) * d for d in set(degree_list)}
        weight_rows = [shared[d] for d in degree_list]
    else:
        weight_rows = _split_rows(weights.tolist(), degree_list)
    return Graph(len(degree_list), directed, tuple(target_rows), tuple(weight_rows)), labels.tolist()


def _split_rows(flat: list, lengths: list[int]) -> list[tuple]:
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
    for i in range(g.node_count):
        for j, w in zip(g.targets[i], g.weights[i]):
            if not g.directed and j < i:
                continue
            lines.append(f"{i} {j}" if w == 1.0 else f"{i} {j} {w!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def max_degree(g: Graph) -> int:
    """Largest out-degree in the graph, 0 when there are no nodes."""
    return max(g.degrees, default=0)
