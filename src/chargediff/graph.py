"""Immutable adjacency-list graphs loaded from edge-list text.

The edge-list format is one edge per line, ``u v`` or ``u v w``, with
whitespace separation. Lines starting with ``#`` are comments. Node ids are
non-negative integers; weights are positive decimals (unweighted edges store
weight 1.0). Undirected input materializes both arc directions; a self-loop
is stored once and contributes 1 to the node's degree.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence


class EdgeListError(ValueError):
    """Malformed edge-list input: bad line, duplicate edge, bad weight."""


@dataclass(frozen=True)
class Graph:
    """Adjacency-list graph, immutable after construction.

    ``adjacency[i]`` is the tuple of ``(neighbor, weight)`` out-edges of node
    ``i``, sorted ascending by neighbor id. ``out_ratios[i][k]`` caches the
    share of node ``i``'s total out-weight carried by its k-th out-edge,
    rounded once from the exact rational w / sum(w). Precomputing the ratio
    this way keeps trajectories identical when all weights are rescaled by a
    common factor that the floats represent exactly.
    """

    node_count: int
    directed: bool
    adjacency: tuple[tuple[tuple[int, float], ...], ...]
    degrees: tuple[int, ...]
    out_ratios: tuple[tuple[float, ...], ...]

    @property
    def arc_count(self) -> int:
        """Number of stored arcs; for undirected graphs this is 2|E|."""
        return sum(self.degrees)

    @property
    def edge_count(self) -> int:
        """Number of edges in the input sense (arcs for directed input)."""
        return self.arc_count if self.directed else self.arc_count // 2

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return (
            self.node_count == other.node_count
            and self.directed == other.directed
            and self.adjacency == other.adjacency
        )

    def __hash__(self) -> int:
        return hash((self.node_count, self.directed, self.adjacency))


def _ratio_row(weights: Sequence[float]) -> tuple[float, ...]:
    if not weights:
        return ()
    if len(set(weights)) == 1:
        # Uniform weights cancel exactly; 1/d is the correctly rounded ratio.
        return (1.0 / len(weights),) * len(weights)
    total = sum((Fraction(w) for w in weights), Fraction(0))
    return tuple(float(Fraction(w) / total) for w in weights)


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

    adjacency = []
    for i in range(n):
        row = sorted(rows.get(i, ()))
        # Sorted by neighbor, so a repeated arc sits next to its twin; ids
        # are non-negative, so -1 matches no first neighbor.
        prev = -1
        for v, _ in row:
            if v == prev:
                raise EdgeListError(f"duplicate edge ({i}, {v})")
            prev = v
        adjacency.append(tuple(row))
    degrees = tuple(len(row) for row in adjacency)
    out_ratios = tuple(_ratio_row([w for _, w in row]) for row in adjacency)
    return Graph(n, directed, tuple(adjacency), degrees, out_ratios)


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


def parse_edge_list(text: str, directed: bool = False) -> Graph:
    """Parse edge-list text into a Graph.

    Node count is 1 + max node id, so id gaps become isolated nodes. Raises
    EdgeListError with the offending line number on malformed input.
    """
    return from_edges(_read_edges(text, directed)[0], directed=directed)


def parse_edge_list_relabeled(text: str, directed: bool = False) -> tuple[Graph, list[int]]:
    """Parse edge-list text, compacting sparse node ids to 0..n-1.

    Returns ``(graph, labels)`` where ``labels[i]`` is the original id of
    dense node ``i``. Labels are the distinct ids that appear in the file, in
    ascending order; for already-dense input this is the identity.
    """
    edges, ids = _read_edges(text, directed)
    labels = sorted(ids)
    if labels and labels[-1] != len(labels) - 1:
        dense = {orig: idx for idx, orig in enumerate(labels)}
        edges = [(dense[u], dense[v], w) for u, v, w in edges]
    return from_edges(edges, directed=directed, node_count=len(labels)), labels


def load_edge_list(path: str, directed: bool = False) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_edge_list(fh.read(), directed=directed)


def serialize_edge_list(g: Graph) -> str:
    """Render a Graph back to edge-list text.

    Edges are emitted in ascending (i, j) order, undirected edges once with
    i <= j, weights with full round-trip precision (omitted when 1.0).
    Parsing the output reproduces an equal Graph.
    """
    lines = []
    for i in range(g.node_count):
        for j, w in g.adjacency[i]:
            if not g.directed and j < i:
                continue
            lines.append(f"{i} {j}" if w == 1.0 else f"{i} {j} {w!r}")
    return "\n".join(lines) + ("\n" if lines else "")


def max_degree(g: Graph) -> int:
    """Largest out-degree in the graph, 0 when there are no nodes."""
    return max(g.degrees, default=0)
