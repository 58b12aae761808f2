"""Ranking baselines for ``compare``: personalized pagerank and top-k overlap.

Personalized pagerank is a plain power iteration in pure Python over the
rows that :meth:`chargediff.graph.Graph.row` reads. It keeps only the nodes
the walk has reached, and their rows for the call, so it needs no dense
matrix and runs on graphs of any size; each round still reads every reached
row, so on a connected graph it costs O(n) per round.
The dense numpy oracles that the sparse code is checked against live with
the tests.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Mapping

from .graph import Graph


def personalized_pagerank(
    g: Graph,
    seed: int,
    teleport: float = 0.15,
    tol: float = 1e-12,
    max_iterations: int = 100_000,
) -> dict[int, float]:
    """Stationary distribution of a walk that teleports back to the seed.

    Power iteration of pi' = teleport * e_seed + (1 - teleport) * pi P from
    pi = e_seed, with the mass of dangling nodes redirected to the seed.
    Returns ``{node: score}`` for the nodes the walk has reached, in
    ascending id order. Stops once the L1 change, summed in ascending id
    order, falls below ``tol``; raises RuntimeError if it has not within
    ``max_iterations`` rounds.
    """
    if not 0 <= seed < g.node_count:
        raise ValueError(f"seed {seed} out of range")
    if not 0.0 < teleport < 1.0:
        raise ValueError(f"teleport must be in (0, 1), got {teleport}")
    pi = {seed: 1.0}
    rows, seen = {}, {}
    for _ in range(max_iterations):
        if len(rows) < len(pi):
            # The rows of pi's nodes, in pi's ascending order, each read once
            # per call: a row read costs more than a round's use of it. Each
            # node id is one int object and equal ratio rows one tuple, so the
            # rounds' dict lookups match keys by identity and read fewer
            # objects. Only a round that reached new nodes rebuilds the dict.
            for i in pi.keys() - rows.keys():
                targets, ratios = g.row(i)
                rows[i] = tuple(map(seen.setdefault, targets, targets)), seen.setdefault(ratios, ratios)
            rows = {i: rows[i] for i in pi}
        follow: dict[int, float] = {}
        get = follow.get
        dangling = 0.0
        for (i, mass), (targets, ratios) in zip(pi.items(), rows.values()):
            if not targets:
                dangling += mass
            for j, ratio in zip(targets, ratios):
                follow[j] = get(j, 0.0) + mass * ratio
        follow[seed] = get(seed, 0.0) + dangling
        nxt = {j: (1.0 - teleport) * follow[j] for j in sorted(follow)}
        nxt[seed] += teleport
        # Every node of pi is also in nxt (the reached set only grows), so
        # the change is summed over nxt alone, and rows holds pi's nodes
        # in pi's order whenever it holds as many.
        change = 0.0
        for j, score in nxt.items():
            change += abs(score - pi.get(j, 0.0))
        if change < tol:
            return nxt
        pi = nxt
    raise RuntimeError(f"pagerank power iteration did not converge in {max_iterations} rounds")


def rank_nodes(scores: Mapping[int, float]) -> list[int]:
    """Node ids by score descending, ties broken by ascending id; zero scores dropped.

    ``scores`` lists its nodes in ascending id order, as
    :func:`personalized_pagerank` returns them. The sort is stable and
    ``reverse=True`` keeps it stable, so equal scores stay in ascending id
    order, as in :attr:`chargediff.engine.QueryResult.ranking`.
    """
    ranked = sorted(scores.items(), key=itemgetter(1), reverse=True)
    return [i for i, score in ranked if score > 0.0]


def overlap_at_k(a: list[int], b: list[int], k: int) -> float:
    """|top-k(a) intersect top-k(b)| / k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return len(set(a[:k]) & set(b[:k])) / k
