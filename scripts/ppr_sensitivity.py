#!/usr/bin/env python3
"""How far-away edits move the rankings: diffusion vs personalized pagerank.

A seed sits in a small clique A; a larger random region B hangs off one
bridge edge. We rank the seed's neighbors with both methods, then add a
batch of extra edges entirely inside B (about a third of the edge count) and
rank again. The diffusion query never activates B's interior, so its result
is untouched; pagerank renormalizes globally and its scores shift.
"""

import random
import sys

sys.path.insert(0, "src")

from chargediff.baselines import overlap_at_k, personalized_pagerank, rank_nodes
from chargediff.diffusion import DiffusionConfig
from chargediff.engine import run_query, top_k
from chargediff.graph import from_edges

K = 5
CLIQUE = 8


def build(extra_in_b: int, rng: random.Random):
    edges = [(i, j, 1.0) for i in range(CLIQUE) for j in range(i + 1, CLIQUE)]
    edges.append((CLIQUE - 1, CLIQUE, 1.0))  # bridge into region B
    b_nodes = list(range(CLIQUE, CLIQUE + 40))
    for idx, v in enumerate(b_nodes[1:], start=1):
        edges.append((b_nodes[rng.randrange(idx)], v, 1.0))
    present = {(min(u, v), max(u, v)) for u, v, _ in edges}
    # Extra edges stay strictly inside B's interior so no node the query ever
    # activates changes its out-edges; b_nodes[0] carries the bridge.
    interior = b_nodes[1:]
    added = 0
    while added < 40 + extra_in_b:
        u, v = rng.choice(interior), rng.choice(interior)
        if u != v and (min(u, v), max(u, v)) not in present:
            present.add((min(u, v), max(u, v)))
            edges.append((min(u, v), max(u, v), 1.0))
            added += 1
    return from_edges(edges)


def rankings(g):
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.09)
    res = run_query(g, 0, cfg)
    diff_top = top_k(res, K)
    ppr = personalized_pagerank(g, 0, teleport=0.2)
    ppr_top = [i for i in rank_nodes(ppr) if i != 0][:K]
    return diff_top, ppr_top, res, ppr


def main() -> None:
    base = build(0, random.Random(5))
    diff_before, ppr_before, res, ppr0 = rankings(base)
    extra = base.edge_count // 3
    perturbed = build(extra, random.Random(5))
    diff_after, ppr_after, res2, ppr1 = rankings(perturbed)

    print(f"base graph: n={base.node_count}, |E|={base.edge_count}; "
          f"perturbed adds {perturbed.edge_count - base.edge_count} edges inside region B")
    print(f"diffusion touched {res.touched} nodes; candidate set {res.nn_set}")
    print()
    print(f"diffusion top-{K} before: {diff_before}")
    print(f"diffusion top-{K} after:  {diff_after}  "
          f"(overlap {overlap_at_k(diff_before, diff_after, K):.2f})")
    print(f"pagerank  top-{K} before: {ppr_before}")
    print(f"pagerank  top-{K} after:  {ppr_after}  "
          f"(overlap {overlap_at_k(ppr_before, ppr_after, K):.2f})")
    print()
    charges_identical = res.final_charges == res2.final_charges
    ppr_drift = max(
        abs(ppr1.get(i, 0.0) - ppr0[i]) / ppr0[i] for i in range(CLIQUE) if ppr0.get(i, 0.0) > 0
    )
    mass0 = sum(ppr0.get(i, 0.0) for i in range(CLIQUE))
    mass1 = sum(ppr1.get(i, 0.0) for i in range(CLIQUE))
    print(f"diffusion final charges bitwise identical after the edit: {charges_identical}")
    print(f"largest relative pagerank score drift in the seed clique: {ppr_drift:.2e}")
    print(f"pagerank mass on the seed clique: {mass0:.4f} -> {mass1:.4f} "
          f"({(mass1 - mass0) / mass0:+.2%})")
    print(f"diffusion vs pagerank overlap on the base graph: "
          f"{overlap_at_k(diff_before, ppr_before, K):.2f}")


if __name__ == "__main__":
    main()
