#!/usr/bin/env python3
"""Locality demonstrations on bridged graphs.

Experiment 1: two 10-cliques joined by a single edge. A query seeded in
clique A should keep nearly all of its candidate set inside clique A and
never touch most of clique B.

Experiment 2: the same pair with a 480-node appendage hanging off clique B
(500 nodes total). The run should touch a small fraction of the graph.

Experiment 3: a seed sitting between a sparse chain and a dense clique. The
sparse side concentrates more charge per edge, so it activates more nodes
than the dense side.
"""

import random
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from chargediff.diffusion import DiffusionConfig
from chargediff.engine import run_query
from chargediff.generators import two_cliques
from chargediff.graph import from_edges


def clique_pair() -> None:
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.095)
    g = two_cliques(10)
    res = run_query(g, 0, cfg)
    in_a = [i for i in res.nn_set if i < 10]
    print("== two cliques, bridge 9-10, seed 0 ==")
    print(f"terminated={res.terminated} iterations={res.iterations}")
    print(f"candidate set ({len(res.nn_set)}): {res.nn_set}")
    print(f"in clique A: {len(in_a)}/{len(res.nn_set)} ({len(in_a) / len(res.nn_set):.0%})")
    print(f"touched {res.touched}/{g.node_count} nodes")
    print()


def clique_pair_extended() -> None:
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.095)
    g = two_cliques(10, blob=480, rng=random.Random(7))
    res = run_query(g, 0, cfg)
    print(f"== same pair with a 480-node appendage (n={g.node_count}) ==")
    print(f"terminated={res.terminated} iterations={res.iterations}")
    print(f"candidate set size: {len(res.nn_set)}")
    print(f"touched {res.touched}/{g.node_count} nodes "
          f"({res.touched / g.node_count:.1%} of the graph)")
    print()


def sparse_vs_dense() -> None:
    # Node 0 joins a 12-node chain (sparse side, ids 1..12) and a 12-clique
    # (dense side, ids 13..24).
    edges = [(0, 1, 1.0)] + [(i, i + 1, 1.0) for i in range(1, 12)]
    dense = list(range(13, 25))
    edges += [(0, dense[0], 1.0)]
    edges += [(u, v, 1.0) for k, u in enumerate(dense) for v in dense[k + 1:]]
    g = from_edges(edges)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.1)
    res = run_query(g, 0, cfg)
    sparse_active = [i for i in res.nn_set if 1 <= i <= 12]
    dense_active = [i for i in res.nn_set if i >= 13]
    print("== sparse chain vs dense clique around the seed ==")
    print(f"terminated={res.terminated} iterations={res.iterations}")
    print(f"sparse-side active nodes: {len(sparse_active)} {sparse_active}")
    print(f"dense-side active nodes:  {len(dense_active)} {dense_active}")
    print("charge spread over few edges goes further; the dense side dilutes it")


def main() -> None:
    clique_pair()
    clique_pair_extended()
    sparse_vs_dense()


if __name__ == "__main__":
    main()
