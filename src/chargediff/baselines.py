"""Dense brute-force twins and ranking baselines.

Everything here recodes the update rules from scratch on dense numpy
vectors, deliberately sharing no arithmetic helpers with the sparse modules,
so the two paths can cross-check each other. Sized for desk-scale graphs
only.
"""

from __future__ import annotations

import numpy as np

from .diffusion import DiffusionConfig, Variant
from .graph import Graph

DESK_SCALE_LIMIT = 2000


def _guard(g: Graph) -> None:
    if g.node_count > DESK_SCALE_LIMIT:
        raise ValueError(f"dense oracle limited to {DESK_SCALE_LIMIT} nodes, got {g.node_count}")


def _weight_matrix(g: Graph) -> np.ndarray:
    a = np.zeros((g.node_count, g.node_count))
    for i in range(g.node_count):
        for j, w in zip(g.targets[i], g.weights[i]):
            a[i, j] = w
    return a


def _row_normalized(a: np.ndarray) -> np.ndarray:
    out_sums = a.sum(axis=1)
    p = np.zeros_like(a)
    has_out = out_sums > 0
    p[has_out] = a[has_out] / out_sums[has_out, None]
    return p


def oracle_step(x: np.ndarray, g: Graph, cfg: DiffusionConfig) -> np.ndarray:
    """One round of the configured variant on a dense charge vector.

    Same map as the sparse steps, written as masked vector arithmetic: a
    transmitting node's outgoing charge is subtracted in one shot and receipts
    arrive through a row-stochastic transfer matrix.
    """
    _guard(g)
    x = np.asarray(x, dtype=float)
    if x.shape != (g.node_count,):
        raise ValueError(f"charge vector has shape {x.shape}, expected ({g.node_count},)")
    a = _weight_matrix(g)
    has_out = a.sum(axis=1) > 0

    if cfg.variant is Variant.LAZY_WALK:
        sends = has_out
        outgoing = np.where(sends, 0.5 * x, 0.0)
    elif cfg.variant is Variant.RETENTION:
        sends = (x > cfg.epsilon) & has_out
        outgoing = np.where(sends, cfg.alpha * x, 0.0)
    elif cfg.variant is Variant.EXCESS:
        sends = (x > cfg.epsilon) & has_out
        outgoing = np.where(sends, cfg.alpha * (x - cfg.epsilon), 0.0)
    else:
        raise ValueError(f"unknown variant {cfg.variant}")

    received = outgoing @ _row_normalized(a)
    return x - outgoing + received


def lazy_walk_matrix_power(g: Graph, seed: int, steps: int) -> np.ndarray:
    """Apply the half-stay, half-move transition operator ``steps`` times.

    Nodes without out-edges keep their full mass, matching the stuck-node
    rule of the sparse path.
    """
    _guard(g)
    if not 0 <= seed < g.node_count:
        raise ValueError(f"seed {seed} out of range")
    if steps < 0:
        raise ValueError(f"steps must be >= 0, got {steps}")
    a = _weight_matrix(g)
    p = _row_normalized(a)
    has_out = a.sum(axis=1) > 0
    m = 0.5 * np.eye(g.node_count) + 0.5 * p
    m[~has_out] = np.eye(g.node_count)[~has_out]
    x = np.zeros(g.node_count)
    x[seed] = 1.0
    for _ in range(steps):
        x = x @ m
    return x


def personalized_pagerank(
    g: Graph,
    seed: int,
    teleport: float = 0.15,
    tol: float = 1e-12,
    max_iterations: int = 100_000,
) -> np.ndarray:
    """Stationary distribution of a walk that teleports back to the seed.

    Power iteration of pi' = teleport * e_seed + (1 - teleport) * pi P, with
    the mass of dangling nodes redirected to the seed. Raises RuntimeError if
    the L1 change has not fallen below ``tol`` within ``max_iterations``.
    """
    _guard(g)
    if not 0 <= seed < g.node_count:
        raise ValueError(f"seed {seed} out of range")
    if not 0.0 < teleport < 1.0:
        raise ValueError(f"teleport must be in (0, 1), got {teleport}")
    a = _weight_matrix(g)
    p = _row_normalized(a)
    dangling = a.sum(axis=1) == 0

    pi = np.zeros(g.node_count)
    pi[seed] = 1.0
    for _ in range(max_iterations):
        follow = pi @ p
        follow[seed] += pi[dangling].sum()
        nxt = (1.0 - teleport) * follow
        nxt[seed] += teleport
        if np.abs(nxt - pi).sum() < tol:
            return nxt
        pi = nxt
    raise RuntimeError(f"pagerank power iteration did not converge in {max_iterations} rounds")


def rank_nodes(scores: np.ndarray) -> list[int]:
    """Node ids by score descending, ties broken by ascending id."""
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [i for i in order if scores[i] > 0.0]


def overlap_at_k(a: list[int], b: list[int], k: int) -> float:
    """|top-k(a) intersect top-k(b)| / k."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    return len(set(a[:k]) & set(b[:k])) / k
