"""Reference code that only the tests call.

The dense brute-force twins recode the update rules from scratch on dense
numpy vectors, deliberately sharing no arithmetic helpers with the sparse
modules, so the two paths can cross-check each other. Sized for desk-scale
graphs only. The audits check where a finished query's charge sits relative
to its ever-active set. The round player plays every round of a run with
``step``, to check the records a repeating run keeps once expanded.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from chargediff.diffusion import DiffusionConfig, Variant, init_state, step
from chargediff.engine import QueryResult, should_stop
from chargediff.graph import Graph

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


@dataclass
class PeripheryReport:
    """Where the final charge sits relative to the ever-active set.

    ``halo`` is the one-hop out-neighborhood of the ever-active set H.
    ``stray_charged`` lists charged nodes outside H and its halo (always
    empty for a correct run). ``within_epsilon`` records the guaranteed
    bound charge <= epsilon on halo nodes; ``within_retained_floor`` records
    the stronger charge < epsilon * (1 - alpha) claim, which close fixtures
    like a star violate, so it is reported rather than asserted.
    """

    halo: list[int]
    stray_charged: list[int]
    outside_zero: bool
    max_halo_charge: float
    within_epsilon: bool
    within_retained_floor: bool


def halo_of(g: Graph, nodes: set[int]) -> set[int]:
    """Out-neighbors of ``nodes`` that are not themselves members."""
    halo: set[int] = set()
    for i in nodes:
        for j in g.targets[i]:
            if j not in nodes:
                halo.add(j)
    return halo


def nn_subgraph_connected(g: Graph, result: QueryResult) -> bool:
    """Whether the subgraph induced by nn_set plus the seed is connected.

    Edge directions are ignored for the connectivity check.
    """
    nodes = set(result.nn_set) | {result.seed}
    undirected: dict[int, set[int]] = {i: set() for i in nodes}
    for i in nodes:
        for j in g.targets[i]:
            if j in nodes:
                undirected[i].add(j)
                undirected[j].add(i)
    start = result.seed
    seen = {start}
    frontier = [start]
    while frontier:
        i = frontier.pop()
        for j in undirected[i]:
            if j not in seen:
                seen.add(j)
                frontier.append(j)
    return seen == nodes


def periphery_check(g: Graph, result: QueryResult, cfg: DiffusionConfig) -> PeripheryReport:
    """Audit where the final charge ended up, relative to the active core.

    Requires a terminated run. Checks that every charged node outside the
    ever-active set H lies in its one-hop halo, that everything beyond the
    halo holds exactly zero charge, and records the halo's maximum charge
    against both the guaranteed epsilon bound and the stricter
    epsilon * (1 - alpha) figure.
    """
    if not result.terminated:
        raise ValueError("periphery check requires a terminated run")
    core = set(result.nn_set)
    halo = halo_of(g, core)
    charged = set(result.final_charges)
    stray = sorted(charged - core - halo)
    halo_charges = [result.final_charges.get(i, 0.0) for i in halo]
    max_halo = max(halo_charges, default=0.0)
    return PeripheryReport(
        halo=sorted(halo),
        stray_charged=stray,
        outside_zero=not stray,
        max_halo_charge=max_halo,
        within_epsilon=max_halo <= cfg.epsilon,
        within_retained_floor=max_halo < cfg.epsilon * (1.0 - cfg.alpha),
    )


def play(g, seed, cfg):
    """Every round up to the stop or the cap, with the simulator's stats of each.

    Returns the final state, whether the run stopped, the nodes ever above
    epsilon, the excess before each round and one
    ``(round, messages, active, total charge as hex)`` row per round. Senders,
    activity and excess are read straight off the charge vector.
    """
    eps = cfg.epsilon
    lazy = cfg.variant is Variant.LAZY_WALK
    state = init_state(g, seed)
    activated = {seed}
    trace, rows = [], []
    while True:
        x = state.x
        trace.append(sum([x[i] - eps for i in sorted(x) if x[i] > eps], 0.0))
        terminated = should_stop(state, g, cfg)
        if terminated or state.t >= cfg.max_iterations:
            return state, terminated, activated, trace, rows
        if lazy:
            senders = [j for j in range(g.node_count) if g.degrees[j] > 0]
            active = g.node_count
        else:
            senders = [j for j, xj in x.items() if xj > eps and g.degrees[j] > 0]
            active = sum(xj > eps for xj in x.values())
        state = step(state, g, cfg)
        total = sum(state.x[i] for i in sorted(state.x))
        rows.append((state.t, sum(g.degrees[j] for j in senders), active, total.hex()))
        activated |= {i for i, xi in state.x.items() if xi > eps}


def expand(entries, cycle_start, period, length):
    """A repeating run's kept entries, ``length`` of them: from ``cycle_start`` on they repeat ``period``."""
    if period is None:
        return entries
    return [entries[i if i < cycle_start else cycle_start + (i - cycle_start) % period] for i in range(length)]


def played_rows(stats):
    """The simulator's round stats in :func:`play`'s row form."""
    return [(r, s.messages_sent, s.active_count, s.total_charge.hex()) for r, s in enumerate(stats, 1)]
