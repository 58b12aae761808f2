"""Query driver: runs a diffusion to termination and extracts neighbors.

Also owns config validation against the termination preconditions and the
closed-form size bounds (largest possible candidate set, touched-node count,
and iteration counts) that the invariant tests check every run against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Mapping

from .diffusion import (
    ChargeState,
    DiffusionConfig,
    Variant,
    excess_total,
    init_state,
    step,
)
from .graph import Graph, max_degree


class ConfigError(ValueError):
    """Config parameter outside its valid range."""


@dataclass
class QueryResult:
    """Outcome of one diffusion query.

    ``nn_set`` lists every node that was ever active, ascending; ``ranking``
    orders nonzero-charge nodes by final charge descending with ascending-id
    tie-break; ``touched`` counts nodes holding nonzero charge at the end.
    ``excess_trace`` is populated for the EXCESS variant only.
    """

    seed: int
    nn_set: list[int]
    ranking: list[tuple[int, float]]
    final_charges: dict[int, float]
    iterations: int
    terminated: bool
    touched: int
    excess_trace: list[float] | None = None


@dataclass(frozen=True)
class Bounds:
    """Closed-form worst-case sizes implied by a config and a graph."""

    max_core_size: int
    max_touched: int
    max_iterations_bound: float
    excess_stop_bound: float


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


def validate_config(g: Graph, cfg: DiffusionConfig) -> list[str]:
    """Range-check a config and return termination warnings.

    Out-of-range alpha, epsilon, delta, or max_iterations raise ConfigError.
    Warnings (not errors) flag graphs small enough that the run provably
    cannot terminate (n <= 1/epsilon) or that fall below the size
    precondition n >= 1/((1-alpha) * epsilon) the candidate-set guarantees
    assume.
    """
    if not 0.0 < cfg.alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {cfg.alpha}")
    # DiffusionConfig pins a lazy walk's epsilon to 0, so only the other rules are checked.
    if cfg.variant is not Variant.LAZY_WALK and not 0.0 < cfg.epsilon < 1.0:
        raise ConfigError(f"epsilon must be in (0, 1), got {cfg.epsilon}")
    if cfg.variant is Variant.EXCESS:
        if not 0.0 < cfg.delta < 1.0:
            raise ConfigError(f"delta must be in (0, 1), got {cfg.delta}")
        if cfg.delta >= cfg.epsilon:
            raise ConfigError(f"delta must be below epsilon, got delta={cfg.delta} epsilon={cfg.epsilon}")
    if cfg.max_iterations < 1:
        raise ConfigError(f"max_iterations must be positive, got {cfg.max_iterations}")

    warnings = []
    n = g.node_count
    if cfg.epsilon > 0.0:
        if n <= 1.0 / cfg.epsilon:
            warnings.append(
                f"n={n} <= 1/epsilon={1.0 / cfg.epsilon:g}: some node always stays "
                "above the threshold, so the run cannot terminate"
            )
        if n < 1.0 / ((1.0 - cfg.alpha) * cfg.epsilon):
            warnings.append(
                f"n={n} is below 1/((1-alpha)*epsilon)="
                f"{1.0 / ((1.0 - cfg.alpha) * cfg.epsilon):g}, the size precondition "
                "the candidate-set guarantees assume"
            )
    return warnings


def should_stop(
    state: ChargeState, g: Graph, cfg: DiffusionConfig, *, excess: float | None = None
) -> bool:
    """Termination predicate evaluated on a round-start state.

    RETENTION stops when no active node can transfer (stuck active nodes do
    not keep a run alive), which it reads off the state's frontier in
    O(frontier). EXCESS additionally stops once total excess falls below
    delta; ``excess`` is that total when the caller already has it (the run
    loop passes the value it traced this round), otherwise it is computed
    here. LAZY_WALK never stops on its own; only the iteration cap ends it.
    """
    if cfg.variant is Variant.LAZY_WALK:
        return False
    if cfg.variant is Variant.EXCESS:
        if excess is None:
            excess = excess_total(state, cfg)
        if excess < cfg.delta:
            return True
    degrees = g.degrees
    return not any(degrees[i] > 0 for i in state.active(cfg.epsilon))


def build_result(
    x: Mapping[int, float],
    ever_active: set[int],
    seed: int,
    iterations: int,
    terminated: bool,
    excess_trace: list[float] | None = None,
) -> QueryResult:
    """Assemble a QueryResult from a final charge vector.

    Shared with the distributed simulator so both paths derive rankings and
    counts identically.
    """
    final = {i: x[i] for i in sorted(x) if x[i] > 0.0}
    ranking = sorted(final.items(), key=lambda kv: (-kv[1], kv[0]))
    return QueryResult(
        seed=seed,
        nn_set=sorted(ever_active),
        ranking=ranking,
        final_charges=final,
        iterations=iterations,
        terminated=terminated,
        touched=len(final),
        excess_trace=excess_trace,
    )


def _run(
    g: Graph,
    seed: int,
    cfg: DiffusionConfig,
    advance: Callable[[ChargeState], ChargeState],
    rows: list | None = None,
) -> QueryResult:
    """The run loop shared by :func:`run_query` and the message-passing simulator.

    It validates the config, starts from unit charge on ``seed``, keeps the
    excess trace, and before each round applies the stop predicate
    (terminated=True) and then the iteration cap (terminated=False).
    ``advance`` plays one round and returns the next state: :func:`step`
    for the centralized engine, the mail-and-fold round for the simulator.

    A round's outcome depends only on the round-start charge vector ``x``
    (the frontier is derived from it; ``ever_active`` never feeds back), so
    once ``x`` repeats the run is periodic and can never stop. Brent's
    cycle detection watches for that: one saved vector, replaced whenever
    the distance to it reaches the next power of two, is compared with each
    new one by dict ``==`` (bitwise, as charges are never negative or NaN;
    usually settled by the lengths alone). On a hit at round t with period
    lam, the loop skips the whole periods that fit under the cap, repeats
    the excess trace of one period for each, and plays the fewer than lam
    rounds left as usual. A periodic capped run thus costs its settling
    rounds plus a period or two, and still reports the cap as its
    ``iterations``. ``rows``, when given, is a caller's list of per-round
    records that ``advance`` appends to, indexed like the trace (entry i
    for the round that starts at round i); the skip repeats its period of
    rows just as it repeats the trace's.
    """
    validate_config(g, cfg)
    state = init_state(g, seed)
    trace = [] if cfg.variant is Variant.EXCESS else None
    saved, saved_t, reach = state.x, 0, 1
    while True:
        if trace is not None:
            trace.append(excess_total(state, cfg))
        terminated = should_stop(state, g, cfg, excess=trace[-1] if trace else None)
        if terminated or state.t >= cfg.max_iterations:
            break
        state = advance(state)
        if state.x == saved:
            period = state.t - saved_t
            copies = (cfg.max_iterations - state.t) // period
            for records in (trace, rows):
                if records is not None:
                    records.extend(records[saved_t:state.t] * copies)
            state = replace(state, t=state.t + copies * period)
        elif state.t - saved_t == reach:
            saved, saved_t, reach = state.x, state.t, 2 * reach
    return build_result(state.x, state.ever_active, seed, state.t, terminated, trace)


def run_query(g: Graph, seed: int, cfg: DiffusionConfig) -> QueryResult:
    """Drive the configured diffusion from ``seed`` until it stops.

    Stops when :func:`should_stop` fires (terminated=True) or when the
    iteration cap is hit (terminated=False). The cap is a legitimate outcome,
    not an error: graphs with n <= 1/epsilon never terminate by design.
    Such a run settles into a repeating charge vector, and the run loop
    jumps over its repeats to the cap, so it costs the rounds to settle
    plus about one period, not the cap.
    """
    return _run(g, seed, cfg, lambda state: step(state, g, cfg))


def top_k(result: QueryResult, k: int, include_seed: bool = False) -> list[int]:
    """First k ranked node ids, optionally dropping the seed.

    Returns fewer than k ids when fewer nodes were touched.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    picked = []
    for node, _ in result.ranking:
        if not include_seed and node == result.seed:
            continue
        picked.append(node)
        if len(picked) == k:
            break
    return picked


def _floor_tol(value: float) -> int:
    # Bound formulas like 1/((1-alpha)*epsilon) often sit a few ulps under an
    # integer for decimal parameters; nudge before flooring so the intended
    # integer survives.
    return math.floor(value + 1e-9)


def compute_bounds(g: Graph, cfg: DiffusionConfig) -> Bounds:
    """Worst-case sizes for a terminating run under this config.

    max_core_size bounds the ever-active set, max_touched the nodes that can
    hold nonzero charge, max_iterations_bound the rounds to termination, and
    excess_stop_bound the rounds for total excess to decay below delta under
    a geometric alpha rate.
    """
    if cfg.epsilon <= 0.0:
        raise ConfigError("bounds require epsilon > 0")
    validate_config(g, cfg)
    alpha, eps = cfg.alpha, cfg.epsilon
    d_max = max_degree(g)
    core = _floor_tol(1.0 / ((1.0 - alpha) * eps))
    touched = _floor_tol(d_max / (alpha * eps))
    iter_bound = (1.0 - (1.0 - alpha) * eps) * d_max / (alpha * (1.0 - alpha) * eps * eps)
    stop_bound = math.log(cfg.delta) / math.log(alpha)
    return Bounds(
        max_core_size=core,
        max_touched=touched,
        max_iterations_bound=iter_bound,
        excess_stop_bound=stop_bound,
    )


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
