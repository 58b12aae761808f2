"""Query driver: runs a diffusion to termination and extracts neighbors.

Also owns config validation against the termination preconditions and the
closed-form size bounds (largest possible candidate set, touched-node count,
and iteration counts) that the invariant tests check every run against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from operator import itemgetter
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

    ``nn_set`` lists every node that was ever active, ascending;
    ``final_charges`` maps each node holding nonzero charge at the end to its
    charge, in ascending id order; ``touched`` counts those nodes.
    ``ranking`` is computed from ``final_charges`` when it is read, at
    O(touched log touched) a read, and is not stored. ``excess_trace`` is
    populated for the EXCESS variant only.

    ``stop_reason`` says why the run loop ended: ``"quiescent"`` (no active
    node can transfer), ``"excess_below_delta"`` (EXCESS only) or
    ``"iteration_cap"``; the first two are the runs with ``terminated``.
    When the charge vector repeated, ``cycle_start`` is the round whose
    vector came back and ``period`` the rounds it took; both are None when
    no repeat was found. A run that repeated keeps its excess trace, and the
    simulator its round rows, only up to the repeat: ``cycle_start + period``
    entries. The entries of the rounds after that follow by the rule: entry
    ``i >= cycle_start`` equals entry ``cycle_start + (i - cycle_start) %
    period``, for the ``iterations + 1`` trace entries and the
    ``iterations`` rows of playing every round.
    """

    seed: int
    nn_set: list[int]
    final_charges: dict[int, float]
    iterations: int
    terminated: bool
    touched: int
    excess_trace: list[float] | None = None
    stop_reason: str | None = None
    cycle_start: int | None = None
    period: int | None = None

    @property
    def ranking(self) -> list[tuple[int, float]]:
        """``(node, charge)`` pairs, charge descending, equal charges by ascending id.

        Sorts the items of ``final_charges`` by charge alone with a C-level
        key. Python's sort is stable, and ``reverse=True`` keeps it stable
        (equal items stay in input order), so nodes of equal charge stay in
        the ascending id order of ``final_charges``: the same ranking as a
        sort on ``(-charge, id)``.
        """
        return sorted(self.final_charges.items(), key=itemgetter(1), reverse=True)


@dataclass(frozen=True)
class Bounds:
    """Closed-form worst-case sizes implied by a config and a graph."""

    max_core_size: int
    max_touched: int
    max_iterations_bound: float
    excess_stop_bound: float


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
    stop_reason: str | None = None,
    cycle_start: int | None = None,
    period: int | None = None,
) -> QueryResult:
    """Assemble a QueryResult from a final charge vector.

    Shared with the distributed simulator so both paths derive final
    charges and counts identically.

    ``final_charges`` is built in ascending id order, of plain ints and
    floats, whether ``x`` is a dict or :class:`chargediff.csr.Charges`;
    :attr:`QueryResult.ranking` relies on that order for its ties.
    """
    if isinstance(x, dict):
        final = {i: x[i] for i in sorted(x) if x[i] > 0.0}
    else:
        final = x.positive()
    return QueryResult(
        seed=seed,
        nn_set=sorted(ever_active),
        final_charges=final,
        iterations=iterations,
        terminated=terminated,
        touched=len(final),
        excess_trace=excess_trace,
        stop_reason=stop_reason,
        cycle_start=cycle_start,
        period=period,
    )


def _run(
    g: Graph,
    seed: int,
    cfg: DiffusionConfig,
    advance: Callable[[ChargeState], ChargeState],
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
    new one by ``==`` on the charge vectors, dicts or arrays alike, in
    O(touched) (bitwise, as charges are never negative or NaN; usually
    settled by the lengths alone). On a hit at round t, where the saved
    vector is that of round t0, the period is lam = t - t0: the loop skips
    the whole periods that fit under the cap, plays the fewer than lam
    rounds left for the final charges, and ends. t0 and lam are the result's
    ``cycle_start`` and ``period``, and its ``iterations`` is the cap. The
    excess trace holds the t0 + lam entries of rounds 0 to t - 1, and a
    caller that records each ``advance`` keeps its first t0 + lam records;
    those of every later round follow by the rule in :class:`QueryResult`. A
    periodic capped run thus costs its settling rounds plus a period or two,
    not the cap. The result's ``stop_reason`` says which test ended the loop.
    """
    validate_config(g, cfg)
    state = init_state(g, seed)
    trace = [] if cfg.variant is Variant.EXCESS else None
    saved, saved_t, reach = state.x, 0, 1
    cycle_start = period = None
    while True:
        if trace is not None:
            trace.append(excess_total(state, cfg))
        terminated = should_stop(state, g, cfg, excess=trace[-1] if trace else None)
        if terminated or state.t >= cfg.max_iterations:
            break
        state = advance(state)
        if state.x == saved:
            cycle_start, period = saved_t, state.t - saved_t
            state = replace(state, t=cfg.max_iterations - (cfg.max_iterations - state.t) % period)
            while state.t < cfg.max_iterations:
                state = advance(state)
            break
        elif state.t - saved_t == reach:
            saved, saved_t, reach = state.x, state.t, 2 * reach
    if not terminated:
        reason = "iteration_cap"
    elif trace is not None and trace[-1] < cfg.delta:
        # should_stop tests the excess before the frontier.
        reason = "excess_below_delta"
    else:
        reason = "quiescent"
    return build_result(
        state.x, state.ever_active, seed, state.t, terminated, trace, reason, cycle_start, period
    )


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

