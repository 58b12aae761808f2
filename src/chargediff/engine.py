"""Query driver: runs a diffusion to termination and extracts neighbors.

Also owns the one config check, :func:`check_config`, which every CLI
subcommand and every run makes. It returns the config's warnings and its
:class:`Bounds`: the largest candidate set, the most touched nodes and, under
RETENTION, a round count, which the invariant tests check runs against.
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
    emitters,
    excess_total,
    init_state,
    step,
)
from .graph import Graph


class ConfigError(ValueError):
    """Config parameter outside its valid range."""


@dataclass
class QueryResult:
    """Outcome of one diffusion query.

    ``nn_set`` lists every node that was ever active, ascending;
    ``final_charges`` maps each node holding nonzero charge at the end to its
    charge, in ascending id order. ``excess_trace`` is populated for the
    EXCESS variant only.

    ``stop_reason`` says why the run loop ended: the reason
    :func:`should_stop` named (``"quiescent"``: no active node can
    transfer; ``"excess_below_delta"``: EXCESS only), or
    ``"iteration_cap"``. Three facts follow from the stored ones and are
    properties, not fields: ``terminated`` (the run stopped before the
    cap), ``touched`` (the nodes of ``final_charges``) and ``ranking``
    (sorted when read, at O(touched log touched) a read).

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
    stop_reason: str
    excess_trace: list[float] | None = None
    cycle_start: int | None = None
    period: int | None = None

    @property
    def terminated(self) -> bool:
        """Whether the stop test ended the run, rather than the iteration cap."""
        return self.stop_reason != "iteration_cap"

    @property
    def touched(self) -> int:
        """How many nodes hold nonzero charge at the end."""
        return len(self.final_charges)

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
    """Worst-case sizes of a run under a config on a graph, from :func:`check_config`.

    With d_max the graph's largest out-degree:

    - ``max_core_size``, floor(1/((1-alpha)*epsilon)), bounds the ever-active
      set, ``nn_set``.
    - ``max_touched``, max_core_size * (d_max + 1), bounds the nodes that hold
      charge at the end. Charge moves only from a sender, an active node, to
      its out-neighbours, and the seed is active at round 0, so every charged
      node is ever-active or an out-neighbour of an ever-active sender: at
      most len(nn_set) * (d_max + 1) nodes.
    - ``max_iterations_bound``, (1 - (1-alpha)*epsilon) * d_max /
      (alpha * (1-alpha) * epsilon**2), is the rounds to a ``quiescent``
      stop under RETENTION. No proof of it is written; it held in every
      run of the sweeps that checked it. It is None under EXCESS, whose
      delta stop it does not bound (a 96-node path at alpha 0.5, epsilon
      0.1, delta 1e-3 stops at round 774 against 760).
    """

    max_core_size: int
    max_touched: int
    max_iterations_bound: float | None


def check_config(g: Graph, cfg: DiffusionConfig) -> tuple[list[str], Bounds | None]:
    """Check a config against a graph; return its warnings and its bounds.

    Out of range, in this order, raises ConfigError: alpha outside (0, 1),
    epsilon outside (0, 1) (not read by ``lazy``, which pins it to 0), delta
    outside (0, 1), delta not below epsilon under EXCESS, max_iterations
    below 1, and an alpha or epsilon so small that a bound is not finite.
    The bounds are None under ``lazy``, whose epsilon is 0. Warnings (not
    errors) flag graphs small enough that the run provably cannot terminate
    (n <= 1/epsilon) or that fall below the size precondition n >=
    1/((1-alpha) * epsilon) the candidate-set guarantees assume. It reads
    the graph's node count and ``max_degree`` only, so it costs O(1).
    """
    alpha, eps = cfg.alpha, cfg.epsilon
    if not 0.0 < alpha < 1.0:
        raise ConfigError(f"alpha must be in (0, 1), got {alpha}")
    if cfg.variant is not Variant.LAZY_WALK and not 0.0 < eps < 1.0:
        raise ConfigError(f"epsilon must be in (0, 1), got {eps}")
    if not 0.0 < cfg.delta < 1.0:
        raise ConfigError(f"delta must be in (0, 1), got {cfg.delta}")
    if cfg.variant is Variant.EXCESS and cfg.delta >= eps:
        raise ConfigError(f"delta must be below epsilon, got delta={cfg.delta} epsilon={eps}")
    if cfg.max_iterations < 1:
        raise ConfigError(f"max_iterations must be positive, got {cfg.max_iterations}")
    if cfg.variant is Variant.LAZY_WALK:
        return [], None

    d_max = g.max_degree
    iterations = None
    try:
        # The product underflows to 0 for a subnormal epsilon; floor(inf) overflows.
        core_limit = 1.0 / ((1.0 - alpha) * eps)
        # Decimal parameters often put the limit a few ulps under an integer;
        # nudge before flooring so that the intended integer survives.
        core = math.floor(core_limit + 1e-9)
        if cfg.variant is Variant.RETENTION:
            iterations = (1.0 - (1.0 - alpha) * eps) * d_max / (alpha * (1.0 - alpha) * eps * eps)
            if not math.isfinite(iterations):
                raise OverflowError
    except (OverflowError, ZeroDivisionError):
        raise ConfigError(f"alpha={alpha} and epsilon={eps} are too small for finite bounds") from None

    warnings = []
    n = g.node_count
    if n <= 1.0 / eps:
        warnings.append(
            f"n={n} <= 1/epsilon={1.0 / eps:g}: some node always stays "
            "above the threshold, so the run cannot terminate"
        )
    if n < core_limit:
        warnings.append(
            f"n={n} is below 1/((1-alpha)*epsilon)={core_limit:g}, the size precondition "
            "the candidate-set guarantees assume"
        )
    bounds = Bounds(max_core_size=core, max_touched=core * (d_max + 1), max_iterations_bound=iterations)
    return warnings, bounds


def should_stop(
    state: ChargeState, g: Graph, cfg: DiffusionConfig, *, excess: float | None = None
) -> str | None:
    """Why a run stops at this round-start state, or None while it goes on.

    EXCESS stops with ``"excess_below_delta"`` once total excess falls below
    delta; ``excess`` is that total when the caller already has it (the run
    loop passes the value it traced this round), otherwise it is computed
    here. RETENTION, and an EXCESS run not yet below delta, stop with
    ``"quiescent"`` when no active node can transfer (stuck active nodes do
    not keep a run alive): when the state has no senders. :func:`emitters`
    decides them in O(frontier) and keeps them on the state for the round
    that follows. ``lazy`` is RETENTION at epsilon 0: it stops
    ``"quiescent"`` once no node that holds charge has out-edges. The
    excess test comes first, so a state that passes both is
    ``"excess_below_delta"``. Either reason is truthy and None is not, so
    the value also reads as a bool.
    """
    if cfg.variant is Variant.EXCESS:
        if excess is None:
            excess = excess_total(state, cfg)
        if excess < cfg.delta:
            return "excess_below_delta"
    return None if len(emitters(state, g, cfg)) else "quiescent"


def build_result(
    x: Mapping[int, float],
    ever_active: set[int],
    seed: int,
    iterations: int,
    stop_reason: str,
    excess_trace: list[float] | None = None,
    cycle_start: int | None = None,
    period: int | None = None,
) -> QueryResult:
    """Assemble a QueryResult from the run loop's final charge vector.

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
        stop_reason=stop_reason,
        excess_trace=excess_trace,
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

    It checks the config, starts from unit charge on ``seed``, keeps the
    excess trace, and before each round applies the stop predicate and then
    the iteration cap. The result's ``stop_reason`` is the reason
    :func:`should_stop` named, or ``"iteration_cap"``.
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
    not the cap.
    """
    check_config(g, cfg)
    state = init_state(g, seed)
    trace = [] if cfg.variant is Variant.EXCESS else None
    saved, saved_t, reach = state.x, 0, 1
    cycle_start = period = None
    while True:
        if trace is not None:
            trace.append(excess_total(state, cfg))
        reason = should_stop(state, g, cfg, excess=trace[-1] if trace else None)
        if reason or state.t >= cfg.max_iterations:
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
    return build_result(
        state.x, state.ever_active, seed, state.t, reason or "iteration_cap", trace, cycle_start, period
    )


def run_query(g: Graph, seed: int, cfg: DiffusionConfig) -> QueryResult:
    """Drive the configured diffusion from ``seed`` until it stops.

    Stops when :func:`should_stop` names a reason or when the iteration
    cap is hit (``stop_reason`` ``"iteration_cap"``, not ``terminated``).
    The cap is a legitimate outcome, not an error: graphs with
    n <= 1/epsilon never terminate by design. Such a run settles into a
    repeating charge vector, and the run loop jumps over its repeats to the
    cap, so it costs the rounds to settle plus about one period, not the
    cap.
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
