"""Synchronous message-passing twin of the centralized query driver.

Every node knows only its own charge and its out-edge list. A round has two
phases. In phase 1 each transmitting node splits its round-start charge once
and mails ``(sender, amount)`` along each out-edge into the round's inbox.
In phase 2, behind a barrier, each node that sent or received mail folds
its inbox, sorted by sender id, into the charge it kept; every other node
keeps its charge untouched. An omniscient coordinator, the centralized
engine's own run loop, holds the charge vector and applies the stop
predicate before each round, so iteration counts and every float in the
final charge vector match :func:`chargediff.engine.run_query` exactly, not
just approximately.

Real distributed termination detection is out of scope; the coordinator
stands in for it so that message accounting stays faithful.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diffusion import ChargeState, DiffusionConfig, Variant, emitters, splitter
from .engine import Bounds, QueryResult, _run
from .graph import Graph

# Not called here since the run loop moved into the engine. The benchmark's
# tracer wraps these names in this module (perfbench/run.py), so they stay.
from .engine import build_result, should_stop  # noqa: F401


@dataclass(frozen=True)
class RoundStats:
    """Accounting for one synchronous round; a list's entry i is round i + 1."""

    messages_sent: int
    active_count: int
    total_charge: float


def run_distributed(
    g: Graph, seed: int, cfg: DiffusionConfig
) -> tuple[QueryResult, list[RoundStats]]:
    """Simulate the diffusion as lockstep rounds of message passing.

    Returns the query result (identical to the centralized run, float for
    float) and one :class:`RoundStats` row per round played, the row of
    round r at position r - 1. RETENTION and EXCESS play a round only while
    some active node has out-edges, so each of their rows has messages; a
    LAZY_WALK run plays every round up to the cap, and on a graph without
    arcs each of its rows has 0 messages.

    Only the nodes that send or receive mail are folded, so a round costs
    O(emitters * degree + touched), independent of graph size; the
    conservation check and the total charge still walk the charged nodes.
    LAZY_WALK is the exception: every node with out-edges transmits, so its
    rounds cost O(n + arcs).

    A capped run whose charge vector repeats is cut short by the shared run
    loop (see :func:`chargediff.engine._run`), and its rows end at the
    repeat: there are ``cycle_start + period`` of them, and the row of each
    later round follows by the rule in :class:`chargediff.engine.QueryResult`.
    """
    stats: list[RoundStats] = []
    eps = cfg.epsilon
    split = splitter(cfg)

    def advance(state: ChargeState) -> ChargeState:
        x = state.x
        # Phase 1: emissions, all computed from the round-start charges. Each
        # sender splits once and keeps ``kept[j]``; ``inbox`` has a mailbox
        # for every node that sends or receives, in the order first touched.
        kept: dict[int, float] = {}
        inbox: dict[int, list[tuple[int, float]]] = {}
        messages = 0
        in_flight = 0.0
        senders = emitters(state, g, cfg)
        targets, out_ratios, degrees = g.targets, g.out_ratios, g.degrees
        # LAZY_WALK's senders on a graph with CSR rows are an int64 array;
        # the mailboxes are keyed by Python ints, as on any other graph.
        for j in senders if isinstance(senders, list) else senders.tolist():
            kept[j], sent = split(x.get(j, 0.0))
            inbox.setdefault(j, [])
            for target, ratio in zip(targets[j], out_ratios[j]):
                amount = sent * ratio
                inbox.setdefault(target, []).append((j, amount))
                in_flight += amount
            messages += degrees[j]

        if cfg.variant is Variant.LAZY_WALK:
            active_count = g.node_count
        else:
            active_count = len(state.active(eps))

        held = sum(kept.get(i, xi) for i, xi in x.items())
        if abs(held + in_flight - 1.0) > 1e-9:
            raise RuntimeError(
                f"charge leak at round {state.t + 1}: held={held!r} in_flight={in_flight!r}"
            )

        # Phase 2: barrier, then order-fixed inbox folds. A node left without
        # charge is dropped; every folded node above epsilon goes to
        # ``advance``, which takes the next frontier from them and the
        # round-start one.
        new_x = dict(x)
        above = []
        for i, mail in inbox.items():
            charge = kept.get(i, x.get(i, 0.0))
            for _, amount in sorted(mail):
                charge += amount
            if charge == 0.0:
                new_x.pop(i, None)
            else:
                new_x[i] = charge
                if charge > eps:
                    above.append(i)
        stats.append(
            RoundStats(
                messages_sent=messages,
                active_count=active_count,
                # Ascending ids, so the float does not depend on dict order.
                total_charge=sum(new_x[i] for i in sorted(new_x)),
            )
        )
        return state.advance(new_x, eps, above)

    result = _run(g, seed, cfg, advance)
    if result.period is not None:
        # The rounds played after the repeat, for the final charges only.
        del stats[result.cycle_start + result.period :]
    return result, stats


def round_stats_table(stats: list[RoundStats]) -> str:
    """Tab-separated table of per-round stats, header included."""
    lines = ["round\tmessages\tactive\ttotal_charge"]
    for r, row in enumerate(stats, 1):
        lines.append(f"{r}\t{row.messages_sent}\t{row.active_count}\t{row.total_charge!r}")
    return "\n".join(lines) + "\n"


def total_messages(stats: list[RoundStats], result: QueryResult) -> int:
    """Messages over all ``result.iterations`` rounds of a run and its rows.

    The rows of a run that repeated end at the repeat; the rounds after it
    repeat its last ``period`` rows, whole periods first and then a part of
    one.
    """
    total = sum(s.messages_sent for s in stats)
    if result.period is None:
        return total
    cycle = [s.messages_sent for s in stats[result.cycle_start :]]
    periods, rest = divmod(result.iterations - len(stats), result.period)
    return total + periods * sum(cycle) + sum(cycle[:rest])


def message_complexity_report(
    stats: list[RoundStats], result: QueryResult, bounds: Bounds, d_max: int
) -> dict:
    """Total up a run's messages and compare against the computed bounds.

    The message bound is rounds * d_max * max_core_size (at most
    max_core_size transmitters per round, each with at most d_max
    out-edges), over the run's ``iterations``. The run's touched-node count
    is held against ``bounds.max_touched``. Each bound exceeded adds one
    line to ``violations``. The peak is the most messages of a stored row,
    as every later round repeats one of them.
    """
    total = total_messages(stats, result)
    message_bound = result.iterations * d_max * bounds.max_core_size
    violations: list[str] = []
    if total > message_bound:
        violations.append(f"messages {total} exceed rounds*d_max*max_core_size = {message_bound}")
    if result.touched > bounds.max_touched:
        violations.append(f"touched {result.touched} exceeds max_touched {bounds.max_touched}")
    return {
        "total_messages": total,
        "peak_round_messages": max((s.messages_sent for s in stats), default=0),
        "message_bound": message_bound,
        "max_touched": bounds.max_touched,
        "violations": violations,
    }
