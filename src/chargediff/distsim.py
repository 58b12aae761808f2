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


@dataclass
class MessageReport:
    """Totals from a run compared against the closed-form bounds."""

    total_messages: int
    peak_round_messages: int
    message_bound: int
    max_touched: int
    violations: list[str]


def run_distributed(
    g: Graph, seed: int, cfg: DiffusionConfig
) -> tuple[QueryResult, list[RoundStats]]:
    """Simulate the diffusion as lockstep rounds of message passing.

    Returns the query result (identical to the centralized run, float for
    float) and one :class:`RoundStats` row per round, the row of round r at
    position r - 1. A round that would emit zero messages is never run or
    recorded.

    Only the nodes that send or receive mail are folded, so a round costs
    O(emitters * degree + touched), independent of graph size; the
    conservation check and the total charge still walk the charged nodes.
    LAZY_WALK is the exception: every node with out-edges transmits, so its
    rounds cost O(n + arcs).

    A capped run whose charge vector repeats is cut short by the shared run
    loop (see :func:`chargediff.engine._run`), which repeats the rows of one
    period for the skipped rounds. So there is still one row per iteration,
    equal to the row of playing that round; repeated rows are shared objects.
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

    return _run(g, seed, cfg, advance, stats), stats


def round_stats_table(stats: list[RoundStats]) -> str:
    """Tab-separated table of per-round stats, header included."""
    lines = ["round\tmessages\tactive\ttotal_charge"]
    for r, row in enumerate(stats, 1):
        lines.append(f"{r}\t{row.messages_sent}\t{row.active_count}\t{row.total_charge!r}")
    return "\n".join(lines) + "\n"


def message_complexity_report(
    stats: list[RoundStats], bounds: Bounds, d_max: int, touched: int
) -> MessageReport:
    """Total up a run's messages and compare against the computed bounds.

    The message bound is rounds * d_max * max_core_size (at most
    max_core_size transmitters per round, each with at most d_max
    out-edges). ``touched`` is the run's touched-node count, held against
    ``bounds.max_touched``. Each bound exceeded adds one line to
    ``violations``.
    """
    total = sum(s.messages_sent for s in stats)
    message_bound = len(stats) * d_max * bounds.max_core_size
    violations: list[str] = []
    if total > message_bound:
        violations.append(f"messages {total} exceed rounds*d_max*max_core_size = {message_bound}")
    if touched > bounds.max_touched:
        violations.append(f"touched {touched} exceeds max_touched {bounds.max_touched}")
    return MessageReport(
        total_messages=total,
        peak_round_messages=max((s.messages_sent for s in stats), default=0),
        message_bound=message_bound,
        max_touched=bounds.max_touched,
        violations=violations,
    )
