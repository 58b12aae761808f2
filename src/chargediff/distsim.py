"""Synchronous message-passing twin of the centralized query driver.

Every node is an independent actor holding only its own charge and its
out-edge list. A round has two phases: all transmitting nodes emit one
message per out-edge (phase 1), then every node folds its inbox into its
charge in ascending sender-id order (phase 2, behind a barrier). An
omniscient coordinator, the centralized engine's own run loop, applies the
stop predicate before each round, so iteration counts and every float in the
final charge vector match :func:`chargediff.engine.run_query` exactly, not
just approximately.

Real distributed termination detection is out of scope; the coordinator
stands in for it so that message accounting stays faithful.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .diffusion import ChargeState, DiffusionConfig, Variant, emitters, splitter
from .engine import Bounds, QueryResult, _run
from .graph import Graph

# Not called here since the run loop moved into the engine. The benchmark's
# tracer wraps these names in this module (perfbench/run.py), so they stay.
from .engine import build_result, should_stop  # noqa: F401


@dataclass
class NodeActor:
    """One node's local state: charge, out-edges, and a mailbox."""

    id: int
    charge: float
    targets: tuple[int, ...]
    ratios: tuple[float, ...]
    inbox: list[tuple[int, float]] = field(default_factory=list)

    def emit(self, sent: float) -> list[tuple[int, tuple[int, float]]]:
        """Messages (target, (sender, amount)) for this round, one per out-edge.

        ``sent`` is the share of this node's charge that the run's
        :func:`chargediff.diffusion.splitter` gives away; each out-edge
        carries its out-ratio of it.
        """
        return [
            (self.targets[k], (self.id, sent * self.ratios[k]))
            for k in range(len(self.targets))
        ]

    def fold_inbox(self, kept: float) -> None:
        """Start from the kept charge, then add receipts sorted by sender id."""
        acc = kept
        for _, amount in sorted(self.inbox):
            acc += amount
        self.charge = acc
        self.inbox.clear()


@dataclass(frozen=True)
class RoundStats:
    """Accounting for one synchronous round."""

    round_index: int
    messages_sent: int
    active_count: int
    total_charge: float


@dataclass
class MessageReport:
    """Totals from a run compared against the closed-form bounds."""

    total_messages: int
    rounds: int
    peak_round_messages: int
    message_bound: float | None
    messages_within_bound: bool | None
    touched: int | None
    max_touched: int
    touched_within_bound: bool | None
    violations: list[str]


def run_distributed(
    g: Graph, seed: int, cfg: DiffusionConfig
) -> tuple[QueryResult, list[RoundStats]]:
    """Simulate the diffusion as lockstep rounds of per-node actors.

    Returns the query result (identical to the centralized run, float for
    float) and per-round message statistics. A round that would emit zero
    messages is never run or recorded.

    Actors exist only for nodes that hold charge or have mail waiting, so a
    round costs O(emitters * degree + touched), independent of graph size.
    LAZY_WALK is the exception: every node with out-edges transmits, so its
    rounds cost O(n + arcs).

    A capped run whose charge vector repeats is cut short by the shared run
    loop (see :func:`chargediff.engine._run`): the skipped rounds repeat
    the stats of one period with shifted ``round_index``, so there is still
    one entry per iteration and the stats equal those of playing every round.
    """
    actors: dict[int, NodeActor] = {}
    stats: list[RoundStats] = []

    def actor(i: int) -> NodeActor:
        a = actors.get(i)
        if a is None:
            a = actors[i] = NodeActor(id=i, charge=0.0, targets=g.targets[i], ratios=g.out_ratios[i])
        return a

    eps = cfg.epsilon
    split = splitter(cfg)

    def advance(state: ChargeState) -> ChargeState:
        x = state.x
        if state.t == 0:
            # The query hands the seed its unit charge.
            for i, xi in x.items():
                actor(i).charge = xi

        # Phase 1: emissions, all computed from the round-start state. Each
        # sender's split is made once; ``kept`` holds what the senders keep.
        kept: dict[int, float] = {}
        messages = 0
        in_flight = 0.0
        for j in emitters(state, g, cfg):
            a = actor(j)
            kept[j], sent = split(a.charge)
            for target, message in a.emit(sent):
                actor(target).inbox.append(message)
                in_flight += message[1]
                messages += 1

        if cfg.variant is Variant.LAZY_WALK:
            active_count = g.node_count
        else:
            active_count = len(state.active(eps))

        held = sum(kept.get(i, a.charge) for i, a in actors.items())
        if abs(held + in_flight - 1.0) > 1e-9:
            raise RuntimeError(
                f"charge leak at round {state.t + 1}: held={held!r} in_flight={in_flight!r}"
            )

        # Phase 2: barrier, then order-fixed inbox folds; actors left without
        # charge retire. Every actor above epsilon goes to ``advance``, which
        # takes the next frontier from them and the round-start one.
        new_x = {}
        above = []
        for i, a in list(actors.items()):
            a.fold_inbox(kept.get(i, a.charge))
            if a.charge == 0.0:
                del actors[i]
            else:
                new_x[i] = a.charge
                if a.charge > eps:
                    above.append(i)
        stats.append(
            RoundStats(
                round_index=state.t + 1,
                messages_sent=messages,
                active_count=active_count,
                # Ascending ids, so the float does not depend on actor creation order.
                total_charge=sum(new_x[i] for i in sorted(new_x)),
            )
        )
        return state.advance(new_x, eps, above)

    def repeat(start: int, period: int, copies: int) -> None:
        # The run loop skipped ``copies`` periods of a repeating charge
        # vector. A round's stats depend only on its start vector, so the
        # skipped rounds repeat ``stats[start:start + period]``, one period
        # later each time.
        cycle = stats[start:start + period]
        stats.extend(
            RoundStats(r.round_index + shift, r.messages_sent, r.active_count, r.total_charge)
            for shift in range(period, (copies + 1) * period, period)
            for r in cycle
        )

    return _run(g, seed, cfg, advance, repeat), stats


def round_stats_table(stats: list[RoundStats]) -> str:
    """Tab-separated table of per-round stats, header included."""
    lines = ["round\tmessages\tactive\ttotal_charge"]
    for row in stats:
        lines.append(
            f"{row.round_index}\t{row.messages_sent}\t{row.active_count}\t{row.total_charge!r}"
        )
    return "\n".join(lines) + "\n"


def message_complexity_report(
    stats: list[RoundStats],
    bounds: Bounds,
    d_max: int | None = None,
    touched: int | None = None,
) -> MessageReport:
    """Total up a run's messages and compare against the computed bounds.

    The per-round message bound is rounds * d_max * max_core_size (at most
    max_core_size transmitters per round, each with at most d_max out-edges);
    it needs the graph's d_max to evaluate. ``touched`` enables the
    touched-node comparison when the caller has the query result.
    """
    total = sum(s.messages_sent for s in stats)
    peak = max((s.messages_sent for s in stats), default=0)
    violations: list[str] = []

    message_bound = None
    messages_ok = None
    if d_max is not None:
        message_bound = len(stats) * d_max * bounds.max_core_size
        messages_ok = total <= message_bound
        if not messages_ok:
            violations.append(
                f"messages {total} exceed rounds*d_max*max_core_size = {message_bound}"
            )

    touched_ok = None
    if touched is not None:
        touched_ok = touched <= bounds.max_touched
        if not touched_ok:
            violations.append(f"touched {touched} exceeds max_touched {bounds.max_touched}")

    return MessageReport(
        total_messages=total,
        rounds=len(stats),
        peak_round_messages=peak,
        message_bound=message_bound,
        messages_within_bound=messages_ok,
        touched=touched,
        max_touched=bounds.max_touched,
        touched_within_bound=touched_ok,
        violations=violations,
    )
