"""Per-round charge update rules.

A query starts with unit charge on a seed node. Each round, every node whose
charge exceeds the activity threshold gives away a fixed fraction of charge
(or of its above-threshold excess, depending on the variant) split over its
out-edges in proportion to edge weight; everyone else holds what they have.
Total charge is conserved exactly, so only a bounded neighborhood of the seed
can ever become active.

All rounds are fully synchronous: activity flags, send amounts, and receipts
are all evaluated against the round-start state. Receipts fold into a node in
ascending sender-id order, which makes trajectories bit-reproducible and lets
the message-passing simulator in :mod:`chargediff.distsim` match this module
float for float.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable

from .graph import Graph


class Variant(Enum):
    """Update rule selector."""

    RETENTION = "retention"
    EXCESS = "excess"
    LAZY_WALK = "lazy"


@dataclass(frozen=True)
class DiffusionConfig:
    """Parameters of a diffusion query.

    alpha is the fraction of charge (or excess) an active node gives away,
    epsilon the strict activity threshold, delta the stopping threshold on
    total excess for the EXCESS variant, and max_iterations a hard safety cap.
    The LAZY_WALK variant pins alpha = 1/2 and epsilon = 0 regardless of the
    values passed in. Range checking lives in :func:`chargediff.engine.validate_config`
    so that deliberately invalid configs can still be constructed and rejected
    there.
    """

    alpha: float = 0.5
    epsilon: float = 0.01
    variant: Variant = Variant.RETENTION
    delta: float = 1e-4
    max_iterations: int = 1_000_000

    def __post_init__(self) -> None:
        if self.variant is Variant.LAZY_WALK:
            object.__setattr__(self, "alpha", 0.5)
            object.__setattr__(self, "epsilon", 0.0)


@dataclass
class ChargeState:
    """Charge vector at one iteration, sparse over nonzero nodes.

    ``ever_active`` accumulates every node that has satisfied the activity
    predicate at any observed iteration, including the current one; at the end
    of a run it is the nearest-neighbor candidate set.

    ``frontier`` lists the ids whose charge is above epsilon, ascending: the
    active nodes, at most 1/((1-alpha)*epsilon) of them. :func:`init_state`
    and :meth:`advance` carry it from round to round, so no per-round reader
    scans ``x``; a round costs O(pushed arcs + frontier log frontier) plus
    the C-level ``dict(x)`` copy that keeps each state a snapshot. A state
    built by hand leaves it unset and :meth:`active` derives it from ``x``
    on first use.
    """

    x: dict[int, float]
    t: int
    ever_active: set[int]
    seed: int
    frontier: list[int] | None = field(default=None, repr=False, compare=False)

    def active(self, epsilon: float) -> list[int]:
        """Ids whose charge is above ``epsilon``, ascending.

        Once set, the frontier answers for the epsilon it was built with, so
        a state is read with the config it is stepped with.
        """
        if self.frontier is None:
            self.frontier = sorted(i for i, xi in self.x.items() if xi > epsilon)
        return self.frontier

    def advance(self, x: dict[int, float], epsilon: float, risen: list[int]) -> ChargeState:
        """The state one round later, holding charge vector ``x``.

        ``risen`` names the ids a receipt lifted above ``epsilon`` this
        round; it may repeat ids or include ids of this state's frontier.
        Every other id above ``epsilon`` in ``x`` was already above it here:
        senders and stuck active nodes are on this frontier, and a node
        that neither sends nor receives keeps its charge. So the next
        frontier is this one, filtered against ``x``, plus ``risen``. Its
        ids join ``ever_active``, which is updated in place and shared with
        the returned state rather than copied each round.
        """
        frontier = [i for i in self.active(epsilon) if x.get(i, 0.0) > epsilon]
        if risen:
            frontier = sorted(set(frontier).union(risen))
        self.ever_active.update(frontier)
        return ChargeState(
            x=x, t=self.t + 1, ever_active=self.ever_active, seed=self.seed, frontier=frontier
        )


def init_state(g: Graph, seed: int) -> ChargeState:
    """Unit charge on ``seed``, zero elsewhere, at iteration 0."""
    if not 0 <= seed < g.node_count:
        raise ValueError(f"seed {seed} out of range for graph with {g.node_count} nodes")
    # Unit charge exceeds any valid epsilon < 1, so the seed starts active.
    return ChargeState(x={seed: 1.0}, t=0, ever_active={seed}, seed=seed, frontier=[seed])


def splitter(cfg: DiffusionConfig) -> Callable[[float], tuple[float, float]]:
    """The variant's split of an emitting node's charge, as ``x -> (kept, sent)``.

    RETENTION and LAZY_WALK: keep (1-alpha) * x and send alpha * x. EXCESS:
    only the excess over epsilon is split, so keep epsilon + (1-alpha) *
    (x - epsilon) and send alpha * (x - epsilon). The constants are fixed
    once per config; for the first two rules the floor is 0.0, whose
    subtraction and addition change no bit of a charge x >= 0. The
    engine's round and the simulator's round both split through this.

    When the kept share rounds back to x itself (an EXCESS charge a few
    ulps above epsilon, or alpha so small that 1 - alpha == 1.0), the node
    keeps x and sends 0.0: sending anything would create charge.
    """
    floor = cfg.epsilon if cfg.variant is Variant.EXCESS else 0.0
    keep, give = 1.0 - cfg.alpha, cfg.alpha

    def split(x: float) -> tuple[float, float]:
        above = x - floor
        kept = floor + keep * above
        return (kept, give * above) if kept < x else (x, 0.0)

    return split


def emitters(state: ChargeState, g: Graph, cfg: DiffusionConfig) -> list[int]:
    """Ids that transmit this round, ascending.

    RETENTION and EXCESS: the frontier's nodes that have out-edges, in
    O(frontier). A stuck active node (no out-edges) holds its charge and
    sends nothing. LAZY_WALK: every node with out-edges transmits,
    zero-charge nodes included, so it costs O(n).
    """
    if cfg.variant is Variant.LAZY_WALK:
        return [j for j in range(g.node_count) if g.degrees[j] > 0]
    degrees = g.degrees
    return [j for j in state.active(cfg.epsilon) if degrees[j] > 0]


def step(state: ChargeState, g: Graph, cfg: DiffusionConfig) -> ChargeState:
    """One synchronous round of whichever variant the config selects.

    RETENTION: an active node keeps (1-alpha) * x_i and distributes
    alpha * x_i over its out-edges proportionally to weight (1/degree when
    unweighted). EXCESS: an active node keeps epsilon plus (1-alpha) of its
    excess (x_i - epsilon) and distributes alpha of the excess. LAZY_WALK:
    the retention rule with alpha = 1/2 and epsilon = 0, where every node
    counts as active. Inactive and stuck nodes keep everything.

    The round is one pass over the pushed arcs. The new vector starts as a
    copy of ``x`` with every sender's retained share written in (before any
    receipt, since a sender can also receive); receipts then fold straight
    into it, walking senders in ascending id order, so each receiver adds
    its receipts to its retained charge (or to 0.0) in ascending sender
    order. A receipt that lifts its receiver from at most epsilon to above
    it records the receiver for the next frontier. Apart from the C-level
    copy, the round costs O(pushed arcs + frontier log frontier).

    A uniform row (one whose ``Graph.shares`` entry is not None, as in any
    unweighted graph) gives every arc the same receipt, ``sent * share``:
    one float, computed and tested for zero once per sender, so each of its
    arcs costs one lookup, one add and one store. Any other row multiplies
    per arc.
    """
    x = state.x
    eps = cfg.epsilon
    split = splitter(cfg)
    new_x = dict(x)
    pushes = []
    for j in emitters(state, g, cfg):
        xj = x.get(j)
        # A zero-charge LAZY_WALK sender keeps and sends nothing, and gets no key.
        if xj is not None:
            new_x[j], sent = split(xj)
            pushes.append((j, sent))

    risen = []
    get = new_x.get
    targets, out_ratios, shares = g.targets, g.out_ratios, g.shares
    for j, sent in pushes:
        share = shares[j]
        if share is not None:
            amount = sent * share
            if amount != 0.0:
                for t in targets[j]:
                    before = get(t, 0.0)
                    after = new_x[t] = before + amount
                    if after > eps >= before:
                        risen.append(t)
        else:
            for t, ratio in zip(targets[j], out_ratios[j]):
                amount = sent * ratio
                if amount != 0.0:
                    before = get(t, 0.0)
                    after = new_x[t] = before + amount
                    if after > eps >= before:
                        risen.append(t)
    return state.advance(new_x, eps, risen)


def excess_total(state: ChargeState, cfg: DiffusionConfig) -> float:
    """Sum of max(x_i - epsilon, 0) over the current state.

    Terms are summed over the frontier, in ascending id order. Nodes at or
    below the threshold would add an exact +0.0, which leaves the sum
    unchanged, so they are skipped.
    """
    x, eps = state.x, cfg.epsilon
    return sum([x[i] - eps for i in state.active(eps)], 0.0)
