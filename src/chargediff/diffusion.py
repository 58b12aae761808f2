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
from typing import TYPE_CHECKING, Callable, Sequence

from .graph import Graph

if TYPE_CHECKING:
    from .csr import Charges


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
    The ``lazy`` variant pins alpha = 1/2 and epsilon = 0 regardless of the
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
    """Charge vector at one iteration, sparse over the nodes that got charge.

    ``x`` maps node ids to charges: a dict in the dict round, and
    :class:`chargediff.csr.Charges`, a pair of arrays, in the numpy round
    that graphs with CSR arrays play (see :func:`step`). Only the bulk parse
    of a large edge list builds such graphs; small ones keep dicts, since
    the numpy import alone costs more than their rounds would save (see
    ``chargediff.graph._BULK_MIN_LINES``). Either kind holds
    every id that has held or received charge, zero charges included, with
    the same bits, and compares by ``==`` in O(touched), so the run loop's
    repeat test builds no dict. The excess total of ``Charges`` is
    ``np.cumsum(...)[-1]``, which adds left to right as the dict's
    ``sum()`` does. :func:`init_state` starts a dict on any graph, and the
    numpy round reads a dict state and returns ``Charges``.

    ``ever_active`` accumulates every node that has satisfied the activity
    predicate at any observed iteration, including the current one; at the end
    of a run it is the nearest-neighbor candidate set. A state does not keep
    its seed: the run loop that starts it holds the seed and hands it to
    :func:`chargediff.engine.build_result`.

    ``frontier`` holds the ids whose charge is above epsilon, ascending: the
    active nodes, at most 1/((1-alpha)*epsilon) of them. Its kind follows
    ``x``: a list beside a dict, an int64 array beside ``Charges``, so each
    round reads it without a conversion. :func:`init_state` and each round
    set it, so no per-round reader scans ``x``; a dict round costs
    O(pushed arcs + frontier log frontier) plus the C-level ``dict(x)``
    copy that keeps each state a snapshot. A state built by hand leaves it
    unset and :meth:`active` derives it from ``x`` on first use.

    ``senders`` holds the frontier's ids that have out-edges, of the
    frontier's kind: the round's emitters. :func:`emitters` decides them on
    first use and keeps them, so the stop test and the round after it read
    one answer. Like ``frontier``, they answer for the config they were
    decided with.
    """

    x: dict[int, float] | Charges
    t: int
    ever_active: set[int]
    frontier: Sequence[int] | None = field(default=None, repr=False, compare=False)
    senders: Sequence[int] | None = field(default=None, repr=False, compare=False)

    def active(self, epsilon: float) -> Sequence[int]:
        """Ids whose charge is above ``epsilon``, ascending.

        Once set, the frontier answers for the epsilon it was built with, so
        a state is read with the config it is stepped with.
        """
        if self.frontier is None:
            x = self.x
            if isinstance(x, dict):
                self.frontier = sorted(i for i, xi in x.items() if xi > epsilon)
            else:
                self.frontier = x.above(epsilon)
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
        return ChargeState(x=x, t=self.t + 1, ever_active=self.ever_active, frontier=frontier)


def init_state(g: Graph, seed: int) -> ChargeState:
    """Unit charge on ``seed``, zero elsewhere, at iteration 0, as a dict state on any graph."""
    if not 0 <= seed < g.node_count:
        raise ValueError(f"seed {seed} out of range for graph with {g.node_count} nodes")
    # Unit charge exceeds any valid epsilon < 1, so the seed starts active.
    return ChargeState(x={seed: 1.0}, t=0, ever_active={seed}, frontier=[seed])


def split_terms(cfg: DiffusionConfig) -> tuple[float, float, float]:
    """``(floor, keep, give)`` of the variant's split; see :func:`splitter`."""
    floor = cfg.epsilon if cfg.variant is Variant.EXCESS else 0.0
    return floor, 1.0 - cfg.alpha, cfg.alpha


def splitter(cfg: DiffusionConfig) -> Callable[[float], tuple[float, float]]:
    """The variant's split of an emitting node's charge, as ``x -> (kept, sent)``.

    RETENTION, and so ``lazy``: keep (1-alpha) * x and send alpha * x.
    EXCESS: only the excess over epsilon is split, so keep epsilon +
    (1-alpha) * (x - epsilon) and send alpha * (x - epsilon). The constants
    are fixed once per config (:func:`split_terms`); for RETENTION the
    floor is 0.0, whose subtraction and addition change no bit of a charge
    x >= 0. The dict round and the simulator's round split through this,
    and the numpy round applies the same formula to arrays.

    When the kept share rounds back to x itself (an EXCESS charge a few
    ulps above epsilon, or alpha so small that 1 - alpha == 1.0), the node
    keeps x and sends 0.0: sending anything would create charge.
    """
    floor, keep, give = split_terms(cfg)

    def split(x: float) -> tuple[float, float]:
        above = x - floor
        kept = floor + keep * above
        return (kept, give * above) if kept < x else (x, 0.0)

    return split


def emitters(state: ChargeState, g: Graph, cfg: DiffusionConfig) -> Sequence[int]:
    """Ids that transmit this round, ascending: the state's ``senders``.

    The frontier's nodes that have out-edges, in O(frontier), as a list
    or, beside ``Charges``, an int64 array. A stuck active node (no
    out-edges) holds its charge and sends nothing. ``lazy`` is RETENTION
    at epsilon 0, so its frontier is the nodes that hold any charge. The
    first call on a state decides them and keeps them on it; later calls,
    such as :func:`step`'s after :func:`chargediff.engine.should_stop`'s,
    return them as kept.
    """
    if state.senders is None:
        frontier = state.active(cfg.epsilon)
        if isinstance(frontier, list):
            degrees = g.degrees
            state.senders = [j for j in frontier if degrees[j] > 0]
        else:
            state.senders = g.csr.senders(frontier)
    return state.senders


def step(state: ChargeState, g: Graph, cfg: DiffusionConfig) -> ChargeState:
    """One synchronous round of whichever variant the config selects.

    RETENTION: an active node keeps (1-alpha) * x_i and distributes
    alpha * x_i over its out-edges proportionally to weight (1/degree when
    unweighted). EXCESS: an active node keeps epsilon plus (1-alpha) of its
    excess (x_i - epsilon) and distributes alpha of the excess. ``lazy``:
    the retention rule with alpha = 1/2 and epsilon = 0, so every node that
    holds charge is active. Inactive and stuck nodes keep everything.

    The graph picks one of two rounds with the same bits. A graph with CSR
    rows (``g.csr``, which the bulk parse of a large edge list keeps) plays
    :meth:`chargediff.csr.Csr.play` in numpy and returns a state of
    :class:`chargediff.csr.Charges`. That round folds receipts with
    ``np.add.at``, which adds in index order, so in ascending sender order
    as below, and its states sum their excess with ``np.cumsum`` (not the
    pairwise ``np.sum``), so every bit matches. With its senders decided,
    as the run loop's stop test decides them, a round costs about 30 us of
    numpy calls (a median 23 us for rounds of under 40 arcs) plus about
    28 ns per pushed arc and 6 ns per touched id, where the dict round
    costs about 10 us plus 0.24 us per arc: they break even near 100 arcs
    per round, and from 3000 on numpy is 6x faster. A round whose senders
    are those of the round before replays that round's arcs, targets and
    positions, kept on its charges, and does only the arithmetic: about
    25 us plus a few ns per arc and per touched id, so a median 41 us
    against 144 us for a full round of the 3k-5k arcs that an ``excess``
    eps=1e-3 query pushes once its frontier stops growing; 72% of that
    query's rounds replay, and 5-10% of ``retention`` rounds. (Rounds of
    24 queries on a 100k-node, 400k-edge ER graph, best of 15 runs each;
    Python 3.11, numpy 2.4, 2-core VM.) Any other graph, such as a small
    file that should not pay the numpy import
    (``chargediff.graph._BULK_MIN_LINES``), plays the dict round.

    The dict round is one pass over the pushed arcs. The new vector starts
    as a copy of ``x`` with every sender's retained share written in (before
    any receipt, since a sender can also receive); receipts ``sent * ratio``
    (over the sender's :meth:`~chargediff.graph.Graph.row`) then fold
    straight into it, walking senders in ascending id order, so
    each receiver adds its receipts to its retained charge (or to 0.0) in
    ascending sender order. A zero receipt adds no key. A receipt that
    lifts its receiver from at most epsilon to above it records the
    receiver for the next frontier. Apart from the C-level copy, the round
    costs O(pushed arcs + frontier log frontier).
    """
    senders = emitters(state, g, cfg)
    x = state.x
    eps = cfg.epsilon
    if g.csr is not None:
        charges, frontier, risen = g.csr.play(x, senders, split_terms(cfg), eps)
        # An id above eps after a round was above it before or has risen. A
        # state this round returned has its frontier in ever_active, so only
        # the risen ids are new; a dict state (the first round, or one built
        # by hand) adds the whole new frontier, as the dict round does.
        state.ever_active.update(frontier.tolist() if isinstance(x, dict) else risen)
        return ChargeState(charges, state.t + 1, state.ever_active, frontier)

    split = splitter(cfg)
    new_x = dict(x)
    pushes = []
    for j in senders:
        new_x[j], sent = split(x[j])
        pushes.append((j, sent))

    risen = []
    get = new_x.get
    row = g.row
    for j, sent in pushes:
        for t, ratio in zip(*row(j)):
            amount = sent * ratio
            if amount != 0.0:
                before = get(t, 0.0)
                after = new_x[t] = before + amount
                if after > eps >= before:
                    risen.append(t)
    return state.advance(new_x, eps, risen)


def excess_total(state: ChargeState, cfg: DiffusionConfig) -> float:
    """Sum of max(x_i - epsilon, 0) over the current state.

    Terms are summed over the frontier, in ascending id order, left to
    right (:meth:`chargediff.csr.Charges.excess` for array states). Nodes
    at or below the threshold would add an exact +0.0, which leaves the sum
    unchanged, so they are skipped.
    """
    x, eps = state.x, cfg.epsilon
    if not isinstance(x, dict):
        return x.excess(eps)
    return sum([x[i] - eps for i in state.active(eps)], 0.0)
