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

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

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
    """

    x: dict[int, float]
    t: int
    ever_active: set[int]
    seed: int

    def advance(self, x: dict[int, float], epsilon: float) -> ChargeState:
        """The state one round later, holding charge vector ``x``.

        Nodes of ``x`` above ``epsilon`` join ``ever_active``. The set is
        updated in place and shared with the returned state rather than
        copied each round.
        """
        self.ever_active.update(i for i, xi in x.items() if xi > epsilon)
        return ChargeState(x=x, t=self.t + 1, ever_active=self.ever_active, seed=self.seed)


def is_active(x_i: float, cfg: DiffusionConfig) -> bool:
    """Strictly above-threshold charge makes a node active."""
    return x_i > cfg.epsilon


def init_state(g: Graph, seed: int) -> ChargeState:
    """Unit charge on ``seed``, zero elsewhere, at iteration 0."""
    if not 0 <= seed < g.node_count:
        raise ValueError(f"seed {seed} out of range for graph with {g.node_count} nodes")
    # Unit charge exceeds any valid epsilon < 1, so the seed starts active.
    return ChargeState(x={seed: 1.0}, t=0, ever_active={seed}, seed=seed)


def send_total(x_j: float, cfg: DiffusionConfig) -> float:
    """Total charge an emitting node gives away this round."""
    if cfg.variant is Variant.EXCESS:
        return cfg.alpha * (x_j - cfg.epsilon)
    return cfg.alpha * x_j


def retained_after_send(x_i: float, emits: bool, cfg: DiffusionConfig) -> float:
    """Charge a node holds after phase 1; non-emitters keep everything."""
    if not emits:
        return x_i
    if cfg.variant is Variant.EXCESS:
        return cfg.epsilon + (1.0 - cfg.alpha) * (x_i - cfg.epsilon)
    return (1.0 - cfg.alpha) * x_i


def emitters(x: Mapping[int, float], g: Graph, cfg: DiffusionConfig) -> list[int]:
    """Ids that transmit this round, ascending.

    RETENTION and EXCESS: active nodes that have out-edges. A stuck active
    node (no out-edges) holds its charge and sends nothing. LAZY_WALK: every
    node with out-edges transmits, zero-charge nodes included.
    """
    if cfg.variant is Variant.LAZY_WALK:
        return [j for j in range(g.node_count) if g.degrees[j] > 0]
    eps = cfg.epsilon
    return sorted(j for j, xj in x.items() if xj > eps and g.degrees[j] > 0)


def step(state: ChargeState, g: Graph, cfg: DiffusionConfig) -> ChargeState:
    """One synchronous round of whichever variant the config selects.

    RETENTION: an active node keeps (1-alpha) * x_i and distributes
    alpha * x_i over its out-edges proportionally to weight (1/degree when
    unweighted). EXCESS: an active node keeps epsilon plus (1-alpha) of its
    excess (x_i - epsilon) and distributes alpha of the excess. LAZY_WALK:
    the retention rule with alpha = 1/2 and epsilon = 0, where every node
    counts as active. Inactive and stuck nodes keep everything. Receipts are
    summed over senders in ascending id order.
    """
    x = state.x
    sending = emitters(x, g, cfg)
    sending_set = set(sending)

    inbox: dict[int, list[float]] = {}
    for j in sending:
        amount_total = send_total(x.get(j, 0.0), cfg)
        targets = g.adjacency[j]
        ratios = g.out_ratios[j]
        for k in range(len(targets)):
            amount = amount_total * ratios[k]
            if amount != 0.0:
                inbox.setdefault(targets[k][0], []).append(amount)

    new_x = {i: retained_after_send(xi, i in sending_set, cfg) for i, xi in x.items()}
    for i, amounts in inbox.items():
        acc = new_x.get(i, 0.0)
        for amount in amounts:
            acc += amount
        new_x[i] = acc
    return state.advance(new_x, cfg.epsilon)


def excess_of(x: Mapping[int, float], epsilon: float) -> float:
    """Total charge sitting strictly above the activity threshold."""
    return sum(max(x[i] - epsilon, 0.0) for i in sorted(x))


def excess_total(state: ChargeState, cfg: DiffusionConfig) -> float:
    """Sum of max(x_i - epsilon, 0) over the current state."""
    return excess_of(state.x, cfg.epsilon)
