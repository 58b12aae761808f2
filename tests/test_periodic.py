"""Capped runs whose charge vector repeats.

On a graph with n <= 1/epsilon a run cannot stop, and it settles into a
repeating charge vector; the run loop detects the repeat and skips whole
periods up to the cap. Every check here compares against a plain loop that
plays each round with ``step``, so the skip must change no bit of the
result, the excess trace or the simulator's round stats.
"""

import pytest
from hypothesis import given, settings, strategies as st

from chargediff import distsim, engine
from chargediff.diffusion import DiffusionConfig, Variant, init_state, step
from chargediff.distsim import run_distributed
from chargediff.engine import run_query, should_stop
from chargediff.generators import complete_graph
from chargediff.graph import from_edges

TRIANGLE = from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
# At the default config this settles at round 174 into a period of 10.
CYCLE5 = from_edges([(i, (i + 1) % 5, 1.0) for i in range(5)], directed=True)
CLIQUE20 = complete_graph(20)
GRAPHS = {"triangle": TRIANGLE, "cycle5": CYCLE5, "clique20": CLIQUE20}
WEIGHTS = (0.25, 0.5, 1.0, 2.0, 4.0)


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


def hexes(charges):
    return {i: v.hex() for i, v in charges.items() if v > 0.0}


def assert_matches_played(g, seed, cfg):
    """``run_query`` and ``run_distributed`` against :func:`play`, bit for bit."""
    result = run_query(g, seed, cfg)
    state, terminated, activated, trace, rows = play(g, seed, cfg)
    assert hexes(result.final_charges) == hexes(state.x)
    assert result.nn_set == sorted(activated)
    assert result.iterations == state.t
    assert result.terminated == terminated
    if cfg.variant is Variant.EXCESS:
        assert [v.hex() for v in result.excess_trace] == [v.hex() for v in trace]
    else:
        assert result.excess_trace is None
    twin, stats = run_distributed(g, seed, cfg)
    assert twin == result
    assert len(stats) == result.iterations
    assert [(s.round_index, s.messages_sent, s.active_count, s.total_charge.hex()) for s in stats] == rows


@st.composite
def small_runs(draw):
    """A small graph with n <= 1/epsilon, any variant, and a cap of 400 to 4000 rounds.

    Two graphs in three are directed rings with up to two extra arcs, whose
    runs often repeat with a period above 1; a cap then mostly leaves a part
    of a period to play after the skip.
    """
    n = draw(st.integers(min_value=2, max_value=10))
    if draw(st.integers(min_value=0, max_value=2)):
        directed = True
        arcs = {(i, (i + 1) % n) for i in range(n)}
        node = st.integers(min_value=0, max_value=n - 1)
        arcs.update(draw(st.lists(st.tuples(node, node), max_size=2)))
    else:
        directed = draw(st.booleans())
        pool = [(i, j) for i in range(n) for j in range(0 if directed else i, n)]
        arcs = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=len(pool)))
    arcs = sorted(arcs)
    weights = draw(st.lists(st.sampled_from(WEIGHTS), min_size=len(arcs), max_size=len(arcs)))
    g = from_edges([(u, v, w) for (u, v), w in zip(arcs, weights)], directed=directed, node_count=n)
    eps = draw(st.floats(min_value=0.01, max_value=1.0 / n))
    cfg = DiffusionConfig(
        alpha=draw(st.floats(min_value=0.05, max_value=0.95)),
        epsilon=eps,
        variant=draw(st.sampled_from(list(Variant))),
        delta=eps / 100,
        max_iterations=draw(st.integers(min_value=400, max_value=4000)),
    )
    return g, draw(st.integers(min_value=0, max_value=n - 1)), cfg


@given(run=small_runs())
@settings(max_examples=80, deadline=None)
def test_skipping_periods_matches_playing_every_round(run):
    assert_matches_played(*run)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize(
    "name, caps",
    [
        ("cycle5", range(1_000, 1_010)),
        ("triangle", (1, 29, 1_001)),
        ("clique20", (50, 64, 1_003)),
    ],
)
def test_named_capped_runs_match_playing_every_round(name, caps, variant):
    for cap in caps:
        assert_matches_played(GRAPHS[name], 0, DiffusionConfig(variant=variant, max_iterations=cap))


@pytest.mark.parametrize(
    "name, variant, most",
    [
        ("triangle", Variant.RETENTION, 64),
        ("triangle", Variant.EXCESS, 64),
        ("clique20", Variant.RETENTION, 64),
        ("clique20", Variant.EXCESS, 64),
        ("cycle5", Variant.RETENTION, 300),
    ],
)
def test_capped_run_steps_only_until_it_repeats(monkeypatch, name, variant, most):
    calls = []
    real = engine.step
    monkeypatch.setattr(engine, "step", lambda *args: calls.append(None) or real(*args))
    result = run_query(GRAPHS[name], 0, DiffusionConfig(variant=variant))
    assert result.iterations == 1_000_000
    assert not result.terminated
    assert len(calls) <= most


def test_capped_simulation_rounds_only_until_it_repeats(monkeypatch):
    calls = []
    real = distsim.emitters
    monkeypatch.setattr(distsim, "emitters", lambda *args: calls.append(None) or real(*args))
    result, stats = run_distributed(CYCLE5, 0, DiffusionConfig(max_iterations=200_003))
    assert len(calls) <= 300
    assert result.iterations == len(stats) == 200_003
    assert [s.round_index for s in stats] == list(range(1, 200_004))
