import math
import time
from dataclasses import replace

import pytest

from chargediff.diffusion import (
    ChargeState,
    DiffusionConfig,
    Variant,
    excess_total,
    init_state,
    splitter,
    step,
)
from chargediff.distsim import run_distributed
from chargediff.engine import run_query
from chargediff.generators import complete_graph, path_graph, star
from chargediff.graph import from_edges
from oracles import expand, play, played_rows

CFG = DiffusionConfig(alpha=0.5, epsilon=0.1)
LAZY = DiffusionConfig(variant=Variant.LAZY_WALK)


def run_steps(g, seed, cfg, steps):
    state = init_state(g, seed)
    for _ in range(steps):
        state = step(state, g, cfg)
    return state


def test_init_state():
    g = path_graph(3)
    state = init_state(g, 1)
    assert state.x == {1: 1.0}
    assert state.t == 0
    assert state.ever_active == {1}


def test_init_state_star_center():
    state = init_state(star(10), 0)
    assert state.x == {0: 1.0}


def test_init_state_rejects_bad_seed():
    g = path_graph(3)
    with pytest.raises(ValueError, match="out of range"):
        init_state(g, 3)


def test_is_active_is_strict():
    # A charge exactly at epsilon is not active; one just above it is.
    state = ChargeState(x={0: 0.1, 1: 0.1 + 1e-15, 2: 0.0}, t=0, ever_active=set(), seed=0)
    assert state.active(0.1) == [1]


def test_retention_star_step_one():
    state = step(init_state(star(10), 0), star(10), CFG)
    assert state.x[0] == 0.5
    for leaf in range(1, 11):
        assert state.x[leaf] == pytest.approx(0.05, abs=1e-12)


def test_retention_star_step_four():
    g = star(10)
    state = run_steps(g, 0, CFG, 4)
    assert state.x[0] == 0.0625
    for leaf in range(1, 11):
        assert state.x[leaf] == pytest.approx(0.09375, abs=1e-12)
    assert not any(v > CFG.epsilon for v in state.x.values())


def test_retention_triangle_two_steps_exact():
    g = complete_graph(3)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.2)
    state = run_steps(g, 0, cfg, 2)
    assert state.x == {0: 0.375, 1: 0.3125, 2: 0.3125}


def test_retention_fixed_point_when_nobody_active():
    g = path_graph(4)
    state = ChargeState(x={0: 0.05, 1: 0.1, 2: 0.02}, t=3, ever_active={0}, seed=0)
    after = step(state, g, CFG)
    assert after.x == state.x
    assert after.t == 4


def test_retention_stuck_node_keeps_charge():
    g = from_edges([(0, 1, 1.0)], directed=True)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.1)
    state = run_steps(g, 0, cfg, 2)
    # node 1 has no out-edges, so it accumulates and holds.
    assert state.x == {0: 0.25, 1: 0.75}
    assert 1 in state.ever_active


def test_excess_star_step_one():
    g = star(10)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.EXCESS, delta=0.01)
    state = step(init_state(g, 0), g, cfg)
    assert state.x[0] == pytest.approx(0.55, abs=1e-12)
    for leaf in range(1, 11):
        assert state.x[leaf] == pytest.approx(0.045, abs=1e-12)
    assert excess_total(state, cfg) == pytest.approx(0.45, abs=1e-12)


def test_excess_star_geometric_decay_and_quiet_leaves():
    g = star(10)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.EXCESS, delta=0.01)
    state = init_state(g, 0)
    for t in range(12):
        state = step(state, g, cfg)
        ref = 0.9 * 0.5 ** (t + 1)
        assert excess_total(state, cfg) == pytest.approx(ref, rel=1e-13)
    # Leaves converge toward 0.09, never reaching the threshold.
    assert all(state.x[leaf] < 0.1 for leaf in range(1, 11))
    assert state.ever_active == {0}


def test_excess_fixed_point_when_nobody_active():
    g = path_graph(3)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.EXCESS, delta=0.01)
    state = ChargeState(x={0: 0.1, 1: 0.08}, t=0, ever_active=set(), seed=0)
    after = step(state, g, cfg)
    assert after.x == state.x


def test_excess_total_basics():
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.EXCESS, delta=0.01)
    top = ChargeState(x={0: 1.0}, t=0, ever_active={0}, seed=0)
    assert excess_total(top, cfg) == 0.9
    flat = ChargeState(x={0: 0.1, 1: 0.05, 2: 0.1}, t=0, ever_active=set(), seed=0)
    assert excess_total(flat, cfg) == 0.0


def test_lazy_walk_triangle_one_step():
    g = complete_graph(3)
    state = step(init_state(g, 0), g, LAZY)
    assert state.x == {0: 0.5, 1: 0.25, 2: 0.25}


def test_lazy_walk_uniform_is_stationary_on_regular_graph():
    g = from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 0, 1.0)])
    state = ChargeState(x={i: 0.25 for i in range(4)}, t=0, ever_active=set(), seed=0)
    after = step(state, g, LAZY)
    assert after.x == {i: 0.25 for i in range(4)}


def test_lazy_walk_equals_retention_at_zero_epsilon():
    g = complete_graph(5)
    zero_eps = DiffusionConfig(alpha=0.5, epsilon=0.0, variant=Variant.RETENTION)
    s_lazy = init_state(g, 2)
    s_ret = init_state(g, 2)
    for _ in range(25):
        s_lazy = step(s_lazy, g, LAZY)
        s_ret = step(s_ret, g, zero_eps)
        assert s_lazy.x == s_ret.x


def test_conservation_and_nonnegativity_over_variants():
    g = from_edges([(0, 1, 0.4), (1, 2, 2.0), (2, 0, 1.0), (2, 3, 0.5), (3, 1, 1.5)], directed=True)
    for variant in Variant:
        eps = 0.0 if variant is Variant.LAZY_WALK else 0.07
        cfg = DiffusionConfig(alpha=0.35, epsilon=eps, variant=variant, delta=1e-4)
        state = init_state(g, 0)
        for _ in range(40):
            state = step(state, g, cfg)
            total = sum(state.x.values())
            assert abs(total - 1.0) <= 1e-12
            assert min(state.x.values()) >= 0.0


def test_once_active_keeps_retained_floor():
    g = star(10)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.1)
    floor = (1.0 - cfg.alpha) * cfg.epsilon
    state = init_state(g, 0)
    activated: set[int] = {0}
    for _ in range(10):
        state = step(state, g, cfg)
        for node in activated:
            assert state.x[node] > floor
        activated |= {i for i, v in state.x.items() if v > cfg.epsilon}


def test_ever_active_includes_final_state_activations():
    # Directed chain whose sink only crosses the threshold on the last step.
    g = from_edges([(0, 1, 1.0), (1, 2, 1.0)], directed=True)
    cfg = DiffusionConfig(alpha=0.9, epsilon=0.3)
    state = run_steps(g, 0, cfg, 2)
    assert state.x[2] > cfg.epsilon
    assert 2 in state.ever_active


def test_lazy_config_is_forced():
    cfg = DiffusionConfig(alpha=0.9, epsilon=0.25, variant=Variant.LAZY_WALK)
    assert cfg.alpha == 0.5
    assert cfg.epsilon == 0.0


def test_excess_trace_monotone_on_path():
    g = path_graph(12)
    cfg = DiffusionConfig(alpha=0.4, epsilon=0.12, variant=Variant.EXCESS, delta=1e-3)
    state = init_state(g, 5)
    prev = excess_total(state, cfg)
    for _ in range(30):
        state = step(state, g, cfg)
        cur = excess_total(state, cfg)
        assert cur <= prev + 1e-12
        prev = cur


def test_charges_stay_finite_and_conserved_with_self_loop():
    g = from_edges([(0, 0, 1.0), (0, 1, 1.0), (1, 2, 1.0)])
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.2)
    state = init_state(g, 0)
    for _ in range(20):
        state = step(state, g, cfg)
        assert math.isfinite(sum(state.x.values()))
        assert abs(sum(state.x.values()) - 1.0) <= 1e-12


# Configs whose kept share rounds back to the whole charge: EXCESS just above
# epsilon, and an alpha so small that 1 - alpha == 1.0.
NEAR_EPS = DiffusionConfig(alpha=0.2, epsilon=0.1, variant=Variant.EXCESS, delta=1e-3)
TINY_ALPHA = DiffusionConfig(alpha=1e-17, epsilon=0.1)


@pytest.mark.parametrize(
    "cfg,x",
    [
        (NEAR_EPS, math.nextafter(0.1, 1.0)),
        (NEAR_EPS, math.nextafter(math.nextafter(0.1, 1.0), 1.0)),
        (TINY_ALPHA, 1.0),
        (TINY_ALPHA, 0.3),
    ],
)
def test_a_sender_that_keeps_its_charge_sends_nothing(cfg, x):
    # Unmended, these kept x and sent 2.8e-18, 5.6e-18, 1e-17 and 3e-18.
    assert splitter(cfg)(x) == (x, 0.0)


@pytest.mark.parametrize(
    "g,cfg",
    [
        # Nodes settle 2 ulps above epsilon, where the split keeps x.
        (from_edges([(0, 1, 1.0), (0, 3, 1.0), (2, 1, 1.0), (2, 4, 1.0), (3, 0, 1.0), (3, 1, 1.0),
                     (3, 4, 1.0), (4, 0, 1.0), (4, 1, 1.0), (4, 2, 1.0), (4, 3, 1.0)], directed=True),
         NEAR_EPS),
        (complete_graph(3), TINY_ALPHA),
    ],
)
def test_runs_that_keep_whole_charges_repeat_and_jump_to_the_cap(g, cfg):
    # Unmended, each send made charge that the receivers kept, so the vector
    # never repeated and the run played all 1M capped rounds, for seconds.
    start = time.perf_counter()
    result = run_query(g, 0, cfg)
    assert time.perf_counter() - start < 1.0
    assert not result.terminated and result.iterations == cfg.max_iterations
    assert abs(sum(result.final_charges.values()) - 1.0) <= 1e-12
    simulated, rows = run_distributed(g, 0, cfg)
    assert simulated == result
    # The records end at the repeat; expanded by the rule, they are those of
    # playing each round, checked here to three periods past it.
    kept = result.cycle_start + result.period
    assert len(rows) == kept
    horizon = kept + 3 * result.period
    _, _, _, trace, played = play(g, 0, replace(cfg, max_iterations=horizon))
    assert played_rows(expand(rows, result.cycle_start, result.period, horizon)) == played
    if cfg.variant is Variant.EXCESS:
        assert len(result.excess_trace) == kept
        full = expand(result.excess_trace, result.cycle_start, result.period, horizon + 1)
        assert [v.hex() for v in full] == [v.hex() for v in trace]
