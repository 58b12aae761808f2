"""Property-based checks of the numeric invariants."""

import math
from unittest import mock

from hypothesis import given, settings, strategies as st

from chargediff import graph
from chargediff.diffusion import (
    ChargeState,
    DiffusionConfig,
    Variant,
    excess_total,
    init_state,
    step,
)
from chargediff.distsim import run_distributed
from chargediff.engine import check_config, run_query, should_stop
from chargediff.graph import Graph, from_edges, parse_edge_list, serialize_edge_list

SETTINGS = dict(max_examples=60, deadline=None)
POW2_WEIGHTS = (0.25, 0.5, 1.0, 2.0, 4.0)


@st.composite
def graphs(draw, max_n=10, directed=None, weighted=False):
    n = draw(st.integers(min_value=2, max_value=max_n))
    if directed is None:
        directed = draw(st.booleans())
    if directed:
        pool = [(i, j) for i in range(n) for j in range(n)]
    else:
        pool = [(i, j) for i in range(n) for j in range(i, n)]
    chosen = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=len(pool)))
    if weighted:
        weights = draw(
            st.lists(st.sampled_from(POW2_WEIGHTS), min_size=len(chosen), max_size=len(chosen))
        )
    else:
        weights = [1.0] * len(chosen)
    edges = [(u, v, w) for (u, v), w in zip(chosen, weights)]
    return from_edges(edges, directed=directed)


@st.composite
def configs(draw):
    variant = draw(st.sampled_from(list(Variant)))
    if variant is Variant.LAZY_WALK:
        return DiffusionConfig(variant=variant)
    eps = draw(st.floats(min_value=0.01, max_value=0.5, allow_nan=False))
    alpha = draw(st.floats(min_value=0.05, max_value=0.95, allow_nan=False))
    return DiffusionConfig(alpha=alpha, epsilon=eps, variant=variant, delta=eps / 100)


@given(g=graphs(), cfg=configs(), seed_frac=st.floats(0, 0.999), steps=st.integers(1, 8))
@settings(**SETTINGS)
def test_conservation_and_nonnegativity(g, cfg, seed_frac, steps):
    state = init_state(g, int(seed_frac * g.node_count))
    for _ in range(steps):
        state = step(state, g, cfg)
        total = sum(state.x.values())
        assert abs(total - 1.0) <= 1e-12
        assert all(v >= 0.0 for v in state.x.values())


def reference_step(state: ChargeState, g, cfg: DiffusionConfig) -> ChargeState:
    """The inbox-per-target round that ``step`` replaced, kept as its reference.

    Senders come straight from ``x`` and the split uses the per-variant
    formulas, so neither the frontier nor ``diffusion.splitter`` is checked
    against itself.
    """
    x = state.x
    eps, alpha = cfg.epsilon, cfg.alpha
    if cfg.variant is Variant.LAZY_WALK:
        sending = [j for j in range(g.node_count) if g.degrees[j] > 0]
    else:
        sending = sorted(j for j, xj in x.items() if xj > eps and g.degrees[j] > 0)
    sending_set = set(sending)

    def split(x_j):
        if cfg.variant is Variant.EXCESS:
            kept, sent = eps + (1.0 - alpha) * (x_j - eps), alpha * (x_j - eps)
        else:
            kept, sent = (1.0 - alpha) * x_j, alpha * x_j
        # A node that would keep all of x_j sends nothing, or charge would grow.
        return (x_j, 0.0) if kept == x_j else (kept, sent)

    inbox: dict[int, list[float]] = {}
    for j in sending:
        amount_total = split(x.get(j, 0.0))[1]
        targets, ratios = g.row(j)
        for k in range(len(targets)):
            amount = amount_total * ratios[k]
            if amount != 0.0:
                inbox.setdefault(targets[k], []).append(amount)

    new_x = {i: split(xi)[0] if i in sending_set else xi for i, xi in x.items()}
    for i, amounts in inbox.items():
        acc = new_x.get(i, 0.0)
        for amount in amounts:
            acc += amount
        new_x[i] = acc
    state.ever_active.update(i for i, xi in new_x.items() if xi > eps)
    return ChargeState(x=new_x, t=state.t + 1, ever_active=state.ever_active)


def bits(x):
    return [(i, xi.hex()) for i, xi in x.items()]


@given(
    g=st.booleans().flatmap(lambda weighted: graphs(weighted=weighted)),
    cfg=configs(),
    seed_frac=st.floats(0, 0.999),
    steps=st.integers(1, 12),
)
@settings(**SETTINGS)
def test_step_matches_reference_round_bit_for_bit(g, cfg, seed_frac, steps):
    seed = int(seed_frac * g.node_count)
    state = init_state(g, seed)
    ref = init_state(g, seed)
    for _ in range(steps):
        before = state.x
        state = step(state, g, cfg)
        ref = reference_step(ref, g, cfg)
        # Same keys in the same order, same bits.
        assert bits(state.x) == bits(ref.x)
        assert state.ever_active == ref.ever_active
        if cfg.variant is Variant.LAZY_WALK:
            # Only nodes that hold charge send, so a node gets a key only
            # when a charged sender pushes to it.
            reached = {t for j, xj in before.items() if xj != 0.0 for t in g.targets[j]}
            assert set(state.x) <= set(before) | reached


def step_like_reference(g, cfg, x, rounds):
    """Step a hand-built state, checking bits and key order against the reference."""
    state = ChargeState(x=dict(x), t=0, ever_active=set())
    ref = ChargeState(x=dict(x), t=0, ever_active=set())
    for _ in range(rounds):
        state = step(state, g, cfg)
        ref = reference_step(ref, g, cfg)
        assert bits(state.x) == bits(ref.x)
        assert state.ever_active == ref.ever_active
    return state


def test_uniform_rows_match_reference_round_bit_for_bit():
    # Node 0 holds the smallest subnormal and has three equal-weight
    # out-arcs: a lazy walk sends it half, which rounds to 0.0, so the one
    # receipt of its row is 0.0 and must add no key to 1, 2 or 3.
    g = from_edges([(0, 1, 1.0), (0, 2, 1.0), (0, 3, 1.0), (4, 5, 1.0), (5, 6, 1.0)], directed=True)
    state = step_like_reference(g, DiffusionConfig(variant=Variant.LAZY_WALK), {0: 5e-324, 4: 0.75, 6: 0.25}, 3)
    assert not {1, 2, 3} & set(state.x)

    # Weighted rows: 0, 2 and 4 are all-equal (every weight 2.5), 1 and 3
    # are mixed, so a round uses both paths.
    w = [(0, 1, 2.5), (0, 2, 2.5), (0, 3, 2.5), (1, 0, 2.5), (1, 4, 1.0), (2, 4, 2.5),
         (3, 0, 0.5), (3, 1, 3.0), (3, 4, 2.25), (4, 1, 2.5), (4, 3, 2.5)]
    g = from_edges(w, directed=True)
    assert [len(set(g.row(i)[1])) == 1 for i in range(g.node_count)] == [True, False, True, False, True]
    for cfg in (
        DiffusionConfig(alpha=0.4, epsilon=0.05),
        DiffusionConfig(alpha=0.4, epsilon=0.05, variant=Variant.EXCESS, delta=5e-4),
        DiffusionConfig(variant=Variant.LAZY_WALK),
    ):
        step_like_reference(g, cfg, {0: 0.5, 1: 0.2, 3: 0.3}, 12)

    # Rows built by hand: node 0's row has equal ratios at both ends but
    # another between them; node 1's weights are equal but distinct objects.
    one = tuple(float(s) for s in ("1.0",) * 3)
    assert one[0] is not one[1]
    g = Graph(4, True, ((1, 2, 3), (0, 2, 3), (0,), (1,)), ((1.0, 2.0, 1.0), one, (1.0,), (1.0,)))
    assert g.row(0)[1] == (0.25, 0.5, 0.25)
    assert g.row(1)[1] == (1 / 3,) * 3
    step_like_reference(g, DiffusionConfig(alpha=0.5, epsilon=0.05), {0: 0.6, 1: 0.4}, 6)


def test_distinct_weights_of_equal_ratios_match_reference_round():
    # Four weights, one an ulp above the rest: every ratio still rounds to
    # 0.25. Weights (1.0, 1.0000000000000002) do not: their ratios are
    # 0.49999999999999994 and 0.5. Both rounds, the dict round on the
    # graph's rows and the numpy round on the bulk parse's arrays, give the
    # reference's bits.
    w = [(0, 1, 3.0), (0, 2, 3.0), (0, 3, 3.0), (0, 4, math.nextafter(3.0, 4.0)),
         (1, 0, 1.0), (1, 2, math.nextafter(1.0, 2.0))]
    g = from_edges(w, directed=True)
    assert g.row(0)[1] == (0.25,) * 4
    assert g.row(1)[1] == (0.49999999999999994, 0.5)
    with mock.patch.object(graph, "_BULK_MIN_LINES", 0):
        bulk = parse_edge_list("".join(f"{u} {v} {x!r}\n" for u, v, x in w), directed=True)
    assert bulk == g and bulk.csr is not None
    for cfg in (
        DiffusionConfig(alpha=0.4, epsilon=0.05),
        DiffusionConfig(alpha=0.4, epsilon=0.05, variant=Variant.EXCESS, delta=5e-4),
        DiffusionConfig(variant=Variant.LAZY_WALK),
    ):
        for h in (g, bulk):
            state = ChargeState(x={0: 0.7, 1: 0.3}, t=0, ever_active=set())
            ref = ChargeState(x={0: 0.7, 1: 0.3}, t=0, ever_active=set())
            for _ in range(8):
                state, ref = step(state, h, cfg), reference_step(ref, g, cfg)
                assert sorted(bits(state.x)) == sorted(bits(ref.x))
                assert state.ever_active == ref.ever_active


@given(
    x=st.dictionaries(st.integers(0, 30), st.floats(0.0, 1.0), min_size=1, max_size=20),
    epsilon=st.sampled_from([0.0, 0.01, 0.125, 0.5]) | st.floats(0.0, 0.5),
)
@settings(**SETTINGS)
def test_excess_of_matches_max_form(x, epsilon):
    # Charges equal to epsilon give exact zero terms in the max() form.
    x = {**x, 31: epsilon}
    expected = sum(max(x[i] - epsilon, 0.0) for i in sorted(x))
    state = ChargeState(x=x, t=0, ever_active=set())
    assert excess_total(state, DiffusionConfig(epsilon=epsilon)).hex() == expected.hex()


@st.composite
def graphs_with_sink(draw):
    """A directed, possibly weighted graph whose seed 0 feeds a node with no out-edges."""
    g = draw(graphs(directed=True, weighted=draw(st.booleans())))
    n = max(g.node_count, 2)
    sink = draw(st.integers(1, n - 1))
    edges = [(i, j, w) for i in range(g.node_count) if i != sink for j, w in zip(g.targets[i], g.weights[i])]
    if sink not in g.targets[0]:
        edges.append((0, sink, 1.0))
    return from_edges(edges, directed=True, node_count=n)


def above(x, epsilon):
    return sorted(i for i, xi in x.items() if xi > epsilon)


@given(
    g=st.booleans().flatmap(lambda weighted: graphs(weighted=weighted)) | graphs_with_sink(),
    cfg=configs(),
    charges=st.none() | st.dictionaries(st.integers(0, 9), st.floats(0.0, 0.6), max_size=10),
    steps=st.integers(1, 12),
)
@settings(**SETTINGS)
def test_frontier_is_the_nodes_above_epsilon(g, cfg, charges, steps):
    if charges is None:
        state = init_state(g, 0)
    else:
        # Built by hand: the frontier is derived from x on first use.
        x = {i % g.node_count: c for i, c in charges.items()}
        state = ChargeState(x=x, t=0, ever_active=set())
    eps = cfg.epsilon
    ref = ChargeState(x=dict(state.x), t=0, ever_active=set(state.ever_active))
    assert state.active(eps) == above(state.x, eps)
    for _ in range(steps):
        state = step(state, g, cfg)
        ref = reference_step(ref, g, cfg)
        assert state.frontier == above(state.x, eps)
        assert state.ever_active == ref.ever_active
        assert should_stop(state, g, cfg) == should_stop(ref, g, cfg)


@given(g=graphs(weighted=True), directed=st.booleans())
@settings(**SETTINGS)
def test_serialize_parse_round_trip(g, directed):
    text = serialize_edge_list(g)
    assert parse_edge_list(text, directed=g.directed) == g


@given(g=graphs(), charges=st.lists(st.floats(0.0, 0.05), min_size=1, max_size=10))
@settings(**SETTINGS)
def test_fixed_point_when_nobody_active(g, charges):
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.1)
    x = {i % g.node_count: c for i, c in enumerate(charges)}
    before = ChargeState(x=dict(x), t=0, ever_active=set())
    after = step(before, g, cfg)
    assert after.x == x


@given(g=graphs(), cfg=configs(), steps=st.integers(1, 10))
@settings(**SETTINGS)
def test_excess_is_nonincreasing(g, cfg, steps):
    if cfg.variant is not Variant.EXCESS:
        cfg = DiffusionConfig(
            alpha=cfg.alpha if cfg.variant is not Variant.LAZY_WALK else 0.5,
            epsilon=0.1,
            variant=Variant.EXCESS,
            delta=1e-3,
        )
    state = init_state(g, 0)
    prev = excess_total(state, cfg)
    for _ in range(steps):
        state = step(state, g, cfg)
        cur = excess_total(state, cfg)
        assert cur <= prev + 1e-12
        prev = cur


@given(g=graphs(max_n=8), steps=st.integers(1, 12))
@settings(**SETTINGS)
def test_zero_threshold_retention_is_lazy_walk(g, steps):
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.0, variant=Variant.RETENTION)
    ret = init_state(g, 0)
    lazy = init_state(g, 0)
    for _ in range(steps):
        ret = step(ret, g, cfg)
        lazy = step(lazy, g, DiffusionConfig(variant=Variant.LAZY_WALK))
        assert ret.x == lazy.x


@given(g=graphs(), cfg=configs(), steps=st.integers(1, 12))
@settings(**SETTINGS)
def test_activated_nodes_hold_the_retained_floor(g, cfg, steps):
    if cfg.variant is Variant.LAZY_WALK:
        return
    floor = (1.0 - cfg.alpha) * cfg.epsilon
    state = init_state(g, 0)
    activated = set(state.ever_active)
    for _ in range(steps):
        state = step(state, g, cfg)
        for node in activated:
            assert state.x.get(node, 0.0) > floor
        activated |= {i for i, v in state.x.items() if v > cfg.epsilon}


@given(g=graphs(max_n=12), cfg=configs(), seed_frac=st.floats(0, 0.999))
@settings(max_examples=40, deadline=None)
def test_distributed_matches_centralized(g, cfg, seed_frac):
    cfg = DiffusionConfig(
        alpha=cfg.alpha,
        epsilon=cfg.epsilon,
        variant=cfg.variant,
        delta=cfg.delta,
        max_iterations=60,
    )
    seed = int(seed_frac * g.node_count)
    central = run_query(g, seed, cfg)
    distributed, _ = run_distributed(g, seed, cfg)
    assert distributed.final_charges == central.final_charges
    assert distributed.iterations == central.iterations
    assert distributed.nn_set == central.nn_set


@given(g=graphs(directed=True, weighted=True), steps=st.integers(1, 10))
@settings(**SETTINGS)
def test_weight_scaling_leaves_trajectories_identical(g, steps):
    scaled = from_edges(
        [
            (i, j, w * 7.3)
            for i in range(g.node_count)
            for j, w in zip(g.targets[i], g.weights[i])
        ],
        directed=True,
    )
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.07)
    a = init_state(g, 0)
    b = init_state(scaled, 0)
    for _ in range(steps):
        a = step(a, g, cfg)
        b = step(b, scaled, cfg)
        assert a.x == b.x


@given(g=graphs(), cfg=configs())
@settings(**SETTINGS)
def test_terminated_state_is_a_fixed_point_of_should_stop(g, cfg):
    cfg = DiffusionConfig(
        alpha=cfg.alpha, epsilon=cfg.epsilon, variant=cfg.variant,
        delta=cfg.delta, max_iterations=80,
    )
    result = run_query(g, 0, cfg)
    if result.terminated and cfg.variant is not Variant.LAZY_WALK:
        state = ChargeState(
            x=dict(result.final_charges), t=result.iterations,
            ever_active=set(result.nn_set),
        )
        assert should_stop(state, g, cfg) == result.stop_reason
        if cfg.variant is Variant.RETENTION:
            after = step(state, g, cfg)
            assert after.x == state.x


@st.composite
def graphs_and_paths(draw):
    """A small graph of ``graphs``, or a path of up to 100 nodes, directed or not."""
    if draw(st.booleans()):
        return draw(graphs())
    n = draw(st.integers(min_value=2, max_value=100))
    return from_edges([(i, i + 1, 1.0) for i in range(n - 1)], directed=draw(st.booleans()))


@given(
    g=graphs_and_paths(),
    variant=st.sampled_from([Variant.RETENTION, Variant.EXCESS]),
    alpha=st.floats(min_value=0.05, max_value=0.95),
    epsilon=st.floats(min_value=0.02, max_value=0.5),
    seed_frac=st.floats(0, 0.999),
)
@settings(max_examples=150, deadline=None)
def test_every_bound_holds(g, variant, alpha, epsilon, seed_frac):
    cfg = DiffusionConfig(
        alpha=alpha, epsilon=epsilon, variant=variant, delta=epsilon / 100, max_iterations=2000
    )
    result = run_query(g, int(seed_frac * g.node_count), cfg)
    _, bounds = check_config(g, cfg)
    assert len(result.nn_set) <= bounds.max_core_size
    assert result.touched <= bounds.max_touched
    if bounds.max_iterations_bound is not None and result.terminated:
        assert result.iterations <= bounds.max_iterations_bound
    assert (bounds.max_iterations_bound is None) == (variant is Variant.EXCESS)


def test_masses_survive_float_stress():
    # Long run on an irregular graph; drift must stay at rounding scale.
    g = from_edges(
        [(0, 1, 1.0), (1, 2, 1.0), (2, 3, 1.0), (3, 4, 1.0), (4, 0, 1.0),
         (0, 2, 1.0), (1, 3, 1.0)],
    )
    cfg = DiffusionConfig(alpha=0.51, epsilon=0.13)
    state = init_state(g, 0)
    for _ in range(300):
        state = step(state, g, cfg)
    assert math.isclose(sum(state.x.values()), 1.0, abs_tol=1e-12)
