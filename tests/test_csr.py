"""The numpy round over a bulk-parsed graph's CSR arrays keeps every bit of the dict round.

A graph built by the bulk parse carries ``csr`` arrays, and ``step`` plays
its rounds in numpy; every other graph plays the dict round. These tests
parse one text both ways (the bulk parse forced by patching
``graph._BULK_MIN_LINES`` to 0, as test_graph_bulk.py does) and compare the
two rounds with each other and with ``test_properties.reference_step``, by
the hex bits of every charge.
"""

import math
import os
import random
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy
import pytest
from hypothesis import given, settings, strategies as st
from test_graph_bulk import WEIGHTS
from test_periodic import GRAPHS
from test_properties import configs, reference_step

from chargediff import engine, graph
from chargediff.csr import Charges
from chargediff.diffusion import ChargeState, DiffusionConfig, Variant, excess_total, init_state, step
from chargediff.distsim import run_distributed
from chargediff.engine import run_query, should_stop
from chargediff.generators import erdos_renyi_connected
from chargediff.graph import parse_edge_list, parse_edge_list_relabeled, serialize_edge_list

SETTINGS = dict(max_examples=80, deadline=None)


def parse_both(text, directed, relabel=False):
    """``(bulk, loop)``: the graph of ``text`` from the bulk parse and from the line loop."""
    parse = parse_edge_list_relabeled if relabel else parse_edge_list
    with mock.patch.object(graph, "_BULK_MIN_LINES", 0):
        bulk = parse(text, directed=directed)
    with mock.patch.object(graph, "_BULK_MIN_LINES", math.inf):
        loop = parse(text, directed=directed)
    if relabel:
        assert bulk[1] == loop[1]
        bulk, loop = bulk[0], loop[0]
    assert bulk == loop
    assert bulk.csr is not None and loop.csr is None
    return bulk, loop


@st.composite
def edge_texts(draw):
    """``(text, directed, relabel)``: clean edge-list text, weighted with non-dyadic weights or not.

    Sparse ids (7i + 3) are parsed with relabeling, dense ones without.
    """
    directed = draw(st.booleans())
    n = draw(st.integers(2, 12))
    pool = [(u, v) for u in range(n) for v in range(n) if directed or u <= v]
    edges = draw(st.lists(st.sampled_from(pool), unique=True, min_size=1, max_size=len(pool)))
    relabel = draw(st.booleans())
    label = (lambda i: 7 * i + 3) if relabel else (lambda i: i)
    weighted = draw(st.booleans())
    lines = []
    for u, v in edges:
        weight = f" {draw(st.sampled_from(WEIGHTS))}" if weighted else ""
        lines.append(f"{label(u)} {label(v)}{weight}\n")
    return "".join(lines), directed, relabel


def hexes(x):
    """The charges of ``x`` as ``(id, hex)`` pairs, ascending: zero charges included."""
    return sorted((i, xi.hex()) for i, xi in x.items())


def assert_same_state(array_state, *dict_states):
    for other in dict_states:
        assert hexes(array_state.x) == hexes(other.x)
        assert array_state.ever_active == other.ever_active
        assert array_state.t == other.t


@given(case=edge_texts(), cfg=configs(), seed_frac=st.floats(0, 0.999), steps=st.integers(1, 12))
@settings(**SETTINGS)
def test_numpy_round_matches_dict_round_and_reference_bit_for_bit(case, cfg, seed_frac, steps):
    text, directed, relabel = case
    bulk, loop = parse_both(text, directed, relabel)
    seed = int(seed_frac * bulk.node_count)
    fast, slow, ref = init_state(bulk, seed), init_state(loop, seed), init_state(loop, seed)
    for _ in range(steps):
        fast, slow, ref = step(fast, bulk, cfg), step(slow, loop, cfg), reference_step(ref, loop, cfg)
        assert isinstance(fast.x, Charges) and isinstance(slow.x, dict)
        assert_same_state(fast, slow, ref)
        # The frontier is an int64 array beside Charges, a list beside a dict.
        assert fast.frontier.dtype == numpy.int64
        assert fast.frontier.tolist() == slow.frontier
        assert excess_total(fast, cfg).hex() == excess_total(slow, cfg).hex()
        assert should_stop(fast, bulk, cfg) == should_stop(slow, loop, cfg)
        assert fast.x == slow.x and fast.x == Charges.of(slow.x)


@given(
    case=edge_texts(),
    cfg=configs(),
    charges=st.dictionaries(st.integers(0, 11), st.floats(0.0, 0.6), min_size=1, max_size=12),
    steps=st.integers(1, 8),
)
@settings(**SETTINGS)
def test_numpy_round_from_a_hand_built_dict_state(case, cfg, charges, steps):
    # A state built by hand holds a dict and no frontier, and may hold zero
    # charges and active nodes missing from ever_active; the first numpy
    # round reads it as the dict round does.
    text, directed, relabel = case
    bulk, loop = parse_both(text, directed, relabel)
    x = {i % bulk.node_count: c for i, c in charges.items()}
    fast, slow, ref = (ChargeState(x=dict(x), t=0, ever_active=set()) for _ in range(3))
    for _ in range(steps):
        fast, slow, ref = step(fast, bulk, cfg), step(slow, loop, cfg), reference_step(ref, loop, cfg)
        assert_same_state(fast, slow, ref)


@given(
    case=edge_texts(),
    cfg=configs(),
    seed_frac=st.floats(0, 0.999),
    cap=st.integers(5, 500),
)
@settings(**SETTINGS)
def test_numpy_run_query_matches_dict_run_query(case, cfg, seed_frac, cap):
    text, directed, relabel = case
    bulk, loop = parse_both(text, directed, relabel)
    cfg = DiffusionConfig(
        alpha=cfg.alpha, epsilon=cfg.epsilon, variant=cfg.variant, delta=cfg.delta, max_iterations=cap
    )
    seed = int(seed_frac * bulk.node_count)
    result = run_query(bulk, seed, cfg)
    assert repr(result) == repr(run_query(loop, seed, cfg))
    # The simulator keeps its dict loop on either graph.
    assert run_distributed(bulk, seed, cfg)[0] == result


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize(
    "name, caps, most",
    [
        ("cycle5", (1_000, 1_001, 1_009, 1_000_000), 300),
        ("triangle", (1, 29, 1_001, 1_000_000), 64),
        ("clique20", (50, 64, 1_003, 1_000_000), 64),
    ],
)
def test_capped_runs_jump_on_array_states(monkeypatch, name, caps, most, variant):
    # The named capped runs of test_periodic.py, on their bulk parse: the
    # run loop's repeat test compares Charges, finds the period and jumps to
    # the cap with the dict round's bits.
    g = GRAPHS[name]
    bulk, loop = parse_both(serialize_edge_list(g), g.directed)
    calls = []
    real = engine.step
    monkeypatch.setattr(engine, "step", lambda *args: calls.append(args[0]) or real(*args))
    for cap in caps:
        cfg = DiffusionConfig(variant=variant, max_iterations=cap)
        calls.clear()
        result = run_query(bulk, 0, cfg)
        assert all(isinstance(state.x, Charges) for state in calls[1:])
        assert len(calls) <= most
        twin = run_query(loop, 0, cfg)
        if cap < 1_000_000:
            assert repr(result) == repr(twin)
        else:
            # An EXCESS trace then has 1M floats; == compares them as repr would, faster.
            assert result == twin
        assert result.iterations == cap and not result.terminated


def run_steps(g, seed, cfg, rounds):
    state = init_state(g, seed)
    for _ in range(rounds):
        state = step(state, g, cfg)
    return state


def scratch_is_clear(g):
    return bool(numpy.signbit(g.csr.scratch).all() and not g.csr.scratch.any())


def er300_both(weighted):
    """``parse_both`` of ``erdos_renyi_connected(300, 4.0, Random(11))``, its edges weighted from WEIGHTS or not."""
    g0 = erdos_renyi_connected(300, 4.0, random.Random(11))
    if not weighted:
        return parse_both(serialize_edge_list(g0), False)
    edges = [(u, v) for u in range(g0.node_count) for v in g0.targets[u] if u < v]
    return parse_both("".join(f"{u} {v} {WEIGHTS[(u + v) % len(WEIGHTS)]}\n" for u, v in edges), False)


def replayed(state, before):
    """Whether ``state``'s round replayed the round before it: it carries that round's plan."""
    return state.x.plan is not None and state.x.plan is getattr(before.x, "plan", None)


@pytest.mark.parametrize("variant", list(Variant))
def test_queries_stepped_in_turn_match_each_run_alone(variant):
    bulk, loop = er300_both(False)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.004, variant=variant, delta=4e-5)
    alone = {}
    for seed in (3, 250):
        state, states = init_state(bulk, seed), []
        for _ in range(15):
            state = step(state, bulk, cfg)
            states.append(hexes(state.x))
        alone[seed] = states
    a, b = init_state(bulk, 3), init_state(bulk, 250)
    for r in range(15):
        a = step(a, bulk, cfg)
        assert scratch_is_clear(bulk)
        b = step(b, bulk, cfg)
        assert scratch_is_clear(bulk)
        assert hexes(a.x) == alone[3][r] and hexes(b.x) == alone[250][r]
    assert hexes(a.x) == hexes(run_steps(loop, 3, cfg, 15).x)


@pytest.mark.parametrize("directed", [False, True])
def test_lazy_rounds_on_a_bulk_graph_match_the_dict_round_bit_for_bit(directed):
    # Id gaps and, when directed, sinks: rows without arcs, which send nothing.
    g0 = erdos_renyi_connected(200, 3.0, random.Random(4))
    text = "".join(f"{3 * u} {3 * v}\n" for u in range(g0.node_count) for v in g0.targets[u] if u < v)
    bulk, loop = parse_both(text, directed)
    cfg = DiffusionConfig(variant=Variant.LAZY_WALK, max_iterations=40)
    fast, slow = init_state(bulk, 3), init_state(loop, 3)
    for _ in range(40):
        fast, slow = step(fast, bulk, cfg), step(slow, loop, cfg)
        assert_same_state(fast, slow)
    assert repr(run_query(bulk, 3, cfg)) == repr(run_query(loop, 3, cfg))


def test_a_round_cut_short_leaves_the_scratch_clear(monkeypatch):
    bulk, _ = parse_both("0 1\n1 2\n2 0\n2 3\n", False)
    state = step(init_state(bulk, 0), bulk, DiffusionConfig())
    assert scratch_is_clear(bulk)

    def interrupted(*args):
        raise KeyboardInterrupt

    # The round has written charges into the scratch vector when it looks
    # for new receivers.
    with monkeypatch.context() as m, pytest.raises(KeyboardInterrupt):
        m.setattr(numpy, "signbit", interrupted)
        step(state, bulk, DiffusionConfig())
    assert scratch_is_clear(bulk)


@pytest.mark.parametrize("weighted", [False, True], ids=["unweighted", "weighted"])
@pytest.mark.parametrize("variant", [Variant.EXCESS, Variant.LAZY_WALK])
def test_rounds_whose_senders_repeat_replay_with_the_dict_rounds_bits(variant, weighted):
    # Once a frontier stops growing, the same senders push along the same
    # arcs each round, and the numpy round replays the last round's plan.
    bulk, loop = er300_both(weighted)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.004, variant=variant, delta=4e-5)
    fast, slow = init_state(bulk, 3), init_state(loop, 3)
    replays = 0
    for _ in range(60):
        before = fast
        fast, slow = step(fast, bulk, cfg), step(slow, loop, cfg)
        assert_same_state(fast, slow)
        assert fast.frontier.tolist() == slow.frontier
        if replayed(fast, before):
            # A replay touches no new id: its charges share their ids with the state before.
            assert fast.x.ids is before.x.ids and fast.x == Charges.of(slow.x)
            replays += 1
    assert replays > 0
    assert scratch_is_clear(bulk)


def test_a_round_that_drops_a_zero_receipt_keeps_no_plan():
    # Node 11 (10 arcs) holds 2 units of the least subnormal. A lazy round
    # has it send 1 unit, whose 1/10 share rounds to zero: the dict round
    # drops that receipt, so the numpy round keeps no plan to replay. The
    # rounds after it build plans again and replay them, with the dict
    # round's bits.
    bulk, loop = er300_both(False)
    assert bulk.degrees[11] == 10 and 11 not in loop.targets[3]
    cfg = DiffusionConfig(variant=Variant.LAZY_WALK)
    x = {3: 1.0, 11: 2 * 5e-324}
    fast = ChargeState(x=Charges.of(x), t=0, ever_active={3, 11})
    slow = ChargeState(x=dict(x), t=0, ever_active={3, 11})
    fast, slow = step(fast, bulk, cfg), step(slow, loop, cfg)
    assert fast.x.plan is None and 11 in slow.x
    assert_same_state(fast, slow)
    replays = 0
    for _ in range(40):
        before = fast
        fast, slow = step(fast, bulk, cfg), step(slow, loop, cfg)
        assert_same_state(fast, slow)
        replays += replayed(fast, before)
    assert replays > 0


def test_a_replay_cut_short_leaves_the_scratch_clear(monkeypatch):
    bulk, loop = er300_both(False)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.004, variant=Variant.EXCESS, delta=4e-5)
    fast, slow = init_state(bulk, 3), init_state(loop, 3)
    # Step on until the next round replays: the state's plan has its senders.
    plan = None
    while plan is None or plan.senders.tolist() != slow.frontier:
        fast, slow = step(fast, bulk, cfg), step(slow, loop, cfg)
        plan = fast.x.plan
    real = numpy.add

    class Interrupted:
        """``numpy.add``, but its ``at`` raises, as an interrupt during the fold would."""

        def __getattr__(self, name):
            return getattr(real, name)

        def at(self, *args):
            raise KeyboardInterrupt

    with monkeypatch.context() as m, pytest.raises(KeyboardInterrupt):
        m.setattr(numpy, "add", Interrupted())
        step(fast, bulk, cfg)
    assert scratch_is_clear(bulk)
    again = step(fast, bulk, cfg)
    assert replayed(again, fast)
    assert_same_state(again, step(slow, loop, cfg))
    assert repr(run_query(bulk, 250, cfg)) == repr(run_query(parse_both(serialize_edge_list(loop), False)[0], 250, cfg))

def test_repeat_query_on_a_100k_node_graph_allocates_what_it_touches():
    # The star of test_distsim.py's STAR among 99,989 isolated nodes, parsed
    # in bulk: a repeat query allocates for the 11 nodes it touches, far
    # less than the 800 kB of one float per node.
    text = "".join(f"0 {i}\n" for i in range(1, 11)) + "99998 99999\n"
    bulk, loop = parse_both(text, False)
    assert bulk.node_count == 100_000
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.1)
    first = run_query(bulk, 0, cfg)
    tracemalloc.start()
    try:
        again = run_query(bulk, 0, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**10
    assert repr(again) == repr(first) == repr(run_query(loop, 0, cfg))
    assert first.iterations == 4 and first.touched == 11


def repeat_query_peak(g, seed, cfg):
    """``(result, tracemalloc peak)`` of a query run a second time, so one-off set-up is not counted."""
    run_query(g, seed, cfg)
    tracemalloc.start()
    try:
        result = run_query(g, seed, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return result, peak


# Allocator free lists move a repeat query's peak by up to about 2 kB between
# graphs. One byte per padding node would add 2 kB at 10x and 20 kB at 100x.
PADDING_SLACK = 4 * 2**10


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("bulk_side", [True, False], ids=["numpy", "dict"])
def test_unreachable_padding_changes_neither_the_result_nor_its_allocations(variant, bulk_side):
    # A 200-node ER component, then 10x and 100x as many nodes in 2-node
    # components with ids above it: the fold order and the bits stay, and a
    # query allocates for what it touches, not for the graph. A lazy walk on
    # a connected component never stops on its own, so its run is capped.
    g0 = erdos_renyi_connected(200, 4.0, random.Random(5))
    text = serialize_edge_list(g0)
    lazy = variant is Variant.LAZY_WALK
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.02, variant=variant, delta=1e-3)
    if lazy:
        cfg = replace(cfg, max_iterations=4)
    outcomes = []
    for factor in (0, 10, 100):
        padding = "".join(f"{a} {a + 1}\n" for a in range(200, 200 + factor * 200, 2))
        g = parse_both(text + padding, False)[0 if bulk_side else 1]
        assert g.node_count == 200 * (1 + factor)
        result, peak = repeat_query_peak(g, 7, cfg)
        assert (result.iterations == 4 if lazy else result.terminated) and result.touched < 200
        outcomes.append((factor, repr(result), peak))
    (_, base, base_peak), *padded = outcomes
    for factor, text_repr, peak in padded:
        assert text_repr == base
        assert abs(peak - base_peak) <= PADDING_SLACK, f"factor {factor}: base_peak {base_peak}, peak {peak}"


def test_charges_read_as_a_mapping_of_python_numbers():
    x = Charges.of({5: 0.25, 2: 0.0, 9: 0.75})
    assert list(x) == [2, 5, 9] and len(x) == 3
    assert x.items() == [(2, 0.0), (5, 0.25), (9, 0.75)]
    assert x[5] == 0.25 and type(x[5]) is float and x.get(4) is None
    assert all(type(i) is int and type(v) is float for i, v in x.items())
    assert x == {2: 0.0, 5: 0.25, 9: 0.75} and x != {5: 0.25, 9: 0.75}
    assert x == Charges.of({9: 0.75, 5: 0.25, 2: 0.0}) and x != Charges.of({2: 0.0, 5: 0.25, 9: 0.5})
    assert x.positive() == {5: 0.25, 9: 0.75}
    assert x.above(0.25).tolist() == [9]
    assert x.excess(0.2) == (0.25 - 0.2) + (0.75 - 0.2)


def test_small_graphs_never_load_the_numpy_round():
    # A process that parses only small files compiles and imports neither
    # numpy nor the numpy round's module.
    code = (
        "import sys\n"
        "from chargediff.engine import run_query\n"
        "from chargediff.diffusion import DiffusionConfig\n"
        "from chargediff.graph import parse_edge_list\n"
        "g = parse_edge_list('0 1\\n1 2\\n2 0\\n')\n"
        "run_query(g, 0, DiffusionConfig(max_iterations=100))\n"
        "print(g.csr, 'numpy' in sys.modules, 'chargediff.csr' in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout) == (0, "None False False\n"), proc.stderr
