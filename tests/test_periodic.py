"""Capped runs whose charge vector repeats.

On a graph with n <= 1/epsilon a run cannot stop, and it settles into a
repeating charge vector; the run loop detects the repeat and skips whole
periods up to the cap. Every check here compares against a plain loop that
plays each round with ``step``, so the skip must change no bit of the
result, the excess trace or the simulator's round stats. The CLI prints
such a trace and such rows only up to the repeat plus one period; expanded,
they must give back the library's in full.
"""

import json

import pytest
from hypothesis import given, settings, strategies as st

from chargediff import cli, distsim, engine
from chargediff.diffusion import DiffusionConfig, Variant, init_state, step
from chargediff.distsim import run_distributed
from chargediff.engine import run_query, should_stop
from chargediff.generators import complete_graph
from chargediff.graph import from_edges, serialize_edge_list

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
    assert [(r, s.messages_sent, s.active_count, s.total_charge.hex()) for r, s in enumerate(stats, 1)] == rows


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
    # The run settles at round 174 into a period of 10; every later row
    # repeats the row one period before it.
    assert stats[184:] == stats[174:-10]


def test_capped_simulation_repeats_its_row_objects():
    # The skipped rounds share the row objects of the period they repeat.
    result, stats = run_distributed(TRIANGLE, 0, DiffusionConfig())
    assert result.iterations == len(stats) == 1_000_000
    assert len({id(s) for s in stats}) <= 64


def expand(entries, cycle_start, period, length):
    """A bounded report's entries, ``length`` of them: from ``cycle_start`` on they repeat ``period``."""
    if period is None:
        return entries
    return [entries[i if i < cycle_start else cycle_start + (i - cycle_start) % period] for i in range(length)]


def run_cli(capsys, *argv):
    assert cli.main(list(argv)) == 0
    return capsys.readouterr().out


def tsv_rows(out):
    """The ``# key=value`` lines and the table rows of ``simulate --format tsv``."""
    lines = out.splitlines()
    header = lines.index("round\tmessages\tactive\ttotal_charge")
    comments = dict(line[2:].split("=", 1) for line in lines[:header])
    return comments, [line.split("\t") for line in lines[header + 1 :]]


def optional_int(text):
    return None if text == "None" else int(text)


@pytest.mark.parametrize("variant", [Variant.RETENTION, Variant.EXCESS])
@pytest.mark.parametrize("name", sorted(GRAPHS))
def test_bounded_reports_expand_to_the_full_trace_and_rows(tmp_path, capsys, name, variant):
    g = GRAPHS[name]
    cfg = DiffusionConfig(variant=variant, max_iterations=20_011)
    result = run_query(g, 0, cfg)
    twin, stats = run_distributed(g, 0, cfg)
    assert result.period is not None
    path = tmp_path / f"{name}.edges"
    path.write_text(serialize_edge_list(g))
    argv = ["--graph", str(path), "--seed", "0", "--variant", variant.value, "--max-iters", "20011"]
    if g.directed:
        argv.append("--directed")
    shown = result.cycle_start + result.period
    rows = [(s.messages_sent, s.active_count, s.total_charge.hex()) for s in stats]

    doc = json.loads(run_cli(capsys, "knn", *argv))["result"]
    assert (doc["stop_reason"], doc["cycle_start"], doc["period"]) == (
        "iteration_cap", result.cycle_start, result.period,
    )
    if variant is Variant.EXCESS:
        assert len(doc["excess_trace"]) == shown
        full = expand(doc["excess_trace"], doc["cycle_start"], doc["period"], doc["iterations"] + 1)
        assert [v.hex() for v in full] == [v.hex() for v in result.excess_trace]

    doc = json.loads(run_cli(capsys, "simulate", *argv))
    ending = doc["result"]
    assert (ending["stop_reason"], ending["cycle_start"], ending["period"]) == (
        twin.stop_reason, twin.cycle_start, twin.period,
    )
    assert len(doc["rounds"]) == shown
    assert doc["totals"] == {"rounds": len(stats), "messages": sum(s.messages_sent for s in stats)}
    printed = [(r["messages"], r["active"], r["total_charge"].hex()) for r in doc["rounds"]]
    assert expand(printed, ending["cycle_start"], ending["period"], doc["totals"]["rounds"]) == rows

    comments, table = tsv_rows(run_cli(capsys, "simulate", *argv, "--format", "tsv"))
    cycle_start, period = optional_int(comments["cycle_start"]), optional_int(comments["period"])
    assert (cycle_start, period) == (twin.cycle_start, twin.period)
    assert [int(r[0]) for r in table] == list(range(1, shown + 1))
    printed = [(int(m), int(a), float(c).hex()) for _, m, a, c in table]
    assert expand(printed, cycle_start, period, len(stats)) == rows
