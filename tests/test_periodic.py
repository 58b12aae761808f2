"""Capped runs whose charge vector repeats.

On a graph with n <= 1/epsilon a run cannot stop, and it settles into a
repeating charge vector; the run loop detects the repeat, skips whole
periods up to the cap, and keeps the excess trace and the simulator's round
stats only up to the repeat. Every check here expands those by the rule and
compares against a plain loop that plays each round with ``step``, so the
skip must change no bit of the result, the trace or the round stats. The
CLI prints the same kept entries; expanded, they must give back the played
ones in full.
"""

import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from chargediff import cli, distsim, engine
from chargediff.diffusion import DiffusionConfig, Variant
from chargediff.distsim import run_distributed, total_messages
from chargediff.engine import run_query
from chargediff.generators import complete_graph
from chargediff.graph import from_edges, serialize_edge_list
from oracles import expand, play, played_rows

TRIANGLE = from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
# At the default config this settles at round 174 into a period of 10.
CYCLE5 = from_edges([(i, (i + 1) % 5, 1.0) for i in range(5)], directed=True)
CLIQUE20 = complete_graph(20)
GRAPHS = {"triangle": TRIANGLE, "cycle5": CYCLE5, "clique20": CLIQUE20}
WEIGHTS = (0.25, 0.5, 1.0, 2.0, 4.0)


def hexes(charges):
    return {i: v.hex() for i, v in charges.items() if v > 0.0}


def kept(result):
    """How many trace entries and rows a run keeps: up to the repeat, or every one."""
    return None if result.period is None else result.cycle_start + result.period


def assert_matches_played(g, seed, cfg):
    """``run_query`` and ``run_distributed`` against :func:`play`, bit for bit.

    A run that repeated keeps its trace and rows up to the repeat; expanded
    by the rule, they must be those of playing every round.
    """
    result = run_query(g, seed, cfg)
    state, terminated, activated, trace, rows = play(g, seed, cfg)
    assert hexes(result.final_charges) == hexes(state.x)
    assert result.nn_set == sorted(activated)
    assert result.iterations == state.t
    assert result.terminated == terminated
    if cfg.variant is Variant.EXCESS:
        assert len(result.excess_trace) == (kept(result) or result.iterations + 1)
        full = expand(result.excess_trace, result.cycle_start, result.period, result.iterations + 1)
        assert [v.hex() for v in full] == [v.hex() for v in trace]
    else:
        assert result.excess_trace is None
    twin, stats = run_distributed(g, seed, cfg)
    assert twin == result
    assert len(stats) == (kept(result) or result.iterations)
    assert played_rows(expand(stats, result.cycle_start, result.period, result.iterations)) == rows
    assert total_messages(stats, result) == sum(row[1] for row in rows)


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
    cfg = DiffusionConfig(max_iterations=200_003)
    result, stats = run_distributed(CYCLE5, 0, cfg)
    assert len(calls) <= 300
    # The run settles at round 174 into a period of 10. Brent's test meets
    # the repeat from its vector saved at round 255, and the rows end there.
    assert (result.iterations, result.cycle_start, result.period, len(stats)) == (200_003, 255, 10, 265)
    assert_matches_played(CYCLE5, 0, cfg)


@pytest.mark.parametrize(
    "g, cfg, rows, messages",
    [
        # Repeats from round 31 with a period of 1; each round sends 6 messages
        # but the first, which sends 2.
        (TRIANGLE, DiffusionConfig(), 32, 5_999_996),
        (TRIANGLE, DiffusionConfig(variant=Variant.EXCESS), 32, 5_999_996),
        # No arcs: each round sends nothing and the vector repeats at once.
        (from_edges([], node_count=1), DiffusionConfig(variant=Variant.LAZY_WALK, max_iterations=5), 1, 0),
    ],
)
def test_capped_run_keeps_its_records_up_to_the_repeat(g, cfg, rows, messages):
    for run in (lambda: (run_query(g, 0, cfg), None), lambda: run_distributed(g, 0, cfg)):
        tracemalloc.start()
        try:
            result, stats = run()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.iterations == cfg.max_iterations and not result.terminated
        assert kept(result) == rows
        if cfg.variant is Variant.EXCESS:
            assert len(result.excess_trace) == rows
        if stats is not None:
            assert len(stats) == rows
            assert total_messages(stats, result) == messages
        assert peak < 1 << 20


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
    twin, _ = run_distributed(g, 0, cfg)
    _, _, _, trace, played = play(g, 0, cfg)
    assert result.period is not None
    path = tmp_path / f"{name}.edges"
    path.write_text(serialize_edge_list(g))
    argv = ["--graph", str(path), "--seed", "0", "--variant", variant.value, "--max-iters", "20011"]
    if g.directed:
        argv.append("--directed")
    shown = kept(result)
    rows = [row[1:] for row in played]

    doc = json.loads(run_cli(capsys, "knn", *argv))["result"]
    assert (doc["stop_reason"], doc["cycle_start"], doc["period"]) == (
        "iteration_cap", result.cycle_start, result.period,
    )
    if variant is Variant.EXCESS:
        assert len(doc["excess_trace"]) == shown
        full = expand(doc["excess_trace"], doc["cycle_start"], doc["period"], doc["iterations"] + 1)
        assert [v.hex() for v in full] == [v.hex() for v in trace]

    doc = json.loads(run_cli(capsys, "simulate", *argv))
    ending = doc["result"]
    assert (ending["stop_reason"], ending["cycle_start"], ending["period"]) == (
        twin.stop_reason, twin.cycle_start, twin.period,
    )
    assert len(doc["rounds"]) == shown
    assert doc["totals"] == {"rounds": len(rows), "messages": sum(row[0] for row in rows)}
    printed = [(r["messages"], r["active"], r["total_charge"].hex()) for r in doc["rounds"]]
    assert expand(printed, ending["cycle_start"], ending["period"], doc["totals"]["rounds"]) == rows

    comments, table = tsv_rows(run_cli(capsys, "simulate", *argv, "--format", "tsv"))
    cycle_start, period = optional_int(comments["cycle_start"]), optional_int(comments["period"])
    assert (cycle_start, period) == (twin.cycle_start, twin.period)
    assert [int(r[0]) for r in table] == list(range(1, shown + 1))
    printed = [(int(m), int(a), float(c).hex()) for _, m, a, c in table]
    assert expand(printed, cycle_start, period, len(rows)) == rows
