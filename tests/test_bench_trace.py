"""The benchmark's tracer must keep finding the functions it wraps.

``perfbench/run.py`` times each layer by replacing module attributes with
recording wrappers. A rename or a call path that bypasses a wrapped name
would silently zero a layer metric, so this checks the targets against the
program without running the benchmark.
"""

import importlib.util
import json
import random
from pathlib import Path
from unittest import mock

import pytest

from chargediff import engine, graph
from chargediff.diffusion import DiffusionConfig, Variant, emitters, init_state, step
from chargediff.distsim import run_distributed
from chargediff.generators import erdos_renyi_connected
from chargediff.graph import parse_edge_list, serialize_edge_list

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_run", PERFBENCH / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_trace_targets_resolve_and_step_calls_match_rounds(bench):
    from bench_trace import Tracer, patched

    tracer = Tracer()
    targets = bench.trace_targets(tracer)
    for module, attr, *_ in targets:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"

    g = erdos_renyi_connected(60, 4.0, random.Random(3))
    # The same graph from the bulk parse, which keeps CSR arrays and so
    # plays the numpy round.
    with mock.patch.object(graph, "_BULK_MIN_LINES", 0):
        bulk = parse_edge_list(serialize_edge_list(g))
    assert g.csr is None and bulk.csr is not None and bulk == g
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.02, variant=Variant.EXCESS, delta=2e-4)
    seen = []
    for h in (g, bulk):
        tracer = Tracer()
        plain = engine.run_query(h, 5, cfg)
        with patched(tracer, bench.trace_targets(tracer)):
            result = engine.run_query(h, 5, cfg)
            calls = {label: t["calls"] for label, t in tracer.totals([-1]).items()}
            counted = {label: tracer.counted(label, [-1]) for label in ("emitters", "arcs_pushed")}
            twin, _ = run_distributed(h, 5, cfg)
        assert result == plain == twin
        assert result.iterations > 1
        assert calls["diffusion.step"] == result.iterations
        # The run loop checks the stop predicate and traces the excess before
        # every round and once more before it stops.
        assert calls["engine.should_stop"] == result.iterations + 1
        assert calls["engine.excess_total"] == result.iterations + 1
        # Both rounds call emitters once a round, so its counters count the
        # senders and arcs of every round on either graph.
        assert calls["diffusion.emitters"] == result.iterations
        state, emitted, arcs = init_state(h, 5), 0, 0
        while state.t < result.iterations:
            senders = emitters(state, h, cfg)
            emitted += len(senders)
            arcs += sum(h.degrees[j] for j in senders)
            state = step(state, h, cfg)
        assert counted == {"emitters": emitted, "arcs_pushed": arcs}
        seen.append((result, calls, counted))
    # The two rounds play the same run with the same calls and counts.
    assert seen[0] == seen[1]


def test_cli_spans_fire_once_for_a_knn_report(bench, capsys, tmp_path):
    from bench_trace import Tracer, patched

    import chargediff.cli as cli

    path = tmp_path / "triangle.edges"
    path.write_text("0 1\n1 2\n2 0\n")
    tracer = Tracer()
    with patched(tracer, bench.trace_targets(tracer)):
        code = cli.main(["knn", "--graph", str(path), "--seed", "0", "--max-iters", "50"])
    assert code == 0
    assert json.loads(capsys.readouterr().out)["command"] == "knn"
    calls = {label: t["calls"] for label, t in tracer.totals([-1]).items()}
    for label in ("cli.main", "cli.load_graph", "engine.run_query", "cli.render"):
        assert calls.get(label) == 1, label
