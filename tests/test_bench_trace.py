"""The benchmark's tracer must keep finding the functions it wraps.

``perfbench/run.py`` times each layer by replacing module attributes with
recording wrappers. A rename or a call path that bypasses a wrapped name
would silently zero a layer metric, so this checks the targets against the
program without running the benchmark.
"""

import importlib.util
import random
from pathlib import Path

import pytest

from chargediff import engine
from chargediff.diffusion import DiffusionConfig, Variant
from chargediff.distsim import run_distributed
from chargediff.generators import erdos_renyi_connected

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
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.02, variant=Variant.EXCESS, delta=2e-4)
    plain = engine.run_query(g, 5, cfg)
    with patched(tracer, targets):
        result = engine.run_query(g, 5, cfg)
        twin, _ = run_distributed(g, 5, cfg)
    assert result == plain == twin
    assert result.iterations > 1
    assert tracer.totals([-1])["diffusion.step"]["calls"] == result.iterations
