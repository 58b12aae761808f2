"""The first query-er100k batch must reproduce the benchmark's committed digests.

``perfbench/digests/query-er100k.json`` pins the bits of every benchmark
operation. This runs the first batch of input variant 0 (one seed node under
the three configs) through the workload's own code, so a change to any result
bit fails here, before the benchmark runs. It imports the workload module
without changing it and writes no files.
"""

import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"


def load_workloads(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_workloads", PERFBENCH / "bench_workloads.py")
    module = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up while the module executes.
    monkeypatch.setitem(sys.modules, spec.name, module)
    spec.loader.exec_module(module)
    return module


def test_first_query_er100k_batch_matches_committed_digests(monkeypatch):
    bw = load_workloads(monkeypatch)
    wl = bw.QueryER(0, ROOT)
    committed = json.loads(bw.digest_path(ROOT, wl.name).read_text())["0"]
    assert wl.inputs == committed["inputs"]

    wl.setup()
    batch = wl.batches[0]
    assert len(batch) == len(bw.API_CONFIGS) == 3
    for op in batch:
        out = wl.outcome(op, wl.run(op))
        assert out.problems == [], op.key
        assert out.digest == committed["ops"][op.key], op.key
