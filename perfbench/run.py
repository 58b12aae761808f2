"""chargediff benchmark: one seeded workload, timed end to end or traced by layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload query-er100k --seed 3 --seconds 20 --trace 0

The load is a single closed-loop client in one process: one operation in
flight at a time (an API call, or one CLI child process). ``--trace 0``
measures the end-to-end metrics with nothing wrapped; ``--trace 1`` is a
separate run that wraps the program's module-level functions, records spans
and reports the per-layer metrics and the tracing overhead. Every operation's
result is checked against invariants and against its committed digest.

Human-readable lines go first; the last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. A full report
(latencies, provenance, per-op outcomes) and, when tracing, the spans are
written under ``perfbench/out/``. Metric names and units come from
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

from bench_trace import Tracer, patched

ROOT = Path(__file__).resolve().parent.parent
HERE = Path(__file__).resolve().parent
OUT = HERE / "out"

# Which end-to-end metric each per-layer metric should move, and where.
# "no change" names the workload on which the prediction is that it does not.
LAYER_MOVES = {
    "graph": "setup_s and peak_rss_mb on query-er100k; no change on cli-capped",
    "diffusion": "op_* on query-er100k (mostly its retention share); per-round cost, so op_* on cli-capped",
    "engine": "op_tail_ms on query-er100k (its excess share); op_p50_ms on cli-capped",
    "distsim": "no end-to-end metric: the traced query-er100k run times run_distributed on the same graph and seeds",
    "cli": "op_* on cli-capped only; no change on query-er100k",
    "trace": "none: traced op time over untraced op time on the same ops",
}


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def environment() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
    }


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least 10 samples beyond it, and that percentile.

    Never reported below the median: with 21 samples or fewer the median is
    reported as percentile 50. The printed sample count says so.
    """
    n = len(sorted_values)
    if n > 21:
        return sorted_values[n - 11], 100.0 * (n - 10) / n
    return statistics.median(sorted_values), 50.0


def check(outcome, op, result, expected: dict, failures: list):
    """``outcome(op, result)`` with invariant and digest problems added; None if unreadable."""
    try:
        out = outcome(op, result)
    except (ValueError, KeyError, TypeError) as exc:
        failures.append({"op": op.key, "problems": [f"unreadable result: {exc!r}"]})
        return None
    want = expected["ops"].get(op.key)
    if want is None:
        out.problems.append("no committed digest for this operation")
    elif out.digest != want:
        out.problems.append(f"digest {out.digest[:12]} != committed {want[:12]}")
    if out.problems:
        failures.append({"op": op.key, "problems": out.problems})
    return out


def time_setup(wl) -> list[float]:
    times = []
    for _ in range(wl.setup_reps):
        gc.collect()
        t0 = time.perf_counter()
        for _ in range(wl.setup_inner):
            wl.setup()
        times.append((time.perf_counter() - t0) / wl.setup_inner)
    gc.collect()
    return times


def run_untraced(wl, seconds: float, expected: dict, report: dict) -> dict:
    setup_times = time_setup(wl)
    latencies, failures, ops = [], [], []
    attempted = 0
    batches = itertools.cycle(wl.batches)
    phase = time.perf_counter()
    while time.perf_counter() - phase < seconds:
        for op in next(batches):
            attempted += 1
            try:
                t0 = time.perf_counter()
                result = wl.run(op)
                dt = time.perf_counter() - t0
            except Exception as exc:  # an operation that raises is a failed operation
                failures.append({"op": op.key, "problems": [f"raised {exc!r}"]})
                continue
            latencies.append(dt)
            outcome = check(wl.outcome, op, result, expected, failures)
            if outcome is not None:
                ops.append({"op": op.key, "iterations": outcome.iterations, "capped": outcome.capped})
    phase = time.perf_counter() - phase
    if not latencies:
        return {"attempted": attempted, "failures": failures, "metrics": {}}

    who = resource.RUSAGE_CHILDREN if wl.name == "cli-capped" else resource.RUSAGE_SELF
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    lat = sorted(latencies)
    tail_s, tail_pct = tail(lat)
    metrics = {
        "op_p50_ms": statistics.median(lat) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "ops_per_s": len(lat) / sum(lat),
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_times),
    }
    report.update(
        setup_times_s=setup_times,
        latencies_s=latencies,
        op_phase_s=phase,
        tail_percentile=tail_pct,
        samples=len(lat),
        ops=ops,
    )
    print(f"set-up: {len(setup_times)} reps, median {metrics['setup_s']:.6g} s")
    print(
        f"ops: {len(lat)} samples in {phase:.1f} s; p50 {metrics['op_p50_ms']:.6g} ms; "
        f"tail p{tail_pct:.1f} {metrics['op_tail_ms']:.6g} ms; {metrics['ops_per_s']:.6g} ops/s"
    )
    print(f"peak RSS ({'children' if who == resource.RUSAGE_CHILDREN else 'self'}): {peak_rss_mb:.1f} MB")
    capped = {o["op"]: o["iterations"] for o in ops if o["capped"]}
    if capped:
        print(f"capped runs: {sum(o['capped'] for o in ops)} of {len(ops)}; iterations {json.dumps(capped, sort_keys=True)}")
    return {"attempted": attempted, "failures": failures, "metrics": metrics}


def trace_targets(tracer: Tracer) -> list[tuple]:
    """Functions to wrap, labelled by the module whose code they run."""
    import chargediff.cli as cli
    from chargediff import diffusion, distsim, engine, graph

    def count_emitters(args, out):
        tracer.count("emitters", len(out))
        tracer.count("arcs_pushed", sum(map(args[1].degrees.__getitem__, out)))

    return [
        (graph, "parse_edge_list_relabeled", "graph.parse_edge_list_relabeled"),
        (graph, "from_edges", "graph.from_edges"),
        (engine, "run_query", "engine.run_query"),
        (engine, "step", "diffusion.step"),
        (engine, "should_stop", "engine.should_stop"),
        (engine, "excess_total", "engine.excess_total"),
        (engine, "build_result", "engine.build_result"),
        (diffusion, "emitters", "diffusion.emitters", count_emitters),
        (distsim, "run_distributed", "distsim.run_distributed"),
        (distsim, "should_stop", "engine.should_stop"),
        (distsim, "emitters", "diffusion.emitters", count_emitters),
        (distsim, "build_result", "engine.build_result"),
        (cli, "main", "cli.main"),
        (cli, "parse_edge_list_relabeled", "graph.parse_edge_list_relabeled"),
        (cli, "_load_graph", "cli.load_graph"),
        (cli, "run_query", "engine.run_query"),
        (cli, "_emit_json", "cli.render"),
    ]


def cli_import_s(root: Path, reps: int = 5) -> float:
    from bench_workloads import child_env

    code = "import time; t = time.perf_counter(); import chargediff.cli; print(repr(time.perf_counter() - t))"
    times = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", code], cwd=root, env=child_env(root),
            capture_output=True, text=True, check=True, timeout=60,
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def run_traced(wl, seconds: float, expected: dict, report: dict, spans_path: Path) -> dict:
    import bench_workloads as bw
    import chargediff.distsim as distsim

    tracer = Tracer()
    targets = trace_targets(tracer)

    with patched(tracer, targets):
        wl.setup()
    arcs = wl.arcs()
    gc.collect()
    tracemalloc.start()
    base = tracemalloc.get_traced_memory()[0]
    tracemalloc.reset_peak()
    wl.setup()
    retained, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    gc.collect()

    failures = []
    attempted = 0

    def paired(fn, outcome, op):
        """Run ``op`` untraced and traced, in alternating order; check both results."""
        nonlocal attempted
        op_id = attempted
        attempted += 1

        def traced_call():
            tracer.op_id = op_id
            try:
                with patched(tracer, targets):
                    t0 = time.perf_counter()
                    return fn(op), time.perf_counter() - t0
            finally:
                tracer.op_id = -1

        def plain_call():
            t0 = time.perf_counter()
            return fn(op), time.perf_counter() - t0

        try:
            # Alternate which of the pair runs first, so warm-up and drift
            # do not bias the overhead ratio.
            if op_id % 2:
                (traced, t_traced), (plain, t_plain) = traced_call(), plain_call()
            else:
                (plain, t_plain), (traced, t_traced) = plain_call(), traced_call()
        except Exception as exc:  # an operation that raises is a failed operation
            failures.append({"op": op.key, "problems": [f"raised {exc!r}"]})
            return None
        op_failures = []
        check(outcome, op, plain, expected, op_failures)
        out = check(outcome, op, traced, expected, op_failures)
        if op_failures:
            failures.append({"op": op.key, "problems": [p for f in op_failures for p in f["problems"]]})
        return None if out is None else (op_id, out, t_plain, t_traced)

    ops = []
    batches = itertools.cycle(wl.batches)
    phase = time.perf_counter()
    while time.perf_counter() - phase < seconds or attempted == 0:
        for op in next(batches):
            done = paired(getattr(wl, "run_inprocess", wl.run), wl.outcome, op)
            if done is not None:
                ops.append(done)

    # The simulator on the same graph and seeds: it must reproduce the
    # committed run_query digests, and over_query compares the two paths.
    sims, query_s = [], []
    for op in wl.simulator_ops():
        done = paired(lambda o: distsim.run_distributed(wl.graph, o.node, bw.API_CONFIGS[o.config]), bw.sim_outcome, op)
        if done is not None:
            sims.append(done)
            t0 = time.perf_counter()
            wl.run(op)
            query_s.append(time.perf_counter() - t0)

    result = {"attempted": attempted, "failures": failures, "metrics": {}}
    if not ops:
        return result
    k = len(ops)
    outcomes = [out for _, out, _, _ in ops]
    op_ids = [op_id for op_id, *_ in ops]
    totals = tracer.totals(op_ids)
    sim_totals = tracer.totals([op_id for op_id, *_ in sims])
    setup_totals = tracer.totals([-1])

    def total(label, field="total_s", of=totals):
        return of.get(label, {}).get(field, 0.0)

    step_calls = totals.get("diffusion.step", {}).get("calls", 0)
    sim_rounds = sum(out.rounds for _, out, _, _ in sims)
    n_sims = len(sims) or 1
    is_cli = wl.name == "cli-capped"
    untraced_s = sum(t for *_, t, _ in ops)
    result["metrics"] = {
        "graph.parse_self_s": total("graph.parse_edge_list_relabeled", "self_s", setup_totals),
        "graph.from_edges_s": total("graph.from_edges", of=setup_totals),
        "graph.parse_peak_mb": (peak - base) / 2**20,
        "graph.retained_mb": (retained - base) / 2**20,
        "graph.arcs": arcs,
        "diffusion.step_s": total("diffusion.step") / k,
        "diffusion.step_us_per_round": total("diffusion.step") / step_calls * 1e6 if step_calls else 0.0,
        "diffusion.emitters_s": total("diffusion.emitters") / k,
        "diffusion.rounds": step_calls / k,
        "diffusion.emitters": tracer.counted("emitters", op_ids) / k,
        "diffusion.arcs_pushed": tracer.counted("arcs_pushed", op_ids) / k,
        "engine.stop_s": total("engine.should_stop") / k,
        "engine.excess_trace_s": total("engine.excess_total") / k,
        "engine.result_s": total("engine.build_result") / k,
        "engine.run_query_self_s": total("engine.run_query", "self_s") / k,
        "engine.nn_set": statistics.fmean(o.nn_size for o in outcomes),
        "engine.touched": statistics.fmean(o.touched for o in outcomes),
        "engine.core_fill": statistics.fmean(o.core_fill for o in outcomes),
        "distsim.run_self_s": total("distsim.run_distributed", "self_s", sim_totals) / n_sims,
        "distsim.round_ms": total("distsim.run_distributed", of=sim_totals) / sim_rounds * 1e3 if sim_rounds else 0.0,
        "distsim.messages": sum(out.messages for _, out, _, _ in sims) / n_sims,
        "distsim.rounds": sim_rounds / n_sims,
        "distsim.over_query": sum(t for *_, t, _ in sims) / sum(query_s) if query_s else 0.0,
        "cli.import_s": cli_import_s(wl.root) if is_cli else 0.0,
        "cli.load_s": total("cli.load_graph") / k,
        "cli.query_s": total("engine.run_query") / k if is_cli else 0.0,
        "cli.render_s": total("cli.render") / k,
        "cli.out_bytes": statistics.fmean(o.out_bytes for o in outcomes),
        "trace.overhead": sum(t for *_, t in ops) / untraced_s,
    }
    tracer.save(spans_path)
    report.update(
        traced_ops=k,
        simulator_ops=len(sims),
        untraced_op_s=[t for *_, t, _ in ops],
        traced_op_s=[t for *_, t in ops],
        span_totals=totals,
        simulator_span_totals=sim_totals,
        setup_span_totals=setup_totals,
        spans_file=spans_path.relative_to(wl.root).as_posix(),
        spans=len(tracer.start),
        layer_moves=LAYER_MOVES,
    )
    print(f"traced ops: {k} (+{len(sims)} simulator runs); spans: {len(tracer.start)}; "
          f"tracing overhead x{result['metrics']['trace.overhead']:.3f}")
    for layer, moves in LAYER_MOVES.items():
        print(f"  {layer}: should move {moves}")
    return result


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "chargediff" / "__init__.py").is_file():
        return fail(f"no chargediff sources under {src}; run from a checkout of the repository")
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        return fail("BENCHMARK.json is missing")
    sys.path.insert(0, str(src))
    os.chdir(ROOT)
    import chargediff

    if Path(chargediff.__file__).resolve().parent != (src / "chargediff").resolve():
        return fail(f"imported chargediff from {chargediff.__file__}, not from {src}")
    import bench_workloads as bw

    if args.workload not in bw.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}; choose from {sorted(bw.WORKLOADS)}")
    spec = json.loads(spec_path.read_text())
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    digest_file = bw.digest_path(ROOT, args.workload)
    if not digest_file.is_file():
        return fail(f"committed digests missing: {digest_file}")

    variant = bw.variant_of(args.seed)
    expected = json.loads(digest_file.read_text()).get(str(variant), {"inputs": {}, "ops": {}})
    t0 = time.perf_counter()
    wl = bw.WORKLOADS[args.workload](variant, ROOT)
    generate_s = time.perf_counter() - t0
    OUT.mkdir(exist_ok=True)

    input_problems = [
        f"input {name} drifted: {wl.inputs[name]} != committed {expected['inputs'].get(name)}"
        for name in wl.inputs
        if wl.inputs[name] != expected["inputs"].get(name)
    ]
    env = environment()
    print(f"workload {args.workload} seed {args.seed} (input variant {variant}) trace {args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    print("inputs " + json.dumps(wl.inputs, sort_keys=True))
    print(f"generated inputs in {generate_s:.2f} s")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    report = {"workload": args.workload, "seed": args.seed, "variant": variant, "environment": env, "inputs": wl.inputs}
    if args.trace:
        result = run_traced(wl, args.seconds, expected, report, OUT / f"{stem}.spans.npz")
    else:
        result = run_untraced(wl, args.seconds, expected, report)

    report.update(result)
    (OUT / f"{stem}.json").write_text(json.dumps(report, indent=1, sort_keys=True))
    failures = result["failures"]
    for failure in failures[:10]:
        print(f"FAILED {failure['op']}: {'; '.join(failure['problems'])}", file=sys.stderr)
    if not result["metrics"]:
        return fail(f"no operation of {result['attempted']} completed")
    missing = [m["name"] for m in wanted if m["name"] not in result["metrics"]]
    if missing:
        return fail(f"metrics not produced: {missing}")
    for problem in input_problems:
        print(problem)
    attempted, failed = result["attempted"], len(failures)
    print(f"failed_frac {failed}/{attempted} = {failed / attempted:.6g}")

    line = {
        "correct": not input_problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": result["metrics"][m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
