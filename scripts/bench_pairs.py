#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent revision against the working tree.

Unpacks the parent revision with `git archive` into a temporary directory
(no worktree, so `.git` is left as it is), then runs `perfbench/run.py`
once on each side per pair, alternating which side runs first. Seeds are
used in turn, one per pair. For each end-to-end metric of `BENCHMARK.json`
it prints both sides' median and quartiles and how many pairs the change
won; a gain holds when the change wins at least nine pairs in ten (ties
count for neither side) and the medians differ by more than the distance
between the parent's quartiles. The seed picks the input variant (the graph
a run queries), so that distance is taken within each variant: each parent
run is divided by the median of the parent runs of its variant, and the
quartile distance of these ratios, times the parent's median, is the
spread. A variant with a single run shows no spread and is left out; when
no variant has two runs, as with ten seeds on ten variants, the spread is
the plain quartile distance across them. It also prints whether the metric
stayed within its `bound`, a share of the parent's median: `worse` when the
change's median is worse than the parent's by more than the bound,
`unresolved` when it is not but the spread exceeds the bound (so the runs
spread too widely to tell) and some change run does not beat every parent
run, and `ok` otherwise.

    python3 scripts/bench_pairs.py --workload query-er100k --pairs 10 --seeds 3,4,5 [--rev HEAD] [--seconds 30]

Each run's result line is echoed as `<pair> <side> seed=<n> <json>` as it
completes. A run that failed no operation also gets `kinds`: the median
latency in ms of each kind of operation, read from the report it wrote
(`perfbench/out/<workload>-seed<n>-trace0.json`). A kind is the operation's
key without a leading node id, such as `retention-1e-3` or
`clique20/excess`. After the metrics table comes one row per kind: each
side's median of those run medians, the change-to-parent ratio, and how
many pairs the change won.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def within_variant_spread(lines: list[dict], values: list[float]) -> float:
    """The quartile distance of ``values`` with the differences between input variants taken out.

    Each value is divided by the median of the values of its line's
    ``variant``, and the quartile distance of those ratios is scaled back to
    the values' unit by the median of all values. Lines without a
    ``variant`` form one group, and then this is the plain quartile distance.
    A variant with one run shows no spread (its ratio is 1 by definition),
    so only variants with two runs or more count; when no variant has two,
    this is the plain quartile distance across variants.
    """
    groups: dict = {}
    for line, value in zip(lines, values):
        groups.setdefault(line.get("variant"), []).append(value)
    medians = {variant: statistics.median(group) for variant, group in groups.items() if len(group) > 1}
    ratios = [
        value / medians[line.get("variant")]
        for line, value in zip(lines, values)
        if line.get("variant") in medians
    ]
    if not ratios:
        q1, _, q3 = quartiles(values)
        return q3 - q1
    q1, _, q3 = quartiles(ratios)
    return (q3 - q1) * statistics.median(values)


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per metric from ``(parent, change)`` result lines of `perfbench/run.py`.

    A pair counts as a win when the change is strictly better in the
    metric's direction; ``holds`` applies the claim rule above and
    ``within_bound`` the bound rule. ``parent_iqr`` is the parent's
    quartile distance within each input variant (:func:`within_variant_spread`).
    """
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        spread = within_variant_spread([p for p, _ in pairs], parent)
        better = (pq[1] - cq[1]) if lower else (cq[1] - pq[1])
        beats_all = max(change) < min(parent) if lower else min(change) > max(parent)
        if -better > metric["bound"] * abs(pq[1]):
            within = "worse"
        elif spread > metric["bound"] * abs(pq[1]) and not beats_all:
            within = "unresolved"
        else:
            within = "ok"
        rows.append({
            "name": name,
            "unit": metric["unit"],
            "parent": pq,
            "change": cq,
            "wins": wins,
            "pairs": len(pairs),
            "parent_iqr": spread,
            "holds": 10 * wins >= 9 * len(pairs) and better > spread,
            "bound": metric["bound"],
            "within_bound": within,
        })
    return rows


def format_rows(rows: list[dict], failed: tuple[int, int]) -> str:
    lines = [f"failed runs: parent {failed[0]}, change {failed[1]}"]
    lines.append(
        "metric\tunit\tparent q1/median/q3\tchange q1/median/q3\tchange wins\tparent IQR\tgain holds"
        "\tbound\twithin bound"
    )
    for r in rows:
        p = "/".join(f"{v:.4g}" for v in r["parent"])
        c = "/".join(f"{v:.4g}" for v in r["change"])
        lines.append(
            f"{r['name']}\t{r['unit']}\t{p}\t{c}\t{r['wins']}/{r['pairs']}\t{r['parent_iqr']:.4g}\t{r['holds']}"
            f"\t{r['bound']:g}\t{r['within_bound']}"
        )
    return "\n".join(lines)


def op_kind(key: str) -> str:
    """An operation's key without its leading node id: ``16609/retention-1e-3`` -> ``retention-1e-3``."""
    head, sep, rest = key.partition("/")
    return rest if sep and head.isdigit() else key


def kind_medians(report: dict) -> dict[str, float] | None:
    """Median latency in ms of each kind of operation in a `perfbench/run.py` report.

    Its ``latencies_s`` and ``ops`` line up only when no operation failed,
    so a report with failures gives None.
    """
    if report.get("failures") or len(report["ops"]) != len(report["latencies_s"]):
        return None
    kinds: dict[str, list[float]] = {}
    for op, latency in zip(report["ops"], report["latencies_s"]):
        kinds.setdefault(op_kind(op["op"]), []).append(latency)
    return {kind: statistics.median(times) * 1e3 for kind, times in sorted(kinds.items())}


def summarize_kinds(pairs: list[tuple[dict, dict]]) -> list[dict]:
    """One row per kind of operation, over the pairs whose both runs have ``kinds``."""
    both = [(p["kinds"], c["kinds"]) for p, c in pairs if p.get("kinds") and c.get("kinds")]
    rows = []
    for kind in sorted({kind for p, c in both for kind in p.keys() & c.keys()}):
        runs = [(p[kind], c[kind]) for p, c in both if kind in p and kind in c]
        parent = statistics.median(p for p, _ in runs)
        change = statistics.median(c for _, c in runs)
        rows.append({
            "kind": kind,
            "parent_ms": parent,
            "change_ms": change,
            "ratio": change / parent,
            "wins": sum(c < p for p, c in runs),
            "pairs": len(runs),
        })
    return rows


def format_kinds(rows: list[dict]) -> str:
    lines = ["op kind\tparent median ms\tchange median ms\tchange/parent\tchange wins"]
    for r in rows:
        lines.append(
            f"{r['kind']}\t{r['parent_ms']:.4g}\t{r['change_ms']:.4g}\t{r['ratio']:.3f}\t{r['wins']}/{r['pairs']}"
        )
    return "\n".join(lines)


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    # The result line does not name the input variant; the run's first line does.
    named = re.search(r"\(input variant (\d+)\)", proc.stdout)
    if named:
        line["variant"] = int(named.group(1))
    report = tree / "perfbench" / "out" / f"{workload}-seed{seed}-trace0.json"
    kinds = kind_medians(json.loads(report.read_text()))
    if kinds is not None:
        line["kinds"] = kinds
    return line


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", required=True, help="comma-separated, used in turn")
    parser.add_argument("--rev", default="HEAD", help="parent revision (default HEAD)")
    parser.add_argument("--seconds", type=float, default=None, help="default: BENCHMARK.json run_seconds")
    args = parser.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else spec["run_seconds"]
    seeds = [int(s) for s in args.seeds.split(",")]
    pairs = []
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent_tree = Path(tmp)
        unpack(args.rev, parent_tree)
        trees = {"parent": parent_tree, "change": ROOT}
        for i in range(args.pairs):
            seed = seeds[i % len(seeds)]
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            lines = {}
            for side in order:
                lines[side] = run_bench(trees[side], args.workload, seed, seconds)
                print(f"{i + 1} {side} seed={seed} {json.dumps(lines[side])}", flush=True)
            pairs.append((lines["parent"], lines["change"]))
    failed = (sum(p["failed"] for p, _ in pairs), sum(c["failed"] for _, c in pairs))
    print(format_rows(summarize(pairs, spec["end_to_end"]), failed))
    print(format_kinds(summarize_kinds(pairs)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
