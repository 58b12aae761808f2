#!/usr/bin/env python3
"""Alternating benchmark pairs: a parent revision against the working tree.

Unpacks the parent revision with `git archive` into a temporary directory
(no worktree, so `.git` is left as it is), then runs `perfbench/run.py`
once on each side per pair, alternating which side runs first. Seeds are
used in turn, one per pair. For each end-to-end metric of `BENCHMARK.json`
it prints both sides' median and quartiles and how many pairs the change
won; a gain holds when the change wins at least nine pairs in ten (ties
count for neither side) and the medians differ by more than the distance
between the parent's quartiles. It also prints whether the metric stayed
within its `bound`, a share of the parent's median: `worse` when the
change's median is worse than the parent's by more than the bound,
`unresolved` when it is not but the parent's quartile distance exceeds the
bound (so the runs spread too widely to tell) and some change run does not
beat every parent run, and `ok` otherwise.

    python3 scripts/bench_pairs.py --workload query-er100k --pairs 10 --seeds 3,4,5 [--rev HEAD] [--seconds 30]

Each run's result line is echoed as `<pair> <side> seed=<n> <json>` as it
completes.
"""

from __future__ import annotations

import argparse
import json
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


def summarize(pairs: list[tuple[dict, dict]], end_to_end: list[dict]) -> list[dict]:
    """One row per metric from ``(parent, change)`` result lines of `perfbench/run.py`.

    A pair counts as a win when the change is strictly better in the
    metric's direction; ``holds`` applies the claim rule above and
    ``within_bound`` the bound rule.
    """
    rows = []
    for metric in end_to_end:
        name, lower = metric["name"], metric["better"] == "lower"
        parent = [p["metrics"][name]["value"] for p, _ in pairs]
        change = [c["metrics"][name]["value"] for _, c in pairs]
        wins = sum((c < p) if lower else (c > p) for p, c in zip(parent, change))
        pq, cq = quartiles(parent), quartiles(change)
        spread = pq[2] - pq[0]
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


def unpack(rev: str, dest: Path) -> None:
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive, check=True)


def run_bench(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench failed in {tree} (exit {proc.returncode}):\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
