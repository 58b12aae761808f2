"""The demo scripts run to completion and print their tables; the pair summary counts right."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHILD_ENV = dict(os.environ, PYTHONPATH=str(ROOT / "src"))


@pytest.mark.parametrize("script", ["locality_demo.py", "excess_decay.py", "ppr_sensitivity.py"])
def test_demo_script_runs(script):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / script)],
        capture_output=True, text=True, env=CHILD_ENV, cwd=ROOT, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def result_line(p50, ops, variant=None):
    line = {
        "correct": True, "attempted": 100, "failed": 0,
        "metrics": {"op_p50_ms": {"value": p50, "unit": "ms"}, "ops_per_s": {"value": ops, "unit": "1/s"}},
    }
    if variant is not None:
        line["variant"] = variant
    return json.dumps(line)


END_TO_END = [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]


@pytest.mark.parametrize("change_p50, wins, holds", [
    # 9/10 wins by 1 ms against a parent spread of 0.45 ms: the gain holds.
    ([9.0, 9.1, 9.2, 9.3, 9.4, 9.5, 9.6, 9.7, 9.8, 10.9], 9, True),
    # 9/10 wins, but only 0.05 ms apart at the median: less than the spread.
    ([9.95, 10.05, 10.15, 10.25, 10.35, 10.45, 10.55, 10.65, 10.75, 10.95], 9, False),
    # 8/10 wins (a loss and a tie): below nine in ten, so no claim.
    ([9.0, 9.1, 9.2, 9.3, 9.4, 9.5, 9.6, 9.7, 10.9, 10.9], 8, False),
])
def test_bench_pairs_summary_counts_wins_and_applies_the_claim_rule(change_p50, wins, holds):
    bench_pairs = load_script("bench_pairs")
    parent_p50 = [10.0, 10.1, 10.2, 10.3, 10.4, 10.5, 10.6, 10.7, 10.8, 10.9]
    parent_ops = [30.0] * 10
    change_ops = [30.0, 29.0] + [31.0] * 8  # one tie, one loss
    canned = [
        (result_line(p, po), result_line(c, co))
        for p, c, po, co in zip(parent_p50, change_p50, parent_ops, change_ops)
    ]
    pairs = [(json.loads(p), json.loads(c)) for p, c in canned]
    p50, ops = bench_pairs.summarize(pairs, END_TO_END)
    assert p50["parent"] == pytest.approx((10.225, 10.45, 10.675))
    assert p50["parent_iqr"] == pytest.approx(0.45)
    assert p50["wins"] == wins
    assert p50["holds"] is holds
    assert (ops["wins"], ops["pairs"], ops["holds"]) == (8, 10, False)
    table = bench_pairs.format_rows([p50, ops], (0, 0))
    assert table.splitlines()[2].startswith("op_p50_ms\tms\t10.22/10.45/10.67\t")


WIDE = [5.0, 6.0, 7.0, 8.0, 9.0, 11.0, 12.0, 13.0, 14.0, 15.0]  # IQR 6.5 against a median of 10


@pytest.mark.parametrize("parent_p50, change_p50, change_ops, p50_verdict, ops_verdict", [
    # Within 25% of the parent's median on both metrics, with a tight parent.
    ([10.0 + i / 10 for i in range(10)], [11.0] * 10, [25.0] * 10, "ok", "ok"),
    # Median p50 13.5 against 10.45 (+29%), ops 20 against 30 (-33%): worse.
    ([10.0 + i / 10 for i in range(10)], [13.5] * 10, [20.0] * 10, "worse", "worse"),
    # The parent's spread is 65% of its median: the same runs cannot tell.
    (WIDE, WIDE[::-1], [30.0] * 10, "unresolved", "ok"),
    # ...unless every change run beats every parent run.
    (WIDE, [4.9] * 10, [30.0] * 10, "ok", "ok"),
    # A median worse beyond the bound reads worse whatever the spread.
    (WIDE, [13.0] * 10, [30.0] * 10, "worse", "ok"),
])
def test_bench_pairs_summary_checks_each_metric_against_its_bound(
    parent_p50, change_p50, change_ops, p50_verdict, ops_verdict
):
    bench_pairs = load_script("bench_pairs")
    pairs = [
        (json.loads(result_line(p, 30.0)), json.loads(result_line(c, co)))
        for p, c, co in zip(parent_p50, change_p50, change_ops)
    ]
    p50, ops = bench_pairs.summarize(pairs, END_TO_END)
    assert (p50["within_bound"], ops["within_bound"]) == (p50_verdict, ops_verdict)
    table = bench_pairs.format_rows([p50, ops], (0, 0)).splitlines()
    assert table[1].endswith("\tbound\twithin bound")
    assert table[2].endswith(f"\t0.25\t{p50_verdict}") and table[3].endswith(f"\t0.25\t{ops_verdict}")


def test_bench_pairs_takes_the_parent_spread_within_each_input_variant():
    # Seeds alternate between two graphs whose p50 lies 30% apart, and each
    # graph's runs are tight. Across both, the quartile distance is 26% of
    # the median, wider than the bound; within each graph it is about 1%.
    bench_pairs = load_script("bench_pairs")
    parent_p50 = [10.0, 13.0, 10.05, 13.05, 10.1, 13.1, 10.0, 13.0, 10.05, 13.05]
    change_p50 = [10.05, 13.05, 10.0, 13.1, 10.05, 13.0, 10.1, 13.05, 10.0, 13.0]
    q1, median, q3 = bench_pairs.quartiles(parent_p50)
    assert q3 - q1 > 0.25 * median
    pairs = [
        (json.loads(result_line(p, 30.0, i % 2)), json.loads(result_line(c, 30.0, i % 2)))
        for i, (p, c) in enumerate(zip(parent_p50, change_p50))
    ]
    p50, ops = bench_pairs.summarize(pairs, END_TO_END)
    assert p50["parent_iqr"] < 0.01 * median
    assert (p50["within_bound"], ops["within_bound"]) == ("ok", "ok")


@pytest.mark.parametrize("diffs, expected", [
    # Negative through 28k, positive from 32k, and every IQR clear of zero.
    ([(-9, -5, -1), (-3, -2, -1), (1, 2, 3), (4, 6, 8)], (28000, 32000, True)),
    # The same medians, but 32k's IQR reaches below zero: placed, not resolved.
    ([(-9, -5, -1), (-3, -2, -1), (-1, 2, 3), (4, 6, 8)], (28000, 32000, False)),
    # A positive median before a negative one does not count: the run from the top does.
    ([(1, 2, 3), (-3, -2, -1), (1, 2, 3), (4, 6, 8)], (28000, 32000, True)),
    # Positive everywhere: at or below the smallest count.
    ([(1, 2, 3)] * 4, (None, 20000, False)),
    # Not positive at the largest: no break-even within the grid.
    ([(1, 2, 3), (1, 2, 3), (1, 2, 3), (-3, -2, -1)], (48000, None, False)),
])
def test_bulk_threshold_places_the_break_even_from_paired_quartiles(diffs, expected):
    bulk_threshold = load_script("bulk_threshold")
    points = list(zip((20000, 28000, 32000, 48000), diffs))
    assert bulk_threshold.break_even(points) == expected
