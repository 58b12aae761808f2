#!/usr/bin/env python3
"""Where the bulk edge-list parse starts to pay off in a fresh `knn` process.

The bulk parse imports numpy, which a small file's `knn` never loads. For
edge lists of several line counts, with short ids and with 10-digit ids,
this times `knn` child processes end to end with the bulk parse forced on
and forced off (by setting `graph._BULK_MIN_LINES` in the child). Each rep
times every line count once, in an order shuffled per rep, and both modes
of a point back to back, in alternating order; so a machine that slows
down for a minute slows every point alike, and each point's "loop - bulk"
is a difference of two runs made seconds apart. For each point it prints
the quartiles (q1/median/q3) of both modes and of the paired difference,
then where "loop - bulk" turns positive: the line count
`_BULK_MIN_LINES` should sit near. The break-even is resolved when the
difference's quartiles lie wholly at or below zero at the point before it
and wholly above zero from it on.

    python3 scripts/bulk_threshold.py [--reps 10] [--lines 20000,32000,48000]
"""

from __future__ import annotations

import argparse
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

from chargediff.generators import erdos_renyi_connected
from chargediff.graph import serialize_edge_list

CHILD = "import sys; from chargediff import cli, graph; graph._BULK_MIN_LINES = {}; sys.exit(cli.main(sys.argv[1:]))"
MODES = {"bulk": "0", "loop": "float('inf')"}
IDS = {"short ids": 0, "10-digit ids": 10**9}


def edge_text(lines: int, label_offset: int) -> str:
    """About `lines` edges on lines/4 nodes, ids shifted by `label_offset`."""
    g = erdos_renyi_connected(lines // 4, 8.0, random.Random(lines))
    if not label_offset:
        return serialize_edge_list(g)
    return "".join(
        f"{label_offset + 7 * i} {label_offset + 7 * j}\n" for i in range(g.node_count) for j in g.targets[i] if i <= j
    )


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def break_even(points: list[tuple[int, tuple[float, float, float]]]) -> tuple[int | None, int | None, bool]:
    """``(below, above, resolved)`` from ``(lines, loop - bulk quartiles)`` points, ascending by lines.

    ``above`` is the first line count from which every median is positive
    (None if the last one is not), ``below`` the point before it (None if
    there is none). ``resolved`` says that the quartiles lie wholly at or
    below zero at ``below`` and wholly above zero from ``above`` on.
    """
    k = len(points)
    while k and points[k - 1][1][1] > 0:
        k -= 1
    above = points[k][0] if k < len(points) else None
    below = points[k - 1][0] if k else None
    resolved = (
        above is not None
        and below is not None
        and points[k - 1][1][2] <= 0
        and all(q[0] > 0 for _, q in points[k:])
    )
    return below, above, resolved


def knn_seconds(path: str, offset: int, mode: str, env: dict) -> float:
    argv = ["knn", "--graph", path, "--seed", str(offset), "--epsilon", "0.01"]
    child = [sys.executable, "-c", CHILD.format(MODES[mode]), *argv]
    start = time.perf_counter()
    subprocess.run(child, env=env, check=True, capture_output=True)
    return time.perf_counter() - start


def ms(q: tuple[float, float, float]) -> str:
    return "/".join(f"{1000 * v:.1f}" for v in q)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--lines", default="20000,24000,28000,32000,36000,40000,48000")
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    counts = sorted(map(int, args.lines.split(",")))
    with tempfile.TemporaryDirectory() as tmp:
        points = {}
        for ids, offset in IDS.items():
            for lines in counts:
                path = os.path.join(tmp, f"g{lines}-{offset}.edges")
                text = edge_text(lines, offset)
                with open(path, "w") as fh:
                    fh.write(text)
                points[ids, lines] = (path, offset, text.count("\n"))
        times = {point: {"bulk": [], "loop": []} for point in points}
        order = list(points)
        rng = random.Random(0)
        for rep in range(args.reps):
            rng.shuffle(order)
            for k, point in enumerate(order):
                path, offset, _ = points[point]
                for mode in sorted(MODES, reverse=(rep + k) % 2 == 1):
                    times[point][mode].append(knn_seconds(path, offset, mode, env))
    for ids in IDS:
        print(f"{ids} (ms, q1/median/q3 of {args.reps} reps)")
        diffs = []
        for lines in counts:
            bulk, loop = times[ids, lines]["bulk"], times[ids, lines]["loop"]
            diff = quartiles([b - a for a, b in zip(bulk, loop)])
            diffs.append((points[ids, lines][2], diff))
            row = f"{diffs[-1][0]:>7} lines  bulk {ms(quartiles(bulk))}  loop {ms(quartiles(loop))}"
            print(f"  {row}  loop - bulk {ms(diff)}")
        below, above, resolved = break_even(diffs)
        if above is None:
            print("  break-even: not within these line counts (loop - bulk not positive at the largest)")
        else:
            where = f"between {below} and {above}" if below is not None else f"at or below {above}"
            print(f"  break-even: {where} lines ({'resolved' if resolved else 'quartiles overlap zero'})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
