#!/usr/bin/env python3
"""Where the bulk edge-list parse starts to pay off in a fresh `knn` process.

The bulk parse imports numpy, which a small file's `knn` never loads. For
edge lists of several line counts, with short ids and with 10-digit ids,
this times `knn` child processes end to end with the bulk parse forced on
and forced off (by setting `graph._BULK_MIN_LINES` in the child), in
alternating order, and prints the medians. Where "loop - bulk" turns
positive is the line count `_BULK_MIN_LINES` should sit near.

    python3 scripts/bulk_threshold.py [--reps 10] [--lines 20000,32000,48000]
"""

import argparse
import os
import random
import statistics
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, "src")

from chargediff.generators import erdos_renyi_connected
from chargediff.graph import serialize_edge_list

CHILD = "import sys; from chargediff import cli, graph; graph._BULK_MIN_LINES = {}; sys.exit(cli.main(sys.argv[1:]))"
MODES = {"bulk": "0", "loop": "float('inf')"}


def edge_text(lines: int, label_offset: int) -> str:
    """About `lines` edges on lines/4 nodes, ids shifted by `label_offset`."""
    g = erdos_renyi_connected(lines // 4, 8.0, random.Random(lines))
    if not label_offset:
        return serialize_edge_list(g)
    return "".join(
        f"{label_offset + 7 * i} {label_offset + 7 * j}\n" for i in range(g.node_count) for j in g.targets[i] if i <= j
    )


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--reps", type=int, default=10)
    parser.add_argument("--lines", default="20000,24000,28000,32000,36000,40000,48000")
    args = parser.parse_args()
    env = {**os.environ, "PYTHONPATH": os.path.abspath("src")}
    with tempfile.TemporaryDirectory() as tmp:
        for ids, offset in (("short ids", 0), ("10-digit ids", 10**9)):
            print(ids)
            for lines in map(int, args.lines.split(",")):
                path = os.path.join(tmp, f"g{lines}.edges")
                with open(path, "w") as fh:
                    text = edge_text(lines, offset)
                    fh.write(text)
                argv = ["knn", "--graph", path, "--seed", str(offset), "--epsilon", "0.01"]
                times = {mode: [] for mode in MODES}
                for rep in range(args.reps):
                    for mode in sorted(MODES, reverse=rep % 2 == 1):
                        start = time.perf_counter()
                        child = [sys.executable, "-c", CHILD.format(MODES[mode]), *argv]
                        subprocess.run(child, env=env, check=True, capture_output=True)
                        times[mode].append(time.perf_counter() - start)
                bulk, loop = (1000 * statistics.median(times[mode]) for mode in ("bulk", "loop"))
                row = f"{text.count(chr(10)):>7} lines  bulk {bulk:6.1f} ms  loop {loop:6.1f} ms"
                print(f"  {row}  loop - bulk {loop - bulk:6.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
