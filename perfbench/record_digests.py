"""Record the committed input provenance and result digests of one workload.

Usage, from the root of a checkout::

    python3 perfbench/record_digests.py cli-capped

Runs every operation in each input variant's pool once and writes
``perfbench/digests/<workload>.json``. An operation that breaks an invariant
is reported and the file is not written. Digests are recorded once, when a
workload is defined; a later change that alters them has changed results.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bench_workloads as bw  # noqa: E402


def record(name: str) -> dict:
    recorded = {}
    for variant in range(bw.VARIANTS):
        t0 = time.perf_counter()
        wl = bw.WORKLOADS[name](variant, ROOT)
        wl.setup()
        ops = {}
        for batch in wl.batches:
            for op in batch:
                out = wl.outcome(op, wl.run(op))
                if out.problems:
                    raise SystemExit(f"{name} variant {variant} op {op.key}: {out.problems}")
                ops[op.key] = out.digest
        recorded[str(variant)] = {"inputs": wl.inputs, "ops": ops}
        print(f"{name} variant {variant}: {len(ops)} ops in {time.perf_counter() - t0:.1f} s", flush=True)
    return recorded


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=sorted(bw.WORKLOADS))
    args = parser.parse_args()
    recorded = record(args.workload)
    path = bw.digest_path(ROOT, args.workload)
    path.parent.mkdir(exist_ok=True)
    path.write_text(json.dumps(recorded, indent=1) + "\n")


if __name__ == "__main__":
    main()
