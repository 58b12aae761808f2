"""The CLI's bytes, pinned: exit code, stdout and stderr of a fixed matrix.

Each case runs ``cli.main`` in-process, with the working directory set to a
temporary directory holding the fixed edge files below, so that the echoed
``--graph`` path is the same on every machine. The SHA-256 of each case's
exit code, stdout and stderr must match ``cli_golden.json``.

A change that alters the output on purpose re-records the table from the
changed tree and says in its notes which rows changed:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/cli_golden.json
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

TABLE = Path(__file__).resolve().parent / "cli_golden.json"

# name: (file text, extra flags, seed)
GRAPHS = {
    "star": ("\n".join(f"0 {i}" for i in range(1, 11)) + "\n", (), "0"),
    "triangle": ("0 1\n1 2\n2 0\n", (), "0"),
    "sparse": ("10 500\n500 70000\n70000 10\n10 9000000\n9000000 123456789\n", (), "500"),
    "weighted": ("0 1 2.5\n1 2 0.5\n0 2 1\n2 3 3\n3 4 1.5\n4 0 0.25\n", (), "0"),
    "path": ("0 1\n1 2\n2 3\n3 4\n", ("--directed",), "0"),
}
FLAG_SETS = {
    "a": ("--epsilon", "0.1", "--k", "3", "--max-iters", "300"),
    "b": ("--alpha", "0.3", "--epsilon", "0.05", "--k", "2", "--max-iters", "7", "--include-seed"),
}
EXTRA_FILES = {
    "bad.edges": b"0 1\n1 x\n",
    "latin1.edges": "0 1\n1 2 \xe9\n".encode("latin-1"),
    "arc.edges": b"0 1\n",
    "empty.edges": b"",
}
# Errors, their order, and runs that end other than by quiescence.
EDGE_CASES = {
    "missing-file": ("knn", "--graph", "nope.edges", "--seed", "0"),
    "missing-file-bad-alpha": ("simulate", "--graph", "nope.edges", "--seed", "0", "--alpha", "2"),
    "bad-edge-list": ("knn", "--graph", "bad.edges", "--seed", "0"),
    "undecodable": ("compare", "--graph", "latin1.edges", "--seed", "0"),
    "empty-graph": ("knn", "--graph", "empty.edges", "--seed", "0"),
    "unknown-seed": ("knn", "--graph", "star.edges", "--seed", "99"),
    "unknown-seed-bad-alpha": ("knn", "--graph", "star.edges", "--seed", "99", "--alpha", "1.5"),
    "bad-alpha": ("knn", "--graph", "star.edges", "--seed", "0", "--alpha", "1.5"),
    "bad-alpha-bad-k": ("compare", "--graph", "star.edges", "--seed", "0", "--alpha", "0", "--k", "0"),
    "zero-epsilon": ("knn", "--graph", "star.edges", "--seed", "0", "--epsilon", "0"),
    "delta-above-epsilon": (
        "knn", "--graph", "star.edges", "--seed", "0", "--variant", "excess", "--epsilon", "0.1",
        "--delta", "0.2",
    ),
    "zero-max-iters": ("simulate", "--graph", "star.edges", "--seed", "0", "--max-iters", "0"),
    "knn-k-0-after-warnings": ("knn", "--graph", "triangle.edges", "--seed", "0", "--k", "0"),
    "compare-k-0": ("compare", "--graph", "star.edges", "--seed", "0", "--k", "0"),
    "compare-teleport-1": ("compare", "--graph", "triangle.edges", "--seed", "0", "--teleport", "1"),
    "compare-teleport-0-k-0": (
        "compare", "--graph", "star.edges", "--seed", "0", "--teleport", "0", "--k", "0",
    ),
    "compare-k-beyond-ranks": (
        "compare", "--graph", "star.edges", "--seed", "0", "--epsilon", "0.1", "--k", "20",
    ),
    "compare-k-beyond-ranks-tsv": (
        "compare", "--graph", "star.edges", "--seed", "0", "--epsilon", "0.1", "--k", "20",
        "--format", "tsv",
    ),
    "compare-ppr-no-convergence": (
        "compare", "--graph", "arc.edges", "--seed", "0", "--teleport", "1e-9",
    ),
    "compare-stuck-seed": ("compare", "--graph", "arc.edges", "--directed", "--seed", "1"),
    "bounds-zero-epsilon": ("bounds", "--graph", "star.edges", "--epsilon", "0"),
    "bounds-tiny-alpha": ("bounds", "--graph", "triangle.edges", "--alpha", "1e-310"),
    "bounds-delta-2": ("bounds", "--graph", "triangle.edges", "--delta", "2"),
    "bounds-triangle-eps-0.01": ("bounds", "--graph", "triangle.edges", "--epsilon", "0.01"),
    "bounds-triangle-eps-0.01-tsv": (
        "bounds", "--graph", "triangle.edges", "--epsilon", "0.01", "--format", "tsv",
    ),
    "simulate-tiny-epsilon": (
        "simulate", "--graph", "triangle.edges", "--seed", "0", "--epsilon", "1e-300",
    ),
    "knn-tiny-epsilon": (
        "knn", "--graph", "triangle.edges", "--seed", "0", "--epsilon", "1e-300", "--max-iters", "50",
    ),
    "knn-triangle-default-cap": ("knn", "--graph", "triangle.edges", "--seed", "0"),
    "knn-triangle-excess-default-cap": (
        "knn", "--graph", "triangle.edges", "--seed", "0", "--variant", "excess",
    ),
    "simulate-triangle-default-cap": ("simulate", "--graph", "triangle.edges", "--seed", "0"),
    "simulate-triangle-default-cap-tsv": (
        "simulate", "--graph", "triangle.edges", "--seed", "0", "--format", "tsv",
    ),
    "simulate-stuck-seed": ("simulate", "--graph", "arc.edges", "--directed", "--seed", "1"),
    "simulate-stuck-seed-tsv": (
        "simulate", "--graph", "arc.edges", "--directed", "--seed", "1", "--format", "tsv",
    ),
}


def cases() -> dict[str, tuple[str, ...]]:
    """Every case's name and argv: the full matrix, then the edge cases."""
    out = {}
    for command in ("knn", "simulate", "bounds", "compare"):
        for fmt in ("json", "tsv"):
            for variant in ("retention", "excess", "lazy"):
                for name, (_, extra, seed) in GRAPHS.items():
                    for flags_name, flags in FLAG_SETS.items():
                        argv = [command, "--graph", f"{name}.edges", *extra]
                        if command != "bounds":
                            argv += ["--seed", seed]
                        argv += ["--variant", variant, "--format", fmt, *flags]
                        out[f"{command}/{fmt}/{variant}/{name}/{flags_name}"] = tuple(argv)
    out.update(EDGE_CASES)
    return out


def digest(argv: tuple[str, ...]) -> str:
    from chargediff.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    blob = json.dumps([code, out.getvalue(), err.getvalue()])
    return hashlib.sha256(blob.encode()).hexdigest()


def digests() -> dict[str, str]:
    """Run every case in a fresh directory holding the edge files."""
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        for name, (text, _, _) in GRAPHS.items():
            Path(tmp, f"{name}.edges").write_text(text)
        for name, data in EXTRA_FILES.items():
            Path(tmp, name).write_bytes(data)
        os.chdir(tmp)
        try:
            return {name: digest(argv) for name, argv in cases().items()}
        finally:
            os.chdir(here)


def test_cli_bytes_match_the_committed_table():
    expected = json.loads(TABLE.read_text())
    got = digests()
    assert len(got) >= 259
    assert got.keys() == expected.keys()
    changed = sorted(name for name in got if got[name] != expected[name])
    assert changed == []


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1, sort_keys=True)
    print()
