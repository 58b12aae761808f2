"""Seeded workloads: their inputs, operations, result checks and digests.

The benchmark owns its graph generators, so a change to
``chargediff.generators`` cannot change a workload. The program only ever
receives edge-list text (the API workload) or edge-list files (the CLI
workload).

A run's ``--seed`` picks one of ``VARIANTS`` input variants (seed modulo
``VARIANTS``). Each variant has a fixed pool of operation batches
(``batches``) whose result digests are committed in
``digests/<workload>.json``, so every operation a run makes is checked bit
for bit against the commit that recorded them. A run that outlasts its pool
starts the pool again.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import chargediff.cli as cli
from chargediff import engine, graph
from chargediff.diffusion import DiffusionConfig, Variant

VARIANTS = 16
ALPHA = 0.5
# Slack on sum(charges) == 1; tests use 1e-12 on small graphs, the capped
# CLI runs here fold up to ~10^5 rounds of receipts.
CONSERVATION_TOL = 1e-9


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def edge_text(edges: list[tuple[int, int]]) -> str:
    return "".join(f"{u} {v}\n" for u, v in edges)


def erdos_renyi(rng: random.Random, n: int, m: int) -> list[tuple[int, int]]:
    """A random recursive spanning tree plus uniform random edges, m in total."""
    edges = []
    seen = set()
    for v in range(1, n):
        u = rng.randrange(v)
        seen.add(u * n + v)
        edges.append((u, v))
    while len(edges) < m:
        u, v = rng.randrange(n), rng.randrange(n)
        if u == v:
            continue
        if u > v:
            u, v = v, u
        if u * n + v not in seen:
            seen.add(u * n + v)
            edges.append((u, v))
    return edges


def clique(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def describe(edges: list[tuple[int, int]], text: str, how: str) -> dict:
    """Provenance of one generated input, independent of the program."""
    degree: dict[int, int] = {}
    for u, v in edges:
        degree[u] = degree.get(u, 0) + 1
        degree[v] = degree.get(v, 0) + 1
    return {
        "generator": how,
        "nodes": len(degree),
        "edges": len(edges),
        "max_degree": max(degree.values()),
        "sha256": hashlib.sha256(text.encode()).hexdigest(),
    }


def result_digest(charges, nn_set, terminated: bool, iterations: int | None) -> str:
    """SHA-256 over final charges (repr floats), nn_set, terminated and iterations.

    Capped runs pass ``iterations=None``: the cap is a policy the program may
    change, the charges it stopped at are not.
    """
    doc = [[[int(i), repr(float(x))] for i, x in charges], list(nn_set), bool(terminated), iterations]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def core_bound(epsilon: float) -> float:
    return 1.0 / ((1.0 - ALPHA) * epsilon)


def core_fill(nn_size: int, epsilon: float) -> float:
    """Candidate-set size as a share of max_core_size = floor(1/((1-alpha)*eps))."""
    return nn_size / math.floor(core_bound(epsilon) + 1e-9)


def invariant_problems(charges: list[tuple[int, float]], nn_size: int, epsilon: float) -> list[str]:
    """Charge conservation, non-negativity and the candidate-set bound."""
    problems = []
    total = math.fsum(x for _, x in charges)
    if abs(total - 1.0) > CONSERVATION_TOL:
        problems.append(f"charge not conserved: sum={total!r}")
    if any(x < 0.0 for _, x in charges):
        problems.append("negative charge")
    if nn_size > core_bound(epsilon) * (1.0 + 1e-12):
        problems.append(f"nn_set size {nn_size} exceeds 1/((1-alpha)*eps)={core_bound(epsilon):g}")
    return problems


@dataclass(frozen=True)
class Op:
    key: str
    node: int
    config: str


@dataclass
class Outcome:
    """What an operation produced, reduced to what the checks and metrics read."""

    digest: str
    problems: list[str]
    nn_size: int
    touched: int
    iterations: int
    capped: bool
    core_fill: float
    rounds: int = 0
    messages: int = 0
    out_bytes: int = 0


API_CONFIGS = {
    "retention-1e-2": DiffusionConfig(alpha=ALPHA, epsilon=1e-2),
    "retention-1e-3": DiffusionConfig(alpha=ALPHA, epsilon=1e-3),
    "excess-1e-3": DiffusionConfig(alpha=ALPHA, epsilon=1e-3, variant=Variant.EXCESS, delta=1e-5),
}


def sim_outcome(op: Op, result) -> Outcome:
    """A run_distributed result; its digest must equal the centralized run's."""
    res, stats = result
    out = query_outcome(res, API_CONFIGS[op.config])
    out.rounds = len(stats)
    out.messages = sum(s.messages_sent for s in stats)
    return out


def query_outcome(result, cfg: DiffusionConfig) -> Outcome:
    charges = sorted(result.final_charges.items())
    problems = invariant_problems(charges, len(result.nn_set), cfg.epsilon)
    if not result.terminated:
        problems.append("query hit the iteration cap")
    digest = result_digest(
        charges, result.nn_set, result.terminated, result.iterations if result.terminated else None
    )
    return Outcome(
        digest, problems, len(result.nn_set), result.touched, result.iterations,
        not result.terminated, core_fill(len(result.nn_set), cfg.epsilon),
    )


# Simulator runs in a traced query-er100k run; each costs ~2 s (O(n) rounds).
SIMULATOR_RUNS = 3


class QueryER:
    """query-er100k: each pool seed queried under three configs, one at a time.

    The graph is Erdos-Renyi style, 100k nodes and 400k edges; the pool holds
    48 seeds drawn uniformly from it.
    """

    name = "query-er100k"
    setup_reps = 3
    setup_inner = 1

    def __init__(self, variant: int, root: Path) -> None:
        self.variant = variant
        self.root = root
        seed = f"{self.name}/{variant}/graph"
        edges = erdos_renyi(random.Random(seed), 100_000, 400_000)
        self.texts = {"graph": edge_text(edges)}
        self.inputs = {"graph": describe(edges, self.texts["graph"], f"erdos_renyi n=100000 m=400000 seed={seed}")}
        del edges
        self.graph = None
        nodes = random.Random(f"{self.name}/{variant}/queries").sample(range(self.inputs["graph"]["nodes"]), 48)
        self.batches = [[Op(f"{node}/{c}", node, c) for c in API_CONFIGS] for node in nodes]

    def setup(self) -> None:
        self.graph = None
        self.graph, _labels = graph.parse_edge_list_relabeled(self.texts["graph"])

    def arcs(self) -> int:
        return self.graph.arc_count

    def run(self, op: Op):
        return engine.run_query(self.graph, op.node, API_CONFIGS[op.config])

    def outcome(self, op: Op, result) -> Outcome:
        return query_outcome(result, API_CONFIGS[op.config])

    def simulator_ops(self) -> list[Op]:
        """run_distributed probes for the traced run: the first pool seeds at retention eps=1e-2."""
        return [op for batch in self.batches[:SIMULATOR_RUNS] for op in batch if op.config == "retention-1e-2"]


# Caps sized so that each invocation takes about the same time, 1.2 s
# (Python 3.11, 2-core Xeon VM), most of it in rounds; with unequal times
# the percentiles of the four-way mix would jump between invocation kinds.
# The graphs have n <= 1/eps = 100, so every run goes to the cap.
CLI_INPUTS = {"triangle": 3, "clique20": 20}
CLI_CAPS = {
    ("triangle", "retention"): 75_000,
    ("triangle", "excess"): 45_000,
    ("clique20", "retention"): 8_000,
    ("clique20", "excess"): 7_000,
}
CLI_EPSILON = 0.01


class CliCapped:
    """cli-capped: ``python -m chargediff knn`` child processes, one at a time."""

    name = "cli-capped"
    setup_reps = 5
    setup_inner = 400

    def __init__(self, variant: int, root: Path) -> None:
        self.variant = variant
        self.root = root
        self.texts = {}
        self.inputs = {}
        for label, n in CLI_INPUTS.items():
            edges = clique(n)
            self.texts[label] = edge_text(edges)
            self.inputs[label] = describe(edges, self.texts[label], f"clique n={n}")
        rng = random.Random(f"{self.name}/{variant}/queries")
        nodes = {label: rng.randrange(n) for label, n in CLI_INPUTS.items()}
        self.batches = [[Op(f"{label}/{var}", nodes[label], var) for label, var in CLI_CAPS]]
        self.graphs = None
        # The CLI reads files; paths are relative to the checkout root, its cwd.
        directory = root / "perfbench" / "out" / "inputs" / f"{self.name}-{variant}"
        directory.mkdir(parents=True, exist_ok=True)
        self.paths = {}
        for label, text in self.texts.items():
            path = directory / f"{label}.edges"
            path.write_text(text)
            self.paths[label] = path.relative_to(root).as_posix()

    def setup(self) -> None:
        self.graphs = {label: graph.parse_edge_list_relabeled(text) for label, text in self.texts.items()}

    def arcs(self) -> int:
        return sum(g.arc_count for g, _ in self.graphs.values())

    def simulator_ops(self) -> list[Op]:
        return []

    def argv(self, op: Op) -> list[str]:
        label, var = op.key.split("/")
        return [
            "knn", "--graph", self.paths[label], "--seed", str(op.node),
            "--variant", var, "--epsilon", repr(CLI_EPSILON),
            "--max-iters", str(CLI_CAPS[(label, var)]), "--k", "20", "--include-seed",
        ]

    def run(self, op: Op):
        proc = subprocess.run(
            [sys.executable, "-m", "chargediff", *self.argv(op)],
            cwd=self.root,
            env=child_env(self.root),
            capture_output=True,
            timeout=150,
        )
        return proc.returncode, proc.stdout

    def run_inprocess(self, op: Op):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self.argv(op))
        return code, out.getvalue().encode()

    def outcome(self, op: Op, result) -> Outcome:
        code, stdout = result
        if code != 0:
            return Outcome("", [f"exit code {code}"], 0, 0, 0, False, 0.0, out_bytes=len(stdout))
        doc = json.loads(stdout)["result"]
        charges = [(e["node"], e["charge"]) for e in doc["top"]]
        problems = invariant_problems(charges, doc["nn_set_size"], CLI_EPSILON)
        label, var = op.key.split("/")
        # n <= 1/eps: the run cannot terminate. It may stop before the cap
        # (ROADMAP item 4 plans a fixed-point stop), never after it.
        if doc["terminated"] or doc["iterations"] > CLI_CAPS[(label, var)]:
            problems.append(f"expected a capped run, got terminated={doc['terminated']} iterations={doc['iterations']}")
        digest = result_digest(charges, doc["nn_set"], doc["terminated"], None)
        return Outcome(
            digest, problems, doc["nn_set_size"], doc["touched"], doc["iterations"],
            not doc["terminated"], core_fill(doc["nn_set_size"], CLI_EPSILON), out_bytes=len(stdout),
        )


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


WORKLOADS = {w.name: w for w in (QueryER, CliCapped)}


def digest_path(root: Path, workload: str) -> Path:
    return root / "perfbench" / "digests" / f"{workload}.json"
