"""Command-line front end.

Subcommands: ``knn`` (run a query and print the top-k neighbors),
``simulate`` (message-passing run with per-round stats), ``bounds``
(closed-form size bounds for a config on a graph), and ``compare``
(diffusion ranking vs a personalized-pagerank baseline).

Output is machine-readable JSON by default (``--format tsv`` for tabular
text); identical invocations produce byte-identical output, and every report
echoes the effective config. A config that the graph is too small for, say
one whose run cannot terminate, prints ``warning:`` lines on stderr and lists
them in the JSON ``warnings``, under every subcommand. The four
subcommands check a config by one rule before any run, so a config that one
rejects the others reject too, with the same ``error:`` line; ``bounds``
alone also rejects ``lazy``, which has no bounds. Exit codes: 0
success, 1 usage or config error, 2 I/O or parse error. A reader that closes
stdout early (``| head``) ends the run with exit 2 and no message. Node ids
in reports always use the input file's original labels; sparse labels are
compacted internally only.

A report costs what it answers, not the iteration cap. The ``result`` of
``knn`` and ``simulate`` carries ``stop_reason`` (``quiescent``,
``excess_below_delta`` or ``iteration_cap``), and ``cycle_start`` and
``period``, which are null unless the charge vector repeated. A run that
repeated prints its ``excess_trace`` (``knn``) and its ``rounds``
(``simulate``; as ``# cycle_start=`` and ``# period=`` lines above the TSV
table) as the library keeps them, up to the repeat; the rest follow by the
rule in :class:`chargediff.engine.QueryResult`. ``totals`` count every
round.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import sys
from dataclasses import asdict

from .diffusion import DiffusionConfig, Variant
from .engine import Bounds, ConfigError, QueryResult, check_config, run_query, top_k
from .graph import EdgeListError, Graph, parse_edge_list_relabeled


class _Parser(argparse.ArgumentParser):
    # Usage errors exit 1 per the CLI contract (argparse defaults to 2).
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="chargediff", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, with_seed: bool = True) -> None:
        p.add_argument("--graph", required=True, help="edge-list file path")
        p.add_argument("--directed", action="store_true", help="treat edges as arcs")
        if with_seed:
            p.add_argument("--seed", type=int, required=True, help="query node (file label)")
        p.add_argument("--alpha", type=float, default=0.5)
        p.add_argument("--epsilon", type=float, default=0.01)
        p.add_argument("--delta", type=float, default=None, help="default epsilon/100")
        p.add_argument("--variant", choices=sorted(v.value for v in Variant), default="retention")
        p.add_argument("--k", type=int, default=10)
        p.add_argument("--max-iters", type=int, default=1_000_000, dest="max_iterations")
        p.add_argument("--include-seed", action="store_true")
        p.add_argument("--format", choices=["json", "tsv"], default="json")

    common(sub.add_parser("knn", help="run a query and print the top-k neighbors"))
    common(sub.add_parser("simulate", help="message-passing run with round stats"))
    common(sub.add_parser("bounds", help="closed-form size bounds"), with_seed=False)
    compare = sub.add_parser("compare", help="diffusion vs personalized pagerank")
    common(compare)
    compare.add_argument("--teleport", type=float, default=0.15)
    return parser


class _UnreadableGraph(Exception):
    """The ``--graph`` file could not be read or decoded; ``main`` exits 2."""


def _load_graph(args) -> tuple[Graph, list[int]]:
    try:
        with open(args.graph, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise _UnreadableGraph(exc) from None
    return parse_edge_list_relabeled(text, directed=args.directed)


def _make_config(args) -> DiffusionConfig:
    delta = args.delta if args.delta is not None else args.epsilon / 100.0
    return DiffusionConfig(
        alpha=args.alpha,
        epsilon=args.epsilon,
        variant=Variant(args.variant),
        delta=delta,
        max_iterations=args.max_iterations,
    )


def _dense_seed(args, labels: list[int]) -> int:
    # Both parses return the labels ascending, so a binary search finds the seed.
    i = bisect.bisect_left(labels, args.seed)
    if i == len(labels) or labels[i] != args.seed:
        raise ConfigError(f"seed {args.seed} is not a node of {args.graph}")
    return i


def _prepare(args) -> tuple[Graph, list[int], DiffusionConfig, int | None, list[str], Bounds | None]:
    """Every subcommand's prologue: load, configure, find the seed, check; print the warnings.

    Returns the graph, its labels, the config, the dense seed (None for
    ``bounds``, which takes none), and the warnings and bounds of
    :func:`chargediff.engine.check_config`. Errors surface in the CLI's
    order: unreadable or malformed graph (exit 2), then unknown seed, then
    out-of-range config (exit 1), all before any run.
    """
    graph, labels = _load_graph(args)
    cfg = _make_config(args)
    seed = _dense_seed(args, labels) if hasattr(args, "seed") else None
    warnings, bounds = check_config(graph, cfg)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return graph, labels, cfg, seed, warnings, bounds


def _report(args, cfg: DiffusionConfig, body: dict, comments: list[str], table: list[str]) -> int:
    """Print a subcommand's report with its config echo; return exit code 0.

    The config echo is every parsed option but the subcommand, with the
    config's effective ``alpha``, ``epsilon``, ``delta`` and ``variant``.
    JSON prints ``{"command", "config", **body}``; TSV prints the config as
    ``# key=value`` lines, then ``comments`` and the ``table`` lines.
    """
    echo = {key: val for key, val in vars(args).items() if key != "command"}
    echo.update(alpha=cfg.alpha, epsilon=cfg.epsilon, delta=cfg.delta, variant=cfg.variant.value)
    if args.format == "json":
        _emit_json({"command": args.command, "config": echo, **body})
    else:
        print("\n".join([*(f"# {key}={echo[key]}" for key in sorted(echo)), *comments, *table]))
    return 0


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _outcome(result: QueryResult, labels: list[int]) -> dict:
    """The result fields that ``knn`` and ``simulate`` share; warn if the run was capped."""
    if not result.terminated:
        print("warning: iteration cap reached without termination", file=sys.stderr)
    return {
        "nn_set": [labels[node] for node in result.nn_set],
        "iterations": result.iterations,
        "terminated": result.terminated,
        "touched": result.touched,
        "stop_reason": result.stop_reason,
        "cycle_start": result.cycle_start,
        "period": result.period,
    }


def _check_k(k: int) -> None:
    # Checked before the query so a bad k costs no run; same message as top_k.
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


def _cmd_knn(args) -> int:
    graph, labels, cfg, seed, warnings, _ = _prepare(args)
    _check_k(args.k)
    result = run_query(graph, seed, cfg)
    charges = result.final_charges
    top = top_k(charges, args.k, skip=None if args.include_seed else seed)
    outcome = {
        **_outcome(result, labels),
        "top": [{"node": labels[node], "charge": charges[node]} for node in top],
        "nn_set_size": len(result.nn_set),
    }
    if result.excess_trace is not None:
        outcome["excess_trace"] = result.excess_trace
    table = ["rank\tnode\tcharge"]
    table += [f"{rank}\t{labels[node]}\t{charges[node]!r}" for rank, node in enumerate(top, 1)]
    return _report(args, cfg, {"warnings": warnings, "result": outcome}, [], table)


def _cmd_simulate(args) -> int:
    # Imported here so that the other subcommands start without the simulator.
    from .distsim import message_complexity_report, run_distributed, total_messages

    graph, labels, cfg, seed, warnings, bounds = _prepare(args)
    result, stats = run_distributed(graph, seed, cfg)
    match = run_query(graph, seed, cfg) == result
    fields = ("round", "messages", "active", "total_charge")
    rounds = [
        dict(zip(fields, (r, s.messages_sent, s.active_count, s.total_charge)))
        for r, s in enumerate(stats, 1)
    ]
    body = {
        "warnings": warnings,
        "centralized_match": match,
        "rounds": rounds,
        "totals": {"rounds": result.iterations, "messages": total_messages(stats, result)},
        "result": _outcome(result, labels),
    }
    if bounds is not None:
        body["complexity"] = message_complexity_report(stats, result, bounds, graph.max_degree)
    comments = []
    if graph.degrees[seed] == 0:
        body["note"] = "seed has no out-edges; nothing to simulate"
        comments.append(f"# note={body['note']}")
    comments += [
        f"# centralized_match={match}",
        f"# cycle_start={result.cycle_start}",
        f"# period={result.period}",
    ]
    table = ["\t".join(fields), *("\t".join(map(repr, row.values())) for row in rounds)]
    return _report(args, cfg, body, comments, table)


def _cmd_bounds(args) -> int:
    graph, _, cfg, _, warnings, bounds = _prepare(args)
    if bounds is None:
        raise ConfigError("bounds require epsilon > 0")
    stats = {"nodes": graph.node_count, "edges": graph.edge_count, "max_degree": graph.max_degree}
    values = asdict(bounds)
    table = ["quantity\tvalue"]
    table += [f"{key}\t{val!r}" for key, val in [*sorted(stats.items()), *values.items()]]
    return _report(args, cfg, {"warnings": warnings, "graph": stats, "bounds": values}, [], table)


def _cmd_compare(args) -> int:
    # Imported here so that the other subcommands start without the baseline.
    from . import baselines

    graph, labels, cfg, seed, warnings, _ = _prepare(args)
    _check_k(args.k)
    skip = None if args.include_seed else seed
    ppr_converged = True
    ppr_top: list[int] = []
    try:
        scores = baselines.personalized_pagerank(graph, seed, teleport=args.teleport)
        ppr_top = top_k(scores, args.k, skip)
    except RuntimeError as exc:
        ppr_converged = False
        print(f"warning: {exc}", file=sys.stderr)
    result = run_query(graph, seed, cfg)
    diffusion_top = top_k(result.final_charges, args.k, skip)

    effective_k = min(args.k, len(diffusion_top), len(ppr_top))
    overlap = (
        baselines.overlap_at_k(diffusion_top, ppr_top, effective_k)
        if ppr_converged and effective_k >= 1
        else None
    )
    body = {
        "warnings": warnings,
        "overlap": overlap,
        "effective_k": effective_k,
        "ppr_converged": ppr_converged,
        "diffusion_top": [labels[node] for node in diffusion_top],
        "pagerank_top": [labels[node] for node in ppr_top],
        "nn_set_size": len(result.nn_set),
        "touched": result.touched,
    }
    comments = [f"# overlap={overlap!r}"]
    if overlap is not None and effective_k < args.k:
        body["note"] = f"k={args.k} exceeds available ranks; overlap computed at k={effective_k}"
        comments.append(f"# note={body['note']}")
    table = ["rank\tdiffusion\tpagerank"]
    for rank in range(max(len(diffusion_top), len(ppr_top))):
        d = labels[diffusion_top[rank]] if rank < len(diffusion_top) else ""
        p = labels[ppr_top[rank]] if rank < len(ppr_top) else ""
        table.append(f"{rank + 1}\t{d}\t{p}")
    return _report(args, cfg, body, comments, table)


_COMMANDS = {
    "knn": _cmd_knn,
    "simulate": _cmd_simulate,
    "bounds": _cmd_bounds,
    "compare": _cmd_compare,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = _COMMANDS[args.command](args)
        # Flushed here, so that a closed stdout is met below.
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader of stdout has gone. Point stdout at devnull, so that the
        # interpreter's last flush of what is left does not fail again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 2
    except _UnreadableGraph as exc:
        print(f"error: cannot read graph: {exc}", file=sys.stderr)
        return 2
    except EdgeListError as exc:
        print(f"error: bad edge list: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
