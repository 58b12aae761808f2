"""Command-line front end.

Subcommands: ``knn`` (run a query and print the top-k neighbors),
``simulate`` (message-passing run with per-round stats), ``bounds``
(closed-form size bounds for a config on a graph), and ``compare``
(diffusion ranking vs a personalized-pagerank baseline).

Output is machine-readable JSON by default (``--format tsv`` for tabular
text); identical invocations produce byte-identical output, and every report
echoes the effective config. Exit codes: 0 success, 1 usage or config error,
2 I/O or parse error. A reader that closes stdout early (``| head``) ends
the run with exit 2 and no message. Node ids in reports always use the input
file's original labels; sparse labels are compacted internally only.

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

from . import baselines
from .diffusion import DiffusionConfig, Variant
from .engine import ConfigError, QueryResult, compute_bounds, run_query, top_k, validate_config
from .graph import EdgeListError, Graph, max_degree, parse_edge_list_relabeled


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
        p.add_argument("--max-iters", type=int, default=1_000_000)
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
        max_iterations=args.max_iters,
    )


def _dense_seed(args, labels: list[int]) -> int:
    # Both parses return the labels ascending, so a binary search finds the seed.
    i = bisect.bisect_left(labels, args.seed)
    if i == len(labels) or labels[i] != args.seed:
        raise ConfigError(f"seed {args.seed} is not a node of {args.graph}")
    return i


def _prepare_query(args) -> tuple[Graph, list[int], DiffusionConfig, int, list[str]]:
    """Load, configure and validate for a seeded subcommand; print the warnings.

    Errors surface in the CLI's order: unreadable or malformed graph (exit 2),
    then unknown seed, then out-of-range config (exit 1).
    """
    graph, labels = _load_graph(args)
    cfg = _make_config(args)
    seed = _dense_seed(args, labels)
    warnings = validate_config(graph, cfg)
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    return graph, labels, cfg, seed, warnings


def _config_echo(args, cfg: DiffusionConfig) -> dict:
    echo = {
        "graph": args.graph,
        "directed": args.directed,
        "alpha": cfg.alpha,
        "epsilon": cfg.epsilon,
        "delta": cfg.delta,
        "variant": cfg.variant.value,
        "k": args.k,
        "max_iterations": cfg.max_iterations,
        "include_seed": args.include_seed,
        "format": args.format,
    }
    if hasattr(args, "seed"):
        echo["seed"] = args.seed
    if hasattr(args, "teleport"):
        echo["teleport"] = args.teleport
    return echo


def _ending(result: QueryResult) -> dict:
    return {
        "stop_reason": result.stop_reason,
        "cycle_start": result.cycle_start,
        "period": result.period,
    }


def _emit_json(doc: dict) -> None:
    print(json.dumps(doc, sort_keys=True, indent=2))


def _echo_comments(echo: dict) -> list[str]:
    return [f"# {key}={echo[key]}" for key in sorted(echo)]


def _check_k(k: int) -> None:
    # Checked before the query so a bad k costs no run; same message as top_k.
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")


def _cmd_knn(args) -> int:
    graph, labels, cfg, seed, warnings = _prepare_query(args)
    _check_k(args.k)
    result = run_query(graph, seed, cfg)
    if not result.terminated:
        print("warning: iteration cap reached without termination", file=sys.stderr)
    top = top_k(result, args.k, include_seed=args.include_seed)
    echo = _config_echo(args, cfg)
    charges = result.final_charges
    if args.format == "tsv":
        lines = _echo_comments(echo)
        lines.append("rank\tnode\tcharge")
        for rank, node in enumerate(top, start=1):
            lines.append(f"{rank}\t{labels[node]}\t{charges[node]!r}")
        print("\n".join(lines))
        return 0
    doc = {
        "command": "knn",
        "config": echo,
        "warnings": warnings,
        "result": {
            "top": [{"node": labels[node], "charge": charges[node]} for node in top],
            "nn_set": [labels[node] for node in result.nn_set],
            "nn_set_size": len(result.nn_set),
            "iterations": result.iterations,
            "terminated": result.terminated,
            "touched": result.touched,
            **_ending(result),
        },
    }
    if result.excess_trace is not None:
        doc["result"]["excess_trace"] = result.excess_trace
    _emit_json(doc)
    return 0


def _cmd_simulate(args) -> int:
    # Imported here so that the other subcommands start without the simulator.
    from .distsim import (
        message_complexity_report, round_stats_table, run_distributed, total_messages,
    )

    graph, labels, cfg, seed, warnings = _prepare_query(args)
    result, stats = run_distributed(graph, seed, cfg)
    central = run_query(graph, seed, cfg)
    match = (
        central.final_charges == result.final_charges
        and central.nn_set == result.nn_set
        and central.iterations == result.iterations
    )
    if not result.terminated:
        print("warning: iteration cap reached without termination", file=sys.stderr)
    note = None
    if graph.degrees[seed] == 0:
        note = "seed has no out-edges; nothing to simulate"
    complexity = None
    if cfg.epsilon > 0.0:
        bounds = compute_bounds(graph, cfg)
        complexity = message_complexity_report(stats, result, bounds, max_degree(graph))
    echo = _config_echo(args, cfg)
    if args.format == "tsv":
        lines = _echo_comments(echo)
        if note:
            lines.append(f"# note={note}")
        lines.append(f"# centralized_match={match}")
        lines.append(f"# cycle_start={result.cycle_start}")
        lines.append(f"# period={result.period}")
        lines.append(round_stats_table(stats).rstrip("\n"))
        print("\n".join(lines))
        return 0
    doc = {
        "command": "simulate",
        "config": echo,
        "warnings": warnings,
        "centralized_match": match,
        "rounds": [
            {
                "round": r,
                "messages": s.messages_sent,
                "active": s.active_count,
                "total_charge": s.total_charge,
            }
            for r, s in enumerate(stats, 1)
        ],
        "totals": {"rounds": result.iterations, "messages": total_messages(stats, result)},
        "result": {
            "nn_set": [labels[node] for node in result.nn_set],
            "iterations": result.iterations,
            "terminated": result.terminated,
            "touched": result.touched,
            **_ending(result),
        },
    }
    if complexity is not None:
        doc["complexity"] = complexity
    if note:
        doc["note"] = note
    _emit_json(doc)
    return 0


def _cmd_bounds(args) -> int:
    graph, _ = _load_graph(args)
    cfg = _make_config(args)
    bounds = compute_bounds(graph, cfg)
    echo = _config_echo(args, cfg)
    stats = {
        "nodes": graph.node_count,
        "edges": graph.edge_count,
        "max_degree": max_degree(graph),
    }
    values = {
        "max_core_size": bounds.max_core_size,
        "max_touched": bounds.max_touched,
        "max_iterations_bound": bounds.max_iterations_bound,
        "excess_stop_bound": bounds.excess_stop_bound,
    }
    if args.format == "tsv":
        lines = _echo_comments(echo)
        lines.append("quantity\tvalue")
        for key in sorted(stats):
            lines.append(f"{key}\t{stats[key]}")
        for key, val in values.items():
            lines.append(f"{key}\t{val!r}")
        print("\n".join(lines))
        return 0
    doc = {"command": "bounds", "config": echo, "graph": stats, "bounds": values}
    _emit_json(doc)
    return 0


def _cmd_compare(args) -> int:
    graph, labels, cfg, seed, warnings = _prepare_query(args)
    _check_k(args.k)
    # Same check and message as personalized_pagerank, made before the query.
    if not 0.0 < args.teleport < 1.0:
        raise ConfigError(f"teleport must be in (0, 1), got {args.teleport}")
    result = run_query(graph, seed, cfg)
    diffusion_top = top_k(result, args.k, include_seed=args.include_seed)

    ppr_converged = True
    ppr_top: list[int] = []
    try:
        scores = baselines.personalized_pagerank(graph, seed, teleport=args.teleport)
        ranked = baselines.rank_nodes(scores)
        if not args.include_seed:
            ranked = [i for i in ranked if i != seed]
        ppr_top = ranked[: args.k]
    except RuntimeError as exc:
        ppr_converged = False
        print(f"warning: {exc}", file=sys.stderr)

    effective_k = min(args.k, len(diffusion_top), len(ppr_top))
    note = None
    if effective_k < args.k:
        note = f"k={args.k} exceeds available ranks; overlap computed at k={effective_k}"
    overlap = (
        baselines.overlap_at_k(diffusion_top, ppr_top, effective_k)
        if ppr_converged and effective_k >= 1
        else None
    )
    echo = _config_echo(args, cfg)
    if args.format == "tsv":
        lines = _echo_comments(echo)
        lines.append(f"# overlap={overlap!r}")
        if note:
            lines.append(f"# note={note}")
        lines.append("rank\tdiffusion\tpagerank")
        for rank in range(max(len(diffusion_top), len(ppr_top))):
            d = labels[diffusion_top[rank]] if rank < len(diffusion_top) else ""
            p = labels[ppr_top[rank]] if rank < len(ppr_top) else ""
            lines.append(f"{rank + 1}\t{d}\t{p}")
        print("\n".join(lines))
        return 0
    doc = {
        "command": "compare",
        "config": echo,
        "warnings": warnings,
        "overlap": overlap,
        "effective_k": effective_k,
        "ppr_converged": ppr_converged,
        "diffusion_top": [labels[node] for node in diffusion_top],
        "pagerank_top": [labels[node] for node in ppr_top],
        "nn_set_size": len(result.nn_set),
        "touched": result.touched,
    }
    if note:
        doc["note"] = note
    _emit_json(doc)
    return 0


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
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
