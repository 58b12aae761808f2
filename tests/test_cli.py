import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

from chargediff import cli, graph
from chargediff.cli import main
from chargediff.engine import run_query
from chargediff.generators import preferential_attachment

STAR_TEXT = "\n".join(f"0 {i}" for i in range(1, 11)) + "\n"
TRIANGLE_TEXT = "0 1\n1 2\n2 0\n"
# Child processes import the package from this checkout, installed or not.
CHILD_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))

# Runs the package as ``python -m chargediff`` does, then reports on the last
# stderr lines whether numpy, the simulator and the baseline were imported
# along the way.
CHILD = (
    "import runpy, sys\n"
    "try:\n"
    "    runpy.run_module('chargediff', run_name='__main__', alter_sys=True)\n"
    "finally:\n"
    "    print(f'numpy loaded: {\"numpy\" in sys.modules}', file=sys.stderr)\n"
    "    print(f'distsim loaded: {\"chargediff.distsim\" in sys.modules}', file=sys.stderr)\n"
    "    print(f'baselines loaded: {\"chargediff.baselines\" in sys.modules}', file=sys.stderr)\n"
)


@pytest.fixture
def star_file(tmp_path):
    path = tmp_path / "star.edges"
    path.write_text(STAR_TEXT)
    return str(path)


@pytest.fixture
def triangle_file(tmp_path):
    path = tmp_path / "triangle.edges"
    path.write_text(TRIANGLE_TEXT)
    return str(path)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_knn_star(capsys, star_file):
    code, out, err = run_cli(
        capsys, "knn", "--graph", star_file, "--seed", "0",
        "--alpha", "0.5", "--epsilon", "0.1", "--k", "3",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["iterations"] == 4
    assert doc["result"]["terminated"] is True
    assert doc["result"]["nn_set"] == [0]
    assert doc["result"]["touched"] == 11
    top = doc["result"]["top"]
    assert [entry["node"] for entry in top] == [1, 2, 3]
    assert all(entry["charge"] == pytest.approx(0.09375, abs=1e-12) for entry in top)
    assert doc["config"]["epsilon"] == 0.1
    assert "relabeling" not in doc


def test_knn_missing_file_exits_2(capsys, tmp_path):
    missing = str(tmp_path / "nope.edges")
    code, _, err = run_cli(capsys, "knn", "--graph", missing, "--seed", "0")
    assert code == 2
    assert "nope.edges" in err


def test_knn_parse_error_exits_2(capsys, tmp_path):
    bad = tmp_path / "bad.edges"
    bad.write_text("0 1\nnot an edge line\n")
    code, _, err = run_cli(capsys, "knn", "--graph", str(bad), "--seed", "0")
    assert code == 2
    assert "line 2" in err


def test_knn_bad_epsilon_exits_1(capsys, star_file):
    code, _, err = run_cli(
        capsys, "knn", "--graph", star_file, "--seed", "0", "--epsilon", "0"
    )
    assert code == 1
    assert "epsilon" in err


def test_knn_unknown_seed_exits_1(capsys, star_file):
    code, _, err = run_cli(capsys, "knn", "--graph", star_file, "--seed", "99")
    assert code == 1
    assert "99" in err


@pytest.mark.parametrize("seed", ["5", "15", "25", "35", "-1"])
def test_unknown_seed_among_sparse_labels_exits_1(capsys, tmp_path, seed):
    # Labels 10, 20, 30: seeds below, between and above them are unknown.
    path = tmp_path / "sparse.edges"
    path.write_text("10 20\n20 30\n")
    code, out, err = run_cli(capsys, "knn", "--graph", str(path), "--seed", seed)
    assert (code, out) == (1, "")
    assert err == f"error: seed {seed} is not a node of {path}\n"


@pytest.mark.parametrize("seed, dense", [("10", 0), ("20", 1), ("30", 2)])
def test_sparse_label_seeds_find_their_node(capsys, tmp_path, monkeypatch, seed, dense):
    path = tmp_path / "sparse.edges"
    path.write_text("10 20\n20 30\n")
    seen = []
    monkeypatch.setattr(cli, "run_query", lambda g, node, cfg: seen.append(node) or run_query(g, node, cfg))
    code, out, _ = run_cli(capsys, "knn", "--graph", str(path), "--seed", seed, "--max-iters", "5")
    assert code == 0 and seen == [dense]
    result = json.loads(out)["result"]
    assert int(seed) in result["nn_set"]
    assert int(seed) not in [entry["node"] for entry in result["top"]]


@pytest.mark.parametrize("command", ["knn", "compare"])
@pytest.mark.parametrize("k", ["0", "-3"])
def test_bad_k_exits_1_before_the_query(capsys, monkeypatch, triangle_file, command, k):
    def no_query(*args):
        raise AssertionError("the query ran")

    monkeypatch.setattr(cli, "run_query", no_query)
    code, out, err = run_cli(capsys, command, "--graph", triangle_file, "--seed", "0", "--k", k)
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == f"error: k must be >= 1, got {k}"
    assert "iteration cap" not in err


@pytest.mark.parametrize("teleport", ["1.5", "0"])
def test_bad_teleport_exits_1_before_the_query(capsys, monkeypatch, triangle_file, teleport):
    def no_query(*args):
        raise AssertionError("the query ran")

    monkeypatch.setattr(cli, "run_query", no_query)
    code, out, err = run_cli(
        capsys, "compare", "--graph", triangle_file, "--seed", "0", "--teleport", teleport
    )
    assert code == 1
    assert out == ""
    assert err.splitlines()[-1] == f"error: teleport must be in (0, 1), got {float(teleport)}"
    assert "iteration cap" not in err


def test_usage_error_exits_1(capsys, star_file):
    code, _, _ = run_cli(capsys, "knn", "--graph", star_file)  # seed missing
    assert code == 1


def test_knn_triangle_warns_and_reports_cap(capsys, triangle_file):
    code, out, err = run_cli(
        capsys, "knn", "--graph", triangle_file, "--seed", "0",
        "--epsilon", "0.2", "--max-iters", "500",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["terminated"] is False
    assert "cannot terminate" in err
    assert "iteration cap" in err


def test_knn_triangle_at_default_cap_in_child_process(capsys, triangle_file):
    # The run repeats its charge vector within a few dozen rounds, and the
    # run loop skips the repeats up to the cap of 1,000,000 rounds.
    argv = ("knn", "--graph", triangle_file, "--seed", "0", "--variant", "retention")
    proc = subprocess.run(
        [sys.executable, "-m", "chargediff", *argv],
        capture_output=True, text=True, env=CHILD_ENV, timeout=60,
    )
    code, out, err = run_cli(capsys, *argv)
    assert proc.returncode == code == 0
    assert '"iterations": 1000000' in proc.stdout
    assert '"terminated": false' in proc.stdout
    assert proc.stdout == out
    assert proc.stderr == err


def test_knn_output_is_deterministic(capsys, star_file):
    args = ("knn", "--graph", star_file, "--seed", "0", "--epsilon", "0.1", "--k", "5")
    _, first, _ = run_cli(capsys, *args)
    _, second, _ = run_cli(capsys, *args)
    assert first == second


def test_knn_tsv_format(capsys, star_file):
    code, out, _ = run_cli(
        capsys, "knn", "--graph", star_file, "--seed", "0",
        "--epsilon", "0.1", "--k", "2", "--format", "tsv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert any(line.startswith("# alpha=0.5") for line in lines)
    header_idx = lines.index("rank\tnode\tcharge")
    assert lines[header_idx + 1].startswith("1\t1\t")
    assert lines[header_idx + 2].startswith("2\t2\t")


def test_knn_sparse_labels_round_trip(capsys, tmp_path):
    path = tmp_path / "sparse.edges"
    path.write_text("10 20\n20 30\n")
    code, out, _ = run_cli(
        capsys, "knn", "--graph", str(path), "--seed", "20",
        "--epsilon", "0.4", "--k", "2", "--max-iters", "100",
    )
    assert code == 0
    doc = json.loads(out)
    # Every id in the report is a file label, so no relabeling map is printed.
    assert "relabeling" not in doc
    assert set(entry["node"] for entry in doc["result"]["top"]) <= {10, 20, 30}
    assert 20 in doc["result"]["nn_set"] and set(doc["result"]["nn_set"]) <= {10, 20, 30}


def test_simulate_star(capsys, star_file):
    code, out, _ = run_cli(
        capsys, "simulate", "--graph", star_file, "--seed", "0", "--epsilon", "0.1"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["centralized_match"] is True
    assert doc["totals"] == {"rounds": 4, "messages": 40}
    assert [row["messages"] for row in doc["rounds"]] == [10, 10, 10, 10]
    assert doc["complexity"]["total_messages"] == 40
    assert doc["complexity"]["violations"] == []


@pytest.mark.parametrize(
    "command", [("knn", "--variant", "excess"), ("simulate",), ("simulate", "--format", "tsv")]
)
def test_capped_triangle_report_is_bounded_by_its_answer(capsys, triangle_file, command):
    # The run goes to the default cap of 1M rounds, but it repeats from round
    # 31 on, so the report prints its trace or rows up to one period past that.
    code, out, _ = run_cli(capsys, *command, "--graph", triangle_file, "--seed", "0")
    assert code == 0
    assert len(out.encode()) < 16 * 1024


def test_capped_run_that_never_repeats_prints_every_row(capsys, tmp_path):
    path = tmp_path / "path.edges"
    path.write_text("0 1\n1 2\n2 3\n3 4\n4 5\n")
    code, out, _ = run_cli(
        capsys, "simulate", "--graph", str(path), "--seed", "0", "--variant", "lazy", "--max-iters", "20"
    )
    assert code == 0
    doc = json.loads(out)
    assert (doc["result"]["stop_reason"], doc["result"]["cycle_start"], doc["result"]["period"]) == (
        "iteration_cap", None, None,
    )
    assert len(doc["rounds"]) == doc["totals"]["rounds"] == 20


def test_simulate_stuck_seed_notes(capsys, tmp_path):
    path = tmp_path / "arc.edges"
    path.write_text("0 1\n")
    code, out, _ = run_cli(
        capsys, "simulate", "--graph", str(path), "--directed", "--seed", "1",
        "--epsilon", "0.1",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["rounds"] == []
    assert "no out-edges" in doc["note"]


def test_simulate_lazy_rows(capsys, triangle_file):
    code, out, _ = run_cli(
        capsys, "simulate", "--graph", triangle_file, "--seed", "0",
        "--variant", "lazy", "--max-iters", "5", "--format", "tsv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    data = [line for line in lines if line and line[0].isdigit()]
    assert len(data) == 5
    # The table's header, then one row per round, ends the report.
    assert lines[-6:-5] == ["round\tmessages\tactive\ttotal_charge"]
    # Round 1: only the seed holds charge, and sends along its 2 arcs. From
    # round 2 on all three nodes hold charge and send along all 2|E| = 6.
    assert [line.split("\t")[1] for line in data] == ["2", "6", "6", "6", "6"]


def test_bounds_reference_values(capsys, tmp_path):
    path = tmp_path / "star20.edges"
    path.write_text("\n".join(f"0 {i}" for i in range(1, 21)) + "\n")
    code, out, _ = run_cli(
        capsys, "bounds", "--graph", str(path), "--alpha", "0.5", "--epsilon", "0.01"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["graph"]["max_degree"] == 20
    assert doc["bounds"]["max_core_size"] == 200
    assert doc["bounds"]["max_touched"] == 200 * 21
    assert doc["bounds"]["max_iterations_bound"] == pytest.approx(796000, rel=1e-9)
    # EXCESS's delta stop has no iteration bound: it prints null.
    _, out, _ = run_cli(capsys, "bounds", "--graph", str(path), "--epsilon", "0.01", "--variant", "excess")
    assert json.loads(out)["bounds"] == {"max_core_size": 200, "max_touched": 4200, "max_iterations_bound": None}


def test_bounds_high_alpha(capsys, star_file):
    code, out, _ = run_cli(
        capsys, "bounds", "--graph", star_file, "--alpha", "0.9", "--epsilon", "0.1"
    )
    assert code == 0
    assert json.loads(out)["bounds"]["max_core_size"] == 100


def test_bounds_warns_as_knn_does(capsys, triangle_file):
    # n=3 <= 1/epsilon, so no run can terminate, and bounds says so too.
    argv = ("--graph", triangle_file, "--epsilon", "0.01")
    code, out, err = run_cli(capsys, "bounds", *argv)
    assert code == 0
    warnings = json.loads(out)["warnings"]
    assert len(warnings) == 2 and "cannot terminate" in warnings[0]
    assert err == "".join(f"warning: {w}\n" for w in warnings)
    _, knn_out, knn_err = run_cli(capsys, "knn", *argv, "--seed", "0", "--max-iters", "50")
    assert json.loads(knn_out)["warnings"] == warnings
    assert knn_err.startswith(err)


def test_bounds_zero_epsilon_exits_1(capsys, star_file):
    code, _, _ = run_cli(capsys, "bounds", "--graph", star_file, "--epsilon", "0")
    assert code == 1


@pytest.mark.parametrize("command", ["knn", "simulate", "bounds", "compare"])
@pytest.mark.parametrize(
    "option",
    [("--epsilon", e) for e in ("5e-324", "1e-160", "1e-200", "1e-300", "1e-310")]
    + [("--alpha", "1e-310"), ("--delta", "2"), ("--delta", "0")],
    ids="=".join,
)
def test_tiny_in_range_parameters_end_without_a_traceback(triangle_file, command, option):
    # Each of these configs puts a bound beyond a float, or delta outside (0, 1),
    # so every command ends in one error line before any run.
    seed = () if command == "bounds" else ("--seed", "0")
    proc = subprocess.run(
        [sys.executable, "-m", "chargediff", command, "--graph", triangle_file, *seed, *option,
         "--max-iters", "50"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.count("\n") == 1 and proc.stderr.startswith("error: ")
    if option[0] == "--delta":
        assert proc.stderr == f"error: delta must be in (0, 1), got {float(option[1])}\n"


@pytest.mark.parametrize(
    "options",
    [
        ("--epsilon", "1e-300"),
        ("--epsilon", "5e-324"),
        ("--alpha", "1e-310"),
        ("--delta", "0"),
        ("--delta", "2"),
        ("--epsilon", "0"),
        ("--max-iters", "0"),
        ("--variant", "excess", "--epsilon", "0.1", "--delta", "0.1"),
        ("--variant", "excess", "--epsilon", "0.1", "--delta", "0.5"),
    ],
    ids=" ".join,
)
def test_every_command_rejects_a_config_with_the_same_error_line(capsys, star_file, options):
    outcomes = set()
    for command in ("knn", "simulate", "bounds", "compare"):
        seed = () if command == "bounds" else ("--seed", "0")
        code, out, err = run_cli(capsys, command, "--graph", star_file, *seed, *options)
        assert out == ""
        outcomes.add((code, err))
    [(code, err)] = outcomes
    assert code == 1 and err.startswith("error: ") and err.count("\n") == 1


def test_compare_star(capsys, star_file):
    code, out, _ = run_cli(
        capsys, "compare", "--graph", star_file, "--seed", "0",
        "--epsilon", "0.1", "--k", "5", "--teleport", "0.2",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["ppr_converged"] is True
    assert 0.0 <= doc["overlap"] <= 1.0
    assert len(doc["diffusion_top"]) == 5
    assert len(doc["pagerank_top"]) == 5


def test_compare_notes_when_k_exceeds_touched(capsys, star_file):
    code, out, _ = run_cli(
        capsys, "compare", "--graph", star_file, "--seed", "0",
        "--epsilon", "0.1", "--k", "50",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["effective_k"] < 50
    assert "exceeds available" in doc["note"]


@pytest.mark.parametrize(
    "options",
    [
        # Pagerank does not converge, so it ranks no node.
        ("--seed", "0", "--teleport", "1e-9"),
        # The seed has no out-edges, so the diffusion ranks no node.
        ("--directed", "--seed", "1"),
    ],
)
def test_compare_notes_no_overlap_it_did_not_compute(capsys, tmp_path, options):
    path = tmp_path / "arc.edges"
    path.write_text("0 1\n")
    code, out, _ = run_cli(capsys, "compare", "--graph", str(path), *options)
    assert code == 0
    doc = json.loads(out)
    assert doc["overlap"] is None
    assert "note" not in doc


def test_compare_two_clique_locality(capsys, tmp_path):
    lines = []
    for base in (0, 10):
        for i in range(10):
            for j in range(i + 1, 10):
                lines.append(f"{base + i} {base + j}")
    lines.append("9 10")
    path = tmp_path / "cliques.edges"
    path.write_text("\n".join(lines) + "\n")
    code, out, _ = run_cli(
        capsys, "compare", "--graph", str(path), "--seed", "0",
        "--epsilon", "0.095", "--k", "8",
    )
    assert code == 0
    doc = json.loads(out)
    assert all(node < 10 for node in doc["diffusion_top"])


def test_compare_runs_above_desk_scale(capsys, tmp_path):
    # A 3000-node binary tree: pagerank works on the graph's rows at any size.
    path = tmp_path / "tree.edges"
    path.write_text("".join(f"{(i - 1) // 2} {i}\n" for i in range(1, 3000)))
    code, out, err = run_cli(capsys, "compare", "--graph", str(path), "--seed", "0")
    assert code == 0, err
    doc = json.loads(out)
    assert doc["ppr_converged"] is True
    assert len(doc["pagerank_top"]) == 10


def test_module_entry_point_runs(star_file):
    proc = subprocess.run(
        [sys.executable, "-m", "chargediff", "knn", "--graph", star_file,
         "--seed", "0", "--epsilon", "0.1", "--k", "3"],
        capture_output=True, text=True, env=CHILD_ENV,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"]["iterations"] == 4


def run_child(*argv):
    return subprocess.run(
        [sys.executable, "-c", CHILD, *argv], capture_output=True, text=True, env=CHILD_ENV
    )


@pytest.mark.parametrize("command", ["knn", "compare"])
def test_child_process_matches_in_process(capsys, star_file, command):
    # Only ``compare`` imports the baseline.
    baselines = command == "compare"
    argv = (command, "--graph", star_file, "--seed", "0", "--epsilon", "0.1", "--k", "3")
    proc = run_child(*argv)
    code, out, err = run_cli(capsys, *argv)
    assert proc.returncode == code == 0
    assert proc.stdout == out
    assert proc.stderr == err + f"numpy loaded: False\ndistsim loaded: False\nbaselines loaded: {baselines}\n"


def test_package_imports_without_numpy():
    # numpy is loaded only by the bulk parse of a large edge list.
    code = (
        "import importlib, pkgutil, sys, chargediff\n"
        "for m in pkgutil.iter_modules(chargediff.__path__):\n"
        "    importlib.import_module(f'chargediff.{m.name}')\n"
        "    print(m.name, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=CHILD_ENV)
    assert proc.returncode == 0, proc.stderr
    loaded = dict(line.split() for line in proc.stdout.splitlines())
    assert {"baselines", "cli", "engine", "graph"} <= loaded.keys()
    assert set(loaded.values()) == {"False"}


@pytest.mark.parametrize("command", ["knn", "simulate"])
def test_bulk_parse_leaves_output_unchanged(capsys, tmp_path, monkeypatch, command):
    # Sparse labels, which the report must name as the file does, in a file
    # large enough for the bulk parse.
    g = preferential_attachment(17_000, 2, random.Random(7))
    text = "".join(f"{3 * u + 10} {3 * v + 10}\n" for u in range(g.node_count) for v in g.targets[u] if u < v)
    assert text.count("\n") >= graph._BULK_MIN_LINES
    path = tmp_path / "pa.edges"
    path.write_text(text)
    argv = (command, "--graph", str(path), "--seed", "40", "--epsilon", "0.02", "--k", "10")
    with monkeypatch.context() as m:
        m.setattr(graph, "_read_edges", None)  # the bulk parse must serve this file
        bulk = run_cli(capsys, *argv)
    monkeypatch.setattr(graph, "_BULK_MIN_LINES", float("inf"))
    assert bulk == run_cli(capsys, *argv)
    assert bulk[0] == 0
    nn_set = json.loads(bulk[1])["result"]["nn_set"]
    assert 40 in nn_set and all(i % 3 == 1 for i in nn_set)


def sparse_tree_text(lines):
    """A tree of ``lines`` edges on sparse ids 7i + 3: node i hangs off node i // 2."""
    return "".join(f"{7 * (i // 2) + 3} {7 * i + 3}\n" for i in range(1, lines + 1))


@pytest.mark.parametrize("variant", ["retention", "excess"])
def test_knn_on_a_large_file_builds_no_rows(capsys, tmp_path, monkeypatch, variant):
    text = sparse_tree_text(40_000)
    assert text.count("\n") >= graph._BULK_MIN_LINES
    path = tmp_path / "tree.edges"
    path.write_text(text)
    argv = ("knn", "--graph", str(path), "--seed", "3", "--variant", variant, "--epsilon", "0.01")
    with monkeypatch.context() as m:
        m.setattr(graph, "_split_rows", None)  # building a row would call it
        bulk = run_cli(capsys, *argv)
    monkeypatch.setattr(graph, "_BULK_MIN_LINES", float("inf"))
    assert bulk == run_cli(capsys, *argv)
    assert bulk[0] == 0


def test_closed_stdout_ends_quietly(tmp_path):
    # At epsilon=1e-4 the query touches 16k nodes of the tree, and the
    # report that ranks all of them runs to about 1.4 MB, far past a pipe's
    # buffer. So the child is still writing when the reader closes the pipe,
    # as `| head -c 100` does.
    path = tmp_path / "tree.edges"
    path.write_text(sparse_tree_text(40_000))
    argv = [
        sys.executable, "-m", "chargediff", "knn", "--graph", str(path), "--seed", "3",
        "--epsilon", "0.0001", "--k", "40001",
    ]
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=CHILD_ENV)
    head = proc.stdout.read(100)
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert head.startswith(b"{") and len(head) == 100
    assert err == ""


def test_undecodable_graph_file_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.edges"
    path.write_bytes("0 1\n1 2 \xe9\n".encode("latin-1"))
    code, out, err = run_cli(capsys, "knn", "--graph", str(path), "--seed", "0")
    assert (code, out) == (2, "")
    assert err.startswith("error: cannot read graph: 'utf-8' codec can't decode")
