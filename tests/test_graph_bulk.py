"""The bulk edge-list parse builds exactly what the line loop builds.

Texts of ``graph._BULK_MIN_LINES`` lines or more are parsed in bulk with
numpy; smaller ones, and any text the bulk parse does not accept, go
through the line loop. These tests force each path by patching that
threshold, and compare graphs, labels, degrees, ratio bits, the bulk parse's
CSR arrays, and the error text of every malformed input.
"""

import math
import pickle
import random
import tracemalloc
import warnings
from unittest import mock

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

from chargediff import graph
from chargediff.baselines import personalized_pagerank
from chargediff.diffusion import DiffusionConfig, Variant
from chargediff.distsim import run_distributed
from chargediff.engine import run_query
from chargediff.generators import erdos_renyi_connected
from chargediff.graph import EdgeListError, parse_edge_list, parse_edge_list_relabeled, serialize_edge_list

SETTINGS = dict(max_examples=150, deadline=None)
PARSERS = [parse_edge_list, parse_edge_list_relabeled]
WEIGHTS = ("1", "2", "0.5", "0.1", "3.75", "1e-3", "2.5E+2", "+4", "007.5", ".25", "6.", repr(1 / 3))


def bulk(parse, text, directed):
    """``parse(text)`` through the bulk path alone: the line loop must not run."""
    with (
        mock.patch.object(graph, "_BULK_MIN_LINES", 0),
        mock.patch.object(graph, "_read_edges", side_effect=AssertionError("line loop ran")),
    ):
        return parse(text, directed=directed)


def loop(parse, text, directed):
    with mock.patch.object(graph, "_BULK_MIN_LINES", math.inf):
        return parse(text, directed=directed)


def above_threshold(text):
    return text.count("\n") >= graph._BULK_MIN_LINES


def row_bits(g):
    """Every node's ``row``: its targets and the hex bits of its ratios."""
    rows = map(g.row, range(g.node_count))
    return [(targets, [r.hex() for r in ratios]) for targets, ratios in rows]


def bits(g):
    return (
        g.node_count,
        g.directed,
        g.targets,
        g.degrees,
        row_bits(g),
        [[w.hex() for w in row] for row in g.weights],
    )


def csr_bits(g):
    """Row lengths, targets and ratio bits of ``g.csr``'s flat arrays.

    Unweighted text keeps no ratio array; its ratio is 1.0/degree.
    """
    csr = g.csr
    degrees = numpy.diff(csr.indptr)
    # A row without arcs repeats its value no times, so 1.0/1 stands in for 1.0/0.
    ratios = (1.0 / numpy.maximum(degrees, 1)).repeat(degrees) if csr.ratios is None else csr.ratios
    return degrees.tolist(), csr.targets.tolist(), [r.hex() for r in ratios.tolist()]


FIRST_READS = {
    "==": lambda g, other: g == other and other == g,
    "hash": lambda g, other: hash(g) == hash(other),
    "repr": lambda g, other: repr(g) == repr(other),
}


def assert_same(a, b):
    """``a`` and ``b`` are equal graphs, or ``(graph, labels)`` pairs, with equal rows and bits.

    A graph that the bulk parse built also holds its rows as CSR arrays,
    with the bits of its tuple rows, and a scratch vector of -0.0. Until a
    row is read it holds no target rows; then each of ``==``, ``hash`` and
    ``repr``, read first on a pickled copy, builds rows that match the other
    graph's, and leaves the arrays as they were.
    """
    if isinstance(a, tuple):
        (a, labels_a), (b, labels_b) = a, b
        assert labels_a == labels_b
    # Read before any row is built, and again after.
    assert row_bits(a) == row_bits(b)
    for g, other in ((a, b), (b, a)):
        if g.csr is not None and "targets" not in vars(g):
            arrays = csr_bits(g)
            for name, read in FIRST_READS.items():
                copy = pickle.loads(pickle.dumps(g))
                assert "targets" not in vars(copy)
                assert read(copy, other), name
                assert csr_bits(copy) == arrays
    assert a == b
    assert bits(a) == bits(b)
    for g in (a, b):
        if g.csr is not None:
            rows = row_bits(g)
            flat = [t for targets, _ in rows for t in targets], [r for _, ratios in rows for r in ratios]
            assert g.csr.indptr[0] == 0 and csr_bits(g) == (list(g.degrees), *flat)
            assert "_ratios" not in vars(g)
            assert numpy.signbit(g.csr.scratch).all() and not g.csr.scratch.any()


@st.composite
def edge_texts(draw, sparse):
    """Clean edge-list text: unique edges, one token count, assorted layout."""
    directed = draw(st.booleans())
    n = draw(st.integers(1, 12))
    if sparse:
        ids = sorted(draw(st.sets(st.integers(0, 10**15), min_size=n, max_size=n)))
    else:
        # Dense ids with gaps, which parse_edge_list keeps as isolated nodes.
        ids = sorted(draw(st.sets(st.integers(0, 40), min_size=n, max_size=n)))
    pairs = [(u, v) for u in ids for v in ids if directed or u <= v]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1, max_size=40))
    if not directed:
        # Either orientation of an undirected edge.
        flips = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
        edges = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
    weighted = draw(st.booleans())
    tokens = [[str(u), str(v)] for u, v in edges]
    if weighted:
        for row in tokens:
            row.append(draw(st.sampled_from(WEIGHTS)))
    sep = st.sampled_from([" ", "  ", "\t", " \t "])
    lines = [draw(sep).join(row) + draw(st.sampled_from(["", " ", "\t"])) for row in tokens]
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    blank = draw(st.integers(0, len(lines)))
    if draw(st.booleans()):
        lines.insert(blank, draw(st.sampled_from(["", "   "])))
    return newline.join(lines) + draw(st.sampled_from(["", newline])), directed


@given(st.booleans().flatmap(lambda sparse: edge_texts(sparse)))
@settings(**SETTINGS)
def test_bulk_and_line_loop_build_equal_relabeled_graphs(case):
    text, directed = case
    assert_same(bulk(parse_edge_list_relabeled, text, directed), loop(parse_edge_list_relabeled, text, directed))


@given(edge_texts(sparse=False))
@settings(**SETTINGS)
def test_bulk_and_line_loop_build_equal_graphs(case):
    text, directed = case
    assert_same(bulk(parse_edge_list, text, directed), loop(parse_edge_list, text, directed))


@st.composite
def edited_texts(draw):
    """``(sparse, text, directed)``: clean text with one byte inserted, deleted or replaced.

    The byte put in is a token or blank byte, or one that no clean text holds.
    """
    sparse = draw(st.booleans())
    text, directed = draw(edge_texts(sparse))
    how = draw(st.sampled_from(["insert", "delete", "replace"]))
    replaced = how != "insert"
    at = draw(st.integers(0, len(text) - replaced))
    byte = "" if how == "delete" else draw(st.sampled_from("0123456789 \t\r\n+-.eE#x\x00"))
    return sparse, text[:at] + byte + text[at + replaced :], directed


@given(edited_texts())
@settings(**SETTINGS)
@example((False, "0\r 1\n1 2\n", False))
@example((False, "0 1 2e5\n", False))
@example((False, "10 1\n", False))
def test_one_byte_edits_of_clean_text_parse_as_the_line_loop_parses_them(case):
    # Through the bulk path, the edited text gives the line loop's graph and
    # labels, or raises its exact error. Sparse ids go to the relabeling
    # parse alone: the other would build a node for every id up to 10**15.
    sparse, text, directed = case
    for parse in [parse_edge_list_relabeled] if sparse else PARSERS:
        try:
            expected = loop(parse, text, directed)
        except EdgeListError as exc:
            with mock.patch.object(graph, "_BULK_MIN_LINES", 0), pytest.raises(EdgeListError) as got:
                parse(text, directed=directed)
            assert str(got.value) == str(exc)
        else:
            with mock.patch.object(graph, "_BULK_MIN_LINES", 0):
                assert_same(parse(text, directed=directed), expected)


def test_bulk_parse_of_a_large_text_self_loops_and_gaps():
    # Above the real threshold, with self-loops, id gaps and varied weights.
    lines = [f"{3 * i} {3 * i + 3} {1 + i // 1000 % 5}.5" for i in range(33_000)] + ["6 6 0.25", "12 12 2"]
    text = "\n".join(lines) + "\n"
    assert above_threshold(text)
    for parse in PARSERS:
        for directed in (False, True):
            with mock.patch.object(graph, "_read_edges", side_effect=AssertionError("line loop ran")):
                fast = parse(text, directed=directed)
            assert_same(fast, loop(parse, text, directed))


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("directed", [False, True])
def test_edge_count_of_a_bulk_graph_builds_no_rows(directed, weighted):
    # Self-loops are counted from the CSR arrays, as the arcs whose target
    # is their own row; building a row would call _split_rows.
    lines = [f"{i} {i + 1}" for i in range(33_000)] + [f"{i} {i}" for i in range(0, 33_000, 7)]
    text = "".join(f"{line} 2.5\n" if weighted else f"{line}\n" for line in lines)
    assert above_threshold(text)
    fast = bulk(parse_edge_list, text, directed)
    with mock.patch.object(graph, "_split_rows", None):
        count = fast.edge_count
    assert "targets" not in vars(fast)
    assert count == loop(parse_edge_list, text, directed).edge_count == 33_000 + 4_715


def base_lines(weighted):
    return [f"{i} {i + 1}" + (f" {0.5 * (1 + i % 7)!r}" if weighted else "") for i in range(33_000)]


def with_line(lines, at, line):
    return "\n".join(lines[:at] + [line] + lines[at:]) + "\n"


UNWEIGHTED = base_lines(False)
WEIGHTED = base_lines(True)

ANOMALIES = {
    # A comment or blank line shifts the line number of a later error.
    "comment": with_line(UNWEIGHTED, 700, "# a comment") + "0 1\n",
    "blank line": with_line(UNWEIGHTED, 700, "") + "0 1\n",
    "mixed token counts": with_line(UNWEIGHTED, 700, "3 20000 2.5") + "0 1\n",
    "one token": with_line(UNWEIGHTED, 7000, "7"),
    "four tokens": with_line(UNWEIGHTED, 7000, "7 9 20001 20002"),
    # The token total stays even: only the per-line count shows the fault.
    "short and long line": with_line(UNWEIGHTED[:9000] + ["20001 20002 20003"] + UNWEIGHTED[9000:], 7000, "7"),
    "fractional id": with_line(UNWEIGHTED, 7000, "0.5 1"),
    "exponent id": with_line(UNWEIGHTED, 7000, "1e3 5"),
    "signed id": with_line(WEIGHTED, 7000, "3 +20000 1.0") + "3 4 1.0\n",
    "negative id": with_line(UNWEIGHTED, 7000, "-1 3"),
    "duplicate": with_line(UNWEIGHTED, 7000, "7 8"),
    "reverse duplicate": with_line(UNWEIGHTED, 7000, "8 7"),
    "repeated self-loop": with_line(UNWEIGHTED, 10, "5 5") + "5 5\n",
    "zero weight": with_line(WEIGHTED, 7000, "3 20000 0"),
    "negative weight": with_line(WEIGHTED, 7000, "3 20000 -1"),
    "infinite weight": with_line(WEIGHTED, 7000, "3 20000 inf"),
    "nan weight": with_line(WEIGHTED, 7000, "3 20000 nan"),
    "weight with two points": with_line(WEIGHTED, 7000, "3 20000 1.2.3"),
    "bare exponent": with_line(WEIGHTED, 7000, "3 20000 1e"),
    "trailing junk in a token": with_line(UNWEIGHTED, 7000, "4 5x"),
    "trailing junk line": "\n".join(UNWEIGHTED) + "\n12 x",
    "non-ascii": with_line(UNWEIGHTED, 7000, "4 ٥"),
    "form feed": with_line(UNWEIGHTED, 7000, "4\x0c20000"),
    "lone carriage return": with_line(UNWEIGHTED, 7000, "4\r20000"),
    "id above 2**53": with_line(UNWEIGHTED, 7000, f"4 {2**53 + 1}") + "4 5\n",
    "id above 2**63": with_line(UNWEIGHTED, 7000, f"4 {2**63 + 5}") + "4 5\n",
    "id above 2**64": with_line(UNWEIGHTED, 7000, f"{2**64 + 5} 4") + "4 5\n",
    "weighted id above 2**63": with_line(WEIGHTED, 7000, f"4 {2**63 + 5} 1.5") + "4 5 1.0\n",
    "weighted id above 2**64": with_line(WEIGHTED, 7000, f"{2**64 + 5} 4 1.5") + "4 5 1.0\n",
    "weight with two marks": with_line(WEIGHTED, 7000, "3 20000 1e3e4"),
    "point after the mark": with_line(WEIGHTED, 7000, "3 20000 1e3.5"),
    "sign inside a weight": with_line(WEIGHTED, 7000, "3 20000 1-2"),
    "mark without a mantissa": with_line(WEIGHTED, 7000, "3 20000 .e5"),
    "lone point": with_line(WEIGHTED, 7000, "3 20000 ."),
    "lone sign at the end": "\n".join(WEIGHTED) + "\n12 13 +",
}


# A reverse arc is a duplicate only in undirected text.
CASES = [
    (name, directed) for name in ANOMALIES for directed in (False, True) if not (directed and name == "reverse duplicate")
]


@pytest.mark.parametrize("name, directed", CASES)
@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
def test_anomalies_above_threshold_raise_the_line_loop_error(parse, name, directed):
    text = ANOMALIES[name]
    assert above_threshold(text)
    with pytest.raises(EdgeListError) as expected:
        loop(parse, text, directed)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EdgeListError) as got:
            parse(text, directed=directed)
    assert str(got.value) == str(expected.value)


@pytest.mark.parametrize(
    "text",
    [
        with_line(UNWEIGHTED, 700, "# a comment"),
        with_line(UNWEIGHTED, 700, "3 20000 2.5"),  # 2- and 3-token lines mixed
        with_line(UNWEIGHTED, 700, "+3 20000"),
        with_line(UNWEIGHTED, 700, "8 7"),  # a reverse arc, a duplicate only when undirected
    ],
    ids=["comment", "mixed token counts", "signed id", "reverse arc"],
)
@pytest.mark.parametrize("parse", PARSERS, ids=lambda f: f.__name__)
def test_texts_the_bulk_parse_declines_still_parse(parse, text):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert_same(parse(text, directed=True), loop(parse, text, True))


@pytest.mark.parametrize("big", [2**53 + 1, 2**63 + 5, 2**64 + 5])
@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("directed", [False, True])
def test_ids_too_large_for_the_bulk_parse_keep_their_labels(big, weighted, directed):
    # An id that a float64 or int64 parse would round or saturate goes to the
    # line loop, which keeps it exactly.
    lines = [f"{i} {i + 1}" + (" 1.5" if weighted else "") for i in range(33_000)]
    text = with_line(lines, 7000, f"4 {big}" + (" 1.5" if weighted else ""))
    assert above_threshold(text)
    g, labels = parse_edge_list_relabeled(text, directed=directed)
    assert labels[-1] == big
    assert big in [labels[j] for j in g.targets[labels.index(4)]]
    assert_same((g, labels), loop(parse_edge_list_relabeled, text, directed))


def strict_fromstring(real):
    def fromstring(*args, **kwargs):
        try:
            return real(*args, **kwargs)
        except ValueError as exc:
            raise AssertionError(f"np.fromstring stopped early: {exc}") from None

    return fromstring


DECIMAL = r"\A[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?\Z"
# Near misses of a decimal: its parts in any order and number.
PIECES = st.lists(st.sampled_from(["1", "23", "0", ".", "e", "E", "+", "-"]), min_size=1, max_size=6).map("".join)


@given(st.one_of(st.from_regex(DECIMAL), PIECES), st.sampled_from(["", "\n", "\r\n"]))
@settings(**SETTINGS)
@example("1.2.3", "\n")
@example("1e3e4", "\n")
@example("1e3.5", "\n")
@example("+", "")
@example("-", "\n")
@example("e5", "\n")
@example("+e5", "\n")
@example("+.", "\n")
@example(".e5", "\n")
@example("1e", "")
@example("1e+", "\n")
@example("1-2", "\n")
@example("--1", "\n")
@example("1.e5", "\n")
@example("+.5e-3", "")
def test_weight_tokens_are_read_or_declined_as_float_reads_them(token, end):
    # The bulk parse must take every weight float() takes, and decline every
    # other one before np.fromstring can stop early on it.
    text = f"1 2 2.5\n0 1 {token}{end}"
    try:
        weight = float(token)
    except ValueError:
        weight = None
    with mock.patch.object(numpy, "fromstring", strict_fromstring(numpy.fromstring)):
        if weight is not None and math.isfinite(weight) and weight > 0:
            got = bulk(parse_edge_list, text, False)
            assert got.weights[0] == (weight,)
            assert_same(got, loop(parse_edge_list, text, False))
        else:
            with mock.patch.object(graph, "_BULK_MIN_LINES", 0), pytest.raises(EdgeListError) as got:
                parse_edge_list(text)
            with pytest.raises(EdgeListError) as expected:
                loop(parse_edge_list, text, False)
            assert str(got.value) == str(expected.value)


def test_huge_sparse_ids_do_not_allocate_up_to_the_largest_id():
    base = 10**12
    text = "".join(f"{base + 7 * i} {base + 7 * i + 3}\n" for i in range(33_000))
    assert above_threshold(text)
    tracemalloc.start()
    try:
        g, labels = parse_edge_list_relabeled(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # A table over every id up to 10**12 would take terabytes.
    assert peak < 32 * 2**20
    assert g.node_count == len(labels) == 66_000
    assert labels[:3] == [base, base + 3, base + 7]
    assert_same((g, labels), loop(parse_edge_list_relabeled, text, False))


@pytest.mark.parametrize("weighted", [False, True])
def test_queries_on_a_bulk_graph_build_no_rows(weighted):
    # run_query plays the numpy round, which reads the arrays alone; the
    # simulator and pagerank read the rows they reach through Graph.row,
    # which slices them. Each gets the line loop's answers. Only
    # serializing builds the rows.
    lines = serialize_edge_list(erdos_renyi_connected(1000, 6.0, random.Random(5))).splitlines()
    text = "".join(f"{line} {WEIGHTS[k % len(WEIGHTS)]}\n" if weighted else f"{line}\n" for k, line in enumerate(lines))
    fast, slow = bulk(parse_edge_list, text, False), loop(parse_edge_list, text, False)
    held = set(vars(fast))
    configs = [
        DiffusionConfig(alpha=0.5, epsilon=1e-3, variant=variant, delta=1e-5, max_iterations=60) for variant in Variant
    ]
    for cfg in configs:
        assert repr(run_query(fast, 17, cfg)) == repr(run_query(slow, 17, cfg))
        assert repr(run_distributed(fast, 17, cfg)) == repr(run_distributed(slow, 17, cfg))
    assert personalized_pagerank(fast, 17) == personalized_pagerank(slow, 17)
    assert set(vars(fast)) == held and not held & {"targets", "_ratios"}
    assert ("weights" in held) == weighted
    assert serialize_edge_list(fast) == serialize_edge_list(slow)
    assert "_ratios" not in vars(fast)
    assert bits(fast) == bits(slow)


@pytest.mark.parametrize("weighted", [False, True])
@pytest.mark.parametrize("directed", [False, True])
def test_row_has_the_line_loop_bits_on_every_graph_kind(directed, weighted):
    # Self-loops (3 3, 7 7), an id gap (5), which parse_edge_list keeps as
    # a node without arcs, and rows of one arc, of uniform and of mixed
    # weights, read before any row is built.
    edges = ["0 1 2.5", "0 2 2.5", "0 3 0.1", "1 2 3.75", "2 3 1", "3 3 0.5", "4 0 1e-3", "6 7 7.5", "7 7 .25"]
    text = "".join((line if weighted else line.rsplit(" ", 1)[0]) + "\n" for line in edges)
    for parse in PARSERS:
        fast, slow = bulk(parse, text, directed), loop(parse, text, directed)
        if parse is parse_edge_list_relabeled:
            (fast, _), (slow, _) = fast, slow
        else:
            assert fast.row(5) == slow.row(5) == ((), ())
        assert fast.csr is not None and slow.csr is None
        assert row_bits(fast) == row_bits(slow)
        assert fast.row(3)[0] == ((3,) if directed else (0, 2, 3))
        assert not {"targets", "_ratios"} & set(vars(fast))


def test_a_100k_node_bulk_graph_holds_its_arrays_not_its_rows():
    # 400k edges on a ring of 100k nodes. Its row tuples of Python ints
    # would take about 36 MB more; the arrays (int64 targets and row starts,
    # the scratch vector) and the degree tuple take about 8.4 MB.
    n = 100_000
    text = "".join(f"{i} {(i + d) % n}\n" for i in range(n) for d in (1, 2, 5, 11))
    tracemalloc.start()
    try:
        g = parse_edge_list(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.csr is not None and g.arc_count == 800_000
    assert retained < 16 * 2**20
    # An int64 per byte of this 4.5 MB text would take 36 MB alone, so no
    # check of the text may buy its speed with per-byte int64 arrays.
    assert peak < 37 * 2**20
