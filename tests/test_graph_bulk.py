"""The bulk edge-list parse builds exactly what the line loop builds.

Texts of ``graph._BULK_MIN_LINES`` lines or more are parsed in bulk with
numpy; smaller ones, and any text the bulk parse does not accept, go
through the line loop. These tests force each path by patching that
threshold, and compare graphs, labels, degrees, ratio and share bits, and the
error text of every malformed input.
"""

import math
import tracemalloc
import warnings
from unittest import mock

import numpy
import pytest
from hypothesis import example, given, settings, strategies as st

from chargediff import graph
from chargediff.graph import EdgeListError, parse_edge_list, parse_edge_list_relabeled

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


def bits(g):
    return (
        g.node_count,
        g.directed,
        g.targets,
        g.degrees,
        [[r.hex() for r in row] for row in g.out_ratios],
        [None if r is None else r.hex() for r in g.shares],
        [[w.hex() for w in row] for row in g.weights],
    )


def assert_same(a, b):
    if isinstance(a, tuple):
        (a, labels_a), (b, labels_b) = a, b
        assert labels_a == labels_b
    assert a == b
    assert bits(a) == bits(b)


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
