import ast
import pickle
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from chargediff.diffusion import DiffusionConfig, Variant, init_state, step
from chargediff import graph
from chargediff.generators import complete_graph
from chargediff.graph import (
    EdgeListError,
    Graph,
    _ratio_row,
    from_edges,
    parse_edge_list,
    parse_edge_list_relabeled,
    serialize_edge_list,
)


def test_parse_two_edge_path():
    g = parse_edge_list("0 1\n1 2")
    assert g.node_count == 3
    assert g.degrees == (1, 2, 1)
    assert g.targets[1] == (0, 2)
    assert g.weights[1] == (1.0, 1.0)
    assert not g.directed


def test_parse_weighted_directed_arc():
    g = parse_edge_list("0 1 2.5", directed=True)
    assert g.node_count == 2
    assert g.degrees == (1, 0)
    assert g.weights == ((2.5,), ())


def test_duplicate_edge_rejected():
    with pytest.raises(EdgeListError, match="duplicate"):
        parse_edge_list("0 1\n0 1")


def test_reverse_duplicate_rejected_undirected():
    with pytest.raises(EdgeListError, match="duplicate"):
        parse_edge_list("0 1\n1 0")


def test_from_edges_rejects_reverse_duplicate_undirected():
    with pytest.raises(EdgeListError, match="duplicate edge"):
        from_edges([(0, 1, 1.0), (1, 0, 1.0)])


def test_from_edges_rejects_repeated_self_loop():
    with pytest.raises(EdgeListError, match=r"duplicate edge \(0, 0\)"):
        from_edges([(0, 0, 1.0), (1, 0, 1.0), (0, 0, 2.0)])


def test_from_edges_accepts_reverse_arcs_directed():
    g = from_edges([(0, 1, 1.0), (1, 0, 2.0)], directed=True)
    assert g.targets == ((1,), (0,))
    assert g.weights == ((1.0,), (2.0,))


def test_reverse_arcs_fine_directed():
    g = parse_edge_list("0 1\n1 0", directed=True)
    assert g.degrees == (1, 1)


def test_malformed_line_reports_line_number():
    with pytest.raises(EdgeListError, match="line 2"):
        parse_edge_list("0 1\n0")
    with pytest.raises(EdgeListError, match="line 3"):
        parse_edge_list("0 1\n1 2\n2 x")


def test_bad_weights_rejected():
    with pytest.raises(EdgeListError, match="positive"):
        parse_edge_list("0 1 0")
    with pytest.raises(EdgeListError, match="positive"):
        parse_edge_list("0 1 -2.5")
    with pytest.raises(EdgeListError, match="decimal"):
        parse_edge_list("0 1 abc")


def test_negative_and_fractional_ids_rejected():
    with pytest.raises(EdgeListError, match="non-negative"):
        parse_edge_list("-1 0")
    with pytest.raises(EdgeListError, match="integers"):
        parse_edge_list("0.5 1")


@pytest.mark.parametrize("line", ["1_000 5", "4 \u0665", "\uff10 \uff11", "0 1 1_0"])
def test_underscores_and_non_ascii_digits_rejected(line):
    # int() and float() read each of these lines (as 1000 5, 4 5, 0 1 and
    # 0 1 10.0); the format does not. A comment may still hold any text, and
    # a leading '+' on an id still parses.
    with pytest.raises(EdgeListError, match=f"line 2: expected 'u v' or 'u v w', got '{line}'"):
        parse_edge_list_relabeled(f"# caf\u00e9\n{line}\n")
    assert parse_edge_list_relabeled("# caf\u00e9\n+3 5\n")[1] == [3, 5]


def test_comments_and_blank_lines_skipped():
    g = parse_edge_list("# a comment\n\n0 1\n   \n# another\n1 2\n")
    assert g.node_count == 3
    assert g.degrees == (1, 2, 1)


def test_self_loop_counts_once_in_degree():
    g = parse_edge_list("0 0\n0 1")
    assert g.degrees[0] == 2
    assert g.targets[0] == (0, 1)
    assert g.weights[0] == (1.0, 1.0)
    assert g.degrees[1] == 1


def test_id_gaps_become_isolated_nodes():
    g = parse_edge_list("0 5")
    assert g.node_count == 6
    assert g.degrees == (1, 0, 0, 0, 0, 1)


def test_neighbor_lists_sorted():
    g = parse_edge_list("3 1\n3 0\n3 2")
    assert g.targets[3] == (0, 1, 2)


def test_degree_sum_is_twice_edge_count():
    g = parse_edge_list("0 1\n1 2\n2 0\n2 3")
    assert sum(g.degrees) == 2 * g.edge_count == g.arc_count


def test_undirected_self_loops_count_as_edges():
    # Each loop is one stored arc, each other edge two.
    g = parse_edge_list("0 0\n0 1\n1 2\n2 2")
    assert g.arc_count == 6
    assert g.edge_count == 4
    assert parse_edge_list("0 0\n0 1\n1 2\n2 2", directed=True).edge_count == 4
    assert parse_edge_list("3 3").edge_count == 1


@pytest.mark.parametrize(
    "text,directed",
    [
        ("0 1\n1 2", False),
        ("0 1 2.5\n1 2 0.125", True),
        ("0 0\n0 1 3.5\n1 2", False),
        ("", False),
        ("0 3\n1 2 1e-3", False),
    ],
)
def test_serialize_round_trip(text, directed):
    g = parse_edge_list(text, directed=directed)
    again = parse_edge_list(serialize_edge_list(g), directed=directed)
    assert again == g


def test_max_degree_cases():
    assert parse_edge_list("0 1\n1 2").max_degree == 2
    star = from_edges([(0, i, 1.0) for i in range(1, 11)])
    assert star.max_degree == 10
    assert parse_edge_list("0 1", directed=True).max_degree == 1
    assert parse_edge_list("").max_degree == 0


def test_from_edges_range_check():
    with pytest.raises(EdgeListError, match="out of range"):
        from_edges([(0, 5, 1.0)], node_count=3)


def test_relabeled_parse_compacts_sparse_ids():
    g, labels = parse_edge_list_relabeled("10 20\n20 30")
    assert labels == [10, 20, 30]
    assert g.node_count == 3
    assert g.degrees == (1, 2, 1)


def test_relabeled_parse_identity_for_dense_ids():
    g, labels = parse_edge_list_relabeled("0 1\n1 2")
    assert labels == [0, 1, 2]
    assert g.degrees == (1, 2, 1)


def ratio_rows(g):
    """Every node's ratios, read through ``Graph.row``."""
    return tuple(g.row(i)[1] for i in range(g.node_count))


def test_out_ratios_sum_to_one():
    g = parse_edge_list("0 1 0.3\n0 2 0.7\n0 3 1.1\n1 2")
    for i in range(g.node_count):
        if g.degrees[i]:
            assert sum(g.row(i)[1]) == pytest.approx(1.0, abs=1e-15)
    g = parse_edge_list("0 1 2.5\n0 2 2.5\n1 2 1\n1 3 2\n4 4 0.5", directed=True)
    assert ratio_rows(g) == ((0.5, 0.5), (1 / 3, 2 / 3), (), (), (1.0,))
    assert g.row(1) == ((2, 3), (1 / 3, 2 / 3)) and g.row(2) == ((), ())


def fraction_ratio_row(weights):
    """The ratio row as exact rationals: w / sum(w), each rounded once."""
    if len(set(weights)) == 1:
        return (1.0 / len(weights),) * len(weights)
    total = sum((Fraction(w) for w in weights), Fraction(0))
    return tuple(float(Fraction(w) / total) for w in weights)


POSITIVE_FLOATS = st.one_of(
    st.floats(min_value=5e-324, max_value=1.7976931348623157e308, allow_subnormal=True),
    st.sampled_from([5e-324, 2.2250738585072014e-308, 0.1, 0.5, 1.0, 2.25, 3.0, 1.7976931348623157e308]),
)


@given(weights=st.lists(POSITIVE_FLOATS, min_size=1, max_size=8))
@settings(max_examples=500, deadline=None)
def test_ratio_row_matches_exact_rationals_bit_for_bit(weights):
    assert [r.hex() for r in _ratio_row(weights)] == [r.hex() for r in fraction_ratio_row(weights)]


def test_graphs_compare_and_hash_by_rows_and_weights():
    g = parse_edge_list("0 1 2.5\n1 2 0.125")
    same = from_edges([(1, 2, 0.125), (0, 1, 2.5)])
    assert same == g and hash(same) == hash(g)
    assert parse_edge_list("0 1 2.5\n1 2 0.25") != g
    assert parse_edge_list("0 1 2.5\n1 2 0.125", directed=True) != g


def test_hand_built_graph_derives_the_rows_of_from_edges():
    edges = [(0, 1, 0.5), (0, 2, 0.25), (1, 2, 3.0), (2, 2, 1.0), (2, 3, 1.0)]
    g = from_edges(edges, directed=True, node_count=5)
    # Equal weights as distinct objects, so nothing rests on float identity.
    one = [float(s) for s in ("1.0", "1.0")]
    assert one[0] is not one[1]
    hand = Graph(5, True, ((1, 2), (2,), (2, 3), (), ()), ((0.5, 0.25), (3.0,), tuple(one), (), ()))
    assert hand == g and hash(hand) == hash(g)
    for a, b in ((hand, g), (g, hand)):
        assert [[r.hex() for r in row] for row in ratio_rows(a)] == [[r.hex() for r in row] for row in ratio_rows(b)]
        assert a.degrees == b.degrees == (2, 1, 2, 0, 0)
    assert ratio_rows(hand) == ((2 / 3, 1 / 3), (1.0,), (0.5, 0.5), (), ())
    # One weight tuple given for several rows derives equal ratio rows.
    row = (3.0, 3.0)
    shared = Graph(3, True, ((1, 2), (0, 2), ()), (row, row, ()))
    assert ratio_rows(shared) == ((0.5, 0.5), (0.5, 0.5), ())


WEIGHTED_TEXT = "0 1 2.5\n0 2 2.5\n1 2 1\n1 3 2\n2 3 0.75\n3 3 4"
UNWEIGHTED_TEXT = "0 1\n0 2\n1 2\n2 3\n3 3\n5 4"


def bulk_parsed(text):
    """``parse_edge_list(text)`` through the bulk parse, which keeps CSR arrays and builds no rows."""
    with mock.patch.object(graph, "_BULK_MIN_LINES", 0):
        g = parse_edge_list(text)
    assert g.csr is not None and "targets" not in vars(g)
    return g


def line_loop(text):
    with mock.patch.object(graph, "_BULK_MIN_LINES", float("inf")):
        return parse_edge_list(text)


def rows_read(g):
    assert g.targets is not None
    return g


def csr_arrays(g):
    csr = g.csr
    return csr.indptr.tolist(), csr.targets.tolist(), None if csr.ratios is None else csr.ratios.tolist()


@pytest.mark.parametrize(
    "make, text",
    [
        (lambda: complete_graph(5), None),
        (lambda: parse_edge_list(WEIGHTED_TEXT), WEIGHTED_TEXT),
        (lambda: bulk_parsed(WEIGHTED_TEXT), WEIGHTED_TEXT),
        (lambda: bulk_parsed(UNWEIGHTED_TEXT), UNWEIGHTED_TEXT),
        (lambda: rows_read(bulk_parsed(WEIGHTED_TEXT)), WEIGHTED_TEXT),
        (lambda: rows_read(bulk_parsed(UNWEIGHTED_TEXT)), UNWEIGHTED_TEXT),
    ],
    ids=["clique", "weighted", "weighted-bulk", "unweighted-bulk", "weighted-bulk-read", "unweighted-bulk-read"],
)
def test_pickled_graph_keeps_rows_and_step_bits(make, text):
    g = make()
    held = set(vars(g))
    copy = pickle.loads(pickle.dumps(g))
    # A bulk graph whose rows were never read pickles without them; either
    # side builds them on first read.
    assert set(vars(copy)) == held
    arrays = g.csr is not None and csr_arrays(g)
    twin = g if text is None else line_loop(text)
    for a in (copy, g):
        assert a == twin and hash(a) == hash(twin) and repr(a) == repr(twin)
    assert copy.degrees == g.degrees and ratio_rows(copy) == ratio_rows(g) == ratio_rows(twin)
    # Only a graph without arrays keeps ratio rows.
    assert ("_ratios" in vars(g)) == ("_ratios" in vars(copy)) == (g.csr is None)
    assert (copy.csr is None) == (g.csr is None)
    if arrays:
        # Building the rows leaves the arrays as they were.
        assert csr_arrays(g) == csr_arrays(copy) == arrays
    cfg = DiffusionConfig(alpha=0.4, epsilon=0.05, variant=Variant.EXCESS, delta=1e-3)
    a, b = init_state(g, 0), init_state(copy, 0)
    for _ in range(10):
        a, b = step(a, g, cfg), step(b, copy, cfg)
        assert [(i, xi.hex()) for i, xi in a.x.items()] == [(i, xi.hex()) for i, xi in b.x.items()]


# The row fields of a Graph, which code outside graph.py and csr.py reads
# through Graph.row alone.
ROW_FIELDS = {"targets", "weights", "out_ratios", "_ratios"}


def test_only_the_graph_modules_read_row_fields():
    package = Path(graph.__file__).parent
    reads = [
        f"{path.name}:{node.lineno}: .{node.attr}"
        for path in sorted(package.glob("*.py"))
        if path.name not in ("graph.py", "csr.py")
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Attribute) and node.attr in ROW_FIELDS
    ]
    assert reads == []
