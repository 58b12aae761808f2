import pytest

from chargediff.graph import (
    EdgeListError,
    from_edges,
    max_degree,
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
    assert max_degree(parse_edge_list("0 1\n1 2")) == 2
    star = from_edges([(0, i, 1.0) for i in range(1, 11)])
    assert max_degree(star) == 10
    assert max_degree(parse_edge_list("0 1", directed=True)) == 1
    assert max_degree(parse_edge_list("")) == 0


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


def test_out_ratios_sum_to_one():
    g = parse_edge_list("0 1 0.3\n0 2 0.7\n0 3 1.1\n1 2")
    for i in range(g.node_count):
        if g.degrees[i]:
            assert sum(g.out_ratios[i]) == pytest.approx(1.0, abs=1e-15)
