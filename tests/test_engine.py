import math

import pytest
from hypothesis import given, settings, strategies as st

from chargediff import engine
from chargediff.diffusion import DiffusionConfig, Variant
from chargediff.distsim import run_distributed
from chargediff.engine import (
    ConfigError,
    build_result,
    compute_bounds,
    run_query,
    top_k,
    validate_config,
)
from chargediff.generators import complete_graph, path_graph, star
from chargediff.graph import from_edges
from oracles import nn_subgraph_connected, periphery_check
from test_csr import parse_both

STAR = star(10)
STAR_CFG = DiffusionConfig(alpha=0.5, epsilon=0.1)


class TestValidateConfig:
    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match="alpha"):
            validate_config(STAR, DiffusionConfig(alpha=1.0, epsilon=0.1))
        with pytest.raises(ConfigError, match="alpha"):
            validate_config(STAR, DiffusionConfig(alpha=0.0, epsilon=0.1))

    def test_epsilon_out_of_range(self):
        with pytest.raises(ConfigError, match="epsilon"):
            validate_config(STAR, DiffusionConfig(alpha=0.5, epsilon=0.0))
        with pytest.raises(ConfigError, match="epsilon"):
            validate_config(STAR, DiffusionConfig(alpha=0.5, epsilon=1.0))

    def test_delta_checked_for_excess_only(self):
        bad = DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.EXCESS, delta=0.2)
        with pytest.raises(ConfigError, match="delta"):
            validate_config(STAR, bad)
        # Same delta is irrelevant for retention.
        ok = DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.RETENTION, delta=0.2)
        validate_config(STAR, ok)

    def test_small_graph_warns_nontermination(self):
        warnings = validate_config(complete_graph(3), DiffusionConfig(alpha=0.5, epsilon=0.2))
        assert any("cannot terminate" in w for w in warnings)

    def test_star_with_small_alpha_has_no_warnings(self):
        # n=11 > 1/epsilon=10 and 11 >= 1/((1-0.05)*0.1).
        assert validate_config(STAR, DiffusionConfig(alpha=0.05, epsilon=0.1)) == []

    def test_precondition_warning_depends_on_alpha(self):
        warnings = validate_config(STAR, STAR_CFG)
        assert len(warnings) == 1
        assert "precondition" in warnings[0]

    def test_max_iterations_positive(self):
        with pytest.raises(ConfigError, match="max_iterations"):
            validate_config(STAR, DiffusionConfig(alpha=0.5, epsilon=0.1, max_iterations=0))


class TestRunQuery:
    def test_star_fixture(self):
        res = run_query(STAR, 0, STAR_CFG)
        assert res.terminated
        assert res.iterations == 4
        assert res.nn_set == [0]
        assert res.touched == 11
        assert res.final_charges[0] == 0.0625
        leaves = [node for node, _ in res.ranking[:10]]
        assert leaves == list(range(1, 11))
        assert all(res.final_charges[leaf] == pytest.approx(0.09375, abs=1e-12) for leaf in leaves)
        assert res.ranking[-1] == (0, 0.0625)

    def test_triangle_never_terminates(self):
        cfg = DiffusionConfig(alpha=0.5, epsilon=0.2, max_iterations=1000)
        res = run_query(complete_graph(3), 0, cfg)
        assert not res.terminated
        assert res.iterations == 1000

    def test_star_excess_stops_when_excess_crosses_delta(self):
        cfg = DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.EXCESS, delta=0.01)
        res = run_query(STAR, 0, cfg)
        assert res.terminated
        assert res.iterations == 7
        assert len(res.excess_trace) == 8
        assert res.excess_trace[-1] < 0.01
        assert all(a >= 0.01 for a in res.excess_trace[:-1])

    def test_stuck_seed_terminates_immediately(self):
        g = from_edges([(0, 1, 1.0)], directed=True)
        res = run_query(g, 1, DiffusionConfig(alpha=0.5, epsilon=0.1))
        assert res.terminated
        assert res.iterations == 0
        assert res.nn_set == [1]
        assert res.final_charges == {1: 1.0}

    def test_seed_out_of_range(self):
        with pytest.raises(ValueError, match="out of range"):
            run_query(STAR, 11, STAR_CFG)

    def test_lazy_walk_runs_to_cap(self):
        cfg = DiffusionConfig(variant=Variant.LAZY_WALK, max_iterations=20)
        res = run_query(path_graph(6), 0, cfg)
        assert not res.terminated
        assert res.iterations == 20
        assert res.excess_trace is None


STUCK = from_edges([(0, 1, 1.0)], directed=True)
# name: (graph, seed, config, stop_reason, (cycle_start, period))
STOP_CASES = {
    "retention settles": (STAR, 0, STAR_CFG, "quiescent", (None, None)),
    # An EXCESS run whose only active node has no out-edges.
    "excess stuck seed": (
        STUCK, 1, DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.EXCESS), "quiescent", (None, None)
    ),
    "excess decays": (
        STAR, 0, DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.EXCESS, delta=0.01),
        "excess_below_delta", (None, None),
    ),
    "repeat capped": (
        complete_graph(3), 0, DiffusionConfig(alpha=0.5, epsilon=0.2, max_iterations=1000),
        "iteration_cap", (31, 1),
    ),
    "lazy capped": (
        path_graph(6), 0, DiffusionConfig(variant=Variant.LAZY_WALK, max_iterations=20),
        "iteration_cap", (None, None),
    ),
    "retention capped": (
        STAR, 0, DiffusionConfig(alpha=0.5, epsilon=0.1, max_iterations=2), "iteration_cap", (None, None)
    ),
}


@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_stop_reason_and_repeat(case):
    g, seed, cfg, reason, repeat = STOP_CASES[case]
    res = run_query(g, seed, cfg)
    assert res.stop_reason == reason
    assert res.terminated == (reason != "iteration_cap")
    assert (res.cycle_start, res.period) == repeat
    # The simulator shares the run loop, so it reports the same ending.
    assert run_distributed(g, seed, cfg)[0] == res


class TestTopK:
    def test_star_top3_excludes_seed(self):
        res = run_query(STAR, 0, STAR_CFG)
        assert top_k(res, 3, include_seed=False) == [1, 2, 3]

    def test_k_larger_than_touched_returns_all(self):
        res = run_query(STAR, 0, STAR_CFG)
        assert len(top_k(res, 99, include_seed=True)) == res.touched

    def test_single_node_graph(self):
        g = from_edges([], node_count=1)
        res = run_query(g, 0, DiffusionConfig(alpha=0.5, epsilon=0.4))
        assert top_k(res, 1, include_seed=True) == [0]
        assert top_k(res, 1, include_seed=False) == []

    def test_rejects_nonpositive_k(self):
        res = run_query(STAR, 0, STAR_CFG)
        with pytest.raises(ValueError, match="k"):
            top_k(res, 0)


class TestBounds:
    def test_reference_values(self):
        g = star(20)  # d_max = 20
        b = compute_bounds(g, DiffusionConfig(alpha=0.5, epsilon=0.01))
        assert b.max_core_size == 200
        assert b.max_touched == 4000
        assert b.max_iterations_bound == pytest.approx(796000, rel=1e-9)

    def test_core_size_at_decimal_parameters(self):
        b = compute_bounds(STAR, DiffusionConfig(alpha=0.5, epsilon=0.1))
        assert b.max_core_size == 20
        b = compute_bounds(STAR, DiffusionConfig(alpha=0.9, epsilon=0.1))
        assert b.max_core_size == 100

    def test_excess_stop_bound(self):
        cfg = DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.EXCESS, delta=0.01)
        b = compute_bounds(STAR, cfg)
        assert b.excess_stop_bound == pytest.approx(math.log(0.01) / math.log(0.5))
        assert b.excess_stop_bound == pytest.approx(6.64, abs=0.01)

    def test_all_positive_for_valid_config(self):
        b = compute_bounds(STAR, STAR_CFG)
        assert b.max_core_size > 0
        assert b.max_touched > 0
        assert b.max_iterations_bound > 0
        assert b.excess_stop_bound > 0

    def test_rejects_zero_epsilon(self):
        with pytest.raises(ConfigError):
            compute_bounds(STAR, DiffusionConfig(variant=Variant.LAZY_WALK))


class TestNeighborhoodChecks:
    def test_star_nn_subgraph_connected(self):
        res = run_query(STAR, 0, STAR_CFG)
        assert nn_subgraph_connected(STAR, res)

    def test_singleton_nn_set_connected(self):
        g = from_edges([(0, 1, 1.0)], directed=True)
        res = run_query(g, 1, DiffusionConfig(alpha=0.5, epsilon=0.1))
        assert nn_subgraph_connected(g, res)

    def test_empty_nn_set_with_seed_connected(self):
        from chargediff.engine import QueryResult

        g = path_graph(3)
        bare = QueryResult(
            seed=1, nn_set=[], final_charges={}, iterations=0,
            terminated=True, touched=0,
        )
        assert nn_subgraph_connected(g, bare)

    def test_star_periphery_report(self):
        res = run_query(STAR, 0, STAR_CFG)
        rep = periphery_check(STAR, res, STAR_CFG)
        assert rep.halo == list(range(1, 11))
        assert rep.outside_zero
        assert rep.max_halo_charge == pytest.approx(0.09375, abs=1e-12)
        assert rep.within_epsilon
        # The stricter epsilon*(1-alpha)=0.05 figure is violated here by design.
        assert not rep.within_retained_floor

    def test_two_hops_out_means_exactly_zero(self):
        g = path_graph(5)
        cfg = DiffusionConfig(alpha=0.5, epsilon=0.3)
        res = run_query(g, 0, cfg)
        assert res.terminated
        assert res.nn_set == [0, 1, 2]
        rep = periphery_check(g, res, cfg)
        assert rep.halo == [3]
        assert rep.outside_zero
        assert 4 not in res.final_charges

    def test_whole_graph_core_is_vacuous(self):
        g = from_edges([(0, 1, 1.0)], directed=True)
        cfg = DiffusionConfig(alpha=0.5, epsilon=0.45)
        res = run_query(g, 0, cfg)
        assert res.terminated
        assert res.nn_set == [0, 1]
        rep = periphery_check(g, res, cfg)
        assert rep.halo == []
        assert rep.outside_zero
        assert rep.within_epsilon
        assert rep.within_retained_floor

    def test_periphery_check_requires_termination(self):
        cfg = DiffusionConfig(alpha=0.5, epsilon=0.2, max_iterations=50)
        res = run_query(complete_graph(3), 0, cfg)
        with pytest.raises(ValueError, match="terminated"):
            periphery_check(complete_graph(3), res, cfg)


# A small pool, so that equal charges (ties in the ranking) are common.
CHARGE_POOL = (0.0, 5e-324, 0.125, 0.1, 0.3, 0.25, 1.0)


@given(
    x=st.lists(
        st.tuples(st.integers(0, 40), st.sampled_from(CHARGE_POOL)),
        unique_by=lambda kv: kv[0],
        max_size=30,
    ).map(dict)
)
@settings(max_examples=200, deadline=None)
def test_build_result_ranks_like_the_charge_then_id_key(x):
    # Keys arrive in random order and some hold 0.0; the ranking must equal
    # the (-charge, id) sort it replaced, kept here as the reference.
    res = build_result(x, set(), 0, 1, True)
    reference = sorted(
        ((i, xi) for i, xi in x.items() if xi > 0.0), key=lambda kv: (-kv[1], kv[0])
    )
    assert res.ranking == reference
    assert list(res.final_charges) == sorted(res.final_charges)
    assert 0.0 not in res.final_charges.values()
    assert res.final_charges == dict(reference)
    assert res.touched == len(reference)


# Texts whose queries end with equal charges on several nodes: the leaves of
# a star, the far members of a clique, and a star whose leaf ids are not in
# line order.
TIED_TEXTS = {
    "star": "".join(f"0 {i}\n" for i in range(1, 11)),
    "two_cliques": "".join(f"{u} {v}\n" for u in range(6) for v in range(u + 1, 6))
    + "".join(f"{u} {v}\n" for u in range(6, 12) for v in range(u + 1, 12))
    + "5 6\n",
    "shuffled_star": "".join(f"{i} 4\n" for i in (9, 2, 11, 0, 7, 5, 1)),
}


@pytest.mark.parametrize("name", sorted(TIED_TEXTS))
@pytest.mark.parametrize("variant", list(Variant))
def test_ranking_is_the_charge_then_id_sort_of_the_final_charges(name, variant):
    bulk, loop = parse_both(TIED_TEXTS[name], False)
    seed = 4 if name == "shuffled_star" else 0
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.05, variant=variant, delta=1e-3, max_iterations=60)
    results = [run_query(g, seed, cfg) for g in (bulk, loop)]
    assert results[0] == results[1]
    for res in results:
        reference = sorted(res.final_charges.items(), key=lambda kv: (-kv[1], kv[0]))
        assert res.ranking == reference
        charges = [xi for _, xi in reference]
        assert len(set(charges)) < len(charges)
        for include_seed in (False, True):
            ids = [i for i, _ in reference if include_seed or i != seed]
            for k in range(1, res.touched + 2):
                assert top_k(res, k, include_seed=include_seed) == ids[:k]


def test_queries_leave_the_ranking_unsorted(monkeypatch):
    # The ranking's sort key is the only itemgetter in the engine: a query,
    # on either round and in the simulator, must not call it.
    def no_sort(*args):
        raise AssertionError("the ranking was built")

    bulk, loop = parse_both(TIED_TEXTS["star"], False)
    monkeypatch.setattr(engine, "itemgetter", no_sort)
    results = [run_query(bulk, 0, STAR_CFG), run_query(loop, 0, STAR_CFG), run_distributed(loop, 0, STAR_CFG)[0]]
    for res in results:
        assert res.touched == 11
        with pytest.raises(AssertionError, match="ranking was built"):
            res.ranking
