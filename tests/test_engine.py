from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from chargediff import engine
from chargediff.diffusion import DiffusionConfig, Variant, init_state, step
from chargediff.distsim import run_distributed
from chargediff.engine import (
    ConfigError,
    build_result,
    check_config,
    run_query,
    should_stop,
    top_k,
)
from chargediff.generators import complete_graph, path_graph, star
from chargediff.graph import from_edges, serialize_edge_list
from oracles import nn_subgraph_connected, periphery_check
from test_csr import parse_both

STAR = star(10)
STAR_CFG = DiffusionConfig(alpha=0.5, epsilon=0.1)


class TestValidateConfig:
    """check_config's errors, in order, and its warnings."""

    def test_alpha_out_of_range(self):
        with pytest.raises(ConfigError, match="alpha"):
            check_config(STAR, DiffusionConfig(alpha=1.0, epsilon=0.1))
        with pytest.raises(ConfigError, match="alpha"):
            check_config(STAR, DiffusionConfig(alpha=0.0, epsilon=0.1))

    def test_epsilon_out_of_range(self):
        with pytest.raises(ConfigError, match="epsilon"):
            check_config(STAR, DiffusionConfig(alpha=0.5, epsilon=0.0))
        with pytest.raises(ConfigError, match="epsilon"):
            check_config(STAR, DiffusionConfig(alpha=0.5, epsilon=1.0))

    def test_delta_checked_for_excess_only(self):
        # delta >= epsilon is an error under EXCESS alone, which reads delta.
        bad = DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.EXCESS, delta=0.2)
        with pytest.raises(ConfigError, match="delta must be below epsilon"):
            check_config(STAR, bad)
        ok = DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.RETENTION, delta=0.2)
        check_config(STAR, ok)

    @pytest.mark.parametrize("variant", list(Variant))
    @pytest.mark.parametrize("delta", [0.0, 1.0, 2.0, -0.5])
    def test_delta_outside_unit_interval_rejected_under_every_variant(self, variant, delta):
        cfg = DiffusionConfig(alpha=0.5, epsilon=0.1, variant=variant, delta=delta)
        with pytest.raises(ConfigError, match=r"delta must be in \(0, 1\)"):
            check_config(STAR, cfg)
        with pytest.raises(ConfigError, match=r"delta must be in \(0, 1\)"):
            run_query(STAR, 0, cfg)

    def test_small_graph_warns_nontermination(self):
        warnings, _ = check_config(complete_graph(3), DiffusionConfig(alpha=0.5, epsilon=0.2))
        assert any("cannot terminate" in w for w in warnings)

    def test_star_with_small_alpha_has_no_warnings(self):
        # n=11 > 1/epsilon=10 and 11 >= 1/((1-0.05)*0.1).
        assert check_config(STAR, DiffusionConfig(alpha=0.05, epsilon=0.1))[0] == []

    def test_precondition_warning_depends_on_alpha(self):
        warnings, _ = check_config(STAR, STAR_CFG)
        assert len(warnings) == 1
        assert "precondition" in warnings[0]

    def test_max_iterations_positive(self):
        with pytest.raises(ConfigError, match="max_iterations"):
            check_config(STAR, DiffusionConfig(alpha=0.5, epsilon=0.1, max_iterations=0))


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
DIRECTED_PATH = from_edges([(i, i + 1, 1.0) for i in range(4)], directed=True)
LAZY = DiffusionConfig(variant=Variant.LAZY_WALK, max_iterations=5000)
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
    # A lazy walk is retention at epsilon 0: it stops once no node that
    # holds charge has out-edges.
    "lazy stuck seed": (STUCK, 1, LAZY, "quiescent", (None, None)),
    "lazy directed path": (DIRECTED_PATH, 0, LAZY, "quiescent", (None, None)),
    "retention capped": (
        STAR, 0, DiffusionConfig(alpha=0.5, epsilon=0.1, max_iterations=2), "iteration_cap", (None, None)
    ),
}


@pytest.mark.parametrize("case", sorted(STOP_CASES))
def test_stop_reason_and_repeat(case):
    g, seed, cfg, reason, repeat = STOP_CASES[case]
    # The same graph from the bulk parse (numpy round) and the line loop (dict round).
    bulk, loop = parse_both(serialize_edge_list(g), g.directed)
    assert loop == g
    results = []
    for h in (bulk, loop):
        res = run_query(h, seed, cfg)
        assert res.stop_reason == reason
        assert res.terminated == (reason != "iteration_cap")
        assert (res.cycle_start, res.period) == repeat
        # The stop test names the reason on the state the run ended in, and
        # None on that of a capped run.
        state = init_state(h, seed)
        while state.t < res.iterations:
            state = step(state, h, cfg)
        assert should_stop(state, h, cfg) == (reason if res.terminated else None)
        # The simulator shares the run loop, so it reports the same ending.
        assert run_distributed(h, seed, cfg)[0] == res
        results.append(res)
    assert results[0] == results[1]


@pytest.mark.parametrize(
    "g, iterations, final",
    [
        (from_edges([], node_count=1), 0, {0: 1.0}),
        # The charge drains into the sink, and the last of it left on the
        # path underflows to 0.0 at round 1103.
        (DIRECTED_PATH, 1103, {4: 0.9999999999999998}),
    ],
    ids=["one node", "directed path"],
)
def test_lazy_walk_stops_once_its_charge_cannot_move(g, iterations, final):
    res = run_query(g, 0, LAZY)
    assert res.stop_reason == "quiescent"
    assert res.iterations == iterations
    assert res.final_charges == final
    assert run_distributed(g, 0, LAZY)[0] == res


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
        _, b = check_config(g, DiffusionConfig(alpha=0.5, epsilon=0.01))
        assert b.max_core_size == 200
        assert b.max_touched == 200 * 21
        assert b.max_iterations_bound == pytest.approx(796000, rel=1e-9)

    def test_core_size_at_decimal_parameters(self):
        assert check_config(STAR, DiffusionConfig(alpha=0.5, epsilon=0.1))[1].max_core_size == 20
        assert check_config(STAR, DiffusionConfig(alpha=0.9, epsilon=0.1))[1].max_core_size == 100

    def test_all_positive_for_valid_config(self):
        _, b = check_config(STAR, STAR_CFG)
        assert b.max_core_size > 0
        assert b.max_touched > 0
        assert b.max_iterations_bound > 0

    def test_lazy_has_no_bounds(self):
        assert check_config(STAR, DiffusionConfig(variant=Variant.LAZY_WALK)) == ([], None)

    @pytest.mark.parametrize("alpha, touched", [(0.8, 17), (0.95, 46)])
    def test_touched_bound_holds_on_a_directed_path(self, alpha, touched):
        # d_max/(alpha*epsilon), 12 and 10 here, is not a bound: each node
        # that the head of a path charges above epsilon sends on down it.
        g = from_edges([(i, i + 1, 1.0) for i in range(399)], directed=True)
        cfg = DiffusionConfig(alpha=alpha, epsilon=0.1)
        result = run_query(g, 0, cfg)
        _, b = check_config(g, cfg)
        assert result.terminated and result.touched == touched
        assert result.touched <= b.max_touched == b.max_core_size * 2

    def test_no_iteration_bound_under_excess(self):
        # The delta stop comes after the retention formula's 760 rounds.
        g = path_graph(96)
        cfg = DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.EXCESS, delta=1e-3)
        result = run_query(g, 0, cfg)
        assert (result.stop_reason, result.iterations) == ("excess_below_delta", 774)
        retention = replace(cfg, variant=Variant.RETENTION)
        assert check_config(g, retention)[1].max_iterations_bound == pytest.approx(760)
        assert check_config(g, cfg)[1].max_iterations_bound is None

    @pytest.mark.parametrize("variant", [Variant.RETENTION, Variant.EXCESS])
    @pytest.mark.parametrize("epsilon", [1e-320, 1e-310])
    def test_subnormal_epsilon_has_no_finite_bounds(self, variant, epsilon):
        cfg = DiffusionConfig(alpha=0.5, epsilon=epsilon, variant=variant, delta=5e-324)
        with pytest.raises(ConfigError, match="too small for finite bounds"):
            check_config(STAR, cfg)


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
        bare = QueryResult(seed=1, nn_set=[], final_charges={}, iterations=0, stop_reason="quiescent")
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
    res = build_result(x, set(), 0, 1, "quiescent")
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
