import random
import tracemalloc

import pytest

from chargediff.diffusion import DiffusionConfig, Variant, emitters, init_state, step
from chargediff.distsim import message_complexity_report, round_stats_table, run_distributed
from chargediff.engine import compute_bounds, run_query, should_stop
from chargediff.generators import (
    erdos_renyi_connected,
    path_graph,
    preferential_attachment,
    star,
)
from chargediff.graph import from_edges, max_degree

STAR = star(10)
STAR_CFG = DiffusionConfig(alpha=0.5, epsilon=0.1)


def test_star_rounds_and_messages():
    result, stats = run_distributed(STAR, 0, STAR_CFG)
    assert [s.messages_sent for s in stats] == [10, 10, 10, 10]
    assert [s.active_count for s in stats] == [1, 1, 1, 1]
    assert sum(s.messages_sent for s in stats) == 40
    assert result.terminated
    assert result.iterations == 4


def test_star_matches_centralized_exactly():
    result, _ = run_distributed(STAR, 0, STAR_CFG)
    central = run_query(STAR, 0, STAR_CFG)
    assert result.final_charges == central.final_charges
    assert result.nn_set == central.nn_set
    assert result.iterations == central.iterations
    assert result.ranking == central.ranking


def test_lazy_walk_round_sends_all_arcs():
    g = path_graph(3)
    cfg = DiffusionConfig(variant=Variant.LAZY_WALK, max_iterations=1)
    _, stats = run_distributed(g, 0, cfg)
    assert len(stats) == 1
    assert stats[0].messages_sent == g.arc_count == 4
    assert stats[0].active_count == g.node_count


def test_lazy_walk_capped_run_message_total():
    g = erdos_renyi_connected(25, 3.0, random.Random(5))
    cfg = DiffusionConfig(variant=Variant.LAZY_WALK, max_iterations=7)
    _, stats = run_distributed(g, 0, cfg)
    assert len(stats) == 7
    assert all(s.messages_sent == g.arc_count for s in stats)
    assert sum(s.messages_sent for s in stats) == 7 * g.arc_count


def test_stuck_seed_halts_immediately():
    g = from_edges([(0, 1, 1.0)], directed=True)
    result, stats = run_distributed(g, 1, DiffusionConfig(alpha=0.5, epsilon=0.1))
    assert stats == []
    assert result.terminated
    assert result.iterations == 0
    assert result.nn_set == [1]


def test_per_round_conservation():
    g = preferential_attachment(40, 2, random.Random(9))
    cfg = DiffusionConfig(alpha=0.4, epsilon=0.05)
    _, stats = run_distributed(g, 3, cfg)
    assert stats, "run should take at least one round"
    for s in stats:
        assert abs(s.total_charge - 1.0) <= 1e-12


def test_messages_bounded_by_arc_count():
    g = erdos_renyi_connected(30, 4.0, random.Random(2))
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.05)
    _, stats = run_distributed(g, 0, cfg)
    assert all(s.messages_sent <= g.arc_count for s in stats)


@pytest.mark.parametrize("variant", list(Variant))
@pytest.mark.parametrize("trial", range(6))
def test_distributed_equals_centralized_on_random_graphs(variant, trial):
    rng = random.Random(1000 * trial + list(Variant).index(variant))
    n = rng.randint(5, 60)
    if trial % 2:
        g = erdos_renyi_connected(n, rng.uniform(2, 5), rng)
    else:
        g = preferential_attachment(max(n, 4), 2, rng)
        n = g.node_count
    if variant is Variant.LAZY_WALK:
        cfg = DiffusionConfig(variant=variant, max_iterations=15)
    else:
        eps = rng.uniform(0.05, 0.3)
        cfg = DiffusionConfig(
            alpha=rng.uniform(0.2, 0.8),
            epsilon=eps,
            variant=variant,
            delta=eps / 50,
            max_iterations=400,
        )
    seed = rng.randrange(n)
    central = run_query(g, seed, cfg)
    distributed, _ = run_distributed(g, seed, cfg)
    assert distributed.final_charges == central.final_charges
    assert distributed.iterations == central.iterations
    assert distributed.nn_set == central.nn_set
    assert distributed.terminated == central.terminated
    assert distributed.excess_trace == central.excess_trace


def test_round_cost_independent_of_graph_size():
    # The star of STAR padded with 99,989 isolated nodes: actors exist only
    # for charged nodes, so the run allocates as little as on the bare star.
    g = from_edges([(0, i, 1.0) for i in range(1, 11)], node_count=100_000)
    tracemalloc.start()
    try:
        result, stats = run_distributed(g, 0, STAR_CFG)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    star_result, star_stats = run_distributed(STAR, 0, STAR_CFG)
    assert stats == star_stats
    assert result == star_result
    assert result == run_query(g, 0, STAR_CFG)


def test_distinct_recipients_within_touched_bound():
    # Replay the emission schedule centrally; the distributed run delivers the
    # same messages, so its distinct recipients are the same set.
    g = preferential_attachment(60, 2, random.Random(4))
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.08)
    state = init_state(g, 1)
    recipients: set[int] = set()
    while not should_stop(state, g, cfg) and state.t < 500:
        for j in emitters(state, g, cfg):
            recipients.update(g.targets[j])
        state = step(state, g, cfg)
    bounds = compute_bounds(g, cfg)
    assert len(recipients) <= bounds.max_touched


def test_round_stats_table_shape():
    _, stats = run_distributed(STAR, 0, STAR_CFG)
    table = round_stats_table(stats)
    lines = table.strip().splitlines()
    assert lines[0] == "round\tmessages\tactive\ttotal_charge"
    assert len(lines) == 5


def test_message_report_star():
    result, stats = run_distributed(STAR, 0, STAR_CFG)
    bounds = compute_bounds(STAR, STAR_CFG)
    report = message_complexity_report(
        stats, bounds, d_max=max_degree(STAR), touched=result.touched
    )
    assert report.total_messages == 40
    assert report.rounds == 4
    assert report.peak_round_messages == 10
    assert report.messages_within_bound
    assert report.touched_within_bound
    assert report.violations == []


def test_message_report_empty_stats():
    bounds = compute_bounds(STAR, STAR_CFG)
    report = message_complexity_report([], bounds)
    assert report.total_messages == 0
    assert report.rounds == 0
    assert report.peak_round_messages == 0
    assert report.messages_within_bound is None
    assert report.touched_within_bound is None
