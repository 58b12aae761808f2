import random
import tracemalloc
from dataclasses import replace

import pytest

from chargediff import distsim
from chargediff.diffusion import DiffusionConfig, Variant, emitters, init_state, step
from chargediff.distsim import message_complexity_report, run_distributed, total_messages
from chargediff.engine import check_config, run_query, should_stop, top_k
from chargediff.generators import (
    erdos_renyi_connected,
    path_graph,
    preferential_attachment,
    star,
)
from chargediff.graph import from_edges
from oracles import play

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
    assert top_k(result.final_charges, 11) == top_k(central.final_charges, 11)


def test_lazy_walk_round_sends_the_arcs_of_charged_nodes():
    # Round 1 of a lazy walk from an end of the path: only the seed holds
    # charge, so it alone sends, along its one arc of the graph's 4.
    g = path_graph(3)
    cfg = DiffusionConfig(variant=Variant.LAZY_WALK, max_iterations=1)
    _, stats = run_distributed(g, 0, cfg)
    assert len(stats) == 1
    assert stats[0].messages_sent == g.degrees[0] == 1
    assert stats[0].active_count == 1


def test_lazy_walk_capped_run_message_total():
    g = erdos_renyi_connected(25, 3.0, random.Random(5))
    cfg = DiffusionConfig(variant=Variant.LAZY_WALK, max_iterations=7)
    result, stats = run_distributed(g, 0, cfg)
    assert len(stats) == 7
    # Each round, the nodes that hold charge send along all their arcs.
    state, sent = init_state(g, 0), []
    for _ in range(7):
        sent.append(sum(g.degrees[j] for j, xj in state.x.items() if xj > 0.0))
        state = step(state, g, cfg)
    assert [s.messages_sent for s in stats] == sent
    assert sent[0] == g.degrees[0] < sent[-1] <= g.arc_count
    assert total_messages(stats, result) == sum(sent)


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


def test_a_receipt_dropped_from_the_last_fold_raises(monkeypatch):
    # On the triangle from node 0, round 1 mails one message to each of nodes
    # 1 and 2; in round 2 node 0 gets two, one from each. Dropping the last
    # message of every mailbox of two or more loses charge in round 2's fold
    # alone, the run's last round.
    def drop_last(items):
        out = sorted(items)
        if len(out) >= 2 and all(isinstance(item, tuple) for item in out):
            del out[-1]
        return out

    monkeypatch.setattr(distsim, "sorted", drop_last, raising=False)
    g = from_edges([(0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)])
    with pytest.raises(RuntimeError, match="charge leak at round 2"):
        run_distributed(g, 0, DiffusionConfig(max_iterations=2))


def test_a_split_that_loses_charge_raises(monkeypatch):
    # Each sender keeps half its charge and sends a quarter.
    monkeypatch.setattr(distsim, "splitter", lambda cfg: lambda held: (held / 2, held / 4))
    with pytest.raises(RuntimeError, match="charge leak at round 1"):
        run_distributed(STAR, 0, STAR_CFG)


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
    # The star of STAR padded with 99,989 isolated nodes: a round touches
    # only charged nodes and their mail, so the run allocates as little as
    # on the bare star.
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
    bounds = check_config(g, cfg)[1]
    assert len(recipients) <= bounds.max_touched


def test_message_report_star():
    result, stats = run_distributed(STAR, 0, STAR_CFG)
    bounds = check_config(STAR, STAR_CFG)[1]
    report = message_complexity_report(stats, result, bounds, d_max=STAR.max_degree)
    assert report == {
        "total_messages": 40,
        "peak_round_messages": 10,
        # Four rounds of at most 20 senders of at most 10 arcs.
        "message_bound": 4 * 10 * 20,
        "max_touched": bounds.max_touched,
        "violations": [],
    }


def test_message_report_empty_stats():
    # A seed without out-edges stops before its first round.
    g = from_edges([], node_count=1)
    result, stats = run_distributed(g, 0, STAR_CFG)
    assert (result.iterations, stats) == (0, [])
    report = message_complexity_report(stats, result, check_config(STAR, STAR_CFG)[1], d_max=10)
    assert report["total_messages"] == 0
    assert report["peak_round_messages"] == 0
    assert report["message_bound"] == 0
    assert report["violations"] == []


def test_message_report_names_each_bound_exceeded():
    result, stats = run_distributed(STAR, 0, STAR_CFG)
    bounds = replace(check_config(STAR, STAR_CFG)[1], max_core_size=0, max_touched=5)
    report = message_complexity_report(stats, result, bounds, d_max=STAR.max_degree)
    assert result.touched == 11
    assert report["violations"] == [
        "messages 40 exceed rounds*d_max*max_core_size = 0",
        "touched 11 exceeds max_touched 5",
    ]
    # One bound at a time names only that one.
    bounds = replace(bounds, max_touched=11)
    report = message_complexity_report(stats, result, bounds, d_max=STAR.max_degree)
    assert report["violations"] == ["messages 40 exceed rounds*d_max*max_core_size = 0"]


def test_message_report_of_a_repeating_run_counts_every_round():
    # A directed triangle with a chord repeats from round 127 with a period
    # of 14 whose rounds send 1 to 3 messages; its rows end at the repeat,
    # and the cap leaves 8 rounds of a last period. The report expands the
    # rows to every round, as playing does.
    g = from_edges([(0, 1, 1.0), (0, 2, 1.0), (1, 2, 1.0), (2, 0, 1.0)], directed=True)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.3, max_iterations=1_003)
    result, stats = run_distributed(g, 0, cfg)
    assert (result.cycle_start, result.period, len(stats)) == (127, 14, 141)
    played = play(g, 0, cfg)[4]
    bounds = check_config(g, cfg)[1]
    report = message_complexity_report(stats, result, bounds, d_max=g.max_degree)
    assert report["total_messages"] == sum(row[1] for row in played)
    assert report["peak_round_messages"] == max(row[1] for row in played)
    assert report["message_bound"] == 1_003 * 2 * bounds.max_core_size
