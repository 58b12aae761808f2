import math
import random

import numpy as np
import pytest

from chargediff.baselines import overlap_at_k, personalized_pagerank, rank_nodes
from chargediff.diffusion import DiffusionConfig, Variant, init_state, step
from chargediff.generators import complete_graph, erdos_renyi_connected, preferential_attachment, star
from chargediff.graph import from_edges
import oracles
from oracles import DESK_SCALE_LIMIT, lazy_walk_matrix_power, oracle_step


def dense_of(state, n):
    x = np.zeros(n)
    for i, v in state.x.items():
        x[i] = v
    return x


def test_oracle_matches_star_retention():
    g = star(10)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.1)
    x = np.zeros(11)
    x[0] = 1.0
    x = oracle_step(x, g, cfg)
    assert x[0] == 0.5
    assert np.allclose(x[1:], 0.05, atol=1e-15)
    for _ in range(3):
        x = oracle_step(x, g, cfg)
    assert x[0] == pytest.approx(0.0625, abs=1e-15)
    assert np.allclose(x[1:], 0.09375, atol=1e-12)


def test_oracle_matches_triangle_retention():
    g = complete_graph(3)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.2)
    x = np.array([1.0, 0.0, 0.0])
    x = oracle_step(oracle_step(x, g, cfg), g, cfg)
    assert np.allclose(x, [0.375, 0.3125, 0.3125], atol=1e-15)


def test_oracle_matches_star_excess():
    g = star(10)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.1, variant=Variant.EXCESS, delta=0.01)
    x = np.zeros(11)
    x[0] = 1.0
    x = oracle_step(x, g, cfg)
    assert x[0] == pytest.approx(0.55, abs=1e-12)
    assert np.allclose(x[1:], 0.045, atol=1e-12)


def test_oracle_zero_vector_and_fixed_points():
    g = complete_graph(4)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.2)
    zero = np.zeros(4)
    assert np.array_equal(oracle_step(zero, g, cfg), zero)
    quiet = np.full(4, 0.2)  # at the threshold, nobody is active
    assert np.array_equal(oracle_step(quiet, g, cfg), quiet)


def test_oracle_size_guard():
    g = star(10)
    cfg = DiffusionConfig(alpha=0.5, epsilon=0.1)
    with pytest.raises(ValueError, match="shape"):
        oracle_step(np.zeros(5), g, cfg)
    big = from_edges([(i, i + 1, 1.0) for i in range(DESK_SCALE_LIMIT + 1)])
    with pytest.raises(ValueError, match="desk|limited"):
        oracle_step(np.zeros(big.node_count), big, cfg)


@pytest.mark.parametrize("variant", list(Variant))
def test_oracle_agrees_with_sparse_steps(variant):
    rng = random.Random(4242 + list(Variant).index(variant))
    for _ in range(8):
        n = rng.randint(4, 40)
        g = erdos_renyi_connected(n, rng.uniform(2, 5), rng)
        eps = 0.0 if variant is Variant.LAZY_WALK else rng.uniform(0.03, 0.3)
        cfg = DiffusionConfig(
            alpha=rng.uniform(0.1, 0.9),
            epsilon=eps,
            variant=variant,
            delta=eps / 100 if eps else 1e-4,
        )
        state = init_state(g, rng.randrange(n))
        dense = dense_of(state, n)
        for _ in range(15):
            state = step(state, g, cfg)
            dense = oracle_step(dense, g, cfg)
            assert np.max(np.abs(dense_of(state, n) - dense)) <= 1e-12


def test_lazy_matrix_power_triangle():
    g = complete_graph(3)
    x = lazy_walk_matrix_power(g, 0, 1)
    assert np.allclose(x, [0.5, 0.25, 0.25], atol=1e-15)


def test_lazy_matrix_power_zero_steps():
    g = complete_graph(3)
    assert np.array_equal(lazy_walk_matrix_power(g, 1, 0), [0.0, 1.0, 0.0])


def test_lazy_matrix_power_approaches_uniform_on_regular_graph():
    g = from_edges([(i, (i + 1) % 6, 1.0) for i in range(6)])  # 6-cycle
    deviations = [
        np.max(np.abs(lazy_walk_matrix_power(g, 0, steps) - 1 / 6))
        for steps in (5, 20, 80)
    ]
    assert deviations[0] > deviations[1] > deviations[2]
    assert deviations[2] < 1e-3


def test_lazy_matrix_power_agrees_with_sparse_walk():
    rng = random.Random(77)
    g = erdos_renyi_connected(30, 3.0, rng)
    state = init_state(g, 4)
    for _ in range(50):
        state = step(state, g, DiffusionConfig(variant=Variant.LAZY_WALK))
    dense = lazy_walk_matrix_power(g, 4, 50)
    assert np.max(np.abs(dense_of(state, 30) - dense)) <= 1e-10


def test_ppr_single_node_with_self_loop():
    g = from_edges([(0, 0, 1.0)], directed=True)
    assert personalized_pagerank(g, 0, teleport=0.5) == pytest.approx({0: 1.0}, abs=1e-10)


def test_ppr_two_node_closed_form():
    g = from_edges([(0, 1, 1.0)])
    pi = personalized_pagerank(g, 0, teleport=0.5, tol=1e-14)
    assert pi[0] == pytest.approx(2 / 3, abs=1e-10)
    assert pi[1] == pytest.approx(1 / 3, abs=1e-10)


def test_ppr_is_a_distribution():
    rng = random.Random(123)
    g = erdos_renyi_connected(40, 3.0, rng)
    pi = personalized_pagerank(g, 7, teleport=0.2)
    assert sum(pi.values()) == pytest.approx(1.0, abs=1e-9)
    assert all(score >= 0 for score in pi.values())


def test_ppr_redirects_dangling_mass_to_seed():
    g = from_edges([(0, 1, 1.0)], directed=True)  # node 1 is a sink
    pi = personalized_pagerank(g, 0, teleport=0.3, tol=1e-13)
    assert sum(pi.values()) == pytest.approx(1.0, abs=1e-9)
    assert pi[0] > pi[1] > 0


def test_ppr_nonconvergence_raises():
    g = from_edges([(0, 1, 1.0)])
    with pytest.raises(RuntimeError, match="converge"):
        personalized_pagerank(g, 0, teleport=0.01, tol=1e-15, max_iterations=2)


def test_ppr_parameter_guards():
    g = from_edges([(0, 1, 1.0)])
    with pytest.raises(ValueError, match="teleport"):
        personalized_pagerank(g, 0, teleport=1.0)
    with pytest.raises(ValueError, match="seed"):
        personalized_pagerank(g, 5)


WEIGHTS = (0.5, 1.0, 2.25, 0.1, 3.0)


def random_arcs(n, rng, weighted):
    """Directed arcs in which about a fifth of the nodes are sinks."""
    sinks = {i for i in range(n) if rng.random() < 0.2}
    arcs = [
        (u, v, rng.choice(WEIGHTS) if weighted else 1.0)
        for u in range(n) if u not in sinks
        for v in rng.sample(range(n), rng.randint(1, 6))
    ]
    return from_edges(arcs, directed=True, node_count=n)


def reweighted(g, rng):
    edges = [(u, v, rng.choice(WEIGHTS)) for u in range(g.node_count) for v in g.targets[u] if u <= v]
    return from_edges(edges, node_count=g.node_count)


def dense_rank(scores):
    # Coded apart from rank_nodes: a sort on (-score, id).
    order = sorted(range(len(scores)), key=lambda i: (-scores[i], i))
    return [i for i in order if scores[i] > 0.0]


@pytest.mark.parametrize("teleport", [0.15, 0.2, 0.5])
def test_ppr_matches_the_dense_oracle(teleport):
    rng = random.Random(int(teleport * 1000))
    graphs = []
    for _ in range(3):
        er = erdos_renyi_connected(rng.randint(30, 300), rng.uniform(2, 6), rng)
        graphs += [
            er,
            reweighted(er, rng),
            preferential_attachment(rng.randint(30, 300), rng.randint(1, 3), rng),
            random_arcs(rng.randint(20, 200), rng, weighted=False),
            random_arcs(rng.randint(20, 200), rng, weighted=True),
        ]
    for g in graphs:
        for seed in rng.sample(range(g.node_count), 2):
            sparse = personalized_pagerank(g, seed, teleport=teleport)
            dense = oracles.personalized_pagerank(g, seed, teleport=teleport)
            assert list(sparse) == sorted(sparse)
            assert max(abs(sparse.get(i, 0.0) - dense[i]) for i in range(g.node_count)) <= 1e-12
            ranked, dense_ranked = rank_nodes(sparse), dense_rank(dense)
            assert len(ranked) == len(dense_ranked)
            # The dense matrix product sums in another order, so it can split
            # by an ulp two nodes that the sparse sums tie exactly (nodes 10 and
            # 28 of one PA graph here); the rankings may differ only there.
            for a, b in zip(ranked[:10], dense_ranked[:10]):
                assert a == b or (sparse[a] == sparse[b] and math.isclose(dense[a], dense[b], rel_tol=1e-15))


def test_rank_nodes_orders_and_drops_zeros():
    scores = {0: 0.2, 1: 0.5, 2: 0.0, 3: 0.5}
    assert rank_nodes(scores) == [1, 3, 0]


def test_overlap_at_k():
    assert overlap_at_k([1, 2, 3], [1, 2, 3], 3) == 1.0
    assert overlap_at_k([1, 2, 3], [4, 5, 6], 3) == 0.0
    assert overlap_at_k([1, 2, 3], [3, 4, 5], 3) == pytest.approx(1 / 3)
    with pytest.raises(ValueError, match="k"):
        overlap_at_k([1], [1], 0)
