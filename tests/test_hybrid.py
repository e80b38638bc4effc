"""Tests for the hybrid racers (Sections 7.2, 8.2, 9.3)."""

import math

import pytest

from repro.graphs import (
    WeightedGraph,
    lower_bound_graph,
    mst_weight,
    network_params,
    dijkstra,
    random_connected_graph,
    tree_distances,
)
from repro.graphs import csr
from repro.protocols.hybrid import (
    race,
    run_con_hybrid,
    run_mst_hybrid,
    run_spt_hybrid,
)


# --------------------------------------------------------------------- #
# The race combinator itself
# --------------------------------------------------------------------- #


def test_race_picks_cheaper_algorithm():
    # Algorithm A completes at cost 100, B at cost 10.
    def make(c_total):
        def attempt(budget):
            spent = min(budget, c_total)
            return spent, spent, ("done" if budget >= c_total else None)

        return attempt

    outcome = race({"A": make(100.0), "B": make(10.0)}, initial_budget=1.0)
    assert outcome.winner == "B"
    assert outcome.output == "done"
    # Dovetailing overhead: total <= ~4x each side's final budget.
    assert outcome.total_comm_cost <= 8 * 10.0 + 8 * 10.0


def test_race_rejects_bad_budget():
    with pytest.raises(ValueError):
        race({"A": lambda b: (0, 0, None)}, initial_budget=0.0)


def test_race_round_limit():
    with pytest.raises(RuntimeError):
        race({"A": lambda b: (1.0, 1.0, None)}, initial_budget=1.0,
             max_rounds=3)


# --------------------------------------------------------------------- #
# CON_hybrid (Section 7.2): O(min{E, nV}) with the G_n lower-bound family
# --------------------------------------------------------------------- #


def test_con_hybrid_builds_spanning_tree():
    g = random_connected_graph(20, 30, seed=1)
    outcome = run_con_hybrid(g, 0)
    tree = outcome.output
    assert tree.is_tree()
    assert tree.num_vertices == g.num_vertices


def test_con_hybrid_on_lower_bound_family_picks_centr():
    """On G_n, script-E ~ n^4 (bypass edges) dwarfs n*V ~ n^2, so the
    hybrid must finish via MST_centr at cost O(nV) << E."""
    n = 16
    g = lower_bound_graph(n)
    p = network_params(g)
    outcome = run_con_hybrid(g, 1)
    assert outcome.winner == "MST_centr"
    assert outcome.total_comm_cost <= 16 * p.n * p.V
    assert outcome.total_comm_cost < p.E  # far below the flooding/DFS cost


def test_con_hybrid_dense_cheap_graph_picks_dfs():
    """When E << nV (sparse, uniform weights), DFS wins."""
    g = random_connected_graph(30, 10, seed=2, max_weight=1)
    p = network_params(g)
    assert p.E < p.n * p.V / 4
    outcome = run_con_hybrid(g, 0)
    assert outcome.winner == "DFS"


# --------------------------------------------------------------------- #
# MST_hybrid (Section 8.2)
# --------------------------------------------------------------------- #


def test_mst_hybrid_computes_mst():
    g = random_connected_graph(18, 30, seed=3)
    outcome = run_mst_hybrid(g, 0)
    assert outcome.output.total_weight() == pytest.approx(mst_weight(g))


def test_mst_hybrid_bound_on_lower_bound_family():
    n = 14
    g = lower_bound_graph(n)
    p = network_params(g)
    outcome = run_mst_hybrid(g, 1)
    assert outcome.output.total_weight() == pytest.approx(p.V)
    bound = min(p.E + p.V * math.log2(p.n), p.n * p.V)
    assert outcome.total_comm_cost <= 16 * bound


def test_mst_hybrid_ghs_wins_when_light():
    g = random_connected_graph(30, 120, seed=4, max_weight=3)
    outcome = run_mst_hybrid(g, 0)
    assert outcome.winner == "MST_ghs"


def test_race_computes_the_prim_order_once(monkeypatch):
    # Every MST_centr attempt of a race grows the same Prim order; the
    # race computes it on its first MST_centr attempt and reuses it.
    calls = []
    real = csr.csr_prim_mst

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(csr, "csr_prim_mst", spy)
    g = random_connected_graph(256, 256, seed=1)
    for run, attempts in ((run_mst_hybrid, 7), (run_con_hybrid, 6)):
        calls.clear()
        outcome = run(g, 0, seed=1)
        centr = [h for h in outcome.history if h[0] == "MST_centr"]
        assert len(centr) == attempts
        assert len(calls) == 1


def test_disconnected_graph_outcomes():
    # DFS wins CON_hybrid's first round, before MST_centr asks Prim for an
    # order that does not exist; MST_hybrid's first MST_centr attempt does.
    g = WeightedGraph()
    g.add_edge(0, 1, 1)
    g.add_edge(1, 2, 1)
    g.add_edge(3, 4, 1)
    outcome = run_con_hybrid(g, 0)
    assert (outcome.winner, outcome.rounds) == ("DFS", 1)
    assert sorted(outcome.output.edges()) == [(0, 1, 1), (1, 2, 1)]
    with pytest.raises(ValueError, match="not connected"):
        run_mst_hybrid(g, 0)


# --------------------------------------------------------------------- #
# SPT_hybrid (Section 9.3)
# --------------------------------------------------------------------- #


def test_spt_hybrid_computes_spt():
    g = random_connected_graph(14, 20, seed=5, max_weight=6)
    outcome = run_spt_hybrid(g, 0)
    tree = outcome.output
    dist, _ = dijkstra(g, 0)
    assert tree_distances(tree, 0) == pytest.approx(dist)


def test_spt_hybrid_total_cost_near_min():
    from repro.protocols.spt_recur import run_spt_recur
    from repro.protocols.spt_synch import run_spt_synch

    g = random_connected_graph(12, 18, seed=6, max_weight=5)
    r1, _ = run_spt_synch(g, 0)
    r2, _ = run_spt_recur(g, 0)
    best = min(r1.comm_cost, r2.comm_cost)
    outcome = run_spt_hybrid(g, 0)
    assert outcome.total_comm_cost <= 8 * best
