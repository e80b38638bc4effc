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
from repro.obs import tracing
from repro.protocols import (
    run_dfs,
    run_mst_centr,
    run_mst_ghs,
    run_spt_recur,
    run_spt_synch,
)
from repro.protocols.hybrid import (
    _initial_budget,
    race,
    run_con_hybrid,
    run_mst_hybrid,
    run_spt_hybrid,
)
from repro.sim import Network, UniformDelay


@pytest.fixture
def networks(monkeypatch):
    """Every Network built while the test runs, in construction order."""
    built = []
    real_init = Network.__init__

    def init(self, *args, **kwargs):
        real_init(self, *args, **kwargs)
        built.append(self)

    monkeypatch.setattr(Network, "__init__", init)
    return built


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


def test_race_builds_one_network_per_candidate(monkeypatch, networks):
    # A race resumes each candidate's network under its doubled budgets,
    # so all its attempts run on two networks and grow one Prim order.
    calls = []
    real = csr.csr_prim_mst

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(csr, "csr_prim_mst", spy)
    g = random_connected_graph(256, 256, seed=1)
    for run, attempts, centr_attempts in ((run_mst_hybrid, 15, 7),
                                          (run_con_hybrid, 13, 6)):
        calls.clear()
        networks.clear()
        outcome = run(g, 0, seed=1)
        centr = [h for h in outcome.history if h[0] == "MST_centr"]
        assert (len(outcome.history), len(centr)) == (attempts,
                                                      centr_attempts)
        assert len(networks) == 2
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
    g = random_connected_graph(12, 18, seed=6, max_weight=5)
    r1, _ = run_spt_synch(g, 0)
    r2, _ = run_spt_recur(g, 0)
    best = min(r1.comm_cost, r2.comm_cost)
    outcome = run_spt_hybrid(g, 0)
    assert outcome.total_comm_cost <= 8 * best


# --------------------------------------------------------------------- #
# Resumed races == the restart schedule
# --------------------------------------------------------------------- #


def _restart(runner, *args, **kwargs):
    """The restart oracle's attempts: a fresh public-runner run per budget."""

    def attempt(budget):
        result, output = runner(*args, budget=budget, **kwargs)
        return result.comm_cost, result.time, output

    return attempt


def _fractional_graph():
    g = WeightedGraph()
    base = random_connected_graph(16, 20, seed=9)
    for i, (u, v, w) in enumerate(base.edges()):
        g.add_edge(u, v, w * (0.1, 1 / 3, 0.7, 1.3)[i % 4])
    return g


RACE_GRAPHS = {
    "light": lambda: random_connected_graph(30, 10, seed=2, max_weight=1),
    "dense": lambda: random_connected_graph(30, 120, seed=4, max_weight=3),
    "small": lambda: random_connected_graph(12, 18, seed=6, max_weight=5),
    "G_8": lambda: lower_bound_graph(8),
    "G_4": lambda: lower_bound_graph(4),
    "fractional": _fractional_graph,
}

# name -> (hybrid runner, restart oracle, graphs it races on).  SPT_recur
# needs integer weights, and SPT_hybrid on G_8 takes seconds.
RACES = {
    "CON_hybrid": (
        run_con_hybrid,
        lambda g, r, **kw: {"DFS": _restart(run_dfs, g, r, **kw),
                            "MST_centr": _restart(run_mst_centr, g, r, **kw)},
        sorted(RACE_GRAPHS),
    ),
    "MST_hybrid": (
        run_mst_hybrid,
        lambda g, r, **kw: {"MST_ghs": _restart(run_mst_ghs, g, **kw),
                            "MST_centr": _restart(run_mst_centr, g, r, **kw)},
        sorted(RACE_GRAPHS),
    ),
    "SPT_hybrid": (
        run_spt_hybrid,
        lambda g, r, **kw: {"SPT_synch": _restart(run_spt_synch, g, r, **kw),
                            "SPT_recur": _restart(run_spt_recur, g, r, **kw)},
        ["G_4", "dense", "light", "small"],
    ),
}


def _outcome_fields(outcome):
    return (outcome.winner, list(outcome.output.edges()),
            outcome.total_comm_cost, outcome.total_time, outcome.rounds,
            outcome.history)


@pytest.mark.parametrize("name", sorted(RACES))
def test_a_resumed_race_equals_the_restart_schedule(name):
    run, oracle, graphs = RACES[name]
    winners = set()
    for graph_name in graphs:
        g = RACE_GRAPHS[graph_name]()
        root = g.vertices[0]
        for delay in (None, UniformDelay()):
            outcome = run(g, root, delay=delay, seed=5)
            restarted = race(oracle(g, root, delay=delay, seed=5),
                             _initial_budget(g))
            assert _outcome_fields(outcome) == _outcome_fields(restarted), (
                graph_name, delay)
            winners.add(outcome.winner)
    assert winners == set(oracle(g, root))


def test_a_traced_race_records_each_candidates_transmissions(networks):
    g = random_connected_graph(30, 120, seed=4, max_weight=3)
    untraced = run_mst_hybrid(g, 0)
    networks.clear()
    with tracing(limit=0) as session:
        outcome = run_mst_hybrid(g, 0)
    assert _outcome_fields(outcome) == _outcome_fields(untraced)
    assert len(networks) == len(session.recorders) == 2
    for net, (_label, rec) in zip(networks, session.recorders, strict=True):
        # A held send is recorded only once a resumed run sends it: every
        # recorded send was delivered or is still in flight.
        assert rec.counts["send"] == rec.counts["deliver"] + len(net.queue)
        assert rec.meta["events_fired"] == net.queue.fired
        # The stopped candidate is also charged for the held sends that
        # its budget admitted; the winner sent all it was charged for.
        if net.budget_exhausted:
            assert rec.counts["send"] <= net.metrics.message_count
        else:
            assert rec.counts["send"] == net.metrics.message_count
    assert sorted(net.budget_exhausted for net in networks) == [False, True]
