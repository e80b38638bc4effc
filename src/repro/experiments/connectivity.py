"""Experiment F2 — Figure 2: connectivity / spanning tree algorithms.

Includes the hybrid-initial-budget ablation (the race's total cost must be
insensitive to where the doubling starts).
"""

from __future__ import annotations

from ..graphs import lower_bound_graph, network_params, random_connected_graph
from ..protocols import run_con_hybrid, run_dfs, run_flood
from ..protocols.hybrid import con_candidates, race
from .base import Table, experiment

__all__ = ["run", "connectivity_suite"]


def connectivity_suite(graph, root):
    """Run CON_flood, DFS and CON_hybrid on one graph; returns costs."""
    p = network_params(graph)
    flood_res, flood_tree = run_flood(graph, root)
    dfs_res, dfs_tree = run_dfs(graph, root)
    hyb = run_con_hybrid(graph, root)
    assert flood_tree.is_tree() and dfs_tree.is_tree()
    assert hyb.output.is_tree()
    costs = {
        "CON_flood": (flood_res.comm_cost, flood_res.finish_time),
        "DFS": (dfs_res.comm_cost, dfs_res.time),
        "CON_hybrid": (hyb.total_comm_cost, hyb.total_time),
    }
    return p, costs, hyb.winner


def _suite_table(label, p, costs):
    min_bound = min(p.E, p.n * p.V)
    rows = [[name, c, t, c / min_bound] for name, (c, t) in costs.items()]
    rows.append(["Omega(min{E,nV})", min_bound, p.D, 1.0])
    return Table(
        title=f"Figure 2: connectivity on {label}  [{p}]",
        header=["algorithm", "comm", "time", "comm/min(E,nV)"],
        rows=rows,
    )


def _budget_ablation():
    g = random_connected_graph(25, 40, seed=14, max_weight=4)
    rows = []
    for b0 in (1.0, 8.0, 64.0, 512.0):
        outcome = race(con_candidates(g, 0), b0)
        rows.append([b0, outcome.rounds, outcome.winner,
                     outcome.total_comm_cost])
    return Table(
        title="Ablation: hybrid race initial budget",
        header=["initial budget", "rounds", "winner", "total cost"],
        rows=rows,
        notes="doubling makes the race's cost insensitive to the start",
    )


@experiment("fig2", "Figure 2: connectivity Theta(min{E, nV})")
def run() -> list[Table]:
    light = random_connected_graph(40, 80, seed=2, max_weight=4)
    heavy = lower_bound_graph(20)
    p1, costs1, winner1 = connectivity_suite(light, 0)
    p2, costs2, winner2 = connectivity_suite(heavy, 1)
    t1 = _suite_table("light random graph (E << nV)", p1, costs1)
    t1.notes = f"hybrid race won by {winner1}"
    t2 = _suite_table("lower-bound family G_20 (E >> nV)", p2, costs2)
    t2.notes = f"hybrid race won by {winner2}"
    return [t1, t2, _budget_ablation()]
