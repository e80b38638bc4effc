"""Hybrid algorithms (Sections 7.2, 8.2, 9.3): racing two algorithms.

The paper's hybrids run two algorithms "in parallel", with a shared root
suspending whichever is currently more expensive (using the doubling root
estimates of Section 6.2); the combined cost is within a factor of four of
the cheaper algorithm.

We realize the race by *dovetailing with doubling budgets*: the root runs
the candidates in alternation, each attempt capped at a communication
budget that doubles every round, until one completes within its budget.
This is exactly the suspend/resume schedule the root estimates induce —
an algorithm is "suspended" while the other one consumes its (currently
smaller) budget.  Each candidate is one :class:`~repro.sim.network.Network`
per race: an attempt that runs out of budget stops with the refused send
held, and the candidate's next attempt resumes that network under its
doubled budget instead of re-simulating from time zero.  The accounting
is still the restart schedule's: an attempt is charged what a fresh run
at its budget spends (the resumed network ends with exactly that run's
metrics), and attempts' times add up back to back.  Since attempt costs
form geometric series, the total communication is at most a constant
times ``min(c_A, c_B)`` (with both algorithms' budgets summing to
``< 4 * budget_final <= 8 * min``), preserving the paper's
``O(min{...})`` bounds:

* ``CON_hybrid``  =  race(DFS, MST_centr)            -> O(min{E, n V})
* ``MST_hybrid``  =  race(MST_ghs, MST_centr)        -> O(min{E + V log n, n V})
* ``SPT_hybrid``  =  race(SPT_synch, SPT_recur)      -> O(min of Fig. 4 rows)

The budget is enforced by the root's exact knowledge of the communication
spent — the property Section 7.2 engineers via root estimates and Section
8.2 via making the protocol "controlled"; we enforce it at the simulation
boundary and measure the estimate/controller overheads in their own
benchmarks (see DESIGN.md).
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network
from .dfs import _dfs_network, _dfs_outcome
from .full_info import _growth_network, _growth_outcome, prim_order
from .mst_ghs import _ghs_network, _ghs_outcome
from .spt_recur import _spt_recur_network, _spt_recur_outcome
from .spt_synch import _spt_synch_network, _spt_synch_outcome

__all__ = ["RaceOutcome", "con_candidates", "race", "run_con_hybrid",
           "run_mst_hybrid", "run_spt_hybrid"]

# An attempt takes a budget and returns (comm_cost_spent, time_spent,
# output_or_None).  Output None means the budget was exhausted.
Attempt = Callable[[float], tuple[float, float, Any]]


@dataclass
class RaceOutcome:
    """Result of a dovetailed race."""

    winner: str
    output: Any
    total_comm_cost: float      # across every attempt, including aborted ones
    total_time: float           # attempts run back-to-back
    rounds: int
    history: list = field(default_factory=list)  # (name, budget, cost, done)

    def __str__(self) -> str:
        return (
            f"race won by {self.winner} after {self.rounds} rounds, "
            f"total cost {self.total_comm_cost:g}"
        )


def race(
    attempts: dict[str, Attempt],
    initial_budget: float,
    max_rounds: int = 200,
) -> RaceOutcome:
    """Dovetail the attempts with per-algorithm doubling budgets.

    Round-robin order follows the dict's insertion order; each algorithm's
    budget doubles after each of its failed attempts.
    """
    if initial_budget <= 0:
        raise ValueError("initial budget must be positive")
    budgets = {name: initial_budget for name in attempts}
    total_cost = 0.0
    total_time = 0.0
    history = []
    for round_no in range(1, max_rounds + 1):
        for name, attempt in attempts.items():
            cost, time, output = attempt(budgets[name])
            total_cost += cost
            total_time += time
            history.append((name, budgets[name], cost, output is not None))
            if output is not None:
                return RaceOutcome(
                    winner=name,
                    output=output,
                    total_comm_cost=total_cost,
                    total_time=total_time,
                    rounds=round_no,
                    history=history,
                )
            budgets[name] *= 2.0
    raise RuntimeError(f"race did not finish within {max_rounds} rounds")


# --------------------------------------------------------------------- #
# Concrete hybrids
# --------------------------------------------------------------------- #


def _initial_budget(graph: WeightedGraph) -> float:
    # Any positive start works: failed rounds cost at most their budget, so
    # starting small only adds log(final/initial) cheap rounds.  Starting at
    # ~n keeps the first rounds from being entirely vacuous.
    return float(max(8, graph.num_vertices))


def _resumable(build: Callable[[float], Network],
               outcome: Callable[[Network], tuple[Any, Any]]) -> Attempt:
    """One candidate's attempts over a single network.

    ``build(budget)`` makes the candidate's network on its first attempt;
    every later attempt raises the network's ``comm_budget`` and resumes
    it.  ``outcome(net)`` runs the network and reads ``(result, output)``,
    as the candidate's public runner does.
    """
    net: Network | None = None

    def attempt(budget: float):
        nonlocal net
        if net is None:
            net = build(budget)
        else:
            net.comm_budget = budget
        result, output = outcome(net)
        return result.comm_cost, result.time, output

    return attempt


def _centr_attempt(graph: WeightedGraph, root: Vertex,
                   delay: DelayModel | None, seed: int) -> Attempt:
    """MST_centr's attempts (what ``run_mst_centr`` runs).

    The Prim order is computed when the first attempt builds the network,
    not before: a race won before MST_centr ever runs must not fail on a
    graph Prim rejects (a disconnected one).
    """
    return _resumable(
        lambda budget: _growth_network(
            graph, root, prim_order(graph, root), "MST_centr",
            delay=delay, seed=seed, budget=budget),
        _growth_outcome,
    )


def con_candidates(
    graph: WeightedGraph,
    root: Vertex,
    *,
    delay: DelayModel | None = None,
    seed: int = 0,
) -> dict[str, Attempt]:
    """CON_hybrid's candidates, DFS and MST_centr, as :func:`race` attempts.

    Each attempt resumes its candidate's network, so a dict serves one race.
    """
    return {
        "DFS": _resumable(
            lambda budget: _dfs_network(graph, root, delay=delay, seed=seed,
                                        budget=budget),
            lambda net: _dfs_outcome(net, root)),
        "MST_centr": _centr_attempt(graph, root, delay, seed),
    }


def run_con_hybrid(
    graph: WeightedGraph,
    root: Vertex,
    *,
    delay: DelayModel | None = None,
    seed: int = 0,
) -> RaceOutcome:
    """CON_hybrid (Section 7.2): DFS raced against MST_centr.

    Both construct a spanning tree (solving connectivity); communication
    ``O(min{script-E, n * script-V})``, matching the lower bound of
    Section 7.1.
    """
    return race(con_candidates(graph, root, delay=delay, seed=seed),
                _initial_budget(graph))


def run_mst_hybrid(
    graph: WeightedGraph,
    root: Vertex,
    *,
    delay: DelayModel | None = None,
    seed: int = 0,
) -> RaceOutcome:
    """MST_hybrid (Section 8.2): MST_ghs raced against MST_centr.

    Communication ``O(min{script-E + script-V log n, n * script-V})``.
    """
    ghs = _resumable(
        lambda budget: _ghs_network(graph, False, delay, seed, budget),
        _ghs_outcome)
    return race(
        {"MST_ghs": ghs,
         "MST_centr": _centr_attempt(graph, root, delay, seed)},
        _initial_budget(graph),
    )


def run_spt_hybrid(
    graph: WeightedGraph,
    source: Vertex,
    *,
    k: int = 2,
    delay: DelayModel | None = None,
    seed: int = 0,
) -> RaceOutcome:
    """SPT_hybrid (Section 9.3): SPT_synch raced against SPT_recur."""
    synch = _resumable(
        lambda budget: _spt_synch_network(graph, source, k=k, delay=delay,
                                          seed=seed, budget=budget),
        lambda net: _spt_synch_outcome(net, graph))
    recur = _resumable(
        lambda budget: _spt_recur_network(graph, source, delay=delay,
                                          seed=seed, budget=budget),
        lambda net: _spt_recur_outcome(net, graph, source))
    return race({"SPT_synch": synch, "SPT_recur": recur},
                _initial_budget(graph))
