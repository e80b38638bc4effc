"""Algorithm SPT_synch (Section 9.1): synchronous Bellman-Ford + gamma_w.

On a weighted *synchronous* network (delay on e exactly w(e)), the natural
distributed Bellman-Ford computes a shortest-path tree in ``script-D``
pulses with ``O(script-E)`` communication: a node that improves its
distance estimate relays it, and since a message on ``e`` takes exactly
``w(e)`` time, estimates propagate along shortest paths and every node
locks in ``dist(s, v)`` at pulse ``dist(s, v)`` — each edge carries O(1)
payload messages overall.

Running it through synchronizer gamma_w yields the paper's fastest SPT
algorithm: communication ``O(E + D * k n log n)`` and time
``O(D * log_k n * log n)`` (Corollary 9.1).
"""

from __future__ import annotations

from typing import Any

from ..graphs.paths import diameter
from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network
from ..sim.sync_runner import SynchronousProtocol, SynchronousRunner
from ..synch.gamma_w import gamma_w_network, pulse_bounds
from ..synch.host_base import SyncResult, sync_outcome

__all__ = ["SyncBellmanFord", "run_spt_synch", "run_spt_synchronous_reference"]


class SyncBellmanFord(SynchronousProtocol):
    """One node of synchronous weighted Bellman-Ford.

    ``stop_pulse`` must exceed the weighted graph distance from the source
    to this node (e.g. any upper bound on ``script-D``); the node finishes
    at that pulse with result ``(distance, parent)``.
    """

    def __init__(self, is_source: bool, stop_pulse: int) -> None:
        self.is_source = is_source
        self.stop_pulse = stop_pulse
        self.dist = 0.0 if is_source else float("inf")
        self.parent: Vertex | None = None

    def on_pulse(self, pulse: int, inbox: list[tuple[Vertex, Any]]) -> None:
        improved = pulse == 0 and self.is_source
        for frm, d in inbox:
            if d < self.dist:
                self.dist = d
                self.parent = frm
                improved = True
        if improved:
            for v in self.neighbors():
                self.send(v, self.dist + self.edge_weight(v))
        if pulse >= self.stop_pulse and not self.finished:
            self.finish((self.dist, self.parent))


def _tree_from_results(graph: WeightedGraph, results: dict) -> WeightedGraph:
    tree = WeightedGraph(vertices=graph.vertices)
    for v, (dist, parent) in results.items():
        if parent is not None:
            tree.add_edge(parent, v, graph.weight(parent, v))
    return tree


def run_spt_synchronous_reference(
    graph: WeightedGraph, source: Vertex, stop_pulse: int | None = None
):
    """Bellman-Ford on the weighted synchronous network (the c_pi baseline).

    Returns (SyncRunResult, tree).
    """
    if stop_pulse is None:
        stop_pulse = int(diameter(graph)) + 1
    runner = SynchronousRunner(
        graph, lambda v: SyncBellmanFord(v == source, stop_pulse)
    )
    # In-flight messages may take up to W extra pulses to drain after the
    # protocols finish.
    w_max = int(max(w for _, _, w in graph.edges()))
    result = runner.run(max_pulses=stop_pulse + w_max + 2)
    return result, _tree_from_results(graph, result.results())


def run_spt_synch(
    graph: WeightedGraph,
    source: Vertex,
    *,
    k: int = 2,
    stop_pulse: int | None = None,
    delay: DelayModel | None = None,
    seed: int = 0,
    budget: float | None = None,
) -> tuple[SyncResult, WeightedGraph | None]:
    """Algorithm SPT_synch: Bellman-Ford under gamma_w on the async network.

    Returns (gamma_w result with overhead accounting, the SPT).  Note the
    hosted protocol observes *original* weights, so the tree equals the
    reference synchronous run's tree exactly.
    """
    net = _spt_synch_network(graph, source, k=k, stop_pulse=stop_pulse,
                             delay=delay, seed=seed, budget=budget)
    return _spt_synch_outcome(net, graph)


def _spt_synch_network(
    graph: WeightedGraph,
    source: Vertex,
    *,
    k: int = 2,
    stop_pulse: int | None = None,
    delay: DelayModel | None = None,
    seed: int = 0,
    budget: float | None = None,
) -> Network:
    """:func:`run_spt_synch`'s gamma_w network, not yet run."""
    stop_pulse, max_pulse = pulse_bounds(graph, stop_pulse)
    return gamma_w_network(
        graph,
        lambda v: SyncBellmanFord(v == source, stop_pulse),
        k=k,
        max_pulse=max_pulse,
        delay=delay,
        seed=seed,
        budget=budget,
    )


def _spt_synch_outcome(
    net: Network, graph: WeightedGraph
) -> tuple[SyncResult, WeightedGraph | None]:
    """Run (or resume) an SPT_synch network; returns (its SyncResult, the
    SPT or None on budget)."""
    result = sync_outcome(net, "sync-gamma")
    if not result.completed:
        return result, None
    return result, _tree_from_results(graph, result.results())
