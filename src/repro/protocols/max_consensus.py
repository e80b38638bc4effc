"""Synchronous max-consensus: a second client for the synchronizers.

A minimal synchronous algorithm (every node repeatedly forwards the
largest value it has seen; after ``script-D`` pulses every node holds the
global maximum) used to demonstrate that the Section 4 synchronizers are
*generic* protocol transformers, not Bellman-Ford-specific: the same
unmodified protocol runs under the synchronous reference runner and under
alpha_w / beta_w / gamma_w with identical outputs.

It is also the synchronous face of global MAX computation (Section
1.4.1): on the weighted synchronous network a value propagates along
shortest paths, so convergence takes exactly ``script-D`` pulses — another
view of the Omega(D) time bound of Theorem 2.1.
"""

from __future__ import annotations

from typing import Any

from ..graphs.paths import diameter
from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.sync_runner import SynchronousProtocol, SynchronousRunner
from ..synch.gamma_w import pulse_bounds, run_gamma_w
from ..synch.host_base import SyncResult

__all__ = ["SyncMaxConsensus", "run_max_consensus_reference",
           "run_max_consensus_gamma_w"]


class SyncMaxConsensus(SynchronousProtocol):
    """One node of synchronous max-consensus.

    ``stop_pulse`` must be at least the weighted diameter; the node
    finishes there holding the global maximum.
    """

    def __init__(self, value, stop_pulse: int) -> None:
        self.value = value
        self.stop_pulse = stop_pulse

    def on_pulse(self, pulse: int, inbox: list[tuple[Vertex, Any]]) -> None:
        improved = pulse == 0
        for _frm, v in inbox:
            if v > self.value:
                self.value = v
                improved = True
        if improved:
            for nbr in self.neighbors():
                self.send(nbr, self.value)
        if pulse >= self.stop_pulse and not self.finished:
            self.finish(self.value)


def run_max_consensus_reference(
    graph: WeightedGraph,
    values: dict[Vertex, Any],
    stop_pulse: int | None = None,
):
    """Reference synchronous run; returns the SyncRunResult."""
    if stop_pulse is None:
        stop_pulse = int(diameter(graph)) + 1
    w_max = int(max(w for _, _, w in graph.edges()))
    runner = SynchronousRunner(
        graph, lambda v: SyncMaxConsensus(values[v], stop_pulse)
    )
    return runner.run(max_pulses=stop_pulse + w_max + 2)


def run_max_consensus_gamma_w(
    graph: WeightedGraph,
    values: dict[Vertex, Any],
    *,
    k: int = 2,
    stop_pulse: int | None = None,
    delay: DelayModel | None = None,
    seed: int = 0,
) -> SyncResult:
    """Max-consensus on the asynchronous network via synchronizer gamma_w."""
    stop_pulse, max_pulse = pulse_bounds(graph, stop_pulse)
    return run_gamma_w(
        graph,
        lambda v: SyncMaxConsensus(values[v], stop_pulse),
        k=k,
        max_pulse=max_pulse,
        delay=delay,
        seed=seed,
    )
