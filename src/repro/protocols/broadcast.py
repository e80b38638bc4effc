"""Flooding broadcast — algorithm ``CON_flood`` (paper Section 6.1).

Each vertex forwards the first copy of the broadcast message to all its
neighbors and ignores later copies.  Fact 6.1: communication ``O(script-E)``
(at most two messages per edge, each costing w(e)) and time ``O(script-D)``
(the message follows shortest paths under any delay assignment bounded by
the weights).

As a by-product every node learns a parent (the neighbor the first copy
came from), so flooding also constructs a spanning tree and solves the
connectivity / spanning-tree problem of Section 7 in ``O(script-E)``.
"""

from __future__ import annotations

from typing import Any

from ..faults.plan import FaultPlan
from ..faults.transport import reliable_factory
from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network, RunResult
from ..sim.process import Process

__all__ = ["FloodProcess", "run_flood"]


class FloodProcess(Process):
    """One node of CON_flood.

    The initiator starts the flood with ``payload``; every node finishes
    with ``(payload, parent)`` where parent is None at the initiator.
    """

    def __init__(self, is_initiator: bool, payload: Any = None) -> None:
        self.is_initiator = is_initiator
        self.payload = payload
        self.parent: Vertex | None = None
        self._got_it = False

    def on_start(self) -> None:
        if self.is_initiator:
            self._got_it = True
            self.finish((self.payload, None))
            for v in self.neighbors():
                self.send(v, self.payload, tag="flood")

    def on_message(self, frm: Vertex, payload: Any) -> None:
        if self._got_it:
            return
        self._got_it = True
        self.parent = frm
        self.payload = payload
        self.finish((payload, frm))
        for v in self.neighbors():
            if v != frm:
                self.send(v, payload, tag="flood")


def run_flood(
    graph: WeightedGraph,
    initiator: Vertex,
    payload: Any = "wake-up",
    *,
    delay: DelayModel | None = None,
    seed: int = 0,
    faults: FaultPlan | None = None,
    reliable: bool = False,
) -> tuple[RunResult, WeightedGraph]:
    """Flood ``payload`` from ``initiator``; return (run result, flood tree).

    The flood tree is the spanning tree formed by each node's parent
    pointer (rooted at the initiator).  Under a ``faults`` adversary,
    ``reliable=True`` wraps every node in the retransmitting transport.
    """
    factory = lambda v: FloodProcess(v == initiator, payload)
    if reliable:
        factory = reliable_factory(factory)
    net = Network(graph, factory, delay=delay, seed=seed, faults=faults)
    result = net.run()
    tree = WeightedGraph(vertices=graph.vertices)
    for v, proc in result.processes.items():
        parent = proc.parent
        if parent is not None:
            tree.add_edge(parent, v, graph.weight(parent, v))
    return result, tree
