"""Weighted *synchronous* network semantics (paper Sections 1.4.3, 4).

In the weighted synchronous network ``G(V, E, w)`` every link ``e`` has a
delay of *exactly* ``w(e)``: a message sent at pulse ``p`` over ``e``
arrives at pulse ``p + w(e)``.  Synchronous algorithms written against
:class:`SynchronousProtocol` can be executed two ways:

* directly, with :class:`SynchronousRunner` (this module) — the reference
  semantics, used for correctness oracles and to measure the synchronous
  complexities ``c_pi`` and ``t_pi``; or
* on an *asynchronous* network via synchronizer ``gamma_w``
  (:mod:`repro.synch.gamma_w`), which is the paper's contribution; the two
  executions must produce identical outputs (tested).

Weights must be positive integers for synchronous semantics to be well
defined.  A protocol is *in synch* with the network (Definition 4.2) if it
transmits on edge ``e`` only at pulses divisible by ``w(e)``; the runner
can enforce this, and the normalization transform of Section 4.3
(:mod:`repro.synch.normalize`) produces in-synch protocols automatically.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from ..graphs.weighted_graph import Vertex, WeightedGraph

__all__ = ["SynchronousProtocol", "SyncContext", "SynchronousRunner", "SyncRunResult"]


class SyncContext:
    """Per-node API handed to a synchronous protocol.

    ``send`` is only legal inside ``on_pulse``; the hosting runner (or
    the in-synch wrapper) collects the outgoing messages of the current
    pulse.  ``weights`` maps each neighbour to its edge weight.
    """

    def __init__(self, node_id: Vertex, neighbors: list[Vertex],
                 weights: dict[Vertex, float]) -> None:
        self.node_id = node_id
        self.neighbors = neighbors
        self.weights = weights
        self.outbox: list[tuple[Vertex, Any]] = []
        self.finished = False
        self.result: Any = None

    def send(self, to: Vertex, payload: Any) -> None:
        if to not in self.weights:
            raise ValueError(f"{self.node_id!r} has no edge to {to!r}")
        self.outbox.append((to, payload))

    def finish(self, result: Any = None) -> None:
        if not self.finished:
            self.finished = True
            self.result = result

    def drain(self) -> list[tuple[Vertex, Any]]:
        out, self.outbox = self.outbox, []
        return out


class SynchronousProtocol:
    """One node of a synchronous algorithm.

    Subclasses override :meth:`on_pulse`; ``self.sync`` (a
    :class:`SyncContext`) is injected before pulse 0.
    """

    sync: SyncContext

    def on_pulse(self, pulse: int, inbox: list[tuple[Vertex, Any]]) -> None:
        """Execute pulse ``pulse``; ``inbox`` holds the messages arriving now."""

    # Convenience pass-throughs -------------------------------------------------

    @property
    def node_id(self) -> Vertex:
        return self.sync.node_id

    def neighbors(self) -> list[Vertex]:
        return self.sync.neighbors

    def edge_weight(self, v: Vertex) -> float:
        return self.sync.weights[v]

    def send(self, to: Vertex, payload: Any) -> None:
        self.sync.send(to, payload)

    def finish(self, result: Any = None) -> None:
        self.sync.finish(result)

    @property
    def finished(self) -> bool:
        return self.sync.finished


class SyncRunResult:
    """Outcome of a synchronous run."""

    def __init__(self, pulses: int, comm_cost: float, message_count: int,
                 protocols: dict) -> None:
        self.pulses = pulses          # t_pi: last pulse at which anything happened
        self.comm_cost = comm_cost    # c_pi: sum of w(e) over transmissions
        self.message_count = message_count
        self.protocols = protocols

    def result_of(self, node: Vertex) -> Any:
        return self.protocols[node].sync.result

    def results(self) -> dict:
        return {v: p.sync.result for v, p in self.protocols.items()}


class SynchronousRunner:
    """Executes a synchronous protocol with exact ``w(e)`` link delays."""

    def __init__(
        self,
        graph: WeightedGraph,
        factory,
        *,
        require_in_synch: bool = False,
    ) -> None:
        for u, v, w in graph.edges():
            if w != int(w) or w < 1:
                raise ValueError(
                    f"synchronous semantics need positive integer weights; "
                    f"edge ({u!r}, {v!r}) has w={w!r}"
                )
        self.graph = graph
        self.require_in_synch = require_in_synch
        self.protocols: dict[Vertex, SynchronousProtocol] = {}
        for v in graph.vertices:
            proto = factory(v)
            proto.sync = SyncContext(v, graph.neighbors(v),
                                     graph.neighbor_weights(v))
            self.protocols[v] = proto
        # inflight[pulse][node] -> list of (frm, payload) arriving at that pulse
        self._inflight: dict[int, dict[Vertex, list]] = defaultdict(
            lambda: defaultdict(list)
        )
        self.comm_cost = 0.0
        self.message_count = 0

    def run(self, max_pulses: int = 1_000_000) -> SyncRunResult:
        """Run pulses until quiescence (all finished, nothing in flight).

        Returns the run result; raises ``RuntimeError`` if ``max_pulses`` is
        exceeded (runaway protocol).
        """
        pulse = 0
        last_active = 0
        while pulse <= max_pulses:
            inbox_now = self._inflight.pop(pulse, {})
            any_send = False
            for v, proto in self.protocols.items():
                inbox = inbox_now.get(v, [])
                proto.on_pulse(pulse, inbox)
                for to, payload in proto.sync.drain():
                    w = int(self.graph.weight(v, to))
                    if self.require_in_synch and pulse % w != 0:
                        raise RuntimeError(
                            f"protocol not in synch: node {v!r} sent on edge of "
                            f"weight {w} at pulse {pulse}"
                        )
                    self.comm_cost += w
                    self.message_count += 1
                    self._inflight[pulse + w][to].append((v, payload))
                    any_send = True
            if inbox_now or any_send:
                last_active = pulse
            all_done = all(p.sync.finished for p in self.protocols.values())
            if all_done and not self._inflight:
                return SyncRunResult(
                    last_active, self.comm_cost, self.message_count, self.protocols
                )
            # NOTE: an empty in-flight map does not imply quiescence -- a
            # protocol may hold internally scheduled future sends (e.g. the
            # in-synch wrapper) or act on future pulses; genuinely stuck
            # protocols are caught by the max_pulses backstop below.
            pulse += 1
        raise RuntimeError(f"exceeded {max_pulses} pulses")
