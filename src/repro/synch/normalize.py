"""Network normalization and the in-synch protocol transform (Section 4.3).

Lemma 4.5: any synchronous protocol ``pi`` on a weighted synchronous
network ``G`` can be transformed into a protocol ``pi'`` on a *normalized*
network ``G'`` (all weights powers of two, Definition 4.3) such that
``pi'`` is *in synch* with ``G'`` (messages on an edge of weight ``w``
leave only at pulses divisible by ``w``, Definition 4.2), the outputs are
identical, and time / communication grow by at most a factor of 4 / 2.

The three steps of the paper map onto :class:`InSynchWrapper` as follows:

* **Step 1 (slow down x4):** inner pulse ``t`` executes at outer pulse
  ``4t``; a message sent at inner time ``S`` is *processed* by the receiver
  at inner time ``S + w`` (outer ``4(S + w)``), regardless of its actual
  earlier arrival — early arrivals sit in an edge buffer.
* **Step 2 (normalized weights):** the transformed protocol runs on
  ``G' = power(G)`` where ``power(w) = 2^ceil(log2 w)``, so transit takes
  ``power(w) <= 2w`` outer pulses.
* **Step 3 (align send times):** the actual transmission is deferred to
  ``next_power(4S)``, the first pulse ``>= 4S`` divisible by ``power(w)``;
  since ``next_power(4S) + power(w) <= 4S + 4w - 1 < 4(S + w)``, the
  message still arrives before its processing time.

The wrapper hosts ``pi`` like a synchronous runner would: at its first
pulse it hands ``pi`` a plain :class:`~repro.sim.sync_runner.SyncContext`
with the host's neighbours and the *original* weights, and after each
inner pulse it drains that context's outbox into its own send schedule.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Any

from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.sync_runner import SyncContext, SynchronousProtocol

__all__ = ["power", "next_multiple", "normalize_graph", "InSynchWrapper"]


def power(w: float) -> int:
    """``power(w)`` — the smallest power of two >= w (Definition 4.6)."""
    if w < 1:
        raise ValueError("weights must be >= 1 for normalization")
    p = 1
    while p < w:
        p *= 2
    return p


def next_multiple(t: int, m: int) -> int:
    """``next_m(t)`` — the first time >= t divisible by m (Definition 4.7)."""
    if t % m == 0:
        return t
    return (t // m + 1) * m


def normalize_graph(graph: WeightedGraph) -> WeightedGraph:
    """``G' = (V, E, power(w))`` — round every weight up to a power of two."""
    g = WeightedGraph(vertices=graph.vertices)
    for u, v, w in graph.edges():
        g.add_edge(u, v, float(power(w)))
    return g


class InSynchWrapper(SynchronousProtocol):
    """Lemma 4.5's ``pi'``: hosts ``inner`` slowed x4 and in synch with G'.

    Runs on the *normalized* graph; needs the original weights to compute
    inner processing times.  Message payloads on the wire are
    ``(inner_payload, inner_send_time)``.
    """

    SLOWDOWN = 4

    def __init__(self, inner: SynchronousProtocol,
                 original_weights: dict[Vertex, float]) -> None:
        self.inner = inner
        self.original_weights = original_weights
        # outgoing[outer_pulse] = [(to, payload_on_wire), ...]
        self._outgoing: dict[int, list] = defaultdict(list)
        # inner inbox buffered by inner processing time
        self._inner_inbox: dict[int, list] = defaultdict(list)
        self._pending_sends = 0

    def on_pulse(self, pulse: int, inbox: list[tuple[Vertex, Any]]) -> None:
        if pulse == 0:
            # The host has injected self.sync by now.  The inner protocol
            # sees the host's neighbours with the ORIGINAL weights.
            self.inner.sync = SyncContext(self.sync.node_id,
                                          self.sync.neighbors,
                                          self.original_weights)
        # Buffer arrivals until their inner processing time 4 * (S + w).
        for frm, wire in inbox:
            payload, sent_inner = wire
            deliver_inner = sent_inner + int(self.original_weights[frm])
            self._inner_inbox[deliver_inner].append((frm, payload))

        # Execute the inner pulse if this outer pulse is 4t.
        if pulse % self.SLOWDOWN == 0:
            t = pulse // self.SLOWDOWN
            self.inner.on_pulse(t, self._inner_inbox.pop(t, []))
            for to, payload in self.inner.sync.drain():
                w_hat = power(self.original_weights[to])
                send_at = next_multiple(pulse, w_hat)
                self._outgoing[send_at].append((to, (payload, t)))
                self._pending_sends += 1

        # Flush transmissions scheduled for this pulse (always divisible by
        # the normalized edge weight: in-synch by construction).
        for to, wire in self._outgoing.pop(pulse, []):
            self.sync.send(to, wire)
            self._pending_sends -= 1

        if self.inner.sync.finished and self._pending_sends == 0:
            self.finish(self.inner.sync.result)

    @property
    def inner_result(self) -> Any:
        sync = getattr(self.inner, "sync", None)
        return sync.result if sync is not None else None
