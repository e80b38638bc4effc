"""Dijkstra-Scholten termination detection for diffusing computations [DS80].

The paper leans on [DS80] twice: the controller (Section 5) runs in its
diffusing-computation model, and SPT_recur's strip processing (Section
9.2) detects per-strip quiescence with exactly this scheme.  This module
provides the general detector as a reusable protocol transformer.

Scheme: every protocol message is acknowledged.  A node *engages* with the
sender of the message that (re)activated it and holds that one ack back
until its own deficit (sent-but-unacked messages) returns to zero; all
other messages are acked immediately.  Engagements thus form a dynamic
tree rooted at the initiator, and the initiator's deficit reaching zero
certifies that the entire computation is quiescent — at which point the
detector announces termination to every participant.

In the weighted model the detector exactly doubles the communication cost
(one ack of cost w(e) per protocol message) and adds O(script-D) time for
the final announcement.

:class:`DSHost` runs the protocol behind a
:class:`~repro.sim.process.HostedContext` whose ``send`` is
:meth:`DSHost.ds_send`.  The inner ``finish`` only records the inner
result; the host finishes when termination is announced.
"""

from __future__ import annotations

from typing import Any

from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network, RunResult, all_finished
from ..sim.process import HostedContext, Process

__all__ = ["DSHost", "run_with_termination_detection"]


class DSHost(Process):
    """One node of the Dijkstra-Scholten-instrumented protocol.

    The hosted ``inner`` process must be a diffusing computation: only the
    initiator acts spontaneously; everyone else is triggered by messages.
    When global quiescence is certified at the initiator, every node's
    host finishes with ``("terminated", inner_result)``.
    """

    def __init__(self, inner: Process, is_initiator: bool) -> None:
        self.inner = inner
        self.is_initiator = is_initiator
        self.deficit = 0
        self.engager: Vertex | None = None
        self.terminated = False

    def on_start(self) -> None:
        self.inner.ctx = HostedContext(self.ctx, self.ds_send)
        self.inner.on_start()
        if self.is_initiator:
            self._check_quiescent()

    # ------------------------------------------------------------- #

    def ds_send(self, to: Vertex, payload: Any, size: float,
                tag: str | None) -> None:
        self.deficit += 1
        self.send(to, ("m", payload), size=size, tag=f"ds-proto.{tag or 'msg'}")

    def on_message(self, frm: Vertex, payload: Any) -> None:
        kind = payload[0]
        if kind == "m":
            was_engaged = self.engager is not None or self.is_initiator
            self.inner.on_message(frm, payload[1])
            if not was_engaged and self.deficit > 0:
                # This message (re)activated us: hold its ack.
                self.engager = frm
            else:
                self.send(frm, ("ack",), tag="ds-ack")
            self._check_quiescent()
        elif kind == "ack":
            self.deficit -= 1
            self._check_quiescent()
        elif kind == "terminated":
            self._announce(frm)
        else:  # pragma: no cover
            raise AssertionError(f"unknown DS message {kind!r}")

    def _check_quiescent(self) -> None:
        if self.deficit != 0:
            return
        if self.engager is not None:
            engager, self.engager = self.engager, None
            self.send(engager, ("ack",), tag="ds-ack")
        elif self.is_initiator and not self.terminated:
            # The whole diffusing computation is quiescent.
            self._announce(None)

    def _announce(self, frm: Vertex | None) -> None:
        if self.terminated:
            return
        self.terminated = True
        for v in self.neighbors():
            if v != frm:
                self.send(v, ("terminated",), tag="ds-announce")
        self.finish(("terminated", self.inner.ctx.result))


def run_with_termination_detection(
    graph: WeightedGraph,
    inner_factory,
    initiator: Vertex,
    *,
    delay: DelayModel | None = None,
    seed: int = 0,
    max_events: int = 10_000_000,
) -> RunResult:
    """Run a diffusing computation under DS termination detection.

    Returns once every node learned the computation terminated; each
    node's result is ``("terminated", inner_result)``.
    """
    net = Network(
        graph,
        lambda v: DSHost(inner_factory(v), v == initiator),
        delay=delay,
        seed=seed,
    )
    result = net.run(stop_when=all_finished, max_events=max_events)
    if not net.all_finished:
        raise RuntimeError("termination was never detected")
    return result
