"""Controllers — resource-bounded protocol execution (Section 5, [AAPS87]).

A *controller* transforms a diffusing computation ``pi`` (single initiator;
vertices join on first message; the join edges form the dynamically growing
*execution tree*) into a controlled protocol ``phi`` that behaves
identically on correct inputs but can never consume more than roughly twice
a preset resource *threshold* — so a protocol driven haywire by corrupted
input or faults is cut off instead of flooding the network.

Following the paper's weighted reading, transmitting a message over edge
``e`` consumes ``w(e)`` units of an abstract resource.  Every consumption
must be *authorized*: a vertex lacking permits sends a request up the
execution tree and waits for a grant before transmitting.

Two authorization policies are provided:

* ``naive`` — every request travels all the way to the root, which keeps
  an exact counter and stops granting beyond the threshold.  Overhead:
  one round trip along the tree per message — ``O(c_pi * depth)``.
* ``aggregated`` — the [AAPS87] idea: requests are batched geometrically
  (a vertex asks for ``max(deficit, everything it consumed so far)``, so
  it asks ``O(log c)`` times) and intermediate vertices holding spare
  permits absorb requests instead of forwarding them.  The root keeps an
  *approximate* counter (it sees grants, not consumption) and cuts off at
  twice the threshold, guaranteeing total consumption ``<= 2 * threshold``
  while leaving executions within the threshold untouched.  Overhead:
  ``O(c_pi * log^2 c_pi)`` (Corollary 5.1), reproduced in the benchmarks.

:class:`ControlledHost` runs ``pi`` behind a
:class:`~repro.sim.process.HostedContext`: every inner send goes to
:meth:`ControlledHost.controlled_send`, which queues it until permits
cover it, and the inner ``finish`` finishes the host.
"""

from __future__ import annotations

from collections import deque
from typing import Any

from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network, RunResult
from ..sim.process import HostedContext, Process

__all__ = ["ControlledHost", "run_controlled", "run_controlled_multi", "ControlOutcome"]


class ControlledHost(Process):
    """One node of the controlled protocol ``phi``.

    Parameters
    ----------
    inner: the hosted protocol instance (a Process).
    is_initiator: the diffusing computation's (single) initiator / root.
    threshold: resource budget ``c_pi`` — the root stops authorizing once
        its (mode-dependent) counter would exceed ``2 * threshold``.
    mode: "naive" or "aggregated".
    """

    def __init__(self, inner: Process, is_initiator: bool, threshold: float,
                 mode: str = "aggregated") -> None:
        if mode not in ("naive", "aggregated"):
            raise ValueError(f"unknown controller mode {mode!r}")
        self.inner = inner
        self.is_initiator = is_initiator
        self.threshold = threshold
        self.mode = mode
        self.tree_parent: Vertex | None = None
        self._joined = is_initiator
        self.halted = False
        # permit machinery
        self.pool = 0.0                # spare permits parked here
        self.consumed = 0.0            # resource actually consumed here
        self.issued = 0.0              # root only: total permits granted
        self._send_queue: deque = deque()   # (to, payload, size, tag, cost)
        self._outstanding_request = False
        self._req_seq = 0
        self._backlog: dict = {}       # req_id -> origin child (None = self)

    # -------------------------------------------------------------- #

    def on_start(self) -> None:
        # Every node initializes its local protocol state; in the diffusing
        # model non-initiators stay passive until their first message.
        self.inner.ctx = HostedContext(self.ctx, self.controlled_send,
                                       self.finish)
        self.inner.on_start()

    def on_message(self, frm: Vertex, payload: Any) -> None:
        kind = payload[0]
        if kind == "proto":
            if not self._joined:
                # First protocol message: mark the execution-tree edge.
                self._joined = True
                self.tree_parent = frm
            self.inner.on_message(frm, payload[1])
        elif kind == "req":
            self._handle_request(frm, payload[1], payload[2])
        elif kind == "grant":
            self._handle_grant(payload[1], payload[2])
        elif kind == "halt":
            self._handle_halt(frm)
        else:  # pragma: no cover
            raise AssertionError(f"unknown controller message {kind!r}")

    # -------------------------------------------------------------- #
    # Consumption path
    # -------------------------------------------------------------- #

    def controlled_send(self, to: Vertex, payload: Any, size: float,
                        tag: str | None) -> None:
        cost = self.edge_weight(to) * size
        self._send_queue.append((to, payload, size, tag, cost))
        self._flush()

    def _flush(self) -> None:
        if self.halted:
            return
        while self._send_queue:
            to, payload, size, tag, cost = self._send_queue[0]
            if self.is_initiator:
                # The root authorizes itself against its own counter.
                if not self._root_authorize(cost):
                    return
            elif self.pool >= cost:
                self.pool -= cost
            else:
                self._request_permits()
                return
            self._send_queue.popleft()
            self.consumed += cost
            self.send(to, ("proto", payload), size=size,
                      tag=f"ctl-proto.{tag or 'msg'}")

    def _request_permits(self) -> None:
        if self._outstanding_request or self.halted:
            return
        deficit = self._send_queue[0][4] - self.pool
        if self.mode == "aggregated":
            amount = max(deficit, self.consumed)
        else:
            amount = deficit
        self._outstanding_request = True
        self._req_seq += 1
        self._forward_request((self.node_id, self._req_seq), amount, origin=None)

    def _forward_request(self, req_id, amount: float,
                         origin: Vertex | None) -> None:
        self._backlog[req_id] = origin
        with self.trace_span("ctl-req"):
            self.send(self.tree_parent, ("req", req_id, amount),
                      tag="ctl-req")

    # -------------------------------------------------------------- #
    # Authorization path
    # -------------------------------------------------------------- #

    def _handle_request(self, child: Vertex, req_id, amount: float) -> None:
        if self.halted:
            return
        if self.is_initiator:
            if self._root_authorize(amount):
                with self.trace_span("ctl-grant"):
                    self.send(child, ("grant", req_id, amount),
                              tag="ctl-grant")
            return
        if self.mode == "aggregated" and self.pool >= amount:
            # Absorb: spare permits parked here satisfy the child directly.
            self.pool -= amount
            with self.trace_span("ctl-grant"):
                self.send(child, ("grant", req_id, amount), tag="ctl-grant")
        else:
            self._forward_request(req_id, amount, origin=child)

    def _root_authorize(self, amount: float) -> bool:
        """Root-side counter check; triggers the halt at 2x threshold."""
        if self.halted:
            return False
        if self.issued + amount > 2.0 * self.threshold:
            self._initiate_halt()
            return False
        self.issued += amount
        return True

    def _handle_grant(self, req_id, amount: float) -> None:
        origin = self._backlog.pop(req_id)
        if origin is not None:
            with self.trace_span("ctl-grant"):
                self.send(origin, ("grant", req_id, amount), tag="ctl-grant")
        else:
            self.pool += amount
            self._outstanding_request = False
            self._flush()
            if self._send_queue:
                self._request_permits()

    # -------------------------------------------------------------- #
    # Halting
    # -------------------------------------------------------------- #

    def _initiate_halt(self) -> None:
        self._handle_halt(None)

    def _handle_halt(self, frm: Vertex | None) -> None:
        if self.halted:
            return
        self.halted = True
        self._send_queue.clear()
        with self.trace_span("ctl-halt"):
            for v in self.neighbors():
                if v != frm:
                    self.send(v, ("halt",), tag="ctl-halt")


class ControlOutcome:
    """Result of a controlled run, with the controller's own accounting."""

    def __init__(self, net_result: RunResult, threshold: float) -> None:
        self.net_result = net_result
        self.threshold = threshold
        m = net_result.metrics
        self.proto_cost = sum(
            c for t, c in m.cost_by_tag.items() if t.startswith("ctl-proto")
        )
        self.control_cost = sum(
            c for t, c in m.cost_by_tag.items()
            if t.startswith(("ctl-req", "ctl-grant", "ctl-halt"))
        )
        self.total_cost = m.comm_cost
        self.halted = any(
            p.halted for p in net_result.processes.values()
        )
        self.consumed = sum(p.consumed for p in net_result.processes.values())

    def inner_result_of(self, v: Vertex) -> Any:
        proc = self.net_result.processes[v]
        ctx = getattr(proc.inner, "ctx", None)
        return ctx.result if ctx is not None else None


def run_controlled(
    graph: WeightedGraph,
    inner_factory,
    initiator: Vertex,
    threshold: float,
    *,
    mode: str = "aggregated",
    delay: DelayModel | None = None,
    seed: int = 0,
    max_events: int = 5_000_000,
) -> ControlOutcome:
    """Run ``inner_factory(v)``'s protocol under the controller.

    The run ends at quiescence: either the inner protocol completed
    normally (consumption within the threshold) or the controller halted
    it (consumption capped at ``2 * threshold``).
    """
    return run_controlled_multi(
        graph, inner_factory, [initiator], threshold,
        mode=mode, delay=delay, seed=seed, max_events=max_events,
    )


def run_controlled_multi(
    graph: WeightedGraph,
    inner_factory,
    initiators,
    threshold_per_root: float,
    *,
    mode: str = "aggregated",
    delay: DelayModel | None = None,
    seed: int = 0,
    max_events: int = 5_000_000,
) -> ControlOutcome:
    """The multiple-initiator extension the paper notes is straightforward.

    Each initiator roots its own execution tree (a vertex joins the tree
    of whichever initiator's computation reaches it first) and enforces its
    own threshold, so total consumption is capped at
    ``2 * len(initiators) * threshold_per_root``.  Any root that trips its
    threshold halts the whole computation.
    """
    roots = set(initiators)
    if not roots:
        raise ValueError("need at least one initiator")
    net = Network(
        graph,
        lambda v: ControlledHost(
            inner_factory(v), v in roots, threshold_per_root, mode
        ),
        delay=delay,
        seed=seed,
    )
    result = net.run(max_events=max_events)
    return ControlOutcome(result, threshold_per_root * len(roots))
