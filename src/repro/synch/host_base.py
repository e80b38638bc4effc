"""Shared machinery for network-synchronizer hosts (Section 4).

A *synchronizer host* is the per-node asynchronous process that executes a
wrapped synchronous protocol pulse by pulse.  alpha_w, beta_w and gamma_w
all run on :class:`SynchronizerHostBase` and share its data plane:

* the hosted protocol is an :class:`~repro.synch.normalize.InSynchWrapper`
  (Lemma 4.5's transformed protocol) running against the node's original
  weights;
* protocol messages travel tagged with their send pulse; the receiver
  buffers them into the inbox of pulse ``send + w_hat(e)`` and returns an
  acknowledgment (Definition 4.1's safety detection);
* a pulse executes as soon as the subclass's admission rule
  :meth:`_may_execute` allows it, up to ``max_pulse``.

Subclasses differ only in their *control plane* — how safety information
is disseminated and what the admission rule is: alpha_w floods per-pulse
safety to neighbors, beta_w convergecasts it over a spanning tree, gamma_w
(in :mod:`repro.synch.gamma_w`) runs one synchronizer-gamma instance per
weight level.

All three also share one run step, :func:`sync_outcome` (alpha_w and
beta_w reach it through :func:`run_hosts`), and one result,
:class:`SyncResult`, which splits the run's cost into payload,
acknowledgments and the synchronizer's own control traffic and amortizes
the overhead per pulse (the paper's ``C(sigma)`` and ``T(sigma)``).
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from typing import Any

from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network, RunResult, all_finished
from ..sim.process import Process
from ..sim.sync_runner import SynchronousProtocol
from .normalize import InSynchWrapper

__all__ = ["HostSyncShim", "SyncResult", "SynchronizerHostBase", "run_hosts",
           "sync_outcome"]


class HostSyncShim:
    """SyncContext look-alike handed to the hosted InSynchWrapper.

    Unlike a :class:`~repro.sim.sync_runner.SyncContext`, it buffers
    nothing: each message the wrapper flushes goes out through the host
    at once, before the host's ``finish`` that the same pulse may call.
    """

    def __init__(self, host: SynchronizerHostBase) -> None:
        self._host = host
        self.node_id = host.node_id
        self.neighbors = host.ctx.neighbors
        self.weights = host.ctx.weights  # normalized weights
        self.finished = False
        self.result: Any = None

    def send(self, to: Vertex, payload: Any) -> None:
        self._host.protocol_send(to, payload)

    def finish(self, result: Any = None) -> None:
        if not self.finished:
            self.finished = True
            self.result = result
            self._host.wrapper_finished(result)


class SynchronizerHostBase(Process):
    """Common pulse engine for synchronizer hosts.

    Parameters
    ----------
    node_id: this vertex.
    original: the original (pre-normalization) graph, for the wrapper.
    inner_factory: builds the hosted synchronous protocol per node.
    max_pulse: hard cap on the outer pulse counter.
    """

    def __init__(
        self,
        node_id: Vertex,
        original: WeightedGraph,
        inner_factory: Callable[[Vertex], SynchronousProtocol],
        max_pulse: int,
    ) -> None:
        self._node = node_id
        self.max_pulse = max_pulse
        self.wrapper = InSynchWrapper(
            inner_factory(node_id), original.neighbor_weights(node_id)
        )
        self.next_pulse = 0
        self.pulses_executed = 0
        self._inbox: dict[int, list] = defaultdict(list)
        self._advancing = False

    # ---------------- subclass surface ---------------- #

    def _may_execute(self, pulse: int) -> bool:
        """Admission rule: may this node run ``pulse`` now?"""
        raise NotImplementedError

    def _after_pulse(self, pulse: int) -> None:
        """Hook invoked right after executing ``pulse`` (safety checks)."""

    def _on_protocol_send(self, to: Vertex, pulse: int) -> None:
        """Hook invoked for every outgoing protocol message."""

    def _on_ack(self, frm: Vertex, send_pulse: int) -> None:
        """Hook invoked for every incoming acknowledgment."""

    def handle_control(self, frm: Vertex, payload: Any) -> None:
        """Hook for subclass-specific control messages."""
        raise AssertionError(f"unexpected control message {payload!r}")

    # ---------------- common data plane ---------------- #

    def on_start(self) -> None:
        self.wrapper.sync = HostSyncShim(self)
        self._start_control_plane()
        self._advance()

    def _start_control_plane(self) -> None:
        """Subclass hook run before the first pulse."""

    def on_message(self, frm: Vertex, payload: Any) -> None:
        kind = payload[0]
        if kind == "proto":
            _, wire, send_pulse = payload
            arrive_pulse = send_pulse + int(self.edge_weight(frm))
            self._inbox[arrive_pulse].append((frm, wire))
            with self.trace_span("sync-ack"):
                self.send(frm, ("ack", send_pulse), tag="sync-ack")
            self._advance()
        elif kind == "ack":
            self._on_ack(frm, payload[1])
        else:
            self.handle_control(frm, payload)

    def protocol_send(self, to: Vertex, wire: Any) -> None:
        """Transmit a wrapped-protocol message at the current local pulse."""
        pulse = self.next_pulse  # the pulse currently executing
        self._on_protocol_send(to, pulse)
        self.send(to, ("proto", wire, pulse), tag="proto")

    def wrapper_finished(self, result: Any) -> None:
        self.finish(result)

    # ---------------- pulse engine ---------------- #

    def _advance(self) -> None:
        if self._advancing:  # guard against reentrancy via synchronous GOs
            return
        self._advancing = True
        try:
            while self.next_pulse <= self.max_pulse and self._may_execute(
                self.next_pulse
            ):
                pulse = self.next_pulse
                # Rolls this node's "pulse" trace span (no-op untraced);
                # control traffic until the next pulse nests under it.
                self.trace_pulse(pulse)
                self.wrapper.on_pulse(pulse, self._inbox.pop(pulse, []))
                self.next_pulse = pulse + 1
                self.pulses_executed += 1
                self._after_pulse(pulse)
        finally:
            self._advancing = False


class SyncResult:
    """Outcome of a synchronizer run, with overhead accounting.

    ``control_cost`` is the cost sent under the synchronizer's control tag
    (``sync-alpha``, ``sync-beta`` or ``sync-gamma``); with the
    acknowledgments it makes up ``overhead_cost``.  ``completed`` is False
    only when a communication budget stopped the run.
    """

    def __init__(self, net_result: RunResult, control_tag: str,
                 completed: bool = True) -> None:
        self.net_result = net_result
        self.completed = completed
        m = net_result.metrics
        self.proto_cost = m.cost_by_tag.get("proto", 0.0)
        self.ack_cost = m.cost_by_tag.get("sync-ack", 0.0)
        self.control_cost = m.cost_by_tag.get(control_tag, 0.0)
        self.overhead_cost = self.ack_cost + self.control_cost
        self.comm_cost = m.comm_cost
        self.time = m.completion_time
        self.pulses = max(
            p.pulses_executed for p in net_result.processes.values()
        )

    def result_of(self, v: Vertex) -> Any:
        return self.net_result.processes[v].wrapper.inner_result

    def results(self) -> dict:
        return {v: self.result_of(v) for v in self.net_result.processes}

    @property
    def comm_overhead_per_pulse(self) -> float:
        """The paper's C(sigma): synchronization cost amortized per pulse."""
        return self.overhead_cost / max(1, self.pulses)

    @property
    def time_per_pulse(self) -> float:
        """The paper's T(sigma): physical time amortized per pulse."""
        return self.time / max(1, self.pulses)


def run_hosts(
    normalized: WeightedGraph,
    factory: Callable[[Vertex], SynchronizerHostBase],
    control_tag: str,
    *,
    delay: DelayModel | None = None,
    seed: int = 0,
) -> SyncResult:
    """Run one synchronizer host per node of the normalized graph
    (see :func:`sync_outcome`)."""
    return sync_outcome(Network(normalized, factory, delay=delay, seed=seed),
                        control_tag)


def sync_outcome(net: Network, control_tag: str) -> SyncResult:
    """Run (or resume) a network of synchronizer hosts.

    The run stops as soon as every hosted protocol has finished.  A run the
    network's communication budget stopped first comes back with
    ``completed=False``; any other stall raises :class:`RuntimeError`
    (typically the hosts' ``max_pulse`` is too small for the hosted
    protocol).
    """
    net_result = net.run(stop_when=all_finished)
    if net.all_finished or net_result.status == "budget_exhausted":
        return SyncResult(net_result, control_tag, completed=net.all_finished)
    hosts = net_result.processes.values()
    unfinished = sum(not p.ctx.is_finished for p in hosts)
    max_pulse = max(p.max_pulse for p in hosts)
    raise RuntimeError(
        f"synchronizer stalled: {unfinished} of {len(net_result.processes)} "
        f"nodes unfinished (max_pulse={max_pulse} too small?)"
    )
