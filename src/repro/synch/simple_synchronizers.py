"""Network synchronizers alpha_w and beta_w — the baselines gamma_w beats.

Section 4 builds gamma_w out of the two trivial synchronizers of [Awe85a],
generalized to the weighted setting:

* **alpha_w** — after executing pulse ``p`` and having all its pulse-p
  protocol messages acknowledged, a node floods SAFE(p) to every neighbor;
  pulse ``p+1`` runs once SAFE(p) arrived from *all* neighbors.
  Per pulse: communication ``Theta(script-E)`` (one SAFE per directed
  edge), time ``Theta(W)`` (the heaviest incident edge gates every pulse).

* **beta_w** — safety is convergecast over a rooted spanning tree to a
  leader, which broadcasts GO(p+1).  Per pulse: communication
  ``Theta(w(T))`` and time ``Theta(depth(T))`` — optimal in communication
  with a *shallow-light* tree (weight O(V), depth O(D)), but the time is
  always Omega(D).

gamma_w interpolates: O(k n log n) communication with O(log_k n log n)
time.  The ablation benchmark charts all three on the same workloads.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from typing import Any

from ..faults.plan import FaultPlan
from ..faults.transport import reliable_factory
from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network, all_finished
from ..sim.sync_runner import SynchronousProtocol
from ..protocols.convergecast import rooted_tree_structure
from .host_base import SynchronizerHostBase
from .normalize import normalize_graph

__all__ = ["AlphaWHost", "BetaWHost", "SimpleSyncResult", "run_alpha_w",
           "run_beta_w"]


class AlphaWHost(SynchronizerHostBase):
    """One node of synchronizer alpha_w."""

    def __init__(self, node_id, original, inner_factory, max_pulse) -> None:
        super().__init__(node_id, original, inner_factory, max_pulse)
        self._pending_acks: dict[int, int] = defaultdict(int)
        self._executed: set[int] = set()
        self._safe_sent: set[int] = set()
        self._nbr_safe: dict[int, int] = defaultdict(int)

    def _may_execute(self, pulse: int) -> bool:
        if pulse == 0:
            return True
        return self._nbr_safe[pulse - 1] >= len(self.neighbors())

    def _after_pulse(self, pulse: int) -> None:
        self._executed.add(pulse)
        self._maybe_safe(pulse)

    def _on_protocol_send(self, to: Vertex, pulse: int) -> None:
        self._pending_acks[pulse] += 1

    def _on_ack(self, frm: Vertex, send_pulse: int) -> None:
        self._pending_acks[send_pulse] -= 1
        self._maybe_safe(send_pulse)

    def _maybe_safe(self, pulse: int) -> None:
        if pulse in self._safe_sent or pulse not in self._executed:
            return
        if self._pending_acks[pulse] > 0:
            return
        self._safe_sent.add(pulse)
        with self.trace_span("sync-alpha", detail=pulse):
            for v in self.neighbors():
                self.send(v, ("safe", pulse), tag="sync-alpha")

    def handle_control(self, frm: Vertex, payload: Any) -> None:
        kind, pulse = payload
        assert kind == "safe"
        self._nbr_safe[pulse] += 1
        self._advance()


class BetaWHost(SynchronizerHostBase):
    """One node of synchronizer beta_w (tree-based).

    ``tree_parent`` / ``tree_children`` describe the preprocessing tree
    (weights of the tree edges are the network's — all control traffic
    stays on tree edges, which must exist in the simulated graph).
    """

    def __init__(self, node_id, original, inner_factory, max_pulse,
                 tree_parent: Vertex | None,
                 tree_children: list[Vertex]) -> None:
        super().__init__(node_id, original, inner_factory, max_pulse)
        self.tree_parent = tree_parent
        self.tree_children = tree_children
        self._pending_acks: dict[int, int] = defaultdict(int)
        self._executed: set[int] = set()
        self._reported: set[int] = set()
        self._children_safe: dict[int, int] = defaultdict(int)
        self._go_pulse = 0

    def _may_execute(self, pulse: int) -> bool:
        return pulse <= self._go_pulse

    def _after_pulse(self, pulse: int) -> None:
        self._executed.add(pulse)
        self._maybe_report(pulse)

    def _on_protocol_send(self, to: Vertex, pulse: int) -> None:
        self._pending_acks[pulse] += 1

    def _on_ack(self, frm: Vertex, send_pulse: int) -> None:
        self._pending_acks[send_pulse] -= 1
        self._maybe_report(send_pulse)

    def _maybe_report(self, pulse: int) -> None:
        if pulse in self._reported or pulse not in self._executed:
            return
        if self._pending_acks[pulse] > 0:
            return
        if self._children_safe[pulse] < len(self.tree_children):
            return
        self._reported.add(pulse)
        if self.tree_parent is not None:
            with self.trace_span("sync-beta", detail=pulse):
                self.send(self.tree_parent, ("subtree_safe", pulse),
                          tag="sync-beta")
        else:
            self._issue_go(pulse + 1)

    def _issue_go(self, pulse: int) -> None:
        self._go_pulse = max(self._go_pulse, pulse)
        with self.trace_span("sync-beta", detail=pulse):
            for c in self.tree_children:
                self.send(c, ("go", pulse), tag="sync-beta")
        self._advance()

    def handle_control(self, frm: Vertex, payload: Any) -> None:
        kind, pulse = payload
        if kind == "subtree_safe":
            self._children_safe[pulse] += 1
            self._maybe_report(pulse)
        elif kind == "go":
            self._issue_go(pulse)
        else:  # pragma: no cover
            raise AssertionError(f"unknown beta_w message {kind!r}")


class SimpleSyncResult:
    """Outcome of an alpha_w / beta_w run, mirroring GammaWResult."""

    def __init__(self, net_result, max_pulse: int, control_tag: str) -> None:
        self.net_result = net_result
        self.max_pulse = max_pulse
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
        return self.overhead_cost / max(1, self.pulses)

    @property
    def time_per_pulse(self) -> float:
        return self.time / max(1, self.pulses)


def _run_host(graph, factory, max_pulse, delay, seed, control_tag,
              faults=None, reliable=False, transport=None):
    normalized = normalize_graph(graph)
    if reliable:
        factory = reliable_factory(factory, **(transport or {}))
    net = Network(normalized, factory, delay=delay, seed=seed, faults=faults)
    result = net.run(stop_when=all_finished)
    if not net.all_finished:
        if faults is not None:
            # Under an adversary a stall is a legitimate, detectable
            # outcome; hand the partial result back instead of raising.
            return SimpleSyncResult(result, max_pulse, control_tag)
        raise RuntimeError("synchronizer stalled (max_pulse too small?)")
    return SimpleSyncResult(result, max_pulse, control_tag)


def run_alpha_w(
    graph: WeightedGraph,
    inner_factory: Callable[[Vertex], SynchronousProtocol],
    *,
    max_pulse: int,
    delay: DelayModel | None = None,
    seed: int = 0,
    faults: FaultPlan | None = None,
    reliable: bool = False,
    transport: dict | None = None,
) -> SimpleSyncResult:
    """Run a synchronous protocol under synchronizer alpha_w."""
    return _run_host(
        graph,
        lambda v: AlphaWHost(v, graph, inner_factory, max_pulse),
        max_pulse, delay, seed, "sync-alpha",
        faults, reliable, transport,
    )


def run_beta_w(
    graph: WeightedGraph,
    inner_factory: Callable[[Vertex], SynchronousProtocol],
    *,
    max_pulse: int,
    tree: WeightedGraph | None = None,
    root: Vertex | None = None,
    delay: DelayModel | None = None,
    seed: int = 0,
    faults: FaultPlan | None = None,
    reliable: bool = False,
    transport: dict | None = None,
) -> SimpleSyncResult:
    """Run a synchronous protocol under synchronizer beta_w.

    The coordination tree defaults to a shallow-light tree (weight O(V),
    depth O(D)) rooted at an SLT root — the optimal instantiation.
    """
    if tree is None:
        from ..core.slt import shallow_light_tree

        root = graph.vertices[0]
        tree = shallow_light_tree(graph, root, q=2.0).tree
    elif root is None:
        raise ValueError("explicit tree needs an explicit root")
    parent, children = rooted_tree_structure(tree, root)
    return _run_host(
        graph,
        lambda v: BetaWHost(v, graph, inner_factory, max_pulse,
                            parent[v], children[v]),
        max_pulse, delay, seed, "sync-beta",
        faults, reliable, transport,
    )
