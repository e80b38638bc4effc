"""Tree broadcast and convergecast primitives.

Given a rooted spanning tree ``T`` these two dual communication patterns
cost exactly one message per tree edge (communication ``w(T)``) and time
proportional to the weighted depth of the tree:

* *broadcast*: the root pushes a value down to every node;
* *convergecast*: values are aggregated leaves-to-root with an associative
  combiner (the ``g`` of the paper's symmetric compact functions, §1.4.1).

They are the workhorses of global function computation (Section 2), of
clock synchronizer beta* (Section 3.2) and of the cluster-internal part of
synchronizers gamma* and gamma_w.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

from ..faults.plan import FaultPlan
from ..faults.transport import reliable_factory
from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network, RunResult
from ..sim.process import Process

__all__ = [
    "rooted_tree_structure",
    "BroadcastProcess",
    "ConvergecastProcess",
    "run_tree_broadcast",
    "run_convergecast",
]


def rooted_tree_structure(
    tree: WeightedGraph, root: Vertex
) -> tuple[dict[Vertex, Vertex | None], dict[Vertex, list[Vertex]]]:
    """Orient ``tree`` away from ``root``: returns (parent, children) maps."""
    parent: dict[Vertex, Vertex | None] = {root: None}
    children: dict[Vertex, list[Vertex]] = {v: [] for v in tree.vertices}
    stack = [root]
    seen = {root}
    while stack:
        u = stack.pop()
        for v in tree.neighbors(u):
            if v not in seen:
                seen.add(v)
                parent[v] = u
                children[u].append(v)
                stack.append(v)
    if len(seen) != tree.num_vertices:
        raise ValueError("tree is not connected / root not in tree")
    return parent, children


class BroadcastProcess(Process):
    """Push ``value`` from the root down a known rooted tree."""

    def __init__(self, children: list[Vertex], is_root: bool, value: Any = None) -> None:
        self.children = children
        self.is_root = is_root
        self.value = value

    def on_start(self) -> None:
        if self.is_root:
            self._handle(self.value)

    def on_message(self, frm: Vertex, payload: Any) -> None:
        self._handle(payload)

    def _handle(self, value: Any) -> None:
        self.value = value
        self.finish(value)
        for c in self.children:
            self.send(c, value, tag="broadcast")


class ConvergecastProcess(Process):
    """Aggregate leaf-to-root with combiner ``g`` over per-node inputs.

    Every node finishes; the root's result is the aggregate
    ``g(x_1, ..., x_n)`` (combiner applied in tree order).
    """

    def __init__(
        self,
        parent: Vertex | None,
        children: list[Vertex],
        value: Any,
        combine: Callable[[Any, Any], Any],
    ) -> None:
        self.parent = parent
        self.children = children
        self.acc = value
        self.combine = combine
        self._waiting = len(children)

    def on_start(self) -> None:
        if self._waiting == 0:
            self._report()

    def on_message(self, frm: Vertex, payload: Any) -> None:
        self.acc = self.combine(self.acc, payload)
        self._waiting -= 1
        if self._waiting == 0:
            self._report()

    def _report(self) -> None:
        if self.parent is not None:
            self.send(self.parent, self.acc, tag="convergecast")
            self.finish(None)
        else:
            self.finish(self.acc)  # root holds the aggregate


def run_tree_broadcast(
    tree: WeightedGraph,
    root: Vertex,
    value: Any,
    *,
    delay: DelayModel | None = None,
    seed: int = 0,
    faults: FaultPlan | None = None,
    reliable: bool = False,
) -> RunResult:
    """Broadcast ``value`` down ``tree`` from ``root``; cost w(T), time depth(T)."""
    _, children = rooted_tree_structure(tree, root)
    factory = lambda v: BroadcastProcess(children[v], v == root, value)
    if reliable:
        factory = reliable_factory(factory)
    net = Network(tree, factory, delay=delay, seed=seed, faults=faults)
    return net.run()


def run_convergecast(
    tree: WeightedGraph,
    root: Vertex,
    values: dict[Vertex, Any],
    combine: Callable[[Any, Any], Any],
    *,
    delay: DelayModel | None = None,
    seed: int = 0,
    faults: FaultPlan | None = None,
    reliable: bool = False,
) -> tuple[RunResult, Any]:
    """Aggregate ``values`` up ``tree``; returns (run result, root aggregate)."""
    parent, children = rooted_tree_structure(tree, root)
    factory = lambda v: ConvergecastProcess(
        parent[v], children[v], values[v], combine
    )
    if reliable:
        factory = reliable_factory(factory)
    net = Network(tree, factory, delay=delay, seed=seed, faults=faults)
    result = net.run()
    return result, result.result_of(root)
