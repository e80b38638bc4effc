"""Global symmetric compact function computation (Sections 1.4.1, 2).

A function family ``f_n : X^n -> X`` is *symmetric compact* ([GS86]) if it
is symmetric in its arguments and there is a combiner ``g : X^2 -> X`` with
``f_n(x_1..x_n) = g(f_k(x_1..x_k), f_{n-k}(x_{k+1}..x_n))`` — i.e. partial
results fit in one word and merge associatively/commutatively.  Maximum,
sum, AND/OR/XOR, counting, termination detection and broadcast are all
instances.

Theorem 2.1 + Corollary 2.3: computing such a function (inputs at the
vertices, output required *everywhere*) takes ``Theta(script-V)``
communication and ``Theta(script-D)`` time.  The optimal protocol runs a
convergecast followed by a broadcast over a shallow-light tree:
``c <= 2 w(SLT) = O(V)`` and ``t <= 2 depth(SLT) = O(D)``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from ..faults.plan import FaultPlan
from ..faults.transport import reliable_factory
from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network, RunResult
from ..sim.process import Process
from ..protocols.convergecast import rooted_tree_structure
from .slt import shallow_light_tree

__all__ = [
    "SymmetricCompactFunction",
    "MAX",
    "MIN",
    "SUM",
    "COUNT",
    "XOR",
    "AND",
    "OR",
    "GlobalFunctionProcess",
    "compute_global_function",
    "broadcast_value",
    "detect_termination",
]


@dataclass(frozen=True)
class SymmetricCompactFunction:
    """A symmetric compact function: a name and its binary combiner ``g``."""

    name: str
    combine: Callable[[Any, Any], Any]

    def fold(self, values: list) -> Any:
        """Reference (sequential) evaluation, for oracles in tests."""
        if not values:
            raise ValueError("need at least one argument")
        acc = values[0]
        for v in values[1:]:
            acc = self.combine(acc, v)
        return acc


MAX = SymmetricCompactFunction("max", max)
MIN = SymmetricCompactFunction("min", min)
SUM = SymmetricCompactFunction("sum", lambda a, b: a + b)
COUNT = SymmetricCompactFunction("count", lambda a, b: a + b)
XOR = SymmetricCompactFunction("xor", lambda a, b: a ^ b)
AND = SymmetricCompactFunction("and", lambda a, b: a and b)
OR = SymmetricCompactFunction("or", lambda a, b: a or b)


class GlobalFunctionProcess(Process):
    """Convergecast-then-broadcast over a known rooted tree.

    Phase 1 aggregates the inputs up to the root with the combiner ``g``;
    phase 2 broadcasts ``f_n(x_1..x_n)`` back down.  Every node finishes
    holding the global value, as the problem statement requires ("outputs
    must be produced at all the vertices").
    """

    def __init__(
        self,
        parent: Vertex | None,
        children: list[Vertex],
        value: Any,
        func: SymmetricCompactFunction,
    ) -> None:
        self.parent = parent
        self.children = children
        self.acc = value
        self.func = func
        self._waiting = len(children)

    def on_start(self) -> None:
        if self._waiting == 0:
            self._report_up()

    def on_message(self, frm: Vertex, payload: Any) -> None:
        kind, value = payload
        if kind == "up":
            self.acc = self.func.combine(self.acc, value)
            self._waiting -= 1
            if self._waiting == 0:
                self._report_up()
        elif kind == "down":
            self._announce(value)
        else:
            raise AssertionError(f"unknown global-function message {kind!r}")

    def _report_up(self) -> None:
        if self.parent is not None:
            self.send(self.parent, ("up", self.acc), tag="converge")
        else:
            self._announce(self.acc)

    def _announce(self, value: Any) -> None:
        self.finish(value)
        for c in self.children:
            self.send(c, ("down", value), tag="broadcast")


def compute_global_function(
    graph: WeightedGraph,
    inputs: dict[Vertex, Any],
    func: SymmetricCompactFunction,
    *,
    root: Vertex | None = None,
    q: float = 2.0,
    tree: WeightedGraph | None = None,
    delay: DelayModel | None = None,
    seed: int = 0,
    faults: FaultPlan | None = None,
    reliable: bool = False,
) -> tuple[RunResult, Any]:
    """Compute ``func`` over ``inputs`` with O(V) communication, O(D) time.

    Builds a shallow-light tree with parameter ``q`` (preprocessing, per the
    paper's known-topology assumption) unless an explicit ``tree`` is given,
    then runs the two-phase protocol.  Returns (run result, global value);
    every node's local result equals the global value.  ``faults`` injects
    an adversary; ``reliable=True`` makes the protocol survive it via the
    retransmitting transport.
    """
    if set(inputs) != set(graph.vertices):
        raise ValueError("inputs must provide a value for every vertex")
    if root is None:
        root = graph.vertices[0]
    if tree is None:
        tree = shallow_light_tree(graph, root, q).tree
    parent, children = rooted_tree_structure(tree, root)
    factory = lambda v: GlobalFunctionProcess(
        parent[v], children[v], inputs[v], func
    )
    if reliable:
        factory = reliable_factory(factory)
    net = Network(tree, factory, delay=delay, seed=seed, faults=faults)
    result = net.run()
    value = result.result_of(root)
    return result, value


# --------------------------------------------------------------------- #
# Derived tasks (Section 1.4.1): "many other tasks, e.g. broadcasting a
# message from a given node to the rest of the network, termination
# detection, global synchronization, etc. can be represented as computing
# a symmetric compact function."
# --------------------------------------------------------------------- #

_ABSENT = ("absent",)


def _pick_present(a: Any, b: Any) -> Any:
    """Combiner for broadcast: propagate the unique non-absent input."""
    return b if a is _ABSENT else a


BROADCAST = SymmetricCompactFunction("broadcast", _pick_present)


def broadcast_value(
    graph: WeightedGraph,
    origin: Vertex,
    value: Any,
    *,
    root: Vertex | None = None,
    q: float = 2.0,
    delay: DelayModel | None = None,
    seed: int = 0,
) -> tuple[RunResult, Any]:
    """Broadcast ``value`` from ``origin`` to every vertex in Theta(V) cost.

    Modeled as the symmetric compact function whose only non-absent
    argument is the origin's; every node finishes holding ``value``.
    """
    inputs = {v: (_ABSENT if v != origin else value) for v in graph.vertices}
    return compute_global_function(
        graph, inputs, BROADCAST, root=root, q=q, delay=delay, seed=seed
    )


def detect_termination(
    graph: WeightedGraph,
    locally_done: dict[Vertex, bool],
    *,
    root: Vertex | None = None,
    q: float = 2.0,
    delay: DelayModel | None = None,
    seed: int = 0,
) -> tuple[RunResult, bool]:
    """Global termination detection: the AND of the local done flags.

    Every vertex learns whether the whole system has terminated, with
    Theta(V) communication and Theta(D) time.
    """
    flags = {v: bool(locally_done[v]) for v in graph.vertices}
    result, value = compute_global_function(
        graph, flags, AND, root=root, q=q, delay=delay, seed=seed
    )
    return result, bool(value)
