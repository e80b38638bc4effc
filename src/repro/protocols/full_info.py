"""Full-information tree-growth protocols: ``MST_centr`` and ``SPT_centr``.

Sections 6.3-6.4 of the paper.  Both algorithms assume every vertex knows
the entire weighted topology (only the protocol's dynamic state must be
communicated) and grow a tree one vertex per phase:

* ``MST_centr`` — Prim's order: each phase adds the minimum-weight edge
  leaving the current tree.  Communication ``O(n * script-V)``, time
  ``O(n * Diam(MST))`` (Corollary 6.4).
* ``SPT_centr`` — Dijkstra's order: each phase adds the non-tree vertex
  with the minimum label ``dist(s, y) + w(y, x)``.  Communication
  ``O(n * w(SPT)) = O(n^2 * script-V)`` (Fact 6.5), time ``O(n * script-D)``
  (Corollary 6.6).

The invariant "every tree vertex knows the whole tree" is maintained by
broadcasting each added vertex over the tree; we realize it with a
root-driven phase loop (broadcast PHASE down the current tree, JOIN/ACK
over the new edge, convergecast READY back up), which has the same
asymptotic costs and gives the root a *precise* root estimate of the
communication spent — the property the hybrid combinators of Sections
7.2/8.2 rely on.  The root consults a :class:`~repro.protocols.dfs.Governor`
before every phase, so a hybrid can suspend the algorithm between phases.
"""

from __future__ import annotations

from typing import Any

from ..graphs.mst import prim_mst
from ..graphs.paths import dijkstra
from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network, RunResult
from ..sim.process import Process
from .dfs import Governor

__all__ = [
    "prim_order",
    "dijkstra_order",
    "GrowthPlan",
    "FullInfoGrowthProcess",
    "run_mst_centr",
    "run_spt_centr",
]


def prim_order(graph: WeightedGraph, root: Vertex) -> list[tuple[Vertex, Vertex]]:
    """The deterministic Prim edge sequence [(u_i, v_i)] from ``root``.

    u_i is the tree endpoint, v_i the vertex added at phase i.
    """
    tree = prim_mst(graph, root)
    return _addition_order(tree, root)


def dijkstra_order(graph: WeightedGraph, root: Vertex) -> list[tuple[Vertex, Vertex]]:
    """The deterministic Dijkstra (SPT) edge sequence from ``root``."""
    dist, parent = dijkstra(graph, root)
    if len(dist) != graph.num_vertices:
        raise ValueError("graph not connected")
    order = sorted((d, v) for v, d in dist.items() if v != root)
    return [(parent[v], v) for _, v in order]


def _addition_order(tree: WeightedGraph, root: Vertex) -> list[tuple[Vertex, Vertex]]:
    """Order tree edges so each new edge attaches to the already-built part.

    For Prim we re-derive the addition order by growing the known MST from
    the root, always picking the lightest frontier edge (matching Prim's
    own order on the MST's edges).
    """
    import heapq
    from itertools import count

    in_tree = {root}
    tie = count()
    heap = [
        (w, next(tie), root, v) for v, w in tree.neighbor_weights(root).items()
    ]
    heapq.heapify(heap)
    order = []
    while heap:
        w, _, u, v = heapq.heappop(heap)
        if v in in_tree:
            continue
        in_tree.add(v)
        order.append((u, v))
        for x, wx in tree.neighbor_weights(v).items():
            if x not in in_tree:
                heapq.heappush(heap, (wx, next(tie), v, x))
    return order


class GrowthPlan:
    """Precomputed common knowledge for a full-information growth run.

    Everything here is a deterministic function of (graph, root), so under
    the paper's full-information assumption every vertex can compute it
    locally with zero communication; we compute it once and share it
    read-only among all processes.
    """

    def __init__(self, graph: WeightedGraph, root: Vertex,
                 order: list[tuple[Vertex, Vertex]]) -> None:
        self.graph = graph
        self.root = root
        self.order = order  # order[i] = (u, v): phase i+1 attaches v below u
        n = len(order) + 1
        self.parent: dict[Vertex, Vertex | None] = {root: None}
        self.children: dict[Vertex, list[Vertex]] = {root: []}
        self.join_phase: dict[Vertex, int] = {root: 0}
        # Cumulative *protocol* cost after each phase (root's precise
        # estimate): per phase, PHASE broadcast + READY convergecast over the
        # pre-phase tree plus JOIN + ACK over the new edge.
        self.phase_cost: list[float] = [0.0]
        tree_weight = 0.0
        total = 0.0
        for i, (u, v) in enumerate(order, start=1):
            total += 2.0 * tree_weight + 2.0 * graph.weight(u, v)
            self.phase_cost.append(total)
            self.parent[v] = u
            self.children[v] = []
            self.children[u].append(v)
            self.join_phase[v] = i
            tree_weight += graph.weight(u, v)
        self.num_phases = len(order)
        self.tree_weight = tree_weight

    def tree(self) -> WeightedGraph:
        """The final tree as a weighted graph."""
        t = WeightedGraph(vertices=self.graph.vertices)
        for u, v in self.order:
            t.add_edge(u, v, self.graph.weight(u, v))
        return t

    def children_before(self, v: Vertex, phase: int) -> list[Vertex]:
        """v's tree children among vertices joined strictly before ``phase``."""
        return [c for c in self.children[v] if self.join_phase[c] < phase]


# Message kinds.
_PHASE = "phase"    # (kind, i) broadcast down the pre-phase tree
_JOIN = "join"      # (kind, i) over the new edge
_ACK = "ack"        # (kind, i) back over the new edge
_READY = "ready"    # (kind, i) convergecast to the root
_DONE = "done"      # final broadcast


class FullInfoGrowthProcess(Process):
    """One node of MST_centr / SPT_centr."""

    def __init__(self, plan: GrowthPlan, governor: Governor | None = None,
                 algo_name: str = "centr", tag: str = "centr") -> None:
        self.plan = plan
        self.governor = governor if governor is not None else Governor()
        self.algo_name = algo_name
        self.tag = tag
        self._phase = 0
        self._ready_waiting = 0
        self._got_ack = False
        self._got_phase = False

    # -------------------------------------------------------------- #

    @property
    def is_root(self) -> bool:
        return self.node_id == self.plan.root

    def on_start(self) -> None:
        if self.is_root:
            self._start_next_phase()

    def _start_next_phase(self) -> None:
        """Root only: consult the governor, then launch phase _phase + 1."""
        if self._phase >= self.plan.num_phases:
            self._broadcast_done()
            return
        nxt = self._phase + 1
        estimate = self.plan.phase_cost[nxt]
        self.governor.request(self.algo_name, estimate,
                              lambda: self._launch_phase(nxt))

    def _launch_phase(self, i: int) -> None:
        self._phase = i
        self._begin_phase_local(i)

    def _begin_phase_local(self, i: int) -> None:
        """A tree member learns phase ``i`` started: forward and participate."""
        u, v = self.plan.order[i - 1]
        me = self.node_id
        kids = self.plan.children_before(me, i)
        for c in kids:
            self.send(c, (_PHASE, i), tag=self.tag)
        self._ready_waiting = len(kids)
        self._got_ack = me != u
        if me == u:
            self.send(v, (_JOIN, i), tag=self.tag)
        self._maybe_ready(i)

    def _maybe_ready(self, i: int) -> None:
        if self._ready_waiting == 0 and self._got_ack:
            if self.is_root:
                self._start_next_phase()
            else:
                self.send(self.plan.parent[self.node_id], (_READY, i), tag=self.tag)

    def _broadcast_done(self) -> None:
        if self.is_root:
            self.governor.algorithm_finished(self.algo_name, self.plan.phase_cost[-1])
        for c in self.plan.children[self.node_id]:
            self.send(c, (_DONE,), tag=self.tag)
        self.finish(self.plan.parent.get(self.node_id))

    # -------------------------------------------------------------- #

    def on_message(self, frm: Vertex, payload: Any) -> None:
        kind = payload[0]
        if kind == _PHASE:
            self._phase = payload[1]
            self._begin_phase_local(payload[1])
        elif kind == _JOIN:
            # This node just joined the tree at phase payload[1].
            self._phase = payload[1]
            self.send(frm, (_ACK, payload[1]), tag=self.tag)
        elif kind == _ACK:
            self._got_ack = True
            self._maybe_ready(payload[1])
        elif kind == _READY:
            self._ready_waiting -= 1
            self._maybe_ready(payload[1])
        elif kind == _DONE:
            self._broadcast_done()
        else:  # pragma: no cover
            raise AssertionError(f"unknown message {kind!r}")


def _growth_network(
    graph: WeightedGraph,
    root: Vertex,
    order: list[tuple[Vertex, Vertex]],
    algo_name: str,
    *,
    governor: Governor | None = None,
    delay: DelayModel | None = None,
    seed: int = 0,
    budget: float | None = None,
) -> Network:
    """A growth run's network along ``order``, not yet run."""
    plan = GrowthPlan(graph, root, order)
    gov = governor if governor is not None else Governor()
    return Network(
        graph,
        lambda v: FullInfoGrowthProcess(plan, gov, algo_name, algo_name),
        delay=delay,
        seed=seed,
        comm_budget=budget,
    )


def _growth_outcome(net: Network) -> tuple[RunResult, WeightedGraph | None]:
    """Run (or resume) a growth network; returns (run result, tree or None)."""
    result = net.run()
    if not net.all_finished:
        return result, None
    return result, next(iter(net.processes.values())).plan.tree()


def run_mst_centr(
    graph: WeightedGraph,
    root: Vertex,
    *,
    governor: Governor | None = None,
    delay: DelayModel | None = None,
    seed: int = 0,
    budget: float | None = None,
) -> tuple[RunResult, WeightedGraph | None]:
    """Run MST_centr; returns (run result, the MST or None on budget)."""
    return _growth_outcome(_growth_network(
        graph, root, prim_order(graph, root), "MST_centr",
        governor=governor, delay=delay, seed=seed, budget=budget))


def run_spt_centr(
    graph: WeightedGraph,
    root: Vertex,
    *,
    governor: Governor | None = None,
    delay: DelayModel | None = None,
    seed: int = 0,
    budget: float | None = None,
) -> tuple[RunResult, WeightedGraph | None]:
    """Run SPT_centr; returns (run result, the SPT or None on budget)."""
    return _growth_outcome(_growth_network(
        graph, root, dijkstra_order(graph, root), "SPT_centr",
        governor=governor, delay=delay, seed=seed, budget=budget))
