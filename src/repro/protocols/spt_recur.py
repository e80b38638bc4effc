"""Algorithm SPT_recur (Section 9.2): strips over the unit-expanded graph.

A weighted SPT problem reduces to BFS on the *unit expansion* ``G_b``:
every edge of integer weight ``w`` becomes a path of ``w`` unit edges
through ``w - 1`` dummy vertices.  The BFS tree of ``G_b`` restricted to
real vertices is the SPT of ``G`` (Section 9.2's reduction).

BFS itself follows the DIJKSTRA / strip method of [Awe89] (Figure 9): the
``script-D`` BFS layers are sliced into strips of ``d`` layers each,
processed sequentially:

* between strips, a *global* synchronization runs over the already-built
  (static) BFS tree: the source broadcasts GO(k) down the tree and
  collects DONE(k) reports back;
* within a strip, exploration is asynchronous: a vertex whose distance
  estimate improves re-explores its neighbors (bounded Bellman-Ford,
  capped at the strip's far boundary), and Dijkstra-Scholten [DS80]
  ack-counting detects the strip's termination — every EXPLORE and
  child-pointer update is acknowledged, and a vertex holds back its
  *engager's* ack until its own activity has quiesced.  At each strip
  boundary every distance up to the boundary is final, so errors never
  propagate past one strip.

The strip length ``d`` is the communication/time trade-off knob: per strip
the global synchronization costs O(n) messages while intra-strip
corrections are confined to d layers, giving roughly
``O(E + (D/d) n)`` communication and ``O(D^2 / d + D)`` time (the paper's
recursive construction sharpens this to ``O(E^{1+eps})`` / ``O(D^{1+eps})``;
see DESIGN.md for the substitution note).
"""

from __future__ import annotations

import math
from typing import Any

from ..graphs.paths import diameter
from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network, RunResult, all_finished
from ..sim.process import Process

__all__ = ["unit_expansion", "StripBfsProcess", "run_spt_recur"]


def unit_expansion(graph: WeightedGraph) -> tuple[WeightedGraph, dict]:
    """Expand integer-weighted ``graph`` into a unit-weight graph.

    Returns ``(G_b, info)`` where dummy vertices are
    ``("dummy", u, v, index)`` for the canonical edge (u, v), and ``info``
    maps each dummy to its host edge.
    """
    g = WeightedGraph(vertices=graph.vertices)
    info: dict = {}
    for u, v, w in graph.edges():
        if w != int(w):
            raise ValueError("unit expansion needs integer weights")
        w = int(w)
        if w == 1:
            g.add_edge(u, v, 1.0)
            continue
        a, b = (u, v) if repr(u) <= repr(v) else (v, u)
        chain = [a] + [("dummy", a, b, i) for i in range(w - 1)] + [b]
        for x, y in zip(chain, chain[1:]):  # noqa: B905  # pairwise walk wants the short zip
            g.add_edge(x, y, 1.0)
        for i in range(w - 1):
            info[("dummy", a, b, i)] = (a, b)
    return g, info


# Message kinds.
_EXPLORE = "explore"      # (kind, dist): adopt dist if better
_ACK = "ack"              # (kind, adopted_count)
_CHILD_ADD = "child_add"  # (kind, dist_of_child): (re)register at parent
_CHILD_DEL = "child_del"  # (kind,)
_GO = "go"                # (kind, strip_index)
_DONE = "done"            # (kind, strip_index, newly_adopted_in_subtree)
_FINISH = "finish"        # (kind,)


class StripBfsProcess(Process):
    """One (real or dummy) vertex of the strip BFS."""

    def __init__(self, is_source: bool, stride: int, n_total: int) -> None:
        self.is_source = is_source
        self.stride = stride
        self.n_total = n_total
        self.dist: float = 0.0 if is_source else math.inf
        self.parent: Vertex | None = None
        self.children: dict[Vertex, float] = {}  # child -> its latest dist
        # Dijkstra-Scholten engagement state.
        self.deficit = 0
        self.engager: Vertex | None = None
        self.adopted_acc = 0   # adoption counts accumulated toward our ack
        # Strip control plane (valid once GO reached us / at the source).
        self.control_strip = -1
        self.explore_strip = 0 if is_source else -1
        self._done_waiting = 0
        self._done_adopted = 0
        self._reported = True
        self.total_discovered = 1  # source only

    # -------------------------------------------------------------- #
    # Strip control plane
    # -------------------------------------------------------------- #

    def on_start(self) -> None:
        if self.is_source:
            self._begin_strip(0)

    def _strip_hi(self) -> int:
        return (self.explore_strip + 1) * self.stride

    def _begin_strip(self, strip: int) -> None:
        """Runs at every static-tree vertex when GO(strip) reaches it."""
        self.control_strip = strip
        self._reported = False
        self._done_adopted = 0
        boundary = strip * self.stride
        static_children = [c for c, d in self.children.items() if d <= boundary]
        self._done_waiting = len(static_children)
        for c in static_children:
            self.send(c, (_GO, strip), tag="bfs-sync")
        if self.dist == boundary:
            # This vertex is a strip source: explore the next layers.
            self.explore_strip = strip
            self._explore_neighbors()
        self._maybe_done()

    def _maybe_done(self) -> None:
        if self._reported or self.control_strip < 0:
            return
        if self._done_waiting > 0 or self.deficit > 0:
            return
        self._reported = True
        adopted = self._done_adopted + self.adopted_acc
        self.adopted_acc = 0
        if self.is_source:
            self.total_discovered += adopted
            if self.total_discovered >= self.n_total:
                self._finish_all()
            else:
                self._begin_strip(self.control_strip + 1)
        else:
            self.send(self.parent, (_DONE, self.control_strip, adopted),
                      tag="bfs-sync")

    def _finish_all(self) -> None:
        for c in self.children:
            self.send(c, (_FINISH,), tag="bfs-sync")
        self.finish((self.dist, self.parent))

    # -------------------------------------------------------------- #
    # Exploration data plane (Dijkstra-Scholten accounted)
    # -------------------------------------------------------------- #

    def _explore_neighbors(self) -> None:
        if self.dist + 1 > self._strip_hi():
            return
        for v in self.neighbors():
            if v != self.parent:
                self.deficit += 1
                self.send(v, (_EXPLORE, self.dist + 1), tag="bfs-explore")

    def _ds_send(self, to: Vertex, payload: Any, tag: str) -> None:
        """Send an acknowledged bookkeeping message under DS accounting."""
        self.deficit += 1
        self.send(to, payload, tag=tag)

    def _ack(self, to: Vertex, adopted: int) -> None:
        self.send(to, (_ACK, adopted), tag="bfs-ack")

    def _quiesce_check(self) -> None:
        if self.deficit == 0:
            if self.engager is not None:
                engager, self.engager = self.engager, None
                self._ack(engager, self.adopted_acc)
                self.adopted_acc = 0
            self._maybe_done()

    # -------------------------------------------------------------- #

    def on_message(self, frm: Vertex, payload: Any) -> None:
        kind = payload[0]
        if kind == _EXPLORE:
            self._on_explore(frm, payload[1])
        elif kind == _ACK:
            self.deficit -= 1
            self.adopted_acc += payload[1]
            self._quiesce_check()
        elif kind == _CHILD_ADD:
            self.children[frm] = payload[1]
            self._ack(frm, 0)
        elif kind == _CHILD_DEL:
            self.children.pop(frm, None)
            self._ack(frm, 0)
        elif kind == _GO:
            self._begin_strip(payload[1])
        elif kind == _DONE:
            self._done_waiting -= 1
            self._done_adopted += payload[2]
            self._maybe_done()
        elif kind == _FINISH:
            self._finish_all()
        else:  # pragma: no cover
            raise AssertionError(f"unknown strip-BFS message {kind!r}")

    def _on_explore(self, frm: Vertex, dist: float) -> None:
        if dist >= self.dist:
            self._ack(frm, 0)
            return
        # Adopt the better distance (bounded Bellman-Ford within the strip).
        first_adoption = self.dist == math.inf
        old_parent = self.parent
        self.dist = dist
        self.parent = frm
        # Strip this distance belongs to: dist in (k*d, (k+1)*d] -> k.
        self.explore_strip = int(dist - 1) // self.stride if dist > 0 else 0
        adopted_count = 1 if first_adoption else 0

        # Refresh child pointers (DS-accounted so quiescence covers them).
        if old_parent is not None and old_parent != frm:
            self._ds_send(old_parent, (_CHILD_DEL,), tag="bfs-child")
        self._ds_send(frm, (_CHILD_ADD, dist), tag="bfs-child")
        # Re-explore with the improved distance.
        self._explore_neighbors()

        if self.engager is None:
            # Become engaged to this sender: hold its ack until quiescent.
            self.engager = frm
            self.adopted_acc += adopted_count
            self._quiesce_check()  # may ack immediately if nothing pending
        else:
            # Already engaged elsewhere; that engagement covers our new
            # activity, so this explore can be acked right away.
            self._ack(frm, adopted_count)


def run_spt_recur(
    graph: WeightedGraph,
    source: Vertex,
    *,
    stride: int | None = None,
    delay: DelayModel | None = None,
    seed: int = 0,
    max_events: int = 20_000_000,
    budget: float | None = None,
) -> tuple[RunResult, WeightedGraph | None]:
    """Algorithm SPT_recur: strip BFS on the unit expansion of ``graph``.

    Returns (run result on the expanded graph, the SPT of the original
    graph).  ``stride`` defaults to ``ceil(sqrt(script-D))`` — balancing
    the per-strip synchronization against intra-strip corrections.
    """
    net = _spt_recur_network(graph, source, stride=stride, delay=delay,
                             seed=seed, budget=budget)
    return _spt_recur_outcome(net, graph, source, max_events)


def _spt_recur_network(
    graph: WeightedGraph,
    source: Vertex,
    *,
    stride: int | None = None,
    delay: DelayModel | None = None,
    seed: int = 0,
    budget: float | None = None,
) -> Network:
    """:func:`run_spt_recur`'s network on the unit expansion, not yet run."""
    expanded, _ = unit_expansion(graph)
    if stride is None:
        stride = max(1, math.ceil(math.sqrt(diameter(graph))))
    n_total = expanded.num_vertices
    return Network(
        expanded,
        lambda v: StripBfsProcess(v == source, stride, n_total),
        delay=delay,
        seed=seed,
        comm_budget=budget,
    )


def _spt_recur_outcome(
    net: Network, graph: WeightedGraph, source: Vertex,
    max_events: int = 20_000_000,
) -> tuple[RunResult, WeightedGraph | None]:
    """Run (or resume) an SPT_recur network; returns (run result on the
    expansion, the SPT of ``graph`` or None on budget)."""
    result = net.run(stop_when=all_finished, max_events=max_events)
    if not net.all_finished:
        if net.comm_budget is not None:
            return result, None
        raise RuntimeError("SPT_recur did not terminate")

    # Project the BFS tree of the expansion back onto the real vertices:
    # walk each real vertex's parent chain through dummies (the vertices
    # the expansion added) to the first real ancestor.
    tree = WeightedGraph(vertices=graph.vertices)
    real = set(graph.vertices)
    parent_of = {v: p.parent for v, p in result.processes.items()}
    dist_of = {v: p.dist for v, p in result.processes.items()}
    for v in graph.vertices:
        if dist_of[v] == math.inf:
            raise RuntimeError(f"vertex {v!r} never discovered")
        if v == source:
            continue
        anc = parent_of[v]
        while anc is not None and anc not in real:
            anc = parent_of[anc]
        if anc is None:
            raise RuntimeError(f"vertex {v!r} has no real ancestor")
        if not tree.has_edge(anc, v):
            tree.add_edge(anc, v, graph.weight(anc, v))
    return result, tree
