"""Distributed depth-first search with doubling root estimates (Section 6.2).

A token carries the algorithm's *center of activity* through the graph in
DFS order; every edge is traversed O(1) times, so the communication and
time complexities are both ``O(script-E)`` (Fact 6.2).

Following the paper, the algorithm maintains two estimates of the total
weight traversed so far:

* ``EST_C`` — the *center estimate*, carried inside the token and bumped by
  ``w(e)`` on every traversal;
* ``EST_R`` — the *root estimate*, stored at the root and refreshed (via a
  message routed up the DFS tree) whenever the center is about to traverse
  an edge that would make ``EST_C`` double the current ``EST_R``.

The refresh is implemented as a request/permit round trip so that the root
can *suspend* the search by withholding the permit — exactly the mechanism
the hybrid algorithms of Sections 7.2 / 8.2 need.  Suspension policy is
pluggable via a :class:`Governor`; the default grants immediately.  The
geometric spacing of refreshes keeps their total cost within a constant
factor of ``EST_C`` (the paper's "sum of a geometric progression").
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

__all__ = ["Governor", "DfsProcess", "run_dfs"]


class Governor:
    """Root-side admission policy for estimate refreshes.

    ``request(algo, new_estimate, grant)`` is called at the root whenever an
    algorithm raises its root estimate; calling ``grant()`` (immediately or
    later) lets the algorithm proceed.  Subclasses implement suspension
    policies; the default is always-grant.
    """

    def request(self, algo: str, new_estimate: float, grant: Callable[[], None]) -> None:
        grant()

    def algorithm_finished(self, algo: str, final_cost: float) -> None:
        """Notification hook: ``algo`` completed with the given root estimate."""


# Message kinds (first tuple element of every payload).
_TOKEN = "token"      # explore: (kind, est_c, est_r)
_BACK = "back"        # bounced off an already-visited node
_RETURN = "return"    # subtree finished, token returns to parent
_UPDATE = "update"    # (kind, value, path) routed up to the root
_PERMIT = "permit"    # (kind, est_r, path) routed back down


class DfsProcess(Process):
    """One node of the token-DFS protocol."""

    def __init__(self, is_root: bool, governor: Governor | None = None,
                 algo_name: str = "DFS") -> None:
        self.is_root = is_root
        self.governor = governor if governor is not None else Governor()
        self.algo_name = algo_name
        self.visited = False
        self.parent: Vertex | None = None
        self._unexplored: list[Vertex] = []
        self._pending: tuple[Vertex, float, float] | None = None
        self.est_root = 0.0  # meaningful at the root only
        self.children: list[Vertex] = []  # DFS tree children (filled as we go)

    # -------------------------------------------------------------- #

    def on_start(self) -> None:
        self._unexplored = list(self.neighbors())
        if self.is_root:
            self.visited = True
            self._proceed(est_c=0.0, est_r=0.0)

    def on_message(self, frm: Vertex, payload: Any) -> None:
        kind = payload[0]
        if kind == _TOKEN:
            _, est_c, est_r = payload
            if self.visited:
                self.send(frm, (_BACK, est_c + self.edge_weight(frm), est_r),
                          tag="dfs")
                return
            self.visited = True
            self.parent = frm
            if frm in self._unexplored:
                self._unexplored.remove(frm)
            self._proceed(est_c, est_r)
        elif kind == _BACK:
            _, est_c, est_r = payload
            self._proceed(est_c, est_r)
        elif kind == _RETURN:
            _, est_c, est_r = payload
            self.children.append(frm)
            self._proceed(est_c, est_r)
        elif kind == _UPDATE:
            _, value, path = payload
            if self.is_root:
                self.est_root = value
                self.governor.request(
                    self.algo_name, value, lambda: self._send_permit(value, path)
                )
            else:
                self.send(self.parent, (_UPDATE, value, path + [self.node_id]),
                          tag="dfs-control")
        elif kind == _PERMIT:
            _, est_r, path = payload
            if path and path[-1] == self.node_id:
                path = path[:-1]
            if path:
                self.send(path[-1], (_PERMIT, est_r, path), tag="dfs-control")
            else:
                self._resume(est_r)
        else:  # pragma: no cover
            raise AssertionError(f"unknown DFS message {kind!r}")

    # -------------------------------------------------------------- #

    def _proceed(self, est_c: float, est_r: float) -> None:
        """The token is at this node; explore the next edge or retreat."""
        if self._unexplored:
            nxt = self._unexplored.pop(0)
            w = self.edge_weight(nxt)
            if est_c + w > 2.0 * est_r:
                # Refresh the root estimate before traversing (paper's rule:
                # never let EST_C exceed twice EST_R).
                self._pending = (nxt, est_c, est_c + w)
                self._request_update(est_c + w)
                return
            self.send(nxt, (_TOKEN, est_c + w, est_r), tag="dfs")
            return
        # All edges done here: retreat or finish.
        if self.parent is not None:
            w = self.edge_weight(self.parent)
            self.send(self.parent, (_RETURN, est_c + w, est_r), tag="dfs")
            self.finish(None)
        else:
            self.est_root = max(self.est_root, est_c)
            self.governor.algorithm_finished(self.algo_name, self.est_root)
            self.finish(est_c)

    def _request_update(self, value: float) -> None:
        if self.is_root:
            # Root refreshes locally but still consults the governor so a
            # hybrid can suspend the search at the root.
            self.est_root = value
            self.governor.request(self.algo_name, value,
                                  lambda: self._resume(value))
        else:
            self.send(self.parent, (_UPDATE, value, [self.node_id]),
                      tag="dfs-control")

    def _send_permit(self, est_r: float, path: list) -> None:
        """Root grants: route the permit back down the recorded path."""
        if not path:
            self._resume(est_r)
            return
        self.send(path[-1], (_PERMIT, est_r, path), tag="dfs-control")

    def _resume(self, est_r: float) -> None:
        nxt, est_c, _ = self._pending
        self._pending = None
        self.send(nxt, (_TOKEN, est_c + self.edge_weight(nxt), est_r), tag="dfs")


def run_dfs(
    graph: WeightedGraph,
    root: Vertex,
    *,
    governor: Governor | None = None,
    delay: DelayModel | None = None,
    seed: int = 0,
    budget: float | None = None,
    faults: FaultPlan | None = None,
    reliable: bool = False,
) -> tuple[RunResult, WeightedGraph | None]:
    """Run token DFS from ``root``; returns (run result, DFS spanning tree).

    With a ``budget``, the run stops at the first send that would take the
    communication cost past it and the tree is returned as ``None`` (the
    hybrid racers of Section 7.2 resume such a run under doubling budgets).
    The same ``None``-tree contract covers a run stalled by a ``faults``
    adversary; ``reliable=True`` adds the retransmitting transport.
    """
    net = _dfs_network(graph, root, governor=governor, delay=delay,
                       seed=seed, budget=budget, faults=faults,
                       reliable=reliable)
    return _dfs_outcome(net, root)


def _dfs_network(
    graph: WeightedGraph,
    root: Vertex,
    *,
    governor: Governor | None = None,
    delay: DelayModel | None = None,
    seed: int = 0,
    budget: float | None = None,
    faults: FaultPlan | None = None,
    reliable: bool = False,
) -> Network:
    """:func:`run_dfs`'s network, not yet run."""
    factory = lambda v: DfsProcess(v == root, governor)
    if reliable:
        factory = reliable_factory(factory)
    return Network(
        graph,
        factory,
        delay=delay,
        seed=seed,
        comm_budget=budget,
        faults=faults,
    )


def _dfs_outcome(
    net: Network, root: Vertex
) -> tuple[RunResult, WeightedGraph | None]:
    """Run (or resume) a DFS network; returns (run result, tree or None)."""
    result = net.run()
    if not result.processes[root].ctx.is_finished:
        return result, None
    graph = net.graph
    tree = WeightedGraph(vertices=graph.vertices)
    for v, proc in result.processes.items():
        if proc.parent is not None:
            tree.add_edge(proc.parent, v, graph.weight(proc.parent, v))
    return result, tree
