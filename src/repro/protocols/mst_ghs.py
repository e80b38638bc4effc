"""Distributed MST: algorithm MST_ghs (Section 8.1) and MST_fast (Section 8.3).

``MST_ghs`` is the Gallager-Humblet-Spira algorithm [GHS83]: fragments of
the MST grow by repeatedly locating their minimum-weight outgoing edge
(MOE) and merging across it, with *levels* pacing the merges so that every
vertex changes fragment O(log n) times.  In the weighted cost model this
gives communication ``O(script-E + script-V log n)`` (Lemma 8.1): every
non-tree edge is probed O(1) times (Test/Reject) and every tree edge
carries O(log n) coordination messages.

``MST_fast`` is the paper's Section 8.3 modification: to avoid serially
scanning heavy edges, each fragment searches for its MOE below a *guessed*
weight threshold, doubling the guess whenever the search comes back empty,
and vertices probe all their below-threshold edges *in parallel*.  This
removes the ``script-E`` term from the time complexity at the price of a
``log V`` factor in communication (Corollary 8.3).

Both share one implementation with a ``parallel_scan`` switch; the merge
machinery (Connect levels, Initiate waves, Report convergecast, deferred
message queues) is the classical GHS protocol.  Edge weights need not be
distinct: comparisons use the lexicographic key ``(w(e), repr(u), repr(v))``
so the computed tree is always *an* MST (unique under the extended order).
"""

from __future__ import annotations

import math
from typing import Any

from ..faults.plan import FaultPlan
from ..faults.transport import reliable_factory
from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network, RunResult, all_finished
from ..sim.process import Process

__all__ = ["GhsProcess", "run_mst_ghs", "run_mst_fast"]

# Edge states.
_BASIC = "basic"
_BRANCH = "branch"
_REJECTED = "rejected"

_INF_KEY = (math.inf, "", "")


def _wkey(weight: float, a: Vertex, b: Vertex) -> tuple:
    """Totally ordered edge key: lexicographic (weight, endpoints)."""
    ra, rb = repr(a), repr(b)
    if ra > rb:
        ra, rb = rb, ra
    return (weight, ra, rb)


class GhsProcess(Process):
    """One node of GHS (serial scan) or MST_fast (threshold parallel scan)."""

    def __init__(self, parallel_scan: bool = False,
                 n_total: int | None = None) -> None:
        self.parallel_scan = parallel_scan
        # Full-information assumption (Section 1.4.1): n is common
        # knowledge, letting a fragment that spans all n vertices halt by
        # member count instead of probing its remaining heavy edges.
        self.n_total = n_total
        self._size_acc = 1
        # Core GHS state.
        self.state = "sleeping"            # sleeping | find | found
        self.level = 0
        self.fragment: tuple = ()          # fragment name (core edge key)
        self.edge_state: dict[Vertex, str] = {}
        self.in_branch: Vertex | None = None
        self.find_count = 0
        self.best_edge: Vertex | None = None
        self.best_key: tuple = _INF_KEY
        # Search state.
        self.test_edge: Vertex | None = None   # serial mode
        self.outstanding: set[Vertex] = set()      # parallel mode
        self.threshold: float = 1.0                # parallel mode guess
        self.local_candidate: tuple = _INF_KEY
        self.local_candidate_edge: Vertex | None = None
        self.halted = False
        self.leader: Vertex | None = None  # set when HALT propagates
        self._child_more = False  # a child subtree has unprobed heavy edges
        self._deferred: list[tuple[Vertex, Any]] = []

    # -------------------------------------------------------------- #
    # Helpers
    # -------------------------------------------------------------- #

    def _key(self, nbr: Vertex) -> tuple:
        return _wkey(self.edge_weight(nbr), self.node_id, nbr)

    def _basic_edges(self) -> list[Vertex]:
        return [v for v, s in self.edge_state.items() if s == _BASIC]

    def _branch_edges(self) -> list[Vertex]:
        return [v for v, s in self.edge_state.items() if s == _BRANCH]

    # -------------------------------------------------------------- #
    # Wakeup (every node wakes spontaneously at start; the paper's
    # wake-up *stage* is charged separately by the callers that use it)
    # -------------------------------------------------------------- #

    def on_start(self) -> None:
        self.edge_state = {v: _BASIC for v in self.neighbors()}
        self._wakeup()

    def _wakeup(self) -> None:
        if self.state != "sleeping":
            return
        m = min(self._basic_edges(), key=self._key)
        self.edge_state[m] = _BRANCH
        self.level = 0
        self.state = "found"
        self.find_count = 0
        self.send(m, ("connect", 0, self.threshold), tag="ghs-connect")

    # -------------------------------------------------------------- #
    # Message pump with deferral
    # -------------------------------------------------------------- #

    def on_message(self, frm: Vertex, payload: Any) -> None:
        if self.halted:
            return
        if not self._try(frm, payload):
            self._deferred.append((frm, payload))
        else:
            self._drain()

    def _drain(self) -> None:
        progressed = True
        while progressed and not self.halted:
            progressed = False
            for item in list(self._deferred):
                if item not in self._deferred:
                    continue
                frm, payload = item
                if self._try(frm, payload):
                    self._deferred.remove(item)
                    progressed = True

    def _try(self, frm: Vertex, payload: Any) -> bool:
        """Handle one message; return False to defer it."""
        kind = payload[0]
        if kind == "connect":
            return self._on_connect(frm, payload[1], payload[2])
        if kind == "initiate":
            self._on_initiate(frm, *payload[1:])
            return True
        if kind == "test":
            return self._on_test(frm, payload[1], payload[2])
        if kind == "accept":
            self._on_accept(frm)
            return True
        if kind == "reject":
            self._on_reject(frm)
            return True
        if kind == "report":
            return self._on_report(frm, payload[1], payload[2], payload[3])
        if kind == "change_root":
            self._change_root()
            return True
        if kind == "halt":
            self._on_halt(frm, payload[1])
            return True
        raise AssertionError(f"unknown GHS message {kind!r}")  # pragma: no cover

    # -------------------------------------------------------------- #
    # Connect / Initiate (fragment merging)
    # -------------------------------------------------------------- #

    def _on_connect(self, frm: Vertex, level: int, their_threshold: float) -> bool:
        if level < self.level:
            # Absorb the lower-level fragment immediately.
            self.edge_state[frm] = _BRANCH
            self.send(
                frm,
                ("initiate", self.level, self.fragment, self.state,
                 self.threshold),
                tag="ghs-initiate",
            )
            if self.state == "find":
                self.find_count += 1
            return True
        if self.edge_state[frm] == _BASIC:
            return False  # defer until our level rises or we connect on frm
        # Merge: both fragments chose this edge; new core = this edge.  The
        # merged threshold MUST be computed symmetrically from both sides'
        # values (carried in the Connect): if the two halves searched under
        # different thresholds, each could report a different "minimum"
        # outgoing edge and two fragments could deadlock on crossed
        # Connects (regression: seed 57 in the tests).
        new_threshold = max(self.threshold, their_threshold,
                            self.edge_weight(frm))
        self.send(
            frm,
            ("initiate", self.level + 1, self._key(frm), "find", new_threshold),
            tag="ghs-initiate",
        )
        return True

    def _on_initiate(self, frm: Vertex, level: int, fragment: tuple,
                     state: str, threshold: float) -> None:
        self.level = level
        self.fragment = fragment
        self.state = state
        self.threshold = threshold
        self.in_branch = frm
        self.best_edge = None
        self.best_key = _INF_KEY
        self.find_count = 0
        self._child_more = False
        self._size_acc = 1
        for v in self._branch_edges():
            if v != frm:
                self.send(
                    v, ("initiate", level, fragment, state, threshold),
                    tag="ghs-initiate",
                )
                if state == "find":
                    self.find_count += 1
        if state == "find":
            self._start_search()

    # -------------------------------------------------------------- #
    # MOE search
    # -------------------------------------------------------------- #

    def _start_search(self) -> None:
        self.local_candidate = _INF_KEY
        self.local_candidate_edge = None
        if self.parallel_scan:
            self.outstanding = set()
            for v in self._basic_edges():
                if self.edge_weight(v) <= self.threshold:
                    self.outstanding.add(v)
                    self.send(v, ("test", self.level, self.fragment),
                              tag="ghs-test")
            if not self.outstanding:
                self._search_done()
        else:
            self._test_next()

    def _test_next(self) -> None:
        basics = self._basic_edges()
        if basics:
            self.test_edge = min(basics, key=self._key)
            self.send(
                self.test_edge, ("test", self.level, self.fragment),
                tag="ghs-test",
            )
        else:
            self.test_edge = None
            self._search_done()

    def _on_test(self, frm: Vertex, level: int, fragment: tuple) -> bool:
        if level > self.level:
            return False  # defer until we catch up
        if fragment != self.fragment:
            self.send(frm, ("accept",), tag="ghs-test")
            return True
        # Same fragment: this edge is internal.
        if self.edge_state[frm] == _BASIC:
            self.edge_state[frm] = _REJECTED
        if self.parallel_scan:
            if frm in self.outstanding:
                # Symmetric probe: their Test answers ours; no reply needed.
                self.outstanding.discard(frm)
                self._maybe_search_done()
            else:
                self.send(frm, ("reject",), tag="ghs-test")
        else:
            if self.test_edge != frm:
                self.send(frm, ("reject",), tag="ghs-test")
            else:
                self._test_next()
        return True

    def _on_accept(self, frm: Vertex) -> None:
        key = self._key(frm)
        if self.parallel_scan:
            self.outstanding.discard(frm)
            if key < self.local_candidate:
                self.local_candidate = key
                self.local_candidate_edge = frm
            self._maybe_search_done()
        else:
            self.test_edge = None
            if key < self.best_key:
                self.best_key = key
                self.best_edge = frm
            self._report()

    def _on_reject(self, frm: Vertex) -> None:
        if self.edge_state[frm] == _BASIC:
            self.edge_state[frm] = _REJECTED
        if self.parallel_scan:
            self.outstanding.discard(frm)
            self._maybe_search_done()
        else:
            self._test_next()

    def _maybe_search_done(self) -> None:
        if not self.outstanding:
            self._search_done()

    def _search_done(self) -> None:
        """Local scan finished; fold the local candidate into best."""
        if self.parallel_scan:
            if self.local_candidate < self.best_key:
                self.best_key = self.local_candidate
                self.best_edge = self.local_candidate_edge
        self._report()

    # -------------------------------------------------------------- #
    # Report convergecast and core decision
    # -------------------------------------------------------------- #

    def _search_pending(self) -> bool:
        if self.parallel_scan:
            return bool(self.outstanding)
        return self.test_edge is not None

    def _has_more(self) -> bool:
        """Parallel mode: basic edges above the threshold remain unprobed."""
        if not self.parallel_scan:
            return False
        return any(
            self.edge_weight(v) > self.threshold for v in self._basic_edges()
        )

    def _report(self) -> None:
        if self.find_count == 0 and not self._search_pending() \
                and self.state == "find":
            self.state = "found"
            self.send(
                self.in_branch,
                ("report", self.best_key,
                 self._has_more() or self._child_more, self._size_acc),
                tag="ghs-report",
            )

    def _on_report(self, frm: Vertex, key: tuple, more: bool,
                   size: int) -> bool:
        if frm != self.in_branch:
            # A child subtree reports.
            self.find_count -= 1
            self._size_acc += size
            if key < self.best_key:
                self.best_key = key
                self.best_edge = frm
            if more:
                self._child_more = True
            self._report()
            return True
        # Report over the core edge.
        if self.state == "find":
            return False  # defer until our own side finished
        total = (self._size_acc + size) if self.n_total is not None else None
        if total is not None and total == self.n_total:
            # The fragment spans the whole network: done, regardless of any
            # unprobed heavy edges (they are all internal).
            self._on_halt(None, self._elect_leader())
            return True
        if key > self.best_key:
            self._change_root()
            return True
        if self.best_key == _INF_KEY and key == _INF_KEY:
            # Empty search.  In parallel mode the `more` bits can be stale:
            # a lower-level fragment absorbed *after* a member reported
            # flips a basic edge to branch and hides its subtree's unprobed
            # edges from this round's aggregate.  The only sound halt
            # criterion is the member count; anything less means an
            # outgoing edge exists above the threshold, so double and
            # search again.  (Serial scans cannot reach an empty result
            # while basic edges remain -- the Test deferral rule blocks
            # them -- so for them this branch always halts, as in GHS.)
            incomplete = total is not None and total < self.n_total
            combined_more = more or self._has_more() or self._child_more
            if self.parallel_scan and (combined_more or incomplete):
                self._redouble()
            else:
                self._on_halt(None, self._elect_leader())
            return True
        # The other side owns the better edge; it will act.
        return True

    def _redouble(self) -> None:
        """Empty search below the guess: double it and search again (8.3)."""
        self.threshold *= 2.0
        self._child_more = False
        self._re_initiate()

    def _re_initiate(self) -> None:
        """Re-run the find phase on this core node's side of the fragment."""
        self.state = "find"
        self.best_edge = None
        self.best_key = _INF_KEY
        self.find_count = 0
        self._child_more = False
        self._size_acc = 1
        for v in self._branch_edges():
            if v != self.in_branch:
                self.send(
                    v,
                    ("initiate", self.level, self.fragment, "find",
                     self.threshold),
                    tag="ghs-initiate",
                )
                self.find_count += 1
        self._start_search()

    # -------------------------------------------------------------- #
    # Root relocation / termination
    # -------------------------------------------------------------- #

    def _change_root(self) -> None:
        if self.best_edge is None:  # pragma: no cover - protocol invariant
            raise AssertionError("change_root without best edge")
        if self.edge_state[self.best_edge] == _BRANCH:
            self.send(self.best_edge, ("change_root",), tag="ghs-report")
        else:
            self.send(self.best_edge,
                      ("connect", self.level, self.threshold),
                      tag="ghs-connect")
            self.edge_state[self.best_edge] = _BRANCH

    def _elect_leader(self) -> Vertex:
        """Deterministic leader: the larger-repr endpoint of the core edge.

        Only core nodes decide halting, and for them ``in_branch`` is the
        core edge's other endpoint, so both deciders compute the same
        leader — the paper's MST -> leader election reduction ([Awe87]).
        """
        return max(self.node_id, self.in_branch, key=repr)

    def _on_halt(self, frm: Vertex | None, leader: Vertex) -> None:
        if self.halted:
            return
        self.halted = True
        self.leader = leader
        for v in self._branch_edges():
            if v != frm:
                self.send(v, ("halt", leader), tag="ghs-halt")
        self.finish(sorted(self._branch_edges(), key=repr))


def _collect_tree(graph: WeightedGraph, result: RunResult) -> WeightedGraph:
    tree = WeightedGraph(vertices=graph.vertices)
    for v, proc in result.processes.items():
        for u in proc._branch_edges():
            if not tree.has_edge(u, v):
                tree.add_edge(u, v, graph.weight(u, v))
    return tree


def _ghs_network(graph: WeightedGraph, parallel_scan: bool, delay,
                 seed: int,
                 budget: float | None = None,
                 faults: FaultPlan | None = None,
                 reliable: bool = False,
                 ) -> Network:
    """A GHS run's network, not yet run."""
    if graph.num_vertices < 2:
        raise ValueError("GHS needs at least two vertices")
    n = graph.num_vertices
    factory = lambda v: GhsProcess(parallel_scan, n_total=n)
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


def _ghs_outcome(net: Network, max_events: int = 20_000_000,
                 ) -> tuple[RunResult, WeightedGraph | None]:
    """Run (or resume) a GHS network; returns (run result, MST or None)."""
    result = net.run(stop_when=all_finished, max_events=max_events)
    if not net.all_finished:
        if net.comm_budget is not None or net.faults is not None:
            # Detectable abort: budget enforcement, or a fault adversary
            # the protocol could not survive (RunResult.status says which).
            return result, None
        raise RuntimeError("GHS did not terminate")
    return result, _collect_tree(net.graph, result)


def run_mst_ghs(
    graph: WeightedGraph,
    *,
    delay: DelayModel | None = None,
    seed: int = 0,
    max_events: int = 20_000_000,
    budget: float | None = None,
    faults: FaultPlan | None = None,
    reliable: bool = False,
) -> tuple[RunResult, WeightedGraph | None]:
    """Algorithm MST_ghs: classical GHS (serial edge scan)."""
    return _ghs_outcome(_ghs_network(graph, False, delay, seed, budget,
                                     faults, reliable),
                        max_events)


def run_mst_fast(
    graph: WeightedGraph,
    *,
    delay: DelayModel | None = None,
    seed: int = 0,
    max_events: int = 20_000_000,
    budget: float | None = None,
    faults: FaultPlan | None = None,
    reliable: bool = False,
) -> tuple[RunResult, WeightedGraph | None]:
    """Algorithm MST_fast: guess-doubling threshold + parallel edge scan."""
    return _ghs_outcome(_ghs_network(graph, True, delay, seed, budget,
                                     faults, reliable),
                        max_events)
