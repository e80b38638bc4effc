"""Synchronizer gamma ([Awe85a]) — the per-level building block of gamma_w.

Gamma combines the two trivial synchronizers: *beta* inside each cluster
(convergecast safety to the leader, broadcast the verdict back down) and
*alpha* between clusters (neighboring clusters exchange "my cluster is
safe" over preferred edges).  Per super-pulse ``P`` at each cluster:

1. every member reports ``SUBTREE_SAFE(P)`` to its tree parent once it is
   safe for P and all its tree children have reported;
2. the leader, once its whole cluster is safe, broadcasts
   ``CLUSTER_SAFE(P)`` down the tree;
3. members incident to preferred edges forward ``NBR_SAFE(P)`` across them,
   and the receiving cluster routes each such notice up to its leader;
4. the leader, once its own cluster and *all* neighboring clusters are
   safe for P, broadcasts ``GO(P+1)``; receiving GO is the permission for
   a member to generate (super-)pulse P+1.

The class below is one node's gamma state machine, written transport-
agnostically: the host supplies ``send(neighbor, message)`` and receives
``on_go(P)`` callbacks, so the same logic runs inside the gamma_w host
process (one instance per weight level) and in unit tests.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Callable
from typing import Any

from ..graphs.weighted_graph import Vertex
from .partition import ClusterPartition

__all__ = ["GammaNode"]

# Message kinds.
SUBTREE_SAFE = "subtree_safe"   # (kind, P)
CLUSTER_SAFE = "cluster_safe"   # (kind, P) broadcast down the tree
NBR_SAFE = "nbr_safe"           # (kind, P, from_cluster) across a preferred edge
NBR_RELAY = "nbr_relay"         # (kind, P, from_cluster) routed up to leader
GO = "go"                       # (kind, P) broadcast down the tree


class GammaNode:
    """One node's synchronizer-gamma state for one partition level.

    Parameters
    ----------
    node_id: this vertex.
    partition: the cluster partition this level runs on.
    send: ``send(neighbor, message)`` — transport provided by the host;
        messages are tuples as documented above.
    on_go: callback invoked with ``P`` when this node receives (or, at the
        leader, decides) permission to generate super-pulse ``P``.
    """

    def __init__(
        self,
        node_id: Vertex,
        partition: ClusterPartition,
        send: Callable[[Vertex, Any], None],
        on_go: Callable[[int], None],
    ) -> None:
        self.node_id = node_id
        self.send = send
        self.on_go = on_go
        cluster = partition.clusters[partition.cluster_of[node_id]]
        self.cluster = cluster
        self.is_leader = cluster.leader == node_id
        self.tree_parent = cluster.parent[node_id]
        self.tree_children = list(cluster.children[node_id])
        self.preferred_here = partition.preferred_edges_at(node_id)
        # --- per-super-pulse state ----------------------------------- #
        self._self_safe: set[int] = set()
        self._children_safe: dict[int, int] = defaultdict(int)
        self._reported: set[int] = set()
        # leader only:
        self._cluster_safe: set[int] = set()
        self._nbrs_safe: dict[int, set[int]] = defaultdict(set)
        self._go_issued: set[int] = set()

    # ------------------------------------------------------------------ #
    # Host-facing API
    # ------------------------------------------------------------------ #

    def node_safe(self, pulse: int) -> None:
        """The host declares this node safe w.r.t. super-pulse ``pulse``."""
        if pulse in self._self_safe:
            return
        self._self_safe.add(pulse)
        self._maybe_report(pulse)

    def handle(self, frm: Vertex, message: tuple) -> None:
        """Process one gamma control message."""
        kind = message[0]
        pulse = message[1]
        if kind == SUBTREE_SAFE:
            self._children_safe[pulse] += 1
            self._maybe_report(pulse)
        elif kind == CLUSTER_SAFE:
            self._on_cluster_safe(pulse)
        elif kind == NBR_SAFE:
            self._route_nbr(pulse, message[2])
        elif kind == NBR_RELAY:
            self._route_nbr(pulse, message[2])
        elif kind == GO:
            self._on_go_msg(pulse)
        else:  # pragma: no cover
            raise AssertionError(f"unknown gamma message {kind!r}")

    # ------------------------------------------------------------------ #
    # Phase 1: beta convergecast of safety
    # ------------------------------------------------------------------ #

    def _maybe_report(self, pulse: int) -> None:
        if pulse in self._reported:
            return
        if pulse not in self._self_safe:
            return
        if self._children_safe[pulse] < len(self.tree_children):
            return
        self._reported.add(pulse)
        if self.is_leader:
            self._leader_cluster_safe(pulse)
        else:
            self.send(self.tree_parent, (SUBTREE_SAFE, pulse))

    # ------------------------------------------------------------------ #
    # Phase 2: cluster-safe broadcast + preferred-edge exchange
    # ------------------------------------------------------------------ #

    def _leader_cluster_safe(self, pulse: int) -> None:
        self._cluster_safe.add(pulse)
        self._on_cluster_safe(pulse)
        self._maybe_go(pulse)

    def _on_cluster_safe(self, pulse: int) -> None:
        for c in self.tree_children:
            self.send(c, (CLUSTER_SAFE, pulse))
        for nbr, _other in self.preferred_here:
            self.send(nbr, (NBR_SAFE, pulse, self.cluster.index))

    def _route_nbr(self, pulse: int, from_cluster: int) -> None:
        if self.is_leader:
            self._nbrs_safe[pulse].add(from_cluster)
            self._maybe_go(pulse)
        else:
            self.send(self.tree_parent, (NBR_RELAY, pulse, from_cluster))

    # ------------------------------------------------------------------ #
    # Phase 3: GO
    # ------------------------------------------------------------------ #

    def _maybe_go(self, pulse: int) -> None:
        if pulse in self._go_issued:
            return
        if pulse not in self._cluster_safe:
            return
        if not self._nbrs_safe[pulse] >= self.cluster.neighbor_clusters:
            return
        self._go_issued.add(pulse)
        self._on_go_msg(pulse + 1)

    def _on_go_msg(self, pulse: int) -> None:
        for c in self.tree_children:
            self.send(c, (GO, pulse))
        self.on_go(pulse)
