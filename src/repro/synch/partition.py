"""Cluster partitions for synchronizer gamma ([Awe85a], used by Section 4).

Synchronizer gamma preprocesses the network into a *partition* of the
vertices into low-depth clusters, each with a rooted spanning tree and a
leader, plus one *preferred edge* between every pair of neighboring
clusters.  Per pulse, gamma's overhead is one message over every tree edge
(a few times) and every preferred edge, so the partition quality determines
the synchronizer's cost:

* growing a BFS ball layer-by-layer while each new layer multiplies the
  cluster size by more than ``k`` bounds the tree depth by ``log_k n``
  hops, and
* when growth stops, the final (rejected) layer has fewer than
  ``(k-1) * |cluster|`` vertices, so summing over clusters the number of
  neighboring-cluster pairs — hence preferred edges — is at most
  ``(k-1) * n``.

This gives the per-pulse totals ``O(k n)`` messages and ``O(log_k n)``
time that Section 4.4 quotes (within each level of gamma_w).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..graphs.weighted_graph import Vertex, WeightedGraph

__all__ = ["ClusterPartition", "ClusterInfo", "build_partition"]


@dataclass
class ClusterInfo:
    """One cluster of the partition, with its rooted spanning tree."""

    index: int
    leader: Vertex
    members: frozenset
    parent: dict = field(default_factory=dict)    # tree parent per member
    children: dict = field(default_factory=dict)  # tree children per member
    depth_hops: int = 0
    # Clusters adjacent to this one (sharing a graph edge), by index.
    neighbor_clusters: frozenset = frozenset()


@dataclass
class ClusterPartition:
    """A partition of (a subgraph of) G into clusters + preferred edges."""

    clusters: list[ClusterInfo]
    cluster_of: dict            # vertex -> cluster index
    # preferred[(i, j)] = (u, v): u in cluster i, v in cluster j, one per pair
    preferred: dict
    k: int
    # vertex -> its preferred edges as (neighbor, other-cluster index), in
    # ``preferred``'s order (the order gamma sends NBR_SAFE in).
    _preferred_at: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        at: dict = {}
        for (i, j), (u, w) in self.preferred.items():
            at.setdefault(u, []).append((w, j))
            at.setdefault(w, []).append((u, i))
        self._preferred_at = at

    @property
    def max_depth_hops(self) -> int:
        return max((c.depth_hops for c in self.clusters), default=0)

    @property
    def num_preferred(self) -> int:
        return len(self.preferred)

    def preferred_edges_at(self, v: Vertex) -> list[tuple[Vertex, int]]:
        """Preferred edges incident to v, as (neighbor, other-cluster index)."""
        return list(self._preferred_at.get(v, ()))


def build_partition(graph: WeightedGraph, k: int = 2) -> ClusterPartition:
    """Partition ``graph`` into BFS-ball clusters with growth factor ``k``.

    Works per connected component; handles isolated vertices (singleton
    clusters).  ``k >= 2`` gives depth <= ``log_k n`` hops per cluster.
    """
    if k < 2:
        raise ValueError("growth factor k must be >= 2")
    unassigned = set(graph.vertices)
    cluster_of: dict = {}
    clusters: list[ClusterInfo] = []

    order = sorted(graph.vertices, key=repr)
    for seed in order:
        if seed not in unassigned:
            continue
        # Grow a BFS ball among unassigned vertices: absorb a layer while it
        # multiplies the ball size by more than k, reject it (leaving its
        # vertices for later clusters) otherwise.  The rejected layer has
        # < (k-1)|ball| vertices, which is what bounds preferred edges by
        # (k-1) * n overall; absorbed layers bound the depth by log_k n.
        ball = {seed}
        frontier = [seed]
        while True:
            next_layer = set()
            for u in frontier:
                for v in graph.neighbors(u):
                    if v in unassigned and v not in ball and v not in next_layer:
                        next_layer.add(v)
            if not next_layer or len(next_layer) <= (k - 1) * len(ball):
                break
            ball |= next_layer
            frontier = sorted(next_layer, key=repr)

        index = len(clusters)
        info = _make_cluster(graph, index, seed, ball)
        clusters.append(info)
        for v in sorted(ball, key=repr):  # deterministic cluster_of order
            cluster_of[v] = index
        unassigned -= ball

    # Preferred edges: one per adjacent cluster pair.
    preferred: dict = {}
    neighbor_sets: dict[int, set[int]] = {c.index: set() for c in clusters}
    for u, v, _ in graph.edges():
        ci, cj = cluster_of[u], cluster_of[v]
        if ci == cj:
            continue
        key = (min(ci, cj), max(ci, cj))
        if key not in preferred:
            preferred[key] = (u, v) if ci < cj else (v, u)
        neighbor_sets[ci].add(cj)
        neighbor_sets[cj].add(ci)
    for c in clusters:
        c.neighbor_clusters = frozenset(neighbor_sets[c.index])

    return ClusterPartition(clusters, cluster_of, preferred, k)


def _make_cluster(
    graph: WeightedGraph, index: int, leader: Vertex, members: set
) -> ClusterInfo:
    """Root a BFS spanning tree of the cluster's induced subgraph."""
    parent: dict = {leader: None}
    children: dict = {v: [] for v in sorted(members, key=repr)}
    depth = {leader: 0}
    frontier = [leader]
    max_depth = 0
    while frontier:
        nxt = []
        for u in frontier:
            for v in graph.neighbors(u):
                if v in members and v not in parent:
                    parent[v] = u
                    children[u].append(v)
                    depth[v] = depth[u] + 1
                    max_depth = max(max_depth, depth[v])
                    nxt.append(v)
        frontier = sorted(nxt, key=repr)
    if len(parent) != len(members):  # pragma: no cover - balls are connected
        raise AssertionError("cluster ball not connected")
    return ClusterInfo(
        index=index,
        leader=leader,
        members=frozenset(members),
        parent=parent,
        children=children,
        depth_hops=max_depth,
    )
