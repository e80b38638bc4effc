"""Clusters and covers (paper Section 1.2).

A *cluster* is a vertex set ``S`` whose induced subgraph ``G(S)`` is
connected.  A *cover* is a collection of clusters whose union is ``V``.
``Rad(S)`` is the radius of the induced subgraph (minimum eccentricity);
``deg_S(v)`` counts how many clusters of a cover contain ``v`` and
``Delta(S)`` is the maximum such degree.  Cover ``T`` *subsumes* cover ``S``
if every cluster of S is contained in some cluster of T.

These definitions feed the coarsening theorem (Thm 1.1, implemented in
:mod:`repro.covers.coarsening`) and the tree edge-cover of Definition 3.1.
"""

from __future__ import annotations

from collections.abc import Iterable

from ..graphs.paths import radius_center
from ..graphs.weighted_graph import Vertex, WeightedGraph

__all__ = [
    "Cluster",
    "Cover",
    "cluster_radius",
    "cover_radius",
    "cover_degree",
    "max_cover_degree",
    "is_cover",
    "is_cluster",
    "subsumes",
]

Cluster = frozenset
Cover = list


def is_cluster(graph: WeightedGraph, vertices: Iterable[Vertex]) -> bool:
    """True iff the induced subgraph G(S) is connected and non-empty."""
    vset = set(vertices)
    if not vset:
        return False
    return graph.induced_subgraph(vset).is_connected()


def cluster_radius(graph: WeightedGraph, cluster: Iterable[Vertex]) -> float:
    """``Rad(S) = min_{v in S} Rad(v, G(S))`` — weighted radius of G(S)."""
    sub = graph.induced_subgraph(set(cluster))
    rad, _ = radius_center(sub)
    return rad


def cover_radius(graph: WeightedGraph, cover: Iterable[Iterable[Vertex]]) -> float:
    """``Rad(S) = max_i Rad(S_i)`` over the clusters of a cover."""
    return max((cluster_radius(graph, c) for c in cover), default=0.0)


def cover_degree(cover: Iterable[Iterable[Vertex]], v: Vertex) -> int:
    """``deg_S(v)`` — how many clusters of the cover contain v."""
    return sum(1 for c in cover if v in set(c))


def max_cover_degree(cover: Iterable[Iterable[Vertex]]) -> int:
    """``Delta(S) = max_v deg_S(v)``."""
    counts: dict[Vertex, int] = {}
    for c in cover:
        # Dedup via a membership set but *iterate the cluster itself*, so
        # the counts dict fills in input order, not hash order.
        seen: set[Vertex] = set()
        for v in c:
            if v not in seen:
                seen.add(v)
                counts[v] = counts.get(v, 0) + 1
    return max(counts.values(), default=0)


def is_cover(graph: WeightedGraph, cover: Iterable[Iterable[Vertex]]) -> bool:
    """True iff the clusters' union is the whole vertex set of ``graph``."""
    union: set[Vertex] = set()
    for c in cover:
        union |= set(c)
    return union == set(graph.vertices)


def subsumes(
    coarse: Iterable[Iterable[Vertex]], fine: Iterable[Iterable[Vertex]]
) -> bool:
    """True iff every cluster of ``fine`` is contained in some cluster of ``coarse``."""
    coarse_sets = [set(c) for c in coarse]
    for s in fine:
        sset = set(s)
        if not any(sset <= t for t in coarse_sets):
            return False
    return True
