"""Minimum spanning trees on the CSR kernels.

Used as (a) the preprocessing step of the SLT algorithm (Section 2.2),
(b) the definition of the paper's script-V parameter ``V = w(MST(G))``
(Section 1.3), and (c) a correctness oracle for the distributed MST
protocols of Section 8.

The public entry points (:func:`prim_mst`, :func:`kruskal_mst`,
:func:`minimum_spanning_tree`) run the flat-array kernels in
:mod:`repro.graphs.csr` on the CSR snapshot memoized per graph version
by :mod:`repro.graphs.cache`, under every kernel backend: Prim grows
the tree one vertex per step, which array code cannot batch.  The
output is byte-identical to the original dict-of-dicts algorithms, which
the tests keep as the independent reference the kernels are compared
against.
"""

from __future__ import annotations

from .weighted_graph import Vertex, WeightedGraph

__all__ = [
    "prim_mst",
    "kruskal_mst",
    "minimum_spanning_tree",
    "mst_weight",
    "UnionFind",
]


class UnionFind:
    """Disjoint-set forest with path compression and union by rank."""

    def __init__(self) -> None:
        self._parent: dict[Vertex, Vertex] = {}
        self._rank: dict[Vertex, int] = {}

    def find(self, x: Vertex) -> Vertex:
        parent = self._parent
        if x not in parent:
            parent[x] = x
            self._rank[x] = 0
            return x
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, x: Vertex, y: Vertex) -> bool:
        """Merge the sets of x and y; return False if already merged."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self._rank[rx] < self._rank[ry]:
            rx, ry = ry, rx
        self._parent[ry] = rx
        if self._rank[rx] == self._rank[ry]:
            self._rank[rx] += 1
        return True


def prim_mst(graph: WeightedGraph, root: Vertex | None = None) -> WeightedGraph:
    """Prim's algorithm; returns the MST as a fresh :class:`WeightedGraph`.

    Runs on the memoized CSR snapshot (:mod:`repro.graphs.csr`);
    deterministic given insertion order (ties broken by discovery order)
    and byte-identical to the dict-of-dicts Prim.  Raises ``ValueError``
    on a disconnected graph.
    """
    from .cache import param_cache
    from .csr import csr_prim_mst

    if graph.num_vertices == 0:
        return WeightedGraph()
    csr = param_cache(graph).csr()
    return csr_prim_mst(csr, csr.index[root] if root is not None else 0)


def kruskal_mst(graph: WeightedGraph) -> WeightedGraph:
    """Kruskal's algorithm; returns the MST (raises on disconnected input).

    Runs on the frozen edge arrays of the CSR snapshot with an
    int-indexed union-find; byte-identical to the dict-based Kruskal.
    """
    from .cache import param_cache
    from .csr import csr_kruskal_mst

    return csr_kruskal_mst(param_cache(graph).csr())


def minimum_spanning_tree(graph: WeightedGraph) -> WeightedGraph:
    """Default MST routine (Prim)."""
    return prim_mst(graph)


def mst_weight(graph: WeightedGraph) -> float:
    """``V = w(MST(G))`` — the paper's script-V parameter (memoized per graph)."""
    from .cache import param_cache

    return param_cache(graph).mst_weight()
