"""Dict-of-dicts MST oracles the CSR kernels are compared against.

These are the pre-CSR implementations of Prim and Kruskal: independent of
:mod:`repro.graphs.csr`, and byte-identical to it by contract (same
edges, same tie-breaking, same insertion order).  ``test_csr_kernels``
and ``test_npkernels_differential`` check the public ``prim_mst`` and
``kruskal_mst`` against them; ``test_paths_mst`` checks weights against
networkx.
"""

import heapq
from itertools import count

from repro.graphs import UnionFind, WeightedGraph
from repro.graphs.weighted_graph import Vertex


def prim_mst_dicts(
    graph: WeightedGraph, root: Vertex | None = None
) -> WeightedGraph:
    """Reference dict-of-dicts Prim (the pre-CSR implementation)."""
    if graph.num_vertices == 0:
        return WeightedGraph()
    if root is None:
        root = graph.vertices[0]
    in_tree = {root}
    tree = WeightedGraph(vertices=[root])
    tie = count()
    heap: list[tuple[float, int, Vertex, Vertex]] = []
    for v, w in graph.neighbor_weights(root).items():
        heapq.heappush(heap, (w, next(tie), root, v))
    while heap:
        w, _, u, v = heapq.heappop(heap)
        if v in in_tree:
            continue
        in_tree.add(v)
        tree.add_edge(u, v, w)
        for x, wx in graph.neighbor_weights(v).items():
            if x not in in_tree:
                heapq.heappush(heap, (wx, next(tie), v, x))
    if len(in_tree) != graph.num_vertices:
        raise ValueError("graph is not connected; MST undefined")
    return tree


def kruskal_mst_dicts(graph: WeightedGraph) -> WeightedGraph:
    """Reference dict-based Kruskal (the pre-CSR implementation)."""
    uf = UnionFind()
    tree = WeightedGraph(vertices=graph.vertices)
    edges = sorted(graph.edges(), key=lambda e: e[2])
    added = 0
    for u, v, w in edges:
        if uf.union(u, v):
            tree.add_edge(u, v, w)
            added += 1
    if added != graph.num_vertices - 1 and graph.num_vertices > 0:
        raise ValueError("graph is not connected; MST undefined")
    return tree
