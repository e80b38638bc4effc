"""Weighted-graph substrate: data structure, generators, MST, shortest paths.

Public surface of :mod:`repro.graphs`; every symbol here is stable API.
"""

from .cache import GraphParamCache, param_cache
from .csr import (
    CSRGraph,
    FlatGraph,
    GraphScan,
    all_sources_scan,
    csr_kruskal_mst,
    csr_of,
    csr_prim_mst,
    edges_to_flat,
    flat_of,
    flat_source_stats,
    flat_stripe_stats,
    sssp_maps,
)
from .generators import (
    binary_tree,
    caterpillar_graph,
    complete_graph,
    hypercube_graph,
    grid_graph,
    heavy_edge_clock_graph,
    lower_bound_flat,
    lower_bound_graph,
    lower_bound_split_flat,
    lower_bound_split_graph,
    path_graph,
    random_connected_flat,
    random_connected_graph,
    random_tree,
    ring_graph,
    spoke_graph,
    star_graph,
)
from .shm import (
    SnapshotHandle,
    SnapshotUnavailable,
    shm_available,
)
from .io import (
    dump_graph,
    dumps_graph,
    graph_fingerprint,
    load_graph,
    loads_graph,
)
from .mst import kruskal_mst, minimum_spanning_tree, mst_weight, prim_mst, UnionFind
from .npkernels import (
    KERNEL_BACKEND_ENV,
    NPFlat,
    NPGraph,
    backend_info,
    kernel_backend,
    np_all_sources_scan,
    np_flat_of,
    np_flat_source_stats,
    numpy_available,
    set_kernel_backend,
)
from .params import NetworkParams, network_params, script_D, script_E, script_V
from .paths import (
    diameter,
    dijkstra,
    distance,
    eccentricity,
    max_neighbor_distance,
    radius_center,
    shortest_path,
    shortest_path_tree,
    tree_distances,
    tree_path,
)
from .weighted_graph import Edge, Vertex, WeightedGraph, edge_key

__all__ = [
    "WeightedGraph",
    "Vertex",
    "Edge",
    "edge_key",
    # generators
    "path_graph",
    "ring_graph",
    "grid_graph",
    "star_graph",
    "complete_graph",
    "binary_tree",
    "hypercube_graph",
    "caterpillar_graph",
    "random_connected_graph",
    "random_tree",
    "lower_bound_graph",
    "lower_bound_split_graph",
    "heavy_edge_clock_graph",
    "spoke_graph",
    # io
    "dump_graph",
    "dumps_graph",
    "graph_fingerprint",
    "load_graph",
    "loads_graph",
    # mst
    "prim_mst",
    "kruskal_mst",
    "minimum_spanning_tree",
    "mst_weight",
    "UnionFind",
    # paths
    "dijkstra",
    "distance",
    "shortest_path",
    "shortest_path_tree",
    "tree_path",
    "tree_distances",
    "eccentricity",
    "diameter",
    "radius_center",
    "max_neighbor_distance",
    # params
    "NetworkParams",
    "network_params",
    "script_E",
    "script_V",
    "script_D",
    # cache
    "GraphParamCache",
    "param_cache",
    # csr kernels
    "CSRGraph",
    "GraphScan",
    "csr_of",
    "sssp_maps",
    "all_sources_scan",
    "csr_prim_mst",
    "csr_kruskal_mst",
    # numpy kernel backend (optional; value-identical to the CSR kernels)
    "KERNEL_BACKEND_ENV",
    "kernel_backend",
    "set_kernel_backend",
    "numpy_available",
    "backend_info",
    "NPGraph",
    "np_all_sources_scan",
    # flat snapshots + zero-copy shared-memory transport
    "FlatGraph",
    "edges_to_flat",
    "flat_of",
    "flat_source_stats",
    "flat_stripe_stats",
    "lower_bound_flat",
    "lower_bound_split_flat",
    "random_connected_flat",
    "SnapshotHandle",
    "SnapshotUnavailable",
    "shm_available",
    # numpy flat kernels
    "NPFlat",
    "np_flat_of",
    "np_flat_source_stats",
]
