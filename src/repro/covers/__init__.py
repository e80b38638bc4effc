"""Clusters, covers, sparse-cover coarsening (Thm 1.1) and tree edge-covers."""

from .clusters import (
    cluster_radius,
    cover_degree,
    cover_radius,
    is_cluster,
    is_cover,
    max_cover_degree,
    subsumes,
)
from .coarsening import CoarseCluster, coarsen_cover
from .tree_cover import CoverTree, TreeEdgeCover, build_tree_edge_cover

__all__ = [
    "cluster_radius",
    "cover_radius",
    "cover_degree",
    "max_cover_degree",
    "is_cover",
    "is_cluster",
    "subsumes",
    "coarsen_cover",
    "CoarseCluster",
    "CoverTree",
    "TreeEdgeCover",
    "build_tree_edge_cover",
]
