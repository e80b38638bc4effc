"""Tests for clusters, sparse-cover coarsening (Thm 1.1), tree edge-covers."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.covers import (
    build_tree_edge_cover,
    cluster_radius,
    coarsen_cover,
    cover_degree,
    cover_radius,
    is_cluster,
    is_cover,
    max_cover_degree,
    subsumes,
)
from repro.covers.coarsening import (
    theoretical_degree_bound,
    theoretical_radius_bound,
)
from repro.graphs import (
    grid_graph,
    max_neighbor_distance,
    path_graph,
    random_connected_graph,
    ring_graph,
    shortest_path,
    tree_distances,
)


# --------------------------------------------------------------------- #
# Cluster / cover basics
# --------------------------------------------------------------------- #


def test_is_cluster():
    g = ring_graph(6)
    assert is_cluster(g, {0, 1, 2})
    assert not is_cluster(g, {0, 2})  # induced subgraph disconnected
    assert not is_cluster(g, set())


def test_cluster_radius_path_segment():
    g = path_graph(7, weight=2.0)
    assert cluster_radius(g, {0, 1, 2, 3, 4}) == pytest.approx(4.0)  # center 2


def test_cover_degree_and_max():
    cover = [{0, 1}, {1, 2}, {1, 3}]
    assert cover_degree(cover, 1) == 3
    assert cover_degree(cover, 0) == 1
    assert max_cover_degree(cover) == 3


def test_is_cover_and_subsumes():
    g = path_graph(4)
    assert is_cover(g, [{0, 1}, {2, 3}])
    assert not is_cover(g, [{0, 1}, {2}])
    assert subsumes([{0, 1, 2}, {2, 3}], [{0, 1}, {2, 3}])
    assert not subsumes([{0, 1}], [{0, 1, 2}])


# --------------------------------------------------------------------- #
# Coarsening (Theorem 1.1)
# --------------------------------------------------------------------- #


def _singleton_cover(g):
    return [frozenset([v]) for v in g.vertices]


def test_coarsen_rejects_bad_input():
    with pytest.raises(ValueError):
        coarsen_cover([frozenset()], 2)
    with pytest.raises(ValueError):
        coarsen_cover([frozenset([1])], 0)


def test_coarsen_empty_cover():
    assert coarsen_cover([], 3) == []


def test_coarsen_subsumption_partition_of_indices():
    g = ring_graph(10)
    initial = [frozenset(shortest_path(g, u, v)) for u, v, _ in g.edges()]
    out = coarsen_cover(initial, k=2)
    # every input index subsumed exactly once
    all_members = [i for cc in out for i in cc.kernel_members]
    assert sorted(all_members) == list(range(len(initial)))
    # and containment holds
    for cc in out:
        for i in cc.kernel_members:
            assert initial[i] <= cc.vertices


def test_coarsen_k1_merges_everything_overlapping():
    # With k=1 the radius bound is (2*1-1) = 1x ... growth threshold |S|^1
    # means growth never helps; clusters merge only via the final layer.
    initial = [frozenset([0, 1]), frozenset([1, 2]), frozenset([5])]
    out = coarsen_cover(initial, k=1)
    union = set().union(*(cc.vertices for cc in out))
    assert union == {0, 1, 2, 5}


@settings(max_examples=20, deadline=None)
@given(st.integers(6, 24), st.integers(0, 20), st.integers(0, 500),
       st.integers(1, 5))
def test_coarsen_radius_and_degree_bounds(n, extra, seed, k):
    g = random_connected_graph(n, extra, seed=seed)
    initial = [frozenset(shortest_path(g, u, v)) for u, v, _ in g.edges()]
    out = coarsen_cover(initial, k=k)
    cover = [cc.vertices for cc in out]
    assert is_cover(g, cover)
    assert subsumes(cover, initial)
    # Every output cluster is connected (a genuine cluster).
    for c in cover:
        assert is_cluster(g, c)
    # Radius bound of Theorem 1.1.
    r0 = cover_radius(g, initial)
    assert cover_radius(g, cover) <= theoretical_radius_bound(k, r0) + 1e-9
    # Degree bound of the pass-structured construction.
    bound = theoretical_degree_bound(k, len(initial))
    assert max_cover_degree(cover) <= bound + 1e-9


def test_coarsen_log_k_gives_low_degree():
    g = grid_graph(5, 5)
    initial = [frozenset(shortest_path(g, u, v)) for u, v, _ in g.edges()]
    k = max(1, math.ceil(math.log2(len(initial))))
    out = coarsen_cover(initial, k=k)
    # At k = log m the degree is O(log m).
    assert max_cover_degree([cc.vertices for cc in out]) <= 2 * math.log2(
        len(initial)
    ) + 4


# --------------------------------------------------------------------- #
# Tree edge-cover (Definition 3.1 / Lemma 3.2)
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("maker", [
    lambda: ring_graph(12),
    lambda: grid_graph(4, 4),
    lambda: random_connected_graph(20, 20, seed=42),
])
def test_tree_edge_cover_properties(maker):
    g = maker()
    tec = build_tree_edge_cover(g)
    n = g.num_vertices
    d = max_neighbor_distance(g)
    # Property 3: every edge's endpoints share a tree.
    for key, idx in tec.home_tree.items():
        u, v = key
        t = tec.trees[idx]
        assert u in t.vertices and v in t.vertices
    assert len(tec.home_tree) == g.num_edges
    # Property 2: depth O(d log n).  Constant from the construction:
    # cluster radius <= (2k-1) d with k = ceil(log2 m).
    k = math.ceil(math.log2(max(2, g.num_edges)))
    assert tec.max_depth <= 2 * (2 * k - 1) * d + 1e-9
    # Property 1: each edge used by at most O(log n) trees.
    assert tec.max_edge_load <= 4 * math.log2(max(2, g.num_edges)) + 4
    # Each tree is a tree spanning its cluster.
    for ct in tec.trees:
        assert ct.tree.is_tree()
        assert set(ct.tree.vertices) == set(ct.vertices)
        depths = tree_distances(ct.tree, ct.root)
        assert max(depths.values(), default=0.0) == pytest.approx(ct.depth)


def test_tree_edge_cover_needs_edges():
    from repro.graphs import WeightedGraph

    with pytest.raises(ValueError):
        build_tree_edge_cover(WeightedGraph(vertices=[0, 1]))
