"""Golden equality tests: CSR kernels vs the dict-of-dicts reference path.

Every kernel in :mod:`repro.graphs.csr` claims *byte-identical* results to
the dict algorithms it replaces — same values, same tie-breaking, same
dict insertion order, bit-equal float sums.  These tests pin that claim on
a spread of shapes: random integer-weight graphs (the Dial bucket-queue
scan path), unit-weight tie-heavy topologies, fractional weights (the
binary-heap scan fallback), trees, and multi-component graphs.

The whole module runs once per kernel backend (``each_backend``): the
public entry points (``prim_mst``, ``kruskal_mst``, the cache) must pin
the same golden values under either backend.
"""

import math

import pytest

pytestmark = pytest.mark.usefixtures("each_backend")

from repro.graphs import (
    WeightedGraph,
    binary_tree,
    complete_graph,
    dijkstra,
    grid_graph,
    param_cache,
    prim_mst,
    kruskal_mst,
    random_connected_graph,
    star_graph,
)
from repro.graphs.csr import (
    CSRGraph,
    all_sources_scan,
    csr_kruskal_mst,
    csr_of,
    csr_prim_mst,
    sssp_maps,
)
from tests.mst_oracles import kruskal_mst_dicts, prim_mst_dicts

INF = float("inf")


def fractional_graph():
    """Non-integral weights: forces the heap path (``iadj is None``)."""
    g = WeightedGraph()
    g.add_edge(0, 1, 0.25)
    g.add_edge(1, 2, 0.5)
    g.add_edge(0, 2, 0.75)  # exact tie with the 0->1->2 path
    g.add_edge(2, 3, 1.25)
    g.add_edge(1, 3, 1.5)
    return g


def two_components():
    g = WeightedGraph()
    g.add_edge("a", "b", 1)
    g.add_edge("b", "c", 2)
    g.add_edge("x", "y", 3)
    return g


GOLDEN = [
    random_connected_graph(24, 40, seed=13),
    random_connected_graph(9, 0, seed=3),  # a random tree
    grid_graph(5, 4),
    complete_graph(8),
    star_graph(7),
    binary_tree(3),  # depth 3: 15 vertices
    fractional_graph(),
]


@pytest.mark.parametrize("graph", GOLDEN)
def test_sssp_maps_byte_identical_to_dict_dijkstra(graph):
    csr = CSRGraph(graph)
    for source in graph.vertices:
        d_dist, d_parent = dijkstra(graph, source)
        c_dist, c_parent = sssp_maps(csr, source)
        assert c_dist == d_dist
        assert c_parent == d_parent
        # Same dict *insertion order*, not just the same mappings.
        assert list(c_dist) == list(d_dist)
        assert list(c_parent) == list(d_parent)


def test_sssp_maps_unknown_source_raises_keyerror():
    csr = CSRGraph(grid_graph(3, 3))
    with pytest.raises(KeyError):
        sssp_maps(csr, "nope")


@pytest.mark.parametrize("graph", GOLDEN)
def test_scan_matches_per_source_dict_formulas(graph):
    n = graph.num_vertices
    csr = CSRGraph(graph)
    scan = all_sources_scan(csr)
    ecc = dict(zip(csr.verts, scan.ecc))
    exp_nbr = 0.0
    exp_diam = 0.0
    for s in graph.vertices:
        dist, _ = dijkstra(graph, s)
        expected = max(dist.values()) if len(dist) == n else INF
        assert ecc[s] == expected
        exp_diam = max(exp_diam, expected)
        for v, _w in graph.neighbor_weights(s).items():
            exp_nbr = max(exp_nbr, dist[v])
    assert scan.diameter == exp_diam
    assert scan.max_neighbor_distance == exp_nbr
    # Integral-weight graphs go through the Dial bucket queue; results
    # must still be floats (int sums convert exactly).
    assert all(isinstance(e, float) for e in scan.ecc)


def test_scan_disconnected_graph_has_infinite_eccentricities():
    g = two_components()
    scan = all_sources_scan(CSRGraph(g))
    assert all(e == INF for e in scan.ecc)
    assert scan.diameter == INF
    # Neighbor distances stay finite: neighbors are always reachable.
    assert scan.max_neighbor_distance == 3.0


def test_fractional_graph_skips_dial_path():
    assert CSRGraph(fractional_graph()).iadj is None
    assert CSRGraph(grid_graph(3, 3)).iadj is not None


def test_zero_weight_edges_cannot_exist():
    # The graph API bans non-positive weights, so the kernels never see a
    # zero-weight edge; this pins the invariant the Dial queue relies on.
    g = WeightedGraph()
    with pytest.raises(ValueError):
        g.add_edge(0, 1, 0)
    with pytest.raises(ValueError):
        g.add_edge(0, 1, -1.5)


@pytest.mark.parametrize("graph", GOLDEN)
def test_prim_byte_identical_to_dict_prim(graph):
    csr = CSRGraph(graph)
    for root_idx in (0, graph.num_vertices // 2):
        root = graph.vertices[root_idx]
        d_tree = prim_mst_dicts(graph, root)
        c_tree = csr_prim_mst(csr, csr.index[root])
        assert list(c_tree.vertices) == list(d_tree.vertices)
        assert list(c_tree.edges()) == list(d_tree.edges())
        # Same insertion order => bit-equal float accumulation.
        assert repr(c_tree.total_weight()) == repr(d_tree.total_weight())


@pytest.mark.parametrize("graph", GOLDEN)
def test_kruskal_byte_identical_to_dict_kruskal(graph):
    d_tree = kruskal_mst_dicts(graph)
    c_tree = csr_kruskal_mst(CSRGraph(graph))
    assert list(c_tree.vertices) == list(d_tree.vertices)
    assert list(c_tree.edges()) == list(d_tree.edges())
    assert repr(c_tree.total_weight()) == repr(d_tree.total_weight())


def test_mst_on_disconnected_graph_raises():
    g = two_components()
    with pytest.raises(ValueError):
        csr_prim_mst(CSRGraph(g))
    with pytest.raises(ValueError):
        csr_kruskal_mst(CSRGraph(g))


def test_public_mst_entry_points_route_through_csr():
    g = random_connected_graph(16, 20, seed=5)
    assert list(prim_mst(g).edges()) == list(prim_mst_dicts(g).edges())
    assert list(prim_mst(g, root=g.vertices[3]).edges()) == \
        list(prim_mst_dicts(g, root=g.vertices[3]).edges())
    assert list(kruskal_mst(g).edges()) == list(kruskal_mst_dicts(g).edges())


def test_csr_of_memoizes_per_version_and_rebuilds_on_mutation():
    g = random_connected_graph(10, 8, seed=2)
    cache = param_cache(g)
    first = csr_of(g)
    assert csr_of(g) is first  # same version -> same snapshot object
    assert cache.stats()["csr_builds"] == 1
    assert first.version == g.version

    before = dict(zip(first.verts, all_sources_scan(first).ecc))
    g.add_edge(g.vertices[0], g.vertices[5], 1)  # mutation bumps version
    second = csr_of(g)
    assert second is not first
    assert second.version == g.version
    assert cache.stats()["csr_builds"] == 2
    # The old snapshot still describes the old graph; the new one sees
    # the shortcut edge.
    after = dict(zip(second.verts, all_sources_scan(second).ecc))
    assert after != before or g.num_edges == 0
    assert second.m == first.m + 1


def test_cache_params_unchanged_by_csr_routing():
    # The public cache accessors must agree with freshly computed dict
    # formulas (this is what every experiment actually calls).
    g = random_connected_graph(14, 20, seed=2)
    cache = param_cache(g)
    n = g.num_vertices
    expected_ecc = {}
    for s in g.vertices:
        dist, _ = dijkstra(g, s)
        expected_ecc[s] = max(dist.values()) if len(dist) == n else INF
    assert cache.eccentricities() == expected_ecc
    assert list(cache.eccentricities()) == list(g.vertices)
    assert cache.diameter() == max(expected_ecc.values())
    assert math.isclose(cache.mst_weight(),
                        prim_mst_dicts(g).total_weight(), rel_tol=0, abs_tol=0)
