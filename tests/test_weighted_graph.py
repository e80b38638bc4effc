"""Unit tests for the WeightedGraph data structure."""

import pytest

from repro.graphs import WeightedGraph, edge_key, path_graph, ring_graph


def test_empty_graph():
    g = WeightedGraph()
    assert g.num_vertices == 0
    assert g.num_edges == 0
    assert g.total_weight() == 0.0
    assert g.max_weight() == 0.0
    assert g.is_connected()  # vacuously
    assert g.connected_components() == []


def test_add_edge_and_lookup():
    g = WeightedGraph()
    g.add_edge("a", "b", 3.0)
    assert g.has_edge("a", "b")
    assert g.has_edge("b", "a")
    assert g.weight("a", "b") == 3.0
    assert g.weight("b", "a") == 3.0
    assert g.num_vertices == 2
    assert g.num_edges == 1


def test_edge_weight_overwrite():
    g = WeightedGraph()
    g.add_edge(1, 2, 5.0)
    g.add_edge(1, 2, 7.0)
    assert g.weight(1, 2) == 7.0
    assert g.num_edges == 1


def test_self_loop_rejected():
    g = WeightedGraph()
    with pytest.raises(ValueError):
        g.add_edge(1, 1, 2.0)


def test_nonpositive_weight_rejected():
    g = WeightedGraph()
    with pytest.raises(ValueError):
        g.add_edge(1, 2, 0.0)
    with pytest.raises(ValueError):
        g.add_edge(1, 2, -1.0)
    with pytest.raises(ValueError):
        g.add_edge(1, 2, float("nan"))
    assert g.num_vertices == 0


def test_remove_edge():
    g = path_graph(3)
    g.remove_edge(0, 1)
    assert not g.has_edge(0, 1)
    assert g.num_edges == 1
    with pytest.raises(KeyError):
        g.remove_edge(0, 1)


def test_neighbors_and_degree():
    g = ring_graph(4)
    assert sorted(g.neighbors(0)) == [1, 3]
    assert g.degree(0) == 2
    nw = g.neighbor_weights(0)
    assert nw == {1: 1.0, 3: 1.0}
    nw[1] = 99  # mutating the copy must not affect the graph
    assert g.weight(0, 1) == 1.0


def test_edges_iteration_each_once():
    g = ring_graph(5)
    edges = g.edge_list()
    assert len(edges) == 5
    keys = {edge_key(u, v) for u, v, _ in edges}
    assert len(keys) == 5


def test_total_and_max_weight():
    g = WeightedGraph([(0, 1, 2.0), (1, 2, 3.0), (2, 0, 10.0)])
    assert g.total_weight() == 15.0
    assert g.max_weight() == 10.0


def test_copy_is_independent():
    g = path_graph(3)
    h = g.copy()
    h.add_edge(0, 2, 5.0)
    assert not g.has_edge(0, 2)
    assert h.has_edge(0, 2)


def test_induced_subgraph():
    g = ring_graph(6)
    sub = g.induced_subgraph([0, 1, 2])
    assert sub.num_vertices == 3
    assert sub.num_edges == 2  # 0-1, 1-2; the edge 5-0 is cut
    assert sub.has_edge(0, 1) and sub.has_edge(1, 2)


def test_edge_subgraph():
    g = ring_graph(4)
    sub = g.edge_subgraph([(0, 1), (2, 3)], vertices=g.vertices)
    assert sub.num_vertices == 4
    assert sub.num_edges == 2
    assert sub.weight(0, 1) == 1.0


def test_connected_components():
    g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)], vertices=[4])
    comps = sorted(g.connected_components(), key=lambda c: min(c))
    assert comps == [{0, 1}, {2, 3}, {4}]
    assert not g.is_connected()


def test_is_tree():
    assert path_graph(5).is_tree()
    assert not ring_graph(5).is_tree()
    g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)])
    assert not g.is_tree()  # disconnected forest


def test_contains_iter_len():
    g = path_graph(3)
    assert 0 in g and 2 in g and 5 not in g
    assert len(g) == 3
    assert sorted(g) == [0, 1, 2]


def test_edge_key_canonical():
    assert edge_key(2, 1) == (1, 2)
    assert edge_key(1, 2) == (1, 2)
    assert edge_key("b", "a") == ("a", "b")


def test_edge_key_mixed_types():
    # Non-comparable vertex types fall back to repr-ordering.
    k1 = edge_key(1, ("v", 1))
    k2 = edge_key(("v", 1), 1)
    assert k1 == k2
