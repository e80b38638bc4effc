"""Tests for Section 4: partitions, normalization, synchronizer gamma_w."""

import math

import pytest

from repro.graphs import (
    WeightedGraph,
    diameter,
    dijkstra,
    grid_graph,
    lower_bound_graph,
    network_params,
    path_graph,
    random_connected_graph,
    ring_graph,
    tree_distances,
)
from repro.protocols.spt_synch import (
    SyncBellmanFord,
    run_spt_synch,
    run_spt_synchronous_reference,
)
from repro.sim import SynchronousRunner, UniformDelay
from repro.synch import (
    GammaWConfig,
    build_partition,
    next_multiple,
    normalize_graph,
    power,
    run_gamma_w,
)


# --------------------------------------------------------------------- #
# Partition (synchronizer gamma preprocessing)
# --------------------------------------------------------------------- #


def test_partition_covers_all_vertices_disjointly():
    g = random_connected_graph(40, 60, seed=1)
    part = build_partition(g, k=3)
    seen = set()
    for c in part.clusters:
        assert not (seen & set(c.members))
        seen |= set(c.members)
    assert seen == set(g.vertices)


def test_partition_depth_bound():
    g = grid_graph(8, 8)
    for k in (2, 3, 5):
        part = build_partition(g, k=k)
        n = g.num_vertices
        assert part.max_depth_hops <= math.log(n) / math.log(k) + 1


def test_partition_preferred_edge_bound():
    g = random_connected_graph(50, 150, seed=2)
    for k in (2, 4):
        part = build_partition(g, k=k)
        assert part.num_preferred <= (k - 1) * g.num_vertices


def test_partition_preferred_edges_consistent():
    g = random_connected_graph(25, 40, seed=3)
    part = build_partition(g, k=2)
    for (i, j), (u, v) in part.preferred.items():
        assert part.cluster_of[u] == i
        assert part.cluster_of[v] == j
        assert g.has_edge(u, v)
        assert j in part.clusters[i].neighbor_clusters
        assert i in part.clusters[j].neighbor_clusters


def _scan_preferred_edges_at(part, v):
    """The per-call scan the per-vertex index replaced."""
    out = []
    for (i, j), (u, w) in part.preferred.items():
        if u == v:
            out.append((w, j))
        elif w == v:
            out.append((u, i))
    return out


@pytest.mark.parametrize("graph", [
    random_connected_graph(40, 80, seed=5, max_weight=9),
    random_connected_graph(60, 30, seed=6, max_weight=1000),
    lower_bound_graph(6),
    lower_bound_graph(12),
], ids=["random", "random_heavy", "G_6", "G_12"])
def test_preferred_edge_index_equals_the_scan(graph):
    # Every level's partition of gamma_w, and the whole graph's; the order
    # matters (it is the order NBR_SAFE goes out in).
    cfg = GammaWConfig(graph, k=2)
    parts = [*cfg.partitions.values(), build_partition(graph, k=3)]
    for part in parts:
        for v in part.cluster_of:
            assert part.preferred_edges_at(v) == _scan_preferred_edges_at(
                part, v)
    assert any(part.preferred for part in parts)


def test_partition_cluster_trees_valid():
    g = random_connected_graph(30, 45, seed=4)
    part = build_partition(g, k=2)
    for c in part.clusters:
        assert c.parent[c.leader] is None
        for v in c.members:
            if v != c.leader:
                assert c.parent[v] in c.members
                assert v in c.children[c.parent[v]]


def test_partition_rejects_k1():
    with pytest.raises(ValueError):
        build_partition(ring_graph(5), k=1)


def test_partition_handles_disconnected():
    g = WeightedGraph([(0, 1, 1.0), (2, 3, 1.0)], vertices=[4])
    part = build_partition(g, k=2)
    union = set().union(*(c.members for c in part.clusters))
    assert union == {0, 1, 2, 3, 4}


# --------------------------------------------------------------------- #
# Normalization (Lemma 4.5 machinery)
# --------------------------------------------------------------------- #


def test_power():
    assert power(1) == 1
    assert power(2) == 2
    assert power(3) == 4
    assert power(4) == 4
    assert power(5) == 8
    with pytest.raises(ValueError):
        power(0.5)


def test_next_multiple():
    assert next_multiple(0, 4) == 0
    assert next_multiple(1, 4) == 4
    assert next_multiple(4, 4) == 4
    assert next_multiple(9, 8) == 16


def test_normalize_graph_weights():
    g = WeightedGraph([(0, 1, 3.0), (1, 2, 5.0), (2, 0, 4.0)])
    ng = normalize_graph(g)
    assert ng.weight(0, 1) == 4.0
    assert ng.weight(1, 2) == 8.0
    assert ng.weight(2, 0) == 4.0
    # w <= power(w) < 2w
    for u, v, w in g.edges():
        assert w <= ng.weight(u, v) < 2 * w


# --------------------------------------------------------------------- #
# Synchronous runner + Bellman-Ford reference
# --------------------------------------------------------------------- #


def test_sync_runner_rejects_fractional_weights():
    g = WeightedGraph([(0, 1, 1.5)])
    with pytest.raises(ValueError):
        SynchronousRunner(g, lambda v: SyncBellmanFord(v == 0, 5))


def test_sync_bellman_ford_computes_distances():
    g = random_connected_graph(25, 40, seed=5)
    result, tree = run_spt_synchronous_reference(g, 0)
    dist, _ = dijkstra(g, 0)
    for v in g.vertices:
        d, _parent = result.result_of(v)
        assert d == pytest.approx(dist[v])
    assert tree.is_tree()


def test_sync_bellman_ford_message_cost_linear():
    g = random_connected_graph(20, 40, seed=6)
    p = network_params(g)
    result, _ = run_spt_synchronous_reference(g, 0)
    # In the weighted synchronous network estimates propagate along
    # shortest paths, so each edge carries O(1) payload messages.
    assert result.comm_cost <= 3 * p.E


def test_in_synch_wrapper_on_sync_runner():
    """Lemma 4.5 checked mechanically: the wrapper runs on the normalized
    graph, passes the in-synch assertion, and reproduces the output with a
    <= 4x time and <= 2x (payload) communication blow-up."""
    from repro.synch.normalize import InSynchWrapper

    g = random_connected_graph(15, 20, seed=7)
    base, _ = run_spt_synchronous_reference(g, 0)

    ng = normalize_graph(g)
    stop = int(diameter(g)) + 1

    def factory(v):
        return InSynchWrapper(
            SyncBellmanFord(v == 0, stop), g.neighbor_weights(v)
        )

    runner = SynchronousRunner(ng, factory, require_in_synch=True)
    wrapped = runner.run(max_pulses=8 * (stop + 2) + 64)
    dist, _ = dijkstra(g, 0)
    for v in g.vertices:
        d, _p = wrapped.result_of(v)
        assert d == pytest.approx(dist[v])
    assert wrapped.message_count == base.message_count
    assert wrapped.comm_cost <= 2 * base.comm_cost
    assert wrapped.pulses <= 4 * base.pulses + 8


# --------------------------------------------------------------------- #
# gamma_w end to end
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("maker,seed", [
    (lambda: path_graph(8, weight=3.0), 0),
    (lambda: ring_graph(10, weight=2.0), 1),
    (lambda: random_connected_graph(15, 20, seed=8, max_weight=6), 2),
    (lambda: random_connected_graph(20, 35, seed=9, max_weight=12), 3),
])
def test_gamma_w_reproduces_synchronous_output(maker, seed):
    g = maker()
    res, tree = run_spt_synch(g, 0, k=2, seed=seed)
    dist, _ = dijkstra(g, 0)
    for v in g.vertices:
        d, _p = res.result_of(v)
        assert d == pytest.approx(dist[v])
    depths = tree_distances(tree, 0)
    assert depths == pytest.approx(dist)


def test_gamma_w_with_random_delays():
    g = random_connected_graph(12, 18, seed=10, max_weight=8)
    res, _ = run_spt_synch(g, 0, k=2, delay=UniformDelay(), seed=5)
    dist, _ = dijkstra(g, 0)
    for v in g.vertices:
        d, _p = res.result_of(v)
        assert d == pytest.approx(dist[v])


def test_gamma_w_overhead_accounting():
    g = random_connected_graph(16, 25, seed=11, max_weight=8)
    res, _ = run_spt_synch(g, 0, k=2)
    assert res.pulses >= 1
    assert res.overhead_cost == pytest.approx(res.ack_cost + res.control_cost)
    assert res.comm_cost == pytest.approx(
        res.proto_cost + res.overhead_cost
    )
    # Payload cost matches the wrapped protocol's synchronous cost on the
    # normalized graph (<= 2x the original).
    base, _ = run_spt_synchronous_reference(g, 0)
    assert res.proto_cost <= 2 * base.comm_cost + 1e-9


def test_gamma_w_config_levels():
    g = WeightedGraph([(0, 1, 1.0), (1, 2, 2.0), (2, 3, 4.0), (3, 0, 4.0)])
    cfg = GammaWConfig(g, k=2)
    assert sorted(cfg.levels) == [0, 1, 2]
    assert set(cfg.participants[0]) == {0, 1}
    assert set(cfg.participants[2]) == {2, 3, 0}
    assert cfg.levels_of(0) == [0, 2]


def test_gamma_w_stall_detection():
    """An undersized max_pulse must raise, not hang."""
    g = path_graph(6, weight=4.0)
    with pytest.raises(RuntimeError):
        run_gamma_w(
            g,
            lambda v: SyncBellmanFord(v == 0, int(diameter(g)) + 1),
            k=2,
            max_pulse=2,
        )


def test_gamma_w_budget_stop_is_not_a_stall():
    """A run the budget stopped comes back incomplete; a stall the budget
    did not cause raises, with or without a budget."""
    g = path_graph(6, weight=4.0)
    factory = lambda v: SyncBellmanFord(v == 0, int(diameter(g)) + 1)
    res = run_gamma_w(g, factory, k=2, max_pulse=2, budget=20.0)
    assert not res.completed
    assert 0 < res.comm_cost <= 20.0
    with pytest.raises(RuntimeError, match=r"6 of 6 .*max_pulse=2"):
        run_gamma_w(g, factory, k=2, max_pulse=2)
    with pytest.raises(RuntimeError, match="max_pulse=2"):
        run_gamma_w(g, factory, k=2, max_pulse=2, budget=1e6)
    full, _tree = run_spt_synch(g, 0)
    assert full.completed
    half, tree = run_spt_synch(g, 0, budget=full.comm_cost / 2)
    assert not half.completed and tree is None
    assert half.comm_cost <= full.comm_cost / 2


def test_gamma_w_stress_many_configurations():
    """Output equivalence across a broad sweep of topologies, k values,
    weight ranges and delay schedules (the gamma_w analog of the GHS
    stress test)."""
    from repro.sim import ScaledDelay

    cases = 0
    for n, extra, w_max in ((8, 6, 4), (12, 14, 8), (16, 20, 16)):
        for seed in range(3):
            g = random_connected_graph(n, extra, seed=seed * 11 + n,
                                       max_weight=w_max)
            dist, _ = dijkstra(g, 0)
            for k in (2, 4):
                for delay, dseed in ((None, 0), (UniformDelay(), seed),
                                     (ScaledDelay(0.0), 0)):
                    res, _t = run_spt_synch(g, 0, k=k, delay=delay,
                                            seed=dseed)
                    for v in g.vertices:
                        d, _p = res.result_of(v)
                        assert d == pytest.approx(dist[v]), (n, seed, k)
                    cases += 1
    assert cases == 3 * 3 * 2 * 3
