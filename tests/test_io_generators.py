"""Tests for graph I/O and the extra generators (hypercube, trees)."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.graphs import (
    WeightedGraph,
    edge_key,
    binary_tree,
    caterpillar_graph,
    diameter,
    dump_graph,
    dumps_graph,
    graph_fingerprint,
    hypercube_graph,
    load_graph,
    loads_graph,
    lower_bound_graph,
    random_connected_graph,
)

GOLDEN = Path(__file__).resolve().parent / "fixtures" / "golden"


# --------------------------------------------------------------------- #
# I/O round-trips
# --------------------------------------------------------------------- #


def _canonical(g):
    return sorted((*edge_key(u, v), w) for u, v, w in g.edges())


def test_roundtrip_simple():
    g = WeightedGraph([(0, 1, 2.5), (1, 2, 3.0)], vertices=[9])
    h = loads_graph(dumps_graph(g))
    assert _canonical(h) == _canonical(g)
    assert set(h.vertices) == set(g.vertices)


@settings(max_examples=25, deadline=None)
@given(st.integers(2, 25), st.integers(0, 30), st.integers(0, 1000))
def test_roundtrip_random(n, extra, seed):
    g = random_connected_graph(n, extra, seed=seed)
    h = loads_graph(dumps_graph(g))
    assert _canonical(h) == _canonical(g)


def test_roundtrip_file(tmp_path):
    g = random_connected_graph(10, 12, seed=1)
    path = tmp_path / "g.txt"
    dump_graph(g, path)
    h = load_graph(path)
    assert _canonical(h) == _canonical(g)


def test_string_vertices_roundtrip():
    g = WeightedGraph([("alpha", "beta", 4.0)])
    h = loads_graph(dumps_graph(g))
    assert h.weight("alpha", "beta") == 4.0


def test_load_rejects_garbage():
    with pytest.raises(ValueError):
        loads_graph("e 1 2\n")  # missing weight
    with pytest.raises(ValueError):
        loads_graph("x 1 2 3\n")


@pytest.mark.parametrize("weight", ["inf", "nan", "0", "-2", "heavy"])
def test_load_names_the_line_of_a_bad_weight(weight):
    text = f"# header\ne 0 1 3\ne 1 2 {weight}\n"
    with pytest.raises(ValueError, match=r"^line 3: "):
        loads_graph(text)


def test_dump_rejects_whitespace_vertices():
    g = WeightedGraph([("a b", "c", 1.0)])
    with pytest.raises(ValueError):
        dumps_graph(g)


def test_comments_and_blank_lines_ignored():
    text = "# header\n\ne 1 2 5\n# trailing\n"
    g = loads_graph(text)
    assert g.weight(1, 2) == 5.0


def test_roundtrip_keeps_every_bit_of_the_weights():
    g = WeightedGraph([(0, 1, 1 / 3), (1, 2, 1234567.0)])
    h = loads_graph(dumps_graph(g))
    assert h.weight(0, 1) == 1 / 3 and h.weight(1, 2) == 1234567.0
    lb = lower_bound_graph(40)
    assert max(w for _u, _v, w in lb.edges()) == 41 ** 4
    assert _canonical(loads_graph(dumps_graph(lb))) == _canonical(lb)


def test_fingerprint_separates_weights_past_six_digits():
    g = WeightedGraph([(0, 1, 1 / 3), (1, 2, 1234567.0)])
    h = WeightedGraph([(0, 1, 0.3333334), (1, 2, 1234567.4)])
    assert graph_fingerprint(g) != graph_fingerprint(h)


def test_golden_trace_fingerprints_are_unchanged():
    # The short form is kept wherever it is exact, so the generators'
    # graphs serialize as they always did and pinned headers still match.
    from repro.experiments.chaos import RunSpec, case_of

    pinned = {
        "broadcast_clean.jsonl": "55929b3a686e1280",
        "broadcast_lossy.jsonl": "55929b3a686e1280",
        "dfs_crash_recover.jsonl": "55929b3a686e1280",
        "gamma_w_max.jsonl": "b78f5a50e58f438a",
    }
    assert sorted(p.name for p in GOLDEN.glob("*.jsonl")) == sorted(pinned)
    for name, fp in pinned.items():
        with open(GOLDEN / name) as fh:
            header = json.loads(fh.readline())["replay"]
        assert header.pop("graph_fp") == fp
        graph = case_of(RunSpec.from_dict(header)).graph
        assert graph_fingerprint(graph) == fp, name


# --------------------------------------------------------------------- #
# Generators
# --------------------------------------------------------------------- #


def test_binary_tree_shape():
    t = binary_tree(3)
    assert t.num_vertices == 15
    assert t.is_tree()
    assert t.degree(1) == 2       # root
    assert t.degree(8) == 1       # a leaf


def test_binary_tree_depth_zero():
    t = binary_tree(0)
    assert t.num_vertices == 1
    with pytest.raises(ValueError):
        binary_tree(-1)


def test_hypercube_structure():
    h = hypercube_graph(4)
    assert h.num_vertices == 16
    assert h.num_edges == 4 * 16 // 2
    assert all(h.degree(v) == 4 for v in h.vertices)
    assert diameter(h) == 4.0
    with pytest.raises(ValueError):
        hypercube_graph(0)


def test_caterpillar_structure():
    c = caterpillar_graph(5, 3)
    assert c.num_vertices == 5 + 15
    assert c.is_tree()
    assert c.degree(2) == 2 + 3  # spine middle: 2 spine edges + 3 legs
    with pytest.raises(ValueError):
        caterpillar_graph(0, 1)


def test_generators_work_with_protocols():
    """The new topologies drive the main algorithms end to end."""
    from repro.graphs import mst_weight
    from repro.protocols import run_mst_ghs, run_spt_recur
    from repro.graphs import dijkstra, tree_distances

    h = hypercube_graph(3, weight=2.0)
    _, tree = run_mst_ghs(h)
    assert tree.total_weight() == pytest.approx(mst_weight(h))
    _, spt = run_spt_recur(h, 0)
    dist, _ = dijkstra(h, 0)
    assert tree_distances(spt, 0) == pytest.approx(dist)
