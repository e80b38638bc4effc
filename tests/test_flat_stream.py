"""Streamed flat-graph builders and snapshot kernels.

Three contracts pinned here:

1. **Stream == dict**: each direct-to-CSR generator
   (``lower_bound_flat`` / ``lower_bound_split_flat`` /
   ``random_connected_flat``) is byte-identical — all three buffers and
   the content fingerprint — to building the dict-of-dicts graph,
   snapshotting it to CSR, and converting (``flat_of``).  This is what
   lets the big bench tier skip the dict representation entirely at
   n = 10^6 without changing a single byte of any answer.
2. **Kernel identity**: ``flat_source_stats`` hashes the distance rows
   of the ``sssp_maps`` oracle; it and ``np_flat_source_stats``
   (frontier relaxation) return *equal dicts* — including the sha256
   digest over the float64 distance bytes, the kernel identity contract
   extended to the flat snapshot path.
3. **Fingerprint stability**: pinned hex literals, so an accidental
   change to buffer layout, interning order, or hashing shows up as a
   test diff rather than a silently incompatible shared-memory key.
"""

import hashlib
import math
import random
from array import array

import pytest

from repro.graphs import (
    FlatGraph,
    csr_of,
    edges_to_flat,
    flat_of,
    lower_bound_flat,
    lower_bound_graph,
    lower_bound_split_flat,
    lower_bound_split_graph,
    random_connected_flat,
    random_connected_graph,
    sssp_maps,
)
from repro.graphs.csr import flat_source_stats, flat_stripe_stats
from repro.graphs.npkernels import np_flat_source_stats, numpy_available


def assert_flats_identical(a: FlatGraph, b: FlatGraph) -> None:
    assert a.n == b.n
    assert a.m2 == b.m2
    assert a.integral == b.integral
    assert a.wmax == b.wmax
    ab, bb = a.buffers(), b.buffers()
    for x, y in zip(ab, bb, strict=True):
        assert bytes(x) == bytes(y)
    assert a.fingerprint == b.fingerprint


# --------------------------------------------------------------------- #
# Stream == dict byte identity
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("n", [4, 5, 8, 12, 37])
def test_lower_bound_stream_matches_dict(n):
    streamed = lower_bound_flat(n)
    via_dict = flat_of(csr_of(lower_bound_graph(n)))
    assert_flats_identical(streamed, via_dict)


def test_lower_bound_heavy_stream_matches_dict():
    streamed = lower_bound_flat(9, 16.0)
    via_dict = flat_of(csr_of(lower_bound_graph(9, 16.0)))
    assert_flats_identical(streamed, via_dict)
    # Validation parity with the dict builder.
    with pytest.raises(ValueError):
        lower_bound_flat(3)
    with pytest.raises(ValueError):
        lower_bound_flat(9, 4.0)


@pytest.mark.parametrize("n,i", [(8, 2), (13, 5), (20, 1), (21, 10)])
def test_lower_bound_split_stream_matches_dict(n, i):
    streamed = lower_bound_split_flat(n, i)
    via_dict = flat_of(csr_of(lower_bound_split_graph(n, i)))
    assert_flats_identical(streamed, via_dict)


@pytest.mark.parametrize("n,extra,seed", [
    (1, 0, 0), (2, 0, 1), (14, 20, 2), (60, 150, 7), (25, 1000, 5),
])
def test_random_stream_matches_dict(n, extra, seed):
    streamed = random_connected_flat(n, extra, seed=seed)
    via_dict = flat_of(csr_of(random_connected_graph(n, extra, seed=seed)))
    assert_flats_identical(streamed, via_dict)


def test_random_stream_replays_explicit_rng():
    # Same RNG object, same draw sequence -> same graph; but no seed means
    # no rebuild spec (the stream can't be replayed from primitives).
    streamed = random_connected_flat(30, 40, rng=random.Random(99))
    via_dict = flat_of(csr_of(random_connected_graph(30, 40,
                                                     rng=random.Random(99))))
    assert_flats_identical(streamed, via_dict)
    assert streamed.spec is None
    assert random_connected_flat(30, 40, seed=99).spec == \
        ("random_connected", 30, 40, 99, 10.0)


def test_edges_to_flat_numpy_and_python_paths_agree():
    if not numpy_available():
        pytest.skip("numpy not installed")
    for builder in (
        lambda **kw: lower_bound_flat(23, **kw),
        lambda **kw: lower_bound_split_flat(19, 3, **kw),
        lambda **kw: random_connected_flat(40, 80, seed=6, **kw),
    ):
        assert_flats_identical(builder(use_numpy=False),
                               builder(use_numpy=True))


def test_fingerprints_pinned():
    # Content-addressed shared-memory keys: layout or hash changes must
    # be deliberate (they invalidate cross-process snapshot identity).
    assert lower_bound_flat(12).fingerprint == "2916cdc6c61c00fc"
    assert lower_bound_split_flat(13, 5).fingerprint == "27c7fcb3b8671b57"
    assert random_connected_flat(14, 20, seed=2).fingerprint == \
        "ce4b9be42d32240d"


def test_edges_to_flat_rejects_bad_lengths():
    with pytest.raises(ValueError):
        edges_to_flat(3, array("q", [0]), array("q", [1, 2]),
                      array("d", [1.0]), integral=True, wmax=1.0)


# --------------------------------------------------------------------- #
# Kernel identity on the flat snapshot
# --------------------------------------------------------------------- #


def test_flat_source_stats_matches_sssp_maps_oracle():
    g = random_connected_graph(40, 90, seed=11)
    csr = csr_of(g)
    flat = flat_of(csr)
    for source_idx in (0, 7, 39):
        oracle, _ = sssp_maps(csr, csr.verts[source_idx])
        row = array("d", [oracle.get(v, math.inf) for v in csr.verts])
        stats = flat_source_stats(flat, source_idx, source_idx + 1)
        assert stats["digest"] == hashlib.sha256(row).hexdigest()[:16]
        assert stats["ecc_max"] == max(row)
        assert stats["reach_min"] == len(oracle)


def _fractional_flat(n: int, seed: int) -> FlatGraph:
    """A random connected flat graph with non-dyadic fractional weights."""
    rng = random.Random(seed)
    g = random_connected_graph(n, n, seed=seed)
    for u, v, _w in list(g.edges()):
        g.add_edge(u, v, rng.randint(1, 999) / 100)
    return flat_of(csr_of(g))


def test_source_stats_python_numpy_identical():
    if not numpy_available():
        pytest.skip("numpy not installed")
    cases = [(flat, 0, flat.n) for flat in (
        random_connected_flat(50, 120, seed=3),
        lower_bound_flat(40),
        lower_bound_split_flat(30, 7),
    )]
    # Frontiers of thousands of entries, in both the int64 and the
    # float64 regime, which the small shapes above never reach.
    fractional = _fractional_flat(3000, seed=5)
    assert not fractional.integral
    cases += [(random_connected_flat(10_000, 10_000, seed=17), 0, 3),
              (fractional, 1500, 1504)]
    for flat, lo, hi in cases:
        py = flat_source_stats(flat, lo, hi)
        np_ = np_flat_source_stats(flat, lo, hi)
        assert py == np_  # includes the distance-bytes digest
    pinned = flat_source_stats(random_connected_flat(50, 120, seed=3), 0, 50)
    assert pinned == {
        "kind": "sources", "lo": 0, "hi": 50, "sources": 50,
        "reach_min": 50, "ecc_max": 22.0, "digest": "d0d0fe6558f3b35a",
    }


def test_source_stats_partial_and_empty_ranges():
    flat = random_connected_flat(20, 30, seed=4)
    full = flat_source_stats(flat, 0, 20)
    half = flat_source_stats(flat, 5, 10)
    assert half["sources"] == 5
    assert half["ecc_max"] <= full["ecc_max"]
    empty = flat_source_stats(flat, 7, 7)
    assert empty["sources"] == 0
    assert empty["reach_min"] == 0
    assert empty["ecc_max"] == 0.0
    with pytest.raises(IndexError):
        flat_source_stats(flat, 0, 21)
    with pytest.raises(IndexError):
        flat_source_stats(flat, -1, 5)


def test_stripe_stats_cover_whole_graph():
    flat = random_connected_flat(60, 140, seed=9)
    rows = [flat_stripe_stats(flat, lo, min(lo + 7, 60))
            for lo in range(0, 60, 7)]
    assert sum(r["verts"] for r in rows) == flat.n
    assert sum(r["edges"] for r in rows) == flat.m2
    assert max(r["wmax"] for r in rows) == flat.wmax
    # Weight mass is duplicated across stripes exactly like the CSR
    # half-edges duplicate each undirected edge.
    total = sum(r["wsum"] for r in rows)
    assert total == pytest.approx(sum(flat.weights))
    # Same stripe, same bytes -> same digest; distinct stripes differ.
    assert flat_stripe_stats(flat, 0, 7) == rows[0]
    assert rows[0]["digest"] != rows[1]["digest"]
    with pytest.raises(IndexError):
        flat_stripe_stats(flat, 50, 61)


def test_flat_of_round_trips_through_cache():
    from repro.graphs import param_cache

    g = random_connected_graph(18, 25, seed=13)
    cache = param_cache(g)
    flat = cache.flat()
    assert cache.flat() is flat  # memoized per version
    assert cache.stats()["flat_builds"] == 1
    assert_flats_identical(flat, flat_of(csr_of(g)))
    g.add_edge(0, 17, 3.0)
    flat2 = cache.flat()
    assert flat2 is not flat
    assert flat2.version == g.version
    assert cache.stats()["flat_builds"] == 2
    assert flat2.fingerprint != flat.fingerprint
