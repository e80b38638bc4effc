"""Differential harness: NumPy kernels vs the pure-Python oracles.

Every vectorized kernel in :mod:`repro.graphs.npkernels` claims
*value-identity* with its pure-Python oracle — same floats bit-for-bit,
same exceptions.  This module is the proof: seeded graph families
(paths, stars, grids, random integral / fractional / mixed-weight
graphs, the paper's ``G_n``/``G_n^i`` lower-bound families, disconnected
and edge-case graphs) are pushed through both backends and compared
exactly — no approx, no tolerance.  The MST entry points run the CSR
kernels under every backend; they are checked here, under each backend,
against the dict oracles, edge list for edge list.

Also pinned here: the backend selector semantics (env var, override,
graceful no-numpy fallback), numpy-side cache invalidation, the Dial
bucket-queue cap fallback, and serial == pool chaos-row byte-identity
under both backends.
"""

import random

import pytest

from repro.graphs import (
    WeightedGraph,
    binary_tree,
    caterpillar_graph,
    complete_graph,
    grid_graph,
    heavy_edge_clock_graph,
    hypercube_graph,
    kruskal_mst,
    lower_bound_graph,
    lower_bound_split_graph,
    mst_weight,
    param_cache,
    path_graph,
    prim_mst,
    random_connected_graph,
    ring_graph,
    spoke_graph,
    star_graph,
)
from repro.graphs import csr as csr_module
from repro.graphs import npkernels as npk
from repro.graphs.csr import (
    CSRGraph,
    all_sources_scan,
    csr_kruskal_mst,
    csr_prim_mst,
    flat_of,
    flat_source_stats,
    sssp_maps,
)
from tests.mst_oracles import kruskal_mst_dicts, prim_mst_dicts

requires_numpy = pytest.mark.skipif(
    not npk.numpy_available(), reason="numpy not installed"
)

# The backends this host can resolve; loops over them keep one test id
# per family instead of one per (family, backend).
BACKENDS = ("python", "numpy") if npk.numpy_available() else ("python",)


# --------------------------------------------------------------------- #
# Graph families
# --------------------------------------------------------------------- #


def _fractional_graph(seed: int) -> WeightedGraph:
    """Random connected graph with dyadic fractional weights (k/8).

    Dyadic rationals are exact in binary floating point, so equal-length
    paths produce *real* float ties — the hardest case for tie-break
    identity between the heap and the frontier relaxation.
    """
    rng = random.Random(seed)
    g = random_connected_graph(14, 16, seed=seed)
    for u, v, _w in list(g.edges()):
        g.add_edge(u, v, rng.randint(1, 32) / 8)
    return g


def _mixed_weight_graph(seed: int) -> WeightedGraph:
    """Integral and fractional weights interleaved in one graph."""
    rng = random.Random(seed)
    g = random_connected_graph(13, 15, seed=seed)
    for i, (u, v, _w) in enumerate(list(g.edges())):
        if i % 3 == 0:
            g.add_edge(u, v, rng.randint(1, 24) / 4)
    return g


def _float_integral_graph() -> WeightedGraph:
    """Weights that are floats but integral-valued (unit-weight idiom)."""
    g = grid_graph(4, 5, weight=2.0)
    g.add_edge((0, 0), (3, 4), 7.0)
    return g


def _disconnected_graph() -> WeightedGraph:
    g = random_connected_graph(8, 6, seed=3)
    h = path_graph(4)
    for u, v, w in h.edges():
        g.add_edge(("b", u), ("b", v), w)
    g.add_vertex("isolated")
    return g


FAMILIES = [
    ("empty", WeightedGraph),
    ("single", lambda: WeightedGraph(vertices=["v"])),
    ("path", lambda: path_graph(9)),
    ("path_w3", lambda: path_graph(6, weight=3)),
    ("ring", lambda: ring_graph(11)),
    ("star", lambda: star_graph(8)),
    ("grid", lambda: grid_graph(5, 6)),
    ("complete", lambda: complete_graph(7)),
    ("binary_tree", lambda: binary_tree(4)),
    ("hypercube", lambda: hypercube_graph(4)),
    ("caterpillar", lambda: caterpillar_graph(6, 2)),
    ("spoke", lambda: spoke_graph(8, 16.0, 1.0)),
    ("heavy_clock", lambda: heavy_edge_clock_graph(6, 50.0)),
    ("Gn_8", lambda: lower_bound_graph(8)),
    ("Gn_16", lambda: lower_bound_graph(16)),
    ("Gni_8_3", lambda: lower_bound_split_graph(8, 3)),
    ("rand_sparse", lambda: random_connected_graph(18, 10, seed=5)),
    ("rand_dense", lambda: random_connected_graph(12, 40, seed=6)),
    ("rand_fractional", lambda: _fractional_graph(7)),
    ("rand_mixed", lambda: _mixed_weight_graph(8)),
    ("float_integral", _float_integral_graph),
    ("disconnected", _disconnected_graph),
]

FAMILY_IDS = [name for name, _ in FAMILIES]
FAMILY_FACTORIES = [factory for _, factory in FAMILIES]


@pytest.fixture(params=FAMILY_FACTORIES, ids=FAMILY_IDS)
def family_graph(request):
    return request.param()


# --------------------------------------------------------------------- #
# Kernel-by-kernel identity over every family
# --------------------------------------------------------------------- #


@requires_numpy
def test_scan_identical(family_graph):
    csr = CSRGraph(family_graph)
    oracle = all_sources_scan(csr)
    got = np_scan = npk.np_all_sources_scan(npk.NPGraph(csr))
    assert got == oracle
    # exact types too: plain floats, not numpy scalars
    assert all(type(e) is float for e in np_scan.ecc)
    assert type(np_scan.diameter) is float
    assert type(np_scan.max_neighbor_distance) is float


def test_prim_identical(family_graph, monkeypatch):
    g = family_graph
    roots = [None, g.vertices[-1]] if g.num_vertices else [None]
    for backend in BACKENDS:
        monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, backend)
        for root in roots:
            if g.num_vertices and not g.is_connected():
                with pytest.raises(ValueError):
                    prim_mst(g, root)
                continue
            got = prim_mst(g, root)
            want = prim_mst_dicts(g, root)
            assert list(got.edges()) == list(want.edges())
            assert got.vertices == want.vertices
            assert repr(got.total_weight()) == repr(want.total_weight())


def test_kruskal_identical(family_graph, monkeypatch):
    g = family_graph
    for backend in BACKENDS:
        monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, backend)
        if g.num_vertices and not g.is_connected():
            with pytest.raises(ValueError):
                kruskal_mst(g)
            continue
        got = kruskal_mst(g)
        want = kruskal_mst_dicts(g)
        assert list(got.edges()) == list(want.edges())
        assert got.vertices == want.vertices
        assert repr(got.total_weight()) == repr(want.total_weight())


@requires_numpy
def test_msts_never_build_the_numpy_snapshot(monkeypatch):
    monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, "numpy")
    g = random_connected_graph(20, 30, seed=9)
    csr = CSRGraph(g)  # built outside the cache, so it counts no build
    root = g.vertices[-1]
    assert list(prim_mst(g).edges()) == list(csr_prim_mst(csr).edges())
    assert (list(prim_mst(g, root).edges())
            == list(csr_prim_mst(csr, csr.index[root]).edges()))
    assert (list(kruskal_mst(g).edges())
            == list(csr_kruskal_mst(csr).edges()))
    assert mst_weight(g) == csr_prim_mst(csr).total_weight()
    assert param_cache(g).np_builds == 0


@requires_numpy
def test_sssp_dist_identical(family_graph):
    # One source per call relaxes a single row, the `several=False`
    # branch of `_relax`.
    flat = flat_of(CSRGraph(family_graph))
    for s in range(min(flat.n, 6)):
        assert (npk.np_flat_source_stats(flat, s, s + 1)
                == flat_source_stats(flat, s, s + 1))


@requires_numpy
def test_block_boundaries_identical(family_graph, monkeypatch):
    # Blocks of 2-3 sources, the last one partial for most shapes, so the
    # frontier's flat row * n + v offsets and the block loops of both
    # multi-source entry points cross block boundaries.
    csr = CSRGraph(family_graph)
    npg = npk.NPGraph(csr)
    rows = 3 if csr.n % 3 else 2
    monkeypatch.setattr(npk, "_SCAN_BLOCK_ELEMS", rows * max(csr.n, npg.m2, 1))
    monkeypatch.setattr(npk, "_fw_applicable", lambda _npg: False)
    assert npk.np_all_sources_scan(npg) == all_sources_scan(csr)
    flat = flat_of(csr)
    lo = min(1, csr.n)
    assert (npk.np_flat_source_stats(flat, lo, csr.n)
            == flat_source_stats(flat, lo, csr.n))


# --------------------------------------------------------------------- #
# MST tie-break rule, pinned explicitly
# --------------------------------------------------------------------- #
#
# Rule (identical for every implementation):
#   * Prim: among equal-weight frontier edges, the one pushed first wins;
#     pushes happen root-adjacency first, then each newly added vertex's
#     adjacency in CSR (= insertion) order.
#   * Kruskal: stable sort by weight — graph.edges() first-encounter
#     order among equal weights.


def _tie_square() -> WeightedGraph:
    g = WeightedGraph()
    g.add_edge("a", "b", 1)
    g.add_edge("b", "c", 1)
    g.add_edge("c", "d", 1)
    g.add_edge("d", "a", 1)
    return g


def test_prim_tie_break_pinned(each_backend):
    # From root a: pushes (a,b) then (a,d); pop (a,b) -> push (b,c);
    # pop (a,d) [earlier push beats (b,c)'s]; pop (b,c).  Edge (c,d)
    # never enters the tree.
    tree = prim_mst(_tie_square())
    assert list(tree.edges()) == [("a", "b", 1), ("a", "d", 1), ("b", "c", 1)]


def test_kruskal_tie_break_pinned(each_backend):
    # edges() order: (a,b), (a,d), (b,c), (c,d); stable sort keeps it;
    # (c,d) closes the cycle and is rejected.
    tree = kruskal_mst(_tie_square())
    assert list(tree.edges()) == [("a", "b", 1), ("a", "d", 1), ("b", "c", 1)]


def test_prim_equal_weight_randomized(monkeypatch):
    # All-unit weights maximize tie pressure; the public Prim must still
    # pick the oracle's tree edge-for-edge under every backend.
    for seed in range(8):
        g = random_connected_graph(16, 20, seed=seed, max_weight=1)
        want = list(prim_mst_dicts(g).edges())
        for backend in BACKENDS:
            monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, backend)
            assert list(prim_mst(g).edges()) == want


def test_total_weight_repr_preserves_int_vs_float(monkeypatch):
    ints = random_connected_graph(10, 8, seed=2)  # int weights
    fracs = _fractional_graph(3)  # float weights
    for backend in BACKENDS:
        monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, backend)
        for g in (ints, fracs):
            for build, oracle in ((prim_mst, prim_mst_dicts),
                                  (kruskal_mst, kruskal_mst_dicts)):
                total = build(g).total_weight()
                want = oracle(g).total_weight()
                assert type(total) is type(want)
                assert repr(total) == repr(want)
        # int graphs must sum to a plain int, never numpy.float64
        assert type(prim_mst(ints).total_weight()) is int


# --------------------------------------------------------------------- #
# Randomized differential sweep
# --------------------------------------------------------------------- #


@requires_numpy
@pytest.mark.parametrize("seed", range(12))
def test_randomized_sweep(seed, monkeypatch):
    rng = random.Random(seed * 7919 + 1)
    n = rng.randrange(2, 22)
    extra = rng.randrange(0, 2 * n)
    g = random_connected_graph(n, extra, seed=seed,
                               max_weight=rng.choice((1, 3, 10, 1000)))
    if seed % 3 == 0:
        for u, v, _w in list(g.edges())[:: 2]:
            g.add_edge(u, v, rng.randint(1, 64) / 16)
    if seed % 4 == 0:
        g.add_vertex(("lonely", seed))  # disconnect
    csr = CSRGraph(g)
    npg = npk.NPGraph(csr)
    assert npk.np_all_sources_scan(npg) == all_sources_scan(csr)
    source = rng.randrange(csr.n)
    flat = flat_of(csr)
    assert (npk.np_flat_source_stats(flat, source, source + 1)
            == flat_source_stats(flat, source, source + 1))
    for backend in BACKENDS:
        monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, backend)
        if g.is_connected():
            assert (list(prim_mst(g).edges())
                    == list(prim_mst_dicts(g).edges()))
            assert (list(kruskal_mst(g).edges())
                    == list(kruskal_mst_dicts(g).edges()))
        else:
            with pytest.raises(ValueError):
                prim_mst(g)


# --------------------------------------------------------------------- #
# WeightedGraph edge cases flow through both backends identically
# --------------------------------------------------------------------- #


def test_self_loop_rejected_before_any_kernel(each_backend):
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.add_edge(1, 1, 1.0)
    assert prim_mst(g).num_vertices == 3


def test_parallel_edge_overwrite_reflected(each_backend):
    g = WeightedGraph()
    g.add_edge("a", "b", 5)
    g.add_edge("b", "c", 1)
    cache = param_cache(g)
    assert cache.diameter() == 6.0
    g.add_edge("a", "b", 2)  # parallel edge = overwrite, bumps version
    assert cache.diameter() == 3.0
    assert list(prim_mst(g).edges()) == [("a", "b", 2), ("b", "c", 1)]


# --------------------------------------------------------------------- #
# Backend selector semantics
# --------------------------------------------------------------------- #


def test_selector_env_values(monkeypatch):
    monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, "python")
    assert npk.requested_backend() == "python"
    assert npk.kernel_backend() == "python"
    monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, "auto")
    assert npk.kernel_backend() == (
        "numpy" if npk.numpy_available() else "python"
    )
    monkeypatch.delenv(npk.KERNEL_BACKEND_ENV)
    assert npk.requested_backend() == "auto"
    monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, "cupy")
    with pytest.raises(ValueError, match="not a valid kernel backend"):
        npk.requested_backend()


def test_selector_override_beats_env(monkeypatch):
    monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, "python")
    npk.set_kernel_backend("auto")
    try:
        assert npk.requested_backend() == "auto"
    finally:
        npk.set_kernel_backend(None)
    assert npk.requested_backend() == "python"
    with pytest.raises(ValueError):
        npk.set_kernel_backend("fortran")


def test_selector_graceful_without_numpy(monkeypatch):
    # Simulate an environment with no numpy: even an explicit
    # REPRO_KERNEL_BACKEND=numpy must fall back to python silently.
    monkeypatch.setattr(npk, "_np_module", None)
    monkeypatch.setattr(npk, "_np_checked", True)
    monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, "numpy")
    assert not npk.numpy_available()
    assert npk.kernel_backend() == "python"
    info = npk.backend_info()
    assert info == {"requested": "numpy", "resolved": "python", "numpy": None}
    with pytest.raises(RuntimeError, match="numpy is not available"):
        npk.NPGraph(CSRGraph(path_graph(3)))
    # public API keeps working on the python kernels
    tree = prim_mst(path_graph(4))
    assert tree.num_edges == 3


def test_backend_info_reports_versions():
    info = npk.backend_info()
    assert info["requested"] in ("auto", "numpy", "python")
    assert info["resolved"] in ("numpy", "python")
    if npk.numpy_available():
        assert isinstance(info["numpy"], str)


# --------------------------------------------------------------------- #
# Cache integration: numpy snapshots share the version invalidation
# --------------------------------------------------------------------- #


@requires_numpy
def test_cache_flushes_numpy_snapshot_on_mutation(monkeypatch):
    monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, "numpy")
    g = random_connected_graph(10, 8, seed=1)
    cache = param_cache(g)
    d1 = cache.diameter()
    assert cache.np_builds == 1
    first = cache.npg()
    assert first.version == g.version
    assert cache.npg() is first  # memoized within a version
    assert cache.np_builds == 1
    u, v, w = next(iter(g.edges()))
    g.add_edge(u, v, w + 100)  # overwrite bumps version
    d2 = cache.diameter()
    assert cache.np_builds == 2
    second = cache.npg()
    assert second is not first
    assert second.version == g.version
    assert cache.stats()["np_builds"] == 2
    assert d2 >= 0 and d1 >= 0


@requires_numpy
def test_python_backend_never_builds_numpy_snapshot(monkeypatch):
    monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, "python")
    g = random_connected_graph(10, 8, seed=1)
    cache = param_cache(g)
    cache.network_params()
    assert cache.np_builds == 0


# --------------------------------------------------------------------- #
# Dial bucket cap: heavy integral weights fall back to the heap
# --------------------------------------------------------------------- #


def test_dial_cap_heavy_lower_bound_family():
    # G_n carries bypass edges of weight X^4 (X = n + 1): at n = 40 the
    # Dial bucket count would be ~1.1e8 lists — the cap must route this
    # to the heap discipline (and the scan must still be exact).
    g = lower_bound_graph(40)
    csr = CSRGraph(g)
    assert csr.iadj is not None  # weights are integral...
    bound = (csr.n - 1) * csr.wmax + 1
    assert bound > csr_module._DIAL_BOUND_CAP  # ...but far too heavy
    scan = all_sources_scan(csr)
    # independent check against per-source heap Dijkstra
    for s in (0, csr.n // 2, csr.n - 1):
        dist_map, _ = sssp_maps(csr, csr.verts[s])
        assert scan.ecc[s] == max(dist_map.values())


def test_dial_and_heap_disciplines_agree(monkeypatch):
    g = random_connected_graph(16, 22, seed=11)
    dial = all_sources_scan(CSRGraph(g))
    monkeypatch.setattr(csr_module, "_DIAL_BOUND_CAP", 0)
    heap = all_sources_scan(CSRGraph(g))
    assert dial == heap


@requires_numpy
def test_heavy_weights_numpy_still_identical():
    g = lower_bound_graph(40)
    csr = CSRGraph(g)
    assert npk.np_all_sources_scan(npk.NPGraph(csr)) == all_sources_scan(csr)


# --------------------------------------------------------------------- #
# Dense Floyd-Warshall path vs the blocked relaxation path
# --------------------------------------------------------------------- #


@requires_numpy
@pytest.mark.parametrize("factory", [
    lambda: complete_graph(40),
    lambda: random_connected_graph(64, 900, seed=21),
    lambda: grid_graph(7, 7),
    lambda: lower_bound_graph(24),
    lambda: _disconnected_graph(),
])
def test_fw_and_relaxation_paths_agree(factory, monkeypatch):
    # Both numpy scan formulations must be value-identical on any graph
    # the FW dispatch accepts; the oracle pins them both.
    csr = CSRGraph(factory())
    npg = npk.NPGraph(csr)
    assert npk._fw_applicable(npg)
    fw_scan = npk.np_all_sources_scan(npg)
    monkeypatch.setattr(npk, "_fw_applicable", lambda _npg: False)
    bf_scan = npk.np_all_sources_scan(npg)
    assert fw_scan == bf_scan == all_sources_scan(csr)


@requires_numpy
def test_fw_dispatch_boundaries():
    # Fractional weights: never FW (min-plus would re-associate sums).
    assert not npk._fw_applicable(npk.NPGraph(CSRGraph(_fractional_graph(7))))
    # Large sparse: blocked relaxation (work should scale with m, not n^2).
    tree = random_connected_graph(600, 0, seed=2)
    assert not npk._fw_applicable(npk.NPGraph(CSRGraph(tree)))
    # Large dense clears the density threshold.
    dense = random_connected_graph(600, 24000, seed=2)
    npg = npk.NPGraph(CSRGraph(dense))
    assert npg.m2 * npk._FW_DENSE_FACTOR >= npg.n * npg.n
    assert npk._fw_applicable(npg)
    # Integer weights too heavy for the int32 sentinel fall back too.
    heavy = path_graph(3, (1 << 30))
    assert not npk._fw_applicable(npk.NPGraph(CSRGraph(heavy)))


@requires_numpy
def test_fw_sentinel_boundary_weights_exact():
    # int_bound == _FW_SENTINEL exactly: the largest admissible weights.
    # SENT + SENT must not overflow int32, or an "unreached" candidate
    # would wrap negative and beat every real distance.
    w = (1 << 29) - 1
    g = path_graph(3, w)
    csr = CSRGraph(g)
    npg = npk.NPGraph(csr)
    assert npg.int_bound == npk._FW_SENTINEL
    assert npk._fw_applicable(npg)
    assert npk.np_all_sources_scan(npg) == all_sources_scan(csr)


# --------------------------------------------------------------------- #
# Fractional-weight fallback (the thin path, now covered directly)
# --------------------------------------------------------------------- #


def test_float_integral_weights_use_dial(each_backend):
    g = _float_integral_graph()
    csr = CSRGraph(g)
    assert csr.iadj is not None  # float-typed but integral: Dial eligible
    cache = param_cache(g)
    assert cache.diameter() == all_sources_scan(csr).diameter


def test_mixed_weights_use_heap(each_backend):
    g = _mixed_weight_graph(5)
    csr = CSRGraph(g)
    assert csr.iadj is None  # fractional: Dial ineligible
    cache = param_cache(g)
    scan = all_sources_scan(csr)
    assert cache.diameter() == scan.diameter
    assert cache.max_neighbor_distance() == scan.max_neighbor_distance


@requires_numpy
@pytest.mark.parametrize("factory", [
    _fractional_graph, _mixed_weight_graph,
], ids=["fractional", "mixed"])
def test_fractional_backends_agree(factory, monkeypatch):
    g = factory(4)
    csr = CSRGraph(g)
    npg = npk.NPGraph(csr)
    assert not npg.use_int  # float regime
    assert npk.np_all_sources_scan(npg) == all_sources_scan(csr)
    want = list(prim_mst_dicts(g).edges())
    for backend in BACKENDS:
        monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, backend)
        assert list(prim_mst(g).edges()) == want


# --------------------------------------------------------------------- #
# Serial == pool byte-identity holds under both backends
# --------------------------------------------------------------------- #


@pytest.mark.parametrize("backend", ["python", "numpy"])
def test_chaos_rows_serial_equals_pool_per_backend(backend, monkeypatch):
    if backend == "numpy" and not npk.numpy_available():
        pytest.skip("numpy not installed")
    from repro.experiments.parallel import chaos_rows, shutdown_pool

    monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, backend)
    kw = dict(n=10, extra_edges=12, graph_seed=4, drop_rates=(0.0, 0.2))
    try:
        serial = chaos_rows(jobs=1, **kw)
        pooled = chaos_rows(jobs=2, force="pool", **kw)
    finally:
        shutdown_pool()
    assert serial == pooled


@requires_numpy
def test_chaos_rows_identical_across_backends(monkeypatch):
    from repro.experiments.parallel import chaos_rows

    kw = dict(n=8, extra_edges=6, graph_seed=3, drop_rates=(0.0, 0.1),
              jobs=1)
    monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, "python")
    py_rows = chaos_rows(**kw)
    monkeypatch.setenv(npk.KERNEL_BACKEND_ENV, "numpy")
    np_rows = chaos_rows(**kw)
    assert py_rows == np_rows
