"""Memoized per-graph network parameters with mutation invalidation.

The paper (Sections 1-2) treats script-V ``w(MST(G))``, script-D
``Diam(G)``, and the shortest-path structure of ``G`` as *fixed per-graph
quantities*, yet every protocol construction and experiment sweep used to
recompute them from scratch on each call — an O(n * m log n) tax per run
that dominated sweep wall time.  :class:`GraphParamCache` memoizes them
per :class:`~repro.graphs.weighted_graph.WeightedGraph` instance and
invalidates automatically when the graph mutates.

The cache also owns the graph's flat-array snapshot
(:class:`~repro.graphs.csr.CSRGraph`, built once per graph version) and
computes every parameter through the CSR kernels instead of the
dict-of-dicts algorithms: per-source shortest paths via
:func:`~repro.graphs.csr.sssp_maps`, eccentricities/diameter/max
neighbor distance via one batched :func:`~repro.graphs.csr.all_sources_scan`
pass, and the MST via :func:`~repro.graphs.csr.csr_prim_mst`.  The
kernels replay the dict path's iteration and tie-breaking order exactly,
so every answer — including dict insertion order, MST edge order, and
float rounding — is byte-identical to what the dict algorithms return
(``tests/test_csr_kernels.py`` pins this).

The batched scan dispatches on
:func:`~repro.graphs.npkernels.kernel_backend`: under the ``numpy``
backend it runs the vectorized scan against a memoized
:class:`~repro.graphs.npkernels.NPGraph` mirror of the CSR snapshot,
which is value-identical by the same contract
(``tests/test_npkernels_differential.py`` pins it) and wiped by the same
version check.  Per-source :func:`~repro.graphs.csr.sssp_maps` and the
MST stay on the Python kernels under every backend — the dict views'
parent/discovery order and Prim's one-vertex-per-step growth are
inherently sequential, so the ``numpy`` backend never builds an
``NPGraph`` for them.

Invalidation contract (see docs/PERF.md):

* every mutating ``WeightedGraph`` operation (``add_vertex``,
  ``add_edge``, ``remove_edge``) bumps the graph's ``version`` counter;
* every cache accessor compares the stored version against the graph's
  before answering and wipes all memoized state — including the CSR
  snapshot — on mismatch; a stale answer is therefore impossible as long
  as mutations go through the ``WeightedGraph`` API (mutating ``_adj``
  directly is out of contract);
* cached aggregate values (floats, :class:`NetworkParams`) are immutable
  and safe to share; cached *structures* (the MST tree, shortest-path
  dicts, the CSR snapshot) are shared read-only views — callers must
  copy before mutating.

The cache attaches lazily to the graph instance (``param_cache(g)``), so
its lifetime — and memory — is tied to the graph it describes.  Per-source
shortest-path tables are cached only for the sources actually queried;
the whole-graph scan keeps one O(n) result row (eccentricities plus two
floats), never the O(n^2) distance matrix.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .csr import (
    CSRGraph,
    FlatGraph,
    GraphScan,
    all_sources_scan,
    csr_prim_mst,
    flat_of,
    sssp_maps,
)
from .npkernels import NPGraph, kernel_backend, np_all_sources_scan
from .weighted_graph import Vertex, WeightedGraph

if TYPE_CHECKING:  # runtime import is deferred: params imports this module
    from .params import NetworkParams
    from .shm import SnapshotHandle

__all__ = ["GraphParamCache", "param_cache"]


class GraphParamCache:
    """Version-checked memo of one graph's weighted parameters."""

    __slots__ = (
        "graph", "_version", "_csrg", "_npg", "_flat", "_sssp", "_scan",
        "_ecc", "_mst", "_mst_weight", "_params", "_connected",
        "hits", "misses", "invalidations", "csr_builds", "np_builds",
        "flat_builds",
    )

    def __init__(self, graph: WeightedGraph) -> None:
        self.graph = graph
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.csr_builds = 0
        self.np_builds = 0
        self.flat_builds = 0
        self._wipe()
        self._version = graph.version

    # ------------------------------------------------------------------ #
    # Invalidation plumbing
    # ------------------------------------------------------------------ #

    def _wipe(self) -> None:
        self._csrg: CSRGraph | None = None
        self._npg: NPGraph | None = None
        self._flat: FlatGraph | None = None
        self._sssp: dict[Vertex, tuple[dict, dict]] = {}
        # GraphScan: ecc row + diameter + max nbr dist.
        self._scan: GraphScan | None = None
        self._ecc: dict[Vertex, float] | None = None
        self._mst: WeightedGraph | None = None
        self._mst_weight: float | None = None
        self._params: NetworkParams | None = None
        self._connected: bool | None = None

    def _sync(self) -> None:
        if self._version != self.graph.version:
            self._wipe()
            self._version = self.graph.version
            self.invalidations += 1

    # ------------------------------------------------------------------ #
    # CSR snapshot
    # ------------------------------------------------------------------ #

    def csr(self) -> CSRGraph:
        """The flat-array snapshot of the graph at its current version.

        Built once per version and shared by every kernel below; treat it
        as read-only (it is immutable by construction).
        """
        self._sync()
        if self._csrg is None:
            self._csrg = CSRGraph(self.graph)
            self.csr_builds += 1
        return self._csrg

    def npg(self) -> NPGraph:
        """The NumPy mirror of the CSR snapshot at the current version.

        Built lazily (only when the numpy backend actually runs a
        kernel) and wiped together with the CSR snapshot on mutation, so
        the two views can never disagree about graph contents.  Raises
        ``RuntimeError`` when numpy is unavailable — callers dispatch on
        :func:`~repro.graphs.npkernels.kernel_backend` first.
        """
        self._sync()
        if self._npg is None:
            self._npg = NPGraph(self.csr())
            self.np_builds += 1
        return self._npg

    def flat(self) -> FlatGraph:
        """The transportable flat-buffer snapshot at the current version.

        One conversion per graph version (``flat_builds`` mirrors
        ``csr_builds``); the result is what :func:`publish` ships into a
        shared-memory segment.  Wiped by the same version check as the
        CSR snapshot, so a published handle for a mutated graph can never
        alias stale bytes — re-publishing bumps ``version`` and unlinks
        the old segment.
        """
        self._sync()
        if self._flat is None:
            self._flat = flat_of(self.csr())
            self.flat_builds += 1
        return self._flat

    def publish(self, key: str | None = None) -> SnapshotHandle:
        """Publish the flat snapshot for zero-copy pool attachment."""
        from . import shm  # deferred: keep shared-memory optional at import

        return shm.publish(self.flat(), key=key)

    # ------------------------------------------------------------------ #
    # Shortest-path structure
    # ------------------------------------------------------------------ #

    def sssp(self, source: Vertex) -> tuple[dict, dict]:
        """Cached ``(dist, parent)`` of a Dijkstra run from ``source``.

        The returned dicts are the cache's own — treat them as read-only
        (use :func:`repro.graphs.paths.dijkstra` for a private copy).
        """
        self._sync()
        hit = self._sssp.get(source)
        if hit is not None:
            self.hits += 1
            return hit
        self.misses += 1
        result = sssp_maps(self.csr(), source)
        self._sssp[source] = result
        return result

    def _full_scan(self) -> GraphScan:
        if self._scan is None:
            self.misses += 1
            if kernel_backend() == "numpy":
                self._scan = np_all_sources_scan(self.npg())
            else:
                self._scan = all_sources_scan(self.csr())
        return self._scan

    def eccentricities(self) -> dict[Vertex, float]:
        """``Rad(v, G)`` for every vertex (inf where G is disconnected)."""
        self._sync()
        if self._ecc is not None:
            self.hits += 1
            return self._ecc
        scan = self._full_scan()
        self._ecc = dict(zip(self.csr().verts, scan.ecc, strict=True))
        return self._ecc

    def eccentricity(self, v: Vertex) -> float:
        return self.eccentricities()[v]

    def diameter(self) -> float:
        """script-D — the weighted diameter ``Diam(G)``."""
        self._sync()
        if self._scan is not None:
            self.hits += 1
        return self._full_scan().diameter

    def max_neighbor_distance(self) -> float:
        """``d = max_{(u,v) in E} dist(u, v)`` (clock-sync lower bound)."""
        self._sync()
        if self._scan is not None:
            self.hits += 1
        return self._full_scan().max_neighbor_distance

    # ------------------------------------------------------------------ #
    # Spanning structure
    # ------------------------------------------------------------------ #

    def mst(self) -> WeightedGraph:
        """The memoized MST (read-only; copy before mutating)."""
        self._sync()
        if self._mst is not None:
            self.hits += 1
            return self._mst
        self.misses += 1
        self._mst = csr_prim_mst(self.csr())
        return self._mst

    def mst_weight(self) -> float:
        """script-V — ``w(MST(G))``."""
        self._sync()
        if self._mst_weight is None:
            self._mst_weight = self.mst().total_weight()
        else:
            self.hits += 1
        return self._mst_weight

    # ------------------------------------------------------------------ #
    # Aggregates
    # ------------------------------------------------------------------ #

    def is_connected(self) -> bool:
        self._sync()
        if self._connected is None:
            self._connected = self.graph.is_connected()
        else:
            self.hits += 1
        return self._connected

    def network_params(self) -> NetworkParams:
        """The full :class:`~repro.graphs.params.NetworkParams` record."""
        self._sync()
        if self._params is not None:
            self.hits += 1
            return self._params
        from .params import NetworkParams  # deferred: params imports us

        if not self.is_connected():
            raise ValueError("network parameters require a connected graph")
        g = self.graph
        self._params = NetworkParams(
            n=g.num_vertices,
            m=g.num_edges,
            E=g.total_weight(),
            V=self.mst_weight(),
            D=self.diameter(),
            W=g.max_weight(),
            d=self.max_neighbor_distance(),
        )
        return self._params

    def stats(self) -> dict:
        """Counters for tests and the bench harness.

        Includes the process-wide shared-memory snapshot counters
        (``shm_creates`` / ``shm_attaches`` / ``shm_bytes`` ...) so sweep
        call sites read build *and* transport behavior from one place.
        """
        from . import shm  # deferred: keep shared-memory optional at import

        out = {
            "hits": self.hits,
            "misses": self.misses,
            "invalidations": self.invalidations,
            "csr_builds": self.csr_builds,
            "np_builds": self.np_builds,
            "flat_builds": self.flat_builds,
            "sssp_sources": len(self._sssp),
        }
        out.update(shm.stats())
        return out


def param_cache(graph: WeightedGraph) -> GraphParamCache:
    """The cache attached to ``graph``, creating it on first use."""
    cache = getattr(graph, "_param_cache", None)
    if cache is None:
        cache = GraphParamCache(graph)
        graph._param_cache = cache
    return cache
