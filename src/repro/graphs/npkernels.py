"""NumPy-vectorized CSR kernel backend (optional; pure Python remains golden).

The flat-array kernels in :mod:`repro.graphs.csr` replaced dict-of-dicts
traversal with list-indexed loops, but every relaxation is still a Python
bytecode dispatch.  At the graph scales the related-work models demand
(message-optimal MST, the latency+capacity model — n in the 10^5..10^6
range) that per-element interpretation dominates sweep wall time.  This
module ports the hot kernels to true array programs in the style of the
per-edge delay-matrix idiom (SNIPPETS.md Snippet 2): whole frontiers and
edge sets move per NumPy call, no per-element Python.

Backend contract
----------------
NumPy is an *optional extra*, never a hard dependency.  Which backend the
public API (``GraphParamCache``, ``prim_mst``, ``kruskal_mst``, the
``params`` functions) uses is decided by :func:`kernel_backend`:

* ``REPRO_KERNEL_BACKEND=python`` — always the pure-Python CSR kernels;
* ``REPRO_KERNEL_BACKEND=numpy`` — the kernels below, falling back to
  ``python`` gracefully when numpy is not importable (no ImportError ever
  escapes);
* unset / ``auto`` — numpy when available, python otherwise.

:func:`set_kernel_backend` installs a process-local override (used by the
pool worker initializer so every worker resolves the same backend the
parent did, keeping serial == pool byte-identity trivially true).

Identity contract
-----------------
Every kernel here returns *value-identical* results to its pure-Python
oracle — same floats bit-for-bit, same MST edge sets chosen under the
same tie-break rule, same exception on disconnected input — pinned by
``tests/test_npkernels_differential.py``.  The arguments:

* **Distances.**  Both Dijkstra (heap or Dial) and the frontier
  relaxation below compute, for every vertex ``v``, the minimum over all
  paths of the *left-to-right IEEE-754 sum* of the path's weights:
  relaxations only ever lower a distance to ``fl(d[u] + w)``, float
  addition of a non-negative weight is monotone, and any maximal
  sequence of relaxations reaches the same least fixpoint.  The
  frontier loop is such a sequence: it re-expands every distance that
  dropped, with its new value, until none drops, and folds candidates
  with ``min``, which is exact in any order.  Integral weights
  additionally use exact ``int64`` sums whenever every possible
  distance stays below 2**53, where int and float arithmetic agree
  exactly (the same regime the Dial bucket queue relies on).
* **Dense all-pairs.**  In the exact-integer regime the all-sources scan
  upgrades to an in-place ``int32`` Floyd–Warshall over the full n x n
  matrix when the graph is dense enough (:func:`_fw_applicable`).
  Min-plus closure over *exact integer* arithmetic yields the true
  shortest-path distances regardless of summation order, and those
  integers convert to float64 exactly below 2**53 — so the result is
  value-identical to Dial/Dijkstra.  Floyd–Warshall is *never* used for
  float weights: it associates path sums differently than the oracle's
  left-to-right order, which only exact arithmetic makes harmless.
* **MST tie-breaking.**  ``csr_prim_mst`` pops ``(w, tie)`` keys where
  ``tie`` counts heap pushes: root adjacency first, then each newly
  added vertex's adjacency in CSR order.  Among live frontier edges that
  ordering is exactly lexicographic ``(weight, add-step of the tree
  endpoint, CSR position)``, which :func:`np_prim_mst` encodes as an
  integer rank and minimizes with a masked argmin.  ``csr_kruskal_mst``
  stable-sorts by weight, preserving ``graph.edges()`` order among equal
  weights — exactly what a stable ``argsort`` over the frozen edge
  arrays yields.

Tree-building (``WeightedGraph.add_edge``) inserts the *original* weight
objects out of the CSR snapshot, never ``numpy.float64`` conversions, so
``total_weight()`` sums are bit-equal to the oracle's, including int
versus float reprs.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any

from .csr import CSRGraph, FlatGraph, GraphScan
from .weighted_graph import WeightedGraph

__all__ = [
    "KERNEL_BACKEND_ENV",
    "numpy_available",
    "requested_backend",
    "kernel_backend",
    "set_kernel_backend",
    "backend_info",
    "NPGraph",
    "np_graph_of",
    "NPFlat",
    "np_flat_of",
    "np_flat_source_stats",
    "np_all_sources_scan",
    "np_sssp_dist",
    "np_delay_propagation",
    "np_prim_mst",
    "np_kruskal_mst",
]

KERNEL_BACKEND_ENV = "REPRO_KERNEL_BACKEND"

_BACKENDS = ("auto", "numpy", "python")

# Integer distance sums are exact in float64 strictly below 2**53; above
# it the int64 path would diverge from the float oracle, so it is gated.
_EXACT_INT_BOUND = 2**53

_np_module: Any = None
_np_checked = False
_forced: str | None = None


def _numpy() -> Any:
    """The numpy module, or ``None`` when not importable (checked once)."""
    global _np_module, _np_checked
    if not _np_checked:
        try:
            import numpy
        except ImportError:
            _np_module = None
        else:
            _np_module = numpy
        _np_checked = True
    return _np_module


def numpy_available() -> bool:
    """True when numpy can be imported in this process."""
    return _numpy() is not None


def requested_backend() -> str:
    """The backend the environment (or an override) asks for, unresolved.

    One of ``auto`` / ``numpy`` / ``python``.  Raises ``ValueError`` on an
    unrecognized ``REPRO_KERNEL_BACKEND`` value — a typo should fail
    loudly, only a genuinely missing numpy falls back silently.
    """
    if _forced is not None:
        return _forced
    raw = os.environ.get(KERNEL_BACKEND_ENV, "auto").strip().lower() or "auto"
    if raw not in _BACKENDS:
        raise ValueError(
            f"{KERNEL_BACKEND_ENV}={raw!r} is not a valid kernel backend; "
            f"expected one of {_BACKENDS}"
        )
    return raw


def kernel_backend() -> str:
    """The *resolved* backend: ``"numpy"`` or ``"python"``.

    ``auto`` and ``numpy`` both resolve to ``python`` when numpy is
    absent (graceful fallback — the pure-Python kernels are complete), so
    callers can branch on this without ever touching an ImportError.
    """
    requested = requested_backend()
    if requested == "python":
        return "python"
    return "numpy" if numpy_available() else "python"


def set_kernel_backend(name: str | None) -> None:
    """Install a process-local backend override (``None`` clears it).

    Overrides take precedence over ``REPRO_KERNEL_BACKEND``.  The sweep
    engine's worker initializer calls this with the parent's resolved
    backend so a pool never mixes backends within one sweep.
    """
    global _forced
    if name is not None and name not in _BACKENDS:
        raise ValueError(
            f"invalid kernel backend {name!r}; expected one of {_BACKENDS}"
        )
    _forced = name


def backend_info() -> dict[str, Any]:
    """Diagnostics: requested vs resolved backend and the numpy version."""
    np = _numpy()
    return {
        "requested": requested_backend(),
        "resolved": kernel_backend(),
        "numpy": None if np is None else str(np.__version__),
    }


def _require_numpy() -> Any:
    np = _numpy()
    if np is None:
        raise RuntimeError(
            "numpy is not available; use the pure-Python kernels "
            "(repro.graphs.csr) or install the 'numpy' extra"
        )
    return np


# --------------------------------------------------------------------- #
# Array snapshot
# --------------------------------------------------------------------- #


class NPGraph:
    """NumPy mirror of a :class:`~repro.graphs.csr.CSRGraph` snapshot.

    Holds the CSR arrays as ``ndarray``s plus the derived structures the
    vectorized kernels need: vertex degrees (``deg``), per-position
    source vertex (``edge_u``), and the exact ``int64`` weight view for
    the integral-weight fast path.  Keeps a reference to the originating
    ``CSRGraph`` so tree-building kernels can insert the *original*
    weight objects (bit-identical sums).

    Snapshots are immutable and version-stamped like the CSR they mirror;
    :meth:`repro.graphs.cache.GraphParamCache.npg` memoizes one per graph
    version and drops it on mutation.
    """

    __slots__ = (
        "csr", "n", "m2", "indptr", "indices", "weights", "iweights",
        "edge_u", "deg", "use_int", "int_bound", "edge_weight_f", "version",
    )

    def __init__(self, csr: CSRGraph) -> None:
        np = _require_numpy()
        self.csr = csr
        n = csr.n
        self.n = n
        self.indptr = np.asarray(csr.indptr, dtype=np.int64)
        self.indices = np.asarray(csr.indices, dtype=np.int64)
        self.weights = np.asarray(csr.weights, dtype=np.float64)
        self.m2 = int(self.indices.shape[0])
        self.deg = np.diff(self.indptr)
        self.edge_u = np.repeat(np.arange(n, dtype=np.int64), self.deg)
        bound = max(1, (n - 1) * csr.wmax + 1) if n else 1
        self.use_int = csr.iadj is not None and bound < _EXACT_INT_BOUND
        self.int_bound = int(bound) if self.use_int else 0
        self.iweights = (
            self.weights.astype(np.int64) if self.use_int else None
        )
        self.edge_weight_f = np.asarray(csr.edge_weight, dtype=np.float64)
        self.version = csr.version

    def __repr__(self) -> str:
        return (
            f"NPGraph(n={self.n}, m={self.m2 // 2}, "
            f"int={self.use_int}, version={self.version})"
        )


def np_graph_of(graph: WeightedGraph) -> NPGraph:
    """The memoized NumPy snapshot of ``graph`` (rebuilt after mutations).

    Routed through :class:`~repro.graphs.cache.GraphParamCache` alongside
    the CSR snapshot, sharing its version-checked invalidation.
    """
    from .cache import param_cache  # deferred: cache imports our kernels

    return param_cache(graph).npg()


class NPFlat:
    """NumPy view of a :class:`~repro.graphs.csr.FlatGraph` snapshot.

    Mirrors exactly the :class:`NPGraph` attributes the frontier
    relaxation reads, built **zero-copy**: ``np.frombuffer`` over the
    flat buffers, which may live in a shared-memory segment — the whole
    point of the big tier is that this constructor touches no graph
    bytes.  Only the derived degree array (O(n) int64) and, for integral
    weights, the ``int64`` weight view (O(m)) allocate, once per process
    per snapshot via :func:`np_flat_of`'s memo on ``FlatGraph.np_cache``.
    """

    __slots__ = (
        "n", "m2", "indptr", "indices", "weights", "iweights", "deg",
        "use_int", "int_bound",
    )

    def __init__(self, flat: FlatGraph) -> None:
        np = _require_numpy()
        self.n = flat.n
        self.indptr = np.frombuffer(flat.indptr, dtype=np.int64)
        self.indices = np.frombuffer(flat.indices, dtype=np.int64)
        self.weights = np.frombuffer(flat.weights, dtype=np.float64)
        self.m2 = int(self.indices.shape[0])
        self.deg = np.diff(self.indptr)
        # Same exact-integer gate as NPGraph, in exact int arithmetic
        # (float wmax is integer-valued whenever `integral` is set).
        bound = max(1, (flat.n - 1) * int(flat.wmax) + 1) if flat.n else 1
        self.use_int = flat.integral and bound < _EXACT_INT_BOUND
        self.int_bound = int(bound) if self.use_int else 0
        self.iweights = (
            self.weights.astype(np.int64) if self.use_int else None
        )

    def __repr__(self) -> str:
        return f"NPFlat(n={self.n}, m={self.m2 // 2}, int={self.use_int})"


def np_flat_of(flat: FlatGraph) -> NPFlat:
    """The memoized :class:`NPFlat` view of ``flat`` (built on first use)."""
    cached = flat.np_cache
    if cached is None:
        cached = NPFlat(flat)
        flat.np_cache = cached
    return cached


def np_flat_source_stats(flat: FlatGraph, lo: int, hi: int) -> dict[str, Any]:
    """Batched per-source sweep stats; byte-identical to the Python kernel.

    Runs the blocked frontier relaxation (:func:`_dist_rows`) over the
    source range and folds each row into the same three aggregates as
    :func:`repro.graphs.csr.flat_source_stats` — including the sha256
    digest over the float64 distance bytes, which match the heap
    Dijkstra's bit-for-bit (exact int64 below 2**53, float least-fixpoint
    above; see the module docstring's identity contract).
    """
    np = _require_numpy()
    n = flat.n
    if not 0 <= lo <= hi <= n:
        raise IndexError(f"source range [{lo}, {hi}) out of bounds 0..{n}")
    npf = np_flat_of(flat)
    h = hashlib.sha256()
    ecc_max = 0.0
    reach_min = n if hi > lo else 0
    block = max(1, _SCAN_BLOCK_ELEMS // max(n, npf.m2, 1))
    for blo in range(lo, hi, block):
        bhi = min(hi, blo + block)
        dist = _dist_rows(npf, blo, bhi)
        if npf.use_int:
            finite = dist < npf.int_bound
            rows = dist.astype(np.float64)
            rows[~finite] = np.inf
        else:
            finite = dist < np.inf
            rows = dist
        reach = finite.sum(axis=1)
        block_reach_min = int(reach.min())
        if block_reach_min < reach_min:
            reach_min = block_reach_min
        # ecc per row: the max finite distance when everything was
        # reached, else inf — rows.max() is exactly that, because a row
        # with any unreached vertex maxes to the inf sentinel itself.
        block_ecc = float(rows.max())
        if block_ecc > ecc_max:
            ecc_max = block_ecc
        h.update(np.ascontiguousarray(rows).tobytes())
    return {
        "kind": "sources",
        "lo": lo,
        "hi": hi,
        "sources": hi - lo,
        "reach_min": reach_min,
        "ecc_max": ecc_max,
        "digest": h.hexdigest()[:16],
    }


# --------------------------------------------------------------------- #
# Frontier shortest-path relaxation
# --------------------------------------------------------------------- #

# Cap on the (rows x columns) scratch a multi-source scan holds at once;
# sources are processed in row blocks sized to stay under it.
_SCAN_BLOCK_ELEMS = 1 << 22


def _relax(npg: NPGraph | NPFlat, dist: Any, frontier: Any,
           weights: Any) -> None:
    """Push-relax ``dist`` in place from ``frontier`` until nothing drops.

    ``dist`` is a flat array of ``rows * n`` entries, entry ``r*n + v``
    holding row ``r``'s distance to ``v``; ``frontier`` holds the flat
    indices to expand first (finite entries only).  Each round expands
    the CSR out-edges of the frontier entries, keeps the candidates
    ``dist[u] + weights[j]`` that beat their target, and folds them in
    with ``np.minimum.at``; the next frontier is every entry that
    dropped.  Only finite distances are ever expanded, so no arithmetic
    touches the sentinel, and a round's temporaries are at most
    ``rows * m2`` elements.
    """
    np = _require_numpy()
    n = npg.n
    indptr, indices, deg = npg.indptr, npg.indices, npg.deg
    several = dist.size > n
    mark = np.zeros(dist.size, dtype=bool)
    # `take` rather than fancy indexing: the gathers are most of the
    # work, and `take` runs them about a third faster.
    while frontier.size:
        u = frontier % n if several else frontier
        cnt = deg.take(u)
        ends = np.cumsum(cnt)
        # The out-edge CSR positions of every frontier entry, back to back.
        pos = np.repeat(indptr.take(u) - ends + cnt, cnt)
        pos += np.arange(pos.size)
        tgt = indices.take(pos)
        if several:
            tgt += np.repeat(frontier - u, cnt)
        cand = weights.take(pos)
        cand += np.repeat(dist.take(frontier), cnt)
        keep = np.flatnonzero(cand < dist.take(tgt))
        tgt = tgt.take(keep)
        np.minimum.at(dist, tgt, cand.take(keep))
        # A reused mark, not np.unique: dedupes the drops without a sort.
        mark[tgt] = True
        frontier = np.flatnonzero(mark)
        mark[frontier] = False


def _dist_rows(npg: NPGraph | NPFlat, lo: int, hi: int) -> Any:
    """Shortest-path distances from sources ``lo..hi-1`` as a 2-D array.

    Rows are independent single-source problems relaxed together by
    :func:`_relax`, starting from a frontier of the ``hi - lo`` sources.
    Integral weights run in exact ``int64`` with ``npg.int_bound`` as the
    infinity sentinel; fractional (or 2**53-exceeding) weights run in
    ``float64`` with ``inf``.  Either way the fixpoint equals the oracle
    Dijkstra distances bit-for-bit (see the module docstring).
    """
    np = _require_numpy()
    n = npg.n
    size = hi - lo
    if npg.use_int:
        weights = npg.iweights
        dist = np.full(size * n, npg.int_bound, dtype=np.int64)
    else:
        weights = npg.weights
        dist = np.full(size * n, np.inf, dtype=np.float64)
    # Row r starts from source lo + r, at flat index r * n + lo + r.
    sources = np.arange(size) * (n + 1) + lo
    dist[sources] = 0
    _relax(npg, dist, sources, weights)
    return dist.reshape(size, n)


# Dense-regime Floyd-Warshall dispatch.  The n x n int32 matrix stays
# cache-resident up to _FW_MAX_N (~1.1ns per element on one core), so an
# n-pass min-plus closure beats both the per-source Dial scan and the
# frontier relaxation whenever the graph carries enough edges per vertex
# (or is small enough that n^3 is cheap regardless).  The sentinel is
# chosen so SENTINEL + SENTINEL still fits in int32 — no overflow wraps
# a "still infinite" candidate below a real distance.
_FW_SENTINEL = (1 << 30) - 1
_FW_MAX_N = 2048
_FW_SMALL_N = 512
_FW_DENSE_FACTOR = 64


def _fw_applicable(npg: NPGraph) -> bool:
    """True when the scan should run the dense Floyd-Warshall kernel.

    Requires the exact-integer regime with every distance (and every
    sentinel sum) representable in int32, and a shape where n^3 wins:
    small graphs unconditionally, larger ones only when the edge count
    clears ``n^2 / _FW_DENSE_FACTOR`` (sparser graphs fall back to the
    frontier relaxation, whose work scales with m rather than n^2).
    """
    n = npg.n
    if not npg.use_int or n < 2 or n > _FW_MAX_N:
        return False
    if npg.int_bound > _FW_SENTINEL:
        return False
    return n <= _FW_SMALL_N or npg.m2 * _FW_DENSE_FACTOR >= n * n


def _fw_all_pairs(npg: NPGraph) -> Any:
    """All-pairs distances via in-place int32 Floyd-Warshall.

    Returns the dense ``(n, n)`` matrix with ``_FW_SENTINEL`` marking
    unreachable pairs.  Exact integer min-plus closure: the result is
    the true shortest-path distance for every pair, independent of the
    order path sums associate in — which is why this path is gated to
    ``use_int`` (see the module docstring's identity contract).
    """
    np = _require_numpy()
    n = npg.n
    dist = np.full((n, n), _FW_SENTINEL, dtype=np.int32)
    dist[npg.edge_u, npg.indices] = npg.iweights.astype(np.int32)
    np.fill_diagonal(dist, 0)
    for k in range(n):
        cand = dist[:, k, None] + dist[k, None, :]
        np.minimum(dist, cand, out=dist)
    return dist


def np_all_sources_scan(npg: NPGraph) -> GraphScan:
    """Batched eccentricities / diameter / max neighbor distance.

    Value-identical to :func:`repro.graphs.csr.all_sources_scan`: the
    same ``GraphScan`` floats bit-for-bit, computed from 2-D distance
    blocks instead of one Python Dijkstra per source.  Dense graphs in
    the exact-integer regime run the Floyd-Warshall closure instead of
    the frontier relaxation (:func:`_fw_applicable`); either way the
    values are identical.  Memory is bounded by processing sources in
    contiguous row blocks (the dense path holds one n x n int32 matrix).
    """
    np = _require_numpy()
    n = npg.n
    if n == 0:
        return GraphScan([], 0.0, 0.0)
    if _fw_applicable(npg):
        dist = _fw_all_pairs(npg)
        reached_all = (dist < _FW_SENTINEL).all(axis=1)
        row_max = dist.max(axis=1).astype(np.float64)
        ecc_arr = np.where(reached_all, row_max, np.inf)
        max_nbr = (
            float(dist[npg.edge_u, npg.indices].max()) if npg.m2 else 0.0
        )
        diameter = float(ecc_arr.max())
        return GraphScan(
            [float(e) for e in ecc_arr.tolist()], diameter, max_nbr
        )
    block = max(1, _SCAN_BLOCK_ELEMS // max(n, npg.m2, 1))
    ecc = np.empty(n, dtype=np.float64)
    max_nbr = 0.0
    indices = npg.indices
    edge_u = npg.edge_u
    indptr = npg.indptr
    for lo in range(0, n, block):
        hi = min(n, lo + block)
        dist = _dist_rows(npg, lo, hi)
        if npg.use_int:
            reached_all = (dist < npg.int_bound).all(axis=1)
            row_max = dist.max(axis=1).astype(np.float64)
            ecc[lo:hi] = np.where(reached_all, row_max, np.inf)
        else:
            # A row max of inf is exactly "some vertex unreached".
            ecc[lo:hi] = dist.max(axis=1)
        a, b = int(indptr[lo]), int(indptr[hi])
        if b > a:
            # dist(u, v) for every directed edge (u, v) with u in block:
            # neighbors are always reachable, so these are finite.
            nbr = dist[edge_u[a:b] - lo, indices[a:b]]
            block_max = float(nbr.max())
            if block_max > max_nbr:
                max_nbr = block_max
    diameter = float(ecc.max())
    return GraphScan([float(e) for e in ecc.tolist()], diameter, max_nbr)


def np_sssp_dist(npg: NPGraph, source: int) -> list[float]:
    """Distances from one dense source index (``inf`` where unreachable).

    Value-identical to the ``dist`` side of
    :func:`repro.graphs.csr.sssp_maps` (which additionally reports
    parents and discovery order — those are inherently sequential and
    stay on the Python kernel under every backend).
    """
    np = _require_numpy()
    if not 0 <= source < npg.n:
        raise IndexError(f"source index {source} out of range 0..{npg.n - 1}")
    row = _dist_rows(npg, source, source + 1)[0]
    if npg.use_int:
        out = row.astype(np.float64)
        out[row >= npg.int_bound] = np.inf
        return [float(x) for x in out.tolist()]
    return [float(x) for x in row.tolist()]


def np_delay_propagation(
    npg: NPGraph, source: int, delays: Any = None
) -> list[float]:
    """Earliest flood/pulse arrival times under per-edge delays.

    The paper's delay model lets each directed traversal of ``e`` take
    any delay in ``[0, w(e)]``; a flood started at ``source`` delivers to
    ``v`` at ``min`` over in-edges of ``arrival[u] + delay(u -> v)``.
    ``delays`` is an array aligned with the directed CSR positions
    (``delays[j]`` is the delay of the edge stored at position ``j``);
    ``None`` means the worst case ``delays = weights``, which makes this
    exactly single-source shortest paths.

    Asymmetric delays need no reverse lookup: :func:`_relax` pushes
    along out-edges, so the delay at position ``j`` is exactly the one
    of the edge it expands, ``edge_u[j] -> indices[j]``.
    """
    np = _require_numpy()
    n = npg.n
    if not 0 <= source < n:
        raise IndexError(f"source index {source} out of range 0..{n - 1}")
    if delays is None:
        return np_sssp_dist(npg, source)
    delays = np.asarray(delays, dtype=np.float64)
    if delays.shape != (npg.m2,):
        raise ValueError(
            f"delays must have one entry per directed CSR position "
            f"({npg.m2}), got shape {delays.shape}"
        )
    if bool(np.isnan(delays).any()):
        raise ValueError("delays must not be NaN")
    if bool((delays < 0).any()):
        raise ValueError("delays must be non-negative")
    arrival = np.full(n, np.inf, dtype=np.float64)
    arrival[source] = 0.0
    _relax(npg, arrival, np.array([source]), delays)
    return [float(x) for x in arrival.tolist()]


# --------------------------------------------------------------------- #
# Minimum spanning trees
# --------------------------------------------------------------------- #


def np_prim_mst(npg: NPGraph, root: int = 0) -> WeightedGraph:
    """Array Prim; byte-identical to :func:`~repro.graphs.csr.csr_prim_mst`.

    Maintains, per non-tree vertex, the best frontier edge keyed by
    ``(weight, rank)`` where ``rank = add_step * 2m + CSR position``
    replays the heap push counter's ordering exactly (see the module
    docstring).  Each step is two vectorized passes — a masked update of
    the frontier arrays over the new vertex's adjacency, and a masked
    argmin to select the next tree edge — so the per-step work is one
    adjacency row plus O(n) array ops, with no per-edge Python.

    Raises ``ValueError`` on a disconnected graph, like every oracle.
    """
    np = _require_numpy()
    n = npg.n
    if n == 0:
        return WeightedGraph()
    csr = npg.csr
    verts = csr.verts
    raw_weights = csr.weights  # original weight objects for add_edge
    indptr = npg.indptr
    indices = npg.indices
    weights = npg.weights
    edge_u = npg.edge_u
    m2 = max(npg.m2, 1)
    int64_max = np.iinfo(np.int64).max
    best_w = np.full(n, np.inf, dtype=np.float64)
    best_rank = np.full(n, int64_max, dtype=np.int64)
    best_pos = np.full(n, -1, dtype=np.int64)
    in_tree = np.zeros(n, dtype=bool)
    in_tree[root] = True
    tree = WeightedGraph(vertices=[verts[root]])
    add_edge = tree.add_edge
    u = root
    step = 0
    for _ in range(n - 1):
        a, b = int(indptr[u]), int(indptr[u + 1])
        if b > a:
            nbrs = indices[a:b]
            ws = weights[a:b]
            pos = np.arange(a, b, dtype=np.int64)
            # Strict < : an equal-weight edge pushed later loses the tie,
            # exactly as the heap's monotone push counter decides it.
            improves = ~in_tree[nbrs] & (ws < best_w[nbrs])
            if bool(improves.any()):
                target = nbrs[improves]
                best_w[target] = ws[improves]
                best_rank[target] = step * m2 + pos[improves]
                best_pos[target] = pos[improves]
        step += 1
        frontier_w = np.where(in_tree, np.inf, best_w)
        w_min = frontier_w.min()
        if not w_min < np.inf:
            raise ValueError("graph is not connected; MST undefined")
        tie_rank = np.where(frontier_w == w_min, best_rank, int64_max)
        v = int(tie_rank.argmin())
        j = int(best_pos[v])
        add_edge(verts[int(edge_u[j])], verts[v], raw_weights[j])
        in_tree[v] = True
        u = v
    return tree


def np_kruskal_mst(npg: NPGraph) -> WeightedGraph:
    """Kruskal via stable argsort; byte-identical to the CSR/dict oracles.

    A stable ``argsort`` over the frozen edge-weight array yields exactly
    the order Python's stable ``sorted(..., key=weight)`` visits —
    ``graph.edges()`` order among equal weights, which *is* the pinned
    tie-break rule.  The union-find admission pass stays a sequential
    loop (each union depends on every prior one — that data dependence,
    not the implementation, is what fixes the admitted edge set), run
    over plain int lists with path halving.
    """
    np = _require_numpy()
    csr = npg.csr
    n = npg.n
    verts = csr.verts
    es = csr.edge_src
    ed = csr.edge_dst
    ew = csr.edge_weight
    tree = WeightedGraph(vertices=verts)
    add_edge = tree.add_edge
    order = np.argsort(npg.edge_weight_f, kind="stable").tolist()
    parent = list(range(n))
    rank = [0] * n
    added = 0
    for j in order:
        ru = es[j]
        while parent[ru] != ru:
            parent[ru] = parent[parent[ru]]
            ru = parent[ru]
        rv = ed[j]
        while parent[rv] != rv:
            parent[rv] = parent[parent[rv]]
            rv = parent[rv]
        if ru == rv:
            continue
        if rank[ru] < rank[rv]:
            ru, rv = rv, ru
        parent[rv] = ru
        if rank[ru] == rank[rv]:
            rank[ru] += 1
        add_edge(verts[es[j]], verts[ed[j]], ew[j])
        added += 1
    if added != n - 1 and n > 0:
        raise ValueError("graph is not connected; MST undefined")
    return tree
