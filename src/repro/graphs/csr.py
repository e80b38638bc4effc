"""Indexed flat-array graph core: CSR layout + array-based kernels.

The dict-of-dicts :class:`~repro.graphs.weighted_graph.WeightedGraph` is
the right *mutation* structure, but its traversal API pays a dict copy per
neighborhood visit (``neighbor_weights``), boxed-key hashing per
relaxation, and per-call closure/dict allocation — the dominant cost of
the paper's weighted parameters (script-V via MST, script-D via all-pairs
eccentricities, ``d`` via max neighbor distance), which each need ``n``
Dijkstra runs or a whole-graph edge scan.

:class:`CSRGraph` freezes one immutable snapshot of a graph in compressed
sparse row form: vertices are interned to dense indices ``0..n-1`` (in
insertion order, so every kernel below replays the dict path's iteration
order exactly), adjacency lives in parallel ``indptr``/``indices``/
``weights`` arrays, and the undirected edge list is captured once in
``graph.edges()`` order for Kruskal.  Kernels operate on preallocated
list buffers indexed by ``int`` — no hashing, no per-visit allocation:

* :func:`sssp_into` — Dijkstra into caller-owned ``dist``/``parent``/
  ``order`` buffers (``order`` records discovery order so buffers reset
  in O(touched), and so dict views rebuild with the exact insertion
  order of :func:`repro.graphs.paths.dijkstra`);
* :func:`sssp_maps` — drop-in dict view of one source's run,
  byte-identical to ``paths.dijkstra`` (same values, same tie-breaking,
  same dict insertion order);
* :func:`all_sources_scan` — eccentricities, diameter, and the max
  neighbor distance ``d`` in a *single* batched pass over all sources,
  reusing one scratch buffer set (the dict path pays two full all-source
  sweeps for the same three quantities);
* :func:`csr_prim_mst` — Prim over the flat adjacency, byte-identical to
  :func:`repro.graphs.mst.prim_mst` (same tie sequence, same tree edge
  insertion order, hence bit-equal ``total_weight()`` sums);
* :func:`csr_kruskal_mst` — Kruskal over the frozen edge arrays with an
  int-indexed union-find, byte-identical to the dict Kruskal (stable
  sort preserves ``graph.edges()`` order among equal weights).

Snapshots are versioned: :func:`csr_of` memoizes the CSR build per graph
through :class:`~repro.graphs.cache.GraphParamCache`, which invalidates
it via the ``WeightedGraph.version`` mutation counter, so a stale
snapshot is impossible through the public API.
"""

from __future__ import annotations

import hashlib
import heapq
from array import array
from typing import Any, NamedTuple

from .weighted_graph import Vertex, WeightedGraph

__all__ = [
    "CSRGraph",
    "csr_of",
    "sssp_into",
    "sssp_maps",
    "all_sources_scan",
    "GraphScan",
    "csr_prim_mst",
    "csr_kruskal_mst",
    "FlatGraph",
    "edges_to_flat",
    "flat_of",
    "flat_source_stats",
    "flat_stripe_stats",
]

_INF = float("inf")

# Largest Dial bucket array the all-sources scan will allocate.  The
# bucket count is (n-1)*wmax + 1, so heavy-weight integral families —
# the paper's lower-bound graphs G_n carry bypass edges of weight X^4
# with X = n + 1 — would otherwise demand billions of list allocations
# (an OOM, not a slowdown).  Past the cap the scan uses the heap
# discipline, which is value-identical in every weight regime.
_DIAL_BOUND_CAP = 1 << 22


class CSRGraph:
    """An immutable CSR snapshot of a :class:`WeightedGraph`.

    Attributes
    ----------
    n:
        Vertex count.
    verts:
        Dense index -> original vertex object, in graph insertion order.
    index:
        Original vertex object -> dense index (the interning map).
    indptr:
        ``indptr[i]:indptr[i+1]`` delimits vertex *i*'s adjacency in the
        parallel arrays; length ``n + 1``.
    indices / weights:
        Flat neighbor indices and edge weights, both length ``2m``
        (each undirected edge appears once per endpoint), in the same
        neighbor order the dict adjacency reports.
    adj:
        ``adj[i]`` is vertex *i*'s ``(neighbor, weight)`` pair list —
        the ``indptr`` slices of ``zip(indices, weights)`` materialized
        once at build time, so the kernels' hot loops pay zero per-visit
        allocation (a fresh slice per settled vertex costs ~30% of scan
        time at bench sizes).
    iadj / wmax:
        When every weight is a non-negative integer (the paper's
        ``W = poly(n)`` regime and all of this repo's generators),
        ``iadj`` mirrors ``adj`` with ``int`` weights and ``wmax`` is the
        largest; :func:`all_sources_scan` then runs a Dial bucket queue
        instead of a binary heap (as long as the bucket count stays
        under :data:`_DIAL_BOUND_CAP`).  ``iadj`` is ``None`` for
        fractional or negative weights.
    edge_src / edge_dst / edge_weight:
        The undirected edge list as index triples, in ``graph.edges()``
        order (each edge exactly once) — Kruskal's input.
    version:
        The ``WeightedGraph.version`` this snapshot was built from.
    """

    __slots__ = (
        "n", "verts", "index", "indptr", "indices", "weights", "adj",
        "iadj", "wmax", "edge_src", "edge_dst", "edge_weight", "version",
    )

    def __init__(self, graph: WeightedGraph) -> None:
        verts = graph.vertices
        index = {v: i for i, v in enumerate(verts)}
        indptr = [0]
        indices: list[int] = []
        weights: list[float] = []
        append_i = indices.append
        append_w = weights.append
        for v in verts:
            for u, w in graph.neighbor_weights(v).items():
                append_i(index[u])
                append_w(w)
            indptr.append(len(indices))
        self.n = len(verts)
        self.verts = verts
        self.index = index
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        pairs = list(zip(indices, weights, strict=True))
        self.adj = [pairs[indptr[i]:indptr[i + 1]] for i in range(self.n)]
        # Integral non-negative weights (the paper's W = poly(n) integer
        # regime, and what every generator in this repo emits) admit a
        # Dial bucket queue in the all-sources scan; detect once here.
        # Integer sums below 2**53 are exact in float, so the scan's
        # results are bit-equal either way.
        integral = True
        wmax = 0
        for w in weights:
            if w != int(w) or w < 0:
                integral = False
                break
            if w > wmax:
                wmax = int(w)
        if integral:
            # Generators store randint weights as ints already; only
            # float-typed integral weights (e.g. unit 1.0) need copying.
            if all(type(w) is int for w in weights):
                self.iadj: list | None = self.adj
            else:
                self.iadj = [
                    [(v, int(w)) for v, w in row] for row in self.adj
                ]
            self.wmax = wmax
        else:
            self.iadj = None
            self.wmax = 0
        es: list[int] = []
        ed: list[int] = []
        ew: list[float] = []
        for u, v, w in graph.edges():
            es.append(index[u])
            ed.append(index[v])
            ew.append(w)
        self.edge_src = es
        self.edge_dst = ed
        self.edge_weight = ew
        self.version = graph.version

    @property
    def m(self) -> int:
        return len(self.edge_weight)

    def __repr__(self) -> str:
        return f"CSRGraph(n={self.n}, m={self.m}, version={self.version})"


def csr_of(graph: WeightedGraph) -> CSRGraph:
    """The memoized CSR snapshot of ``graph`` (rebuilt after mutations).

    Routed through :func:`repro.graphs.cache.param_cache`, which owns the
    version-checked invalidation; callers get a snapshot that is always
    consistent with the graph's current contents.
    """
    from .cache import param_cache  # deferred: cache imports our kernels

    return param_cache(graph).csr()


# --------------------------------------------------------------------- #
# Shortest paths
# --------------------------------------------------------------------- #


def sssp_into(
    csr: CSRGraph,
    source: int,
    dist: list[float],
    parent: list[int],
    order: list[int],
) -> None:
    """Dijkstra from ``source`` (a dense index) into caller-owned buffers.

    Requires clean buffers: ``dist[i] == inf`` and ``parent[i] == -1``
    for every i, ``order`` empty.  On return ``order`` lists every
    reached index in first-discovery order — exactly the dict-path
    insertion order — and resetting only those entries restores the
    buffers in O(touched).

    The tie-breaking counter replays :func:`repro.graphs.paths.dijkstra`
    push-for-push, so the settled order, final distances, and parent
    choices are identical to the dict implementation.
    """
    adj = csr.adj
    push = heapq.heappush
    pop = heapq.heappop
    dist[source] = 0.0
    order.append(source)
    tie = 1
    heap: list[tuple[float, int, int]] = [(0.0, 0, source)]
    while heap:
        d, _, u = pop(heap)
        if d > dist[u]:
            continue  # stale entry; u was settled at a smaller distance
        for v, w in adj[u]:
            nd = d + w
            dv = dist[v]
            if nd < dv:
                if dv == _INF:
                    order.append(v)
                dist[v] = nd
                parent[v] = u
                push(heap, (nd, tie, v))
                tie += 1


def sssp_maps(
    csr: CSRGraph, source: Vertex
) -> tuple[dict[Vertex, float], dict[Vertex, Vertex | None]]:
    """One source's ``(dist, parent)`` as vertex-keyed dicts.

    Byte-compatible with :func:`repro.graphs.paths.dijkstra`: same
    values, same reachable set, and the same dict insertion order
    (first-discovery order), so downstream consumers that iterate the
    dicts see an unchanged sequence.
    """
    s = csr.index.get(source)
    if s is None:
        raise KeyError(f"source {source!r} not in graph")
    n = csr.n
    dist = [_INF] * n
    parent = [-1] * n
    order: list[int] = []
    sssp_into(csr, s, dist, parent, order)
    verts = csr.verts
    dist_map: dict[Vertex, float] = {}
    parent_map: dict[Vertex, Vertex | None] = {}
    for i in order:
        v = verts[i]
        dist_map[v] = dist[i]
        p = parent[i]
        parent_map[v] = verts[p] if p >= 0 else None
    return dist_map, parent_map


class GraphScan(NamedTuple):
    """Everything one batched all-sources sweep yields."""

    ecc: list[float]        # eccentricity per dense index (inf if disconnected)
    diameter: float         # max eccentricity (0.0 on an empty graph)
    max_neighbor_distance: float  # d = max over edges of dist(u, v)


def all_sources_scan(csr: CSRGraph) -> GraphScan:
    """Eccentricities, diameter, and ``d`` in one pass over all sources.

    One Dijkstra per source against a single reused buffer set; the
    eccentricity is accumulated from settled pop distances (no second
    max() pass) and the neighbor-distance bound ``d`` reads each source's
    finished ``dist`` row directly.  Values are identical to the
    dict-path formulas in :mod:`repro.graphs.cache`.

    Unlike :func:`sssp_into`, nothing here exposes parents or discovery
    order, and final distances are canonical under any tie-breaking
    (every tied pop order settles the same minima, and an exactly-tied
    float sum is the same float) — so the scan skips the replay
    bookkeeping the map-building kernel must keep.  Two queue
    disciplines, same results bit-for-bit:

    * integral weights (``csr.iadj`` is set) with a bucket count
      ``(n-1)*wmax + 1`` at most :data:`_DIAL_BOUND_CAP`: a Dial bucket
      queue — O(1) appends per relaxation, buckets consumed in distance
      order up to the source's eccentricity, the whole bucket array
      allocated once and recycled across sources (integer distance sums
      are exact in float, so converting at the end loses nothing);
    * fractional weights, or integral weights too heavy to bucket: a
      binary heap of bare ``(d, v)`` pairs.
    """
    n = csr.n
    ecc: list[float] = [0.0] * n
    diam = 0.0
    max_nbr = 0.0
    # Distances are < n * wmax; one spare slot for the +w overshoot.
    bound = max(1, (n - 1) * csr.wmax + 1) if n else 1
    if csr.iadj is not None and bound <= _DIAL_BOUND_CAP:
        iadj = csr.iadj
        buckets: list[list[int]] = [[] for _ in range(bound)]
        idist = [bound] * n  # bound acts as the integer infinity
        imax_nbr = 0
        for s in range(n):
            touched = [s]
            touch = touched.append
            idist[s] = 0
            buckets[0].append(s)
            pending = 1
            far = 0
            d = 0
            while pending:
                b = buckets[d]
                if b:
                    # A zero-weight relaxation appends to b mid-loop; the
                    # list iterator picks it up, so the whole same-distance
                    # closure settles in this pass and len(b) afterwards
                    # counts every consumed entry.
                    for u in b:
                        if idist[u] != d:
                            continue  # superseded by a shorter relaxation
                        far = d
                        for v, w in iadj[u]:
                            nd = d + w
                            if nd < idist[v]:
                                if idist[v] == bound:
                                    touch(v)
                                idist[v] = nd
                                buckets[nd].append(v)
                                pending += 1
                    pending -= len(b)
                    b.clear()
                d += 1
            e = float(far) if len(touched) == n else _INF
            ecc[s] = e
            if e > diam:
                diam = e
            for v, _w in iadj[s]:
                dv = idist[v]
                if dv > imax_nbr:
                    imax_nbr = dv
            for i in touched:
                idist[i] = bound
        max_nbr = float(imax_nbr)
        return GraphScan(ecc, diam, max_nbr)
    adj = csr.adj
    push = heapq.heappush
    pop = heapq.heappop
    dist = [_INF] * n
    for s in range(n):
        touched = [s]
        touch = touched.append
        dist[s] = 0.0
        far = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            far = d  # pops are monotone in d: the last settled d is the max
            for v, w in adj[u]:
                nd = d + w
                dv = dist[v]
                if nd < dv:
                    if dv == _INF:
                        touch(v)
                    dist[v] = nd
                    push(heap, (nd, v))
        e = far if len(touched) == n else _INF
        ecc[s] = e
        if e > diam:
            diam = e
        for v, _w in adj[s]:
            dv = dist[v]
            if dv > max_nbr:
                max_nbr = dv
        for i in touched:
            dist[i] = _INF
    return GraphScan(ecc, diam, max_nbr)


# --------------------------------------------------------------------- #
# Minimum spanning trees
# --------------------------------------------------------------------- #


def csr_prim_mst(csr: CSRGraph, root: int = 0) -> WeightedGraph:
    """Prim over the flat adjacency; byte-identical to ``prim_mst``.

    The tie counter advances push-for-push with the dict implementation
    (root adjacency first, then each newly added vertex's non-tree
    neighbors in adjacency order), so equal-weight choices, the tree's
    edge insertion order, and therefore ``total_weight()`` rounding are
    all bit-equal.  Raises ``ValueError`` on a disconnected graph.
    """
    n = csr.n
    if n == 0:
        return WeightedGraph()
    verts = csr.verts
    adj = csr.adj
    push = heapq.heappush
    pop = heapq.heappop
    in_tree = bytearray(n)
    in_tree[root] = 1
    tree = WeightedGraph(vertices=[verts[root]])
    add_edge = tree.add_edge
    tie = 0
    heap: list[tuple[float, int, int, int]] = []
    for v, w in adj[root]:
        push(heap, (w, tie, root, v))
        tie += 1
    added = 1
    while heap:
        w, _, u, v = pop(heap)
        if in_tree[v]:
            continue
        in_tree[v] = 1
        added += 1
        add_edge(verts[u], verts[v], w)
        for x, wx in adj[v]:
            if not in_tree[x]:
                push(heap, (wx, tie, v, x))
                tie += 1
    if added != n:
        raise ValueError("graph is not connected; MST undefined")
    return tree


def csr_kruskal_mst(csr: CSRGraph) -> WeightedGraph:
    """Kruskal over the frozen edge arrays; byte-identical to the dict path.

    A stable sort of edge indices by weight preserves ``graph.edges()``
    order among equal weights — the same order ``sorted(graph.edges(),
    key=weight)`` yields — and the int-indexed union-find admits exactly
    the same edges, so the resulting tree matches
    :func:`repro.graphs.mst.kruskal_mst` edge-for-edge.
    """
    n = csr.n
    verts = csr.verts
    es = csr.edge_src
    ed = csr.edge_dst
    ew = csr.edge_weight
    tree = WeightedGraph(vertices=verts)
    add_edge = tree.add_edge
    uf_parent = list(range(n))
    uf_rank = [0] * n
    added = 0
    for j in sorted(range(len(ew)), key=ew.__getitem__):
        # find(u), find(v) with path compression, inline and iterative.
        ru = es[j]
        while uf_parent[ru] != ru:
            ru = uf_parent[ru]
        x = es[j]
        while uf_parent[x] != ru:
            uf_parent[x], x = ru, uf_parent[x]
        rv = ed[j]
        while uf_parent[rv] != rv:
            rv = uf_parent[rv]
        x = ed[j]
        while uf_parent[x] != rv:
            uf_parent[x], x = rv, uf_parent[x]
        if ru == rv:
            continue
        if uf_rank[ru] < uf_rank[rv]:
            ru, rv = rv, ru
        uf_parent[rv] = ru
        if uf_rank[ru] == uf_rank[rv]:
            uf_rank[ru] += 1
        add_edge(verts[es[j]], verts[ed[j]], ew[j])
        added += 1
    if added != n - 1 and n > 0:
        raise ValueError("graph is not connected; MST undefined")
    return tree


# --------------------------------------------------------------------- #
# Flat buffer-backed snapshots (the zero-copy / shared-memory substrate)
# --------------------------------------------------------------------- #


def _byte_view(buf: Any) -> memoryview:
    """A flat unsigned-byte view over an ``array``/``memoryview`` buffer."""
    return memoryview(buf).cast("B")


class FlatGraph:
    """A dense-index CSR snapshot held in flat C buffers.

    Where :class:`CSRGraph` keeps Python lists (and interning maps back to
    the original vertex objects), ``FlatGraph`` keeps exactly three
    contiguous buffers — ``indptr`` (int64, length ``n + 1``), ``indices``
    (int64, length ``2m``) and ``weights`` (float64, length ``2m``) — and
    nothing else.  That shape is what makes a graph *transportable*: the
    buffers can be copied byte-for-byte into a
    ``multiprocessing.shared_memory`` segment and re-viewed zero-copy in
    every pool worker (:mod:`repro.graphs.shm`), and they can be built
    *streamed* from an edge generator without ever materializing the
    dict-of-dicts ``WeightedGraph`` (:func:`edges_to_flat`) — the only way
    the paper's lower-bound families fit in memory at n = 10^6.

    ``indptr``/``indices``/``weights`` are either ``array.array`` (local
    build) or typed ``memoryview`` casts over a shared segment (attach
    path); both index to plain Python ints/floats, so every kernel below
    runs on either backing unchanged.

    ``spec`` is an optional picklable rebuild recipe (see
    ``repro.graphs.shm.build_spec``) used as the last-resort fallback when
    a worker cannot attach the shared segment.  ``version`` mirrors the
    ``WeightedGraph.version`` counter when the snapshot derives from a
    live graph (0 for streamed builds, which have no mutable source).
    """

    __slots__ = (
        "n", "indptr", "indices", "weights", "integral", "wmax",
        "spec", "version", "np_cache", "_fp", "_bytes",
    )

    def __init__(
        self,
        n: int,
        indptr: Any,
        indices: Any,
        weights: Any,
        *,
        integral: bool,
        wmax: float,
        spec: tuple[Any, ...] | None = None,
        version: int = 0,
    ) -> None:
        if len(indptr) != n + 1:
            raise ValueError(f"indptr must have n+1={n + 1} entries, got {len(indptr)}")
        m2 = int(indptr[n]) if n else 0
        if len(indices) != m2 or len(weights) != m2:
            raise ValueError(
                f"indices/weights must have indptr[-1]={m2} entries, "
                f"got {len(indices)}/{len(weights)}"
            )
        self.n = n
        self.indptr = indptr
        self.indices = indices
        self.weights = weights
        self.integral = integral
        self.wmax = wmax
        self.spec = spec
        self.version = version
        self.np_cache: Any = None  # NPFlat memo, owned by repro.graphs.npkernels
        self._fp: str | None = None
        self._bytes: tuple[memoryview, memoryview, memoryview] | None = None

    @property
    def m2(self) -> int:
        """Directed slot count (each undirected edge appears twice)."""
        return len(self.indices)

    @property
    def m(self) -> int:
        return self.m2 // 2

    @property
    def nbytes(self) -> int:
        """Total payload bytes across the three buffers."""
        return 8 * (self.n + 1 + 2 * self.m2)

    def buffers(self) -> tuple[memoryview, memoryview, memoryview]:
        """Byte views of ``(indptr, indices, weights)`` — the shm payload.

        Cast on first use and kept on the graph.  Like the typed views of
        an attached graph, they keep its mapping alive exactly as long as
        the graph itself.
        """
        if self._bytes is None:
            self._bytes = (
                _byte_view(self.indptr),
                _byte_view(self.indices),
                _byte_view(self.weights),
            )
        return self._bytes

    @property
    def fingerprint(self) -> str:
        """16-hex sha256 over the header and all three buffers.

        Content-addressed and backing-independent: a streamed build, a
        ``flat_of`` conversion, and a shared-memory attachment of the same
        graph all report the same fingerprint.  Computed once and cached.
        """
        if self._fp is None:
            h = hashlib.sha256()
            h.update(
                f"flat|n={self.n}|m2={self.m2}|integral={int(self.integral)}"
                f"|wmax={self.wmax!r}".encode()
            )
            for view in self.buffers():
                h.update(view)
            self._fp = h.hexdigest()[:16]
        return self._fp

    def __repr__(self) -> str:
        return (
            f"FlatGraph(n={self.n}, m={self.m}, integral={self.integral}, "
            f"nbytes={self.nbytes})"
        )


def edges_to_flat(
    n: int,
    us: Any,
    vs: Any,
    ws: Any,
    *,
    integral: bool,
    wmax: float,
    spec: tuple[Any, ...] | None = None,
    use_numpy: bool | None = None,
) -> FlatGraph:
    """Build a :class:`FlatGraph` from parallel edge arrays in O(m).

    ``us``/``vs`` are dense endpoint indices and ``ws`` the weights of the
    undirected edge list *in insertion order*.  Placement replays the
    dict-of-dicts adjacency order exactly: ``WeightedGraph.add_edge``
    appends to both endpoints' neighbor dicts at edge-add time, so vertex
    ``i``'s CSR row must list its incident edges in edge-index order —
    which is precisely what counting-sort placement (or a stable lexsort
    keyed ``(src, edge index)``) produces.  The numpy fast path and the
    pure-Python fallback yield byte-identical buffers; ``use_numpy``
    forces one for differential testing.
    """
    e_cnt = len(us)
    if len(vs) != e_cnt or len(ws) != e_cnt:
        raise ValueError("us/vs/ws must have equal lengths")
    if use_numpy is None or use_numpy:
        from .npkernels import _numpy  # deferred: npkernels imports this module

        np = _numpy()
        if np is None and use_numpy:
            raise RuntimeError("numpy requested but not importable")
    else:
        np = None
    if np is not None and e_cnt:
        u_arr = np.frombuffer(us, dtype=np.int64)
        v_arr = np.frombuffer(vs, dtype=np.int64)
        w_arr = np.frombuffer(ws, dtype=np.float64)
        src = np.concatenate([u_arr, v_arr])
        dst = np.concatenate([v_arr, u_arr])
        wt = np.concatenate([w_arr, w_arr])
        tag = np.arange(e_cnt, dtype=np.int64)
        tag = np.concatenate([tag, tag])
        # Primary key src, secondary the edge index: both half-edges of
        # one edge land in distinct rows, so the tag tie never fires
        # within a pair and rows come out in edge-insertion order.
        order = np.lexsort((tag, src))
        indptr_np = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=n), out=indptr_np[1:])
        indptr = array("q")
        indptr.frombytes(indptr_np.tobytes())
        indices = array("q")
        indices.frombytes(dst[order].tobytes())
        weights = array("d")
        weights.frombytes(wt[order].tobytes())
        return FlatGraph(
            n, indptr, indices, weights,
            integral=integral, wmax=wmax, spec=spec,
        )
    deg = [0] * n
    for e in range(e_cnt):
        deg[us[e]] += 1
        deg[vs[e]] += 1
    indptr = array("q", bytes(8 * (n + 1)))
    total = 0
    for i in range(n):
        total += deg[i]
        indptr[i + 1] = total
    cursor = list(indptr[:n])
    indices = array("q", bytes(8 * 2 * e_cnt))
    weights = array("d", bytes(8 * 2 * e_cnt))
    for e in range(e_cnt):
        u = us[e]
        v = vs[e]
        w = ws[e]
        ju = cursor[u]
        indices[ju] = v
        weights[ju] = w
        cursor[u] = ju + 1
        jv = cursor[v]
        indices[jv] = u
        weights[jv] = w
        cursor[v] = jv + 1
    return FlatGraph(
        n, indptr, indices, weights,
        integral=integral, wmax=wmax, spec=spec,
    )


def flat_of(csr: CSRGraph, spec: tuple[Any, ...] | None = None) -> FlatGraph:
    """Convert a :class:`CSRGraph` into flat C buffers (one copy).

    The dense indexing, adjacency order, and weight values carry over
    unchanged, so a streamed build of the same graph
    (:mod:`repro.graphs.generators`) produces byte-identical buffers and
    the same :attr:`FlatGraph.fingerprint`.
    """
    if csr.iadj is not None:
        wmax = float(csr.wmax)
    else:
        wmax = float(max(csr.weights)) if csr.weights else 0.0
    return FlatGraph(
        csr.n,
        array("q", csr.indptr),
        array("q", csr.indices),
        array("d", csr.weights),
        integral=csr.iadj is not None,
        wmax=wmax,
        spec=spec,
        version=csr.version,
    )


def flat_source_stats(flat: FlatGraph, lo: int, hi: int) -> dict[str, Any]:
    """Per-source sweep stats over sources ``lo..hi-1`` (pure Python).

    For each source runs one Dijkstra and folds the row into three
    aggregates — the sweep's row payload stays O(1) no matter how large
    the graph is (the aggregates-only discipline the big tier needs):

    * ``reach_min`` — the fewest vertices any source reached;
    * ``ecc_max`` — the largest eccentricity (``inf`` once any source
      fails to reach the whole graph);
    * ``digest`` — 16-hex sha256 over the concatenated float64 distance
      rows, byte-for-byte.  This is the identity anchor: the numpy
      variant hashes the same bytes, so serial python == pooled numpy
      digests prove value equality without shipping any distances.
    """
    n = flat.n
    if not 0 <= lo <= hi <= n:
        raise IndexError(f"source range [{lo}, {hi}) out of bounds 0..{n}")
    indptr = flat.indptr
    indices = flat.indices
    weights = flat.weights
    push = heapq.heappush
    pop = heapq.heappop
    h = hashlib.sha256()
    dist: list[float] = [_INF] * n
    ecc_max = 0.0
    reach_min = n if hi > lo else 0
    for s in range(lo, hi):
        touched = [s]
        touch = touched.append
        dist[s] = 0.0
        far = 0.0
        heap: list[tuple[float, int]] = [(0.0, s)]
        while heap:
            d, u = pop(heap)
            if d > dist[u]:
                continue
            far = d  # pops are monotone: the last settled d is the ecc
            for j in range(indptr[u], indptr[u + 1]):
                v = indices[j]
                nd = d + weights[j]
                dv = dist[v]
                if nd < dv:
                    if dv == _INF:
                        touch(v)
                    dist[v] = nd
                    push(heap, (nd, v))
        reach = len(touched)
        ecc = far if reach == n else _INF
        if ecc > ecc_max:
            ecc_max = ecc
        if reach < reach_min:
            reach_min = reach
        h.update(array("d", dist).tobytes())
        for i in touched:
            dist[i] = _INF
    return {
        "kind": "sources",
        "lo": lo,
        "hi": hi,
        "sources": hi - lo,
        "reach_min": reach_min,
        "ecc_max": ecc_max,
        "digest": h.hexdigest()[:16],
    }


def flat_stripe_stats(flat: FlatGraph, lo: int, hi: int) -> dict[str, Any]:
    """Local adjacency stats for the vertex stripe ``lo..hi-1``.

    O(stripe edges): byte slices of the graph's cached buffer views feed
    the digest, and one slice of the weights feeds the float
    accumulators, added left to right; no per-vertex structure is built.
    Backend-independent by construction — there is nothing to vectorize,
    the cost *is* the read.
    """
    n = flat.n
    if not 0 <= lo <= hi <= n:
        raise IndexError(f"vertex range [{lo}, {hi}) out of bounds 0..{n}")
    indptr = flat.indptr
    j0 = indptr[lo]
    j1 = indptr[hi]
    ipb, idb, wb = flat.buffers()
    h = hashlib.sha256(ipb[8 * lo:8 * (hi + 1)])
    h.update(idb[8 * j0:8 * j1])
    h.update(wb[8 * j0:8 * j1])
    wmax = 0.0
    wsum = 0.0
    for w in flat.weights[j0:j1]:
        wsum += w
        if w > wmax:
            wmax = w
    return {
        "kind": "stripe",
        "lo": lo,
        "hi": hi,
        "verts": hi - lo,
        "edges": j1 - j0,
        "wmax": wmax,
        "wsum": wsum,
        "digest": h.hexdigest()[:16],
    }
