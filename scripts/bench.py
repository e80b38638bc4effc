#!/usr/bin/env python
"""Perf-regression bench harness: pinned suite, JSON trajectory.

Runs three pinned measurements and writes ``BENCH_<rev>.json`` so every
revision leaves a comparable perf record:

1. **EventQueue micro-bench** — four event-scheduling shapes modeled on
   the simulator's real workloads (broadcast waves, serial token walks,
   synchronizer pulses, transmit fan-out bursts), each driven twice: once
   through a faithful reconstruction of the pre-optimization stack (the
   one-entry-per-event heap queue plus the per-event
   ``peek_time()``/``step()`` driver loop the ``Network`` used to run,
   closures and all) and once through the current
   :class:`repro.sim.events.EventQueue` drained by :meth:`run`.  Reported
   as events/sec per shape plus aggregate speedup.
2. **Graph-kernel micro-bench** — the paper's parameter computations
   (all-sources eccentricities/diameter, max neighbor distance, Prim and
   Kruskal MSTs) on pinned graph shapes, dict-of-dicts reference
   algorithms vs the flat-array CSR kernels (:mod:`repro.graphs.csr`,
   CSR build included in its timing).  Results are asserted equal before
   anything is reported.
3. **Network throughput** — a flooding broadcast on a pinned random
   graph, reported as messages/sec and events/sec end to end.
4. **Chaos sweep** — the chaos matrix through the sweep engine: serial
   reference, the engine's own plan at ``--jobs N``, the forced
   persistent pool (cold and warm), and a reconstruction of the
   pre-optimization pool path (fresh executor per call, chunksize 1, no
   warm-up) — asserting all row lists are identical and reporting every
   wall time.
5. **Tracing overhead** — the same flood as the network bench run three
   ways: no recorder at all, a disabled :class:`repro.obs.NullRecorder`
   (the "tracing compiled out" path — must stay within 2% of untraced),
   and a full :class:`repro.obs.TraceRecorder` capturing every event.
6. **Serve tier** — the ``repro.serve`` content-addressed cache: a
   pinned chaos-request mix served cold then warm (cache-hit speedup is
   a hard >= 5x gate), plus 8 simultaneous duplicates coalesced onto one
   execution with *exact* ServeStats accounting asserted.
7. **Big tier** (``--big``) — the paper's graph families streamed
   directly into flat buffers at n = 10^5..10^6 (10^4 with ``--quick``),
   published once into shared memory and swept zero-copy through the
   pool: stripe and per-source sweeps with serial == pool identity,
   one-build-per-sweep counters, aggregates-only tracing (recorder
   ``limit=0``), and an explicit peak-RSS budget the whole tier must
   fit (exits non-zero otherwise, as it does on leaked segments).

Usage::

    python scripts/bench.py                 # full pinned suite
    python scripts/bench.py --quick         # CI smoke (seconds, tiny sizes)
    python scripts/bench.py --big           # add the shared-memory big tier
    python scripts/bench.py --jobs 4        # parallel sweep worker count
    python scripts/bench.py --out out.json  # explicit output path
    python scripts/bench.py --compare BENCH_<rev>.json   # regression gate

``--compare`` diffs the fresh run against a prior artifact over every
shared self-normalized metric (per-shape event-queue speedups, kernel
speedups, sweep speedup, network throughput) and exits non-zero when the
geomean ratio falls more than ``--tolerance`` (default 10%) below the
baseline.  Metrics only one side has (e.g. a new bench section) are
skipped, so the gate survives adding sections.

Measurements interleave baseline/current repetitions and keep the minimum
per side, which is robust against the noisy shared machines CI runs on.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import subprocess
import sys
import time
from itertools import count
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from concurrent.futures import ProcessPoolExecutor  # noqa: E402

from repro.experiments.parallel import (  # noqa: E402
    chaos_cells,
    pool_shm_stats,
    run_chaos_cell,
    run_parallel,
    shutdown_pool,
    snapshot_rows,
)
from repro.graphs import (  # noqa: E402
    complete_graph,
    dijkstra,
    grid_graph,
    random_connected_graph,
)
from repro.graphs.csr import (  # noqa: E402
    CSRGraph,
    all_sources_scan,
    csr_kruskal_mst,
    csr_prim_mst,
)
from repro.graphs.mst import kruskal_mst_dicts, prim_mst_dicts  # noqa: E402
from repro.obs import NullRecorder, TraceRecorder  # noqa: E402
from repro.obs.exporters import jsonable  # noqa: E402
from repro.protocols.broadcast import FloodProcess  # noqa: E402
from repro.sim.events import EventQueue  # noqa: E402
from repro.sim.network import Network  # noqa: E402


# --------------------------------------------------------------------- #
# Faithful pre-optimization baseline
# --------------------------------------------------------------------- #


class LegacyEventQueue:
    """The pre-optimization queue: one ``(time, seq, callback)`` heap entry
    per event (verbatim reconstruction of the old ``repro.sim.events``)."""

    def __init__(self) -> None:
        self._heap = []
        self._seq = count()
        self.now = 0.0

    def schedule(self, delay, callback):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        heapq.heappush(self._heap, (self.now + delay, next(self._seq), callback))

    def schedule_at(self, when, callback):
        if when < self.now:
            raise ValueError(f"cannot schedule in the past: {when} < {self.now}")
        heapq.heappush(self._heap, (when, next(self._seq), callback))

    def peek_time(self):
        return self._heap[0][0] if self._heap else None

    def __len__(self):
        return len(self._heap)

    def __bool__(self):
        return bool(self._heap)

    def step(self):
        if not self._heap:
            return False
        when, _, callback = heapq.heappop(self._heap)
        self.now = when
        callback()
        return True


class _LegacyHarness:
    """Stand-in for the old ``Network`` around its event loop (the budget
    property it probed once per event)."""

    comm_budget = None

    @property
    def budget_exhausted(self) -> bool:
        return False


def drive_legacy(queue, max_time=float("inf"), max_events=50_000_000):
    """The pre-optimization ``Network.run`` event loop, per-event costs
    intact: budget probe, ``stop_when`` check, ``peek_time()`` + ``step()``
    method calls, and the counter/backstop compare."""
    harness = _LegacyHarness()
    stop_when = None
    events = 0
    while queue:
        if harness.budget_exhausted:
            break
        if stop_when is not None and stop_when(harness):
            break
        if queue.peek_time() > max_time:
            break
        if not queue.step():
            break
        events += 1
        if events >= max_events:
            raise RuntimeError("runaway")
    return events


def drive_current(queue, max_time=float("inf")):
    _, events = queue.run(max_time=max_time, check_halt=False)
    return events


# --------------------------------------------------------------------- #
# Workload shapes
#
# Each shape seeds a queue and returns the expected event count; the
# legacy variant schedules closures through the old two-method API, the
# current one uses ``schedule_call*``.  Both express the same traffic.
# --------------------------------------------------------------------- #

WAVE_NODES = 256
WAVE_WEIGHTS = (1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0)
CHAIN_STEPS_FULL = 60_000
PULSE_NODES = 64
BURST_FANOUT = 2
BURST_WEIGHTS = (1.0, 2.0, 3.0)


def seed_wave_legacy(q, rounds):
    """Broadcast waves: each node re-delivers at a fixed weight from an
    8-value set, so nodes sharing a weight land on the same timestamps
    (heavy collision, like same-weight flooding fronts)."""

    def deliver(node, left):
        if left > 0:
            w = WAVE_WEIGHTS[node & 7]
            q.schedule(w, lambda n=node, r=left - 1: deliver(n, r))

    for node in range(WAVE_NODES):
        q.schedule(WAVE_WEIGHTS[node & 7],
                   lambda n=node, r=rounds - 1: deliver(n, r))
    return WAVE_NODES * rounds


def seed_wave_current(q, rounds):
    def deliver(node, left):
        if left > 0:
            q.schedule_call(WAVE_WEIGHTS[node & 7], deliver, node, left - 1)

    for node in range(WAVE_NODES):
        q.schedule_call(WAVE_WEIGHTS[node & 7], deliver, node, rounds - 1)
    return WAVE_NODES * rounds


def seed_chain_legacy(q, steps):
    """Serial token walk: one live event, every timestamp distinct (the
    bucketing worst case — DFS-like traffic)."""
    state = {"left": steps - 1}

    def hop():
        if state["left"] > 0:
            state["left"] -= 1
            q.schedule(1.0 + (state["left"] & 3) * 0.25, hop)

    q.schedule(1.0, hop)
    return steps


def seed_chain_current(q, steps):
    state = {"left": steps - 1}

    def hop():
        if state["left"] > 0:
            state["left"] -= 1
            q.schedule_call(1.0 + (state["left"] & 3) * 0.25, hop)

    q.schedule_call(1.0, hop)
    return steps


def seed_pulse_legacy(q, pulses):
    """Synchronizer pulses: all nodes fire at every integer time."""
    def fire(node, pulse):
        if pulse > 1:
            q.schedule_at(q.now + 1.0, lambda n=node, p=pulse - 1: fire(n, p))

    for node in range(PULSE_NODES):
        q.schedule_at(1.0, lambda n=node, p=pulses: fire(n, p))
    return PULSE_NODES * pulses


def seed_pulse_current(q, pulses):
    def fire(node, pulse):
        if pulse > 1:
            q.schedule_call_at(q.now + 1.0, fire, node, pulse - 1)

    for node in range(PULSE_NODES):
        q.schedule_call_at(1.0, fire, node, pulses)
    return PULSE_NODES * pulses


def seed_burst_legacy(q, budget):
    """Transmit fan-out: each delivery forwards to 2 neighbors over edges
    with 3 distinct weights (flooding/GHS-like mixed collision traffic)."""
    state = {"budget": budget - 1}

    def deliver(node):
        for i in range(BURST_FANOUT):
            if state["budget"] <= 0:
                return
            state["budget"] -= 1
            w = BURST_WEIGHTS[(node + i) % 3]
            q.schedule(w, lambda n=node * BURST_FANOUT + i + 1: deliver(n))

    q.schedule(1.0, lambda: deliver(0))
    return budget


def seed_burst_current(q, budget):
    state = {"budget": budget - 1}

    def deliver(node):
        for i in range(BURST_FANOUT):
            if state["budget"] <= 0:
                return
            state["budget"] -= 1
            q.schedule_call(BURST_WEIGHTS[(node + i) % 3], deliver,
                            node * BURST_FANOUT + i + 1)

    q.schedule_call(1.0, deliver, 0)
    return budget


SHAPES = {
    # name -> (legacy seeder, current seeder, full size, quick size)
    "wave": (seed_wave_legacy, seed_wave_current, 240, 12),
    "chain": (seed_chain_legacy, seed_chain_current, CHAIN_STEPS_FULL, 3_000),
    "pulse": (seed_pulse_legacy, seed_pulse_current, 900, 45),
    "fifo_burst": (seed_burst_legacy, seed_burst_current, 60_000, 3_000),
}


def bench_event_queue(reps: int, quick: bool) -> dict:
    shapes = {}
    total_events = 0
    total_legacy = 0.0
    total_current = 0.0
    for name, (legacy_seed, current_seed, full, small) in SHAPES.items():
        size = small if quick else full
        best_legacy = best_current = float("inf")
        events = 0
        # Interleave sides so machine noise hits both equally; keep minima.
        for _ in range(reps):
            lq = LegacyEventQueue()
            expected = legacy_seed(lq, size)
            t0 = time.perf_counter()
            ran = drive_legacy(lq)
            best_legacy = min(best_legacy, time.perf_counter() - t0)
            assert ran == expected, (name, "legacy", ran, expected)

            cq = EventQueue()
            expected = current_seed(cq, size)
            t0 = time.perf_counter()
            ran = drive_current(cq)
            best_current = min(best_current, time.perf_counter() - t0)
            assert ran == expected, (name, "current", ran, expected)
            events = expected
        shapes[name] = {
            "events": events,
            "legacy_s": best_legacy,
            "current_s": best_current,
            "legacy_events_per_s": events / best_legacy,
            "current_events_per_s": events / best_current,
            "speedup": best_legacy / best_current,
        }
        total_events += events
        total_legacy += best_legacy
        total_current += best_current
    speedups = [s["speedup"] for s in shapes.values()]
    geomean = 1.0
    for s in speedups:
        geomean *= s
    geomean **= 1.0 / len(speedups)
    return {
        "shapes": shapes,
        "aggregate": {
            "total_events": total_events,
            "legacy_s": total_legacy,
            "current_s": total_current,
            "speedup": total_legacy / total_current,
            "geomean_speedup": geomean,
        },
    }


# --------------------------------------------------------------------- #
# Graph-kernel micro-bench (dict reference vs CSR)
# --------------------------------------------------------------------- #


def _dict_scan(graph):
    """The pre-CSR parameter pass: one dict Dijkstra per source, then the
    edge sweep for the max neighbor distance (what ``GraphParamCache``
    used to run).  Returns ``(ecc, diameter, max_nbr)``."""
    n = graph.num_vertices
    ecc = {}
    dists = {}
    for s in graph.vertices:
        dist, _ = dijkstra(graph, s)
        dists[s] = dist
        ecc[s] = max(dist.values()) if len(dist) == n else float("inf")
    diameter = max(ecc.values()) if ecc else 0.0
    max_nbr = 0.0
    for u, v, _ in graph.edges():
        d = dists[u].get(v, float("inf"))
        if d > max_nbr:
            max_nbr = d
    return ecc, diameter, max_nbr


def _kernel_graphs(quick: bool) -> dict:
    """Pinned shapes: integer random weights, and two unit-weight
    (maximally tie-heavy) topologies that stress tie-breaking identity."""
    if quick:
        return {
            "random_sparse": random_connected_graph(48, 96, seed=13),
            "grid": grid_graph(7, 7),
            "random_dense": random_connected_graph(24, 120, seed=17),
        }
    return {
        "random_sparse": random_connected_graph(192, 384, seed=13),
        "grid": grid_graph(14, 14),
        "random_dense": random_connected_graph(96, 2000, seed=17),
    }


def bench_graph_kernels(reps: int, quick: bool) -> dict:
    shapes = {}
    for name, graph in _kernel_graphs(quick).items():
        best_dict = best_csr = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            d_ecc, d_diam, d_nbr = _dict_scan(graph)
            d_prim = prim_mst_dicts(graph)
            d_kruskal = kruskal_mst_dicts(graph)
            best_dict = min(best_dict, time.perf_counter() - t0)

            t0 = time.perf_counter()
            csr = CSRGraph(graph)  # build is part of the kernel cost
            scan = all_sources_scan(csr)
            c_prim = csr_prim_mst(csr)
            c_kruskal = csr_kruskal_mst(csr)
            best_csr = min(best_csr, time.perf_counter() - t0)

        c_ecc = dict(zip(csr.verts, scan.ecc))
        assert d_ecc == c_ecc, (name, "eccentricities differ")
        assert d_diam == scan.diameter, (name, "diameter differs")
        assert d_nbr == scan.max_neighbor_distance, (name, "max nbr differs")
        assert list(d_prim.edges()) == list(c_prim.edges()), \
            (name, "prim MST differs")
        assert list(d_kruskal.edges()) == list(c_kruskal.edges()), \
            (name, "kruskal differs")

        shapes[name] = {
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "dict_s": best_dict,
            "csr_s": best_csr,
            "speedup": best_dict / best_csr,
        }
    speedups = [s["speedup"] for s in shapes.values()]
    geomean = 1.0
    for s in speedups:
        geomean *= s
    geomean **= 1.0 / len(speedups)
    return {"shapes": shapes, "aggregate": {"geomean_speedup": geomean}}


def _np_kernel_graphs(quick: bool) -> dict:
    """Shapes for the numpy-vs-python kernel comparison.

    Dense, exact-integer graphs: the regime the vectorized backend
    targets (its all-pairs scan runs a cache-resident int32
    Floyd-Warshall there, where work per source is O(n^2) for *both*
    backends but numpy streams it at SIMD speed).  Sparse
    high-hop-diameter shapes — grids, bounded-degree expanders — favor
    ``REPRO_KERNEL_BACKEND=python`` and are deliberately not benched
    here; docs/PERF.md records that boundary.
    """
    if quick:
        return {
            "complete": complete_graph(64),
            "random_dense": random_connected_graph(96, 3000, seed=17),
            "random_mid": random_connected_graph(128, 3200, seed=13),
        }
    return {
        "complete": complete_graph(384),
        "random_dense": random_connected_graph(512, 32000, seed=17),
        "random_mid": random_connected_graph(768, 32000, seed=13),
    }


def bench_npkernels(reps: int, quick: bool) -> dict:
    """NumPy backend vs the pure-Python CSR kernels (build + scan).

    Times only the work the backend selects: the snapshot build and the
    all-sources scan, on each side.  The MSTs run the CSR kernels under
    every backend, so they are not timed here (``graph_kernels`` covers
    them).  The scans are asserted value-identical before timing is
    trusted.  Skipped (with a marker, so the report key is always
    present) when numpy is absent.
    """
    from repro.graphs.npkernels import (
        NPGraph,
        np_all_sources_scan,
        numpy_available,
    )

    if not numpy_available():
        return {"skipped": "numpy not installed"}
    shapes = {}
    for name, graph in _np_kernel_graphs(quick).items():
        best_py = best_np = float("inf")
        for _ in range(reps):
            t0 = time.perf_counter()
            scan = all_sources_scan(CSRGraph(graph))  # build is part of the cost
            best_py = min(best_py, time.perf_counter() - t0)

            t0 = time.perf_counter()
            np_scan = np_all_sources_scan(NPGraph(CSRGraph(graph)))
            best_np = min(best_np, time.perf_counter() - t0)

        assert np_scan == scan, (name, "scan differs")

        shapes[name] = {
            "n": graph.num_vertices,
            "m": graph.num_edges,
            "python_s": best_py,
            "numpy_s": best_np,
            "speedup": best_py / best_np,
        }
    speedups = [s["speedup"] for s in shapes.values()]
    geomean = 1.0
    for s in speedups:
        geomean *= s
    geomean **= 1.0 / len(speedups)
    return {"shapes": shapes, "aggregate": {"geomean_speedup": geomean}}


# --------------------------------------------------------------------- #
# Network + sweep benches
# --------------------------------------------------------------------- #


def bench_network(reps: int, quick: bool) -> dict:
    n = 24 if quick else 96
    extra = 2 * n
    graph = random_connected_graph(n, extra, seed=11)
    root = graph.vertices[0]
    best = float("inf")
    messages = 0
    for _ in range(reps):
        net = Network(graph, lambda v: FloodProcess(v == root, "bench"))
        t0 = time.perf_counter()
        result = net.run()
        best = min(best, time.perf_counter() - t0)
        messages = result.message_count
    return {
        "graph": {"n": n, "m": graph.num_edges},
        "messages": messages,
        "wall_s": best,
        "messages_per_s": messages / best,
    }


def bench_tracing(reps: int, quick: bool) -> dict:
    """The flood bench run untraced, with a disabled recorder, and with a
    full recorder — the observability subsystem's overhead contract."""
    n = 24 if quick else 96
    graph = random_connected_graph(n, 2 * n, seed=11)
    root = graph.vertices[0]

    def once(recorder):
        net = Network(graph, lambda v: FloodProcess(v == root, "bench"),
                      recorder=recorder)
        t0 = time.perf_counter()
        result = net.run()
        return time.perf_counter() - t0, result

    best = {"untraced": float("inf"), "disabled": float("inf"),
            "recording": float("inf")}
    messages = {}
    events = 0
    # Interleave all three sides per rep; keep minima (noise-robust).
    # Each run is ~1ms, so extra reps are cheap and the percentages noisy
    # without them.
    for _ in range(max(reps, 15)):
        wall, res = once(None)
        best["untraced"] = min(best["untraced"], wall)
        messages["untraced"] = res.message_count

        wall, res = once(NullRecorder())
        best["disabled"] = min(best["disabled"], wall)
        messages["disabled"] = res.message_count

        rec = TraceRecorder()
        wall, res = once(rec)
        best["recording"] = min(best["recording"], wall)
        messages["recording"] = res.message_count
        events = rec.n_emitted

    assert len(set(messages.values())) == 1, ("runs diverged", messages)
    assert events > 0
    return {
        "graph": {"n": n, "m": graph.num_edges},
        "messages": messages["untraced"],
        "trace_events": events,
        "untraced_s": best["untraced"],
        "disabled_s": best["disabled"],
        "recording_s": best["recording"],
        "disabled_overhead_pct":
            (best["disabled"] / best["untraced"] - 1.0) * 100.0,
        "recording_overhead_pct":
            (best["recording"] / best["untraced"] - 1.0) * 100.0,
        # Higher-is-better form for the --compare gate (~1.0 when the
        # disabled path costs nothing).
        "disabled_ratio": best["untraced"] / best["disabled"],
    }


def bench_serve(jobs: int, quick: bool) -> dict:
    """The serve tier: content-addressed cache vs re-execution.

    One in-process :class:`repro.serve.ServeClient` over a fresh
    persistent store serves a pinned mix of chaos requests cold, then the
    identical mix again (pure cache hits), then 8 simultaneous duplicates
    of a new request (single-flight coalescing).  ServeStats counts are
    asserted *exactly* — the dedupe ledger is the result — and the
    cache-hit speedup is a hard >= 5x acceptance gate, enforced in
    ``main`` alongside the row-identity gates.
    """
    import tempfile

    from repro.serve import ServeClient, payload_bytes

    if quick:
        protos, n, extra = ("broadcast", "dfs"), 12, 18
    else:
        protos, n, extra = ("broadcast", "convergecast", "dfs", "mst_ghs"), 12, 18
    mix = [
        {"kind": "chaos", "protocol": p, "n": n, "extra_edges": extra,
         "graph_seed": gs, "drop": drop, "backend": "python"}
        for p in protos
        for gs, drop in ((2, 0.0), (3, 0.2))
    ]
    fanout = 8
    straggler = {"kind": "chaos", "protocol": protos[0], "n": n,
                 "extra_edges": extra, "graph_seed": 5, "drop": 0.1,
                 "backend": "python"}

    with tempfile.TemporaryDirectory(prefix="repro-serve-bench-") as root:
        with ServeClient(cache_dir=root, jobs=jobs) as client:
            t0 = time.perf_counter()
            cold = [client.request(r) for r in mix]
            cold_s = time.perf_counter() - t0

            t0 = time.perf_counter()
            warm = [client.request(r) for r in mix]
            warm_s = time.perf_counter() - t0

            identical = all(
                payload_bytes(c["payload"]) == payload_bytes(w["payload"])
                and c["payload_sha"] == w["payload_sha"]
                for c, w in zip(cold, warm)
            )

            t0 = time.perf_counter()
            dup = client.request_many([dict(straggler)] * fanout)
            coalesce_s = time.perf_counter() - t0
            stats = client.stats()

    sources = sorted(r["source"] for r in dup)
    coalesced_ok = sources == ["coalesced"] * (fanout - 1) + ["executed"]
    expected = {"hits": len(mix), "misses": len(mix) + 1,
                "coalesced": fanout - 1}
    counts_exact = all(stats[k] == v for k, v in expected.items())
    hit_speedup = cold_s / warm_s if warm_s else float("inf")
    return {
        "requests": len(mix),
        "jobs": jobs,
        "cold_s": cold_s,
        "warm_s": warm_s,
        "cold_rps": len(mix) / cold_s,
        "warm_rps": len(mix) / warm_s,
        "hit_speedup": hit_speedup,
        "coalesce": {"fanout": fanout, "wall_s": coalesce_s,
                     "sources_exact": coalesced_ok},
        "stats": {k: stats[k] for k in
                  ("hits", "misses", "coalesced", "rejected", "errors",
                   "p50_ms", "p99_ms")},
        "expected": expected,
        "counts_exact": counts_exact,
        "identical": identical,
    }


def _legacy_pool_map(fn, cells, jobs):
    """The pre-optimization parallel path: a fresh executor per call,
    chunksize 1, no worker warm-up — every call re-pays pool spin-up and
    every worker rebuilds its reference runs from scratch."""
    with ProcessPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, cells, chunksize=1))


def bench_chaos_sweep(jobs: int, quick: bool) -> dict:
    if quick:
        per_seed = dict(n=10, extra_edges=12, drop_rates=(0.0, 0.2))
        graph_seeds = (4,)
    else:
        per_seed = dict(n=14, extra_edges=20, drop_rates=(0.0, 0.05, 0.2))
        graph_seeds = (2, 3, 5)
    cells = []
    for gs in graph_seeds:
        cells += chaos_cells(graph_seed=gs, **per_seed)
    warm = tuple((per_seed["n"], per_seed["extra_edges"], gs, None)
                 for gs in graph_seeds)

    run_parallel(run_chaos_cell, cells, jobs=1)  # warm in-process memos
    t0 = time.perf_counter()
    serial = run_parallel(run_chaos_cell, cells, force="serial")
    serial_s = time.perf_counter() - t0

    # The engine's own plan (may legitimately choose serial on small
    # hosts — that fallback is the optimization under test there).
    t0 = time.perf_counter()
    engine = run_parallel(run_chaos_cell, cells, jobs=jobs, warm=warm)
    engine_s = time.perf_counter() - t0

    # The real pool path, forced: cold (pool spin-up included; the
    # references come from this process's memo, filled by the serial
    # runs above), then reusing the persistent workers.
    shutdown_pool()
    t0 = time.perf_counter()
    pool_cold = run_parallel(run_chaos_cell, cells, jobs=jobs, warm=warm,
                             force="pool")
    pool_cold_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pool_warm = run_parallel(run_chaos_cell, cells, jobs=jobs, warm=warm,
                             force="pool")
    pool_warm_s = time.perf_counter() - t0
    shutdown_pool()

    t0 = time.perf_counter()
    legacy = _legacy_pool_map(run_chaos_cell, cells, jobs)
    legacy_pool_s = time.perf_counter() - t0

    return {
        "rows": len(serial),
        "graph_seeds": list(graph_seeds),
        "jobs": jobs,
        "serial_s": serial_s,
        "engine_s": engine_s,
        "parallel_s": engine_s,  # legacy key: trajectory continuity
        "pool_cold_s": pool_cold_s,
        "pool_warm_s": pool_warm_s,
        "legacy_pool_s": legacy_pool_s,
        "speedup": serial_s / engine_s if engine_s else float("inf"),
        "pool_vs_legacy": legacy_pool_s / pool_warm_s
        if pool_warm_s else float("inf"),
        "identical": serial == engine == pool_cold == pool_warm == legacy,
    }


# --------------------------------------------------------------------- #
# Big tier: zero-copy shared-memory sweeps at n = 10^5..10^6
# --------------------------------------------------------------------- #

# Peak-RSS ceiling for the big tier (self + children, as getrusage
# reports it).  The n=10^6 lower-bound graph is ~56 MB flat; the budget
# is the aggregates-only discipline made enforceable — a regression that
# starts materializing per-vertex structures (dict graphs, distance
# matrices, per-cell rows that aren't O(1)) blows through it immediately.
BIG_BUDGET_MB = 1024
BIG_BUDGET_QUICK_MB = 512


def _peak_rss_mb() -> float:
    """Peak resident set of this process plus its (reaped) children, MB.

    ``ru_maxrss`` is KB on Linux; children report the *max* across
    workers, so the sum is a conservative upper estimate of concurrent
    residency — exactly the right direction for a budget assertion.
    """
    import resource

    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def _fold_stripe_rows(rows: list[dict]) -> dict:
    """Aggregate a stripe sweep to O(1) (rows never enter the report)."""
    digest = None
    wmax = 0.0
    wsum = 0.0
    edges = 0
    for row in rows:
        digest = row["digest"]  # last cell's digest anchors identity
        edges += row["edges"]
        wsum += row["wsum"]
        if row["wmax"] > wmax:
            wmax = row["wmax"]
    return {"cells": len(rows), "edges": edges, "wmax": wmax,
            "wsum": wsum, "last_digest": digest}


def _big_family(name: str, builder, *, jobs: int, cells_target: int,
                sources: int, kernel: str) -> dict:
    """Build one graph family, publish it once, and sweep it twice.

    The returned record carries the acceptance counters: ``graph_builds``
    (publisher-side ``shm_creates`` delta — must be exactly 1 for the
    whole sweep), per-worker attach/rebuild counts, and the serial vs
    pool identity verdict over both the stripe and the sources sweep.
    """
    from repro.graphs import shm

    before = shm.stats()
    t0 = time.perf_counter()
    flat = builder()
    build_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    handle = shm.publish(flat, key=f"big-{name}")
    publish_s = time.perf_counter() - t0
    creates = shm.stats()["shm_creates"] - before["shm_creates"]

    cell_size = max(1, flat.n // cells_target)
    t0 = time.perf_counter()
    serial_rows = snapshot_rows(handle, kind="stripe", cell_size=cell_size,
                                force="serial")
    serial_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    pool_rows = snapshot_rows(handle, kind="stripe", cell_size=cell_size,
                              force="pool", jobs=jobs, batch=64)
    pool_s = time.perf_counter() - t0
    stripe_identical = serial_rows == pool_rows

    t0 = time.perf_counter()
    src_pool = snapshot_rows(handle, kind="sources", limit=sources,
                             cell_size=1, kernel=kernel, force="pool",
                             jobs=jobs)
    sources_pool_s = time.perf_counter() - t0
    t0 = time.perf_counter()
    src_serial = snapshot_rows(handle, kind="sources", limit=sources,
                               cell_size=1, kernel=kernel, force="serial")
    sources_serial_s = time.perf_counter() - t0
    sources_identical = src_pool == src_serial

    workers = pool_shm_stats(jobs, snapshots=(handle,))
    record = {
        "n": flat.n,
        "m": flat.m,
        "nbytes": flat.nbytes,
        "fingerprint": flat.fingerprint,
        "segment": handle.segment,
        "build_s": build_s,
        "publish_s": publish_s,
        "graph_builds": creates,
        "cell_size": cell_size,
        "stripe": _fold_stripe_rows(serial_rows),
        "stripe_serial_s": serial_s,
        "stripe_pool_s": pool_s,
        "serial_cells_per_s": len(serial_rows) / serial_s,
        "pool_cells_per_s": len(pool_rows) / pool_s,
        "sources": sources,
        "sources_kernel": kernel,
        "sources_pool_s": sources_pool_s,
        "sources_serial_s": sources_serial_s,
        "reach_min": min(r["reach_min"] for r in src_serial),
        "ecc_max": max(r["ecc_max"] for r in src_serial),
        "sources_digest": src_serial[-1]["digest"],
        "identical": stripe_identical and sources_identical,
        "worker_creates": sum(w["shm_creates"] for w in workers),
        "worker_attaches": sum(w["shm_attaches"] for w in workers),
        "worker_rebuilds": sum(w["shm_rebuilds"] for w in workers),
        "workers_probed": len(workers),
    }
    # One build per sweep, zero per-worker rebuilds: the tentpole's
    # acceptance counters, asserted where the numbers are produced.
    assert record["identical"], (name, "serial != pool rows")
    assert creates <= 1, (name, "published more than one segment")
    assert record["worker_rebuilds"] == 0, (name, "worker rebuilt the graph")
    assert record["worker_creates"] == 0, (name, "worker created a segment")
    return record


def _big_traced_flood(quick: bool) -> dict:
    """A flood run under aggregates-only tracing (``TraceRecorder(limit=0)``).

    The recorder keeps per-span aggregates and drops every event payload,
    so observability rides along at O(1) memory — the only tracing mode
    the big tier permits under its budget.
    """
    n = 96 if quick else 256
    graph = random_connected_graph(n, 2 * n, seed=11)
    root = graph.vertices[0]
    rec = TraceRecorder(limit=0)
    net = Network(graph, lambda v: FloodProcess(v == root, "big"),
                  recorder=rec)
    t0 = time.perf_counter()
    result = net.run()
    wall = time.perf_counter() - t0
    assert rec.n_recorded == 0, "limit=0 must keep no event payloads"
    return {
        "n": n,
        "messages": result.message_count,
        "emitted": rec.n_emitted,
        "recorded": rec.n_recorded,
        "dropped": rec.dropped,
        "comm_cost": rec.total_cost,
        "wall_s": wall,
    }


def bench_big(jobs: int, quick: bool) -> dict:
    """The n = 10^5..10^6 tier: streamed builds, one publish, shm sweeps.

    ``quick`` scales every family to n = 10^4 (the CI big-smoke shape);
    the full tier runs the paper's lower-bound family at n = 10^6.  All
    rows are aggregates (O(1) per cell) and the whole tier must fit the
    explicit peak-RSS budget.
    """
    from repro.graphs import lower_bound_flat, lower_bound_split_flat, \
        random_connected_flat
    from repro.graphs import shm
    from repro.graphs.npkernels import numpy_available

    budget_mb = BIG_BUDGET_QUICK_MB if quick else BIG_BUDGET_MB
    if quick:
        families = {
            # G_n is path-like: the numpy frontier relaxation takes ~n
            # rounds there (about one per hop), several times the Python
            # heap kernel's time, so its sources pin the heap kernel.
            "lower_bound": (lambda: lower_bound_flat(10_000), 4, "python"),
            "split": (lambda: lower_bound_split_flat(10_000, 100), 4,
                      "python"),
            "random": (lambda: random_connected_flat(10_000, 20_000, seed=29),
                       8, "numpy" if numpy_available() else "python"),
        }
        cells_target = 1_000
    else:
        families = {
            "lower_bound": (lambda: lower_bound_flat(1_000_000), 2, "python"),
            "split": (lambda: lower_bound_split_flat(100_000, 1_000), 4,
                      "python"),
            "random": (lambda: random_connected_flat(100_000, 200_000,
                                                     seed=29),
                       8, "numpy" if numpy_available() else "python"),
        }
        cells_target = 10_000

    shutdown_pool()  # fresh workers; also unlinks any earlier segments
    out: dict = {"budget_mb": budget_mb, "cells_target": cells_target}
    for name, (builder, sources, kernel) in families.items():
        out[name] = _big_family(name, builder, jobs=jobs,
                                cells_target=cells_target, sources=sources,
                                kernel=kernel)
    out["traced_flood"] = _big_traced_flood(quick)
    out["shm"] = {k: v for k, v in shm.stats().items()
                  if k.startswith("shm_")}
    shutdown_pool()
    out["segments_after_shutdown"] = sum(
        1 for f in os.listdir("/dev/shm")
        if f.startswith("rshm-")
    ) if os.path.isdir("/dev/shm") else 0
    out["peak_rss_mb"] = _peak_rss_mb()
    out["within_budget"] = out["peak_rss_mb"] <= budget_mb
    return out


# --------------------------------------------------------------------- #
# Regression compare
# --------------------------------------------------------------------- #


def comparable_metrics(report: dict) -> dict:
    """Flatten a bench report to the higher-is-better metrics worth
    diffing across revisions: self-normalized speedups plus the one raw
    throughput rate (same-machine artifacts only, as in CI)."""
    m = {}
    eq = report.get("event_queue", {})
    for name, s in eq.get("shapes", {}).items():
        m[f"event_queue/{name}/speedup"] = s["speedup"]
    if "aggregate" in eq:
        m["event_queue/geomean_speedup"] = eq["aggregate"]["geomean_speedup"]
    gk = report.get("graph_kernels", {})
    for name, s in gk.get("shapes", {}).items():
        m[f"graph_kernels/{name}/speedup"] = s["speedup"]
    if "aggregate" in gk:
        m["graph_kernels/geomean_speedup"] = gk["aggregate"]["geomean_speedup"]
    nk = report.get("npkernels", {})
    for name, s in nk.get("shapes", {}).items():
        m[f"npkernels/{name}/speedup"] = s["speedup"]
    if "aggregate" in nk:
        m["npkernels/geomean_speedup"] = nk["aggregate"]["geomean_speedup"]
    net = report.get("network", {})
    if "messages_per_s" in net:
        m["network/messages_per_s"] = net["messages_per_s"]
    cs = report.get("chaos_sweep", {})
    if "speedup" in cs:
        m["chaos_sweep/speedup"] = cs["speedup"]
    tr = report.get("tracing", {})
    if "disabled_ratio" in tr:
        m["tracing/disabled_ratio"] = tr["disabled_ratio"]
    sv = report.get("serve", {})
    if "hit_speedup" in sv:
        m["serve/hit_speedup"] = sv["hit_speedup"]
    if "warm_rps" in sv:
        m["serve/warm_rps"] = sv["warm_rps"]
    big = report.get("big_tier", {})
    rand = big.get("random", {})
    # Only the random family's stripe throughput gates: its per-cell cost
    # (cell_size x avg degree) is size-independent between the quick and
    # full shapes, unlike the absolute build times.
    if "serial_cells_per_s" in rand:
        m["big_tier/random/serial_cells_per_s"] = rand["serial_cells_per_s"]
    if "pool_cells_per_s" in rand:
        m["big_tier/random/pool_cells_per_s"] = rand["pool_cells_per_s"]
    return m


def compare_reports(current: dict, baseline: dict,
                    tolerance: float = 0.10) -> tuple[bool, float, dict]:
    """Diff two reports; return ``(ok, geomean_ratio, per_metric_ratios)``.

    Only metrics present in *both* reports count (new bench sections
    don't trip the gate); the gate fails when the geomean of
    current/baseline ratios drops below ``1 - tolerance``.
    """
    cur = comparable_metrics(current)
    base = comparable_metrics(baseline)
    ratios = {}
    for key, value in cur.items():
        prior = base.get(key)
        if prior and prior > 0 and value > 0:
            ratios[key] = value / prior
    if not ratios:
        return True, 1.0, {}
    geomean = 1.0
    for r in ratios.values():
        geomean *= r
    geomean **= 1.0 / len(ratios)
    return geomean >= 1.0 - tolerance, geomean, ratios


def run_compare(report: dict, baseline_path: Path, tolerance: float) -> bool:
    baseline = json.loads(baseline_path.read_text())
    if bool(report.get("quick")) != bool(baseline.get("quick")):
        print(f"WARNING: comparing quick={report.get('quick')} run against "
              f"quick={baseline.get('quick')} baseline; sizes differ",
              file=sys.stderr)
    ok, geomean, ratios = compare_reports(report, baseline, tolerance)
    print(f"compare vs {baseline_path.name} "
          f"(rev {baseline.get('rev', '?')}, tolerance {tolerance:.0%}):")
    for key in sorted(ratios):
        flag = "" if ratios[key] >= 1.0 - tolerance else "  <-- regression"
        print(f"  {key:40s} x{ratios[key]:.3f}{flag}")
    print(f"  {'geomean':40s} x{geomean:.3f}  "
          f"{'OK' if ok else 'REGRESSION'}")
    return ok


# --------------------------------------------------------------------- #
# Entry point
# --------------------------------------------------------------------- #


def git_rev() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=REPO,
            capture_output=True, text=True, check=True,
        ).stdout.strip()
    except Exception:
        return "unknown"


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--quick", action="store_true",
                    help="tiny pinned sizes for CI smoke runs")
    ap.add_argument("--big", action="store_true",
                    help="add the shared-memory big tier (n=10^5..10^6 "
                         "full, n=10^4 with --quick) under its RSS budget")
    ap.add_argument("--jobs", type=int, default=4,
                    help="worker count for the parallel sweep bench")
    ap.add_argument("--reps", type=int, default=None,
                    help="repetitions per measurement (min is kept)")
    ap.add_argument("--out", type=Path, default=None,
                    help="output path (default BENCH_<rev>.json in repo root)")
    ap.add_argument("--compare", type=Path, default=None,
                    help="prior BENCH_<rev>.json to diff against; exits "
                         "non-zero on geomean regression beyond --tolerance")
    ap.add_argument("--tolerance", type=float, default=0.10,
                    help="allowed geomean regression for --compare "
                         "(default 0.10 = 10%%)")
    args = ap.parse_args(argv)

    reps = args.reps if args.reps is not None else (3 if args.quick else 7)
    rev = git_rev()
    report = {
        "rev": rev,
        "unix_time": int(time.time()),
        "python": sys.version.split()[0],
        "cpus": os.cpu_count(),
        "quick": args.quick,
        "reps": reps,
        "event_queue": bench_event_queue(reps, args.quick),
        "graph_kernels": bench_graph_kernels(reps, args.quick),
        "npkernels": bench_npkernels(reps, args.quick),
        "network": bench_network(reps, args.quick),
        "chaos_sweep": bench_chaos_sweep(args.jobs, args.quick),
        "tracing": bench_tracing(reps, args.quick),
        "serve": bench_serve(args.jobs, args.quick),
    }
    if args.big:
        report["big_tier"] = bench_big(args.jobs, args.quick)

    out = args.out or REPO / f"BENCH_{rev}.json"
    # jsonable: the big tier's eccentricity aggregates can be inf, which
    # strict JSON (and some loaders) reject.
    out.write_text(json.dumps(jsonable(report), indent=2) + "\n")

    eq = report["event_queue"]
    for name, s in eq["shapes"].items():
        print(f"{name:12s} {s['events']:>8d} ev  "
              f"legacy {s['legacy_events_per_s']:>12,.0f}/s  "
              f"current {s['current_events_per_s']:>12,.0f}/s  "
              f"x{s['speedup']:.2f}")
    agg = eq["aggregate"]
    print(f"{'aggregate':12s} {agg['total_events']:>8d} ev  "
          f"speedup x{agg['speedup']:.2f}  (geomean x{agg['geomean_speedup']:.2f})")
    gk = report["graph_kernels"]
    for name, s in gk["shapes"].items():
        print(f"kernel {name:14s} n={s['n']:<4d} m={s['m']:<5d} "
              f"dict {s['dict_s'] * 1e3:>8.2f}ms  csr {s['csr_s'] * 1e3:>8.2f}ms  "
              f"x{s['speedup']:.2f}")
    print(f"kernel geomean x{gk['aggregate']['geomean_speedup']:.2f}")
    nk = report["npkernels"]
    if "skipped" in nk:
        print(f"npkernels: skipped ({nk['skipped']})")
    else:
        for name, s in nk["shapes"].items():
            print(f"npkern {name:14s} n={s['n']:<4d} m={s['m']:<5d} "
                  f"python {s['python_s'] * 1e3:>8.2f}ms  "
                  f"numpy {s['numpy_s'] * 1e3:>8.2f}ms  "
                  f"x{s['speedup']:.2f}")
        print(f"npkern geomean x{nk['aggregate']['geomean_speedup']:.2f}")
    net = report["network"]
    print(f"network flood: {net['messages']} msgs, "
          f"{net['messages_per_s']:,.0f} msgs/s")
    cs = report["chaos_sweep"]
    print(f"chaos sweep: {cs['rows']} rows, serial {cs['serial_s']:.2f}s, "
          f"engine jobs={cs['jobs']} {cs['engine_s']:.2f}s (x{cs['speedup']:.2f}), "
          f"pool cold {cs['pool_cold_s']:.2f}s / warm {cs['pool_warm_s']:.2f}s, "
          f"legacy pool {cs['legacy_pool_s']:.2f}s "
          f"(pool vs legacy x{cs['pool_vs_legacy']:.2f}), "
          f"identical={cs['identical']}")
    tr = report["tracing"]
    print(f"tracing: untraced {tr['untraced_s'] * 1e3:.2f}ms, "
          f"disabled {tr['disabled_s'] * 1e3:.2f}ms "
          f"({tr['disabled_overhead_pct']:+.2f}%), "
          f"recording {tr['recording_s'] * 1e3:.2f}ms "
          f"({tr['recording_overhead_pct']:+.2f}%, "
          f"{tr['trace_events']} events)")
    sv = report["serve"]
    print(f"serve: {sv['requests']} requests, cold {sv['cold_s']:.2f}s "
          f"({sv['cold_rps']:.1f}/s), warm {sv['warm_s'] * 1e3:.1f}ms "
          f"({sv['warm_rps']:,.0f}/s), hit speedup x{sv['hit_speedup']:.1f}, "
          f"coalesce {sv['coalesce']['fanout']} dup -> 1 exec, "
          f"counts_exact={sv['counts_exact']}, identical={sv['identical']}")
    if args.big:
        big = report["big_tier"]
        for fam in ("lower_bound", "split", "random"):
            f = big[fam]
            print(f"big {fam:12s} n={f['n']:<8d} m={f['m']:<8d} "
                  f"build {f['build_s']:.2f}s  publish {f['publish_s'] * 1e3:.0f}ms  "
                  f"builds={f['graph_builds']}  "
                  f"stripe {f['stripe']['cells']} cells "
                  f"serial {f['serial_cells_per_s']:,.0f}/s "
                  f"pool {f['pool_cells_per_s']:,.0f}/s  "
                  f"sources({f['sources_kernel']}) {f['sources_pool_s']:.2f}s  "
                  f"attaches={f['worker_attaches']} "
                  f"rebuilds={f['worker_rebuilds']}  "
                  f"identical={f['identical']}")
        tf = big["traced_flood"]
        print(f"big traced flood: n={tf['n']}, {tf['messages']} msgs, "
              f"{tf['emitted']} events emitted / {tf['recorded']} kept "
              f"(limit=0), {tf['wall_s'] * 1e3:.1f}ms")
        print(f"big tier: peak rss {big['peak_rss_mb']:.0f} MB "
              f"(budget {big['budget_mb']} MB, "
              f"within={big['within_budget']}), "
              f"segments after shutdown: {big['segments_after_shutdown']}")
    print(f"wrote {out}")

    if not cs["identical"]:
        print("FATAL: parallel sweep rows differ from serial", file=sys.stderr)
        return 1
    if not (sv["identical"] and sv["counts_exact"]
            and sv["coalesce"]["sources_exact"]):
        print("FATAL: serve tier broke cache identity or exact dedupe counts",
              file=sys.stderr)
        return 1
    if sv["hit_speedup"] < 5.0:
        print(f"FATAL: serve cache-hit speedup x{sv['hit_speedup']:.1f} "
              f"below the 5x floor", file=sys.stderr)
        return 1
    if args.big:
        big = report["big_tier"]
        if not big["within_budget"]:
            print(f"FATAL: big tier peak RSS {big['peak_rss_mb']:.0f} MB "
                  f"exceeds the {big['budget_mb']} MB budget",
                  file=sys.stderr)
            return 1
        if big["segments_after_shutdown"]:
            print("FATAL: big tier leaked shared-memory segments",
                  file=sys.stderr)
            return 1
    if args.compare is not None and not run_compare(report, args.compare,
                                                    args.tolerance):
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
