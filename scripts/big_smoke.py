#!/usr/bin/env python
"""Smoke for the NumPy scan and the shared-memory big tier.

Run:  python scripts/big_smoke.py

1. **NumPy dense scans.**  On three dense exact-integer shapes, the
   NumPy backend's snapshot build + all-sources scan must equal the
   pure-Python CSR scan, and the geometric mean of its speedups (min of
   3 timings a side) must be above 1.  Skipped, with a line saying so,
   when numpy is not installed.
2. **The big tier, at two sizes in one process**: the paper's graph
   families at n = 10^4 under a 512 MB peak-RSS budget, then at full
   size (n = 10^6 ``G_n``, n = 10^5 split and random) under 1024 MB.
   Each family is built once, published once into shared memory and
   swept by a pool of ``JOBS`` workers.  The process must publish
   exactly one segment per family and the workers must create and
   rebuild nothing; serial and pool rows must be equal for the stripe
   and the sources sweeps; where the sources sweep runs the NumPy
   kernel, its last source's digest must equal the Python heap kernel's.
   After ``shutdown_pool()`` no segment this process published may be
   left in ``/dev/shm`` (segments of other processes do not count).
3. A flood under ``TraceRecorder(limit=0)`` must keep no event.

Each size prints its families' figures and its peak RSS.  A failed check
prints ``FAIL`` and exits 1.
"""

from __future__ import annotations

import math
import os
import resource
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.parallel import (  # noqa: E402
    pool_shm_stats,
    shutdown_pool,
    snapshot_rows,
)
from repro.graphs import (  # noqa: E402
    complete_graph,
    lower_bound_flat,
    lower_bound_split_flat,
    random_connected_flat,
    random_connected_graph,
    shm,
)
from repro.graphs.csr import (  # noqa: E402
    CSRGraph,
    all_sources_scan,
    flat_source_stats,
)
from repro.graphs.npkernels import (  # noqa: E402
    NPGraph,
    np_all_sources_scan,
    numpy_available,
)
from repro.obs import TraceRecorder  # noqa: E402
from repro.protocols.broadcast import FloodProcess  # noqa: E402
from repro.sim.network import Network  # noqa: E402

JOBS = 2
# G_n and split are path-like: the NumPy frontier relaxation takes about
# one round per hop there, several times the Python heap kernel's time,
# so their sources pin the heap kernel (docs/PERF.md, "Work model").
RANDOM_KERNEL = "numpy" if numpy_available() else "python"
# (label, peak-RSS budget in MB, stripe cells per sweep,
#  {family: (build, sources, sources kernel)})
SIZES = (
    ("n=10^4", 512, 1_000, {
        "lower_bound": (lambda: lower_bound_flat(10_000), 4, "python"),
        "split": (lambda: lower_bound_split_flat(10_000, 100), 4, "python"),
        "random": (lambda: random_connected_flat(10_000, 20_000, seed=29),
                   8, RANDOM_KERNEL),
    }),
    ("full", 1024, 10_000, {
        "lower_bound": (lambda: lower_bound_flat(1_000_000), 2, "python"),
        "split": (lambda: lower_bound_split_flat(100_000, 1_000), 4,
                  "python"),
        "random": (lambda: random_connected_flat(100_000, 200_000, seed=29),
                   8, RANDOM_KERNEL),
    }),
)


def check(ok: bool, message: str) -> None:
    if not ok:
        print(f"FAIL: {message}", file=sys.stderr)
        raise SystemExit(1)


def timed(fn):
    t0 = time.perf_counter()
    out = fn()
    return time.perf_counter() - t0, out


def numpy_scan() -> None:
    if not numpy_available():
        print("numpy scan: skipped (numpy not installed)")
        return
    shapes = {
        "complete": complete_graph(64),
        "random_dense": random_connected_graph(96, 3000, seed=17),
        "random_mid": random_connected_graph(128, 3200, seed=13),
    }
    speedups = []
    for name, graph in shapes.items():
        check(np_all_sources_scan(NPGraph(CSRGraph(graph)))
              == all_sources_scan(CSRGraph(graph)),
              f"numpy scan differs from the Python scan on {name}")
        py_s = np_s = math.inf
        for _ in range(3):  # interleaved, so host noise hits both sides
            py_s = min(py_s, timed(lambda: all_sources_scan(CSRGraph(graph)))[0])
            np_s = min(np_s, timed(
                lambda: np_all_sources_scan(NPGraph(CSRGraph(graph))))[0])
        speedups.append(py_s / np_s)
        print(f"numpy scan {name:12s} n={graph.num_vertices:<4d} "
              f"m={graph.num_edges:<5d} python {py_s * 1e3:7.2f} ms  "
              f"numpy {np_s * 1e3:7.2f} ms  x{py_s / np_s:.2f}")
    geomean = math.prod(speedups) ** (1 / len(speedups))
    print(f"numpy scan geomean x{geomean:.2f}")
    check(geomean > 1.0, f"numpy scan geomean x{geomean:.2f} is not above 1")


def family(name: str, build, sources: int, kernel: str,
           cells: int) -> str:
    """Build, publish and sweep one family; return its segment name."""
    creates = shm.stats()["shm_creates"]
    build_s, flat = timed(build)
    publish_s, handle = timed(lambda: shm.publish(flat, key=f"big-{name}"))
    check(shm.stats()["shm_creates"] - creates == 1,
          f"{name}: published {shm.stats()['shm_creates'] - creates} "
          f"segments, not 1")
    size = max(1, flat.n // cells)
    stripe_s, stripe = timed(lambda: snapshot_rows(
        handle, kind="stripe", cell_size=size, force="serial"))
    check(stripe == snapshot_rows(handle, kind="stripe", cell_size=size,
                                  force="pool", jobs=JOBS, batch=64),
          f"{name}: pool stripe rows differ from serial")
    sweep = dict(kind="sources", limit=sources, cell_size=1, kernel=kernel)
    pooled = snapshot_rows(handle, force="pool", jobs=JOBS, **sweep)
    sources_s, serial = timed(lambda: snapshot_rows(handle, force="serial",
                                                    **sweep))
    check(pooled == serial, f"{name}: pool source rows differ from serial")
    if kernel == "numpy":
        want = flat_source_stats(flat, sources - 1, sources)["digest"]
        check(serial[-1]["digest"] == want,
              f"{name}: numpy source digest differs from the heap kernel's")
    for w in pool_shm_stats(JOBS, snapshots=(handle,)):
        check(w["shm_creates"] == 0 and w["shm_rebuilds"] == 0,
              f"{name}: worker {w['pid']} created {w['shm_creates']} and "
              f"rebuilt {w['shm_rebuilds']} graphs")
    print(f"  {name:12s} n={flat.n:<8d} m={flat.m:<8d} "
          f"build {build_s:5.2f} s  publish {publish_s * 1e3:4.0f} ms  "
          f"{len(stripe)} stripe cells {len(stripe) / stripe_s:,.0f}/s  "
          f"{sources} sources ({kernel}) {sources_s:.2f} s")
    return str(handle.segment)


def traced_flood() -> None:
    graph = random_connected_graph(256, 512, seed=11)
    root = graph.vertices[0]
    rec = TraceRecorder(limit=0)
    Network(graph, lambda v: FloodProcess(v == root, "big"),
            recorder=rec).run()
    check(rec.n_emitted > 0 and rec.n_recorded == 0,
          f"limit=0 flood kept {rec.n_recorded} of {rec.n_emitted} events")
    print(f"limit=0 flood: {rec.n_emitted} events emitted, 0 kept")


def peak_rss_mb() -> float:
    """This process's peak RSS plus its largest reaped child's, in MB
    (``ru_maxrss`` is KB on Linux): an upper estimate of what ran at once."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0


def main() -> int:
    numpy_scan()
    traced_flood()
    for label, budget_mb, cells, families in SIZES:
        print(f"big tier {label}:")
        segments = [family(name, build, sources, kernel, cells)
                    for name, (build, sources, kernel) in families.items()]
        shutdown_pool()
        left = [s for s in segments if os.path.exists(f"/dev/shm/{s}")]
        check(not left, f"{label}: segments left after shutdown: {left}")
        peak = peak_rss_mb()
        print(f"big tier {label}: peak RSS {peak:.0f} MB "
              f"(budget {budget_mb} MB), no segment left")
        check(peak <= budget_mb,
              f"{label}: peak RSS {peak:.0f} MB over {budget_mb} MB")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
