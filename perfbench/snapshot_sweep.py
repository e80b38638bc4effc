"""Workload ``snapshot-sweep``: one published graph, swept by the pool.

One streamed ``random_connected_flat`` graph is built and published once
with ``shm.publish``; the run then repeats whole rounds of pooled
``snapshot_rows`` sweeps over it, each round three sweeps of

* batched stripe cells (cheap, bound by dispatch and attach)

and one sweep of

* per-source SSSP cells (bound by the graph kernel).

The graph kernels and shared memory do the work; the simulator does
nothing.  One operation is one cell.  Checks: every pooled sweep equals
the serial sweep; the stripes cover every vertex and edge once; source
0's reach and eccentricity match a Dijkstra written here; the parent
published exactly one segment, workers created and rebuilt nothing, and
no segment is left after shutdown.  The serial sweeps and the Dijkstra
run after this process's peak RSS is read, so ``peak_rss_mb`` does not
count them.

Every timing is scaled to the nominal host speed by reference samples
taken between sweeps (see :class:`perfbench.common.HostSpeed`).
"""

from __future__ import annotations

import heapq
import math
import os

from .common import (
    Ctx,
    HostSpeed,
    Outcome,
    ParallelReference,
    clock,
    derive,
    finish_traced,
    finish_untraced,
    median,
    own_rss_kib,
    peak_rss_mb,
    percentile,
    timed_first,
)

SIZES = {
    "full": {"n": 100_000, "extra": 100_000, "sources": 8, "cell_size": 10,
             "batch": 16},
    "tiny": {"n": 3000, "extra": 3000, "sources": 4, "cell_size": 10,
             "batch": 16},
}
#: Stripe sweeps per source sweep: the two take similar time this way,
#: and the stripe latencies get enough samples for a 99th percentile.
STRIPES_PER_SOURCE = 3


def setup(ctx: Ctx) -> dict:
    from repro.experiments import parallel
    from repro.graphs import generators, shm

    size = SIZES[ctx.size]
    t0 = clock()
    flat = generators.random_connected_flat(
        size["n"], size["extra"], seed=derive(ctx.seed, "graph") % 1_000_000)
    build_s = clock() - t0
    t0 = clock()
    handle = shm.publish(flat)
    publish_s = clock() - t0
    parallel.pool_shm_stats(ctx.jobs, snapshots=(handle,))  # start, attach
    return {"size": size, "flat": flat, "handle": handle,
            "build_s": build_s, "publish_s": publish_s}


def teardown(state: dict) -> None:
    from repro.experiments.parallel import shutdown_pool

    shutdown_pool()


def _stripe(ctx: Ctx, state: dict, **kw: object) -> list:
    from repro.experiments.parallel import snapshot_rows

    size = state["size"]
    return snapshot_rows(state["handle"], jobs=ctx.jobs, kind="stripe",
                         cell_size=size["cell_size"], batch=size["batch"], **kw)


def _sources(ctx: Ctx, state: dict, **kw: object) -> list:
    from repro.experiments.parallel import snapshot_rows

    return snapshot_rows(state["handle"], jobs=ctx.jobs, kind="sources",
                         limit=state["size"]["sources"], cell_size=1, **kw)


def run(ctx: Ctx) -> Outcome:
    out = Outcome()
    if ctx.trace:
        state = setup(ctx)
        try:
            _traced(ctx, state, out)
        finally:
            teardown(state)
        _check_segments(state, out)
        return out
    ref = ParallelReference(ctx.jobs)
    try:
        state = setup(ctx)
        try:
            values, variants = _timed(ctx, state, out, ref)
            # The parent's peak so far; the serial sweeps and the Dijkstra
            # below must not count, and the workers count once reaped.
            own = own_rss_kib()
            serial = _serial(ctx, state, out)
            for kind, seen in variants.items():
                for rows, count in seen:
                    for _ in range(count):
                        _compare(kind, rows, serial[kind], out)
        finally:
            teardown(state)
    finally:
        ref.close()
    rss = peak_rss_mb(own)
    _check_segments(state, out)
    finish_untraced(ctx, out, values, rss)
    return out


def _timed(ctx: Ctx, state: dict, out: Outcome,
           ref: ParallelReference) -> tuple[dict, dict]:
    """Whole rounds of pooled sweeps; the metrics and the distinct row
    lists each kind of sweep returned, with how often (normally one)."""
    stripe_t: list[float] = []
    source_t: list[float] = []
    cells_per_s: dict[str, list[float]] = {"stripe": [], "sources": []}
    variants: dict[str, list] = {"stripe": [], "sources": []}
    rounds: list[dict] = []
    busy = 0.0
    while busy < ctx.seconds:
        speed = HostSpeed(ref.sample)
        tally = {"busy": 0.0, "cells": 0, "edge_reads": 0}
        timed = []
        for kind, sweep in ([("stripe", _stripe)] * STRIPES_PER_SOURCE
                            + [("sources", _sources)]):
            speed.sample()  # between sweeps, while the workers are idle
            t0 = clock()
            rows = sweep(ctx, state)
            dt = clock() - t0
            busy += dt
            timed.append((kind, len(rows), dt))
            _tally_variant(variants[kind], rows)
        speed.sample()
        scale = tally["scale"] = speed.scale()
        for kind, n_rows, dt in timed:
            dt *= scale
            tally["busy"] += dt
            tally["cells"] += n_rows
            # A stripe sweep reads every edge once, a source cell once per source.
            tally["edge_reads"] += state["flat"].m2 * (1 if kind == "stripe" else n_rows)
            (stripe_t if kind == "stripe" else source_t).append(dt)
            cells_per_s[kind].append(n_rows / dt)
        rounds.append(tally)
    _check_pool(ctx, state, out)
    out.info.update({"stripe_sweeps": len(stripe_t), "source_sweeps": len(source_t),
                     "rounds": rounds, "busy_s": busy})
    return {
        "msgs_per_s": median([t["edge_reads"] / t["busy"] for t in rounds]),
        "cells_per_s": median(cells_per_s["stripe"]),
        # One source per cell.
        "sources_per_s": median(cells_per_s["sources"]),
        "rps": median([t["cells"] / t["busy"] for t in rounds]),
        "hit_p50_ms": 1e3 * median(stripe_t),
        # A run has about 70 stripe sweeps: too few for a 99th percentile
        # with ten beyond it, so this reports their 90th.
        "hit_p99_ms": 1e3 * percentile(stripe_t, 0.9),
        "miss_p50_ms": 1e3 * median(source_t),
    }, variants


def _tally_variant(seen: list, rows: list) -> None:
    for entry in seen:
        if entry[0] == rows:
            entry[1] += 1
            return
    seen.append([rows, 1])


def _dijkstra(flat: object, source: int) -> tuple[int, float]:
    """(vertices reached, eccentricity) of ``source``, written independently."""
    indptr, indices, weights = flat.indptr, flat.indices, flat.weights
    dist = {source: 0.0}
    heap = [(0.0, source)]
    far = 0.0
    done = set()
    while heap:
        d, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        far = d
        for j in range(indptr[u], indptr[u + 1]):
            v = indices[j]
            nd = d + weights[j]
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return len(done), far


def _serial(ctx: Ctx, state: dict, out: Outcome) -> dict[str, list]:
    """Serial rows of both sweeps, themselves checked against this file."""
    flat = state["flat"]
    serial = {"stripe": _stripe(ctx, state, force="serial"),
              "sources": _sources(ctx, state, force="serial")}
    stripes = serial["stripe"]
    covered = (sum(r["verts"] for r in stripes) == flat.n
               and sum(r["edges"] for r in stripes) == flat.m2
               and all(a["hi"] == b["lo"] for a, b in zip(stripes, stripes[1:])))
    out.check(covered, "stripe cells do not cover the graph exactly once")
    reach, ecc = _dijkstra(flat, 0)
    if ctx.plant:
        ecc += 1.0
    first = serial["sources"][0]
    out.check(first["reach_min"] == reach and first["ecc_max"] == ecc,
              f"source 0: kernel says reach {first['reach_min']} ecc "
              f"{first['ecc_max']}, Dijkstra says {reach} {ecc}")
    return serial


def _compare(kind: str, rows: list, serial: list, out: Outcome) -> None:
    """One operation per cell: its pooled row must equal the serial row."""
    if rows == serial:
        out.ops(len(rows))
        return
    if len(rows) != len(serial):
        out.op(False, f"{kind} sweep returned {len(rows)} rows, not {len(serial)}")
        return
    for row, ref in zip(rows, serial):
        out.op(row == ref, f"{kind} cell {row.get('lo')}: pooled != serial")


def _check_pool(ctx: Ctx, state: dict, out: Outcome) -> None:
    from repro.experiments.parallel import pool_shm_stats
    from repro.graphs import shm

    out.check(shm.stats()["shm_creates"] == 1, "the graph was not published once")
    workers = pool_shm_stats(ctx.jobs, snapshots=(state["handle"],))
    out.check(all(w["shm_creates"] == 0 and w["shm_rebuilds"] == 0
                  for w in workers), f"workers built or published: {workers}")
    state["worker_shm"] = workers


def _check_segments(state: dict, out: Outcome) -> None:
    segment = state["handle"].segment
    if segment is not None and os.path.isdir("/dev/shm"):
        out.check(segment not in os.listdir("/dev/shm"),
                  f"shared-memory segment {segment} leaked")


def _traced(ctx: Ctx, state: dict, out: Outcome) -> None:
    from repro.graphs import shm

    from .ledger import LEDGER, install

    serial = _serial(ctx, state, out)
    t0 = clock()
    passes = [_stripe(ctx, state), _sources(ctx, state)]
    untraced_wall = clock() - t0
    LEDGER.drain()
    install()
    t0 = clock()
    passes += [_stripe(ctx, state), _sources(ctx, state)]
    wall = clock() - t0
    lanes = timed_first(LEDGER.lane_data(), ("MainThread",))
    parent = shm.stats()
    for kind, rows in zip(("stripe", "sources") * 2, passes):
        _compare(kind, rows, serial[kind], out)
    _check_pool(ctx, state, out)
    out.info.update({"untraced_wall_s": untraced_wall,
                     "worker_shm": state["worker_shm"]})
    finish_traced(ctx, out, lanes, timed=1, wall=wall,
                  untraced_wall=untraced_wall, extra={
                      "graphs.build_s": state["build_s"],
                      "graphs.shm.publish_s": state["publish_s"],
                      "graphs.shm.creates": parent["shm_creates"],
                      "graphs.shm.attaches": parent["shm_attaches"],
                      "graphs.shm.rebuilds": parent["shm_rebuilds"],
                      "graphs.shm.failures": parent["shm_failures"],
                  })
