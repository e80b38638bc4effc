"""Workload ``chaos-sweep``: chaos-matrix cells through the warm pool.

Each graph shape contributes the six matrix protocols x drop {0, 0.05,
0.2} x reliable/raw (30 cells), each once untraced and once with
``trace=True``; one operation is one cell, and one sweep dispatches one
shape's 60 cells through ``run_parallel(..., jobs)``.  A round sweeps
every shape once; whole rounds repeat until ``--seconds`` of sweep time
are used, so the mix of cells never depends on the host's speed.
Fault fates, the reliable transport's acks and retransmits, the
aggregates-only recorder and per-cell pool dispatch do the work beside
the simulator.

Every timing is scaled to the nominal host speed by reference samples
taken between sweeps (see :class:`perfbench.common.HostSpeed`).

Checks: every reliable cell is ``ok`` with the answer of a fault-free
run, which is itself checked against oracles written here (MST weight,
spanning DFS tree, every node holding the broadcast, sum n at the
root); no cell is ``wrong``; pooled rows equal a serial run of the cells.
"""

from __future__ import annotations

import hashlib
import os
from typing import Any

from .common import (
    Ctx,
    HostSpeed,
    Outcome,
    ParallelReference,
    clock,
    derive,
    finish_traced,
    finish_untraced,
    geomean,
    median,
    mst_weight,
    peak_rss_mb,
    percentile,
    timed_first,
    typed_median,
)

SIZES = {
    "full": {"n": 128, "extra": 128, "shapes": 4},
    "tiny": {"n": 12, "extra": 12, "shapes": 2},
}
#: Matrix protocols that run from one root (counted by sources_per_s).
ROOTED = frozenset({"broadcast", "convergecast", "dfs", "global_fn(slt)"})
MATRIX = ("broadcast", "convergecast", "dfs", "mst_ghs", "mst_fast",
          "global_fn(slt)")


def timed_cell(cell: Any) -> tuple[dict, float]:
    """Pool cell: one chaos cell and the seconds it took in the worker."""
    from repro.experiments.parallel import run_chaos_cell

    t0 = clock()
    row = run_chaos_cell(cell)
    return row, clock() - t0


def worker_pid(_: object) -> int:
    """Pool cell that only says which worker ran it."""
    return os.getpid()


def setup(ctx: Ctx) -> dict:
    import repro.replay  # noqa: F401  (its chaos case registers before the pool forks)
    from repro.experiments import parallel

    size = SIZES[ctx.size]
    fault_seed = derive(ctx.seed, "faults") % 1_000_000
    shapes = [(size["n"], size["extra"], derive(ctx.seed, "graph", i) % 1_000_000)
              for i in range(size["shapes"])]
    cells = {
        graph_seed: [
            c
            for trace in (False, True)
            for c in parallel.chaos_cells(n=n, extra_edges=extra,
                                          graph_seed=graph_seed,
                                          fault_seed=fault_seed,
                                          protocols=MATRIX, trace=trace)
        ]
        for n, extra, graph_seed in shapes
    }
    warm = tuple((n, extra, gs, MATRIX) for n, extra, gs in shapes)
    # Start the pool and return once every worker has run its warm
    # initializer (a worker takes cells only after it).
    answered: set[int] = set()
    while len(answered) < ctx.jobs:
        answered.update(parallel.run_parallel(
            worker_pid, range(4 * ctx.jobs), jobs=ctx.jobs, warm=warm,
            force="pool", chunksize=1))
    return {"shapes": shapes, "cells": cells, "warm": warm,
            "fault_seed": fault_seed}


def teardown(state: dict) -> None:
    from repro.experiments.parallel import shutdown_pool

    shutdown_pool()


def _sweep(ctx: Ctx, state: dict, graph_seed: int) -> tuple[list, float]:
    from repro.experiments import parallel

    t0 = clock()
    out = parallel.run_parallel(timed_cell, state["cells"][graph_seed],
                                jobs=ctx.jobs, warm=state["warm"])
    return out, clock() - t0


def run(ctx: Ctx) -> Outcome:
    out = Outcome()
    if ctx.trace:
        state = setup(ctx)
        try:
            _traced(ctx, state, out)
        finally:
            teardown(state)
        return out
    ref = ParallelReference(ctx.jobs)
    try:
        state = setup(ctx)
        try:
            pooled, cell_t, rounds, busy = _timed(ctx, state, ref)
        finally:
            teardown(state)
    finally:
        ref.close()
    rss = peak_rss_mb()
    _check(ctx, state, pooled, out)
    out.info.update({"rounds": rounds, "busy_s": busy})
    # The slowest cells are a few types on a few of the seed's graphs, so
    # a pooled tail jumps with the seed: combine each protocol's tail.  A
    # protocol has about 120 untraced cells in a run, so its tail is the
    # 90th percentile, which has more than ten cells beyond it.
    by_protocol: dict[str, list[float]] = {}
    for (protocol, _, _), xs in cell_t[False].items():
        by_protocol.setdefault(protocol, []).extend(xs)
    finish_untraced(ctx, out, {
        "msgs_per_s": median([t["msgs"] / t["busy"] for t in rounds]),
        "cells_per_s": median([t["cells"] / t["busy"] for t in rounds]),
        "sources_per_s": median([t["rooted"] / t["busy"] for t in rounds]),
        # Operations per second of sweep time, checks excluded as in
        # cells_per_s: the checks run after the timed rounds.
        "rps": median([t["cells"] / t["busy"] for t in rounds]),
        "hit_p50_ms": 1e3 * typed_median(cell_t[False]),
        "hit_p99_ms": 1e3 * geomean([percentile(xs, 0.9)
                                     for xs in by_protocol.values()]),
        "miss_p50_ms": 1e3 * typed_median(cell_t[True]),
    }, rss)
    return out


def _timed(ctx: Ctx, state: dict, ref: ParallelReference) -> tuple:
    """Whole rounds of sweeps: the pooled rows per shape, the scaled
    in-worker cell times by cell type, the rounds, the raw busy time."""
    pooled: dict[int, list] = {}
    # In-worker cell times by cell type, untraced and traced.
    cell_t: dict[bool, dict[tuple, list[float]]] = {False: {}, True: {}}
    rounds: list[dict] = []
    busy = 0.0
    while busy < ctx.seconds:
        speed = HostSpeed(ref.sample)
        tally = {"busy": 0.0, "cells": 0, "rooted": 0, "msgs": 0}
        timed = []
        for _, _, graph_seed in state["shapes"]:
            speed.sample()  # between sweeps, while the workers are idle
            results, dt = _sweep(ctx, state, graph_seed)
            busy += dt
            tally["busy"] += dt
            timed.append((graph_seed, results))
            pooled.setdefault(graph_seed, []).append([row for row, _ in results])
        speed.sample()
        scale = tally["scale"] = speed.scale()
        tally["busy"] *= scale
        for graph_seed, results in timed:
            for cell, (row, cell_dt) in zip(state["cells"][graph_seed], results):
                kind = (cell.protocol, cell.drop, cell.reliable)
                cell_t[cell.trace].setdefault(kind, []).append(cell_dt * scale)
                tally["msgs"] += row["messages"] or 0
                tally["rooted"] += cell.protocol in ROOTED
                tally["cells"] += 1
        rounds.append(tally)
    return pooled, cell_t, rounds, busy


def _digest(answer: Any) -> str:
    return hashlib.sha256(repr(answer).encode()).hexdigest()[:16]


def _oracle_ok(case: Any, answer: Any) -> bool:
    """The fault-free answer, checked against this file's own oracles."""
    g = case.graph
    n = g.num_vertices
    if case.name in ("mst_ghs", "mst_fast"):
        edges = [(int(a), int(b)) for a, b in answer]
        return (len(edges) == n - 1
                and sum(g.weight(a, b) for a, b in edges) == mst_weight(g))
    if case.name == "broadcast":
        return len(answer) == n and all(p == "chaos-payload" for _, p in answer)
    if case.name == "dfs":
        parents = {int(v): (None if p == "None" else int(p)) for v, p in answer}
        roots = [v for v, p in parents.items() if p is None]
        if len(parents) != n or len(roots) != 1:
            return False
        for v in parents:  # every parent chain reaches the root
            seen = set()
            while parents[v] is not None and v not in seen:
                seen.add(v)
                if not g.has_edge(v, parents[v]):
                    return False
                v = parents[v]
            if v != roots[0]:
                return False
        return True
    if case.name == "convergecast":
        return answer == n
    if case.name == "global_fn(slt)":
        return len(answer) == n and all(r == n for _, r in answer)
    return False


def _check(ctx: Ctx, state: dict, pooled: dict[int, list], out: Outcome) -> None:
    from repro.experiments.chaos import make_cases
    from repro.experiments.parallel import run_chaos_cell
    from repro.faults import run_chaos

    for n, extra, graph_seed in state["shapes"]:
        sweeps = pooled.get(graph_seed)
        if not sweeps:
            continue
        cells = state["cells"][graph_seed]
        expect = {}
        for case in make_cases(n, extra, graph_seed):
            if case.name not in MATRIX:
                continue
            ref = run_chaos(case.graph, case.factory, plan=None, reliable=False,
                            answer=case.answer)
            out.check(ref.status == "ok" and _oracle_ok(case, ref.answer),
                      f"fault-free {case.name} on graph {graph_seed} fails its oracle")
            expect[case.name] = _digest(ref.answer)
        if ctx.plant:
            expect[cells[0].protocol] = "0" * 16
        serial = [run_chaos_cell(c) for c in cells]
        for rows in sweeps:
            for cell, row, ref_row in zip(cells, rows, serial):
                ok = row == ref_row and row["status"] != "wrong"
                if cell.reliable:
                    ok = ok and row["status"] == "ok" and (
                        row["answer_digest"] == expect.get(cell.protocol))
                out.op(ok, f"{cell.protocol} drop={cell.drop} "
                           f"reliable={cell.reliable} trace={cell.trace}: "
                           f"status {row['status']}")


def _traced(ctx: Ctx, state: dict, out: Outcome) -> None:
    from .ledger import LEDGER, install

    graph_seeds = [gs for _, _, gs in state["shapes"]]
    pooled: dict[int, list] = {}
    t0 = clock()
    for gs in graph_seeds:
        pooled.setdefault(gs, []).append([r for r, _ in _sweep(ctx, state, gs)[0]])
    untraced_wall = clock() - t0
    LEDGER.drain()
    install()
    t0 = clock()
    for gs in graph_seeds:
        pooled[gs].append([r for r, _ in _sweep(ctx, state, gs)[0]])
    wall = clock() - t0
    lanes = timed_first(LEDGER.lane_data(), ("MainThread",))
    _check(ctx, state, pooled, out)
    out.info.update({"untraced_wall_s": untraced_wall})
    finish_traced(ctx, out, lanes, timed=1, wall=wall,
                  untraced_wall=untraced_wall, extra={})
