"""Multiprocessing sweep engine: shard experiment cells across workers.

Experiment sweeps are embarrassingly parallel — every *cell* (one
(graph, seed, protocol) combination) is an independent simulation — but the
serial runners execute them one at a time.  This module provides the
machinery to shard cells across a process pool while keeping the two
properties the test-suite pins down:

**Determinism.**  A cell's outcome depends only on the cell description,
never on which worker ran it or in what order: cell descriptions (a chaos
cell is a :class:`~repro.experiments.chaos.RunSpec`) are immutable, carry
every seed explicitly, and :func:`cell_seed` derives
per-cell seeds by hashing the cell key with SHA-256 (stable across
processes and interpreter runs, unlike ``hash()`` under hash
randomization).  ``run_parallel`` returns results in cell order
regardless of completion order, so a parallel sweep merges to exactly the
serial table.

**Picklability.**  Full :class:`~repro.faults.runner.ChaosOutcome` objects
hold live process graphs (closures, bound methods) and cannot cross a
process boundary, so workers return flat summary rows
(:func:`run_chaos_cell`) containing only primitives.  The serial
path (``jobs=None``/``1``) runs the same worker in-process, so serial and
parallel sweeps produce byte-identical row lists.

**Amortization.**  Four layers keep per-cell overhead flat:

* one worker pool per ``(jobs, kernel backend)`` is *persistent*: the
  first parallel call creates it and every later call reuses it, whatever
  graph shapes or snapshots it sweeps, so pool spin-up (fork +
  interpreter init per worker) is paid once per session
  (``shutdown_pool`` disposes it; an ``atexit`` hook does so at
  interpreter exit).  Callers in several threads share it: creation and
  disposal take a lock, and a caller whose map broke disposes the pool
  only while it is still the live one;
* workers simulate nothing outside their cells: the dispatching process
  computes each *warm spec*'s fault-free references once — one
  ``(n, extra_edges, graph_seed, protocols)`` tuple per graph shape in
  the sweep — and every pool task carries those compact ``(answer, time,
  comm_cost)`` summaries into the worker's memo; the case suite and
  anything not warmed are memoized per process on first use by
  :mod:`repro.experiments.chaos`;
* a snapshot sweep dispatches *blocks*, not rows: each pool task is one
  :class:`SnapshotBlock`, a vertex or source range (a serial sweep is
  one block), and the process running it attaches the snapshot once
  (:func:`repro.graphs.shm.attach`, whose per-process cache holds a
  bounded number of attachments) and calls the kernel once per cell, so
  no process builds, pickles or attaches anything per row;
* :func:`parallel_plan` picks the execution mode: serial when the pool
  cannot pay for itself (``jobs <= 1``, a single cell, fewer than two
  usable CPUs, or too few cells per worker), otherwise a chunksize sized
  for ~4 dispatch waves per worker — big enough to amortize pickling,
  small enough to keep workers balanced on skewed cell costs.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING, Any, TypeVar

# Bound here under their own names, so that a wrapper rebinding each
# module's same-named attribute (perfbench's ledger) sees every call.
from ..graphs import shm
from ..graphs.csr import flat_source_stats, flat_stripe_stats
from ..graphs.npkernels import (
    kernel_backend,
    np_flat_source_stats,
    numpy_available,
    set_kernel_backend,
)

if TYPE_CHECKING:
    from ..graphs.shm import SnapshotHandle
    from .chaos import RunSpec

__all__ = [
    "cell_seed",
    "parallel_plan",
    "run_parallel",
    "shutdown_pool",
    "chaos_cells",
    "run_chaos_cell",
    "chaos_rows",
    "run_experiment_by_key",
    "SnapshotBlock",
    "snapshot_rows",
    "pool_shm_stats",
]

_T = TypeVar("_T")
_R = TypeVar("_R")


def cell_seed(master_seed: int, *key: Any) -> int:
    """A deterministic 63-bit seed for the sweep cell identified by ``key``.

    Derived by hashing ``(master_seed, *key)`` with SHA-256, so it is
    stable across processes, platforms, and ``PYTHONHASHSEED`` values —
    the properties Python's built-in ``hash()`` lacks.  Distinct cells get
    (overwhelmingly likely) distinct, uncorrelated seeds, which is what a
    sweep needs to vary randomness *between* cells while keeping every
    cell individually reproducible.
    """
    digest = hashlib.sha256(repr((master_seed,) + key).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# Target number of map dispatch waves per worker when auto-chunking.
_CHUNK_WAVES = 4

# A pool only pays for itself when every worker gets at least this many
# cells; below that, fork + pickle overhead beats the parallel win.
_MIN_CELLS_PER_WORKER = 2

# The one live pool and the (jobs, kernel backend) key that built it.
# ``_pool_lock`` guards both: threads that dispatch at once (a service's
# cold requests) must create one pool, and never dispose another's.
_pool: ProcessPoolExecutor | None = None
_pool_key: tuple | None = None
_pool_lock = threading.Lock()
_atexit_registered = False


def parallel_plan(
    n_cells: int,
    jobs: int | None,
    *,
    cpu_count: int | None = None,
) -> tuple[str, int]:
    """Decide how to run ``n_cells``: ``("serial", 1)`` or ``("pool", chunksize)``.

    Pure and deterministic given its inputs (``cpu_count`` defaults to
    ``os.cpu_count()``), so the fallback policy is unit-testable without
    spawning processes.  Serial is chosen whenever the pool cannot pay for
    its spin-up: ``jobs`` unset or <= 1, a single cell, fewer than two
    usable CPUs, or fewer than ``_MIN_CELLS_PER_WORKER`` cells per worker.
    Otherwise the chunksize targets ~``_CHUNK_WAVES`` dispatch waves per
    worker.
    """
    if jobs is None or jobs <= 1 or n_cells <= 1:
        return ("serial", 1)
    cpus = cpu_count if cpu_count is not None else (os.cpu_count() or 1)
    if cpus < 2:
        return ("serial", 1)
    if n_cells < _MIN_CELLS_PER_WORKER * jobs:
        return ("serial", 1)
    return ("pool", max(1, n_cells // (jobs * _CHUNK_WAVES)))


def _worker_init(backend: str) -> None:
    """Per-worker initializer: pin the kernel backend the parent resolved.

    Every worker then computes graph parameters through the same kernels
    as a serial run — one leg of the serial == pool byte-identity
    contract.  (The kernels are value-identical anyway; pinning makes the
    guarantee structural rather than incidental.)  It runs no simulation
    and attaches no snapshot: a pool task carries the fault-free
    references its cells need, and a snapshot block attaches its
    snapshot.
    """
    set_kernel_backend(backend)


def shutdown_pool() -> None:
    """Dispose the persistent worker pool (no-op when none is live).

    Tests use this to force a fresh pool; an ``atexit`` hook calls it so
    interpreter shutdown never hangs on live workers.
    """
    _dispose_pool()
    # Workers are gone, so nothing maps the published graph segments any
    # more: unlink them all.  (Internal pool disposals use _dispose_pool
    # directly: a backend change or a broken pool must not unlink
    # segments a sweep is still reading.)
    shm.unlink_all()


def _dispose_pool(pool: ProcessPoolExecutor | None = None) -> None:
    """Dispose the live pool; given ``pool``, only while it is still live.

    A caller whose map broke passes the pool it mapped over: another
    thread may already have replaced it, and the replacement serves maps
    that must not be cancelled.
    """
    global _pool, _pool_key
    with _pool_lock:
        if _pool is None or (pool is not None and pool is not _pool):
            return
        live, _pool, _pool_key = _pool, None, None
    _shutdown(live)


def _shutdown(pool: ProcessPoolExecutor) -> None:
    """Shut ``pool`` down and reap every worker it started.

    When one of a map's futures fails with ``BrokenProcessPool``, the map
    cancels the others while the pool's manager thread is still failing
    them.  On Python 3.10 and 3.11 that thread then dies of
    ``InvalidStateError`` before it terminates the surviving workers,
    which would outlive the pool and keep the interpreter from exiting.
    So the workers are noted first, and any still alive after the
    shutdown are terminated and joined here.
    """
    workers = list((pool._processes or {}).values())
    pool.shutdown(wait=True, cancel_futures=True)
    for proc in workers:
        if proc.is_alive():
            proc.terminate()
        proc.join()


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """The persistent pool for ``(jobs, kernel backend)``: the only
    state its workers depend on."""
    global _pool, _pool_key, _atexit_registered
    backend = kernel_backend()
    key = (jobs, backend)
    stale = None
    with _pool_lock:
        if _pool is not None and _pool_key != key:
            stale, _pool = _pool, None
        if _pool is None:
            _pool = ProcessPoolExecutor(max_workers=jobs,
                                        initializer=_worker_init,
                                        initargs=(backend,))
            _pool_key = key
            if not _atexit_registered:
                atexit.register(shutdown_pool)
                _atexit_registered = True
        pool = _pool
    if stale is not None:
        _shutdown(stale)
    return pool


def _task_plan(
    n_cells: int,
    jobs: int | None,
    force: str | None,
    batch: int | None,
    chunksize: int | None,
) -> tuple[int, int]:
    """``(workers, cells per pool task)`` for a map of ``n_cells``, as
    :func:`run_parallel` documents its options; ``(0, n_cells)`` when the
    map runs serially."""
    if force not in (None, "serial", "pool"):
        raise ValueError(f"force must be None, 'serial', or 'pool': {force!r}")
    if force == "pool":
        workers = jobs if jobs and jobs > 1 else 2
        auto_chunk = max(1, n_cells // (workers * _CHUNK_WAVES))
    else:
        mode, auto_chunk = parallel_plan(n_cells, jobs)
        if force == "serial" or mode == "serial":
            return 0, n_cells
        workers = jobs or 0
    return workers, max(batch or 1, chunksize or auto_chunk)


def _run_task(task: tuple) -> list:
    """Run one pool task ``(fn, group, references)`` in a worker: seed the
    worker's reference memo, then map ``fn`` over the group's cells."""
    fn, group, references = task
    if references:
        from .chaos import _seed_references

        _seed_references(references)
    return [fn(c) for c in group]


def run_parallel(
    fn: Callable[[_T], _R],
    cells: Iterable[_T],
    *,
    jobs: int | None = None,
    chunksize: int | None = None,
    warm: tuple = (),
    force: str | None = None,
    batch: int | None = None,
) -> list[_R]:
    """Map ``fn`` over ``cells``, sharding across the persistent pool.

    ``jobs=None``/``0``/``1`` runs serially in-process (no pool, no
    pickling) — the reference path the parallel one must match.  With
    ``jobs > 1`` the :func:`parallel_plan` policy decides whether a pool
    can pay for itself; when it can, cells are sharded across the
    persistent ``jobs``-worker pool (created on first use, reused by
    every later call with the same ``jobs`` and kernel backend).  ``fn``
    and each cell must then be picklable (module-level function, frozen
    dataclass cells).  Results always come back in cell order, so
    callers can merge by concatenation.

    Each pool task is a group of cells.  A group holds ``chunksize``
    cells (``None``: the plan's adaptive chunksize), and at least
    ``batch`` when that is set, so huge sweeps of cheap cells pay one
    pickle round-trip per group; serial runs ignore both.
    :func:`snapshot_rows` sizes its blocks by this same plan and maps
    them one block per task, so a snapshot sweep's cells are never
    pickled one by one.  ``warm``
    names the chaos references the cells need, as ``(n, extra_edges,
    graph_seed, protocols)`` specs (``protocols=None``: the matrix
    cases).  This process computes them once, through the memo of
    :mod:`repro.experiments.chaos`, and every task carries them, so no
    worker simulates anything outside its cells.

    ``force`` overrides the plan: ``"serial"`` never touches a pool,
    ``"pool"`` shards even when the plan would fall back (the serve
    executor uses it to keep every cold request out of its process;
    benchmarks and tests, to exercise the real pool path regardless of
    host CPU count).  If the pool's workers die mid-map
    (``BrokenProcessPool``), the pool alone is disposed, unless another
    caller has replaced it already — published snapshots stay — and the
    whole map re-runs serially; cells are pure functions of their
    description, so a re-run is byte-identical.
    """
    cells = list(cells)
    workers, size = _task_plan(len(cells), jobs, force, batch, chunksize)
    if not workers:
        return [fn(c) for c in cells]
    references: dict = {}
    if warm:
        from .chaos import _warm_references

        references = _warm_references(warm)
    tasks = [(fn, cells[i:i + size], references)
             for i in range(0, len(cells), size)]
    pool = _get_pool(workers)
    try:
        return [row for rows in pool.map(_run_task, tasks) for row in rows]
    except BrokenProcessPool:
        _dispose_pool(pool)
        return [fn(c) for c in cells]


# --------------------------------------------------------------------- #
# Chaos-matrix sharding
# --------------------------------------------------------------------- #


def chaos_cells(
    *,
    n: int = 14,
    extra_edges: int = 20,
    graph_seed: int = 2,
    drop_rates: Sequence[float] = (0.0, 0.05, 0.2),
    fault_seed: int = 7,
    include_raw: bool = True,
    protocols: Sequence[str] | None = None,
    trace: bool = False,
    race_detect: bool = False,
) -> list[RunSpec]:
    """The cell list of a chaos sweep, in serial-matrix row order.

    A positive drop rate becomes ``FaultPlan.message_loss(rate,
    seed=fault_seed)``; ``trace=True`` becomes ``limit=0`` (rows carry an
    aggregates-only trace summary); ``protocols=None`` sweeps the matrix
    cases.
    """
    from ..faults import FaultPlan
    from .chaos import MATRIX, RunSpec

    cells = []
    for name in MATRIX if protocols is None else protocols:
        for rate in drop_rates:
            plan = (FaultPlan.message_loss(rate, seed=fault_seed)
                    if rate > 0 else None)
            modes = [True] + ([False] if include_raw and rate > 0 else [])
            for reliable in modes:
                cells.append(RunSpec(name, n, extra_edges, graph_seed,
                                     reliable=reliable, plan=plan,
                                     limit=0 if trace else None,
                                     race=race_detect))
    return cells


def _summarize(protocol: str, drop: float, reliable: bool,
               outcome, ff_cost: float) -> dict:
    """Flatten one outcome to primitives (identical serial vs. parallel)."""
    result = outcome.result
    answer_digest = hashlib.sha256(
        repr(outcome.answer).encode()
    ).hexdigest()[:16] if outcome.answer is not None else None
    return {
        "protocol": protocol,
        "drop": drop,
        "reliable": reliable,
        "status": outcome.status,
        "comm_cost": result.comm_cost if result else None,
        "time": result.time if result else None,
        "messages": result.message_count if result else None,
        "retry_count": outcome.retry_count,
        "retry_cost": outcome.retry_cost,
        "ack_cost": outcome.ack_cost,
        "ff_cost": ff_cost,
        "overhead_ratio": outcome.retry_cost / ff_cost if ff_cost else 0.0,
        "answer_digest": answer_digest,
    }


def run_chaos_cell(spec: RunSpec) -> dict:
    """Execute one chaos cell and return its flat summary row.

    Module-level and closed over nothing, so it shards cleanly across a
    process pool; the expensive shared state (case suite, fault-free
    reference) comes from the per-process memos behind
    :func:`~repro.experiments.chaos.run_spec`, which a pool task seeds
    with the references its dispatcher computed.  A traced spec (``limit``
    set) runs under an aggregates-only recorder and its row gains a
    ``"trace"`` summary; ``race`` runs the race detector in ``"raise"``
    mode, so a violation surfaces as status ``"error"``.
    """
    from .chaos import run_spec

    recorder = None
    if spec.trace:
        # Aggregate-only recorder (limit=0): the per-span breakdown ships
        # back as plain primitives without hauling event logs over IPC.
        from ..obs import TraceRecorder

        recorder = TraceRecorder(limit=0)
    outcome, ff_cost = run_spec(spec, recorder=recorder,
                                race_detect=spec.race)
    row = _summarize(spec.protocol, spec.drop, spec.reliable, outcome,
                     ff_cost)
    if spec.trace and outcome.trace is not None:
        # Added only when tracing, so untraced rows keep their exact
        # historical shape (serial == pool byte-identity tests).
        row["trace"] = outcome.trace.as_dict()
    return row


def chaos_rows(
    *,
    jobs: int | None = None,
    n: int = 14,
    extra_edges: int = 20,
    graph_seed: int = 2,
    drop_rates: Sequence[float] = (0.0, 0.05, 0.2),
    fault_seed: int = 7,
    include_raw: bool = True,
    force: str | None = None,
    trace: bool = False,
    race_detect: bool = False,
) -> list[dict]:
    """The chaos matrix as flat summary rows, optionally sharded.

    Serial (``jobs<=1``) and parallel runs return byte-identical lists:
    the same cells, executed by the same worker function, merged in the
    same order.  This process computes the sweep's fault-free references
    once and the pool tasks carry them, so no worker runs one; ``force``
    passes through to :func:`run_parallel`.  ``trace=True`` adds a
    ``"trace"`` per-span summary dict to every row (identical serial vs.
    pool — the recorder travels inside the cell, not via ambient state).
    ``race_detect=True`` runs every cell under the shared-state race
    detector; clean protocols produce identical rows either way.
    """
    cells = chaos_cells(n=n, extra_edges=extra_edges, graph_seed=graph_seed,
                        drop_rates=drop_rates, fault_seed=fault_seed,
                        include_raw=include_raw, trace=trace,
                        race_detect=race_detect)
    warm = ((n, extra_edges, graph_seed, None),)
    return run_parallel(run_chaos_cell, cells, jobs=jobs, warm=warm,
                        force=force)


# --------------------------------------------------------------------- #
# Snapshot sweeps: blocks of cells over a published shared-memory graph
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SnapshotBlock:
    """One dispatched unit of a sweep over a published graph snapshot.

    A block covers the vertices (``kind="stripe"``) or sources
    (``kind="sources"``) ``lo..hi-1`` and is cut into cells of
    ``cell_size`` of them; each cell gives one row.  It carries the
    :class:`~repro.graphs.shm.SnapshotHandle` itself, a frozen dataclass
    of primitives, so a block pickles in O(1) whatever the graph's size
    or the block's length.  The block is attached once, through the
    process-local attachment cache, and no cell copies or rebuilds graph
    buffers.

    A stripe cell computes O(deg) adjacency stats; a source cell runs one
    SSSP per source.  ``kernel`` pins the source kernel (``"python"`` or
    ``"numpy"``), resolved once in the dispatching process, so serial and
    pooled sweeps run the same kernel.  A numpy pin still runs the Python
    kernel on graphs of at most ``_PY_SOURCES_MAX_M2`` directed edges;
    that rule depends only on the pin and the graph, so it is the same
    for every cell.
    """

    handle: SnapshotHandle
    kind: str
    lo: int
    hi: int
    cell_size: int
    kernel: str


#: Numpy-pinned source cells on graphs with at most this many directed
#: edges run the Python heap kernel: there NumPy's fixed cost per call
#: outweighs the vectorized relaxation (measured in docs/PERF.md,
#: "Snapshot source sweeps").  Both kernels return identical rows.
_PY_SOURCES_MAX_M2 = 512


def _run_snapshot_block(block: SnapshotBlock) -> list[dict]:
    """Attach ``block``'s snapshot once, then run its kernel on each cell.

    :func:`~repro.graphs.shm.attach` resolves the handle zero-copy from
    the process's attachment cache (or the segment itself on a cold
    process; or a spec rebuild when shared memory is unavailable).  Both
    source kernels return the same row shape with a byte-identity digest,
    so serial == pool comparisons are plain ``==`` on row lists.
    """
    flat = shm.attach(block.handle)
    if block.kind == "stripe":
        kernel = flat_stripe_stats
    elif (block.kernel == "numpy" and numpy_available()
            and flat.m2 > _PY_SOURCES_MAX_M2):
        kernel = np_flat_source_stats
    else:
        kernel = flat_source_stats
    step, hi = block.cell_size, block.hi
    return [kernel(flat, lo, min(lo + step, hi))
            for lo in range(block.lo, hi, step)]


def snapshot_rows(
    handle: SnapshotHandle,
    *,
    jobs: int | None = None,
    kind: str = "sources",
    limit: int | None = None,
    cell_size: int = 1,
    kernel: str | None = None,
    force: str | None = None,
    batch: int | None = None,
    chunksize: int | None = None,
) -> list[dict]:
    """Sweep a published snapshot, optionally sharded; a row per cell, in order.

    ``limit`` caps how many vertices (``"stripe"``) or sources
    (``"sources"``) the sweep covers (big-tier runs sample a prefix), and
    each cell holds ``cell_size`` of them.  ``kernel=None`` resolves the
    ambient backend once, here (see :class:`SnapshotBlock`).

    The cell count chooses serial or pool as in :func:`run_parallel`,
    and ``jobs``, ``force``, ``batch`` and ``chunksize`` keep their
    meaning there: ``batch`` and ``chunksize`` count cells per pool task.
    Each task is one :class:`SnapshotBlock` of that many cells; a serial
    sweep is one block.  A process attaches the segment once per block
    and runs every cell zero-copy against it: exactly one graph build per
    sweep, which :func:`pool_shm_stats` lets callers assert.  The pool is
    the one every sweep shares, so a new handle needs no new workers.
    Serial and pooled row lists are byte-identical.
    """
    if kind not in ("stripe", "sources"):
        raise ValueError(f"kind must be 'stripe' or 'sources': {kind!r}")
    if cell_size < 1:
        raise ValueError(f"cell_size must be >= 1: {cell_size}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0: {limit}")
    if kernel is None:
        kernel = kernel_backend()
    count = handle.n if limit is None else min(limit, handle.n)
    workers, size = _task_plan(-(-count // cell_size), jobs, force, batch,
                               chunksize)
    span = max(1, size) * cell_size
    blocks = [SnapshotBlock(handle, kind, lo, min(lo + span, count),
                            cell_size, kernel)
              for lo in range(0, count, span)]
    rows = run_parallel(_run_snapshot_block, blocks, jobs=workers,
                        force="pool" if workers else "serial", chunksize=1)
    return [row for block in rows for row in block]


def _probe_shm_stats(handles: tuple) -> dict:
    """Worker-side probe: attach ``handles``, then report this process's
    shm counters, keyed by pid."""
    for handle in handles:
        shm.attach(handle)
    return {"pid": os.getpid(), **shm.stats()}


def pool_shm_stats(
    jobs: int | None = None,
    *,
    snapshots: tuple = (),
) -> list[dict]:
    """Per-worker shared-memory counters from the live pool, one dict per pid.

    Dispatches a wave of probe cells with ``chunksize=1`` so every worker
    (very likely) answers at least once, then dedups by pid.  Each probe
    first attaches ``snapshots`` (a no-op where the worker already holds
    them), so a probe at setup maps the segments before a timed sweep.
    This is how the acceptance criterion "one graph build per sweep" is
    *measured*: after an shm-backed sweep, every worker reports
    ``shm_creates == 0`` (only the parent creates) and the rebuild counter
    stays zero.
    """
    workers = jobs if jobs and jobs > 1 else 2
    rows = run_parallel(_probe_shm_stats, [tuple(snapshots)] * (workers * 4),
                        jobs=workers, force="pool", chunksize=1)
    by_pid = {row["pid"]: row for row in reversed(rows)}  # first answers
    return [by_pid[pid] for pid in sorted(by_pid)]


# --------------------------------------------------------------------- #
# Whole-experiment sharding (the CLI's --jobs)
# --------------------------------------------------------------------- #


def run_experiment_by_key(key: str) -> tuple[str, str, float, list]:
    """Run one registered experiment; return ``(key, desc, secs, tables)``.

    The coarse sharding unit for ``python -m repro.experiments --jobs N``:
    whole experiments are independent, and their :class:`Table` outputs
    contain only primitives, so they pickle cleanly back to the parent.
    """
    from .base import all_experiments

    desc, fn = all_experiments()[key]
    start = time.perf_counter()  # repro: allow RS003 -- harness wall-time, not simulation state
    tables = fn()
    elapsed = time.perf_counter() - start  # repro: allow RS003 -- harness wall-time
    return key, desc, elapsed, tables
