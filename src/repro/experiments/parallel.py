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

**Amortization.**  Three layers keep per-cell overhead flat:

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
  :mod:`repro.experiments.chaos`, and a snapshot is attached by the
  first cell that names it (:func:`repro.graphs.shm.attach`, whose
  per-process cache holds a bounded number of attachments);
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
import sys
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from typing import TYPE_CHECKING, Any, TypeVar

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
    "SnapshotCell",
    "snapshot_cells",
    "run_snapshot_cell",
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


def _worker_init(kernel_backend: str) -> None:
    """Per-worker initializer: pin the kernel backend the parent resolved.

    Every worker then computes graph parameters through the same kernels
    as a serial run — one leg of the serial == pool byte-identity
    contract.  (The kernels are value-identical anyway; pinning makes the
    guarantee structural rather than incidental.)  It runs no simulation
    and attaches no snapshot: a pool task carries the fault-free
    references its cells need, and a cell attaches its snapshot on first
    use.
    """
    from ..graphs.npkernels import set_kernel_backend

    set_kernel_backend(kernel_backend)


def shutdown_pool() -> None:
    """Dispose the persistent worker pool (no-op when none is live).

    Tests use this to force a fresh pool; an ``atexit`` hook calls it so
    interpreter shutdown never hangs on live workers.
    """
    _dispose_pool()
    # Workers are gone, so nothing maps the published graph segments any
    # more: unlink them all.  Guarded on the module being imported — a
    # process that never published has nothing to clean, and this also
    # runs from atexit where fresh imports are unwelcome.  (Internal pool
    # disposals use _dispose_pool directly: a backend change or a broken
    # pool must not unlink segments a sweep is still reading.)
    shm = sys.modules.get("repro.graphs.shm")
    if shm is not None:
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
    live.shutdown(wait=True, cancel_futures=True)


def _get_pool(jobs: int) -> ProcessPoolExecutor:
    """The persistent pool for ``(jobs, kernel backend)``: the only
    state its workers depend on."""
    global _pool, _pool_key, _atexit_registered
    from ..graphs.npkernels import kernel_backend

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
        stale.shutdown(wait=True, cancel_futures=True)
    return pool


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
    pickle round-trip per group; serial runs ignore both.  ``warm``
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
    if force not in (None, "serial", "pool"):
        raise ValueError(f"force must be None, 'serial', or 'pool': {force!r}")
    if force == "pool":
        workers = jobs if jobs and jobs > 1 else 2
        mode, auto_chunk = "pool", max(1, len(cells) // (workers * _CHUNK_WAVES))
    else:
        workers = jobs or 0
        mode, auto_chunk = parallel_plan(len(cells), jobs)
    if force == "serial" or mode == "serial":
        return [fn(c) for c in cells]
    size = max(batch or 1, chunksize or auto_chunk)
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
# Snapshot sweeps: zero-copy cells over a published shared-memory graph
# --------------------------------------------------------------------- #


@dataclass(frozen=True)
class SnapshotCell:
    """One cell of a sweep over a published graph snapshot.

    Carries the :class:`~repro.graphs.shm.SnapshotHandle` itself —
    handles are frozen dataclasses of primitives, so the cell pickles in
    O(1) regardless of graph size; the worker resolves it through its
    process-local attachment cache (the first cell to name a handle maps
    the segment, later ones reuse the mapping), so no cell ever copies or
    rebuilds graph buffers.

    ``kind`` selects the kernel: ``"stripe"`` computes O(deg) local
    adjacency stats for vertices ``lo..hi-1`` (pure snapshot-read cells —
    the acceptance sweep's shape), ``"sources"`` runs per-source SSSP
    aggregates for sources ``lo..hi-1``.  ``kernel`` pins the backend for
    ``"sources"`` cells (``"python"`` or ``"numpy"``); it is resolved at
    *cell-creation* time so serial and pooled executions of the same cell
    list are structurally guaranteed to run the same kernel.  A numpy
    pin still runs the Python kernel on graphs of at most
    ``_PY_SOURCES_MAX_M2`` directed edges; that rule depends only on the
    pin and the graph, so it too is fixed per cell.
    """

    handle: SnapshotHandle
    kind: str
    lo: int
    hi: int
    kernel: str


def snapshot_cells(
    handle: SnapshotHandle,
    *,
    kind: str = "sources",
    limit: int | None = None,
    cell_size: int = 1,
    kernel: str | None = None,
) -> list[SnapshotCell]:
    """The cell list of a snapshot sweep, in vertex/source order.

    ``limit`` caps how many vertices (``"stripe"``) or sources
    (``"sources"``) the sweep covers — big-tier runs sample a prefix
    rather than all ``n``.  ``cell_size`` vertices/sources go into each
    cell.  ``kernel=None`` resolves the ambient backend once, here, so
    the cells carry it explicitly (see :class:`SnapshotCell`).
    """
    if kind not in ("stripe", "sources"):
        raise ValueError(f"kind must be 'stripe' or 'sources': {kind!r}")
    if cell_size < 1:
        raise ValueError(f"cell_size must be >= 1: {cell_size}")
    if limit is not None and limit < 0:
        raise ValueError(f"limit must be >= 0: {limit}")
    if kernel is None:
        from ..graphs.npkernels import kernel_backend

        kernel = kernel_backend()
    count = handle.n if limit is None else min(limit, handle.n)
    return [
        SnapshotCell(handle, kind, lo, min(lo + cell_size, count), kernel)
        for lo in range(0, count, cell_size)
    ]


#: Numpy-pinned source cells on graphs with at most this many directed
#: edges run the Python heap kernel: there NumPy's fixed cost per call
#: outweighs the vectorized relaxation (measured in docs/PERF.md,
#: "Snapshot source sweeps").  Both kernels return identical rows.
_PY_SOURCES_MAX_M2 = 512


def run_snapshot_cell(cell: SnapshotCell) -> dict:
    """Execute one snapshot cell against the attached shared segment.

    :func:`~repro.graphs.shm.attach` resolves the handle zero-copy from
    the worker's attachment cache (or the segment itself on a cold
    process; or a spec rebuild when shared memory is unavailable — the
    graceful-degradation path).  Dispatches on the cell's pinned kind and
    kernel, and on the graph's size (``_PY_SOURCES_MAX_M2``); both
    kernels return the same row shape with a byte-identity digest, so
    serial == pool comparisons are plain ``==`` on row lists.
    """
    from ..graphs import shm
    from ..graphs.csr import flat_source_stats, flat_stripe_stats
    from ..graphs.npkernels import np_flat_source_stats, numpy_available

    flat = shm.attach(cell.handle)
    if cell.kind == "stripe":
        return flat_stripe_stats(flat, cell.lo, cell.hi)
    if (cell.kernel == "numpy" and numpy_available()
            and flat.m2 > _PY_SOURCES_MAX_M2):
        return np_flat_source_stats(flat, cell.lo, cell.hi)
    return flat_source_stats(flat, cell.lo, cell.hi)


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
    """Sweep a published snapshot, optionally sharded; rows in cell order.

    Each worker attaches the segment the first time one of its cells
    names the handle and runs every cell zero-copy against it — exactly
    one graph build per sweep, which :func:`pool_shm_stats` lets callers
    assert.  The pool is the one every sweep shares: a new handle needs
    no new workers.  Serial (``jobs<=1`` or ``force="serial"``) runs the
    same cells in-process against the same published flat, so serial and
    pool row lists are byte-identical.
    """
    cells = snapshot_cells(handle, kind=kind, limit=limit,
                           cell_size=cell_size, kernel=kernel)
    return run_parallel(run_snapshot_cell, cells, jobs=jobs, force=force,
                        batch=batch, chunksize=chunksize)


def _probe_shm_stats(handles: tuple) -> dict:
    """Worker-side probe: attach ``handles``, then report this process's
    shm counters, keyed by pid."""
    from ..graphs import shm

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
