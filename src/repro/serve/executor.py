"""Map a canonical request onto the existing sweep/replay engine.

This is the only serve module that touches the engine: everything above
it (addressing, store, single-flight) treats payloads as opaque.  All
execution goes through the same module-level cell workers the serial and
pooled sweeps share, so a served result is byte-identical to what a
direct :func:`~repro.experiments.parallel.chaos_rows` /
:func:`~repro.experiments.parallel.snapshot_rows` /
:func:`~repro.replay.record_run` call produces — the property that makes
the cache sound.

With a pool (``jobs > 1``) every request runs in its workers, one-cell
``chaos`` and ``trace`` requests included, so the calling process only
dispatches and waits: it never holds the interpreter lock for a
simulation.  A sweep's fault-free references are computed by one pool
cell first and then shipped with every task of the sweep, so no worker
simulates outside a cell it ran.  Without a pool the same cells run
in-process.

Small-cell batching: chaos sweeps with many cells are dispatched in
grouped batches (``run_parallel(..., batch=...)``), so a pooled request
pays one pickle round-trip per *group* rather than per cell.  A
snapshot request goes through ``snapshot_rows``, whose pool tasks are
blocks: one picklable vertex or source range each, attached once in the
worker, whatever its number of cells.
"""

from __future__ import annotations

import threading
from typing import TYPE_CHECKING, Any

from .address import RequestError

if TYPE_CHECKING:
    from ..experiments.chaos import RunSpec

__all__ = ["execute_request", "run_trace_cell", "BATCH_THRESHOLD", "BATCH_SIZE"]

# Grouped dispatch kicks in at this many cells; below it, per-cell
# dispatch balances better and pickling is already cheap.
BATCH_THRESHOLD = 64
BATCH_SIZE = 16


# Held while a snapshot request looks up or builds its graph: concurrent
# cold requests over one spec then build it once.
_snapshot_lock = threading.Lock()


def _auto_batch(n_cells: int) -> int | None:
    return BATCH_SIZE if n_cells >= BATCH_THRESHOLD else None


def _force(jobs: int | None) -> str | None:
    """``"pool"`` when the service has one, whatever the cell count:
    otherwise :func:`~repro.experiments.parallel.parallel_plan` would run
    small requests in the calling process."""
    return "pool" if jobs is not None and jobs > 1 else None


def _execute_sweep(canon: dict, jobs: int | None) -> list[dict]:
    from ..experiments.chaos import _seed_references, _warm_references
    from ..experiments.parallel import chaos_cells, run_chaos_cell, run_parallel

    cells = chaos_cells(
        n=canon["n"],
        extra_edges=canon["extra_edges"],
        graph_seed=canon["graph_seed"],
        drop_rates=tuple(canon["drop_rates"]),
        fault_seed=canon["fault_seed"],
        include_raw=canon["include_raw"],
        protocols=canon["protocols"],
        trace=canon["trace"],
        race_detect=canon["race_detect"],
    )
    warm = ((canon["n"], canon["extra_edges"], canon["graph_seed"],
             None if canon["protocols"] is None else tuple(canon["protocols"])),)
    force = _force(jobs)
    if force == "pool":
        # One pool cell computes the references.  Entered into this
        # process's memo, they are what warm= ships with every task, so
        # neither this process nor a worker runs one outside that cell.
        _seed_references(run_parallel(_warm_references, [warm], jobs=jobs,
                                      force=force)[0])
    return run_parallel(run_chaos_cell, cells, jobs=jobs, warm=warm,
                        force=force, batch=_auto_batch(len(cells)))


def _execute_chaos(canon: dict, jobs: int | None) -> dict:
    """One sweep cell: a positive ``drop`` becomes a message-loss plan
    seeded by ``fault_seed``, ``trace`` becomes ``limit=0``."""
    from ..experiments.chaos import RunSpec
    from ..experiments.parallel import run_chaos_cell, run_parallel
    from ..faults.plan import FaultPlan

    drop = canon["drop"]
    spec = RunSpec(
        canon["protocol"], canon["n"], canon["extra_edges"],
        canon["graph_seed"], reliable=canon["reliable"],
        plan=(FaultPlan.message_loss(drop, seed=canon["fault_seed"])
              if drop > 0 else None),
        limit=0 if canon["trace"] else None, race=canon["race_detect"],
    )
    return run_parallel(run_chaos_cell, [spec], jobs=jobs,
                        force=_force(jobs))[0]


def _execute_snapshot(canon: dict, jobs: int | None) -> list[dict]:
    """Publish the spec'd graph once and sweep its snapshot.

    A request over a spec this process has already published reuses that
    snapshot, so repeated snapshot requests over the same spec — even
    under different sweep knobs — share one segment and one build across
    the whole serve session.  The lookup and the build hold
    ``_snapshot_lock``, so concurrent cold requests cannot both build.
    """
    from ..graphs import shm
    from ..experiments.parallel import snapshot_rows

    spec = tuple(canon["spec"])
    with _snapshot_lock:
        handle = shm.published_spec(spec)
        if handle is None:
            handle = shm.publish(shm.build_spec(spec))
    return snapshot_rows(handle, jobs=jobs, kind=canon["sweep"],
                         limit=canon["limit"], cell_size=canon["cell_size"],
                         kernel=canon["backend"], force=_force(jobs))


def run_trace_cell(spec: RunSpec) -> str:
    """One ``trace`` request's cell: the replayable trace document that
    :func:`~repro.replay.record_run` writes for ``spec``.  Module-level,
    so it runs in a pool worker like any sweep cell."""
    from ..replay.engine import record_run

    return record_run(spec).text


def _execute_trace(canon: dict, jobs: int | None) -> str:
    from ..experiments.chaos import RunSpec
    from ..experiments.parallel import run_parallel

    fields = {k: v for k, v in canon.items() if k not in ("kind", "backend")}
    return run_parallel(run_trace_cell, [RunSpec.from_dict(fields)],
                        jobs=jobs, force=_force(jobs))[0]


_EXECUTORS = {
    "sweep": _execute_sweep,
    "chaos": _execute_chaos,
    "snapshot": _execute_snapshot,
    "trace": _execute_trace,
}


def execute_request(canon: dict, *, jobs: int | None = None) -> Any:
    """Execute one canonical request against the engine; returns its payload.

    ``jobs`` is the service's pool width — a deployment knob, *not* part
    of the content address: by the serial==pool identity contract the
    payload is byte-identical at any worker count.  With ``jobs > 1`` the
    request runs in the persistent pool's workers; ``None`` or ``1`` runs
    it in the calling process.
    """
    try:
        executor = _EXECUTORS[canon["kind"]]
    except KeyError:  # canonical_request already rejects these
        raise RequestError(f"unknown request kind {canon.get('kind')!r}") from None
    return executor(canon, jobs)
