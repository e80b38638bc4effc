"""Map a canonical request onto the existing sweep/replay engine.

This is the only serve module that touches the engine: everything above
it (addressing, store, single-flight) treats payloads as opaque.  All
execution goes through the same module-level cell workers the serial and
pooled sweeps share, so a served result is byte-identical to what a
direct :func:`~repro.experiments.parallel.chaos_rows` /
:func:`~repro.experiments.parallel.snapshot_rows` /
:func:`~repro.replay.record_run` call produces — the property that makes
the cache sound.

Small-cell batching: sweeps with many cheap cells are dispatched in
grouped batches (``run_parallel(..., batch=...)``, the ``snapshot_rows``
mechanism), so a pooled request pays one pickle round-trip per *group*
rather than per cell.
"""

from __future__ import annotations

from typing import Any

from .address import RequestError

__all__ = ["execute_request", "BATCH_THRESHOLD", "BATCH_SIZE"]

# Grouped dispatch kicks in at this many cells; below it, per-cell
# dispatch balances better and pickling is already cheap.
BATCH_THRESHOLD = 64
BATCH_SIZE = 16


def _auto_batch(n_cells: int) -> int | None:
    return BATCH_SIZE if n_cells >= BATCH_THRESHOLD else None


def _execute_sweep(canon: dict, jobs: int | None) -> list[dict]:
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
    return run_parallel(run_chaos_cell, cells, jobs=jobs, warm=warm,
                        batch=_auto_batch(len(cells)))


def _execute_chaos(canon: dict, jobs: int | None) -> dict:
    """One sweep cell: a positive ``drop`` becomes a message-loss plan
    seeded by ``fault_seed``, ``trace`` becomes ``limit=0``."""
    from ..experiments.chaos import RunSpec
    from ..experiments.parallel import run_chaos_cell
    from ..faults.plan import FaultPlan

    drop = canon["drop"]
    return run_chaos_cell(RunSpec(
        canon["protocol"], canon["n"], canon["extra_edges"],
        canon["graph_seed"], reliable=canon["reliable"],
        plan=(FaultPlan.message_loss(drop, seed=canon["fault_seed"])
              if drop > 0 else None),
        limit=0 if canon["trace"] else None, race=canon["race_detect"],
    ))


def _execute_snapshot(canon: dict, jobs: int | None) -> list[dict]:
    """Publish (idempotently) the spec'd graph and sweep its snapshot.

    :func:`repro.graphs.shm.publish` keys on the content fingerprint, so
    repeated snapshot requests over the same spec — even under different
    sweep knobs — reuse one shared segment across the whole serve
    session; the graph is built at most once per service process.
    """
    from ..graphs import shm
    from ..experiments.parallel import snapshot_cells, snapshot_rows

    flat = shm.build_spec(tuple(canon["spec"]))
    handle = shm.publish(flat)
    n_cells = len(snapshot_cells(handle, kind=canon["sweep"],
                                 limit=canon["limit"],
                                 cell_size=canon["cell_size"],
                                 kernel=canon["backend"]))
    return snapshot_rows(
        handle,
        jobs=jobs,
        kind=canon["sweep"],
        limit=canon["limit"],
        cell_size=canon["cell_size"],
        kernel=canon["backend"],
        batch=_auto_batch(n_cells),
    )


def _execute_trace(canon: dict, jobs: int | None) -> str:
    from ..experiments.chaos import RunSpec
    from ..replay.engine import record_run

    fields = {k: v for k, v in canon.items() if k not in ("kind", "backend")}
    return record_run(RunSpec.from_dict(fields)).text


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
    payload is byte-identical at any worker count.
    """
    try:
        executor = _EXECUTORS[canon["kind"]]
    except KeyError:  # canonical_request already rejects these
        raise RequestError(f"unknown request kind {canon.get('kind')!r}") from None
    return executor(canon, jobs)
