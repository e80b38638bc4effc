"""The persistent pool's contract (repro.experiments.parallel).

One pool per ``(jobs, kernel backend)`` serves every sweep: chaos sweeps
over any graph shape and snapshot sweeps over any published handle.  Its
workers simulate nothing outside their cells (the dispatcher computes
the fault-free references and the tasks carry them), a long-lived worker
keeps a bounded number of snapshot attachments, and a broken pool is
replaced without unlinking the snapshots a sweep is reading.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

from repro.experiments import chaos, parallel
from repro.experiments.parallel import (
    chaos_cells,
    chaos_rows,
    run_chaos_cell,
    run_parallel,
    shutdown_pool,
    snapshot_rows,
)
from repro.graphs import (
    param_cache,
    random_connected_flat,
    random_connected_graph,
    shm_available,
)
from repro.graphs import shm
from repro.graphs.csr import flat_stripe_stats

needs_shm = pytest.mark.skipif(not shm_available(),
                               reason="no shared memory on this platform")

REPO = Path(__file__).resolve().parent.parent
#: The test process; a cell that sees another pid runs in a pool worker.
_PARENT = os.getpid()
_run_chaos = chaos.run_chaos
#: The most snapshot attachments one process keeps.
_ATTACH_BOUND = 8
# Per-process tallies, read back from the workers by _tally.
_calls = [0]
_cells = [0]


@pytest.fixture(autouse=True)
def _fresh_pool():
    shutdown_pool()
    shm.reset_for_tests()
    yield
    shutdown_pool()
    shm.reset_for_tests()


def _spy_run_chaos(*args, **kwargs):
    _calls[0] += 1
    return _run_chaos(*args, **kwargs)


def _counted_cell(spec):
    _cells[0] += 1
    return run_chaos_cell(spec)


def _tally(_):
    return os.getpid(), _calls[0], _cells[0]


def _worker_state(_):
    return (os.getpid(), len(os.listdir("/proc/self/fd")), len(shm._attached),
            shm.stats()["shm_attaches"])


def _die_in_worker(cell):
    if os.getpid() != _PARENT:
        os._exit(1)
    return run_chaos_cell(cell)


def _stripe_dies_in_worker_at(lo_dead):
    """``flat_stripe_stats`` that ends the worker running cell ``lo_dead``."""
    def run(flat, lo, hi):
        if lo == lo_dead and os.getpid() != _PARENT:
            os._exit(1)
        return flat_stripe_stats(flat, lo, hi)
    return run


def _square(x):
    return x * x


def _per_worker(fn, jobs=2):
    """``fn``'s answer from every worker of the live pool, by pid."""
    answers = {}
    for _ in range(50):
        for row in run_parallel(fn, range(4 * jobs), jobs=jobs, force="pool",
                                chunksize=1):
            answers.setdefault(row[0], row[1:])
        if len(answers) == jobs:
            return answers
    pytest.fail(f"only workers {sorted(answers)} answered")


@needs_shm
def test_one_pool_serves_every_shape_and_snapshot():
    handles = [shm.publish(random_connected_flat(300, 400, seed=s))
               for s in (1, 2)]
    pool = None
    for n, extra_edges, graph_seed in ((10, 12, 4), (12, 10, 9)):
        kw = dict(n=n, extra_edges=extra_edges, graph_seed=graph_seed,
                  drop_rates=(0.0, 0.2))
        pooled = chaos_rows(jobs=2, force="pool", **kw)
        pool = pool or parallel._pool
        assert parallel._pool is pool
        assert pooled == chaos_rows(jobs=1, **kw)
    for handle in handles:
        for kind in ("stripe", "sources"):
            kw = dict(kind=kind, limit=40, cell_size=4)
            pooled = snapshot_rows(handle, jobs=2, force="pool", **kw)
            assert parallel._pool is pool
            assert pooled == snapshot_rows(handle, force="serial", **kw)


def test_workers_simulate_only_their_cells(monkeypatch):
    # Installed before the pool forks, so every worker inherits both; the
    # sweep's shape is new to the live pool, so its workers can only get
    # the references from the tasks (or run them themselves).
    monkeypatch.setattr(chaos, "run_chaos", _spy_run_chaos)
    monkeypatch.setattr(parallel, "run_chaos_cell", _counted_cell)
    before = _per_worker(_tally)
    pool = parallel._pool
    kw = dict(n=11, extra_edges=9, graph_seed=6, drop_rates=(0.0, 0.2))
    pooled = chaos_rows(jobs=2, force="pool", **kw)
    after = _per_worker(_tally)
    assert parallel._pool is pool and set(after) == set(before)
    ran = {pid: after[pid][1] - before[pid][1] for pid in after}
    assert sum(ran.values()) == len(pooled)
    for pid, cells in ran.items():
        assert after[pid][0] - before[pid][0] == cells
    assert pooled == chaos_rows(jobs=1, **kw)


@needs_shm
@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd")
def test_a_long_lived_worker_keeps_a_bounded_set_of_attachments():
    handles = [shm.publish(random_connected_flat(60, 60, seed=s))
               for s in range(3 * _ATTACH_BOUND)]
    before = _per_worker(_worker_state)
    pool = parallel._pool
    for handle in handles:
        rows = snapshot_rows(handle, jobs=2, force="pool", kind="stripe",
                             cell_size=10)
        assert rows == snapshot_rows(handle, force="serial", kind="stripe",
                                     cell_size=10)
    after = _per_worker(_worker_state)
    assert parallel._pool is pool
    assert set(after) == set(before)
    for pid, (fds, attached, _attaches) in after.items():
        assert attached <= _ATTACH_BOUND
        assert fds - before[pid][0] <= 16
    # Each sweep attached its snapshot in some worker: eviction happened.
    assert max(attaches for _f, _a, attaches in after.values()) \
        > _ATTACH_BOUND


@needs_shm
def test_a_broken_pool_reruns_serially_and_keeps_the_snapshots(monkeypatch):
    chaos_sweep = chaos_cells(n=10, extra_edges=12, graph_seed=4,
                              drop_rates=(0.0, 0.2))
    rows = run_parallel(_die_in_worker, chaos_sweep, jobs=2, force="pool",
                        warm=((10, 12, 4, None),))
    assert rows == [run_chaos_cell(c) for c in chaos_sweep]
    assert parallel._pool is None
    flat = param_cache(random_connected_graph(200, 200, seed=4)).flat()
    handle = shm.publish(flat)
    assert handle.spec is None  # a serial re-run cannot rebuild it
    # 40 cells of 5 vertices go out as 8 blocks of 5 cells; the worker
    # running the fourth block dies at its third cell.
    sweep = dict(kind="stripe", cell_size=5)
    cells = [flat_stripe_stats(flat, lo, lo + 5) for lo in range(0, 200, 5)]
    with monkeypatch.context() as m:
        m.setattr(parallel, "flat_stripe_stats", _stripe_dies_in_worker_at(85))
        assert snapshot_rows(handle, jobs=2, force="pool", **sweep) == cells
        assert parallel._pool is None
    stats = shm.stats()
    assert stats["shm_rebuilds"] == 0 and stats["shm_failures"] == 0
    assert handle.segment in os.listdir("/dev/shm")
    assert snapshot_rows(handle, jobs=2, force="pool", **sweep) == cells
    assert parallel._pool is not None


def _in_threads(target, n):
    """Run ``target(i)`` for ``i < n`` in ``n`` threads, switching often."""
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=target, args=(i,))
                   for i in range(n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)


def test_concurrent_callers_create_one_pool(monkeypatch):
    created = []

    class CountedPool(parallel.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            created.append(self)
            time.sleep(0.05)  # a slow start: the other callers arrive
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(parallel, "ProcessPoolExecutor", CountedPool)
    cells = list(range(16))
    start = threading.Barrier(8, timeout=30)
    rows = [None] * 8

    def call(i):
        start.wait()
        rows[i] = run_parallel(_square, cells, jobs=2, force="pool")

    _in_threads(call, 8)
    assert len(created) == 1 and parallel._pool is created[0]
    assert rows == [[_square(c) for c in cells]] * 8


def test_a_late_broken_map_leaves_the_next_pool_alone(monkeypatch):
    # Two maps break on one pool.  The first handler disposes it and a
    # third caller starts the next pool before the second handler runs:
    # that handler must not dispose the new pool under its caller.
    cells = chaos_cells(n=8, extra_edges=6, graph_seed=3, drop_rates=(0.0,))
    real_dispose = parallel._dispose_pool
    both_broke = threading.Barrier(2, timeout=60)
    turn = threading.Lock()
    third = []

    def dispose_in_turn(*args):
        both_broke.wait()
        with turn:
            real_dispose(*args)
            if not third:
                third.append(parallel._get_pool(2))

    monkeypatch.setattr(parallel, "_dispose_pool", dispose_in_turn)
    rows = [None, None]

    def call(i):
        rows[i] = run_parallel(_die_in_worker, cells, jobs=2, force="pool")

    _in_threads(call, 2)
    assert rows == [[run_chaos_cell(c) for c in cells]] * 2
    assert parallel._pool is third[0]
    assert run_parallel(_square, range(4), jobs=2, force="pool") == [0, 1, 4, 9]
    assert parallel._pool is third[0]


# Ten maps that each break at their first cell, under the lifecycle
# tests' switch interval; then no worker of a disposed pool may be alive.
_BROKEN_MAPS = """
import multiprocessing, os, sys
from repro.experiments.parallel import run_parallel, shutdown_pool

PARENT = os.getpid()

def cell(i):
    if i == 0 and os.getpid() != PARENT:
        os._exit(1)
    return i * i

sys.setswitchinterval(1e-6)
for _ in range(10):
    rows = run_parallel(cell, range(400), jobs=2, force="pool", chunksize=1)
    assert rows == [i * i for i in range(400)]
shutdown_pool()
print("alive", len(multiprocessing.active_children()))
"""


def test_broken_maps_leave_no_worker_alive():
    # On Python 3.10 and 3.11 a broken map's pool manager thread can die
    # before it terminates the surviving workers; they then outlive the
    # pool and the interpreter never exits.
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen([sys.executable, "-c", _BROKEN_MAPS],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            text=True, env=env, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("the interpreter did not exit: a pool worker outlived "
                    "its pool")
    assert proc.returncode == 0, err
    assert out.split() == ["alive", "0"], err
