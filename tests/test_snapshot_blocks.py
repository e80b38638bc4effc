"""Snapshot sweeps dispatch blocks of cells (repro.experiments.parallel).

A sweep over a published snapshot is cut into ``SnapshotBlock``s, one
per pool task and one for a serial sweep, and a block calls its kernel
once per cell.  The kernels themselves are the oracle: whatever the
graph, kind, kernel pin, limit, cell size and dispatch options, a
sweep's rows equal one kernel call per cell, with the numpy size rule
applied per cell.  A wrapper rebound the way perfbench's ledger rebinds
a kernel sees one call per cell, serial and pooled.
"""

import multiprocessing
import os
import sys

import pytest
from hypothesis import given, settings, strategies as st

from repro.experiments import parallel
from repro.experiments.parallel import shutdown_pool, snapshot_rows
from repro.graphs import (
    csr,
    lower_bound_flat,
    random_connected_flat,
    shm,
    shm_available,
)
from repro.graphs.npkernels import np_flat_source_stats, numpy_available

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no shared memory on this platform"
)

KERNELS = ["python"] + (["numpy"] if numpy_available() else [])


@pytest.fixture(scope="module", autouse=True)
def _fresh_state():
    shutdown_pool()
    shm.reset_for_tests()
    yield
    shutdown_pool()
    shm.reset_for_tests()


def _kernel_rows(flat, kind, limit, cell_size, kernel):
    """The oracle: one kernel call per cell."""
    count = flat.n if limit is None else min(limit, flat.n)
    if kind == "stripe":
        run = csr.flat_stripe_stats
    elif kernel == "numpy" and flat.m2 > parallel._PY_SOURCES_MAX_M2:
        run = np_flat_source_stats
    else:
        run = csr.flat_source_stats
    return [run(flat, lo, min(lo + cell_size, count))
            for lo in range(0, count, cell_size)]


@st.composite
def _graphs(draw):
    if draw(st.booleans()):
        return random_connected_flat(draw(st.integers(1, 150)),
                                     draw(st.integers(0, 200)),
                                     seed=draw(st.integers(0, 10**6)))
    return lower_bound_flat(draw(st.integers(4, 12)))


@settings(max_examples=30, deadline=None)
@given(flat=_graphs(), data=st.data())
def test_rows_equal_one_kernel_call_per_cell(flat, data):
    n = flat.n
    limit = data.draw(st.one_of(
        st.none(), st.just(0), st.integers(0, max(0, n - 1)),
        st.integers(n + 1, n + 20)), label="limit")
    count = n if limit is None else min(limit, n)
    kind = data.draw(st.sampled_from(["stripe", "sources"]), label="kind")
    kernel = data.draw(st.sampled_from(KERNELS), label="kernel")
    cell_size = data.draw(st.integers(1, count + 3), label="cell_size")
    options = data.draw(st.fixed_dictionaries({
        "jobs": st.sampled_from([None, 2]),
        "force": st.sampled_from([None, "serial", "pool"]),
        "batch": st.one_of(st.none(), st.integers(1, 8)),
        "chunksize": st.one_of(st.none(), st.integers(1, 8)),
    }), label="options")
    rows = snapshot_rows(shm.publish(flat), kind=kind, limit=limit,
                         cell_size=cell_size, kernel=kernel, **options)
    assert rows == _kernel_rows(flat, kind, limit, cell_size, kernel)


def _rebind(monkeypatch, attr, wrap):
    """Rebind ``attr`` in every ``repro`` module that holds the same
    function, as perfbench's ledger installs its spans."""
    orig = getattr(csr, attr)
    wrapped = wrap(orig)
    for mod in list(sys.modules.values()):
        if (mod is not None and mod.__name__.startswith("repro")
                and mod.__dict__.get(attr) is orig):
            monkeypatch.setattr(mod, attr, wrapped)


def test_a_rebound_kernel_sees_one_call_per_stripe_cell(monkeypatch):
    calls = multiprocessing.Array("i", 2)  # [this process, pool workers]
    here = os.getpid()

    def counting(kernel):
        def run(*args, **kwargs):
            with calls.get_lock():
                calls[int(os.getpid() != here)] += 1
            return kernel(*args, **kwargs)
        return run

    shutdown_pool()  # the workers fork with the wrapper in place
    flat = random_connected_flat(400, 300, seed=8)
    handle = shm.publish(flat)
    expected = _kernel_rows(flat, "stripe", None, 7, "python")
    assert len(expected) == 58  # ceil(400 / 7)
    _rebind(monkeypatch, "flat_stripe_stats", counting)
    try:
        for force, where in (("serial", 0), ("pool", 1)):
            calls[0] = calls[1] = 0
            rows = snapshot_rows(handle, jobs=2, kind="stripe", cell_size=7,
                                 batch=4, force=force)
            assert rows == expected
            assert calls[where] == len(rows) and calls[1 - where] == 0
        for stats in [shm.stats(), *parallel.pool_shm_stats(2)]:
            assert stats["shm_failures"] == stats["shm_rebuilds"] == 0
    finally:
        shutdown_pool()
