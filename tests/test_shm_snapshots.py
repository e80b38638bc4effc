"""Shared-memory snapshot lifecycle, fallback, and sweep identity.

The tentpole contract, end to end: a graph published once is swept by
pool workers zero-copy (exactly one build, counted), serial and pooled
row lists are byte-identical under both kernel backends, re-publishing a
mutated graph invalidates the stale segment, ``shutdown_pool()`` unlinks
everything, and a worker process that cannot reach shared memory falls
back to a spec rebuild instead of crashing.  A subprocess leg asserts
the whole dance leaves no ``rshm-*`` files and no resource-tracker or
``BufferError`` noise on stderr.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.parallel import (
    pool_shm_stats,
    shutdown_pool,
    snapshot_cells,
    snapshot_rows,
    run_snapshot_cell,
    _dispose_pool,
)
from repro.graphs import (
    SnapshotUnavailable,
    lower_bound_flat,
    param_cache,
    random_connected_flat,
    random_connected_graph,
    shm_available,
)
from repro.graphs import shm
from repro.graphs.csr import flat_stripe_stats
from repro.graphs.npkernels import numpy_available

pytestmark = pytest.mark.skipif(
    not shm_available(), reason="no shared memory on this platform"
)

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def _clean_shm_state():
    shm.reset_for_tests()
    yield
    shutdown_pool()
    shm.reset_for_tests()


def _segment_exists(name):
    return os.path.exists(f"/dev/shm/{name}")


# --------------------------------------------------------------------- #
# Publisher lifecycle
# --------------------------------------------------------------------- #


def test_publish_attach_unlink_lifecycle():
    flat = random_connected_flat(300, 500, seed=8)
    handle = shm.publish(flat, key="life")
    assert handle.segment is not None
    assert _segment_exists(handle.segment)
    stats = shm.stats()
    assert stats["shm_creates"] == 1
    assert stats["shm_segments"] == 1
    assert stats["shm_bytes"] == flat.nbytes

    # Publisher-side attach resolves to the local FlatGraph (no mapping).
    assert shm.attach(handle) is flat
    assert shm.stats()["shm_local_hits"] == 1

    # Idempotent re-publish: same content, same handle, no new segment.
    assert shm.publish(flat, key="life") == handle
    assert shm.stats()["shm_creates"] == 1

    assert shm.unlink_all() == 1
    assert not _segment_exists(handle.segment)
    assert shm.stats()["shm_segments"] == 0
    assert shm.stats()["shm_bytes"] == 0


def test_version_bump_invalidates_stale_segment():
    g = random_connected_graph(60, 90, seed=5)
    cache = param_cache(g)
    h1 = cache.publish(key="vbump")
    assert _segment_exists(h1.segment)
    g.add_edge(0, 59, 2.5)  # version bump
    h2 = cache.publish(key="vbump")
    assert h2.version == g.version
    assert h2.fingerprint != h1.fingerprint
    assert not _segment_exists(h1.segment), "stale segment must be unlinked"
    assert _segment_exists(h2.segment)
    assert shm.stats()["shm_segments"] == 1


def test_cross_process_attach_is_byte_identical():
    flat = random_connected_flat(400, 900, seed=21)
    handle = shm.publish(flat)
    # Simulate a worker: wipe the local registries so attach() must map
    # the real segment.
    shm._published.clear()
    shm._attached.clear()
    attached = shm.attach(handle)
    assert attached is not flat
    assert shm.stats()["shm_attaches"] == 1
    for mine, theirs in zip(flat.buffers(), attached.buffers(), strict=True):
        assert bytes(mine) == bytes(theirs)
    assert attached.fingerprint == flat.fingerprint
    # Second resolve hits the attachment cache, no second mapping.
    assert shm.attach(handle) is attached
    assert shm.stats()["shm_attaches"] == 1
    # Kernels run directly on the attached (memoryview-backed) buffers.
    assert flat_stripe_stats(attached, 0, 400) == \
        flat_stripe_stats(flat, 0, 400)


def test_attach_unreachable_without_spec_raises():
    flat = random_connected_flat(50, 60, seed=1)
    handle = shm.publish(flat)
    dead = handle.__class__(**{**handle.__dict__, "key": "gone",
                               "segment": "rshm-nonexistent-0-0",
                               "spec": None})
    with pytest.warns(RuntimeWarning), pytest.raises(SnapshotUnavailable):
        shm.attach(dead)


def test_creation_failure_falls_back_and_warns_once(monkeypatch):
    def boom(name, nbytes):
        raise OSError("no space on /dev/shm")

    monkeypatch.setattr(shm, "_create_segment", boom)
    flat = lower_bound_flat(64)
    with pytest.warns(RuntimeWarning, match="falling back"):
        handle = shm.publish(flat, key="degraded")
    assert handle.segment is None
    assert shm.stats()["shm_failures"] == 1
    # Only the first failure warns; later ones just count.
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        h2 = shm.publish(lower_bound_flat(65), key="degraded2")
    assert h2.segment is None
    assert shm.stats()["shm_failures"] == 2

    # A worker with no segment rebuilds from the generator spec.
    shm._published.clear()
    rebuilt = shm.attach(handle)
    assert shm.stats()["shm_rebuilds"] == 1
    for a, b in zip(rebuilt.buffers(), flat.buffers(), strict=True):
        assert bytes(a) == bytes(b)
    # And the sweep still runs, serially and pooled, with identical rows.
    serial = snapshot_rows(handle, kind="stripe", cell_size=8,
                           force="serial")
    pooled = snapshot_rows(handle, kind="stripe", cell_size=8,
                           force="pool", jobs=2)
    assert serial == pooled


# --------------------------------------------------------------------- #
# Pool integration: one build per sweep, serial == pool
# --------------------------------------------------------------------- #


def test_sweep_one_build_serial_pool_identity(each_backend):
    flat = random_connected_flat(2000, 3000, seed=17)
    handle = shm.publish(flat, key="sweep")
    assert shm.stats()["shm_creates"] == 1

    serial = snapshot_rows(handle, kind="stripe", cell_size=5,
                           force="serial")
    assert len(serial) == 400
    pooled = snapshot_rows(handle, kind="stripe", cell_size=5,
                           force="pool", jobs=2, batch=32)
    assert serial == pooled

    src_serial = snapshot_rows(handle, kind="sources", limit=12,
                               cell_size=3, force="serial")
    src_pooled = snapshot_rows(handle, kind="sources", limit=12,
                               cell_size=3, force="pool", jobs=2)
    assert src_serial == src_pooled

    # Acceptance counters: the parent built/published exactly once;
    # workers attached (or will on demand) and never created or rebuilt.
    assert shm.stats()["shm_creates"] == 1
    workers = pool_shm_stats(2, snapshots=(handle,))
    assert workers, "probe must reach at least one worker"
    for w in workers:
        assert w["shm_creates"] == 0
        assert w["shm_rebuilds"] == 0
        assert w["shm_attaches"] <= 1


def test_snapshot_cells_pin_kernel_and_validate():
    flat = random_connected_flat(30, 40, seed=2)
    handle = shm.publish(flat)
    cells = snapshot_cells(handle, kind="sources", limit=10, cell_size=4)
    assert [(c.lo, c.hi) for c in cells] == [(0, 4), (4, 8), (8, 10)]
    assert all(c.kernel in ("python", "numpy") for c in cells)
    row = run_snapshot_cell(cells[0])
    assert row["kind"] == "sources"
    assert row["sources"] == 4
    with pytest.raises(ValueError):
        snapshot_cells(handle, kind="nope")
    with pytest.raises(ValueError):
        snapshot_cells(handle, cell_size=0)
    with pytest.raises(ValueError):
        snapshot_cells(handle, limit=-3)


@pytest.mark.skipif(not numpy_available(), reason="numpy not installed")
def test_numpy_source_cells_follow_the_size_rule(monkeypatch):
    from repro.experiments import parallel
    from repro.graphs import csr, npkernels

    calls = []

    def spy(name, kernel):
        def run(flat, lo, hi):
            calls.append(name)
            return kernel(flat, lo, hi)
        return run

    python_kernel = csr.flat_source_stats
    monkeypatch.setattr(csr, "flat_source_stats", spy("python", python_kernel))
    monkeypatch.setattr(npkernels, "np_flat_source_stats",
                        spy("numpy", npkernels.np_flat_source_stats))
    for n, kernel in ((48, "python"), (200, "numpy")):
        flat = random_connected_flat(n, n, seed=5)
        assert (flat.m2 > parallel._PY_SOURCES_MAX_M2) == (kernel == "numpy")
        cells = snapshot_cells(shm.publish(flat), kind="sources", limit=7,
                               cell_size=3, kernel="numpy")
        calls.clear()
        rows = [run_snapshot_cell(c) for c in cells]
        assert calls == [kernel] * len(cells)
        assert rows == [python_kernel(flat, c.lo, c.hi) for c in cells]


def test_pool_rebuild_does_not_unlink_segments():
    flat = random_connected_flat(200, 300, seed=3)
    handle = shm.publish(flat, key="keep")
    snapshot_rows(handle, kind="stripe", cell_size=50, force="pool", jobs=2)
    # An internal pool key change (e.g. a different warm spec) disposes
    # the executor but must leave published segments alone.
    _dispose_pool()
    assert _segment_exists(handle.segment)
    # The public teardown unlinks.
    shutdown_pool()
    assert not _segment_exists(handle.segment)


def test_shutdown_pool_unlinks_all_segments():
    handles = [shm.publish(random_connected_flat(100, 150, seed=s),
                           key=f"multi-{s}") for s in (1, 2, 3)]
    assert all(_segment_exists(h.segment) for h in handles)
    snapshot_rows(handles[0], kind="stripe", cell_size=25, force="pool",
                  jobs=2)
    shutdown_pool()
    assert all(not _segment_exists(h.segment) for h in handles)
    assert shm.stats()["shm_segments"] == 0


# --------------------------------------------------------------------- #
# Leak check (fresh interpreter: atexit + resource tracker end to end)
# --------------------------------------------------------------------- #

_LEAK_SCRIPT = """
import os, sys
from repro.graphs import random_connected_flat, shm_available
from repro.graphs import shm
from repro.experiments.parallel import snapshot_rows, shutdown_pool

if not shm_available():
    print("SKIP")
    sys.exit(0)
flat = random_connected_flat(500, 800, seed=12)
handle = shm.publish(flat, key="leakcheck")
serial = snapshot_rows(handle, kind="stripe", cell_size=10, force="serial")
pooled = snapshot_rows(handle, kind="stripe", cell_size=10,
                       force="pool", jobs=2, batch=8)
assert serial == pooled
print("SEGMENT", handle.segment)
# No explicit shutdown: the atexit hooks own the cleanup.
"""


def test_subprocess_leaves_no_segments_or_tracker_noise():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.run([sys.executable, "-c", _LEAK_SCRIPT],
                          capture_output=True, text=True, env=env,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    if "SKIP" in proc.stdout:
        pytest.skip("no shared memory in subprocess")
    segment = proc.stdout.split("SEGMENT", 1)[1].split()[0]
    assert not _segment_exists(segment), "segment outlived the process"
    for noise in ("leaked", "resource_tracker", "BufferError", "Traceback"):
        assert noise not in proc.stderr, proc.stderr
