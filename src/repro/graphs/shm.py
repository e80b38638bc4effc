"""Zero-copy shared-memory graph snapshots for the sweep engine.

A sweep of 10^4 cells over one n = 10^6 graph must cost **one** graph
build — not one per worker per cell.  This module is the transport that
makes that true: a :class:`~repro.graphs.csr.FlatGraph`'s three flat
buffers are copied once into a ``multiprocessing.shared_memory`` segment,
and every pool worker *attaches* the segment and re-views the bytes
zero-copy (``memoryview.cast``) instead of rebuilding or unpickling the
graph.  Cells then carry only a :class:`SnapshotHandle` — a few hundred
bytes of metadata — across the pool boundary.

Registry semantics
------------------
Snapshots are keyed by ``(fingerprint, version)``:

* :func:`publish` is idempotent per key — re-publishing the same content
  returns the existing handle; re-publishing a *changed* graph under the
  same logical key unlinks the stale segment first (version-bump
  invalidation, mirroring ``GraphParamCache``'s version counter).
* :func:`attach` resolves a handle through a three-level fallback:
  the publishing process's own ``FlatGraph`` (serial sweeps never touch
  shm bytes at all), a process-local attachment cache (each worker maps
  a segment once, on the first cell that names it, not once per cell),
  the real shared segment, and finally — when shared memory is
  unavailable or the segment is gone — a from-scratch rebuild via the
  handle's generator ``spec``.  Every step is counted in :func:`stats`;
  nothing in the chain can crash a sweep that a plain per-worker rebuild
  would have survived.  The cache keeps the ``_MAX_ATTACHED`` most
  recently used attachments, so a worker that lives for a whole session
  holds a bounded number of mappings.
* :func:`unlink_all` (called by ``shutdown_pool()`` and at interpreter
  exit) closes and unlinks every published segment, so no ``rshm-*``
  files outlive the process and the POSIX resource tracker has nothing
  to warn about.  Worker-side attachments are plain read-only mappings
  that the resource tracker never hears of (:func:`_map_segment`); the
  publishing process is the only owner, and forked children explicitly
  disown any inherited publisher state (:func:`_after_fork_in_child`).
"""

from __future__ import annotations

import atexit
import importlib
import mmap
import os
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Any

from .csr import FlatGraph

try:  # pragma: no cover - import guard for exotic platforms
    from multiprocessing import shared_memory as _shm_mod
except ImportError:  # pragma: no cover
    _shm_mod = None  # type: ignore[assignment]

__all__ = [
    "SEGMENT_PREFIX",
    "SnapshotHandle",
    "SnapshotUnavailable",
    "shm_available",
    "publish",
    "published_spec",
    "attach",
    "build_spec",
    "unlink_all",
    "detach_all",
    "shutdown",
    "stats",
    "reset_for_tests",
]

# POSIX shm names share one flat namespace; keep ours greppable in
# /dev/shm and short enough for macOS's 31-char name limit.
SEGMENT_PREFIX = "rshm-"


class SnapshotUnavailable(RuntimeError):
    """No way to resolve a handle: no local copy, no segment, no spec."""


@dataclass(frozen=True)
class SnapshotHandle:
    """Picklable reference to a published graph snapshot.

    This is what crosses the pool boundary instead of the graph: workers
    resolve it through :func:`attach`.  ``segment`` is ``None`` when
    shared memory was unavailable at publish time (workers then rebuild
    from ``spec``).
    """

    key: str
    fingerprint: str
    version: int
    n: int
    m2: int
    integral: bool
    wmax: float
    spec: tuple[Any, ...] | None
    segment: str | None
    nbytes: int


# key -> (handle, segment-or-None, local FlatGraph); publisher side.
_published: dict[str, tuple[SnapshotHandle, Any, FlatGraph]] = {}
# (fingerprint, version) -> FlatGraph, least recently used first;
# attacher side.
_attached: OrderedDict[tuple[str, int], FlatGraph] = OrderedDict()
# Most attachments one process keeps (see attach()).
_MAX_ATTACHED = 8
# Publisher wrappers inherited by a forked child, never torn down there.
_retained: list[Any] = []
# Serializes publish(): two threads publishing one graph would otherwise
# both create its segment, the second by unlinking the first's.
_publish_lock = threading.Lock()

_counters = {
    "shm_creates": 0,
    "shm_attaches": 0,
    "shm_rebuilds": 0,
    "shm_local_hits": 0,
    "shm_failures": 0,
    "shm_bytes": 0,
}

_available: bool | None = None
_warned = False


def _note_failure(exc: BaseException | str) -> None:
    """Count a shm failure and warn exactly once per process."""
    global _warned
    _counters["shm_failures"] += 1
    if not _warned:
        _warned = True
        warnings.warn(
            f"shared-memory snapshots unavailable ({exc}); "
            "falling back to per-worker graph rebuild",
            RuntimeWarning,
            stacklevel=3,
        )


def shm_available() -> bool:
    """Whether this process can create shared-memory segments (probed once)."""
    global _available
    if _available is None:
        if _shm_mod is None:
            _available = False
        else:
            try:
                probe = _shm_mod.SharedMemory(create=True, size=16)
                probe.close()
                probe.unlink()
                _available = True
            except Exception:
                _available = False
    return _available


def _segment_name(fingerprint: str, version: int) -> str:
    # pid-scoped so concurrent test processes never collide; 12 hex of
    # the content fingerprint keeps the full name under 31 chars.
    return f"{SEGMENT_PREFIX}{fingerprint[:12]}-{version}-{os.getpid() % 100000}"


def _map_segment(name: str, nbytes: int) -> mmap.mmap:
    """Map segment ``name`` read-only.

    Only the publisher owns the segment's lifecycle, so an attachment
    bypasses ``SharedMemory``: the resource tracker never hears of it
    (forked workers share the publisher's tracker, so a registered
    attachment would clash with the publisher's own entry), and the
    ``shm_open`` descriptor is closed at once.  The mapping, with the one
    descriptor ``mmap`` keeps, is released as soon as nothing references
    it.
    """
    if _shm_mod is None:
        raise SnapshotUnavailable("multiprocessing.shared_memory not importable")
    # The POSIX shm_open that SharedMemory itself calls (an untyped module).
    posixshmem: Any = importlib.import_module("_posixshmem")
    fd = posixshmem.shm_open("/" + name, os.O_RDONLY, mode=0o600)
    try:
        return mmap.mmap(fd, nbytes, access=mmap.ACCESS_READ)
    finally:
        os.close(fd)


def _create_segment(name: str, nbytes: int) -> Any:
    assert _shm_mod is not None
    try:
        return _shm_mod.SharedMemory(name=name, create=True, size=nbytes)
    except FileExistsError:
        # Stale segment from a crashed previous run of this pid slot:
        # reclaim it and retry once.
        stale = _shm_mod.SharedMemory(name=name, create=False)
        stale.close()
        stale.unlink()
        return _shm_mod.SharedMemory(name=name, create=True, size=nbytes)


def publish(flat: FlatGraph, key: str | None = None) -> SnapshotHandle:
    """Publish ``flat`` for zero-copy attachment; returns its handle.

    Idempotent per ``(fingerprint, version)`` under the same ``key``
    (defaults to the content fingerprint).  Publishing different content
    under an existing key unlinks the stale segment first.  When segment
    creation fails — no shared memory on the platform, /dev/shm full —
    the handle is still returned with ``segment=None`` and the sweep
    proceeds on the rebuild fallback, with the failure counted and
    warned once.  Thread-safe: concurrent publishers of one graph share a
    single segment.
    """
    with _publish_lock:
        return _publish(flat, key)


def published_spec(spec: tuple[Any, ...]) -> SnapshotHandle | None:
    """The handle of a graph this process published from generator
    ``spec`` (its :func:`build_spec` form), or ``None`` if there is none."""
    with _publish_lock:
        for handle, _seg, _flat in _published.values():
            if handle.spec == spec:
                return handle
    return None


def _publish(flat: FlatGraph, key: str | None) -> SnapshotHandle:
    k = key if key is not None else flat.fingerprint
    entry = _published.get(k)
    if entry is not None:
        prev = entry[0]
        if prev.fingerprint == flat.fingerprint and prev.version == flat.version:
            return prev
        _drop_published(k)
    segment_name: str | None = None
    seg: Any = None
    nbytes = flat.nbytes
    if shm_available():
        name = _segment_name(flat.fingerprint, flat.version)
        try:
            seg = _create_segment(name, nbytes)
            ipb, idb, wb = flat.buffers()
            o1 = len(ipb)
            o2 = o1 + len(idb)
            buf = seg.buf
            buf[:o1] = ipb
            buf[o1:o2] = idb
            buf[o2:o2 + len(wb)] = wb
            segment_name = name
            _counters["shm_creates"] += 1
            _counters["shm_bytes"] += nbytes
        except Exception as exc:
            if seg is not None:
                try:
                    seg.close()
                    seg.unlink()
                except Exception:
                    pass
            seg = None
            _note_failure(exc)
    else:
        _note_failure("shared memory not available on this platform")
    handle = SnapshotHandle(
        key=k,
        fingerprint=flat.fingerprint,
        version=flat.version,
        n=flat.n,
        m2=flat.m2,
        integral=flat.integral,
        wmax=flat.wmax,
        spec=flat.spec,
        segment=segment_name,
        nbytes=nbytes,
    )
    _published[k] = (handle, seg, flat)
    return handle


def _flat_from_segment(seg: mmap.mmap, handle: SnapshotHandle) -> FlatGraph:
    o1 = 8 * (handle.n + 1)
    o2 = o1 + 8 * handle.m2
    o3 = o2 + 8 * handle.m2
    mv = memoryview(seg)
    flat = FlatGraph(
        handle.n,
        mv[:o1].cast("q"),
        mv[o1:o2].cast("q"),
        mv[o2:o3].cast("d"),
        integral=handle.integral,
        wmax=handle.wmax,
        spec=handle.spec,
        version=handle.version,
    )
    flat._fp = handle.fingerprint  # trusted: content-addressed at publish
    return flat


def attach(handle: SnapshotHandle) -> FlatGraph:
    """Resolve a handle to a :class:`FlatGraph`, cheapest path first.

    Publisher-local copy -> process-local attachment cache -> zero-copy
    shared segment -> generator-spec rebuild.  Raises
    :class:`SnapshotUnavailable` only when every level fails *and* the
    handle carries no rebuild spec.

    The cache keeps the ``_MAX_ATTACHED`` most recently used attachments
    (and rebuilds).  An evicted mapping stays valid for every cell still
    holding its ``FlatGraph`` — the views pin it — and is unmapped, its
    descriptor closed, once the last of them is gone.
    """
    entry = _published.get(handle.key)
    if (
        entry is not None
        and entry[0].fingerprint == handle.fingerprint
        and entry[0].version == handle.version
    ):
        _counters["shm_local_hits"] += 1
        return entry[2]
    ck = (handle.fingerprint, handle.version)
    flat = _attached.pop(ck, None)
    if flat is not None:
        _attached[ck] = flat  # most recently used last
        _counters["shm_local_hits"] += 1
        return flat
    if handle.segment is not None:
        try:
            seg = _map_segment(handle.segment, handle.nbytes)
        except Exception as exc:
            _note_failure(exc)
        else:
            _counters["shm_attaches"] += 1
            return _cache_attached(ck, _flat_from_segment(seg, handle))
    if handle.spec is not None:
        _counters["shm_rebuilds"] += 1
        return _cache_attached(ck, build_spec(handle.spec))
    raise SnapshotUnavailable(
        f"snapshot {handle.fingerprint}/v{handle.version}: segment "
        f"{handle.segment!r} unreachable and no rebuild spec"
    )


def _cache_attached(ck: tuple[str, int], flat: FlatGraph) -> FlatGraph:
    _attached[ck] = flat
    if len(_attached) > _MAX_ATTACHED:
        _attached.popitem(last=False)
    return flat


def build_spec(spec: tuple[Any, ...]) -> FlatGraph:
    """Rebuild a streamed graph from its generator spec (the last resort)."""
    from . import generators as gen

    kind = spec[0]
    if kind == "lower_bound":
        return gen.lower_bound_flat(spec[1], spec[2])
    if kind == "lower_bound_split":
        return gen.lower_bound_split_flat(spec[1], spec[2], spec[3])
    if kind == "random_connected":
        return gen.random_connected_flat(
            spec[1], spec[2], seed=spec[3], max_weight=spec[4]
        )
    raise SnapshotUnavailable(f"unknown snapshot spec {spec!r}")


def _drop_published(key: str) -> None:
    handle, seg, _flat = _published.pop(key)
    if seg is not None:
        try:
            seg.close()
            seg.unlink()
        except Exception:
            pass
        _counters["shm_bytes"] -= handle.nbytes


def unlink_all() -> int:
    """Close and unlink every segment this process published."""
    n = 0
    for key in list(_published):
        if _published[key][1] is not None:
            n += 1
        _drop_published(key)
    return n


def detach_all() -> int:
    """Forget every attachment (mappings are released when views die)."""
    n = len(_attached)
    _attached.clear()
    return n


def shutdown() -> None:
    """Full teardown: drop attachments and unlink published segments."""
    detach_all()
    unlink_all()


def stats() -> dict[str, Any]:
    """Snapshot transport counters (parent or worker side, per process)."""
    out: dict[str, Any] = dict(_counters)
    out["shm_segments"] = sum(1 for _h, seg, _f in _published.values() if seg is not None)
    out["shm_available"] = shm_available()
    return out


def reset_for_tests() -> None:
    """Tear down all state and zero the counters (test isolation helper)."""
    global _warned, _available
    shutdown()
    for c in _counters:
        _counters[c] = 0
    _warned = False
    _available = None


def _after_fork_in_child() -> None:
    """Disown inherited publisher state in forked children.

    Pool workers are forked from the publishing process, so they inherit
    the registry — including live segment wrappers.  A child must never
    tear those down: its ``atexit`` :func:`shutdown` would otherwise
    unlink segments the parent still serves (e.g. on a mid-session pool
    rebuild), and ``close()`` on an inherited wrapper raises
    ``BufferError`` while views are exported.  Disarm and retain the
    wrappers, clear the registries so workers resolve handles through the
    real :func:`attach` path, and zero the counters so worker-side
    :func:`stats` reports only the child's own transport activity.  The
    publish lock is replaced: another thread may have held it at the fork.
    """
    global _publish_lock
    _publish_lock = threading.Lock()
    for _handle, seg, _flat in _published.values():
        if seg is not None:
            seg.close = lambda: None
            seg.unlink = lambda: None
            _retained.append(seg)
    _published.clear()
    _attached.clear()
    for c in _counters:
        _counters[c] = 0


if hasattr(os, "register_at_fork"):  # POSIX only; spawn needs no disowning
    os.register_at_fork(after_in_child=_after_fork_in_child)

atexit.register(shutdown)
