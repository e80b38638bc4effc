"""The traced run's span ledger and the wrappers that feed it.

Nothing under ``src/`` records spans, so this module wraps the public
entry points of each layer from outside: :func:`install` replaces them
with thin functions that time the call and hand it to the ledger.

A span is a name, a start, an end and the span that was open when it
started (its parent).  Spans nest per thread on a stack.  When a span
closes, the ledger adds its duration to its name's total and its *self*
time (duration minus the durations of its children) to its name's self
total, and adds its duration to the parent's child time.  Only these
per-name aggregates are kept: the protocol suite alone closes millions of
spans per run.

A call that blocks on another process (``run_parallel`` waiting for
pool workers, a client waiting for the server) is recorded as a *wait*,
not a span: its duration counts as its parent span's child time, so no
layer's self time includes it, and it is added to the lane's wait time,
which the per-layer metrics report under ``trace.other_s``.

Each thread that records spans is a *lane*.  Within a lane the self
times of all spans plus its wait time add up to the time covered by its
root spans and root waits, which :func:`perfbench.layers.layer_metrics` checks.  Pool workers record into their own
process's ledger; the cell function :func:`_traced_call` (installed by the
wrapped ``run_parallel``) ships what a worker recorded back with each
row, and the parent merges it into a separate ``workers`` lane.

:func:`install_run_counter` is separate and cheap (once per simulation
run, not per event): it counts messages, fired events, retries, acks and
drops on every ``Network.run``, traced or not.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
from typing import Any

from .common import clock
from .layers import add_counts, add_spans

_MARK = "__perfbench_span__"


class Lane:
    """Aggregates of the spans one thread closed."""

    __slots__ = ("label", "stack", "spans", "counts", "root_s", "wait_s")

    def __init__(self, label: str) -> None:
        self.label = label
        self.stack: list[list[float]] = []
        #: name -> [calls, total seconds, self seconds]
        self.spans: dict[str, list] = {}
        self.counts: dict[str, float] = {}
        self.root_s = 0.0
        #: Time inside waits that no span inside them covers.
        self.wait_s = 0.0


class Ledger:
    """Per-process span and counter store (one lane per thread)."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.lanes: list[Lane] = []
        #: Aggregates shipped back from pool workers.
        self.workers = Lane("workers")

    def lane(self) -> Lane:
        try:
            return self._local.lane
        except AttributeError:
            ln = Lane(threading.current_thread().name)
            with self._lock:
                self.lanes.append(ln)
            self._local.lane = ln
            return ln

    def call(self, name: str, fn: Any, args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``."""
        try:
            ln = self._local.lane
        except AttributeError:
            ln = self.lane()
        stack = ln.stack
        frame = [0.0, 0.0]  # start, time covered by children
        stack.append(frame)
        frame[0] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = clock() - frame[0]
            stack.pop()
            rec = ln.spans.get(name)
            if rec is None:
                rec = ln.spans[name] = [0, 0.0, 0.0]
            rec[0] += 1
            rec[1] += dur
            rec[2] += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            else:
                ln.root_s += dur

    def wait(self, name: str, fn: Any, args: tuple, kwargs: dict) -> Any:
        """Run ``fn(*args, **kwargs)``, which blocks on another process.

        It nests like a span, but the time no span inside it covers goes
        to the lane's wait time instead of a layer; its whole duration is
        added to the count ``name + "_s"``.
        """
        ln = self.lane()
        stack = ln.stack
        frame = [0.0, 0.0]
        stack.append(frame)
        frame[0] = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = clock() - frame[0]
            stack.pop()
            ln.counts[name + "_s"] = ln.counts.get(name + "_s", 0) + dur
            ln.wait_s += dur - frame[1]
            if stack:
                stack[-1][1] += dur
            else:
                ln.root_s += dur

    def count(self, name: str, k: float = 1) -> None:
        counts = self.lane().counts
        counts[name] = counts.get(name, 0) + k

    def drain(self) -> dict:
        """Everything recorded since the last drain, as plain data; clears it."""
        spans: dict[str, list] = {}
        counts: dict[str, float] = {}
        root_s = wait_s = 0.0
        with self._lock:
            lanes = list(self.lanes)
        for ln in lanes:
            add_spans(spans, ln.spans)
            add_counts(counts, ln.counts)
            root_s += ln.root_s
            wait_s += ln.wait_s
            ln.spans = {}
            ln.counts = {}
            ln.root_s = ln.wait_s = 0.0
        return {"spans": spans, "counts": counts, "root_s": root_s,
                "wait_s": wait_s}

    def merge_workers(self, delta: dict) -> None:
        add_spans(self.workers.spans, delta["spans"])
        add_counts(self.workers.counts, delta["counts"])
        self.workers.root_s += delta["root_s"]
        self.workers.wait_s += delta["wait_s"]

    def lane_data(self) -> list[dict]:
        """Per-lane aggregates (the ``workers`` lane last)."""
        with self._lock:
            lanes = list(self.lanes) + [self.workers]
        return [
            {"label": ln.label, "spans": {k: list(v) for k, v in ln.spans.items()},
             "counts": dict(ln.counts), "root_s": ln.root_s, "wait_s": ln.wait_s}
            for ln in lanes
        ]


LEDGER = Ledger()
_installed = False
_shm_last: dict[str, int] = {}

_SHM_KEYS = ("shm_creates", "shm_attaches", "shm_rebuilds", "shm_failures")


def _after_fork_in_child() -> None:
    # A forked pool worker starts with an empty ledger: what the parent
    # recorded before the fork is the parent's to report.
    global LEDGER
    LEDGER = Ledger()
    _shm_last.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_after_fork_in_child)


# ---------------------------------------------------------------------- #
# Wrapping helpers
# ---------------------------------------------------------------------- #


def _span_wrapper(fn: Any, name: str) -> Any:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        return LEDGER.call(name, fn, args, kwargs)

    setattr(wrapper, _MARK, fn)
    return wrapper


def _patch(owner: Any, attr: str, make: Any) -> None:
    """Replace ``owner.attr`` by ``make(original)``, once.

    For a module attribute, every ``repro`` module that imported the same
    function by name is rebound too, so callers that did
    ``from .x import f`` also go through the wrapper.
    """
    orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
    if isinstance(orig, classmethod):
        if getattr(orig.__func__, _MARK, None) is None:
            inner = make(orig.__func__)
            setattr(inner, _MARK, orig.__func__)
            setattr(owner, attr, classmethod(inner))
        return
    if getattr(orig, _MARK, None) is not None:
        return
    wrapped = make(orig)
    setattr(wrapped, _MARK, orig)
    setattr(owner, attr, wrapped)
    if not isinstance(owner, type):
        for mod in list(sys.modules.values()):
            if (mod is not None and mod.__name__.startswith("repro")
                    and mod.__dict__.get(attr) is orig):
                setattr(mod, attr, wrapped)


def _span(owner: Any, attr: str, name: str) -> None:
    _patch(owner, attr, lambda fn: _span_wrapper(fn, name))


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return out


def _handler_layer(cls: type) -> str | None:
    mod = cls.__module__
    if mod.startswith("repro.synch"):
        return "synch"
    if mod.startswith("repro.faults"):
        return "faults.transport"
    if mod.startswith("repro.sim") or not mod.startswith("repro"):
        return None
    return "protocols"


# ---------------------------------------------------------------------- #
# The always-on run counter
# ---------------------------------------------------------------------- #


def install_run_counter() -> None:
    """Count per-run totals on every ``Network.run`` (both modes)."""
    from repro.sim.network import Network

    orig = Network.__dict__["run"]
    if getattr(orig, "__perfbench_count__", False):
        return

    @functools.wraps(orig)
    def run(self: Any, *args: Any, **kwargs: Any) -> Any:
        try:
            return orig(self, *args, **kwargs)
        finally:
            m = self.metrics
            counts = LEDGER.lane().counts
            for key, k in (
                ("sim.network.messages", m.message_count),
                ("sim.events.fired", self.queue.fired),
                ("faults.transport.retries", m.count_by_tag.get("rel-retry", 0)),
                ("faults.transport.acks", m.count_by_tag.get("rel-ack", 0)),
                ("faults.plan.dropped", m.fault_counts.get("drop", 0)),
            ):
                counts[key] = counts.get(key, 0) + k

    run.__perfbench_count__ = True
    Network.run = run


def lane_counts() -> dict[str, float]:
    """The calling thread's counters (read before/after an operation)."""
    return dict(LEDGER.lane().counts)


# ---------------------------------------------------------------------- #
# Span installation
# ---------------------------------------------------------------------- #


def install() -> None:
    """Wrap every layer's entry points in this process (idempotent)."""
    global _installed
    if _installed:
        return
    import concurrent.futures

    import repro.core.global_function  # noqa: F401  (chaos-case handlers)
    import repro.protocols  # noqa: F401
    import repro.replay  # noqa: F401  (registers the gamma_w chaos case)
    import repro.synch  # noqa: F401
    from repro.experiments import parallel
    from repro.faults import plan, transport
    from repro.graphs import cache, csr, generators, npkernels, shm
    from repro.obs import exporters, profiler, recorder
    from repro.replay import engine
    from repro.serve import service, store
    from repro.sim import events, network, process, sync_runner

    install_run_counter()

    # sim: the event queue and the network's send/deliver plumbing.
    _span(events.EventQueue, "run", "sim.events.run")
    _span(events.EventQueue, "step", "sim.events.step")
    _span(network.Network, "run", "sim.events.loop")
    _span(network.Network, "__init__", "sim.network.init")
    _span(process.Process, "send", "sim.network.send")
    _span(network.Network, "_transmit", "sim.network.transmit")
    _span(network.Network, "_deliver", "sim.network.deliver")
    _span(network.Network, "_deliver_traced", "sim.network.deliver")
    _span(network.Network, "_timer_fire", "sim.network.timer")

    # Protocol, synchronizer and transport handlers, by defining module.
    for base, attrs in ((process.Process, ("on_start", "on_message", "on_recover")),
                        (sync_runner.SynchronousProtocol, ("on_pulse",))):
        for cls in _subclasses(base):
            layer = _handler_layer(cls)
            if layer is None:
                continue
            for attr in attrs:
                if attr in cls.__dict__:
                    _span(cls, attr, f"{layer}.{attr}")
    _span(transport.ReliableProcess, "_send_data", "faults.transport.send")
    _span(transport.ReliableProcess, "_check_ack", "faults.transport.retry")
    _span(plan.FaultPlan, "fate", "faults.plan.fate")

    # obs and replay.
    rec_cls = recorder.TraceRecorder
    for attr in [a for a in rec_cls.__dict__ if a.startswith("record_")]:
        _span(rec_cls, attr, "obs.recorder.record")
    for attr in ("open_span", "close_span", "attach", "finalize"):
        _span(rec_cls, attr, "obs.recorder.span")
    _span(profiler.TraceSummary, "from_recorder", "obs.profiler.summary")
    _span(exporters, "to_jsonl", "obs.exporters.jsonl")
    _span(engine, "record_run", "replay.record")

    # experiments.parallel: dispatch, pool starts and pool tasks.
    _patch(parallel, "run_parallel", _traced_run_parallel)
    _patch(parallel, "_get_pool", _counting_get_pool)
    _patch(concurrent.futures.ProcessPoolExecutor, "map", _counting_map)

    # graphs: generators, cache, shared memory, flat kernels.
    for attr in ("random_connected_graph", "random_connected_flat",
                 "lower_bound_flat", "lower_bound_split_flat"):
        _span(generators, attr, "graphs.build")
    for attr in ("sssp", "eccentricities", "diameter", "max_neighbor_distance",
                 "mst", "mst_weight", "network_params", "flat"):
        _span(cache.GraphParamCache, attr, "graphs.cache")
    _patch(cache.GraphParamCache, "csr", lambda fn: _counting_build(fn, "csr_builds"))
    _patch(cache.GraphParamCache, "npg", lambda fn: _counting_build(fn, "np_builds"))
    _span(shm, "publish", "graphs.shm.publish")
    _span(shm, "attach", "graphs.shm.attach")
    _span(csr, "flat_source_stats", "graphs.kernels.source")
    _span(npkernels, "np_flat_source_stats", "graphs.kernels.source")
    _span(csr, "flat_stripe_stats", "graphs.kernels.stripe")

    # serve: address, store, executor; the service's submit coroutine is
    # timed as an interval (coroutines interleave, so it cannot be a span).
    _span(service, "request_address", "serve.address")
    _patch(store.ResultStore, "get", _store_get)
    _patch(store.ResultStore, "put", _store_put)
    _patch(service, "execute_request", _executor)
    _patch(service.ServeService, "submit", _timed_submit)
    _installed = True


def _traced_run_parallel(orig: Any) -> Any:
    @functools.wraps(orig)
    def run_parallel(fn: Any, cells: Any, **kwargs: Any) -> list:
        out = LEDGER.wait("parallel.run_parallel", orig,
                          (functools.partial(_traced_call, fn, os.getpid()),
                           list(cells)),
                          kwargs)
        rows = []
        for row, delta in out:
            rows.append(row)
            if delta is not None:
                LEDGER.merge_workers(delta)
        return rows

    return run_parallel


def _traced_call(fn: Any, dispatcher: int, cell: Any) -> tuple[Any, dict | None]:
    """Pool cell: run ``fn(cell)`` in a span; ship the worker's ledger back.

    Run in the process that dispatched it (a serial sweep), the spans are
    already in that process's ledger and nothing is shipped.
    """
    install()
    LEDGER.count("parallel.cells")
    row = LEDGER.call("parallel.cell", fn, (cell,), {})
    if os.getpid() == dispatcher:
        return row, None
    from repro.graphs import shm

    now = shm.stats()
    for key in _SHM_KEYS:
        LEDGER.count("graphs.shm." + key[4:], now[key] - _shm_last.get(key, 0))
        _shm_last[key] = now[key]
    return row, LEDGER.drain()


def _counting_get_pool(orig: Any) -> Any:
    @functools.wraps(orig)
    def get_pool(*args: Any, **kwargs: Any) -> Any:
        from repro.experiments import parallel

        before = parallel._pool
        pool = orig(*args, **kwargs)
        if pool is not before:
            LEDGER.count("parallel.pool_starts")
        return pool

    return get_pool


def _counting_map(orig: Any) -> Any:
    @functools.wraps(orig)
    def map_(self: Any, fn: Any, *iterables: Any, timeout: Any = None,
             chunksize: int = 1) -> Any:
        items = [list(it) for it in iterables]
        n = len(items[0]) if items else 0
        LEDGER.count("parallel.batches", -(-n // max(1, chunksize)))
        return orig(self, fn, *items, timeout=timeout, chunksize=chunksize)

    return map_


def _counting_build(orig: Any, stat: str) -> Any:
    @functools.wraps(orig)
    def accessor(self: Any) -> Any:
        before = getattr(self, stat)
        out = LEDGER.call("graphs.cache", orig, (self,), {})
        LEDGER.count("graphs.cache." + stat, getattr(self, stat) - before)
        return out

    return accessor


def _store_get(orig: Any) -> Any:
    @functools.wraps(orig)
    def get(self: Any, address: str) -> Any:
        envelope = LEDGER.call("serve.store.get", orig, (self, address), {})
        if envelope is not None:
            LEDGER.count("serve.store.bytes_read", self._entries.get(address, 0))
        return envelope

    return get


def _store_put(orig: Any) -> Any:
    @functools.wraps(orig)
    def put(self: Any, address: str, canon: dict, payload: Any) -> Any:
        fresh = address not in self._entries
        envelope = LEDGER.call("serve.store.put", orig,
                               (self, address, canon, payload), {})
        if fresh:
            LEDGER.count("serve.store.bytes_written",
                         self._entries.get(address, 0))
        return envelope

    return put


def _executor(orig: Any) -> Any:
    @functools.wraps(orig)
    def execute_request(canon: dict, **kwargs: Any) -> Any:
        return LEDGER.call(f"serve.executor.{canon['kind']}", orig,
                           (canon,), kwargs)

    return execute_request


def _timed_submit(orig: Any) -> Any:
    @functools.wraps(orig)
    async def submit(self: Any, request: dict) -> dict:
        t0 = clock()
        try:
            return await orig(self, request)
        finally:
            LEDGER.count("serve.service.submit_s", clock() - t0)

    return submit
