"""The asyncio service core: cache, single-flight, admission, teardown.

Request lifecycle::

    submit(request)
      -> canonicalize + address          (RequestError on bad requests)
      -> persistent store lookup         (hit: integrity-checked bytes)
      -> in-flight table lookup          (coalesce onto the running job)
      -> capacity-limited admission      (ServeError when over capacity)
      -> execute on the engine           (in a thread; pool fan-out inside)
      -> store + resolve all waiters

**Single-flight**: identical requests that arrive while one is executing
await the same future — one execution, N responses, ``coalesced`` counted
per joined waiter.  In-flight futures resolve to ``("ok", stored)`` /
``("err", message)`` tuples rather than raw exceptions so an abandoned
waiter can never trip asyncio's unretrieved-exception warning.

**Teardown ordering** (the regression this module pins): a closing
service *drains every in-flight job before* ``shutdown_pool()`` unlinks
the shared-memory graph segments.  The reverse order would yank segments
out from under live snapshot cells mid-request; with the drain, a request
racing shutdown either completes normally (admitted before the close) or
is refused with a clean :class:`ServeError` (arrived after) — never a
crash.

Cold executions are serialized through one executor slot: the persistent
process pool is a process-global singleton whose creation and disposal
take no lock, so concurrent ``run_parallel`` calls from multiple threads
would race them.  Parallelism comes from *inside* a request (pool fan-out
over its cells) and from hits/coalesces being served concurrently, which
is exactly the duplicate-heavy workload the service exists for.
"""

from __future__ import annotations

import asyncio
import time
from typing import Any

from .address import request_address
from .executor import execute_request
from .stats import ServeStats
from .store import ResultStore, StoredResult

__all__ = ["ServeError", "ServeService"]


class ServeError(RuntimeError):
    """The service refused or failed a request (shutdown, capacity,
    execution failure) — the client-visible error, never a crash."""


class ServeService:
    """Async front-end over the deterministic sweep engine.

    Parameters
    ----------
    cache_dir:
        Root of the persistent :class:`ResultStore`; ``None`` keeps
        results in memory only.
    jobs:
        Worker count handed to the engine for cold requests (``None`` =
        serial in-process; the engine's own plan may fall back anyway).
    max_entries / max_bytes:
        Store capacity bounds (FIFO eviction).
    max_pending:
        Admission limit on concurrently admitted requests (hits and
        coalesces included — admission is what bounds memory, not
        execution).  Requests beyond it are refused with
        :class:`ServeError`, mirroring the latency+capacity model's
        bounded-capacity links.
    """

    def __init__(
        self,
        *,
        cache_dir: str | None = None,
        jobs: int | None = None,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        max_pending: int = 128,
    ) -> None:
        if max_pending < 1:
            raise ValueError(f"max_pending must be >= 1, got {max_pending}")
        self.store = ResultStore(cache_dir, max_entries=max_entries,
                                 max_bytes=max_bytes)
        self.stats = ServeStats()
        self.jobs = jobs
        self.max_pending = max_pending
        self._inflight: dict[str, asyncio.Future] = {}
        self._exec_lock: asyncio.Lock = asyncio.Lock()
        self._closing = False
        self._closed = False

    # ------------------------------------------------------------------ #
    # Submission
    # ------------------------------------------------------------------ #

    async def submit(self, request: dict) -> dict:
        """Serve one request; returns a response dict.

        The response carries ``address``, ``kind``, ``payload_sha``,
        ``body`` (the payload's canonical bytes, as the store keeps them;
        never parsed here), and a ``source`` field naming which path
        answered: ``"cache"`` (store hit), ``"coalesced"`` (joined an
        in-flight execution), or ``"executed"`` (cold).  The body is
        identical across all three sources for the same address.

        Raises :class:`RequestError` for malformed requests and
        :class:`ServeError` for refused/failed ones.
        """
        if self._closing:
            raise ServeError("service is shutting down; request refused")
        canon, address = request_address(request)
        if self.stats.queue_depth >= self.max_pending:
            self.stats.rejected += 1
            raise ServeError(
                f"over capacity ({self.max_pending} requests pending)"
            )
        self.stats.enter()
        t0 = time.perf_counter()  # repro: allow RS003 -- service-time metric, not simulation state
        try:
            return await self._serve(canon, address, t0)
        finally:
            self.stats.exit()

    async def _serve(self, canon: dict, address: str, t0: float) -> dict:
        stored = self.store.get(address)
        self.stats.integrity_failures = self.store.integrity_failures
        if stored is not None:
            self.stats.hits += 1
            return self._respond(stored, "cache", t0)
        pending = self._inflight.get(address)
        if pending is not None:
            self.stats.coalesced += 1
            status, value = await asyncio.shield(pending)
            if status != "ok":
                raise ServeError(f"coalesced request failed: {value}")
            return self._respond(value, "coalesced", t0)
        loop = asyncio.get_running_loop()
        future: asyncio.Future = loop.create_future()
        self._inflight[address] = future
        try:
            async with self._exec_lock:
                payload = await asyncio.to_thread(
                    execute_request, canon, jobs=self.jobs
                )
            stored = self.store.put(address, canon, payload)
            self.stats.misses += 1
            self.stats.evictions = self.store.evictions
            future.set_result(("ok", stored))
            return self._respond(stored, "executed", t0)
        except Exception as exc:
            self.stats.errors += 1
            future.set_result(("err", f"{type(exc).__name__}: {exc}"))
            raise ServeError(
                f"execution failed for {canon['kind']} request: {exc}"
            ) from exc
        finally:
            del self._inflight[address]

    def _respond(self, stored: StoredResult, source: str, t0: float) -> dict:
        elapsed = time.perf_counter() - t0  # repro: allow RS003 -- service-time metric
        self.stats.record_time(elapsed)
        return {
            "address": stored.address,
            "kind": stored.kind,
            "payload_sha": stored.payload_sha,
            "body": stored.body,
            "source": source,
            "cached": source != "executed",
        }

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def closing(self) -> bool:
        return self._closing

    @property
    def inflight(self) -> int:
        """Distinct executions currently running (not counting waiters)."""
        return len(self._inflight)

    def stats_snapshot(self) -> dict[str, Any]:
        """The ServeStats block merged with the store's counters."""
        snap = self.stats.snapshot()
        snap["store"] = self.store.stats()
        snap["inflight"] = self.inflight
        snap["jobs"] = self.jobs
        snap["closing"] = self._closing
        return snap

    # ------------------------------------------------------------------ #
    # Teardown
    # ------------------------------------------------------------------ #

    async def drain(self) -> None:
        """Wait for every in-flight execution to finish (never raises:
        in-flight futures resolve to status tuples)."""
        while self._inflight:
            await asyncio.gather(*list(self._inflight.values()))

    async def shutdown(self) -> None:
        """Stop admitting, drain in-flight jobs, then tear down the pool.

        Ordering is the contract: the pool (and with it the published
        shared-memory graph segments) is only torn down *after* the last
        in-flight job finished, so no running cell ever loses its segment.
        Idempotent; every submit after the first call raises
        :class:`ServeError`.
        """
        if self._closed:
            return
        self._closing = True
        await self.drain()
        from ..experiments.parallel import shutdown_pool

        # shutdown_pool() disposes the persistent workers *and* unlinks
        # every published segment — safe only now that nothing is in
        # flight.  Runs in a thread: pool shutdown blocks on worker join.
        await asyncio.to_thread(shutdown_pool)
        self._closed = True
