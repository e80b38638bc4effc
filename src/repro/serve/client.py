"""Clients: in-process :class:`ServeClient` and wire-level
:class:`TCPServeClient`.

``ServeClient`` owns a :class:`~repro.serve.service.ServeService` on a
dedicated background event loop thread, so synchronous code — tests, the
bench harness — gets the full async semantics (single-flight coalescing,
admission, graceful shutdown) without running a server or an event loop
of its own.  ``request_many`` submits a batch concurrently, which is how
the coalescing bench produces N simultaneous duplicates.

``TCPServeClient`` is a deliberately dumb blocking-socket client for the
JSONL wire protocol (:mod:`repro.serve.server`): it reassembles streamed
rows/chunks into the payload and re-verifies the payload SHA-256 the
server announced in its ``end`` line — transport integrity checked at
the edge, same as the store checks at rest.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
from typing import Any

from .address import payload_sha
from .service import ServeError, ServeService

__all__ = ["ServeClient", "TCPServeClient"]


class ServeClient:
    """Synchronous in-process client over a private event loop thread."""

    def __init__(
        self,
        *,
        cache_dir: str | None = None,
        jobs: int | None = None,
        max_entries: int | None = None,
        max_bytes: int | None = None,
        max_pending: int = 128,
    ) -> None:
        self.service = ServeService(
            cache_dir=cache_dir, jobs=jobs, max_entries=max_entries,
            max_bytes=max_bytes, max_pending=max_pending,
        )
        self._loop = asyncio.new_event_loop()
        self._thread = threading.Thread(
            target=self._loop.run_forever, name="repro-serve-client",
            daemon=True,
        )
        self._thread.start()

    def _run(self, coro: Any) -> Any:
        if not self._thread.is_alive():
            coro.close()  # never scheduled; silence the unawaited warning
            raise ServeError("client is closed")
        return asyncio.run_coroutine_threadsafe(coro, self._loop).result()

    def request(self, request: dict) -> dict:
        """Serve one request; returns the response envelope
        (:meth:`ServeService.submit`)."""
        return self._run(self.service.submit(request))

    def request_many(self, requests: list[dict]) -> list[dict]:
        """Submit ``requests`` *concurrently* and return responses in
        order.  Identical requests in the batch coalesce onto a single
        execution — the duplicate-heavy path the single-flight tests pin."""

        async def gather() -> list[dict]:
            return await asyncio.gather(
                *(self.service.submit(r) for r in requests)
            )

        return self._run(gather())

    def stats(self) -> dict:
        """The service's merged stats block."""
        return self.service.stats_snapshot()

    def close(self) -> None:
        """Graceful shutdown: drain in-flight jobs, tear down the pool,
        stop the loop thread.  Idempotent."""
        if self._thread.is_alive():
            try:
                self._run(self.service.shutdown())
            finally:
                self._loop.call_soon_threadsafe(self._loop.stop)
                self._thread.join(timeout=30)
                self._loop.close()

    def __enter__(self) -> ServeClient:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class TCPServeClient:
    """Blocking JSONL client for ``python -m repro.serve``."""

    def __init__(self, host: str, port: int, *, timeout: float = 300.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def _roundtrip_lines(self, doc: dict) -> Any:
        self._file.write((json.dumps(doc) + "\n").encode())
        self._file.flush()
        while True:
            raw = self._file.readline()
            if not raw:
                raise ServeError("server closed the connection mid-response")
            yield json.loads(raw)

    def request(self, request: dict) -> dict:
        """Send one request; reassemble the streamed response.

        Returns ``{"address", "kind", "source", "cached", "payload",
        "payload_sha", "rows", "chunks"}``; raises :class:`ServeError` on
        an error line or on a payload that fails SHA re-verification.
        """
        meta: dict | None = None
        rows: list[Any] = []
        chunks: list[str] = []
        for doc in self._roundtrip_lines(request):
            kind = doc.get("type")
            if kind == "error":
                raise ServeError(doc.get("error", "unknown server error"))
            if kind == "meta":
                meta = doc
            elif kind == "row":
                rows.append(doc["data"])
            elif kind == "chunk":
                chunks.append(doc["data"])
            elif kind == "end":
                assert meta is not None, "end before meta"
                if meta["kind"] == "trace":
                    payload: Any = "".join(chunks)
                elif meta["kind"] == "chaos":
                    payload = rows[0]
                else:
                    payload = rows
                if payload_sha(payload) != doc["payload_sha"]:
                    raise ServeError(
                        "payload failed integrity re-verification in transit"
                    )
                return {
                    "address": meta["address"],
                    "kind": meta["kind"],
                    "source": meta["source"],
                    "cached": meta["cached"],
                    "payload": payload,
                    "payload_sha": doc["payload_sha"],
                    "rows": doc["rows"],
                    "chunks": doc["chunks"],
                }
            else:
                raise ServeError(f"unexpected response line {kind!r}")
        raise ServeError("response ended without an end line")

    def stats(self) -> dict:
        for doc in self._roundtrip_lines({"op": "stats"}):
            if doc.get("type") == "error":
                raise ServeError(doc["error"])
            return doc["stats"]
        raise ServeError("no stats response")

    def ping(self) -> dict:
        for doc in self._roundtrip_lines({"op": "ping"}):
            return doc
        raise ServeError("no ping response")

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> TCPServeClient:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
