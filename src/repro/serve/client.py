"""Clients: in-process :class:`ServeClient` and wire-level
:class:`TCPServeClient`.

``ServeClient`` owns a :class:`~repro.serve.service.ServeService` on a
dedicated background event loop thread, so synchronous code — tests, the
bench harness — gets the full async semantics (single-flight coalescing,
admission, graceful shutdown) without running a server or an event loop
of its own.  ``request_many`` submits a batch concurrently, which is how
the coalescing bench produces N simultaneous duplicates.  Both clients
decode ``payload`` from the payload's canonical bytes (``body``) once.

``TCPServeClient`` is a deliberately dumb blocking-socket client for the
wire protocol (:mod:`repro.serve.server`): it reads the ``meta`` line
and the ``nbytes`` frame after it, and re-verifies the SHA-256 the
server announced over the bytes it received before decoding them —
transport integrity checked at the edge, same as the store checks at
rest.  A frame cut short, by a closed connection or a read timeout, is a
:class:`~repro.serve.service.ServeError`, never a partial payload.
"""

from __future__ import annotations

import asyncio
import hashlib
import json
import socket
import threading
from typing import Any

from .service import ServeError, ServeService

__all__ = ["ServeClient", "TCPServeClient"]


class ServeClient:
    """Synchronous in-process client over a private event loop thread.

    The keyword arguments are :class:`ServeService`'s: with ``jobs > 1``
    every cold request runs in a persistent pool of that many worker
    processes, and with ``jobs=None`` (the default) in this process.
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
        """Serve one request; returns the service's response
        (:meth:`ServeService.submit`) with ``payload`` decoded from its
        ``body``."""
        return _decoded(self._run(self.service.submit(request)))

    def request_many(self, requests: list[dict]) -> list[dict]:
        """Submit ``requests`` *concurrently* and return responses in
        order.  Identical requests in the batch coalesce onto a single
        execution — the duplicate-heavy path the single-flight tests pin."""

        async def gather() -> list[dict]:
            return await asyncio.gather(
                *(self.service.submit(r) for r in requests)
            )

        return [_decoded(r) for r in self._run(gather())]

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
    """Blocking client for ``python -m repro.serve``."""

    def __init__(self, host: str, port: int, *, timeout: float = 300.0) -> None:
        self._sock = socket.create_connection((host, port), timeout=timeout)
        self._file = self._sock.makefile("rwb")

    def _send(self, doc: dict) -> None:
        self._file.write((json.dumps(doc) + "\n").encode())
        self._file.flush()

    def _read(self, nbytes: int | None = None) -> bytes:
        """One line, or exactly ``nbytes`` bytes; ServeError if the
        connection ends or times out first."""
        try:
            if nbytes is None:
                data = self._file.readline()
                short = not data
            else:
                data = self._file.read(nbytes)
                short = len(data) != nbytes
        except OSError as exc:  # a timeout included
            raise ServeError(f"connection failed mid-response: {exc}") from exc
        if short:
            raise ServeError("server closed the connection mid-response")
        return data

    def _read_doc(self) -> dict:
        raw = self._read()
        try:
            doc = json.loads(raw)
        except ValueError as exc:
            raise ServeError(f"malformed response line: {raw[:80]!r}") from exc
        if doc.get("type") == "error":
            raise ServeError(doc.get("error", "unknown server error"))
        return doc

    def request(self, request: dict) -> dict:
        """Send one request; read, verify and decode its frame.

        Returns ``{"address", "kind", "source", "cached", "payload_sha",
        "nbytes", "body", "payload"}``; raises :class:`ServeError` on an
        error line, on a frame cut short and on a frame that fails SHA-256
        re-verification.
        """
        self._send(request)
        meta = self._read_doc()
        if meta.get("type") != "meta":
            raise ServeError(f"unexpected response line {meta.get('type')!r}")
        body = self._read(meta["nbytes"])
        if hashlib.sha256(body).hexdigest() != meta["payload_sha"]:
            raise ServeError("payload failed integrity re-verification in transit")
        return {
            "address": meta["address"],
            "kind": meta["kind"],
            "source": meta["source"],
            "cached": meta["cached"],
            "payload_sha": meta["payload_sha"],
            "nbytes": meta["nbytes"],
            "body": body,
            "payload": json.loads(body),
        }

    def stats(self) -> dict:
        self._send({"op": "stats"})
        return self._read_doc()["stats"]

    def ping(self) -> dict:
        self._send({"op": "ping"})
        return self._read_doc()

    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> TCPServeClient:
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


def _decoded(response: dict) -> dict:
    response["payload"] = json.loads(response["body"])
    return response
