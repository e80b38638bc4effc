"""JSON-lines TCP front-end for :class:`~repro.serve.service.ServeService`.

Wire protocol (newline-delimited JSON, UTF-8, one request at a time per
connection):

* client sends one line: either a request dict (see
  :mod:`repro.serve.address`) or an op — ``{"op": "stats"}`` /
  ``{"op": "ping"}``;
* the server answers a request with one ``meta`` line followed by a
  frame of exactly ``nbytes`` raw bytes, the payload's canonical bytes
  (:func:`~repro.serve.address.payload_bytes`) as the store keeps them::

      {"type": "meta", "address": ..., "kind": ..., "source": ..., "cached": ...,
       "payload_sha": ..., "nbytes": N}
      <N bytes>

  or a single ``{"type": "error", "error": "..."}`` line; ops answer with
  one ``{"type": "stats"|"pong", ...}`` line.

A cache hit is served as the bytes the store verified, never decoded or
re-encoded here; the client checks ``payload_sha`` over the frame it
received.  Malformed JSON gets an error line, and so does a request line
longer than :data:`MAX_REQUEST_BYTES`: its input is discarded up to its
newline and the connection stays open.
"""

from __future__ import annotations

import asyncio
import json

from .address import RequestError
from .service import ServeError, ServeService

__all__ = ["ServeServer", "MAX_REQUEST_BYTES"]

#: Upper bound on one request line (a request is a few hundred bytes of
#: knobs; anything bigger is a client bug, not a workload).
MAX_REQUEST_BYTES = 1 << 20


def _line(doc: dict) -> bytes:
    return (json.dumps(doc, sort_keys=True) + "\n").encode()


class ServeServer:
    """Asyncio TCP server wrapping one :class:`ServeService`."""

    def __init__(self, service: ServeService, *, host: str = "127.0.0.1",
                 port: int = 0) -> None:
        self.service = service
        self.host = host
        self.port = port
        self._server: asyncio.base_events.Server | None = None

    async def start(self) -> tuple[str, int]:
        """Bind and start accepting; returns the bound ``(host, port)``
        (``port=0`` requests an ephemeral port)."""
        self._server = await asyncio.start_server(
            self._handle, self.host, self.port,
            limit=MAX_REQUEST_BYTES,
        )
        sock = self._server.sockets[0]
        self.host, self.port = sock.getsockname()[:2]
        return self.host, self.port

    async def serve_forever(self) -> None:
        assert self._server is not None, "start() first"
        await self._server.serve_forever()

    async def close(self) -> None:
        """Graceful stop: refuse new connections, drain the service (all
        in-flight jobs finish), then tear the pool down."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        await self.service.shutdown()

    # ------------------------------------------------------------------ #
    # Connection handling
    # ------------------------------------------------------------------ #

    async def _handle(self, reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        try:
            while True:
                raw = await _read_line(reader)
                if raw is None:
                    writer.write(_line({"type": "error",
                                        "error": "request line too long"}))
                    await writer.drain()
                    continue
                if not raw:
                    break
                try:
                    request = json.loads(raw)
                except json.JSONDecodeError as exc:
                    writer.write(_line({"type": "error",
                                        "error": f"bad JSON: {exc}"}))
                    await writer.drain()
                    continue
                if not isinstance(request, dict):
                    writer.write(_line({"type": "error",
                                        "error": "request must be an object"}))
                    await writer.drain()
                    continue
                if "op" in request:
                    await self._handle_op(request, writer)
                else:
                    await self._handle_request(request, writer)
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass  # client went away mid-response; nothing to salvage
        finally:
            try:
                writer.close()
                await writer.wait_closed()
            except Exception:
                pass

    async def _handle_op(self, request: dict,
                         writer: asyncio.StreamWriter) -> None:
        op = request.get("op")
        if op == "stats":
            writer.write(_line({"type": "stats",
                                "stats": self.service.stats_snapshot()}))
        elif op == "ping":
            writer.write(_line({"type": "pong",
                                "closing": self.service.closing}))
        else:
            writer.write(_line({"type": "error",
                                "error": f"unknown op {op!r}"}))

    async def _handle_request(self, request: dict,
                              writer: asyncio.StreamWriter) -> None:
        try:
            response = await self.service.submit(request)
        except (RequestError, ServeError) as exc:
            writer.write(_line({"type": "error",
                                "error": str(exc),
                                "error_kind": type(exc).__name__}))
            return
        body = response["body"]
        writer.write(_line({
            "type": "meta",
            "address": response["address"],
            "kind": response["kind"],
            "source": response["source"],
            "cached": response["cached"],
            "payload_sha": response["payload_sha"],
            "nbytes": len(body),
        }))
        writer.write(body)


async def _read_line(reader: asyncio.StreamReader) -> bytes | None:
    """The next request line (``b""`` at end of input), or ``None`` for a
    line longer than :data:`MAX_REQUEST_BYTES`, which is read and
    discarded up to its newline so the next line parses cleanly."""
    oversized = False
    while True:
        try:
            line = await reader.readuntil(b"\n")
        except asyncio.IncompleteReadError as exc:
            line = exc.partial  # end of input, maybe after a last bare line
        except asyncio.LimitOverrunError as exc:
            # The newline is not within the limit: drop what is buffered
            # of this line (up to the newline if it has arrived) and go on.
            await reader.readexactly(exc.consumed)
            oversized = True
            continue
        return None if oversized else line
