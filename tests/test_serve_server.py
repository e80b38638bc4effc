"""TCP wire protocol end-to-end: frame, verify, decode, shut down.

Runs a real ``ServeServer`` on an ephemeral port inside a background
event loop and talks to it with the blocking :class:`TCPServeClient` —
the exact shape ``python -m repro.serve`` deploys, minus the process
boundary (``scripts/serve_smoke.py`` covers that in CI).  A scripted
socket stands in for the server where a test needs a broken frame.
"""

import asyncio
import contextlib
import hashlib
import json
import socket
import threading
import time

import pytest

from repro.obs import load_jsonl
from repro.replay import verify_trace
from repro.serve import ServeError, ServeServer, ServeService, TCPServeClient
from repro.serve.address import payload_bytes
from repro.serve.server import MAX_REQUEST_BYTES

CHAOS = {"kind": "chaos", "protocol": "broadcast", "n": 8, "extra_edges": 6,
         "graph_seed": 3, "backend": "python"}
TRACE = {"kind": "trace", "protocol": "dfs", "n": 8, "extra_edges": 6,
         "graph_seed": 3, "backend": "python"}
SWEEP = {"kind": "sweep", "n": 8, "extra_edges": 6, "graph_seed": 3,
         "drop_rates": [0.0, 0.2], "backend": "python"}
SNAPSHOT = {"kind": "snapshot", "spec": ["random_connected", 40, 60],
            "limit": 8, "backend": "python"}
REQUESTS = {"chaos": CHAOS, "trace": TRACE, "sweep": SWEEP,
            "snapshot": SNAPSHOT}


class _Harness:
    """ServeServer on a private loop thread, bound to an ephemeral port."""

    def __init__(self, tmp_path):
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever,
                                       daemon=True)
        self.thread.start()
        self.service = self._call(self._make_service(str(tmp_path / "cache")))
        self.server = ServeServer(self.service, port=0)
        self.host, self.port = self._call(self.server.start())

    @staticmethod
    async def _make_service(cache_dir):
        return ServeService(cache_dir=cache_dir)

    def _call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(
            timeout=120)

    def close(self):
        if self.thread.is_alive():
            self._call(self.server.close())
            self.loop.call_soon_threadsafe(self.loop.stop)
            self.thread.join(timeout=30)
            self.loop.close()


@pytest.fixture
def harness(tmp_path):
    h = _Harness(tmp_path)
    yield h
    h.close()


def test_tcp_roundtrip_cold_then_cached_byte_identical(harness):
    with TCPServeClient(harness.host, harness.port) as client:
        cold = client.request(CHAOS)
        cached = client.request(CHAOS)
    assert cold["source"] == "executed" and cached["source"] == "cache"
    assert cold["body"] == cached["body"] == payload_bytes(cold["payload"])
    assert cold["payload_sha"] == cached["payload_sha"]
    assert cold["nbytes"] == len(cold["body"])


def test_tcp_sweep_frame_decodes_to_rows(harness):
    with TCPServeClient(harness.host, harness.port) as client:
        resp = client.request(SWEEP)
    assert resp["kind"] == "sweep"
    assert isinstance(resp["payload"], list) and len(resp["payload"]) > 0
    assert payload_bytes(resp["payload"]) == resp["body"]


def test_tcp_trace_frame_decodes_to_the_document(harness):
    with TCPServeClient(harness.host, harness.port) as client:
        cold = client.request(TRACE)
        cached = client.request(TRACE)
    assert cached["source"] == "cache" and cached["body"] == cold["body"]
    assert isinstance(cached["payload"], str)
    # The decoded text is a trace document that still replays.
    report = verify_trace(load_jsonl(cached["payload"]))
    assert report.ok, report.describe()


@pytest.mark.parametrize("kind", sorted(REQUESTS))
def test_tcp_every_source_carries_the_same_bytes(harness, monkeypatch, kind):
    import repro.serve.service as service_mod

    real = service_mod.execute_request

    def slow(canon, jobs=None):
        time.sleep(0.3)  # long enough for a second connection to join
        return real(canon, jobs=jobs)

    monkeypatch.setattr(service_mod, "execute_request", slow)
    request = REQUESTS[kind]
    with TCPServeClient(harness.host, harness.port) as a, \
            TCPServeClient(harness.host, harness.port) as b:
        first: list = []
        runner = threading.Thread(target=lambda: first.append(a.request(request)))
        runner.start()
        deadline = time.monotonic() + 30
        while harness.service.inflight == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        joined = b.request(request)
        runner.join(timeout=120)
        assert not runner.is_alive()
        cached = a.request(request)
    responses = [first[0], joined, cached]
    assert [r["source"] for r in responses] == ["executed", "coalesced", "cache"]
    assert len({r["body"] for r in responses}) == 1
    assert len({r["payload_sha"] for r in responses}) == 1
    assert payload_bytes(cached["payload"]) == cached["body"]


def test_tcp_bad_requests_get_error_lines_not_disconnects(harness):
    with TCPServeClient(harness.host, harness.port) as client:
        with pytest.raises(ServeError, match="kind"):
            client.request({"kind": "nope"})
        # The connection survives an error line: next request still works.
        assert client.request(CHAOS)["kind"] == "chaos"


def test_tcp_malformed_json_line(harness):
    with socket.create_connection((harness.host, harness.port),
                                  timeout=30) as sock:
        f = sock.makefile("rwb")
        f.write(b"this is not json\n")
        f.flush()
        doc = json.loads(f.readline())
        assert doc["type"] == "error" and "bad JSON" in doc["error"]
        f.write(b'"not an object"\n')
        f.flush()
        doc = json.loads(f.readline())
        assert doc["type"] == "error" and "object" in doc["error"]


def test_tcp_oversized_line_gets_an_error_and_keeps_the_connection(harness):
    with socket.create_connection((harness.host, harness.port),
                                  timeout=30) as sock:
        f = sock.makefile("rwb")
        # Three limits' worth: the server overruns its buffer more than
        # once before the newline arrives.
        f.write(b"x" * (3 * MAX_REQUEST_BYTES) + b"\n")
        f.write(json.dumps({"op": "ping"}).encode() + b"\n")
        f.flush()
        doc = json.loads(f.readline())
        assert doc["type"] == "error" and "too long" in doc["error"]
        assert json.loads(f.readline())["type"] == "pong"


def test_tcp_ops_stats_and_ping(harness):
    with TCPServeClient(harness.host, harness.port) as client:
        client.request(CHAOS)
        client.request(CHAOS)
        stats = client.stats()
        assert stats["hits"] == 1 and stats["misses"] == 1
        assert stats["store"]["entries"] == 1
        pong = client.ping()
        assert pong["type"] == "pong" and pong["closing"] is False


def test_tcp_unknown_op_errors(harness):
    with socket.create_connection((harness.host, harness.port),
                                  timeout=30) as sock:
        f = sock.makefile("rwb")
        f.write(json.dumps({"op": "flush"}).encode() + b"\n")
        f.flush()
        doc = json.loads(f.readline())
        assert doc["type"] == "error" and "unknown op" in doc["error"]


def test_server_close_refuses_new_connections(harness):
    with TCPServeClient(harness.host, harness.port) as client:
        client.request(CHAOS)
    harness.close()
    with pytest.raises(OSError):
        socket.create_connection((harness.host, harness.port), timeout=2)


# --------------------------------------------------------------------- #
# Broken frames: a scripted server sends them
# --------------------------------------------------------------------- #

BODY = payload_bytes({"messages": 40, "rounds": 7, "status": "ok"})


def _meta(body: bytes) -> bytes:
    return json.dumps({
        "type": "meta", "address": "0" * 64, "kind": "chaos",
        "source": "cache", "cached": True, "nbytes": len(body),
        "payload_sha": hashlib.sha256(body).hexdigest(),
    }).encode() + b"\n"


@contextlib.contextmanager
def _scripted_server(reply: bytes, *, hold_open: bool):
    """A one-connection server that reads a request line, sends ``reply``
    and then closes, or keeps the connection open while the test runs."""
    listener = socket.create_server(("127.0.0.1", 0))
    release = threading.Event()

    def serve():
        conn, _ = listener.accept()
        with conn, conn.makefile("rb") as f:
            f.readline()
            conn.sendall(reply)
            if hold_open:
                release.wait(60)

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[:2]
    finally:
        release.set()
        thread.join(timeout=30)
        listener.close()


@pytest.mark.parametrize("hold_open", [False, True],
                         ids=["closed", "stalled"])
def test_tcp_frame_cut_short_is_serve_error(hold_open):
    reply = _meta(BODY) + BODY[: len(BODY) // 2]
    with _scripted_server(reply, hold_open=hold_open) as (host, port):
        client = TCPServeClient(host, port, timeout=1.0)
        t0 = time.monotonic()
        with pytest.raises(ServeError, match="mid-response"):
            client.request(CHAOS)
        assert time.monotonic() - t0 < 10
        client.close()


def test_tcp_flipped_byte_in_transit_is_serve_error():
    flipped = BODY.replace(b'"rounds":7', b'"rounds":8')
    assert len(flipped) == len(BODY) and flipped != BODY
    reply = _meta(BODY) + flipped
    with _scripted_server(reply, hold_open=False) as (host, port):
        client = TCPServeClient(host, port, timeout=10.0)
        with pytest.raises(ServeError, match="integrity"):
            client.request(CHAOS)
        client.close()
