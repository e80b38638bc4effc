"""ServeService/ServeClient: cache identity, single-flight, teardown.

The acceptance bar this file pins:

* cached responses are **byte-identical** to cold ones for every request
  kind (``payload_bytes`` equality, not just equal dicts);
* single-flight dedupe produces **exact** ServeStats counts — N
  identical concurrent requests = 1 miss + (N-1) coalesces, replays of a
  stored address = pure hits;
* shutdown drains in-flight jobs **before** the pool (and its shm
  segments) is torn down, and a request racing shutdown gets a clean
  :class:`ServeError`, never a crash.
"""

import asyncio
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.obs import load_jsonl
from repro.replay import verify_trace
from repro.serve import (
    ServeClient,
    ServeError,
    ServeService,
    payload_bytes,
)

REQUESTS = {
    "sweep": {"kind": "sweep", "n": 8, "extra_edges": 6, "graph_seed": 3,
              "drop_rates": [0.0, 0.2], "backend": "python"},
    "chaos": {"kind": "chaos", "protocol": "broadcast", "n": 8,
              "extra_edges": 6, "graph_seed": 3, "backend": "python"},
    "snapshot": {"kind": "snapshot", "spec": ["random_connected", 40, 60],
                 "limit": 8, "backend": "python"},
    "trace": {"kind": "trace", "protocol": "dfs", "n": 8, "extra_edges": 6,
              "graph_seed": 3, "limit": 50, "backend": "python"},
}


@pytest.fixture
def client(tmp_path):
    c = ServeClient(cache_dir=str(tmp_path / "cache"))
    yield c
    c.close()


# --------------------------------------------------------------------- #
# Byte-identical cold vs cached, all four kinds
# --------------------------------------------------------------------- #

@pytest.mark.parametrize("kind", sorted(REQUESTS))
def test_cached_response_byte_identical_to_cold(client, kind):
    request = REQUESTS[kind]
    cold = client.request(request)
    cached = client.request(request)
    assert cold["source"] == "executed" and cold["cached"] is False
    assert cached["source"] == "cache" and cached["cached"] is True
    assert cached["address"] == cold["address"]
    assert payload_bytes(cached["payload"]) == payload_bytes(cold["payload"])
    assert cached["payload_sha"] == cold["payload_sha"]


def test_cache_survives_client_restart(tmp_path):
    with ServeClient(cache_dir=str(tmp_path / "cache")) as c:
        cold = c.request(REQUESTS["chaos"])
    with ServeClient(cache_dir=str(tmp_path / "cache")) as c:
        warm = c.request(REQUESTS["chaos"])
        assert warm["source"] == "cache"
        assert payload_bytes(warm["payload"]) == payload_bytes(cold["payload"])


def test_cached_trace_payload_still_verifies(client):
    cold = client.request(REQUESTS["trace"])
    cached = client.request(REQUESTS["trace"])
    # The cached artifact is not just identical bytes — it is still an
    # *executable* trace: replay it and assert byte-identity end-to-end.
    report = verify_trace(load_jsonl(cached["payload"]))
    assert report.ok, report.describe()
    assert cached["payload"] == cold["payload"]


# --------------------------------------------------------------------- #
# Single-flight: exact ServeStats accounting
# --------------------------------------------------------------------- #

def test_single_flight_counts_exactly(client):
    n = 5
    responses = client.request_many([dict(REQUESTS["chaos"])] * n)
    sources = sorted(r["source"] for r in responses)
    assert sources == ["coalesced"] * (n - 1) + ["executed"]
    shas = {r["payload_sha"] for r in responses}
    assert len(shas) == 1
    stats = client.stats()
    assert stats["misses"] == 1
    assert stats["coalesced"] == n - 1
    assert stats["hits"] == 0
    # Replaying the same batch is now pure cache hits — exact count.
    replay = client.request_many([dict(REQUESTS["chaos"])] * n)
    assert all(r["source"] == "cache" for r in replay)
    stats = client.stats()
    assert stats["hits"] == n
    assert stats["misses"] == 1 and stats["coalesced"] == n - 1
    assert stats["served"] == 2 * n


def test_equivalent_spellings_share_one_execution(client):
    a = dict(REQUESTS["chaos"])
    b = dict(reversed(list(a.items())), drop=0.0, reliable=True)
    responses = client.request_many([a, b, a])
    assert len({r["address"] for r in responses}) == 1
    assert client.stats()["misses"] == 1


def test_stats_block_shape(client):
    client.request(REQUESTS["chaos"])
    stats = client.stats()
    assert stats["queue_depth"] == 0 and stats["max_queue_depth"] >= 1
    assert stats["p50_ms"] is not None and stats["p99_ms"] >= stats["p50_ms"]
    assert stats["store"]["entries"] == 1
    assert stats["errors"] == stats["rejected"] == 0


# --------------------------------------------------------------------- #
# Failure surface: ServeError, never a crash; waiters see it too
# --------------------------------------------------------------------- #

def test_execution_failure_is_serve_error_for_all_waiters(client, monkeypatch):
    import repro.serve.service as service_mod

    def fail(canon, jobs=None):
        raise RuntimeError("engine failure")

    monkeypatch.setattr(service_mod, "execute_request", fail)
    with pytest.raises(ServeError, match="engine failure"):
        client.request(REQUESTS["chaos"])
    stats = client.stats()
    assert stats["errors"] == 1
    assert stats["store"]["entries"] == 0  # failures are never cached


_GAMMA_W_FIRST = """
from repro.serve import ServeClient

with ServeClient() as client:
    response = client.request({"kind": "chaos", "protocol": "gamma_w(max)",
                               "n": 8, "extra_edges": 6, "graph_seed": 3})
    print(response["payload"]["status"], client.stats()["errors"])
"""


def test_gamma_w_request_is_served_in_a_fresh_interpreter():
    # The case registry is static: a gamma_w(max) request succeeds as the
    # first request of a process, whatever that process imported before.
    # (This process has imported everything, hence the subprocess.)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(Path(__file__).parent.parent / "src"),
                    env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-c", _GAMMA_W_FIRST],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["ok", "0"]


def test_capacity_admission_rejects_cleanly(tmp_path, monkeypatch):
    import repro.serve.service as service_mod

    real = service_mod.execute_request

    def slow(canon, jobs=None):
        time.sleep(0.3)
        return real(canon, jobs=jobs)

    monkeypatch.setattr(service_mod, "execute_request", slow)

    async def main():
        svc = ServeService(max_pending=1)
        first = asyncio.create_task(svc.submit(REQUESTS["chaos"]))
        await asyncio.sleep(0.05)  # first is admitted and executing
        with pytest.raises(ServeError, match="over capacity"):
            await svc.submit(REQUESTS["trace"])
        resp = await first
        await svc.shutdown()
        return resp, svc.stats_snapshot()

    resp, stats = asyncio.run(main())
    assert resp["source"] == "executed"
    assert stats["rejected"] == 1


# --------------------------------------------------------------------- #
# Teardown ordering: drain in-flight, THEN unlink the pool/shm
# --------------------------------------------------------------------- #

def test_shutdown_drains_inflight_before_pool_teardown(monkeypatch):
    import repro.experiments.parallel as par
    import repro.serve.service as service_mod

    real_exec = service_mod.execute_request

    def slow(canon, jobs=None):
        time.sleep(0.3)
        return real_exec(canon, jobs=jobs)

    monkeypatch.setattr(service_mod, "execute_request", slow)

    inflight_at_teardown = []
    real_shutdown = par.shutdown_pool

    svc = ServeService()

    def spy_shutdown():
        inflight_at_teardown.append(svc.inflight)
        real_shutdown()

    monkeypatch.setattr(par, "shutdown_pool", spy_shutdown)

    async def main():
        running = asyncio.create_task(svc.submit(REQUESTS["chaos"]))
        await asyncio.sleep(0.05)           # request is mid-execution
        closer = asyncio.create_task(svc.shutdown())
        await asyncio.sleep(0)              # closing flag is up
        # A request racing the shutdown is refused with a clean error —
        # it neither crashes nor blocks the drain.
        with pytest.raises(ServeError, match="shutting down"):
            await svc.submit(REQUESTS["trace"])
        resp = await running                # admitted job still completes
        await closer
        return resp

    resp = asyncio.run(main())
    assert resp["source"] == "executed"
    # The pool (and its shm segments) was only torn down once nothing was
    # in flight — the ordering contract this test pins.
    assert inflight_at_teardown == [0]
    with pytest.raises(ServeError):
        asyncio.run(svc.submit(REQUESTS["chaos"]))


def test_client_close_is_idempotent_and_final(tmp_path):
    c = ServeClient(cache_dir=str(tmp_path / "cache"))
    c.request(REQUESTS["chaos"])
    c.close()
    c.close()
    with pytest.raises(ServeError):
        c.request(REQUESTS["chaos"])
