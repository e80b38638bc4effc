"""ServeService/ServeClient: cache identity, single-flight, teardown.

The acceptance bar this file pins:

* cached, coalesced and cold responses carry the **same bytes** for every
  request kind (the stored canonical body, not just equal dicts), and a
  stored object that fails verification is re-executed;
* single-flight dedupe produces **exact** ServeStats counts — N
  identical concurrent requests = 1 miss + (N-1) coalesces, replays of a
  stored address = pure hits;
* shutdown drains in-flight jobs **before** the pool (and its shm
  segments) is torn down, and a request racing shutdown gets a clean
  :class:`ServeError`, never a crash.
"""

import asyncio
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.experiments import parallel
from repro.obs import load_jsonl
from repro.replay import verify_trace
from repro.serve import (
    ServeClient,
    ServeError,
    ServeService,
    payload_bytes,
)
from repro.sim.network import Network
from tests.test_serve_store import plant_v1_object

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


#: The test process; a cell that sees another pid runs in a pool worker.
_PARENT = os.getpid()
_network_run = Network.run
_run_chaos_cell = parallel.run_chaos_cell
#: Simulations this process ran (pool workers count their own).
_simulations = [0]
#: Set before a pool forks: where a slow cell announces that it started.
_STARTED_DIR = None
#: Graph seeds whose chaos cells outlast the test's worker kill.
_SLOW_SEEDS = (3, 4)


def _counted_run(self, *args, **kwargs):
    _simulations[0] += 1
    return _network_run(self, *args, **kwargs)


def _slow_in_worker(spec):
    if os.getpid() != _PARENT and spec.graph_seed in _SLOW_SEEDS:
        Path(_STARTED_DIR, str(os.getpid())).touch()
        time.sleep(20)
    return _run_chaos_cell(spec)


@pytest.fixture
def slow_execution(monkeypatch):
    """Every execution first sleeps 0.3 s, so a test can act mid-flight."""
    import repro.serve.service as service_mod

    real = service_mod.execute_request

    def slow(canon, jobs=None):
        time.sleep(0.3)
        return real(canon, jobs=jobs)

    monkeypatch.setattr(service_mod, "execute_request", slow)


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
    # The cold and the coalesced answer come from one execution, the
    # cached one from the store: all three carry the same bytes.
    request = REQUESTS[kind]
    by_source = {r["source"]: r for r in client.request_many([request] * 2)}
    by_source["cache"] = client.request(request)
    cold = by_source["executed"]
    assert cold["cached"] is False
    assert by_source["coalesced"]["cached"] is by_source["cache"]["cached"] is True
    for r in by_source.values():
        assert r["address"] == cold["address"]
        assert r["payload_sha"] == cold["payload_sha"]
        assert r["body"] == cold["body"] == payload_bytes(r["payload"])


def _flip_body_byte(path):
    head, body = path.read_bytes().split(b"\n", 1)
    path.write_bytes(head + b"\n" + body[:-1] + bytes([body[-1] ^ 1]))


def _wrong_nbytes(path):
    head, body = path.read_bytes().split(b"\n", 1)
    header = dict(json.loads(head), nbytes=len(body) - 1)
    path.write_bytes(json.dumps(header).encode() + b"\n" + body)


def _v1_object(path):
    head, body = path.read_bytes().split(b"\n", 1)
    header = json.loads(head)
    plant_v1_object(path.parents[2], header["address"], header["request"],
                    json.loads(body))


@pytest.mark.parametrize("tamper", [_flip_body_byte, _wrong_nbytes, _v1_object],
                         ids=["flipped-byte", "wrong-nbytes", "v1-object"])
def test_unverifiable_stored_object_is_re_executed(tmp_path, tamper):
    cache = tmp_path / "cache"
    with ServeClient(cache_dir=str(cache)) as c:
        cold = c.request(REQUESTS["trace"])
    tamper(next((cache / "objects").rglob("*.json")))
    with ServeClient(cache_dir=str(cache)) as c:
        again = c.request(REQUESTS["trace"])
        stats = c.stats()
        cached = c.request(REQUESTS["trace"])
    assert again["source"] == "executed" and cached["source"] == "cache"
    assert again["body"] == cached["body"] == cold["body"]
    assert stats["integrity_failures"] == 1 and stats["misses"] == 1


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


@pytest.mark.parametrize("concurrent", [False, True],
                         ids=["one-by-one", "concurrent"])
def test_snapshot_requests_over_one_spec_build_it_once(client, monkeypatch,
                                                        concurrent):
    from repro.experiments.parallel import snapshot_rows
    from repro.graphs import generators, shm

    calls = []
    real = generators.random_connected_flat

    def counted(*args, **kwargs):
        calls.append(args)
        time.sleep(0.05)  # a slow build: the others look up meanwhile
        return real(*args, **kwargs)

    monkeypatch.setattr(generators, "random_connected_flat", counted)
    shm.unlink_all()
    creates = shm.stats()["shm_creates"]
    # Four distinct addresses over one spec: with `concurrent`, four
    # threads look the graph up at once, switching often.
    requests = [dict(REQUESTS["snapshot"], sweep=sweep, limit=limit)
                for limit in (8, 6) for sweep in ("stripe", "sources")]
    if concurrent:
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            responses = client.request_many(requests)
        finally:
            sys.setswitchinterval(interval)
    else:
        responses = [client.request(r) for r in requests]
    assert [r["source"] for r in responses] == ["executed"] * 4
    assert len(calls) == 1
    assert shm.stats()["shm_creates"] - creates == 1
    # The bytes of a direct sweep of the same snapshot.
    handle = shm.published_spec(("random_connected", 40, 60, 0, 10.0))
    for request, response in zip(requests, responses, strict=True):
        rows = snapshot_rows(handle, kind=request["sweep"],
                             limit=request["limit"], kernel="python")
        assert response["body"] == payload_bytes(rows)


@pytest.mark.parametrize("kind", sorted(REQUESTS))
def test_pooled_service_answers_alike_and_simulates_nothing(monkeypatch, kind):
    # With jobs > 1 every cold request runs in the pool's workers, one-cell
    # requests and a sweep's fault-free references included.
    monkeypatch.setattr(Network, "run", _counted_run)
    before = _simulations[0]
    with ServeClient(jobs=2) as pooled:
        cold = pooled.request(REQUESTS[kind])
    assert _simulations[0] == before
    with ServeClient() as serial:
        expect = serial.request(REQUESTS[kind])
    assert cold["source"] == expect["source"] == "executed"
    for key in ("address", "payload_sha", "body"):
        assert cold[key] == expect[key]


# --------------------------------------------------------------------- #
# Single-flight: exact ServeStats accounting
# --------------------------------------------------------------------- #

def test_single_flight_counts_exactly(client):
    expected = {"misses": 0, "coalesced": 0, "hits": 0, "served": 0}
    for n, graph_seed in ((5, 3), (8, 4)):
        request = dict(REQUESTS["chaos"], graph_seed=graph_seed)
        responses = client.request_many([dict(request)] * n)
        sources = sorted(r["source"] for r in responses)
        assert sources == ["coalesced"] * (n - 1) + ["executed"]
        shas = {r["payload_sha"] for r in responses}
        assert len(shas) == 1
        expected["misses"] += 1
        expected["coalesced"] += n - 1
        expected["served"] += n
        stats = client.stats()
        assert {k: stats[k] for k in expected} == expected
        # Replaying the same batch is now pure cache hits — exact count.
        replay = client.request_many([dict(request)] * n)
        assert all(r["source"] == "cache" for r in replay)
        expected["hits"] += n
        expected["served"] += n
        stats = client.stats()
        assert {k: stats[k] for k in expected} == expected


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


def test_cancelled_leader_answers_its_followers(slow_execution):
    async def main():
        svc = ServeService()
        leader = asyncio.create_task(svc.submit(REQUESTS["chaos"]))
        await asyncio.sleep(0.05)           # the leader is executing
        follower = asyncio.create_task(svc.submit(REQUESTS["chaos"]))
        await asyncio.sleep(0.05)
        assert svc.stats.coalesced == 1     # and the follower joined it
        leader.cancel()
        with pytest.raises(asyncio.CancelledError):
            await leader
        with pytest.raises(ServeError, match="cancelled"):
            await asyncio.wait_for(follower, timeout=5)
        await asyncio.wait_for(svc.drain(), timeout=5)
        inflight = svc.inflight
        await svc.shutdown()
        return inflight

    assert asyncio.run(main()) == 0


def test_cancelled_shutdown_leaves_the_leader_its_answer(slow_execution):
    async def main():
        svc = ServeService()
        leader = asyncio.create_task(svc.submit(REQUESTS["chaos"]))
        await asyncio.sleep(0.05)           # the leader is executing
        with pytest.raises(asyncio.TimeoutError):
            await asyncio.wait_for(svc.shutdown(), timeout=0.05)
        resp = await asyncio.wait_for(leader, timeout=30)
        await svc.shutdown()
        return resp

    assert asyncio.run(main())["source"] == "executed"


def test_killed_worker_mid_request_reruns_both_requests(tmp_path, monkeypatch):
    # Installed before the pool forks, so its workers run the slow cell.
    parallel.shutdown_pool()
    monkeypatch.setattr(sys.modules[__name__], "_STARTED_DIR", str(tmp_path))
    monkeypatch.setattr(parallel, "run_chaos_cell", _slow_in_worker)
    requests = [dict(REQUESTS["chaos"], graph_seed=s) for s in _SLOW_SEEDS]

    async def main():
        svc = ServeService(jobs=2)
        tasks = [asyncio.create_task(svc.submit(r)) for r in requests]
        deadline = time.monotonic() + 60
        while len(os.listdir(tmp_path)) < 2:  # both cells are running
            assert time.monotonic() < deadline, "cells never started"
            await asyncio.sleep(0.02)
        broken = parallel._pool
        os.kill(next(iter(broken._processes)), signal.SIGKILL)
        answers = await asyncio.wait_for(asyncio.gather(*tasks), timeout=60)
        inflight = svc.inflight
        after = await svc.submit(dict(REQUESTS["chaos"], graph_seed=5))
        fresh = parallel._pool
        await svc.shutdown()
        return answers, inflight, after, fresh is not None and fresh is not broken

    answers, inflight, after, new_pool = asyncio.run(main())
    assert inflight == 0 and new_pool
    assert after["source"] == "executed"
    with ServeClient() as serial:
        for request, answer in zip(requests, answers):
            expect = serial.request(request)
            assert answer["source"] == "executed"
            assert answer["body"] == expect["body"]


def test_capacity_admission_rejects_cleanly(slow_execution):
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

def test_shutdown_drains_inflight_before_pool_teardown(slow_execution,
                                                       monkeypatch):
    inflight_at_teardown = []
    real_shutdown = parallel.shutdown_pool

    svc = ServeService()

    def spy_shutdown():
        inflight_at_teardown.append(svc.inflight)
        real_shutdown()

    monkeypatch.setattr(parallel, "shutdown_pool", spy_shutdown)

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
