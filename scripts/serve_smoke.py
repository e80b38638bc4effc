#!/usr/bin/env python
"""CI smoke for the ``repro.serve`` subsystem, across the process boundary.

Launches ``python -m repro.serve`` as a real subprocess on an ephemeral
port, drives it with :class:`~repro.serve.client.TCPServeClient`, and
checks the service contract end to end:

* a duplicate-heavy request mix is served with ``hits > 0`` and the
  exact expected hit count (the content-addressed dedupe ledger);
* every cached response is **byte-identical** to its cold counterpart
  (the same frame bytes per address);
* on a warmed server, a replay of fresh addresses, all cache hits, is
  at least ``HIT_SPEEDUP`` times faster than their cold pass;
* malformed requests come back as clean error lines, not disconnects;
* after SIGTERM the server drains, exits 0, and leaves **zero** leaked
  ``rshm-*`` shared-memory segments in ``/dev/shm``;
* a second server started on the same ``--cache-dir`` answers every
  request of the first from the store: all ``cache``, byte-identical to
  the first server's answers, with 0 misses.

The final stats blocks and a verdict summary land in ``--out-dir``
(default ``serve-artifacts``) as ``serve_smoke.json`` for CI upload.

Run:  python scripts/serve_smoke.py [--out-dir DIR] [--jobs N]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.serve import TCPServeClient, request_address  # noqa: E402
from repro.serve.client import ServeError  # noqa: E402

#: n = 40 makes a cold cell cost 4-20 ms, well above a hit's fraction of
#: a millisecond.
MIX = [
    {"kind": "chaos", "protocol": p, "n": 40, "extra_edges": 48,
     "graph_seed": 3, "drop": drop, "backend": "python"}
    for p in ("dfs", "mst_ghs")
    for drop in (0.0, 0.2)
]
#: The timed pass: new addresses (other fault seeds) on the mix's graphs,
#: sent once the mix has paid the server's one-time work (pool start,
#: graph builds, fault-free reference runs), so their cold pass is the
#: requests' own execution.
FRESH = [dict(r, fault_seed=s) for s in (8, 9) for r in MIX]
#: How many times faster than their cold pass the first replay of
#: ``FRESH`` must be.  The real hit path clears it by more than 2x; a hit
#: path that re-runs its request misses it by more than 2x (CHANGES.md
#: records the margins on an idle and on a loaded host).
HIT_SPEEDUP = 6.0
TRACE = {"kind": "trace", "protocol": "dfs", "n": 8, "extra_edges": 6,
         "graph_seed": 3, "backend": "python"}


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    raise SystemExit(1)


def shm_segments() -> list[str]:
    if not os.path.isdir("/dev/shm"):
        return []
    return sorted(f for f in os.listdir("/dev/shm") if f.startswith("rshm-"))


def start_server(cache: Path, jobs: int) -> tuple[subprocess.Popen, TCPServeClient]:
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--jobs", str(jobs), "--cache-dir", str(cache)],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=REPO,
    )
    assert proc.stdout is not None
    try:
        line = proc.stdout.readline().strip()
        if "listening on" not in line:
            fail(f"unexpected startup line: {line!r}")
        host, port = line.rsplit(" ", 1)[-1].rsplit(":", 1)
        client = TCPServeClient(host, int(port), timeout=120.0)
        if client.ping().get("type") != "pong":
            fail("ping did not pong")
    except BaseException:
        proc.kill()
        proc.communicate()
        raise
    return proc, client


def stop_server(proc: subprocess.Popen) -> str:
    """SIGTERM the server and reap it; its output.  Fails unless it drains
    and exits 0."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        out, _ = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        out, _ = proc.communicate()
        fail("server did not shut down on SIGTERM")
    if proc.returncode != 0:
        fail(f"server exited {proc.returncode}; output:\n{out}")
    return out


def check_no_leaks(before: list[str]) -> None:
    time.sleep(0.2)  # let the kernel reap the unlinked segments
    leaked = [s for s in shm_segments() if s not in before]
    if leaked:
        fail(f"leaked shared-memory segments: {leaked}")


def serve(client: TCPServeClient, requests: list[dict], source: str,
          answers: dict[str, dict]) -> float:
    """Send ``requests`` in order; each must come from ``source`` and, if
    its address was answered before, carry the same bytes.  Records every
    answer in ``answers``; returns the wall time."""
    t0 = time.perf_counter()
    for request in requests:
        resp = client.request(request)
        if resp["source"] != source:
            fail(f"{resp['address'][:12]} came from {resp['source']}, "
                 f"expected {source}")
        prior = answers.setdefault(resp["address"], resp)
        if (resp["body"] != prior["body"]
                or resp["payload_sha"] != prior["payload_sha"]):
            fail(f"{resp['address'][:12]} ({source}) not byte-identical "
                 f"to its first answer")
    return time.perf_counter() - t0


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("serve-artifacts"))
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    cache = args.out_dir / "cache"
    # The hit and miss counts assume a cold store: drop an earlier run's.
    shutil.rmtree(cache, ignore_errors=True)
    addresses = {request_address(r)[1] for r in [*MIX, *FRESH]}
    if len(addresses) != len(MIX) + len(FRESH):
        fail("FRESH does not give every request a new address")

    before = shm_segments()
    answers: dict[str, dict] = {}
    proc, client = start_server(cache, args.jobs)
    try:
        serve(client, MIX, "executed", answers)  # the one-time work
        cold_s = serve(client, FRESH, "executed", answers)
        hit_s = serve(client, FRESH, "cache", answers)
        hit_speedup = cold_s / hit_s
        serve(client, FRESH, "cache", answers)
        if hit_speedup < HIT_SPEEDUP:
            fail(f"cache replay only x{hit_speedup:.1f} faster than the cold "
                 f"pass (floor x{HIT_SPEEDUP:g})")

        # A trace document round-trips and caches too.
        serve(client, [TRACE], "executed", answers)
        serve(client, [TRACE], "cache", answers)

        # Malformed requests: error line, connection stays usable.
        try:
            client.request({"kind": "nope"})
            fail("invalid kind was accepted")
        except ServeError:
            pass
        serve(client, MIX[:1], "cache", answers)

        stats = client.stats()
        expected_hits = 2 * len(FRESH) + 1 + 1  # replays + trace warm + probe
        if stats["hits"] != expected_hits:
            fail(f"hits {stats['hits']} != expected {expected_hits}")
        if stats["misses"] != len(answers):
            fail(f"misses {stats['misses']} != expected {len(answers)}")
        if stats["errors"] or stats["rejected"]:
            fail(f"unexpected errors/rejections: {stats}")
        client.close()
    finally:
        out = stop_server(proc)
    check_no_leaks(before)

    # A second server on the same store: journal replay, objects re-read
    # and re-verified in a new process, every answer from the store.
    proc, client = start_server(cache, args.jobs)
    try:
        serve(client, [*MIX, *FRESH, TRACE], "cache", answers)
        restart_stats = client.stats()
        if (restart_stats["misses"] or restart_stats["integrity_failures"]
                or restart_stats["hits"] != len(answers)):
            fail(f"restarted server did not serve the store: {restart_stats}")
        client.close()
    finally:
        restart_out = stop_server(proc)
    check_no_leaks(before)

    artifact = {
        "stats": stats,
        "restart_stats": restart_stats,
        "requests": {"mix": len(MIX), "fresh": len(FRESH),
                     "hits": stats["hits"], "misses": stats["misses"]},
        "byte_identical": True,
        "hit_speedup": hit_speedup,
        "hit_speedup_floor": HIT_SPEEDUP,
        "leaked_segments": [],
        "server_output_tail": out.splitlines()[-5:],
        "restart_output_tail": restart_out.splitlines()[-5:],
    }
    path = args.out_dir / "serve_smoke.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(f"serve smoke OK: hits={stats['hits']} misses={stats['misses']} "
          f"hit ratio {stats['hits'] / stats['served']:.2f}, "
          f"replay x{hit_speedup:.1f} faster than a warm cold pass, "
          f"p50={stats['p50_ms']:.1f}ms p99={stats['p99_ms']:.1f}ms, "
          f"restart served {restart_stats['hits']} hits and 0 misses, "
          f"0 leaked segments; wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
