#!/usr/bin/env python
"""CI smoke for the ``repro.serve`` subsystem, across the process boundary.

Launches ``python -m repro.serve`` as a real subprocess on an ephemeral
port, drives it with :class:`~repro.serve.client.TCPServeClient`, and
checks the service contract end to end:

* a duplicate-heavy request mix is served with ``hits > 0`` and the
  exact expected hit count (the content-addressed dedupe ledger);
* every cached response is **byte-identical** to its cold counterpart
  (``payload_bytes`` equality per address);
* the first replay of the mix, all cache hits, is at least
  ``HIT_SPEEDUP`` times faster than its cold pass;
* malformed requests come back as clean error lines, not disconnects;
* after SIGTERM the server drains, exits 0, and leaves **zero** leaked
  ``rshm-*`` shared-memory segments in ``/dev/shm``.

The final stats block and a verdict summary land in ``--out-dir``
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

from repro.serve import TCPServeClient, payload_bytes  # noqa: E402
from repro.serve.client import ServeError  # noqa: E402

MIX = [
    {"kind": "chaos", "protocol": p, "n": 10, "extra_edges": 12,
     "graph_seed": 3, "drop": drop, "backend": "python"}
    for p in ("broadcast", "dfs")
    for drop in (0.0, 0.2)
]
#: How many times faster than its cold pass the mix's first replay must be.
HIT_SPEEDUP = 5.0
TRACE = {"kind": "trace", "protocol": "dfs", "n": 8, "extra_edges": 6,
         "graph_seed": 3, "backend": "python"}


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    raise SystemExit(1)


def shm_segments() -> list[str]:
    if not os.path.isdir("/dev/shm"):
        return []
    return sorted(f for f in os.listdir("/dev/shm") if f.startswith("rshm-"))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("serve-artifacts"))
    ap.add_argument("--jobs", type=int, default=2)
    args = ap.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)
    # The hit and miss counts assume a cold store: drop an earlier run's.
    shutil.rmtree(args.out_dir / "cache", ignore_errors=True)

    before = shm_segments()
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.serve", "--port", "0",
         "--jobs", str(args.jobs),
         "--cache-dir", str(args.out_dir / "cache")],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env=env, cwd=REPO,
    )
    try:
        assert proc.stdout is not None
        line = proc.stdout.readline().strip()
        if "listening on" not in line:
            fail(f"unexpected startup line: {line!r}")
        host, port = line.rsplit(" ", 1)[-1].rsplit(":", 1)
        client = TCPServeClient(host, int(port), timeout=120.0)

        if client.ping().get("type") != "pong":
            fail("ping did not pong")

        # Cold pass, then a duplicate-heavy replay: 2x each address.
        cold = {}
        t0 = time.perf_counter()
        for request in MIX:
            resp = client.request(request)
            if resp["cached"]:
                fail(f"first serve of {resp['address'][:12]} claimed cached")
            cold[resp["address"]] = resp
        cold_s = time.perf_counter() - t0
        byte_identical = True
        for replay in range(2):
            t0 = time.perf_counter()
            for request in MIX:
                resp = client.request(request)
                if resp["source"] != "cache":
                    fail(f"replay of {resp['address'][:12]} was {resp['source']}")
                prior = cold[resp["address"]]
                if (payload_bytes(resp["payload"]) != payload_bytes(prior["payload"])
                        or resp["payload_sha"] != prior["payload_sha"]):
                    byte_identical = False
            if replay == 0:
                hit_speedup = cold_s / (time.perf_counter() - t0)
        if not byte_identical:
            fail("cached response not byte-identical to cold")
        if hit_speedup < HIT_SPEEDUP:
            fail(f"cache replay only x{hit_speedup:.1f} faster than the cold "
                 f"pass (floor x{HIT_SPEEDUP:g})")

        # A streamed (chunked) trace round-trips and caches too.
        t_cold = client.request(TRACE)
        t_warm = client.request(TRACE)
        if not (t_warm["source"] == "cache"
                and t_warm["payload"] == t_cold["payload"]):
            fail("trace did not cache byte-identically")

        # Malformed requests: error line, connection stays usable.
        try:
            client.request({"kind": "nope"})
            fail("invalid kind was accepted")
        except ServeError:
            pass
        if client.request(MIX[0])["source"] != "cache":
            fail("connection unusable after an error line")

        stats = client.stats()
        expected_hits = 2 * len(MIX) + 1 + 1  # replays + trace warm + probe
        if stats["hits"] != expected_hits:
            fail(f"hits {stats['hits']} != expected {expected_hits}")
        if stats["misses"] != len(MIX) + 1:
            fail(f"misses {stats['misses']} != expected {len(MIX) + 1}")
        if stats["errors"] or stats["rejected"]:
            fail(f"unexpected errors/rejections: {stats}")
        client.close()
    finally:
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
    time.sleep(0.2)  # let the kernel reap the unlinked segments
    leaked = [s for s in shm_segments() if s not in before]
    if leaked:
        fail(f"leaked shared-memory segments: {leaked}")

    artifact = {
        "stats": stats,
        "requests": {"mix": len(MIX), "hits": stats["hits"],
                     "misses": stats["misses"]},
        "byte_identical": byte_identical,
        "hit_speedup": hit_speedup,
        "leaked_segments": leaked,
        "server_output_tail": out.splitlines()[-5:],
    }
    path = args.out_dir / "serve_smoke.json"
    path.write_text(json.dumps(artifact, indent=2, sort_keys=True) + "\n")
    print(f"serve smoke OK: hits={stats['hits']} misses={stats['misses']} "
          f"hit ratio {stats['hits'] / stats['served']:.2f}, "
          f"replay x{hit_speedup:.1f} faster than cold, "
          f"p50={stats['p50_ms']:.1f}ms p99={stats['p99_ms']:.1f}ms, "
          f"0 leaked segments; wrote {path}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
