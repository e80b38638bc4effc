"""Workload ``serve-mix``: a seeded request stream against ``repro.serve``.

A ``python -m repro.serve --jobs <jobs>`` subprocess starts on a fresh
store; two ``TCPServeClient`` connections from this process drive it
closed-loop (each sends its next request when the previous reply has
arrived).  The stream mixes all four request kinds in equal shares (an
assumption: see :class:`Stream`); about 9 in 10 requests repeat an
earlier address, the rest are new.  Misses write the store and hits
read it back (re-verifying the SHA), on small rows and on 0.1-0.5 MB
trace documents that cross the wire in 32 KiB chunks.  Cold work holds
the server's interpreter lock while hits wait for it.  Every timing is
scaled to the nominal host speed by reference samples taken between
one-second segments of traffic (see :class:`perfbench.common.HostSpeed`).

One operation is one request.  Checks: the client re-verifies every
payload's SHA; every response for an address carries the cold
response's bytes; the first request of each kind, recomputed in this
process without the service, gives the same bytes; misses equal
distinct addresses and hits + coalesced equal repeats; the server
reports no integrity failure, error or rejection.
"""

from __future__ import annotations

import json
import os
import random
import signal
import subprocess
import sys
import threading
from pathlib import Path
from typing import Any

from .common import (
    ROOT,
    SRC,
    Ctx,
    HostSpeed,
    Outcome,
    ParallelReference,
    clock,
    derive,
    finish_traced,
    finish_untraced,
    peak_rss_mb,
    percentile,
    remove_tree,
    speed_scale,
    timed_first,
    typed_median,
)

#: ``n``: vertices of every request's graph, with as many extra edges.  At
#: n = 48 a cold request costs 2-250 ms and a trace document is 0.1-0.5 MB
#: on a 2 GHz Xeon, the range this workload is meant to cover.
#: ``min_hits``: the timed traffic goes on past ``--seconds`` until this
#: many cache hits have been served, so that fifteen lie beyond the 99th
#: percentile (with ten its spread from seed to seed reached 0.28).
SIZES = {
    "full": {"n": 48, "traced_requests": 300, "min_hits": 1500},
    "tiny": {"n": 10, "traced_requests": 40, "min_hits": 0},
}
MATRIX = ("broadcast", "convergecast", "dfs", "mst_ghs", "mst_fast",
          "global_fn(slt)")
#: Nine in ten requests repeat an earlier address.
REPEATS_PER_NEW = 9
CLIENT_LABELS = ("client-0", "client-1")
#: Seconds of closed-loop traffic between two host-speed reference samples.
SEGMENT_S = 1.0


class Stream:
    """The seeded request stream; request ``i`` is the same in every run.

    No recorded traffic exists to copy, so the mix is an assumption kept
    as plain as possible, and every choice is dealt from a shuffled deck
    so that every stretch of every seed's stream has the same mix.  One
    request in ten is new.  A new request takes the next of the four
    request kinds, so each kind is a quarter of the cold traffic.  It
    varies the graph seed and the fields its kind needs a value for: a
    chaos request is a cell of the grid a default sweep request runs
    (protocol x drop rate x transport), a trace request picks the
    protocol, a snapshot request the stripe or the sources sweep.  Every
    other field keeps the service's default.  A repeat takes a kind (and
    for a snapshot, a sweep) from its own decks, then an earlier address
    of that type, uniformly.
    """

    def __init__(self, seed: int, size: dict) -> None:
        from repro.serve import canonical_request
        from repro.serve.address import REQUEST_KINDS

        self.rng = random.Random(derive(seed, "stream"))
        self.size = size
        sweep = canonical_request({"kind": "sweep"})
        self.choices = {
            "slot": ("new",) + ("repeat",) * (REPEATS_PER_NEW),
            "new": REQUEST_KINDS,
            "repeat": REQUEST_KINDS,
            "chaos": [(p, drop, reliable) for p in MATRIX
                      for drop in sweep["drop_rates"] for reliable in (True, False)],
            "trace": MATRIX,
            "snapshot": ("stripe", "sources"),
            "repeat-snapshot": ("stripe", "sources"),
        }
        self.decks: dict[str, list] = {}
        self.requests: list[dict] = []
        self.by_label: dict[str, list[dict]] = {}

    def _deal(self, deck: str) -> Any:
        if not self.decks.get(deck):
            self.decks[deck] = list(self.choices[deck])
            self.rng.shuffle(self.decks[deck])
        return self.decks[deck].pop()

    def get(self, i: int) -> dict:
        while len(self.requests) <= i:
            if not self.requests or self._deal("slot") == "new":
                req = self._new()
                self.by_label.setdefault(label(req), []).append(req)
            else:
                req = self.rng.choice(self.by_label[self._repeat_label()])
            self.requests.append(req)
        return self.requests[i]

    def _repeat_label(self) -> str:
        while True:  # early in the stream some types have no address yet
            kind = self._deal("repeat")
            if kind == "snapshot":
                kind = f"snapshot-{self._deal('repeat-snapshot')}"
            if kind in self.by_label:
                return kind

    def _new(self) -> dict:
        n = self.size["n"]
        kind = self._deal("new")
        seed = self.rng.randrange(1_000_000)
        graph = {"n": n, "extra_edges": n, "graph_seed": seed}
        if kind == "chaos":
            protocol, drop, reliable = self._deal("chaos")
            return {"kind": "chaos", "protocol": protocol, **graph,
                    "drop": drop, "reliable": reliable}
        if kind == "sweep":
            return {"kind": "sweep", **graph}
        if kind == "snapshot":
            return {"kind": "snapshot", "spec": ["random_connected", n, n, seed],
                    "sweep": self._deal("snapshot")}
        return {"kind": "trace", "protocol": self._deal("trace"), **graph}


def label(req: dict) -> str:
    """The request's kind, with a snapshot's sweep: the types whose
    latencies :func:`_rates` keeps apart."""
    return req["kind"] if req["kind"] != "snapshot" else f"snapshot-{req['sweep']}"


def _start_server(ctx: Ctx, store: Path, ledger_out: Path | None) -> dict:
    from repro.serve import TCPServeClient

    serve_args = ["--host", "127.0.0.1", "--port", "0", "--jobs", str(ctx.jobs),
                  "--cache-dir", str(store)]
    if ledger_out is None:
        argv = [sys.executable, "-m", "repro.serve", *serve_args]
    else:
        argv = [sys.executable, str(Path(__file__).with_name("serve_launcher.py")),
                str(ledger_out), *serve_args]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), str(ROOT)]))
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT,
                            env=env)
    line = proc.stdout.readline()
    if "listening on" not in line:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"server did not start: {line!r}")
    host, port = line.split()[-1].rsplit(":", 1)
    clients: list = []
    try:
        for _ in CLIENT_LABELS:
            clients.append(TCPServeClient(host, int(port)))
            clients[-1].ping()
    except BaseException:
        _stop_server({"proc": proc, "clients": clients})
        raise
    return {"proc": proc, "clients": clients}


def _stop_server(server: dict) -> None:
    """Close the clients, SIGTERM the server (it drains and tears down its
    pool and segments), and reap it."""
    for client in server["clients"]:
        client.close()
    proc = server["proc"]
    proc.send_signal(signal.SIGTERM)
    try:
        proc.communicate(timeout=120)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()


def setup(ctx: Ctx) -> dict:
    tmp = ctx.tmpdir()
    try:
        server = _start_server(ctx, tmp / "store", None)
    except BaseException:
        remove_tree(tmp)
        raise
    return {"tmp": tmp, "server": server, "size": SIZES[ctx.size]}


def teardown(state: dict) -> None:
    try:
        if state.get("server") is not None:
            _stop_server(state["server"])
            state["server"] = None
    finally:
        remove_tree(state["tmp"])


def _summary(payload: Any) -> tuple[int, int, int]:
    """(rows, simulated messages, SSSP sources) carried by one payload."""
    if isinstance(payload, str):
        return 0, 0, 0
    rows = payload if isinstance(payload, list) else [payload]
    return (len(rows), sum(r.get("messages") or 0 for r in rows),
            sum(r.get("sources", 0) for r in rows if r.get("kind") == "sources"))


def _drive(server: dict, stream: Stream, *, seconds: float | None = None,
           min_hits: int = 0, limit: int | None = None, traced: bool = False,
           reference: Any = None) -> tuple[list, list]:
    """Send the stream on every connection, closed-loop; the responses and
    the segments they fell in.

    With ``seconds`` the traffic runs in segments of ``SEGMENT_S`` until
    ``seconds`` have passed and ``min_hits`` cache hits were served: at
    the end of a segment, each client finishes its request and stops; a
    host-speed reference sample is taken while the server is idle, then
    the next segment starts.  Each segment's ``scale`` comes from the
    samples on either side of it.  With ``limit`` it is one segment of
    ``limit`` requests and no samples.
    """
    from .ledger import LEDGER

    lock = threading.Lock()
    nxt = [0]
    records: list[dict] = []
    segments: list[dict] = []

    def loop(client: Any, deadline: float | None) -> None:
        while True:
            with lock:
                i = nxt[0]
                if (limit is not None and i >= limit) or (
                        deadline is not None and clock() >= deadline):
                    return
                nxt[0] += 1
                req = stream.get(i)
            t0 = clock()
            try:
                if traced:
                    resp = LEDGER.wait("serve.client.request", client.request,
                                       (req,), {})
                else:
                    resp = client.request(req)
            except Exception as exc:  # counted as a failed operation
                records.append({"i": i, "error": f"{type(exc).__name__}: {exc}"})
                continue
            dt = clock() - t0
            rows, msgs, sources = _summary(resp["payload"])
            records.append({"i": i, "seg": len(segments), "dt": dt,
                            "address": resp["address"], "source": resp["source"],
                            "sha": resp["payload_sha"], "kind": resp["kind"],
                            "rows": rows, "msgs": msgs, "sources": sources})

    speed = HostSpeed(reference)
    spent = 0.0
    deadline = None
    while True:
        if seconds is not None:
            speed.sample()
        t0 = clock()
        if seconds is not None:  # past ``seconds``, whole segments
            left = seconds - spent
            deadline = t0 + (min(SEGMENT_S, left) if left > 0 else SEGMENT_S)
        threads = [threading.Thread(target=loop, args=(c, deadline), name=label)
                   for c, label in zip(server["clients"], CLIENT_LABELS)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        wall = clock() - t0
        spent += wall
        segments.append({"wall": wall, "scale": 1.0})
        if seconds is None or (spent >= seconds and sum(
                r.get("source") == "cache" for r in records) >= min_hits):
            break
    if seconds is not None:
        speed.sample()
        for k, seg in enumerate(segments):
            seg["scale"] = speed_scale(speed.samples[k:k + 2])
    records.sort(key=lambda r: r["i"])
    return records, segments


def _check(ctx: Ctx, stream: Stream, records: list, stats: dict, out: Outcome) -> None:
    """Per-request and whole-run checks; see the module docstring."""
    from repro.serve import canonical_request, execute_request, payload_sha
    from repro.serve.address import request_address

    # Two connections race, so a repeat can reach the server before the
    # first occurrence: the cold response is the "executed" one, whichever
    # stream index carried it.
    cold: dict[str, str] = {}
    for rec in records:
        if rec.get("source") == "executed":
            if rec["address"] in cold:
                out.check(False, f"address {rec['address'][:12]} executed twice")
            cold[rec["address"]] = rec["sha"]
    seen: set[str] = set()
    repeats = 0
    for rec in records:
        if "error" in rec:
            out.op(False, f"request {rec['i']}: {rec['error']}")
            continue
        addr = rec["address"]
        repeats += addr in seen
        seen.add(addr)
        ok = (request_address(stream.get(rec["i"]))[1] == addr
              and cold.get(addr) == rec["sha"])
        out.op(ok, f"request {rec['i']}: wrong address or bytes ({rec['source']})")
    out.check(len(cold) == len(seen), f"{len(cold)} executions for {len(seen)} addresses")
    out.check(stats.get("misses") == len(seen),
              f"server misses {stats.get('misses')} != distinct {len(seen)}")
    out.check(stats.get("hits", 0) + stats.get("coalesced", 0) == repeats,
              f"server hits+coalesced != repeats {repeats}")
    for key in ("integrity_failures", "errors", "rejected"):
        out.check(stats.get(key) == 0, f"server {key} = {stats.get(key)}")
    kinds_done: set[str] = set()
    for rec in records:
        if "error" in rec or rec["source"] != "executed":
            continue
        req = stream.get(rec["i"])
        kind = label(req)
        if kind in kinds_done:
            continue
        kinds_done.add(kind)
        expect = payload_sha(execute_request(canonical_request(req)))
        if ctx.plant:
            expect = "0" * 64
        out.check(expect == rec["sha"],
                  f"{kind} request {rec['i']}: served bytes differ from a local run")


def _rates(stream: Stream, records: list, segments: list) -> dict[str, float]:
    scale = [seg["scale"] for seg in segments]
    done = [r for r in records if "error" not in r]
    hits: dict[str, list[float]] = {}
    misses: dict[str, list[float]] = {}
    for r in done:
        into = hits if r["source"] == "cache" else misses
        into.setdefault(label(stream.get(r["i"])), []).append(r["dt"] * scale[r["seg"]])
    wall = sum(seg["wall"] * seg["scale"] for seg in segments)
    return {
        "rps": len(done) / wall,
        "msgs_per_s": sum(r["msgs"] for r in done) / wall,
        "cells_per_s": sum(r["rows"] for r in done) / wall,
        "sources_per_s": sum(r["sources"] for r in done) / wall,
        "hit_p50_ms": 1e3 * typed_median(hits),
        "hit_p99_ms": 1e3 * percentile([t for ts in hits.values() for t in ts], 0.99),
        "miss_p50_ms": 1e3 * typed_median(misses),
    }


def run(ctx: Ctx) -> Outcome:
    out = Outcome()
    if ctx.trace:
        _traced(ctx, out)
        return out
    stream = Stream(ctx.seed, SIZES[ctx.size])
    ref = ParallelReference(ctx.jobs)
    try:
        state = setup(ctx)
        try:
            records, segments = _drive(state["server"], stream,
                                       seconds=ctx.seconds,
                                       min_hits=SIZES[ctx.size]["min_hits"],
                                       reference=ref.sample)
            stats = state["server"]["clients"][0].stats()
        finally:
            teardown(state)
    finally:
        ref.close()
    rss = peak_rss_mb()
    _check(ctx, stream, records, stats, out)
    values = _rates(stream, records, segments)
    out.info.update({"requests": len(records),
                     "segment_scales": [seg["scale"] for seg in segments],
                     "wall_s": sum(seg["wall"] for seg in segments),
                     "distinct": stats.get("misses"), "hits": stats.get("hits"),
                     "coalesced": stats.get("coalesced"),
                     "hit_samples": sum(r.get("source") == "cache" for r in records)})
    finish_untraced(ctx, out, values, rss)
    return out


def _traced(ctx: Ctx, out: Outcome) -> None:
    from .ledger import LEDGER

    size = SIZES[ctx.size]
    n = size["traced_requests"]
    stream = Stream(ctx.seed, size)
    state = setup(ctx)
    try:
        records, segments = _drive(state["server"], stream, limit=n)
        untraced_wall = segments[0]["wall"]
        stats = state["server"]["clients"][0].stats()
    finally:
        teardown(state)
    _check(ctx, stream, records, stats, out)
    tmp = ctx.tmpdir()
    ledger_out = tmp / "server-ledger.json"
    try:
        server = _start_server(ctx, tmp / "store", ledger_out)
        try:
            records, segments = _drive(server, stream, limit=n, traced=True)
            wall = segments[0]["wall"]
            stats = server["clients"][0].stats()
        finally:
            _stop_server(server)
        dump = json.loads(ledger_out.read_text())
    finally:
        remove_tree(tmp)
    _check(ctx, stream, records, stats, out)
    lanes = timed_first(LEDGER.lane_data(), CLIENT_LABELS) + dump["lanes"]
    served = stats["hits"] + stats["misses"] + stats["coalesced"]
    extra = {f"serve.service.{k}": stats[k]
             for k in ("hits", "misses", "coalesced", "rejected", "errors")}
    extra["serve.service.hit_ratio"] = stats["hits"] / served if served else 0.0
    extra["serve.store.integrity_failures"] = stats["integrity_failures"]
    for key in ("creates", "attaches", "rebuilds", "failures"):
        extra[f"graphs.shm.{key}"] = dump["shm"][f"shm_{key}"]
    out.info.update({"requests": n, "untraced_wall_s": untraced_wall})
    finish_traced(ctx, out, lanes, timed=len(CLIENT_LABELS), wall=wall,
                  untraced_wall=untraced_wall, extra=extra)
