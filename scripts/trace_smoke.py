#!/usr/bin/env python
"""CI smoke for the ``repro.obs`` tracing subsystem.

Runs one traced chaos cell (a reliable flood under 5% seeded message
loss), then checks the whole observability contract end to end:

* the structured JSONL export passes :func:`repro.obs.validate_jsonl`;
* the Chrome ``trace_event`` export is valid JSON with the expected
  top-level shape (``traceEvents`` non-empty, metadata present);
* per-span costs sum *exactly* to the run's measured ``comm_cost``;
* the chaos outcome carries a picklable :class:`~repro.obs.TraceSummary`
  that agrees with the recorder it came from;
* the same cell under an aggregates-only recorder (``limit=0``) reports
  the same aggregates and retains no records.

Artifacts (``trace.jsonl``, ``trace.chrome.json``, ``summary.json``) are
written to ``--out-dir`` (default ``trace-artifacts``) for CI upload.

Run:  python scripts/trace_smoke.py [--out-dir DIR]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.faults import ACK_TAG, RETRY_TAG, FaultPlan, run_chaos  # noqa: E402
from repro.graphs import random_connected_graph  # noqa: E402
from repro.obs import (  # noqa: E402
    TraceRecorder,
    validate_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.protocols.broadcast import FloodProcess  # noqa: E402


def fail(msg: str) -> None:
    print(f"FAIL: {msg}", file=sys.stderr)
    raise SystemExit(1)


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out-dir", type=Path, default=Path("trace-artifacts"))
    args = ap.parse_args(argv)
    args.out_dir.mkdir(parents=True, exist_ok=True)

    graph = random_connected_graph(n=16, extra_edges=24, seed=7)

    def smoke_cell(recorder: TraceRecorder):
        return run_chaos(
            graph,
            lambda v: FloodProcess(v == graph.vertices[0], "smoke"),
            plan=FaultPlan.message_loss(0.05, seed=42),
            reliable=True,
            watchdog_time=1e6,
            recorder=recorder,
        )

    recorder = TraceRecorder()
    outcome = smoke_cell(recorder)
    if outcome.status != "ok":
        fail(f"chaos cell did not complete: {outcome.status} ({outcome.error})")
    result = outcome.result
    print(f"chaos cell ok: n={graph.num_vertices} m={graph.num_edges} "
          f"comm_cost={result.comm_cost:g} retries={outcome.retry_count} "
          f"events recorded={recorder.n_recorded}")

    # 1. Exact span accounting.
    span_sum = sum(recorder.cost_by_span.values())
    if span_sum != result.comm_cost:
        fail(f"span costs sum to {span_sum}, comm_cost is {result.comm_cost}")
    for span, tag in (("rel-ack", ACK_TAG), ("rel-retry", RETRY_TAG)):
        if recorder.cost_by_span.get(span, 0.0) != \
                result.metrics.cost_by_tag.get(tag, 0.0):
            fail(f"span {span!r} disagrees with tag {tag!r}")
    print(f"span accounting exact: {span_sum:g} over "
          f"{len(recorder.cost_by_span)} spans")

    # 2. Schema-valid JSONL.
    jsonl_path = write_jsonl(recorder, args.out_dir / "trace.jsonl")
    errors = validate_jsonl(Path(jsonl_path).read_text())
    if errors:
        for e in errors[:20]:
            print(f"  {e}", file=sys.stderr)
        fail(f"{len(errors)} JSONL schema errors")
    print(f"JSONL schema valid: {jsonl_path}")

    # 3. Chrome trace shape.
    chrome_path = write_chrome_trace(recorder, args.out_dir / "trace.chrome.json",
                                     name="trace smoke")
    doc = json.loads(Path(chrome_path).read_text())
    if not isinstance(doc.get("traceEvents"), list) or not doc["traceEvents"]:
        fail("Chrome trace has no traceEvents")
    phases = {ev.get("ph") for ev in doc["traceEvents"]}
    for needed in ("M", "X"):
        if needed not in phases:
            fail(f"Chrome trace missing {needed!r} events (has {sorted(phases)})")
    other = doc.get("otherData", {})
    if other.get("comm_cost") != result.comm_cost:
        fail(f"Chrome otherData comm_cost {other.get('comm_cost')} != "
             f"{result.comm_cost}")
    print(f"Chrome trace valid: {chrome_path} "
          f"({len(doc['traceEvents'])} trace events)")

    # 4. The picklable summary agrees with its recorder, and the metrics
    #    dict round-trips as plain JSON.
    summary = outcome.trace
    if summary is None or summary.comm_cost != result.comm_cost:
        fail("ChaosOutcome.trace missing or inconsistent")
    payload = {
        "status": outcome.status,
        "trace": summary.as_dict(),
        "metrics": result.metrics.as_dict(),
    }
    summary_path = args.out_dir / "summary.json"
    summary_path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"summary written: {summary_path}")

    # 5. Aggregates-only recording (what sweeps and the fuzzer use) keeps
    #    every aggregate of the full log and no record.
    agg = smoke_cell(TraceRecorder(limit=0)).trace
    for key in ("counts", "cost_by_span", "count_by_span", "time_by_span",
                "comm_cost", "emitted"):
        if getattr(agg, key) != getattr(summary, key):
            fail(f"limit=0 summary {key} differs from the full recorder's")
    if agg.recorded != 0 or agg.dropped != agg.emitted:
        fail(f"limit=0 recorder retained {agg.recorded} records")
    print(f"aggregates-only recording exact: {agg.emitted} events, "
          f"none retained")

    # 6. Race-detect smoke: one clean chaos cell under the shared-state
    #    detector must still succeed, and a planted post-send payload
    #    mutation must be caught as a detectable failure.
    clean = run_chaos(
        graph,
        lambda v: FloodProcess(v == graph.vertices[0], "smoke"),
        plan=FaultPlan.message_loss(0.05, seed=42),
        reliable=True,
        watchdog_time=1e6,
        race_detect=True,
    )
    if clean.status != "ok":
        fail(f"race_detect=True broke a clean run: {clean.status} "
             f"({clean.error})")
    print("race detector: clean cell ok")

    class MutatingFlood(FloodProcess):
        def on_start(self):
            if self.is_initiator:
                self._got_it = True
                self.finish((tuple(self.payload), None))
                for v in self.neighbors():
                    self.send(v, self.payload, tag="flood")
                self.payload.append("tampered")  # post-send mutation

    planted = run_chaos(
        graph,
        lambda v: MutatingFlood(v == graph.vertices[0], ["smoke"]),
        reliable=False,
        watchdog_time=1e6,
        race_detect=True,
    )
    if planted.status != "error" or "SharedStateViolation" not in (planted.error or ""):
        fail(f"race detector missed planted mutation: {planted.status} "
             f"({planted.error})")
    print(f"race detector caught planted mutation: {planted.error.splitlines()[0]}")
    print("trace smoke OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
