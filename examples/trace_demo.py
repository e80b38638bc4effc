#!/usr/bin/env python
"""Write a Chrome trace of the gamma_w synchronizer at work.

Runs synchronous Bellman-Ford under synchronizer gamma_w (Algorithm
SPT_synch, Section 9.1) with a :class:`repro.obs.TraceRecorder` attached,
then exports the structured event log two ways:

* ``gamma_w.chrome.json`` — Chrome ``trace_event`` format.  Open it at
  ``chrome://tracing`` or https://ui.perfetto.dev: each node is a thread
  whose ``pulse`` spans show the synchronizer's pulse cadence with
  ``sync-ack``/``sync-gamma`` control traffic nested inside; each
  directed channel is a thread where every message renders as a slice
  spanning its in-flight window.
* ``gamma_w.jsonl`` — the raw structured log, one JSON record per line
  (schema-checked by ``repro.obs.validate_jsonl``).

The span accounting is exact: the per-span costs in the trace sum to the
run's total communication cost, refining the tag-level split
(proto / sync-ack / sync-gamma) the gamma_w result already reports.

Run:  python examples/trace_demo.py
"""

import os
import tempfile

from repro.graphs import random_connected_graph
from repro.obs import (
    TraceRecorder,
    validate_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from repro.protocols.spt_synch import SyncBellmanFord
from repro.synch.gamma_w import pulse_bounds, run_gamma_w


def main() -> None:
    graph = random_connected_graph(n=12, extra_edges=18, seed=5)
    source = graph.vertices[0]
    stop_pulse, max_pulse = pulse_bounds(graph)

    recorder = TraceRecorder()
    result = run_gamma_w(
        graph,
        lambda v: SyncBellmanFord(v == source, stop_pulse),
        max_pulse=max_pulse,
        recorder=recorder,
    )

    print(f"gamma_w SPT on n={graph.num_vertices}, m={graph.num_edges}: "
          f"comm_cost={result.comm_cost:g}, time={result.time:g}, "
          f"pulses={result.pulses}")
    span_sum = sum(recorder.cost_by_span.values())
    assert span_sum == result.comm_cost, (span_sum, result.comm_cost)
    print("per-span costs (sum exactly to comm_cost):")
    for span in sorted(recorder.cost_by_span):
        print(f"  {span:<22} {recorder.cost_by_span[span]:10g}   "
              f"({recorder.count_by_span[span]} sends)")
    print("tag accounting for comparison: "
          f"proto={result.proto_cost:g}, ack={result.ack_cost:g}, "
          f"gamma={result.control_cost:g}")

    out_dir = tempfile.mkdtemp(prefix="repro-trace-")
    chrome_path = write_chrome_trace(
        recorder, os.path.join(out_dir, "gamma_w.chrome.json"),
        name="gamma_w SPT")
    jsonl_path = write_jsonl(recorder, os.path.join(out_dir, "gamma_w.jsonl"))
    with open(jsonl_path) as fh:
        errors = validate_jsonl(fh.read())
    assert not errors, errors
    print(f"\nwrote {recorder.n_recorded} events "
          f"({recorder.n_emitted} emitted):")
    print(f"  {chrome_path}  (open in chrome://tracing or Perfetto)")
    print(f"  {jsonl_path}  (schema-valid JSONL)")


if __name__ == "__main__":
    main()
