"""repro.obs — structured tracing and profiling for simulation runs.

The paper's analysis splits protocol behavior into weighted
communication cost and adversarial time; this subsystem makes that split
observable *inside* a run instead of only at its end:

* :class:`TraceRecorder` / :class:`NullRecorder` — structured event log
  (send/deliver/drop/timer/crash/recover/pulse/finish) with monotonic
  sequence numbers, ring-buffer bounding, and nested **spans** that
  attribute every message's cost to the innermost open protocol phase.
* Exporters — deterministic JSONL (:func:`to_jsonl`,
  :func:`validate_jsonl`), Chrome ``trace_event`` JSON for
  chrome://tracing / Perfetto (:func:`to_chrome_trace`), and a text
  space-time diagram (:func:`render_timeline`).
* :class:`Profiler` / :class:`TraceSummary` — picklable per-run
  reductions aggregated across sweep cells.
* :func:`tracing` — ambient session so CLIs can trace runs they don't
  construct (``PYTHONPATH=src python -m repro.experiments --trace ...``).

Attach a recorder with ``Network(..., recorder=TraceRecorder())`` or any
runner that forwards one (``run_chaos``, ``run_gamma_w``); the untraced
hot path costs one ``is None`` check per event (<2%, see
``docs/OBSERVABILITY.md``).
"""

from .exporters import (
    LoadedTrace,
    jsonable,
    load_jsonl,
    read_jsonl,
    render_timeline,
    to_chrome_trace,
    to_jsonl,
    validate_jsonl,
    write_chrome_trace,
    write_jsonl,
)
from .profiler import Profiler, TraceSummary
from .recorder import EVENT_KINDS, NullRecorder, TraceEvent, TraceRecorder
from .runtime import TraceSession, current_session, default_recorder, tracing


__all__ = [
    "EVENT_KINDS",
    "TraceEvent",
    "TraceRecorder",
    "NullRecorder",
    "jsonable",
    "to_jsonl",
    "write_jsonl",
    "validate_jsonl",
    "LoadedTrace",
    "load_jsonl",
    "read_jsonl",
    "to_chrome_trace",
    "write_chrome_trace",
    "render_timeline",
    "TraceSummary",
    "Profiler",
    "TraceSession",
    "tracing",
    "current_session",
    "default_recorder",
]
