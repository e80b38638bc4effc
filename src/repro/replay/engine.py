"""Trace-driven replay: re-execute a recorded run and assert byte-identity.

A simulation here is a pure function of ``(graph, protocol, FaultPlan,
seed)``, so a JSONL trace (``repro.obs``) plus the few integers that
rebuilt its inputs is a *complete*, executable description of the run.
A :class:`~repro.experiments.chaos.RunSpec` captures those inputs;
:func:`record_run` stamps its canonical dict into the trace's meta header
under the ``"replay"`` key; and
:func:`replay_trace` closes the loop — load the header, rebuild the exact
graph (refusing on a :func:`~repro.graphs.io.graph_fingerprint` mismatch),
re-run, and re-export.  :func:`verify_trace` then compares old and new
documents byte-for-byte and, on mismatch, localizes the **first divergent
event** (:mod:`repro.replay.diff`) instead of reporting a bare "differs".

:func:`record_golden` / :func:`check_golden` turn any directory of traces
into a regression corpus: each ``*.jsonl`` file is one pinned run, and a
pytest parametrized over :func:`golden_paths` replays every one on each
test run.

Protocols are addressed by their chaos-suite case name
(:data:`repro.experiments.chaos.PROTOCOLS`, which includes
``gamma_w(max)`` — the paper's synchronizer hosting max-consensus), so
synchronizer runs record and replay through the same header format.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any

from ..experiments.chaos import RunSpec, case_of, run_spec
from ..graphs.io import graph_fingerprint
from ..obs.exporters import LoadedTrace, jsonable, read_jsonl, to_jsonl
from ..obs.recorder import TraceRecorder

__all__ = [
    "ReplayError",
    "RecordedRun",
    "ReplayReport",
    "record_run",
    "spec_of",
    "replay_trace",
    "verify_trace",
    "record_golden",
    "check_golden",
    "golden_paths",
]


class ReplayError(RuntimeError):
    """A trace cannot be replayed (missing or invalid replay header, or
    the rebuilt graph no longer matches the recorded fingerprint)."""


@dataclass
class RecordedRun:
    """One executed-and-exported run: outcome, live recorder, JSONL text."""

    spec: RunSpec
    outcome: Any
    recorder: TraceRecorder
    text: str


def record_run(spec: RunSpec) -> RecordedRun:
    """Execute ``spec`` with a replay header stamped into its trace.

    The header is the spec's canonical dict plus the ``graph_fp``
    fingerprint of the graph it runs on.  The recorder keeps at most
    ``spec.limit`` events (``None`` keeps all), and ``spec.race`` runs the
    race detector in ``"record"`` mode, so violations land in the trace.
    """
    recorder = TraceRecorder(limit=spec.limit)
    recorder.meta["replay"] = jsonable({
        **spec.to_dict(),
        "graph_fp": graph_fingerprint(case_of(spec).graph),
    })
    outcome, _ff_cost = run_spec(
        spec, recorder=recorder, race_detect="record" if spec.race else False)
    return RecordedRun(spec, outcome, recorder, to_jsonl(recorder))


def _header(trace: LoadedTrace) -> dict:
    header = trace.meta.get("replay")
    if not isinstance(header, dict):
        raise ReplayError(
            "trace has no 'replay' meta header; only traces produced by "
            "record_run / the fuzzer are replayable"
        )
    return header


def spec_of(trace: LoadedTrace) -> RunSpec:
    """The :class:`~repro.experiments.chaos.RunSpec` a trace was recorded
    under; a header that names no valid spec raises :class:`ReplayError`."""
    fields = {k: v for k, v in _header(trace).items() if k != "graph_fp"}
    try:
        return RunSpec.from_dict(fields)
    except (ValueError, TypeError) as exc:
        raise ReplayError(f"invalid replay header: {exc}") from None


def replay_trace(trace: LoadedTrace) -> RecordedRun:
    """Re-execute a loaded trace's run from its replay header.

    Refuses (``ReplayError``) when the rebuilt graph's fingerprint differs
    from the recorded one — generator drift would otherwise surface as a
    baffling event-level divergence.
    """
    spec = spec_of(trace)
    recorded = _header(trace).get("graph_fp")
    fp = graph_fingerprint(case_of(spec).graph)
    if recorded is not None and fp != recorded:
        raise ReplayError(
            f"graph fingerprint mismatch: trace recorded {recorded}, "
            f"rebuild produced {fp} (generator or suite drift)"
        )
    return record_run(spec)


@dataclass
class ReplayReport:
    """Outcome of :func:`verify_trace`: byte-identical, or where not."""

    ok: bool
    spec: RunSpec
    replayed: RecordedRun
    divergence: Any = None  # repro.replay.diff.Divergence | None

    def describe(self) -> str:
        if self.ok:
            return (f"replay of {self.spec.protocol!r} "
                    f"(seed={self.spec.seed}): byte-identical")
        return (f"replay of {self.spec.protocol!r} "
                f"(seed={self.spec.seed}) DIVERGED: "
                f"{self.divergence.describe()}")


def verify_trace(trace: LoadedTrace) -> ReplayReport:
    """Replay ``trace`` and compare documents byte-for-byte.

    On mismatch the report carries the first divergent event
    (:func:`repro.replay.diff.first_divergence`) with send-linked context,
    not just a boolean.
    """
    from .diff import first_divergence

    replayed = replay_trace(trace)
    original = trace.source if trace.source is not None else to_jsonl(trace)
    if original == replayed.text:
        return ReplayReport(True, replayed.spec, replayed)
    divergence = first_divergence(original, replayed.text)
    return ReplayReport(False, replayed.spec, replayed,
                        divergence=divergence)


# --------------------------------------------------------------------- #
# Golden-trace corpus
# --------------------------------------------------------------------- #

def record_golden(spec: RunSpec, path: str) -> str:
    """Record ``spec`` and pin its trace at ``path``; returns the path."""
    run = record_run(spec)
    with open(path, "w") as fh:
        fh.write(run.text)
    return path


def check_golden(path: str) -> ReplayReport:
    """Replay one pinned trace file and verify byte-identity."""
    return verify_trace(read_jsonl(path))


def golden_paths(dirpath: str) -> list[str]:
    """All ``*.jsonl`` golden traces under ``dirpath`` (sorted, may be
    empty) — the shape pytest parametrization wants."""
    if not os.path.isdir(dirpath):
        return []
    return sorted(
        os.path.join(dirpath, name)
        for name in os.listdir(dirpath)
        if name.endswith(".jsonl")
    )
