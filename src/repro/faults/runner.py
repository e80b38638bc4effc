"""The chaos harness: run protocols under a fault adversary, detectably.

:func:`run_chaos` executes one protocol on one graph under a
:class:`~repro.faults.plan.FaultPlan`, optionally behind the
:class:`~repro.faults.transport.ReliableProcess` transport, with two
watchdogs (a simulated-time deadline and an event-count backstop), and
classifies the outcome:

* ``"ok"``        — every node finished (and, if the caller supplied an
  ``expect`` value, the extracted answer matched it);
* ``"wrong"``     — completed but the answer differs from ``expect``;
* ``"stalled"``   — the event queue drained with unfinished nodes (e.g. a
  message was dropped and nobody retransmits);
* ``"timeout"``   — the watchdog deadline fired with events still pending,
  or the event-count backstop did;
* ``"aborted"``   — the communication budget was exhausted;
* ``"error"``     — a process raised (e.g. a raw protocol indexing into a
  corrupted frame).

The contract the chaos matrix asserts is that a run is **never silently
wrong and never hangs**: with the reliable transport it must be ``"ok"``;
without it, under faults, anything except ``"ok"``/``"wrong"`` is an
acceptable *detectable* failure.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Any

from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import MaxEventsExceeded, Network, RunResult
from ..sim.process import Process
from .plan import FaultPlan
from .transport import reliability_overhead, reliable_factory

__all__ = ["ChaosOutcome", "run_chaos", "DETECTABLE_FAILURES"]

# Everything a faulted run may legitimately report except success —
# each of these is *detectable* by a caller holding the outcome.
DETECTABLE_FAILURES = frozenset({"stalled", "timeout", "aborted", "error"})


@dataclass
class ChaosOutcome:
    """Result of one chaos run.

    ``status`` is a single classification, but a run can exhibit *both* a
    detectable event and a wrong answer — a node crashes mid-run, the
    protocol still completes, and the answer it completes with is wrong.
    ``crashed`` preserves that second axis: a crash-and-wrong run reports
    ``detectable_failure`` *and* ``silent_failure`` together instead of
    letting the answer check mask the (perfectly observable) crash.
    """

    status: str
    result: RunResult | None
    answer: Any = None
    error: str | None = None
    ack_cost: float = 0.0
    retry_cost: float = 0.0
    retry_count: int = 0
    total_overhead: float = 0.0
    #: Picklable :class:`~repro.obs.profiler.TraceSummary` of the run when
    #: a recorder was attached (explicitly or via an ambient session).
    trace: Any = None
    #: True when at least one node crashed during the run (whether or not
    #: it recovered) — an observable event regardless of final status.
    crashed: bool = False
    #: Canonical, picklable signatures of shared-state violations observed
    #: by the race detector (``race_detect="record"``/``True``); see
    #: :func:`repro.analysis.violation_signatures`.
    violations: tuple = ()

    @property
    def detectable_failure(self) -> bool:
        """The run failed in a way a caller holding this outcome can see.

        Crash-while-wrong counts: the crash was observable even though the
        status classification reports the wrong answer.
        """
        if self.status in DETECTABLE_FAILURES:
            return True
        return self.crashed and self.status != "ok"

    @property
    def silent_failure(self) -> bool:
        """True for the outcome the chaos contract forbids: a wrong answer.

        A crash-and-wrong run is *both* a silent failure (the answer is
        wrong) and a detectable one (the crash was observable) — callers
        enforcing the contract should key on this property, not on
        ``not detectable_failure``.
        """
        return self.status == "wrong"


def _trace_summary(net: Network, status: str):
    """Reduce the run's recorder (if any) to a picklable summary.

    On exception paths :meth:`Network.run` never reached its finalize
    hook, so finalize here; either way the chaos classification is
    stamped alongside the raw run status.
    """
    rec = net._rec
    if rec is None:
        return None
    if "status" not in rec.meta:
        rec.finalize(net.queue.now, status=status,
                     events_fired=net.queue.fired)
    rec.meta["chaos_status"] = status
    from ..obs.profiler import TraceSummary

    return TraceSummary.from_recorder(rec)


def _observed(net: Network, extra_violation: Any = None) -> dict:
    """Cross-status observations: crashes and race-detector violations.

    ``extra_violation`` covers the ``"raise"``-mode path, where the
    violation aborts the run before the detector records it.
    """
    from ..analysis import violation_signatures

    violations = list(net.race_detector.violations) \
        if net.race_detector is not None else []
    if extra_violation is not None:
        violations.append(extra_violation)
    return {
        "crashed": net.metrics.fault_counts.get("crash", 0) > 0,
        "violations": violation_signatures(violations),
    }


def run_chaos(
    graph: WeightedGraph,
    factory: Callable[[Vertex], Process],
    *,
    plan: FaultPlan | None = None,
    reliable: bool = True,
    watchdog_time: float = float("inf"),
    max_events: int = 2_000_000,
    delay: DelayModel | None = None,
    seed: int = 0,
    serialize: bool = False,
    answer: Callable[[RunResult], Any] | None = None,
    expect: Any = None,
    recorder: Any | None = None,
    race_detect: Any = False,
) -> ChaosOutcome:
    """Run ``factory``'s protocol on ``graph`` under ``plan``.

    ``answer(result)`` extracts the protocol's final answer; when
    ``expect`` is given the extracted answer is compared against it and a
    mismatch is classified ``"wrong"`` (the outcome the chaos contract
    exists to rule out).  ``watchdog_time`` bounds simulated time; the
    ``max_events`` backstop catches event storms and reports them as
    ``"timeout"`` rather than raising.  Only that backstop
    (:class:`~repro.sim.network.MaxEventsExceeded`) is a timeout: any
    other exception a process raises, ``RuntimeError`` subclasses such as
    ``NotImplementedError`` and ``RecursionError`` included, is
    ``"error"`` with the text ``"Type: message"``.

    ``recorder`` (or an ambient :func:`repro.obs.runtime.tracing`
    session) attaches structured tracing; the run's
    :class:`~repro.obs.profiler.TraceSummary` comes back on
    ``ChaosOutcome.trace`` for every status, including error paths.

    ``race_detect`` passes through to :class:`~repro.sim.network.Network`;
    a :class:`~repro.analysis.race.SharedStateViolation` raised mid-run is
    an ``"error"`` too, and its signature joins ``violations``.
    """
    from ..analysis.race import SharedStateViolation

    if reliable:
        factory = reliable_factory(factory)
    net = Network(graph, factory, delay=delay, seed=seed,
                  serialize=serialize, faults=plan, recorder=recorder,
                  race_detect=race_detect)
    try:
        # Run to quiescence (no stop_when): trailing acks/retransmissions
        # count toward the measured reliability overhead, and a stall is
        # distinguishable from success by the unfinished nodes.
        result = net.run(max_time=watchdog_time, max_events=max_events)
    except MaxEventsExceeded as exc:  # the event backstop: a detected hang
        return ChaosOutcome(status="timeout", result=None, error=str(exc),
                            trace=_trace_summary(net, "timeout"),
                            **_observed(net),
                            **reliability_overhead(net.metrics))
    except Exception as exc:  # a process raised, e.g. on adversarial input
        violation = exc if isinstance(exc, SharedStateViolation) else None
        return ChaosOutcome(status="error", result=None,
                            error=f"{type(exc).__name__}: {exc}",
                            trace=_trace_summary(net, "error"),
                            **_observed(net, extra_violation=violation),
                            **reliability_overhead(net.metrics))

    overhead = reliability_overhead(result.metrics)
    overhead.update(_observed(net))
    if result.status == "max_time":
        return ChaosOutcome(status="timeout", result=result,
                            trace=_trace_summary(net, "timeout"), **overhead)
    if result.status == "budget_exhausted":
        return ChaosOutcome(status="aborted", result=result,
                            trace=_trace_summary(net, "aborted"), **overhead)
    if not net.all_finished:
        return ChaosOutcome(status="stalled", result=result,
                            trace=_trace_summary(net, "stalled"), **overhead)

    value = answer(result) if answer is not None else None
    if answer is not None and expect is not None and value != expect:
        return ChaosOutcome(status="wrong", result=result, answer=value,
                            trace=_trace_summary(net, "wrong"), **overhead)
    return ChaosOutcome(status="ok", result=result, answer=value,
                        trace=_trace_summary(net, "ok"), **overhead)
