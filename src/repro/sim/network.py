"""The asynchronous network simulator.

Implements the paper's model (Section 1.2-1.3): a static weighted graph
where transmitting a message over edge ``e`` costs ``w(e)`` and takes some
delay in ``[0, w(e)]`` chosen by a :class:`~repro.sim.delays.DelayModel`.
Channels are FIFO per directed edge.  An optional *serialized* mode makes
each directed channel transmit one message at a time (store-and-forward),
which is the regime where the congestion effects discussed in Section 3
become visible; the default is the classical model (unbounded pipelining,
every message independently delayed).

An optional *fault adversary* (``repro.faults.FaultPlan``, duck-typed here
to avoid an import cycle) may intercept every transmission — dropping,
duplicating, corrupting, or reordering it within a bound — and crash /
recover nodes on a schedule.  All adversarial choices are driven by a
dedicated RNG seeded from the plan, so runs remain fully deterministic.

The simulator is single-threaded and deterministic for a fixed seed.
"""

from __future__ import annotations

import random
from collections.abc import Callable
from contextlib import nullcontext
from typing import Any

from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..obs.runtime import default_recorder as _default_recorder
from .delays import DelayModel, MaximalDelay, UniformDelay
from .events import EventQueue
from .metrics import Metrics
from .process import Process

__all__ = ["MaxEventsExceeded", "Network", "RunResult", "all_finished"]

# Shared no-op span for untraced runs (nullcontext is reusable/reentrant).
_NULL_SPAN = nullcontext()

# Send paths, chosen once per Network (see Network._transmit).  Zero is
# the general branch; the others are the lean branch of a hook-free run,
# by the delay model it inlines.
_GENERAL = 0
_LEAN_MAXIMAL = 1
_LEAN_UNIFORM = 2
_LEAN_OTHER = 3


class MaxEventsExceeded(RuntimeError):
    """:meth:`Network.run` fired ``max_events`` events: the runaway-protocol
    backstop.  Still a ``RuntimeError``, so existing handlers keep
    catching it; :func:`repro.faults.run_chaos` reports exactly this
    exception (not any ``RuntimeError`` a handler raises) as
    ``"timeout"``."""


def all_finished(network: Network) -> bool:
    """``stop_when`` predicate: every process has called ``finish()``.

    :meth:`Network.run` recognizes this function: instead of polling it
    before every event, the run halts its fast drain loop from the event
    in which the last process finishes.  Status, fired events and metrics
    are the same as for any equivalent predicate, such as
    ``lambda net: net.all_finished``, which takes the per-event loop.
    """
    return network.all_finished


class _NodeContext:
    """Injected into each process; mediates all interaction with the network."""

    __slots__ = ("_network", "node_id", "neighbors", "weights", "recorded",
                 "is_finished", "result")

    def __init__(self, network: Network, node_id: Vertex) -> None:
        self._network = network
        self.node_id = node_id
        self.neighbors = network.graph.neighbors(node_id)
        self.weights = network.graph.neighbor_weights(node_id)
        #: Whether a recorder observes this node's run; fixed at Network
        #: construction, like the send path.  Layers that open spans per
        #: frame (the reliable transport) read it once instead.
        self.recorded = network._rec is not None
        self.is_finished = False
        self.result: Any = None

    @property
    def now(self) -> float:
        return self._network.queue.now

    def send(self, to: Vertex, payload: Any, size: float, tag: str | None) -> None:
        weight = self.weights.get(to)
        if weight is None:
            raise ValueError(f"{self.node_id!r} has no edge to {to!r}")
        self._network._transmit(self.node_id, to, payload, size, tag, weight)

    def set_timer(self, delay: float, callback: Callable[[], None]) -> None:
        self._network._set_node_timer(self.node_id, delay, callback)

    def finish(self, result: Any) -> None:
        if not self.is_finished:
            self.is_finished = True
            self.result = result
            self._network._node_finished(self.node_id)

    def span(self, name: str, detail: Any = None):
        """Open a named trace span attributed to this node (no-op untraced)."""
        rec = self._network._rec
        if rec is None:
            return _NULL_SPAN
        return rec.span(name, node=self.node_id, detail=detail)

    def trace_pulse(self, pulse: int) -> None:
        """Record a synchronizer pulse for this node (no-op untraced)."""
        net = self._network
        if net._rec is not None:
            net._rec.record_pulse(net.queue.now, self.node_id, pulse)


class RunResult:
    """Outcome of a simulation run: metrics, per-node results, and status.

    ``status`` says *why* the run stopped:

    * ``"quiescent"`` — the event queue drained (normal completion);
    * ``"stopped"`` — the caller's ``stop_when`` predicate fired;
    * ``"max_time"`` — the watchdog deadline was reached with events still
      pending (no event beyond the deadline is executed);
    * ``"budget_exhausted"`` — a send would have taken the communication
      cost past the budget: the run held it (and every later send of the
      same event) and stopped.

    ``aborted`` is True for the last two — the run did *not* end of its
    own accord, and per-node results may be partial.

    ``metrics`` and ``processes`` are the network's own, not copies: a
    later :meth:`Network.run` of the same network (a budget-stopped run
    resumed under a larger budget) updates what an earlier result shows.
    """

    def __init__(self, metrics: Metrics, processes: dict,
                 status: str = "quiescent") -> None:
        self.metrics = metrics
        self.processes = processes
        self.status = status

    @property
    def aborted(self) -> bool:
        return self.status in ("max_time", "budget_exhausted")

    @property
    def comm_cost(self) -> float:
        return self.metrics.comm_cost

    @property
    def message_count(self) -> int:
        return self.metrics.message_count

    @property
    def time(self) -> float:
        return self.metrics.completion_time

    @property
    def finish_time(self) -> float:
        """Time the last process called finish() (protocol completion)."""
        return self.metrics.last_finish_time

    def result_of(self, node: Vertex) -> Any:
        return self.processes[node].ctx.result

    def results(self) -> dict:
        return {v: p.ctx.result for v, p in self.processes.items()}


class Network:
    """Discrete-event simulation of one protocol over one weighted graph.

    Parameters
    ----------
    graph:
        The communication graph ``G = (V, E, w)``.
    factory:
        ``factory(node_id) -> Process`` building each node's protocol
        instance.  Closures over shared configuration (roots, full graph
        knowledge, precomputed structures) model the paper's preprocessing
        assumptions.
    delay:
        The delay adversary (default: every message takes the full w(e)).
    seed:
        Seed for any randomness the delay model consumes.
    serialize:
        If True, each directed channel transmits one message at a time.
    default_tag:
        Metrics tag for untagged sends.
    faults:
        Optional fault adversary (``repro.faults.FaultPlan``; any object
        with the same ``seed`` / ``crashes`` / ``fate`` surface works).
        Decides the fate of every transmission and supplies crash windows.
    recorder:
        Optional :class:`~repro.obs.recorder.TraceRecorder` receiving a
        structured record of every send/deliver/drop/timer/crash/recover/
        pulse/finish.  Defaults to the ambient
        :func:`repro.obs.runtime.tracing` session's recorder when one is
        active, else no tracing.  A recorder with ``enabled = False``
        (e.g. :class:`~repro.obs.recorder.NullRecorder`) is normalized
        away at construction so the hot path pays a single ``is None``
        check.  Composes with ``trace``: when both are given, both fire.
    race_detect:
        Arm the :class:`~repro.analysis.race.RaceDetector`: ``True``
        raises :class:`~repro.analysis.race.SharedStateViolation` on the
        first cross-process attribute write or post-send payload
        mutation; ``"record"`` collects violations on
        ``race_detector.violations`` (and emits ``violation`` trace
        events when a recorder is attached) without aborting.  Never
        perturbs the run itself: the detector only observes, so results
        and metrics are byte-identical with and without it.

    The send path is chosen once, here.  A run with no ``faults``, no
    enabled recorder, no ``trace`` callback, no race detector and no
    ``serialize`` is *hook-free*: its sends take a lean branch with the
    metrics update, the budget check and the ``MaximalDelay`` /
    ``UniformDelay`` draw inlined.  Results are identical either way;
    setting these attributes after construction does not switch paths.
    """

    def __init__(
        self,
        graph: WeightedGraph,
        factory: Callable[[Vertex], Process],
        *,
        delay: DelayModel | None = None,
        seed: int = 0,
        serialize: bool = False,
        default_tag: str = "msg",
        comm_budget: float | None = None,
        trace: Callable[[float, Vertex, Vertex, str, float], None] | None = None,
        faults: Any | None = None,
        recorder: Any | None = None,
        race_detect: Any = False,
    ) -> None:
        self.graph = graph
        self.queue = EventQueue()
        self.metrics = Metrics()
        self.delay_model = delay if delay is not None else MaximalDelay()
        self.rng = random.Random(seed)
        self.serialize = serialize
        self.default_tag = default_tag
        # Hard communication budget: a send that would exceed it is held
        # and the run stops (models the root-aware suspension the paper's
        # hybrid/controlled algorithms perform *before* overspending; see
        # Sections 5, 7.2, 8.2).  run() again, under a larger budget,
        # resumes from the held send.
        self.comm_budget = comm_budget
        self.budget_exhausted = False
        # Set on the first refused send: every later send or timer of the
        # same event is held here too, as (method, args) in call order,
        # with the send counters as they were before the first of them.
        self._held: list[tuple[Callable, tuple]] | None = None
        self._held_counters: tuple = ()
        self._started = False
        # Optional observer: called as trace(time, frm, to, tag, cost) for
        # every accepted transmission (debugging / timeline visualisation).
        # Composes with a recorder — both fire for every accepted send.
        self.trace = trace
        # Structured recorder (repro.obs).  `_rec` is the normalized hot-
        # path handle: None unless a recorder is present *and* enabled, so
        # the untraced fast path is one identity check per event.
        if recorder is None:
            recorder = _default_recorder()
        self.recorder = recorder
        self._rec = (
            recorder
            if recorder is not None and getattr(recorder, "enabled", True)
            else None
        )
        if self._rec is not None:
            self._rec.attach(self)
        # Fault adversary.  Its randomness comes from a *separate* RNG so
        # that adding faults never perturbs the delay-model stream, and
        # identical (graph, protocol, plan, seed) runs replay exactly.
        self.faults = faults
        self.fault_rng = (
            random.Random(getattr(faults, "seed", 0))
            if faults is not None else None
        )
        self._down: set[Vertex] = set()
        self._deferred_timers: dict[Vertex, list[Callable[[], None]]] = {}
        self._finished_count = 0
        self._channel_clear: dict[tuple[Vertex, Vertex], float] = {}
        self.processes: dict[Vertex, Process] = {}
        for v in graph.vertices:
            proc = factory(v)
            proc.ctx = _NodeContext(self, v)
            self.processes[v] = proc
        # Shared-state race detector (repro.analysis.race).  `_race` is the
        # normalized handle: None unless armed, so the send path pays one
        # identity check and the delivery path none at all (the detector
        # swaps in wrapped delivery methods as instance attributes).
        self.race_detector = None
        self._race = None
        if race_detect:
            from ..analysis.race import RaceDetector

            mode = race_detect if isinstance(race_detect, str) else "raise"
            self.race_detector = RaceDetector(mode)
            self._race = self.race_detector
            self.race_detector.attach(self)
        if (faults is not None or self._rec is not None or trace is not None
                or self._race is not None or serialize):
            self._send_path = _GENERAL
        elif type(self.delay_model) is MaximalDelay:
            self._send_path = _LEAN_MAXIMAL
        elif type(self.delay_model) is UniformDelay:
            self._send_path = _LEAN_UNIFORM
        else:
            self._send_path = _LEAN_OTHER
        # Armed by run(stop_when=all_finished): the last finish() halts
        # the queue's drain loop.
        self._halt_on_finish = False

    # ------------------------------------------------------------------ #
    # Internal plumbing
    # ------------------------------------------------------------------ #

    def _transmit(
        self, frm: Vertex, to: Vertex, payload: Any, size: float,
        tag: str | None, weight: float,
    ) -> None:
        path = self._send_path
        if path:
            # Lean branch of a hook-free run: the general branch below
            # without its hooks, and with the common delay models inlined
            # in the same arithmetic.
            metrics = self.metrics
            cost = weight * size
            budget = self.comm_budget
            if budget is not None and (self._held is not None
                                       or metrics.comm_cost + cost > budget):
                self._hold(frm, to, payload, size, tag, weight)
                return
            tag = tag or self.default_tag
            metrics.message_count += 1
            metrics.comm_cost += cost
            metrics.cost_by_tag[tag] += cost
            metrics.count_by_tag[tag] += 1
            queue = self.queue
            if path == _LEAN_MAXIMAL:
                # Every message on a channel takes the same w(e) and `now`
                # never decreases, so the FIFO clamp below cannot bind.
                arrive = queue.now + weight
            else:
                if path == _LEAN_UNIFORM:
                    # UniformDelay.delay: rng.uniform(lo * w, hi * w).
                    model = self.delay_model
                    lo = model.lo * weight
                    delay = lo + (model.hi * weight - lo) * self.rng.random()
                    if not 0.0 <= delay <= weight:
                        raise ValueError(f"delay {delay} outside [0, {weight}]")
                else:
                    delay = self.delay_model.delay(frm, to, weight, self.rng)
                arrive = queue.now + delay
                channel = (frm, to)
                clear = self._channel_clear
                prev = clear.get(channel)
                if prev is not None and prev > arrive:
                    arrive = prev
                clear[channel] = arrive
            queue.schedule_call_at(arrive, self._deliver, frm, to, payload)
            return
        if frm in self._down:
            return  # a crashed node cannot transmit
        metrics = self.metrics
        cost = weight * size
        budget = self.comm_budget
        if budget is not None and (self._held is not None
                                   or metrics.comm_cost + cost > budget):
            self._hold(frm, to, payload, size, tag, weight)
            return
        tag = tag or self.default_tag
        metrics.message_count += 1
        metrics.comm_cost += cost
        metrics.cost_by_tag[tag] += cost
        metrics.count_by_tag[tag] += 1
        queue = self.queue
        now = queue.now
        rec = self._rec
        if self.trace is not None:
            self.trace(now, frm, to, tag, cost)
        if rec is not None:
            msg_id = rec.record_send(now, frm, to, tag, cost, size)
        delay = self.delay_model.delay(frm, to, weight, self.rng)
        channel = (frm, to)
        clear = self._channel_clear
        prev = clear.get(channel, 0.0)
        if self.serialize:
            arrive = (prev if prev > now else now) + delay
        else:
            # FIFO per directed channel even with pipelining: a message may
            # not overtake an earlier one on the same channel.
            arrive = now + delay
            if prev > arrive:
                arrive = prev
        # The channel timing of a transmission is independent of its fate:
        # a dropped message still occupied the channel (it was transmitted,
        # then lost) and still cost w(e) * size above — the sender pays per
        # transmission, which is what makes retransmission overhead a
        # meaningful cost-sensitive quantity.
        clear[channel] = arrive
        race = self._race
        if self.faults is None:
            # schedule_call_at stores (fn, args) in the event's slots: no
            # capturing closure is allocated per message, and same-time
            # deliveries batch into one heap entry (see sim.events).
            if rec is None:
                queue.schedule_call_at(arrive, self._deliver,
                                       frm, to, payload)
            else:
                queue.schedule_call_at(arrive, self._deliver_traced,
                                       frm, to, payload, msg_id)
            if race is not None:
                race.note_scheduled(payload)
            return
        fate, deliveries = self.faults.fate(frm, to, weight, payload,
                                            self.fault_rng)
        if fate != "deliver":
            metrics.record_fault(fate)
            if rec is not None:
                rec.record_drop(now, frm, to, fate, ref=msg_id)
        for extra, out_payload in deliveries:
            # Extra adversarial delay (duplicates, reorders) bypasses the
            # FIFO clamp on purpose: later messages may overtake.
            if rec is None:
                queue.schedule_call_at(
                    arrive + extra, self._deliver, frm, to, out_payload
                )
            else:
                queue.schedule_call_at(
                    arrive + extra, self._deliver_traced,
                    frm, to, out_payload, msg_id
                )
            if race is not None:
                race.note_scheduled(out_payload)

    def _hold(self, frm: Vertex, to: Vertex, payload: Any, size: float,
              tag: str | None, weight: float) -> None:
        """Hold a send the budget refused, or one that follows it.

        The first refusal stops the run: it halts the queue's drain loop
        (run() probes the flag after every event when a budget is set).
        A held send is not transmitted: no delay draw, no fault fate, no
        observer call, nothing scheduled.  One the budget still admits is
        charged as if it were, so a stopped run reports what it spent up
        to the stop; :meth:`run` takes those charges back before it
        re-sends the held sends under the budget it is then given.
        """
        metrics = self.metrics
        if self._held is None:
            self._held = []
            self._held_counters = (
                metrics.message_count, metrics.comm_cost,
                dict(metrics.cost_by_tag), dict(metrics.count_by_tag))
            self.budget_exhausted = True
            self.queue.halted = True
        self._held.append((self._transmit,
                           (frm, to, payload, size, tag, weight)))
        cost = weight * size
        if metrics.comm_cost + cost <= self.comm_budget:
            tag = tag or self.default_tag
            metrics.message_count += 1
            metrics.comm_cost += cost
            metrics.cost_by_tag[tag] += cost
            metrics.count_by_tag[tag] += 1

    def _resend_held(self) -> None:
        """Take back the held sends' charges and issue them again, in order."""
        held = self._held
        self._held = None
        self.budget_exhausted = False
        metrics = self.metrics
        (metrics.message_count, metrics.comm_cost, cost_by_tag,
         count_by_tag) = self._held_counters
        metrics.cost_by_tag.clear()
        metrics.cost_by_tag.update(cost_by_tag)
        metrics.count_by_tag.clear()
        metrics.count_by_tag.update(count_by_tag)
        for method, args in held:
            method(*args)

    def _deliver(self, frm: Vertex, to: Vertex, payload: Any) -> None:
        if to in self._down:
            # In-flight messages addressed to a crashed node are lost.
            self.metrics.record_fault("lost_in_crash")
            return
        self.metrics.completion_time = self.queue.now
        self.processes[to].on_message(frm, payload)

    def _deliver_traced(self, frm: Vertex, to: Vertex, payload: Any,
                        ref: int) -> None:
        """Traced twin of :meth:`_deliver`; ``ref`` is the send's seq.

        A separate method (selected at schedule time) so the untraced
        delivery path carries no recorder check at all.
        """
        if to in self._down:
            self.metrics.record_fault("lost_in_crash")
            self._rec.record_drop(self.queue.now, frm, to, "lost_in_crash",
                                  ref=ref)
            return
        self._rec.record_deliver(self.queue.now, frm, to, ref=ref)
        self.metrics.completion_time = self.queue.now
        self.processes[to].on_message(frm, payload)

    def _set_node_timer(self, node: Vertex, delay: float,
                        callback: Callable[[], None]) -> None:
        if self._held is not None:
            # After a held send, so that resuming schedules both in the
            # order a run under a larger budget would have.
            self._held.append((self._set_node_timer, (node, delay, callback)))
            return
        self.queue.schedule_call(delay, self._timer_fire, node, callback)

    def _timer_fire(self, node: Vertex, callback: Callable[[], None]) -> None:
        if node in self._down:
            # Defer, don't drop: local clocks survive a crash, so timers
            # that expired during the outage fire at recovery time (this is
            # what keeps retransmission loops alive across crashes).
            if self._rec is not None:
                self._rec.record_timer(self.queue.now, node, deferred=True)
            self._deferred_timers.setdefault(node, []).append(callback)
        else:
            if self._rec is not None:
                self._rec.record_timer(self.queue.now, node)
            callback()

    def _crash(self, node: Vertex) -> None:
        if node not in self._down:
            self._down.add(node)
            self.metrics.record_fault("crash")
            if self._rec is not None:
                self._rec.record_crash(self.queue.now, node)

    def _recover(self, node: Vertex) -> None:
        if node not in self._down:
            return
        self._down.discard(node)
        self.metrics.record_fault("recover")
        if self._rec is not None:
            self._rec.record_recover(self.queue.now, node)
        race = self._race
        for cb in self._deferred_timers.pop(node, []):
            # Deferred timers re-enter the queue directly (not through
            # _timer_fire), so ownership attribution needs a wrapper.
            self.queue.schedule(
                0.0, cb if race is None else race.owned_callback(node, cb))
        if race is None:
            self.processes[node].on_recover()
        else:
            with race.run_as(node):
                self.processes[node].on_recover()

    def _node_finished(self, node: Vertex) -> None:
        self._finished_count += 1
        self.metrics.completion_time = self.queue.now
        self.metrics.last_finish_time = self.queue.now
        if self._rec is not None:
            self._rec.record_finish(self.queue.now, node)
        if self._halt_on_finish and self._finished_count == len(self.processes):
            self.queue.halted = True

    # ------------------------------------------------------------------ #
    # Execution
    # ------------------------------------------------------------------ #

    @property
    def all_finished(self) -> bool:
        return self._finished_count == len(self.processes)

    def _start(self) -> None:
        """The first run's prologue: crash windows, then every on_start."""
        if self.faults is not None:
            reset = getattr(self.faults, "reset", None)
            if reset is not None:
                reset()  # clear per-run bookkeeping so plans replay exactly
            for node, start, end in getattr(self.faults, "crashes", ()):
                if node not in self.processes:
                    raise ValueError(f"crash window for unknown node {node!r}")
                self.queue.schedule_call_at(start, self._crash, node)
                if end is not None and end != float("inf"):
                    self.queue.schedule_call_at(end, self._recover, node)
        if self._race is None:
            for proc in self.processes.values():
                proc.on_start()
        else:
            for node, proc in self.processes.items():
                with self._race.run_as(node):
                    proc.on_start()

    def run(
        self,
        *,
        max_time: float = float("inf"),
        max_events: int = 50_000_000,
        stop_when: Callable[["Network"], bool] | None = None,
    ) -> RunResult:
        """Start every process and run events until quiescence or a stop.

        Stops when the event queue is empty, ``stop_when(self)`` becomes
        true, the next event lies beyond ``max_time`` (events exactly *at*
        the deadline still run; none past it does), the communication
        budget refuses a send, or ``max_events`` events have fired in this
        call (a runaway-protocol backstop that raises
        :class:`MaxEventsExceeded`, a ``RuntimeError``).  The reason is
        reported as ``RunResult.status``.

        With no ``stop_when``, or with ``stop_when=all_finished``, the
        queue drains itself in its fast loop (the last ``finish()`` halts
        it); any other predicate is polled before every event.  Both give
        the same status, event count and metrics.

        Called again on a network that has already run, it continues: no
        ``on_start``, crash window or fault-plan reset is repeated.  The
        sends held at a budget stop are first re-sent in order, under the
        ``comm_budget`` then set, with the charges the stopped run made
        for them taken back.  A network stopped at budget ``B`` and run
        again at ``B' > B`` ends with the metrics, status,
        ``queue.fired``, results and node state of a fresh run at ``B'``
        — the hybrids of :mod:`repro.protocols.hybrid` resume their
        candidates this way.
        """
        if not self._started:
            self._started = True
            self._start()
        elif self._held is not None:
            self._resend_held()
        status = "quiescent"
        self._halt_on_finish = halting = stop_when is all_finished
        if self.budget_exhausted:
            pass  # on_start or a re-sent held send overspent: no event fires
        elif halting and self.all_finished:
            if self.queue:
                status = "stopped"
        elif stop_when is None or halting:
            # Fast path: let the queue drain itself in one tight loop.
            # The halt probe is needed only when something can halt the
            # queue mid-run: a budget refusing a send, or the last
            # finish() under stop_when=all_finished.
            reason, fired = self.queue.run(
                max_time=max_time,
                max_events=max_events,
                check_halt=halting or self.comm_budget is not None,
            )
            if reason == "max_events" or fired >= max_events:
                raise MaxEventsExceeded(
                    f"exceeded {max_events} events; runaway protocol?")
            if reason == "max_time":
                status = "max_time"
            elif reason == "halted" and self.queue:
                # The last finish() halted the drain with events pending
                # (a budget halt becomes "budget_exhausted" below).
                status = "stopped"
        else:
            events = 0
            while self.queue:
                if self.budget_exhausted:
                    break
                if stop_when(self):
                    status = "stopped"
                    break
                if self.queue.peek_time() > max_time:
                    status = "max_time"
                    break
                if not self.queue.step():
                    break
                events += 1
                if events >= max_events:
                    raise MaxEventsExceeded(
                        f"exceeded {max_events} events; runaway protocol?")
        if self.budget_exhausted:
            status = "budget_exhausted"
        if self._rec is not None:
            # Close any spans still open, stamp the outcome, and record
            # the EventQueue's view of the same run for cross-checking
            # (every event this network fired, over all its runs).
            self._rec.finalize(self.queue.now, status=status,
                               events_fired=self.queue.fired)
        # Note: quiescing without meeting stop_when is not an error at this
        # level; callers (runners) decide how to interpret an unfinished run.
        return RunResult(self.metrics, self.processes, status=status)
