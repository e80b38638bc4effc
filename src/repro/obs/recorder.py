"""Structured tracing of simulation runs (the core of ``repro.obs``).

The paper's whole contribution is *accounting* — splitting a protocol's
behavior into weighted communication cost and adversarial-delay time
(Section 1.3) — but end-of-run aggregates (:class:`~repro.sim.metrics.Metrics`)
cannot say *where* inside a run the cost and time went.  A
:class:`TraceRecorder` captures every simulator event as a structured
record with a monotonic sequence number:

======================  =====================================================
kind                    meaning
======================  =====================================================
``send``                a transmission was accepted (cost ``w(e) * size``)
``deliver``             a message arrived (``ref`` names its send record)
``drop``                the fault adversary interfered (``detail`` = fate),
                        or an in-flight message hit a crashed node
``timer``               a node timer fired (or was deferred during a crash)
``crash`` / ``recover``  a node went down / came back up
``pulse``               a synchronizer host executed a pulse
``finish``              a process declared local completion
``span_open``/``span_close``  a named phase opened / closed
======================  =====================================================

**Spans.**  Layered protocols (synchronizers, the controller, the reliable
transport) open named phases with :meth:`TraceRecorder.span`; every send
is attributed to the *innermost* open span of its sender (falling back to
the recorder-wide span stack, then to the root ``""``).  Span paths nest
(``"pulse/sync-ack"``), each send lands in exactly one path, and the
recorder accumulates ``cost_by_span`` incrementally — so the per-span
costs always sum to the run's total communication cost exactly, a far
richer decomposition than the flat ``Metrics.cost_by_tag``.

**Ring-buffer mode.**  ``TraceRecorder(limit=n)`` retains only the most
recent ``n`` records (``limit=0`` retains none — pure aggregation); the
``dropped`` counter and ``truncated`` flag say what was evicted.  The
incremental aggregates (``cost_by_span``, ``counts``, ``total_cost``)
cover *all* events regardless of eviction.  A ``limit=0`` recorder
builds no :class:`TraceEvent` at all: each record only advances the
sequence number, ``counts`` and ``dropped``.

**Disabled-path cost.**  :class:`NullRecorder` is API-compatible and
inert; :class:`~repro.sim.network.Network` normalizes any recorder with
``enabled=False`` to "no recorder", so a disabled recorder's network
takes the same send path as a recorder-free one and pays exactly one
``is None`` check per event (see ``docs/OBSERVABILITY.md``).
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import Any, ClassVar

__all__ = ["EVENT_KINDS", "TraceEvent", "TraceRecorder", "NullRecorder"]

#: Every record kind a recorder may emit, in no particular order.
EVENT_KINDS = (
    "send", "deliver", "drop", "timer", "crash", "recover", "pulse",
    "finish", "span_open", "span_close", "violation",
)

_ROOT = ""  # the span path of unattributed events


class TraceEvent:
    """One structured trace record (see the module table for kinds).

    ``seq`` is a monotonic per-recorder sequence number assigned at record
    time; it survives ring-buffer eviction, so ``ref`` fields (a delivery
    naming its send) stay meaningful even in truncated logs.
    """

    __slots__ = ("seq", "t", "kind", "node", "peer", "tag", "cost", "size",
                 "span", "ref", "detail")

    def __init__(self, seq: int, t: float, kind: str, node: Any = None,
                 peer: Any = None, tag: str | None = None,
                 cost: float | None = None, size: float | None = None,
                 span: str | None = None, ref: int | None = None,
                 detail: Any = None) -> None:
        self.seq = seq
        self.t = t
        self.kind = kind
        self.node = node
        self.peer = peer
        self.tag = tag
        self.cost = cost
        self.size = size
        self.span = span
        self.ref = ref
        self.detail = detail

    def as_dict(self) -> dict:
        """The record as a plain dict, ``None`` fields omitted."""
        d = {"seq": self.seq, "t": self.t, "kind": self.kind}
        for key in ("node", "peer", "tag", "cost", "size", "span", "ref",
                    "detail"):
            value = getattr(self, key)
            if value is not None:
                d[key] = value
        return d

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        fields = ", ".join(f"{k}={v!r}" for k, v in self.as_dict().items())
        return f"TraceEvent({fields})"


class _Span:
    """One open span on a stack."""

    __slots__ = ("name", "path", "node", "t_open", "detail")

    def __init__(self, name: str, path: str, node: Any, t_open: float,
                 detail: Any) -> None:
        self.name = name
        self.path = path
        self.node = node
        self.t_open = t_open
        self.detail = detail


class _SpanCtx:
    """Context manager returned by :meth:`TraceRecorder.span`."""

    __slots__ = ("_rec", "_name", "_node", "_detail")

    def __init__(self, rec: TraceRecorder, name: str, node: Any,
                 detail: Any) -> None:
        self._rec = rec
        self._name = name
        self._node = node
        self._detail = detail

    def __enter__(self) -> _SpanCtx:
        self._rec.open_span(self._name, node=self._node, detail=self._detail)
        return self

    def __exit__(self, *exc) -> bool:
        self._rec.close_span(node=self._node)
        return False


class TraceRecorder:
    """Structured event log for one simulation run.

    Parameters
    ----------
    limit:
        ``None`` retains every record; ``n > 0`` keeps a ring buffer of
        the most recent ``n`` (``dropped``/``truncated`` report eviction);
        ``0`` retains no records at all — the incremental aggregates
        (``cost_by_span`` etc.) are still maintained, which is what sweep
        profiling uses to bound memory.

    Attach to a run by passing ``recorder=`` to
    :class:`~repro.sim.network.Network` (or any runner that forwards it);
    the network binds ``now_fn`` to its clock and fills ``meta`` with the
    graph shape.  One recorder observes one run.
    """

    enabled = True

    def __init__(self, limit: int | None = None) -> None:
        if limit is not None and limit < 0:
            raise ValueError(f"limit must be >= 0 or None: {limit!r}")
        self.limit = limit
        self._events: Any = deque(maxlen=limit) if limit else []
        self.dropped = 0
        self._seq = 0
        #: span path -> accumulated send cost / send count / open duration.
        self.cost_by_span: dict[str, float] = {}
        self.count_by_span: dict[str, int] = {}
        self.time_by_span: dict[str, float] = {}
        #: event kind -> count (covers evicted records too).
        self.counts: dict[str, int] = {}
        self.total_cost = 0.0
        self.meta: dict[str, Any] = {}
        #: Clock used when a span open/close has no explicit ``t``;
        #: bound to the network's event queue by :meth:`attach`.
        self.now_fn: Callable[[], float] = lambda: 0.0
        self._stacks: dict[Any, list[_Span]] = {}
        self._global_stack: list[_Span] = []

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def events(self) -> list:
        """The retained records, oldest first."""
        return list(self._events)

    @property
    def n_emitted(self) -> int:
        """Total records emitted (including ring-evicted ones)."""
        return self._seq

    @property
    def n_recorded(self) -> int:
        """Records currently retained."""
        return len(self._events)

    @property
    def truncated(self) -> bool:
        """True when the ring buffer evicted at least one record."""
        return self.dropped > 0

    def summary(self):
        """This recorder's picklable :class:`~repro.obs.profiler.TraceSummary`."""
        from .profiler import TraceSummary

        return TraceSummary.from_recorder(self)

    # ------------------------------------------------------------------ #
    # Attachment (called by Network)
    # ------------------------------------------------------------------ #

    def attach(self, network: Any) -> None:
        """Bind this recorder to a network's clock and graph metadata."""
        graph = network.graph
        self.meta["n"] = graph.num_vertices
        self.meta["m"] = graph.num_edges
        self.meta["nodes"] = list(graph.vertices)
        queue = network.queue
        self.now_fn = lambda: queue.now

    def finalize(self, t: float, status: str | None = None,
                 events_fired: int | None = None) -> None:
        """End-of-run hook: close open spans, stamp status and the number
        of event-queue callbacks the run fired (the EventQueue's view of
        the same execution)."""
        for node in list(self._stacks):
            while self._stacks.get(node):
                self.close_span(node=node, t=t)
        while self._global_stack:
            self.close_span(t=t)
        if status is not None:
            self.meta["status"] = status
        if events_fired is not None:
            self.meta["events_fired"] = events_fired
        self.meta["end_time"] = t

    # ------------------------------------------------------------------ #
    # Span machinery
    # ------------------------------------------------------------------ #

    def span(self, name: str, node: Any = None, detail: Any = None) -> _SpanCtx:
        """Context manager opening (and closing) a named phase.

        With ``node`` given the span goes on that node's stack and only
        that node's sends are attributed to it; without, it goes on the
        recorder-wide stack and catches sends of every node that has no
        span of its own open (e.g. a harness-level ``with rec.span("run")``).
        """
        return _SpanCtx(self, name, node, detail)

    def open_span(self, name: str, node: Any = None, detail: Any = None,
                  t: float | None = None) -> str:
        """Open a phase; returns its full path (``parent/name``)."""
        if t is None:
            t = self.now_fn()
        if node is None:
            stack = self._global_stack
            parent = stack[-1].path if stack else _ROOT
        else:
            stack = self._stacks.setdefault(node, [])
            if stack:
                parent = stack[-1].path
            elif self._global_stack:
                parent = self._global_stack[-1].path
            else:
                parent = _ROOT
        path = name if parent == _ROOT else f"{parent}/{name}"
        stack.append(_Span(name, path, node, t, detail))
        self._record("span_open", t, node, span=path, detail=detail)
        return path

    def close_span(self, node: Any = None, t: float | None = None) -> None:
        """Close the innermost open span (of ``node``, or recorder-wide)."""
        if t is None:
            t = self.now_fn()
        stack = self._global_stack if node is None else self._stacks.get(node)
        if not stack:
            raise RuntimeError(f"close_span: no span open for node={node!r}")
        span = stack.pop()
        self.time_by_span[span.path] = (
            self.time_by_span.get(span.path, 0.0) + (t - span.t_open)
        )
        self._record("span_close", t, node, span=span.path,
                     detail=span.detail)

    def span_of(self, node: Any) -> str:
        """The span path a send by ``node`` would be attributed to now."""
        stack = self._stacks.get(node)
        if stack:
            return stack[-1].path
        if self._global_stack:
            return self._global_stack[-1].path
        return _ROOT

    # ------------------------------------------------------------------ #
    # Recording (called from the simulator's hot paths)
    # ------------------------------------------------------------------ #

    def _record(self, kind: str, t: float, node: Any = None,
                peer: Any = None, tag: str | None = None,
                cost: float | None = None, size: float | None = None,
                span: str | None = None, ref: int | None = None,
                detail: Any = None) -> int:
        seq = self._seq
        self._seq = seq + 1
        counts = self.counts
        counts[kind] = counts.get(kind, 0) + 1
        limit = self.limit
        if limit == 0:
            # Aggregates only: the record would be evicted at once, so
            # it is never built.
            self.dropped += 1
            return seq
        events = self._events
        if limit is not None and len(events) == limit:
            self.dropped += 1  # deque(maxlen) evicts the oldest below
        events.append(TraceEvent(seq, t, kind, node, peer, tag, cost, size,
                                 span, ref, detail))
        return seq

    def record_send(self, t: float, frm: Any, to: Any, tag: str,
                    cost: float, size: float = 1.0) -> int:
        """Record an accepted transmission; returns its seq (the msg id)."""
        span = self.span_of(frm)
        self.total_cost += cost
        self.cost_by_span[span] = self.cost_by_span.get(span, 0.0) + cost
        self.count_by_span[span] = self.count_by_span.get(span, 0) + 1
        return self._record("send", t, frm, to, tag, cost, size, span)

    def record_deliver(self, t: float, frm: Any, to: Any,
                       ref: int | None = None) -> int:
        return self._record("deliver", t, to, frm, ref=ref)

    def record_drop(self, t: float, frm: Any, to: Any, fate: str,
                    ref: int | None = None) -> int:
        return self._record("drop", t, to, frm, ref=ref, detail=fate)

    def record_timer(self, t: float, node: Any, deferred: bool = False) -> int:
        return self._record("timer", t, node,
                            detail="deferred" if deferred else None)

    def record_crash(self, t: float, node: Any) -> int:
        return self._record("crash", t, node)

    def record_recover(self, t: float, node: Any) -> int:
        return self._record("recover", t, node)

    def record_pulse(self, t: float, node: Any, pulse: int) -> int:
        """Record a synchronizer pulse and roll the node's ``pulse`` span.

        The span covers the full inter-pulse window — from this pulse's
        execution until the next one (or run end) — so sends issued while
        the node waits for safety (acks, synchronizer control traffic)
        nest under ``pulse/...``, and ``time_by_span["pulse"]`` totals the
        synchronization wait time across nodes.
        """
        stack = self._stacks.setdefault(node, [])
        if stack and stack[-1].name == "pulse":
            self.close_span(node=node, t=t)
        seq = self._record("pulse", t, node, detail=pulse)
        self.open_span("pulse", node=node, detail=pulse, t=t)
        return seq

    def record_finish(self, t: float, node: Any) -> int:
        return self._record("finish", t, node)

    def record_violation(self, t: float, node: Any, kind: str,
                         message: str) -> int:
        """Record a shared-state race detected by ``repro.analysis.race``
        (``detail`` carries ``(kind, message)``; emitted only in the
        detector's non-raising ``"record"`` mode)."""
        return self._record("violation", t, node,
                            detail=f"{kind}: {message}")


class _NullSpanCtx:
    """Reusable, reentrant no-op span."""

    __slots__ = ()

    def __enter__(self) -> _NullSpanCtx:
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_SPAN = _NullSpanCtx()


class NullRecorder:
    """API-compatible recorder that records nothing.

    ``enabled`` is False, so :class:`~repro.sim.network.Network`
    normalizes it away at construction and the untraced hot path pays
    only an ``is None`` check per event.  Useful for call sites that want
    a recorder-shaped object unconditionally.
    """

    enabled = False
    limit = 0
    dropped = 0
    total_cost = 0.0

    def __init__(self, limit: int | None = None) -> None:
        self.cost_by_span: dict = {}
        self.count_by_span: dict = {}
        self.time_by_span: dict = {}
        self.counts: dict = {}
        self.meta: dict = {}
        self.now_fn: Callable[[], float] = lambda: 0.0

    # Shared across instances by design: a NullRecorder never appends.
    events: ClassVar[list] = []
    n_emitted = 0
    n_recorded = 0
    truncated = False

    def attach(self, network: Any) -> None:
        pass

    def finalize(self, t: float, status: str | None = None,
                 events_fired: int | None = None) -> None:
        pass

    def span(self, name: str, node: Any = None, detail: Any = None):
        return _NULL_SPAN

    def open_span(self, name: str, node: Any = None, detail: Any = None,
                  t: float | None = None) -> str:
        return _ROOT

    def close_span(self, node: Any = None, t: float | None = None) -> None:
        pass

    def span_of(self, node: Any) -> str:
        return _ROOT

    def _no_op(self, *args, **kwargs) -> int:
        return -1

    record_send = _no_op
    record_deliver = _no_op
    record_drop = _no_op
    record_timer = _no_op
    record_crash = _no_op
    record_recover = _no_op
    record_pulse = _no_op
    record_finish = _no_op
    record_violation = _no_op

    def summary(self):
        from .profiler import TraceSummary

        return TraceSummary.from_recorder(self)
