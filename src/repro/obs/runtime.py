"""Ambient trace sessions.

CLI flags (``--trace`` on ``repro.experiments``) need to turn on tracing
for runs they do not construct directly.  A :class:`TraceSession` makes
that ambient: inside ``with tracing(...):``, every
:class:`~repro.sim.network.Network` built without an explicit
``recorder=`` asks :func:`default_recorder` and gets a fresh
:class:`~repro.obs.recorder.TraceRecorder` registered with the session;
afterwards ``session.profiler()`` aggregates them all.  Outside a
session :func:`default_recorder` returns ``None`` and the simulator hot
path stays recorder-free.

Sessions are process-local (a plain module global, not inherited by pool
workers) — sweeps that fan out trace via the explicit per-cell flag in
``repro.experiments.parallel`` instead.
"""

from __future__ import annotations

from contextlib import contextmanager

from .profiler import Profiler
from .recorder import TraceRecorder

__all__ = ["TraceSession", "tracing", "current_session", "default_recorder"]

_session: TraceSession | None = None


class TraceSession:
    """Collects the recorders of every network built while active."""

    def __init__(self, limit: int | None = None) -> None:
        self.limit = limit
        self.recorders: list[tuple[str, TraceRecorder]] = []

    def make_recorder(self, label: str | None = None) -> TraceRecorder:
        rec = TraceRecorder(limit=self.limit)
        self.recorders.append((label or f"run-{len(self.recorders)}", rec))
        return rec

    def profiler(self) -> Profiler:
        """A :class:`~repro.obs.profiler.Profiler` over all recorders so far."""
        prof = Profiler()
        for label, rec in self.recorders:
            prof.add_recorder(label, rec)
        return prof


def current_session() -> TraceSession | None:
    """The active session, or ``None``."""
    return _session


def default_recorder() -> TraceRecorder | None:
    """A fresh session-registered recorder, or ``None`` when no session
    is active.  Called by ``Network.__init__`` when no explicit recorder
    was passed."""
    if _session is None:
        return None
    return _session.make_recorder()


@contextmanager
def tracing(limit: int | None = None, label: str | None = None):
    """Activate an ambient :class:`TraceSession` for the ``with`` body.

    ``limit`` is forwarded to every recorder the session creates
    (``limit=0`` keeps only aggregates — the cheap profiling mode).
    Sessions nest; the previous one is restored on exit.
    """
    global _session
    prev = _session
    session = TraceSession(limit=limit)
    _session = session
    try:
        yield session
    finally:
        _session = prev
