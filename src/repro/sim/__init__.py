"""Discrete-event simulation of weighted asynchronous (and synchronous) networks."""

from .delays import DelayModel, MaximalDelay, PerEdgeDelay, ScaledDelay, UniformDelay
from .events import EventQueue
from .metrics import Metrics
from .network import MaxEventsExceeded, Network, RunResult, all_finished
from .process import Process
from .sync_runner import (
    SyncContext,
    SynchronousProtocol,
    SynchronousRunner,
    SyncRunResult,
)

__all__ = [
    "EventQueue",
    "Metrics",
    "Process",
    "Network",
    "RunResult",
    "MaxEventsExceeded",
    "all_finished",
    "DelayModel",
    "MaximalDelay",
    "ScaledDelay",
    "UniformDelay",
    "PerEdgeDelay",
    "SynchronousProtocol",
    "SyncContext",
    "SynchronousRunner",
    "SyncRunResult",
]

from .mux import MuxProcess  # noqa: E402

__all__.append("MuxProcess")
