"""ServeStats — the service's counter block.

One instance per :class:`~repro.serve.service.ServeService`; every field
is exact (no sampling): the bench asserts ``hits`` equals the expected
dedupe count of its workload *exactly*, so these counters are part of
the service's contract, not best-effort telemetry.

Service times are recorded in seconds by the caller (the service brackets
each request with its own monotonic reads, so this module stays free of
clock access) and summarized as nearest-rank p50/p99 over a bounded
window of the most recent observations.
"""

from __future__ import annotations

from typing import Any

__all__ = ["ServeStats"]

# Service-time observations kept for the percentile window.  Bounded so a
# long-lived server's stats block stays O(1); 4096 is plenty for a p99.
_WINDOW = 4096


class ServeStats:
    """Exact request counters plus a bounded service-time window.

    ``hits``
        requests answered from the persistent result store;
    ``misses``
        cold requests that executed against the engine;
    ``coalesced``
        requests that joined an identical in-flight execution
        (single-flight dedupe) instead of running or reading the store;
    ``evictions``
        store entries removed by the capacity policy;
    ``integrity_failures``
        store reads whose object failed verification — SHA-256, length
        or format (the entry is dropped and the request re-executed);
    ``rejected``
        requests refused by capacity-limited admission;
    ``errors``
        requests that raised during validation or execution;
    ``queue_depth`` / ``max_queue_depth``
        admitted-but-unfinished requests, now and at peak.
    """

    def __init__(self) -> None:
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.evictions = 0
        self.integrity_failures = 0
        self.rejected = 0
        self.errors = 0
        self.queue_depth = 0
        self.max_queue_depth = 0
        self._times: list[float] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def enter(self) -> None:
        """One request admitted (bumps the queue-depth gauge)."""
        self.queue_depth += 1
        if self.queue_depth > self.max_queue_depth:
            self.max_queue_depth = self.queue_depth

    def exit(self) -> None:
        """One admitted request finished (success or error)."""
        self.queue_depth -= 1

    def record_time(self, seconds: float) -> None:
        """Record one request's service time (seconds, caller-measured)."""
        self._times.append(seconds)
        if len(self._times) > _WINDOW:
            del self._times[: len(self._times) - _WINDOW]

    # ------------------------------------------------------------------ #
    # Reading
    # ------------------------------------------------------------------ #

    @property
    def served(self) -> int:
        """Completed requests: hits + misses + coalesced."""
        return self.hits + self.misses + self.coalesced

    def percentile(self, p: float) -> float:
        """Nearest-rank percentile of the service-time window (seconds)."""
        if not self._times:
            return 0.0
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile {p!r} outside [0, 100]")
        ordered = sorted(self._times)
        rank = max(1, -(-len(ordered) * p // 100))  # ceil without floats
        return ordered[int(rank) - 1]

    def snapshot(self) -> dict[str, Any]:
        """The counter block as a JSON-ready dict (milliseconds for times)."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "evictions": self.evictions,
            "integrity_failures": self.integrity_failures,
            "rejected": self.rejected,
            "errors": self.errors,
            "served": self.served,
            "queue_depth": self.queue_depth,
            "max_queue_depth": self.max_queue_depth,
            "p50_ms": self.percentile(50.0) * 1e3,
            "p99_ms": self.percentile(99.0) * 1e3,
            "timed": len(self._times),
        }
