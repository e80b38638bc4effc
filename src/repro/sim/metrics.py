"""Cost-sensitive accounting (paper Section 1.3).

The *communication complexity* of a run is the sum over all transmitted
messages of ``w(e)`` (times the message's size in words, default 1); the
*time complexity* is the physical completion time.  Messages carry a free-
form ``tag`` so layered protocols (e.g. a synchronous algorithm under a
synchronizer, or a controller wrapping a protocol) can split their cost
into components (payload vs. acks vs. control traffic).
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field

__all__ = ["Metrics"]


@dataclass
class Metrics:
    """Mutable cost/time accounting for one simulation run.

    The network's send path (``Network._transmit``) updates the message
    fields in place: per accepted send, ``message_count`` and
    ``count_by_tag[tag]`` grow by one, ``comm_cost`` and
    ``cost_by_tag[tag]`` by ``w(e) * size``.
    """

    message_count: int = 0
    comm_cost: float = 0.0
    completion_time: float = 0.0   # time of the last delivery / finish event
    last_finish_time: float = 0.0  # time the last process called finish()
    cost_by_tag: dict = field(default_factory=lambda: defaultdict(float))
    count_by_tag: dict = field(default_factory=lambda: defaultdict(int))
    # Adversarial events injected by a FaultPlan (drops, duplicates,
    # corruptions, reorders, crashes, deliveries lost to a down node).
    fault_counts: dict = field(default_factory=lambda: defaultdict(int))

    def record_fault(self, kind: str) -> None:
        self.fault_counts[kind] += 1

    def tagged_cost(self, *prefixes: str) -> float:
        """Total cost over tags starting with any of the given prefixes."""
        return sum(
            c for t, c in self.cost_by_tag.items()
            if any(t.startswith(p) for p in prefixes)
        )

    def as_dict(self) -> dict:
        """Plain-dict snapshot for exporters and sweep rows.

        Tag and fault maps are materialized as ordinary dicts with sorted
        keys (no ``defaultdict``), so the result is JSON-serializable and
        byte-stable under ``json.dumps(sort_keys=True)``.
        """
        return {
            "message_count": self.message_count,
            "comm_cost": self.comm_cost,
            "completion_time": self.completion_time,
            "last_finish_time": self.last_finish_time,
            "cost_by_tag": {t: self.cost_by_tag[t]
                            for t in sorted(self.cost_by_tag)},
            "count_by_tag": {t: self.count_by_tag[t]
                             for t in sorted(self.count_by_tag)},
            "fault_counts": {k: self.fault_counts[k]
                             for k in sorted(self.fault_counts)},
        }

    def summary(self) -> str:
        parts = [
            f"messages={self.message_count}",
            f"comm_cost={self.comm_cost:g}",
            f"time={self.completion_time:g}",
        ]
        for tag in sorted(self.cost_by_tag):
            parts.append(
                f"{tag}: n={self.count_by_tag[tag]} cost={self.cost_by_tag[tag]:g}"
            )
        for kind in sorted(self.fault_counts):
            parts.append(f"fault[{kind}]={self.fault_counts[kind]}")
        return "  ".join(parts)
