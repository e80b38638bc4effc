"""Fault-injection adversaries for the weighted network simulator.

The paper's execution model is already adversarial in its *timing* (every
edge delay varies in ``[0, w(e)]``, Section 1.3); a :class:`FaultPlan`
extends the adversary to *reliability*: per-transmission message loss,
duplication, corruption, bounded reordering, and scheduled node
crash/recovery.  All decisions are drawn from a dedicated RNG seeded by
``FaultPlan.seed`` (the :class:`~repro.sim.network.Network` owns the RNG
instance), so a run is a pure function of
``(graph, protocol, FaultPlan, seed)`` — identical inputs replay exactly.

Cost accounting: a faulted transmission still costs ``w(e) * size`` — the
sender transmitted, the adversary interfered afterwards.  Network-level
duplicates cost nothing extra (the sender paid once); only *end-to-end
retransmissions* (see :mod:`repro.faults.transport`) pay again, which is
precisely what makes the reliability overhead measurable in the paper's
cost-sensitive units.
"""

from __future__ import annotations

import dataclasses
import random
from collections.abc import Callable, Collection, Iterable
from dataclasses import dataclass, field
from typing import Any

from ..graphs.weighted_graph import Vertex

__all__ = ["CorruptedPayload", "CrashWindow", "FaultPlan"]


class CorruptedPayload:
    """Marker wrapper for a payload damaged in transit.

    Models a frame whose checksum fails at the receiver: the original
    content is retained (for inspection/debugging) but a well-behaved
    receiver — e.g. :class:`~repro.faults.transport.ReliableProcess` —
    must treat the frame as garbage and discard it.  Raw protocols that
    index into it will fail loudly, which the chaos harness classifies as
    a *detectable* failure.
    """

    __slots__ = ("original",)

    def __init__(self, original: Any) -> None:
        self.original = original

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"CorruptedPayload({self.original!r})"


@dataclass(frozen=True)
class CrashWindow:
    """One scheduled outage: ``node`` is down during ``[start, end)``.

    ``end`` may be ``None`` / ``inf`` for a permanent crash.  While down,
    a node neither sends nor receives (in-flight messages addressed to it
    are lost) and its timers are deferred to the recovery instant; its
    local state survives (crash-recover with durable memory).

    The window is validated at construction: ``start`` must be >= 0 and
    ``end``, when finite, must be strictly after ``start`` — an inverted
    or empty window (``start >= end``) is a plan-authoring bug, not a
    no-op adversary.
    """

    node: Vertex
    start: float
    end: float | None = None

    def __post_init__(self) -> None:
        if self.start < 0.0:
            raise ValueError(f"crash window starts before time 0: {self}")
        if self.end is not None and self.end <= self.start:
            raise ValueError(
                f"crash window is inverted or empty (start >= end): {self}"
            )

    def __iter__(self):
        # Lets the Network unpack windows as plain (node, start, end).
        return iter((self.node, self.start, self.end))

    def to_dict(self) -> dict:
        """JSON-ready form; ``inf`` ends normalize to ``None`` (permanent)."""
        end = self.end if self.end != float("inf") else None
        return {"node": self.node, "start": self.start, "end": end}

    @classmethod
    def from_dict(cls, d: dict) -> CrashWindow:
        """Inverse of :meth:`to_dict`, re-validating the window."""
        unknown = set(d) - {"node", "start", "end"}
        if unknown:
            raise ValueError(f"unknown CrashWindow keys: {sorted(unknown)}")
        if "node" not in d or "start" not in d:
            raise ValueError(f"CrashWindow dict needs node and start: {d!r}")
        return cls(d["node"], d["start"], d.get("end"))


def _normalize_edges(
    edges: Iterable[tuple[Vertex, Vertex]] | None
) -> frozenset | None:
    if edges is None:
        return None
    return frozenset(frozenset(e) for e in edges)


@dataclass
class FaultPlan:
    """A deterministic, seeded adversary over message faults and crashes.

    Parameters
    ----------
    drop, duplicate, corrupt, reorder:
        Independent per-transmission probabilities in ``[0, 1]``.  At most
        one fault applies per transmission, with precedence
        drop > corrupt > duplicate > reorder (a dropped message cannot
        also be duplicated).
    reorder_bound:
        A reordered (or duplicated second-copy) delivery is delayed by an
        extra amount drawn uniformly from ``[0, reorder_bound * w(e)]``
        and exempted from the FIFO clamp, so later messages may overtake
        it — reordering *within a bound*, never unboundedly stale.
    seed:
        Seed for the adversary's dedicated RNG (kept separate from the
        delay-model RNG so fault injection never perturbs delays).
    edges:
        Optional collection of undirected edges ``(u, v)``; when given,
        message faults apply only to transmissions on those edges (both
        directions).  Crash windows are unaffected.
    crashes:
        Crash schedule: an iterable of :class:`CrashWindow` (or plain
        ``(node, start, end)`` triples).
    script:
        Optional *deterministic* adversary: ``script(frm, to, index)``
        is consulted first for every transmission (``index`` counts
        transmissions per directed edge, starting at 0) and may return
        ``"drop"`` / ``"corrupt"`` / ``"duplicate"`` / ``"reorder"`` to
        force that fault, ``"deliver"`` to force clean delivery, or
        ``None`` to fall through to the probabilistic model.  This is how
        paper-style worst-case constructions are expressed exactly.
    """

    drop: float = 0.0
    duplicate: float = 0.0
    corrupt: float = 0.0
    reorder: float = 0.0
    reorder_bound: float = 1.0
    seed: int = 0
    edges: Collection[tuple[Vertex, Vertex]] | None = None
    crashes: tuple = ()
    script: Callable[[Vertex, Vertex, int], str | None] | None = None
    _edge_set: frozenset | None = field(init=False, repr=False, default=None)
    _tx_index: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "corrupt", "reorder"):
            p = getattr(self, name)
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"{name} probability {p!r} outside [0, 1]")
        if self.reorder_bound < 0.0:
            raise ValueError("reorder_bound must be >= 0")
        self._edge_set = _normalize_edges(self.edges)
        # Normalizing plain (node, start, end) triples through CrashWindow
        # also validates every window (start >= 0, start < end).
        self.crashes = tuple(
            cw if isinstance(cw, CrashWindow) else CrashWindow(*cw)
            for cw in self.crashes
        )

    # ------------------------------------------------------------------ #
    # Constructors for common adversaries
    # ------------------------------------------------------------------ #

    @classmethod
    def message_loss(cls, rate: float, *, seed: int = 0) -> FaultPlan:
        """Uniform per-transmission loss — the canonical chaos adversary."""
        return cls(drop=rate, seed=seed)

    @classmethod
    def random_crashes(
        cls,
        nodes: Iterable[Vertex],
        *,
        count: int,
        horizon: float,
        downtime: float,
        seed: int = 0,
        spare: Collection[Vertex] | None = None,
        **message_faults,
    ) -> FaultPlan:
        """Crash ``count`` distinct nodes once each, windows drawn in
        ``[0, horizon]`` with the given ``downtime``, deterministically
        from ``seed``.  ``spare`` nodes (e.g. the root) are never crashed.
        Extra keyword arguments become message-fault probabilities.
        """
        pool = sorted((v for v in nodes if not spare or v not in spare),
                      key=repr)
        if count > len(pool):
            raise ValueError(f"cannot crash {count} of {len(pool)} nodes")
        rng = random.Random(seed)
        victims = rng.sample(pool, count)
        windows = tuple(
            CrashWindow(v, t0 := rng.uniform(0.0, horizon), t0 + downtime)
            for v in victims
        )
        return cls(crashes=windows, seed=seed, **message_faults)

    # ------------------------------------------------------------------ #
    # Serialization and mutation (the fuzzer / replay surface)
    # ------------------------------------------------------------------ #

    _RATE_FIELDS = ("drop", "duplicate", "corrupt", "reorder")
    _DICT_KEYS = frozenset(
        _RATE_FIELDS + ("reorder_bound", "seed", "edges", "crashes")
    )

    def to_dict(self) -> dict:
        """Canonical JSON-ready form of this plan.

        Zero-valued rates are kept (the dict always lists every rate), the
        edge restriction serializes as a repr-sorted list of ``[u, v]``
        pairs, and crash windows serialize via
        :meth:`CrashWindow.to_dict` in (start, node-repr) order — so equal
        plans always produce byte-identical ``json.dumps(sort_keys=True)``
        output, which is what the fuzz corpus and replay headers key on.
        Plans carrying a ``script`` callable are not serializable.
        """
        if self.script is not None:
            raise ValueError("a scripted FaultPlan cannot be serialized "
                             "(script callables have no canonical form)")
        d: dict[str, Any] = {name: getattr(self, name)
                             for name in self._RATE_FIELDS}
        d["reorder_bound"] = self.reorder_bound
        d["seed"] = self.seed
        if self._edge_set is not None:
            d["edges"] = sorted(
                (sorted(e, key=repr) for e in self._edge_set),
                key=lambda pair: [repr(v) for v in pair],
            )
        if self.crashes:
            d["crashes"] = [
                cw.to_dict() for cw in sorted(
                    self.crashes, key=lambda c: (c.start, repr(c.node))
                )
            ]
        return d

    @classmethod
    def from_dict(cls, d: dict) -> FaultPlan:
        """Inverse of :meth:`to_dict`; re-runs all plan validation.

        Unknown keys raise (a corpus entry or replay header with a typo'd
        field must fail loudly, not silently fuzz a weaker adversary).
        """
        unknown = set(d) - cls._DICT_KEYS
        if unknown:
            raise ValueError(f"unknown FaultPlan keys: {sorted(unknown)}")
        kwargs: dict[str, Any] = {
            name: d[name] for name in cls._DICT_KEYS
            if name in d and name not in ("edges", "crashes")
        }
        if d.get("edges") is not None:
            kwargs["edges"] = [tuple(e) for e in d["edges"]]
        if d.get("crashes"):
            kwargs["crashes"] = tuple(
                CrashWindow.from_dict(cw) for cw in d["crashes"]
            )
        return cls(**kwargs)

    def replace(self, **changes: Any) -> FaultPlan:
        """A new validated plan with the given fields replaced.

        The mutation hook the fuzzer builds on: rate nudges, crash-window
        edits and edge-target swaps all go through here, so every mutant
        re-runs ``__post_init__`` validation.
        """
        return dataclasses.replace(self, **changes)

    # ------------------------------------------------------------------ #
    # The Network-facing surface
    # ------------------------------------------------------------------ #

    def reset(self) -> None:
        """Clear per-run bookkeeping (the per-edge transmission counters).

        The Network calls :meth:`fate` with a fresh RNG per run; the only
        other mutable state is the script's transmission index, reset here
        (and lazily by a fresh Network via its own plan instance).
        """
        self._tx_index.clear()

    def _decide(self, frm: Vertex, to: Vertex, rng: random.Random) -> str:
        if self.script is not None:
            idx = self._tx_index.get((frm, to), 0)
            self._tx_index[(frm, to)] = idx + 1
            forced = self.script(frm, to, idx)
            if forced is not None:
                return forced
        # Constant RNG consumption per transmission (four draws) keeps the
        # stream alignment independent of which faults actually fire.
        r_drop, r_corrupt, r_dup, r_reorder = (
            rng.random(), rng.random(), rng.random(), rng.random()
        )
        if r_drop < self.drop:
            return "drop"
        if r_corrupt < self.corrupt:
            return "corrupt"
        if r_dup < self.duplicate:
            return "duplicate"
        if r_reorder < self.reorder:
            return "reorder"
        return "deliver"

    def fate(
        self,
        frm: Vertex,
        to: Vertex,
        weight: float,
        payload: Any,
        rng: random.Random,
    ) -> tuple[str, list[tuple[float, Any]]]:
        """Decide what happens to one transmission.

        Returns ``(fate_name, deliveries)`` where each delivery is an
        ``(extra_delay, payload)`` pair scheduled on top of the normal
        (delay-model + FIFO) arrival time.
        """
        if self._edge_set is not None and frozenset((frm, to)) not in self._edge_set:
            return "deliver", [(0.0, payload)]
        action = self._decide(frm, to, rng)
        if action == "deliver":
            return "deliver", [(0.0, payload)]
        if action == "drop":
            return "drop", []
        if action == "corrupt":
            return "corrupt", [(0.0, CorruptedPayload(payload))]
        jitter = rng.uniform(0.0, self.reorder_bound * weight)
        if action == "duplicate":
            return "duplicate", [(0.0, payload), (jitter, payload)]
        if action == "reorder":
            return "reorder", [(jitter, payload)]
        raise ValueError(f"unknown fault action {action!r}")
