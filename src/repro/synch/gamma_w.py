"""Synchronizer gamma_w — weighted network synchronization (Section 4).

Simulates a *weighted synchronous* network (delay on edge e exactly w(e))
on a *weighted asynchronous* network (delays adversarial in [0, w(e)]).
The construction follows Section 4.2:

* the network is normalized (weights rounded to powers of two) and the
  hosted protocol transformed to be in synch with it
  (:mod:`repro.synch.normalize`, Lemma 4.5);
* edges are stratified by weight: level ``i`` holds the edges of weight
  exactly ``2^i``.  A message sent on a level-i edge leaves at a pulse
  divisible by ``2^i`` and must arrive ``2^i`` pulses later — i.e. by the
  *next super-pulse* of level i — so one synchronizer-gamma instance per
  level (on the subgraph ``G_i``) is exactly what is needed: gamma_i
  treats pulse ``P * 2^i`` as its super-pulse ``P`` and guarantees
  super-pulse P is executed only after all level-i messages of super-pulse
  P-1 arrived;
* a vertex executes pulse ``p`` once, for every level i with ``2^i | p``
  in which it has edges, gamma_i has issued GO for super-pulse ``p / 2^i``
  (the paper's example: pulse 24 = 3 * 2^3 waits for gamma_0..gamma_3 to
  carry their pulses 24, 12, 6 and 3).

Safety detection uses acknowledgments: every protocol message is acked on
arrival, and a vertex is *safe* w.r.t. super-pulse P of level i once it
has executed pulse ``P * 2^i`` and all its level-i messages from that
pulse are acked (Definition 4.1 specialized to the stratification).

Costs (Lemma 4.8): per pulse, amortized over the 2^i-pulse spacing of each
level, communication ``O(k n log W)`` and time ``O(log_k n log W)``; with
``W = poly(n)`` these are ``O(k n log n)`` and ``O(log_k n log n)``.

:class:`GammaWHost` is a :class:`~repro.synch.host_base.SynchronizerHostBase`
like alpha_w's and beta_w's hosts: the pulse-tagged data plane, the acks
and the pulse loop are shared, and only the per-level control plane above
is gamma_w's own.  :func:`run_gamma_w` runs the network of hosts that
:func:`gamma_w_network` builds through the shared
:func:`~repro.synch.host_base.sync_outcome` and returns its
:class:`~repro.synch.host_base.SyncResult`, whose ``control_cost`` is the
``sync-gamma`` traffic.
"""

from __future__ import annotations

import math
from collections import defaultdict
from collections.abc import Callable
from typing import Any

from ..graphs.paths import diameter
from ..graphs.weighted_graph import Vertex, WeightedGraph
from ..sim.delays import DelayModel
from ..sim.network import Network
from ..sim.sync_runner import SynchronousProtocol
from .gamma import GammaNode
from .host_base import SynchronizerHostBase, SyncResult, sync_outcome
from .normalize import normalize_graph
from .partition import ClusterPartition, build_partition

__all__ = ["GammaWConfig", "GammaWHost", "gamma_w_network", "pulse_bounds",
           "run_gamma_w"]


class GammaWConfig:
    """Preprocessed structures shared by every host process.

    Holds the normalized graph, the per-level subgraphs ``G_i`` and their
    cluster partitions.  All of this is static preprocessing, computed once
    (the paper amortizes preprocessing away; we do not charge it to the
    per-pulse overheads either, but the benchmarks report it separately).
    """

    def __init__(self, graph: WeightedGraph, k: int = 2) -> None:
        self.original = graph
        self.normalized = normalize_graph(graph)
        self.k = k
        # Stratify edges by level: weight exactly 2^i in the normalized net.
        levels: dict[int, list] = defaultdict(list)
        for u, v, w in self.normalized.edges():
            i = int(round(math.log2(w)))
            levels[i].append((u, v, w))
        self.levels: dict[int, WeightedGraph] = {}
        self.partitions: dict[int, ClusterPartition] = {}
        self.participants: dict[int, frozenset] = {}
        for i, edges in sorted(levels.items()):
            sub = WeightedGraph(edges=edges)
            self.levels[i] = sub
            self.partitions[i] = build_partition(sub, k)
            self.participants[i] = frozenset(sub.vertices)

    def levels_of(self, v: Vertex) -> list[int]:
        return [i for i, parts in self.participants.items() if v in parts]


class GammaWHost(SynchronizerHostBase):
    """One node of the gamma_w synchronizer hosting one wrapped protocol.

    Only the control plane lives here; the data plane and the pulse loop
    are :class:`~repro.synch.host_base.SynchronizerHostBase`'s.
    """

    def __init__(
        self,
        node_id: Vertex,
        config: GammaWConfig,
        inner_factory: Callable[[Vertex], SynchronousProtocol],
        max_pulse: int,
    ) -> None:
        super().__init__(node_id, config.original, inner_factory, max_pulse)
        self.config = config
        self.my_levels = config.levels_of(node_id)
        self.gammas: dict[int, GammaNode] = {}
        self.go_level: dict[int, int] = {i: 0 for i in self.my_levels}
        self.pending_acks: dict[int, dict[int, int]] = {
            i: defaultdict(int) for i in self.my_levels
        }

    def _start_control_plane(self) -> None:
        for i in self.my_levels:
            self.gammas[i] = GammaNode(
                self._node,
                self.config.partitions[i],
                send=lambda to, msg, i=i: self._send_gamma(to, i, msg),
                on_go=lambda P, i=i: self._on_go(i, P),
            )

    def _send_gamma(self, to: Vertex, i: int, msg: Any) -> None:
        with self.trace_span("sync-gamma", detail=i):
            self.send(to, ("gamma", i, msg), tag="sync-gamma")

    def handle_control(self, frm: Vertex, payload: Any) -> None:
        kind, i, msg = payload
        assert kind == "gamma"
        self.gammas[i].handle(frm, msg)
        self._advance()

    def _level_of_edge(self, nbr: Vertex) -> int:
        return int(round(math.log2(self.edge_weight(nbr))))

    # -------------------------------------------------------------- #
    # Safety and admission
    # -------------------------------------------------------------- #

    def _on_protocol_send(self, to: Vertex, pulse: int) -> None:
        i = self._level_of_edge(to)
        if pulse % (1 << i) != 0:  # pragma: no cover - wrapper is in synch
            raise AssertionError(
                f"in-synch violation: pulse {pulse} on level-{i} edge"
            )
        self.pending_acks[i][pulse >> i] += 1

    def _on_ack(self, frm: Vertex, send_pulse: int) -> None:
        i = self._level_of_edge(frm)
        big_p = send_pulse >> i
        self.pending_acks[i][big_p] -= 1
        self._check_safety(i, big_p)

    def _after_pulse(self, pulse: int) -> None:
        for i in self.my_levels:
            if pulse % (1 << i) == 0:
                self._check_safety(i, pulse >> i)

    def _check_safety(self, i: int, big_p: int) -> None:
        """Declare (i, P) safe if pulse P*2^i executed and all acks in."""
        if self.pending_acks[i][big_p] == 0 and self.next_pulse > (big_p << i):
            self.gammas[i].node_safe(big_p)

    def _on_go(self, i: int, big_p: int) -> None:
        self.go_level[i] = max(self.go_level[i], big_p)
        self._advance()

    def _may_execute(self, pulse: int) -> bool:
        for i in self.my_levels:
            if pulse % (1 << i) == 0 and self.go_level[i] < (pulse >> i):
                return False
        return True


def pulse_bounds(
    graph: WeightedGraph, stop_pulse: int | None = None
) -> tuple[int, int]:
    """``(stop_pulse, max_pulse)`` for a protocol hosted on ``graph``.

    ``stop_pulse`` (the hosted protocol's last pulse) defaults to one past
    the weighted diameter, ``floor(D) + 1``.  ``max_pulse`` caps the outer
    pulse counter: four outer pulses per inner pulse up to ``stop_pulse``
    (the in-synch transform's x4 slowdown), plus ``4 W + 8`` for messages
    still in flight on edges up to the heaviest weight ``W`` to drain.
    """
    if stop_pulse is None:
        stop_pulse = int(diameter(graph)) + 1
    w_max = int(max(w for _u, _v, w in graph.edges()))
    return stop_pulse, 4 * (stop_pulse + 1) + 4 * w_max + 8


def run_gamma_w(
    graph: WeightedGraph,
    inner_factory: Callable[[Vertex], SynchronousProtocol],
    *,
    k: int = 2,
    max_pulse: int,
    delay: DelayModel | None = None,
    seed: int = 0,
    config: GammaWConfig | None = None,
    budget: float | None = None,
    recorder: Any | None = None,
) -> SyncResult:
    """Run a synchronous protocol on an asynchronous network via gamma_w.

    ``max_pulse`` caps the outer (x4-slowed, normalized) pulse counter; it
    must be at least ``4 * (inner completion pulse + 1)``, and
    :func:`pulse_bounds` gives one that suffices.  The run stops as soon as
    every node's hosted protocol has finished, or — when ``budget`` is
    given — as soon as the communication cost reaches the budget (the
    result's ``completed`` flag is then False); any other stall raises
    :class:`RuntimeError`.

    ``recorder`` attaches structured tracing (``repro.obs``): each node's
    pulses roll a ``pulse`` span, with ``sync-ack``/``sync-gamma``
    sub-spans for the synchronizer's control traffic, so the per-span
    cost breakdown of the trace refines this function's tag accounting.
    """
    return sync_outcome(
        gamma_w_network(graph, inner_factory, k=k, max_pulse=max_pulse,
                        delay=delay, seed=seed, config=config, budget=budget,
                        recorder=recorder),
        "sync-gamma",
    )


def gamma_w_network(
    graph: WeightedGraph,
    inner_factory: Callable[[Vertex], SynchronousProtocol],
    *,
    k: int = 2,
    max_pulse: int,
    delay: DelayModel | None = None,
    seed: int = 0,
    config: GammaWConfig | None = None,
    budget: float | None = None,
    recorder: Any | None = None,
) -> Network:
    """:func:`run_gamma_w`'s network of hosts, not yet run.

    :func:`~repro.synch.host_base.sync_outcome` runs it, and runs it on
    after a budget stop once the caller has raised ``comm_budget``.
    """
    cfg = config if config is not None else GammaWConfig(graph, k)
    return Network(
        cfg.normalized,
        lambda v: GammaWHost(v, cfg, inner_factory, max_pulse),
        delay=delay,
        seed=seed,
        comm_budget=budget,
        recorder=recorder,
    )
