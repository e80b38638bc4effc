"""Experiment CH — the chaos matrix: every protocol under fault injection.

Sweeps seeded message-loss rates across the protocol suite (flooding
broadcast, tree convergecast, token DFS, GHS MST plus its parallel-scan
fast variant, SLT global function),
with and without the cost-accounted reliable transport, and verifies the
robustness contract:

* with :class:`~repro.faults.transport.ReliableProcess`, every run
  completes with the *same final answer* as the fault-free run, and the
  retransmission overhead — measured in the paper's cost-sensitive units,
  each retry on ``e`` costing another ``w(e)`` — stays a small multiple
  of the fault-free communication cost;
* without the transport, a faulted run either still completes correctly
  (some protocols, e.g. flooding, are naturally redundant) or fails
  *detectably* (stall / watchdog timeout / abort) — never silently wrong.

Every chaos run — a sweep cell, a replay header, a fuzz evaluation, a
serve ``trace`` request — is one :class:`RunSpec`.  :func:`case_of`
resolves the protocol it names through one static registry
(:data:`PROTOCOLS`: the six matrix cases plus ``gamma_w(max)``, each
built only when a spec names it), and :func:`run_spec` executes it
against the memoized fault-free reference.
"""

from __future__ import annotations

import json
from collections import OrderedDict
from collections.abc import Callable
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import Any

from ..core.global_function import SUM, GlobalFunctionProcess
from ..core.slt import shallow_light_tree
from ..faults import ChaosOutcome, FaultPlan, run_chaos
from ..graphs import WeightedGraph, random_connected_graph
from ..protocols.broadcast import FloodProcess
from ..protocols.convergecast import ConvergecastProcess, rooted_tree_structure
from ..protocols.dfs import DfsProcess
from ..protocols.mst_ghs import GhsProcess
from ..sim.network import RunResult
from .base import Table, experiment
from .parallel import chaos_cells

__all__ = ["ChaosCase", "make_cases", "MATRIX", "PROTOCOLS", "RunSpec",
           "case_of", "run_spec", "chaos_matrix", "run"]

DROP_RATES = (0.0, 0.05, 0.2)


@dataclass
class ChaosCase:
    """One protocol under test: how to build it and how to read its answer."""

    name: str
    graph: WeightedGraph
    factory: Callable[[Any], Any]
    answer: Callable[[RunResult], Any]


def _flood_answer(result: RunResult) -> Any:
    # The broadcast answer is "every node holds the payload" — parents may
    # legitimately differ between delay schedules, so they are not part of it.
    return sorted((repr(v), p.payload) for v, p in result.processes.items())


def _dfs_answer(result: RunResult) -> Any:
    # The token walk is serial and deterministic, so the DFS tree itself is
    # part of the answer.
    return sorted(
        (repr(v), repr(p.parent)) for v, p in result.processes.items()
    )


def _mst_answer(result: RunResult) -> Any:
    edges = set()
    for v, p in result.processes.items():
        for u in p._branch_edges():
            edges.add(frozenset((repr(u), repr(v))))
    return sorted(tuple(sorted(e)) for e in edges)


def _global_answer(result: RunResult) -> Any:
    return sorted(
        (repr(v), p.ctx.result) for v, p in result.processes.items()
    )


def make_cases(n: int = 14, extra_edges: int = 20,
               graph_seed: int = 2) -> list[ChaosCase]:
    """The protocol suite on one benchmark graph (plus its SLT for the
    tree-structured protocols)."""
    g = random_connected_graph(n, extra_edges, seed=graph_seed)
    root = g.vertices[0]
    slt = shallow_light_tree(g, root, 2.0).tree
    parent, children = rooted_tree_structure(slt, root)
    inputs = {v: 1 for v in g.vertices}

    def flood_factory(v):
        return FloodProcess(v == root, "chaos-payload")

    def converge_factory(v):
        return ConvergecastProcess(parent[v], children[v], inputs[v],
                                   lambda a, b: a + b)

    def dfs_factory(v):
        return DfsProcess(v == root)

    def ghs_factory(v):
        return GhsProcess(False, n_total=g.num_vertices)

    def ghs_fast_factory(v):
        # The parallel-scan ("fast") GHS variant: first slice of the
        # hybrid/fast protocol family in the chaos matrix.
        return GhsProcess(True, n_total=g.num_vertices)

    def global_factory(v):
        return GlobalFunctionProcess(parent[v], children[v], inputs[v], SUM)

    return [
        ChaosCase("broadcast", g, flood_factory, _flood_answer),
        ChaosCase("convergecast", slt, converge_factory,
                  lambda r: r.result_of(root)),
        ChaosCase("dfs", g, dfs_factory, _dfs_answer),
        ChaosCase("mst_ghs", g, ghs_factory, _mst_answer),
        ChaosCase("mst_fast", g, ghs_fast_factory, _mst_answer),
        ChaosCase("global_fn(slt)", slt, global_factory, _global_answer),
    ]


#: The matrix cases, in :func:`make_cases` order.
MATRIX = ("broadcast", "convergecast", "dfs", "mst_ghs", "mst_fast",
          "global_fn(slt)")


@lru_cache(maxsize=8)
def _cases_by_name(n: int, extra_edges: int,
                   graph_seed: int) -> dict[str, ChaosCase]:
    """Per-process memo of the matrix suite on one benchmark graph."""
    return {c.name: c for c in make_cases(n, extra_edges, graph_seed)}


@lru_cache(maxsize=8)
def _gamma_w_cases(n: int, extra_edges: int,
                   graph_seed: int) -> dict[str, ChaosCase]:
    """The paper's synchronizer, packaged as a chaos case.

    ``gamma_w(max)`` runs :class:`~repro.synch.gamma_w.GammaWHost` nodes
    (hosting synchronous max-consensus) on the *normalized* benchmark
    graph, so the full stack — in-synch transform, per-level gamma
    clusters, pulse engine — sits under the fault adversary and the replay
    contract.  The answer is every node's hosted result (all must hold the
    global maximum).
    """
    from ..graphs.paths import diameter
    from ..protocols.max_consensus import SyncMaxConsensus
    from ..synch.gamma_w import GammaWConfig, GammaWHost

    g = random_connected_graph(n, extra_edges, seed=graph_seed)
    cfg = GammaWConfig(g, k=2)
    stop_pulse = int(diameter(g)) + 1
    w_max = int(max(w for _u, _v, w in g.edges()))
    max_pulse = 4 * (stop_pulse + 1) + 4 * w_max + 8
    values = {v: (v * 37 + 11) % (3 * n) for v in g.vertices}

    def inner(u: Any) -> SyncMaxConsensus:
        return SyncMaxConsensus(values[u], stop_pulse)

    def factory(v: Any) -> GammaWHost:
        return GammaWHost(v, cfg, inner, max_pulse)

    def answer(result: Any) -> Any:
        return sorted(
            (repr(v), p.wrapper.inner_result)
            for v, p in result.processes.items()
        )

    return {"gamma_w(max)": ChaosCase("gamma_w(max)", cfg.normalized,
                                      factory, answer)}


#: The case registry: each runnable protocol name, mapped to the memoized
#: builder of the suite that holds it.
_SUITES: dict[str, Callable[[int, int, int], dict[str, ChaosCase]]] = {
    **dict.fromkeys(MATRIX, _cases_by_name),
    "gamma_w(max)": _gamma_w_cases,
}

#: Every protocol a :class:`RunSpec` may name.
PROTOCOLS = tuple(_SUITES)


def _as_int(name: str, v: Any) -> int:
    # JSON round-trips may widen ints to floats; 8.0 means 8, 8.5 is an
    # error.
    if isinstance(v, float) and v.is_integer():
        v = int(v)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ValueError(f"{name} must be an int, got {v!r}")
    return v


@dataclass(frozen=True, eq=False)
class RunSpec:
    """One chaos run, fully described: the run is a pure function of it.

    ``protocol`` names a case in :data:`PROTOCOLS`; ``n`` /
    ``extra_edges`` / ``graph_seed`` parameterize the benchmark graph the
    case is built on; ``seed`` drives delays; ``plan`` is the fault
    adversary (``None`` = fault-free); ``limit`` bounds the recorder's
    event ring (``None`` = no recorder for a summary row, every event for
    a trace document); ``race`` arms the shared-state race detector.

    Construction validates every field (int-valued floats become ints,
    bools are strict, ``n >= 2``, ``limit >= 0``) and stores the plan in
    canonical form, so a spec, its :meth:`to_dict` and a replay header
    always name the same run.  Equality and hashing go through the
    canonical dict.
    """

    protocol: str
    n: int = 14
    extra_edges: int = 20
    graph_seed: int = 2
    seed: int = 0
    reliable: bool = True
    plan: FaultPlan | None = None
    limit: int | None = None
    race: bool = False

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOLS:
            raise ValueError(f"unknown protocol {self.protocol!r}; "
                             f"known: {list(PROTOCOLS)}")
        for name in ("n", "extra_edges", "graph_seed", "seed"):
            object.__setattr__(self, name, _as_int(name, getattr(self, name)))
        for name in ("reliable", "race"):
            if not isinstance(getattr(self, name), bool):
                raise ValueError(
                    f"{name} must be a bool, got {getattr(self, name)!r}")
        if self.n < 2:
            raise ValueError(f"n must be >= 2, got {self.n}")
        if self.limit is not None:
            limit = _as_int("limit", self.limit)
            if limit < 0:
                raise ValueError(f"limit must be >= 0, got {limit}")
            object.__setattr__(self, "limit", limit)
        if self.plan is not None:
            if not isinstance(self.plan, FaultPlan):
                raise ValueError(
                    f"plan must be a FaultPlan or None, got {self.plan!r}")
            # Sorted crashes and normalized edges: the plan that runs is the
            # plan the header names.  A scripted plan refuses here.
            object.__setattr__(self, "plan",
                               FaultPlan.from_dict(self.plan.to_dict()))

    @property
    def drop(self) -> float:
        """The plan's message-loss rate (0.0 without a plan)."""
        return 0.0 if self.plan is None else self.plan.drop

    @property
    def trace(self) -> bool:
        """Whether a summary row of this run carries a trace summary."""
        return self.limit is not None

    def to_dict(self) -> dict:
        """Canonical JSON-ready form: every field, the plan as its
        canonical :meth:`~repro.faults.plan.FaultPlan.to_dict`."""
        d = {f.name: getattr(self, f.name) for f in fields(self)}
        d["plan"] = None if self.plan is None else self.plan.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> RunSpec:
        """Inverse of :meth:`to_dict`; unknown keys and invalid values raise
        ``ValueError`` (or ``TypeError`` from a malformed plan)."""
        unknown = set(d) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown RunSpec keys: {sorted(unknown)}")
        if "protocol" not in d:
            raise ValueError("RunSpec needs a 'protocol'")
        plan = d.get("plan")
        if plan is not None and not isinstance(plan, dict):
            raise ValueError(f"plan must be null or a FaultPlan dict, got {plan!r}")
        return cls(**{**d, "plan": None if plan is None
                      else FaultPlan.from_dict(plan)})

    def _key(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, RunSpec):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def case_of(spec: RunSpec) -> ChaosCase:
    """The case ``spec`` names, on its benchmark graph (built once per
    process and graph shape, and only when some spec names it)."""
    suite = _SUITES[spec.protocol](spec.n, spec.extra_edges, spec.graph_seed)
    return suite[spec.protocol]


#: Per-process memo of fault-free reference runs, least recently used
#: first: ``(n, extra_edges, graph_seed, protocol) -> (answer, time,
#: comm_cost)``.  Only that compact summary is kept, so a reference
#: pickles in a few KB and a pool task can carry it to the workers.
_references: OrderedDict[tuple, tuple] = OrderedDict()
_MAX_REFERENCES = 64


def _reference(n: int, extra_edges: int, graph_seed: int,
               protocol: str) -> tuple:
    """One protocol's fault-free ``(answer, time, comm_cost)``, memoized."""
    key = (n, extra_edges, graph_seed, protocol)
    ref = _references.get(key)
    if ref is None:
        case = case_of(RunSpec(protocol, n, extra_edges, graph_seed))
        outcome = run_chaos(case.graph, case.factory, plan=None,
                            reliable=False, answer=case.answer)
        if outcome.status != "ok":  # pragma: no cover - suite invariant
            raise RuntimeError(
                f"fault-free reference run failed for {protocol}: "
                f"{outcome.status}"
            )
        ref = (outcome.answer, outcome.result.time, outcome.result.comm_cost)
    _seed_references({key: ref})
    return ref


def _seed_references(refs: dict) -> None:
    """Enter ``refs`` (as :func:`_warm_references` returns them) into this
    process's reference memo, evicting the least recently used past 64."""
    for key, ref in refs.items():
        _references.pop(key, None)
        _references[key] = ref  # most recently used last
    while len(_references) > _MAX_REFERENCES:
        _references.popitem(last=False)


def _warm_references(warm: tuple) -> dict:
    """The references of every warm spec, computed (once) in this process.

    Each spec is ``(n, extra_edges, graph_seed, protocols)``;
    ``protocols=None`` names the :data:`MATRIX` cases.
    """
    return {
        (n, extra_edges, graph_seed, name):
            _reference(n, extra_edges, graph_seed, name)
        for n, extra_edges, graph_seed, protocols in warm
        for name in (MATRIX if protocols is None else protocols)
    }


def run_spec(spec: RunSpec, *, recorder: Any = None,
             race_detect: Any = False) -> tuple[ChaosOutcome, float]:
    """Execute ``spec``; return its outcome and the fault-free reference cost.

    The memoized fault-free reference run supplies the expected answer — a
    faulted run that completes wrong classifies ``"wrong"`` — and the
    watchdog deadline, so a sweep cell and the replay of the same spec see
    identical cutoffs.  ``recorder`` and ``race_detect`` pass through to
    :func:`~repro.faults.runner.run_chaos`.
    """
    case = case_of(spec)
    answer, ff_time, ff_cost = _reference(spec.n, spec.extra_edges,
                                          spec.graph_seed, spec.protocol)
    # Success ends by quiescence; the watchdog only has to be generous
    # enough that backoff-stretched runs are not misclassified.
    watchdog = 500.0 * max(ff_time, 1.0) + 1000.0
    # A fresh plan per run, built from the canonical dict: a plan restored
    # by pickle (a spec shipped to a pool worker) decides fates measurably
    # slower than a constructed one.
    plan = None if spec.plan is None else FaultPlan.from_dict(spec.plan.to_dict())
    outcome = run_chaos(
        case.graph, case.factory, plan=plan, reliable=spec.reliable,
        watchdog_time=watchdog, seed=spec.seed, answer=case.answer,
        expect=answer, recorder=recorder, race_detect=race_detect,
    )
    return outcome, ff_cost


def chaos_matrix(
    n: int = 14,
    extra_edges: int = 20,
    graph_seed: int = 2,
    *,
    drop_rates: tuple = DROP_RATES,
    fault_seed: int = 7,
    include_raw: bool = True,
) -> list[dict]:
    """Run the full matrix; one result dict per (case, rate, transport).

    Each dict carries the :class:`~repro.faults.runner.ChaosOutcome`, the
    fault-free reference cost, and the overhead ratio the acceptance bound
    is asserted against.
    """
    rows: list[dict] = []
    for spec in chaos_cells(n=n, extra_edges=extra_edges,
                            graph_seed=graph_seed, drop_rates=drop_rates,
                            fault_seed=fault_seed, include_raw=include_raw):
        outcome, ff_cost = run_spec(spec)
        rows.append({
            "protocol": spec.protocol,
            "drop": spec.drop,
            "reliable": spec.reliable,
            "outcome": outcome,
            "ff_cost": ff_cost,
            "overhead_ratio": (
                outcome.retry_cost / ff_cost if ff_cost else 0.0
            ),
        })
    return rows


@experiment("chaos", "Chaos matrix: protocols x loss rates, reliability cost")
def run() -> list[Table]:
    rows = []
    for entry in chaos_matrix():
        outcome = entry["outcome"]
        comm = outcome.result.comm_cost if outcome.result else float("nan")
        rows.append([
            entry["protocol"],
            entry["drop"],
            "reliable" if entry["reliable"] else "raw",
            outcome.status,
            comm,
            outcome.retry_count,
            outcome.retry_cost,
            outcome.ack_cost,
            entry["overhead_ratio"],
        ])
    return [Table(
        title="Chaos matrix: seeded message loss across the protocol suite",
        header=["protocol", "drop", "transport", "status", "comm",
                "retries", "retry_cost", "ack_cost", "retry/ff"],
        rows=rows,
        notes="reliable runs must be 'ok' with the fault-free answer; raw "
              "runs under loss must never be silently wrong (retry costs "
              "in cost-sensitive units: each retry on e costs w(e))",
    )]
