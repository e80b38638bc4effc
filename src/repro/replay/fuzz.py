"""Coverage-guided chaos fuzzer over :class:`~repro.faults.plan.FaultPlan`.

``python -m repro.replay.fuzz`` mutates fault plans with a seeded mutator
(rate nudges, crash-window shifts, edge-target swaps), runs each mutant
through the chaos harness, and keeps only plans that produce a **novel
behavior signature** — status, observed event kinds, span paths, a
log-bucketed retry count, and race-detector violations
(:func:`outcome_signature`).  Every kept *failing* plan is then
ddmin-minimized (:func:`ddmin`, Zeller's delta debugging over plan
"atoms") so the corpus stores the smallest adversary that still breaks
the run, and the whole corpus is emitted as deterministic JSONL:
same seed + same budget ⇒ byte-identical output, because the budget is an
iteration count (never wall-clock), the mutator RNG is seeded, plans are
canonicalized through ``FaultPlan.from_dict(...).to_dict()``, and every
line is ``json.dumps(..., sort_keys=True)``.

Each evaluation is a :class:`~repro.experiments.chaos.RunSpec`
(aggregate-only recorder, race detector recording), and each corpus entry
embeds enough to rebuild it and re-run it through the replay engine
(:mod:`repro.replay.engine`); ``--verify`` re-executes every failing
entry, asserting the minimized plan still fails, is no larger than its
parent, and replays byte-identically.

Mutant batches shard across the persistent sweep pool
(:func:`repro.experiments.parallel.run_parallel`): batch composition
depends only on the mutator RNG and prior batches' (deterministic)
results, so serial and parallel fuzzing produce identical corpora.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import random
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field
from typing import Any

from ..experiments.chaos import RunSpec
from ..faults.plan import CrashWindow, FaultPlan

__all__ = [
    "FuzzResult",
    "evaluate_cell",
    "outcome_signature",
    "mutate_plan",
    "plan_atoms",
    "plan_from_atoms",
    "ddmin",
    "minimize_plan",
    "fuzz",
    "write_corpus",
    "verify_entry",
    "main",
]

#: Rate values the mutator snaps to — a coarse grid keeps the search
#: space small and mutants canonical.
_RATE_STEPS = (0.0, 0.02, 0.05, 0.1, 0.2, 0.35, 0.6)
_CRASH_STARTS = (0.0, 2.0, 5.0, 10.0, 25.0)
_CRASH_SPANS = (3.0, 10.0, 40.0, None)  # None = permanent crash


def plan_key(plan: FaultPlan) -> str:
    """The plan's canonical JSON string (corpus/cache/dedup key)."""
    return json.dumps(plan.to_dict(), sort_keys=True)


def _fuzz_spec(protocol: str, plan: FaultPlan, *, n: int, extra_edges: int,
               graph_seed: int, seed: int = 0, reliable: bool) -> RunSpec:
    """One fuzz evaluation: aggregate-only recorder, race detector on."""
    return RunSpec(protocol, n, extra_edges, graph_seed, seed=seed,
                   reliable=reliable, plan=plan, limit=0, race=True)


def evaluate_cell(spec: RunSpec) -> dict:
    """Run one fuzz evaluation and flatten the outcome to a primitive row.

    Module-level and closed over nothing so it shards across the
    persistent pool.
    """
    from .engine import record_run

    outcome = record_run(spec).outcome
    trace = outcome.trace
    counts = trace.counts if trace is not None else {}
    spans = trace.count_by_span if trace is not None else {}
    return {
        "protocol": spec.protocol,
        "plan": spec.plan.to_dict(),
        "status": outcome.status,
        "crashed": outcome.crashed,
        "violations": [list(v) for v in outcome.violations],
        "retry_count": outcome.retry_count,
        "kinds": sorted(k for k, c in counts.items() if c),
        "spans": sorted(spans),
    }


def _retry_bucket(count: int) -> int:
    # Log-bucketed so "a few retries" and "retry storm" are distinct
    # coverage points without every exact count being novel.
    return int(count).bit_length()


def outcome_signature(row: dict) -> tuple:
    """The coverage key: what *behavior* did this plan provoke?"""
    return (
        row["status"],
        row["crashed"],
        tuple(row["kinds"]),
        tuple(row["spans"]),
        _retry_bucket(row["retry_count"]),
        tuple(tuple(v) for v in row["violations"]),
    )


# --------------------------------------------------------------------- #
# Mutation
# --------------------------------------------------------------------- #

def mutate_plan(plan: FaultPlan, rng: random.Random,
                vertices: Sequence, edges: Sequence) -> FaultPlan:
    """One seeded mutation of ``plan`` (always returns a *valid* plan).

    Mutation kinds: nudge one fault rate to a grid value, add / shift /
    remove a crash window, swap the edge-target restriction, or reseed
    the adversary RNG.  ``vertices``/``edges`` supply the graph-aware
    target pools (deterministically ordered by the caller).
    """
    ops = ["rate", "rate", "crash_add", "crash_shift", "crash_remove",
           "edges", "reseed"]
    op = ops[rng.randrange(len(ops))]
    if op == "rate":
        name = FaultPlan._RATE_FIELDS[rng.randrange(
            len(FaultPlan._RATE_FIELDS))]
        current = getattr(plan, name)
        choices = [r for r in _RATE_STEPS if r != current]
        return plan.replace(**{name: choices[rng.randrange(len(choices))]})
    if op == "crash_add":
        node = vertices[rng.randrange(len(vertices))]
        start = _CRASH_STARTS[rng.randrange(len(_CRASH_STARTS))]
        span = _CRASH_SPANS[rng.randrange(len(_CRASH_SPANS))]
        window = CrashWindow(node, start,
                             None if span is None else start + span)
        return plan.replace(crashes=plan.crashes + (window,))
    if op == "crash_shift" and plan.crashes:
        i = rng.randrange(len(plan.crashes))
        cw = plan.crashes[i]
        start = _CRASH_STARTS[rng.randrange(len(_CRASH_STARTS))]
        span = _CRASH_SPANS[rng.randrange(len(_CRASH_SPANS))]
        shifted = CrashWindow(cw.node, start,
                              None if span is None else start + span)
        crashes = plan.crashes[:i] + (shifted,) + plan.crashes[i + 1:]
        return plan.replace(crashes=crashes)
    if op == "crash_remove" and plan.crashes:
        i = rng.randrange(len(plan.crashes))
        return plan.replace(crashes=plan.crashes[:i] + plan.crashes[i + 1:])
    if op == "edges":
        if plan.edges is not None and rng.randrange(2):
            return plan.replace(edges=None)  # lift the restriction
        k = 1 + rng.randrange(min(3, len(edges)))
        picked = sorted(rng.sample(range(len(edges)), k))
        return plan.replace(edges=[edges[i] for i in picked])
    if op == "reseed":
        return plan.replace(seed=rng.randrange(1_000_000))
    # crash_shift / crash_remove with no windows: fall back to a rate nudge.
    name = FaultPlan._RATE_FIELDS[rng.randrange(len(FaultPlan._RATE_FIELDS))]
    choices = [r for r in _RATE_STEPS if r != getattr(plan, name)]
    return plan.replace(**{name: choices[rng.randrange(len(choices))]})


# --------------------------------------------------------------------- #
# ddmin over plan atoms
# --------------------------------------------------------------------- #

def plan_atoms(plan: FaultPlan) -> list[tuple]:
    """Decompose a plan into independently removable fault "atoms".

    Atoms: each nonzero rate, each crash window, each edge-restriction
    entry.  Removing a rate atom zeroes it; removing a crash atom drops
    the window; removing an edge atom shrinks the faultable edge set
    (down to the empty set — *no* message faults — never back to "all
    edges", so removal always weakens the adversary).
    """
    atoms: list[tuple] = []
    for name in FaultPlan._RATE_FIELDS:
        value = getattr(plan, name)
        if value > 0.0:
            atoms.append(("rate", name, value))
    for cw in sorted(plan.crashes, key=lambda c: (c.start, repr(c.node))):
        atoms.append(("crash", (cw.node, cw.start, cw.end)))
    if plan._edge_set is not None:
        for pair in sorted((sorted(e, key=repr) for e in plan._edge_set),
                           key=lambda p: [repr(v) for v in p]):
            atoms.append(("edge", tuple(pair)))
    return atoms


def plan_from_atoms(base: FaultPlan, atoms: Sequence[tuple]) -> FaultPlan:
    """Rebuild a plan holding only ``atoms`` (seed/bound from ``base``)."""
    kwargs: dict[str, Any] = {name: 0.0 for name in FaultPlan._RATE_FIELDS}
    kwargs["reorder_bound"] = base.reorder_bound
    kwargs["seed"] = base.seed
    crashes: list[CrashWindow] = []
    edge_pairs: list[tuple] = []
    for atom in atoms:
        if atom[0] == "rate":
            kwargs[atom[1]] = atom[2]
        elif atom[0] == "crash":
            crashes.append(CrashWindow(*atom[1]))
        elif atom[0] == "edge":
            edge_pairs.append(atom[1])
        else:  # pragma: no cover - defensive
            raise ValueError(f"unknown atom {atom!r}")
    kwargs["crashes"] = tuple(crashes)
    if base._edge_set is not None:
        kwargs["edges"] = edge_pairs
    return FaultPlan(**kwargs)


def ddmin(atoms: list, test: Callable[[list], bool]) -> list:
    """Zeller's delta debugging: a 1-minimal subset with ``test`` true.

    ``test(atoms)`` must already hold.  The result is *1-minimal*:
    removing any single remaining atom makes ``test`` false.  ``test``
    must be deterministic; callers memoize it because each probe is a
    full simulation.
    """
    if not test(atoms):
        raise ValueError("ddmin requires test(atoms) to hold on entry")
    granularity = 2
    while len(atoms) >= 2:
        size = len(atoms) // granularity
        chunks = [atoms[i:i + size or 1]
                  for i in range(0, len(atoms), size or 1)]
        reduced = False
        for chunk in chunks:  # a single chunk suffices?
            if len(chunk) < len(atoms) and test(chunk):
                atoms, granularity, reduced = chunk, 2, True
                break
        if not reduced:
            for i in range(len(chunks)):  # a complement suffices?
                rest = [a for c in chunks[:i] + chunks[i + 1:] for a in c]
                if len(rest) < len(atoms) and test(rest):
                    atoms, reduced = rest, True
                    granularity = max(granularity - 1, 2)
                    break
        if not reduced:
            if granularity >= len(atoms):
                break
            granularity = min(len(atoms), granularity * 2)
    return atoms


def minimize_plan(spec: RunSpec) -> tuple[FaultPlan, int]:
    """ddmin-minimize a failing evaluation's plan.

    Returns ``(minimized_plan, evaluations_spent)``.  The failure
    predicate is ``status != "ok"`` re-run through :func:`evaluate_cell`
    (memoized on the canonical plan key — probes repeat heavily).
    """
    base = spec.plan
    cache: dict[str, bool] = {}

    def failing(atoms: list) -> bool:
        plan = plan_from_atoms(base, atoms)
        key = plan_key(plan)
        if key not in cache:
            row = evaluate_cell(dataclasses.replace(spec, plan=plan))
            cache[key] = row["status"] != "ok"
        return cache[key]

    atoms = plan_atoms(base)
    if not atoms:
        return base, 0
    minimal = ddmin(atoms, failing)
    return plan_from_atoms(base, minimal), len(cache)


# --------------------------------------------------------------------- #
# The fuzz loop
# --------------------------------------------------------------------- #

def _seed_plans() -> list[FaultPlan]:
    """The deterministic starting population (canonical, graph-agnostic)."""
    return [
        FaultPlan(),
        FaultPlan(drop=0.05, seed=1),
        FaultPlan(drop=0.35, seed=2),
        FaultPlan(corrupt=0.2, seed=3),
        FaultPlan(crashes=(CrashWindow(0, 5.0, None),), seed=4),
        FaultPlan(drop=0.1, duplicate=0.1, reorder=0.2, seed=5),
    ]


@dataclass
class FuzzResult:
    """A completed fuzz campaign: settings, kept entries, accounting."""

    settings: dict
    entries: list[dict] = field(default_factory=list)
    evaluations: int = 0
    minimize_evaluations: int = 0

    @property
    def failing(self) -> list[dict]:
        return [e for e in self.entries if e["status"] != "ok"]


def fuzz(
    protocols: Sequence[str],
    *,
    budget: int = 60,
    seed: int = 0,
    n: int = 10,
    extra_edges: int = 10,
    graph_seed: int = 2,
    reliable: bool = True,
    jobs: int | None = None,
    batch: int = 8,
    minimize: bool = True,
    log: Callable[[str], None] | None = None,
) -> FuzzResult:
    """Run a fuzz campaign of exactly ``budget`` mutant evaluations.

    The budget is an iteration count, never wall-clock, so a campaign is
    a pure function of its arguments (``jobs`` only changes where cells
    execute).  Minimization probes are accounted separately
    (``minimize_evaluations``) and do not consume the budget.
    """
    from ..experiments.parallel import run_parallel
    from ..graphs.generators import random_connected_graph

    say = log if log is not None else (lambda _msg: None)
    graph = random_connected_graph(n, extra_edges, seed=graph_seed)
    vertices = sorted(graph.vertices, key=repr)
    edge_pairs = sorted(
        ((u, v) for u, v, _w in graph.edges()),
        key=lambda e: (repr(e[0]), repr(e[1])),
    )
    rng = random.Random(seed)
    population = [plan_key(p) for p in _seed_plans()]
    coverage: dict[tuple, int] = {}
    result = FuzzResult(settings={
        "protocols": list(protocols), "budget": budget, "seed": seed,
        "n": n, "extra_edges": extra_edges, "graph_seed": graph_seed,
        "reliable": reliable,
    })
    while result.evaluations < budget:
        cells = []
        for _ in range(min(batch, budget - result.evaluations)):
            protocol = protocols[rng.randrange(len(protocols))]
            parent = population[rng.randrange(len(population))]
            mutant = mutate_plan(FaultPlan.from_dict(json.loads(parent)),
                                 rng, vertices, edge_pairs)
            cells.append(_fuzz_spec(
                protocol, mutant, n=n, extra_edges=extra_edges,
                graph_seed=graph_seed, reliable=reliable,
            ))
        rows = run_parallel(evaluate_cell, cells, jobs=jobs)
        for spec, row in zip(cells, rows):
            result.evaluations += 1
            signature = outcome_signature(row)
            if signature in coverage:
                continue
            coverage[signature] = result.evaluations
            population.append(plan_key(spec.plan))
            entry = {
                "found_at": result.evaluations,
                "protocol": spec.protocol,
                "n": n, "extra_edges": extra_edges,
                "graph_seed": graph_seed, "seed": spec.seed,
                "reliable": reliable,
                "plan": row["plan"],
                "status": row["status"],
                "signature": [signature[0], signature[1],
                              list(signature[2]), list(signature[3]),
                              signature[4],
                              [list(v) for v in signature[5]]],
                "violations": row["violations"],
            }
            if minimize and row["status"] != "ok":
                minimized, probes = minimize_plan(spec)
                result.minimize_evaluations += probes
                entry["minimized"] = minimized.to_dict()
                entry["minimized_atoms"] = len(plan_atoms(minimized))
                entry["parent_atoms"] = len(plan_atoms(
                    FaultPlan.from_dict(row["plan"])))
                say(f"[{result.evaluations}/{budget}] novel "
                    f"{row['status']!r} on {spec.protocol} "
                    f"(minimized {entry['parent_atoms']} -> "
                    f"{entry['minimized_atoms']} atoms)")
            else:
                say(f"[{result.evaluations}/{budget}] novel "
                    f"{row['status']!r} on {spec.protocol}")
            result.entries.append(entry)
    return result


def write_corpus(result: FuzzResult, path: str) -> str:
    """Emit the campaign as deterministic JSONL; returns ``path``."""
    lines = [json.dumps({"kind": "fuzz-corpus", "version": 1,
                         "settings": result.settings,
                         "evaluations": result.evaluations,
                         "novel": len(result.entries),
                         "failing": len(result.failing)},
                        sort_keys=True)]
    lines.extend(json.dumps(e, sort_keys=True) for e in result.entries)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    return path


def verify_entry(entry: dict) -> list[str]:
    """Re-execute one failing corpus entry; returns failure strings.

    Checks: the minimized plan still fails with a detectable-or-wrong
    status, it is no larger (in atoms) than its parent, and the parent
    plan's run replays byte-identically through the replay engine.
    """
    from ..obs.exporters import load_jsonl
    from .engine import record_run, verify_trace

    problems: list[str] = []
    spec = _fuzz_spec(
        entry["protocol"], FaultPlan.from_dict(entry["plan"]),
        n=entry["n"], extra_edges=entry["extra_edges"],
        graph_seed=entry["graph_seed"], seed=entry["seed"],
        reliable=entry["reliable"],
    )
    run = record_run(spec)
    if run.outcome.status != entry["status"]:
        problems.append(
            f"status drifted: recorded {entry['status']!r}, "
            f"re-run gave {run.outcome.status!r}"
        )
    if "minimized" in entry:
        min_plan = FaultPlan.from_dict(entry["minimized"])
        if len(plan_atoms(min_plan)) > entry["parent_atoms"]:
            problems.append("minimized plan is larger than its parent")
        min_row = evaluate_cell(dataclasses.replace(spec, plan=min_plan))
        if min_row["status"] == "ok":
            problems.append("minimized plan no longer fails")
    report = verify_trace(load_jsonl(run.text))
    if not report.ok:
        problems.append(f"replay divergence: {report.divergence.describe()}")
    return problems


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.replay.fuzz",
        description="Coverage-guided chaos fuzzer over fault plans.",
    )
    parser.add_argument("--protocols", default="broadcast,mst_ghs",
                        help="comma-separated chaos case names")
    parser.add_argument("--budget", type=int, default=60,
                        help="mutant evaluations (iteration count)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--n", type=int, default=10)
    parser.add_argument("--extra-edges", type=int, default=10)
    parser.add_argument("--graph-seed", type=int, default=2)
    parser.add_argument("--jobs", type=int, default=None)
    parser.add_argument("--unreliable", action="store_true",
                        help="fuzz the raw transport instead of the "
                             "reliable one")
    parser.add_argument("--no-minimize", action="store_true")
    parser.add_argument("--out", default=None,
                        help="corpus JSONL path (default: no file)")
    parser.add_argument("--min-novel", type=int, default=0,
                        help="fail unless at least this many novel "
                             "signatures were found")
    parser.add_argument("--verify", action="store_true",
                        help="re-execute every failing entry: minimized "
                             "still fails, no larger, replays "
                             "byte-identically")
    args = parser.parse_args(argv)

    protocols = [p.strip() for p in args.protocols.split(",") if p.strip()]
    result = fuzz(
        protocols, budget=args.budget, seed=args.seed, n=args.n,
        extra_edges=args.extra_edges, graph_seed=args.graph_seed,
        reliable=not args.unreliable, jobs=args.jobs,
        minimize=not args.no_minimize, log=print,
    )
    print(f"{result.evaluations} evaluations "
          f"(+{result.minimize_evaluations} minimization probes), "
          f"{len(result.entries)} novel signatures, "
          f"{len(result.failing)} failing")
    if args.out:
        write_corpus(result, args.out)
        print(f"corpus written to {args.out}")
    status = 0
    if args.verify:
        for entry in result.failing:
            problems = verify_entry(entry)
            label = f"{entry['protocol']} @{entry['found_at']}"
            if problems:
                status = 1
                for p in problems:
                    print(f"VERIFY FAIL {label}: {p}")
            else:
                print(f"verify ok: {label} ({entry['status']})")
    if len(result.entries) < args.min_novel:
        print(f"FAIL: only {len(result.entries)} novel signatures "
              f"(< {args.min_novel})")
        status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
