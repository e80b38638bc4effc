"""Fleet-scale golden corpora: many pinned traces, sharded over the pool.

The committed golden corpus (``tests/fixtures/golden/``) pins a handful
of hand-picked runs; a *fleet* corpus scales the same byte-identity net
to hundreds or thousands of pinned traces by deriving a deterministic
spec matrix and pushing recording/checking through the persistent
process pool:

* :func:`fleet_specs` enumerates ``count`` named
  :class:`~repro.experiments.chaos.RunSpec`\\ s over a
  protocol x seed x adversary grid (every knob derived from the fleet
  seed via :func:`~repro.experiments.parallel.cell_seed`, so the corpus
  is identical on every host);
* :func:`record_fleet` records them into ``shard-NN/`` subdirectories
  (shard chosen by spec-name hash, so the layout is path-stable as the
  fleet grows) plus a ``manifest.json`` of name -> trace SHA-256;
* :func:`check_fleet` replays a corpus — all of it, or a deterministic
  ``sample`` — through the pool and reports per-trace verdicts.

The cell workers are module-level and close over nothing, so they shard
across the pool exactly like chaos cells do; serial (``jobs=None``) and
pooled runs produce byte-identical corpora and verdicts.

CLI: ``python scripts/record_golden.py --fleet N [--check] [--jobs J]``.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any

from ..experiments.chaos import RunSpec
from ..faults.plan import FaultPlan
from .engine import check_golden, record_run

__all__ = [
    "FLEET_PROTOCOLS",
    "fleet_specs",
    "record_fleet",
    "check_fleet",
    "fleet_paths",
    "fleet_sample",
]

#: Protocols the fleet grid cycles through — the chaos suite's core five.
#: (``gamma_w(max)`` is excluded: its traces are large and the committed
#: corpus already pins one.)
FLEET_PROTOCOLS = ("broadcast", "convergecast", "dfs", "mst_ghs",
                   "global_fn(slt)")

#: Adversary templates the grid cycles through; drop rates stay modest so
#: reliable runs terminate fast enough for thousand-trace fleets.
_ADVERSARIES = (None, 0.1, 0.25)

_SHARD_COUNT = 16


def fleet_specs(
    count: int,
    *,
    protocols: tuple[str, ...] = FLEET_PROTOCOLS,
    n: int = 10,
    extra_edges: int = 10,
    graph_seed: int = 2,
    fleet_seed: int = 0,
    limit: int | None = 200,
) -> list[tuple[str, RunSpec]]:
    """``count`` deterministic ``(name, spec)`` pairs of the fleet grid.

    Index ``i`` fixes every knob: the protocol and adversary cycle, and
    the run/fault seeds are derived by hashing ``(fleet_seed, i)`` — so
    the corpus is a pure function of its arguments.  ``limit`` bounds
    each trace's event ring (keeps a 10^3-trace corpus in tens of MB).
    """
    from ..experiments.parallel import cell_seed

    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    out = []
    for i in range(count):
        protocol = protocols[i % len(protocols)]
        drop = _ADVERSARIES[(i // len(protocols)) % len(_ADVERSARIES)]
        seed = cell_seed(fleet_seed, "fleet-run", i) % 1_000_000
        plan = None
        if drop is not None:
            plan = FaultPlan(
                drop=drop,
                seed=cell_seed(fleet_seed, "fleet-fault", i) % 1_000_000,
            )
        name = f"fleet-{i:05d}-{protocol.replace('(', '_').rstrip(')')}"
        out.append((name, RunSpec(
            protocol=protocol, n=n, extra_edges=extra_edges,
            graph_seed=graph_seed, seed=seed, plan=plan, limit=limit,
        )))
    return out


def _shard_of(name: str) -> str:
    h = int(hashlib.sha256(name.encode()).hexdigest()[:8], 16)
    return f"shard-{h % _SHARD_COUNT:02d}"


def _record_cell(item: tuple[str, RunSpec]) -> tuple[str, str, str]:
    """Pool worker: record one spec; returns ``(name, sha256, text)``."""
    name, spec = item
    text = record_run(spec).text
    return name, hashlib.sha256(text.encode()).hexdigest(), text


def _check_cell(path: str) -> tuple[str, bool, str]:
    """Pool worker: replay one pinned trace; returns ``(path, ok, desc)``.
    (:class:`ReplayReport` holds live process graphs and cannot cross the
    pool boundary, so only its verdict does.)"""
    report = check_golden(path)
    return path, report.ok, report.describe()


def record_fleet(
    dirpath: str,
    count: int,
    *,
    jobs: int | None = None,
    force: str | None = None,
    **grid: Any,
) -> dict:
    """Record a ``count``-trace fleet corpus under ``dirpath``.

    Recording shards across the pool (``jobs``); traces land in
    ``shard-NN/<name>.jsonl`` and the manifest (name, shard, sha256 per
    trace, plus the grid parameters) is written to
    ``dirpath/manifest.json``.  Returns the manifest.
    """
    from ..experiments.parallel import run_parallel

    specs = fleet_specs(count, **grid)
    warm_shapes = sorted({(s.n, s.extra_edges, s.graph_seed) for _n, s in specs})
    warm = tuple((n, e, g, None) for n, e, g in warm_shapes)
    results = run_parallel(_record_cell, specs, jobs=jobs, warm=warm,
                           force=force)
    entries = {}
    for name, sha, text in results:
        shard = _shard_of(name)
        os.makedirs(os.path.join(dirpath, shard), exist_ok=True)
        with open(os.path.join(dirpath, shard, f"{name}.jsonl"), "w") as fh:
            fh.write(text)
        entries[name] = {"shard": shard, "sha256": sha}
    manifest = {
        "version": 1,
        "count": count,
        "grid": {k: v for k, v in sorted(grid.items())},
        "traces": entries,
    }
    with open(os.path.join(dirpath, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest


def fleet_paths(dirpath: str) -> list[str]:
    """Every pinned trace in a fleet corpus, sorted (manifest order-free)."""
    out = []
    for root, _dirs, files in os.walk(dirpath):
        for f in files:
            if f.endswith(".jsonl"):
                out.append(os.path.join(root, f))
    return sorted(out)


def fleet_sample(paths: list[str], k: int, *, sample_seed: int = 0) -> list[str]:
    """A deterministic ``k``-subset of ``paths``: ranked by hashing each
    path's basename with the seed — stable across hosts and corpus
    layout, unlike ``random.sample``."""
    ranked = sorted(
        paths,
        key=lambda p: hashlib.sha256(
            f"{sample_seed}:{os.path.basename(p)}".encode()
        ).hexdigest(),
    )
    return sorted(ranked[:k])


def check_fleet(
    dirpath: str,
    *,
    jobs: int | None = None,
    sample: int | None = None,
    sample_seed: int = 0,
    force: str | None = None,
) -> dict:
    """Replay a fleet corpus (or a deterministic sample) through the pool.

    Every checked trace is re-executed from its replay header and
    compared byte-for-byte.  Returns ``{"checked", "ok", "failures"}``
    where failures maps path -> divergence description; also verifies
    manifest SHAs before replaying (cheap corruption triage first).
    """
    from ..experiments.parallel import run_parallel

    paths = fleet_paths(dirpath)
    if not paths:
        raise FileNotFoundError(f"no fleet traces under {dirpath!r}")
    failures: dict[str, str] = {}
    manifest_path = os.path.join(dirpath, "manifest.json")
    if os.path.exists(manifest_path):
        with open(manifest_path) as fh:
            manifest = json.load(fh)
        for path in paths:
            name = os.path.basename(path)[:-len(".jsonl")]
            entry = manifest.get("traces", {}).get(name)
            if entry is None:
                failures[path] = "not in manifest"
                continue
            with open(path, "rb") as fh:
                sha = hashlib.sha256(fh.read()).hexdigest()
            if sha != entry["sha256"]:
                failures[path] = (
                    f"manifest sha mismatch ({sha[:12]} != "
                    f"{entry['sha256'][:12]})"
                )
    to_check = [p for p in paths if p not in failures]
    if sample is not None and sample < len(to_check):
        to_check = fleet_sample(to_check, sample, sample_seed=sample_seed)
    verdicts = run_parallel(_check_cell, to_check, jobs=jobs, force=force)
    for path, ok, desc in verdicts:
        if not ok:
            failures[path] = desc
    return {
        "total": len(paths),
        "replayed": len(to_check),
        "ok": not failures,
        "failures": failures,
    }
