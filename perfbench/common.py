"""Helpers shared by every workload: seeds, timing, oracles, host facts."""

from __future__ import annotations

import hashlib
import heapq
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUN_PY = Path(__file__).resolve().parent / "run.py"

#: Seed used when ``--seed`` is omitted.
DEFAULT_SEED = 1
#: Seed kept out of tuning: a later change confirms its claim on it too.
HELD_OUT_SEED = 7919

#: Fresh processes timed per run for ``setup_s`` (the median is reported).
SETUP_SAMPLES = 3

#: Steps of the host-speed reference task, and the seconds it takes at
#: the nominal host speed, about the typical speed of a shared 2 GHz
#: Xeon core: every timing is reported at that speed.
REF_STEPS = 8000
REF_NOMINAL_S = 0.005
#: The program slows less than the reference task when the shared host
#: is contended, so host seconds are scaled by the reference's slowdown
#: to this power.  Over twenty seeds per workload the spread of the run
#: medians was lowest near 0.75 (0 is no scaling, 1 the full slowdown).
REF_EXPONENT = 0.75
#: Reference samples taken on each side of one ``setup_s`` sample.
SETUP_REF_SAMPLES = 3

#: The end-to-end metrics every untraced run reports, with their units.
END_TO_END = (
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("msgs_per_s", "1/s"),
    ("cells_per_s", "1/s"),
    ("sources_per_s", "1/s"),
    ("rps", "1/s"),
    ("hit_p50_ms", "ms"),
    ("hit_p99_ms", "ms"),
    ("miss_p50_ms", "ms"),
)

clock = time.perf_counter


def derive(seed: int, *key: Any) -> int:
    """A 63-bit input seed for ``key``, derived from the workload seed."""
    digest = hashlib.sha256(repr((seed,) + key).encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def percentile(values: list[float], q: float) -> float:
    """Linearly interpolated ``q``-quantile (0 <= q <= 1) of ``values``."""
    if not values:
        raise ValueError("percentile of no values")
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values: list[float]) -> float:
    return percentile(values, 0.5)


def geomean(values: list[float]) -> float:
    return math.exp(sum(math.log(v) for v in values) / len(values))


def typed_median(samples: dict) -> float:
    """Geometric mean of the per-type medians of ``samples`` (type -> values).

    A pooled median over operations of different costs jumps between
    types as their shares change; this combination weighs every type once.
    """
    return geomean([median(xs) for xs in samples.values() if xs])


_ref_table: dict[int, float] = {}


def reference_s(_: object = None) -> float:
    """Time one fixed pure-Python task that uses no code of the program.

    It does the kind of work the simulator does (random lookups in a
    16384-entry dict, float arithmetic, a small heap), allocates no
    objects the cyclic collector tracks, and takes a few milliseconds.
    Run between operations while nothing else of the benchmark runs, it
    measures how fast the shared host is at that moment.
    """
    if not _ref_table:
        _ref_table.update((i, float(i)) for i in range(1 << 14))
    table = _ref_table
    heap: list[float] = []
    x = 12345
    t0 = clock()
    for _ in range(REF_STEPS):
        x = (x * 1103515245 + 12345) & 0x3FFF
        v = table[x] + 1.0
        table[x] = v
        heapq.heappush(heap, v)
        if len(heap) > 64:
            heapq.heappop(heap)
    return clock() - t0


class ParallelReference:
    """Processes of the benchmark's own that time the reference task at
    the same moment, one each: the host's speed while that many cores
    are busy, as they are while a pool sweeps or the server works.

    Start it before the workload's setup: a child started from a large
    parent reports the parent's size as its own peak RSS, which would
    then count in ``peak_rss_mb``.
    """

    def __init__(self, n: int) -> None:
        import multiprocessing

        self.n = n
        self._pool = multiprocessing.get_context("spawn").Pool(n)
        for _ in range(2):  # each process builds its table on first use
            self.sample()

    def sample(self) -> float:
        return sum(self._pool.map(reference_s, range(self.n), chunksize=1)) / self.n

    def close(self) -> None:
        self._pool.close()
        self._pool.join()


class HostSpeed:
    """Reference samples of one stretch of a run (a round or a segment).

    :meth:`scale` is the factor that turns host seconds measured in the
    stretch into seconds at the nominal host speed: ``REF_NOMINAL_S``
    over the median reference time, to the power ``REF_EXPONENT``.  A
    program change leaves the reference unchanged, so it moves the
    scaled figures as much as the raw ones, while the shared host's
    changes of speed mostly cancel.
    ``reference`` times one sample: :func:`reference_s` in this process
    for a serial workload, :meth:`ParallelReference.sample` for one that
    keeps several cores busy.
    """

    def __init__(self, reference: Any = reference_s) -> None:
        self.reference = reference
        self.samples: list[float] = []

    def sample(self) -> None:
        self.samples.append(self.reference())

    def scale(self) -> float:
        return speed_scale(self.samples)


def speed_scale(samples: list[float]) -> float:
    """The factor that turns host seconds into nominal seconds, from the
    reference times ``samples`` taken around them."""
    return (REF_NOMINAL_S / median(samples)) ** REF_EXPONENT


def jobs_for_host() -> int:
    return min(2, os.cpu_count() or 1)


def host_facts(jobs: int) -> dict[str, Any]:
    from repro.graphs.npkernels import kernel_backend

    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "kernel_backend": kernel_backend(),
        "jobs": jobs,
    }


def own_rss_kib() -> int:
    """Peak RSS of this process so far, in KiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def peak_rss_mb(own_kib: int | None = None) -> float:
    """Peak RSS of this process plus that of its largest reaped child.

    ``own_kib`` is this process's peak read earlier (:func:`own_rss_kib`),
    for a workload that has to check its outputs before it can reap its
    children.
    """
    own = own_rss_kib() if own_kib is None else own_kib
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0  # ru_maxrss is in KiB on Linux


@dataclass
class Ctx:
    """One benchmark invocation: what to run and how big."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    size: str = "full"
    plant: bool = False
    jobs: int = field(default_factory=jobs_for_host)

    def tmpdir(self) -> Path:
        """A fresh scratch directory inside the checkout."""
        base = ROOT / ".perfbench_tmp"
        base.mkdir(exist_ok=True)
        return Path(tempfile.mkdtemp(prefix=f"{self.workload}-", dir=base))


def remove_tree(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
    base = path.parent
    try:
        base.rmdir()  # only when no other run still uses it
    except OSError:
        pass


class Outcome:
    """What a workload run reports: operations, check failures, metrics."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.metrics: dict[str, tuple[float, str]] = {}
        self.info: dict[str, Any] = {}

    def op(self, ok: bool, what: str = "") -> None:
        """Count one operation; ``ok`` is whether its output check passed."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what or "operation failed its check")

    def ops(self, n: int) -> None:
        """Count ``n`` operations that all passed their checks."""
        self.attempted += n

    def check(self, ok: bool, what: str) -> None:
        """A whole-run check (not tied to one operation)."""
        if not ok:
            self.problems.append(what)

    def metric(self, name: str, value: float, unit: str) -> None:
        self.metrics[name] = (float(value), unit)

    def end_to_end(self, values: dict[str, float]) -> None:
        """Record every end-to-end metric (all must be present)."""
        for name, unit in END_TO_END:
            self.metric(name, values[name], unit)

    def per_layer(self, values: dict[str, float]) -> None:
        from .layers import PER_LAYER

        for name, unit in PER_LAYER:
            self.metric(name, values[name], unit)

    @property
    def correct(self) -> bool:
        return self.failed == 0 and not self.problems


def finish_untraced(ctx: Ctx, out: Outcome, values: dict[str, float],
                    rss_mb: float) -> None:
    """Add peak RSS and setup time, then record all metrics.

    ``rss_mb`` is :func:`peak_rss_mb` read straight after the workload tore
    down its pool or server (so their processes are reaped and counted)
    and before the output checks ran, so the oracles do not count.
    """
    values["peak_rss_mb"] = rss_mb
    out.info["rss_children_mb"] = (
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0)
    samples = setup_seconds(ctx)
    values["setup_s"] = median(samples)
    out.info["setup_samples_s"] = samples
    out.end_to_end(values)


def finish_traced(ctx: Ctx, out: Outcome, lanes: list[dict], *, timed: int,
                  wall: float, untraced_wall: float,
                  extra: dict[str, float]) -> None:
    from .layers import layer_metrics

    values, problems = layer_metrics(
        lanes, timed=timed, wall=wall, untraced_wall=untraced_wall,
        jobs=ctx.jobs, nproc=os.cpu_count() or 1, extra=extra)
    for problem in problems:
        out.check(False, problem)
    out.per_layer(values)


def timed_first(lanes: list[dict], labels: tuple[str, ...]) -> list[dict]:
    """``lanes`` with the ones labelled ``labels`` first, in that order."""
    first = [ln for label in labels for ln in lanes if ln["label"] == label]
    return first + [ln for ln in lanes if ln["label"] not in labels]


def setup_seconds(ctx: Ctx) -> list[float]:
    """Time ``SETUP_SAMPLES`` fresh processes from spawn to ready, each
    scaled to the nominal host speed by reference samples taken just
    before and after it."""
    samples = []
    argv = [sys.executable, str(RUN_PY), "--workload", ctx.workload,
            "--seed", str(ctx.seed), "--size", ctx.size, "--setup-only",
            "--worker"]
    for _ in range(SETUP_SAMPLES):
        speed = HostSpeed()
        for _ in range(SETUP_REF_SAMPLES):
            speed.sample()
        t0 = clock()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                                cwd=ROOT)
        try:
            line = proc.stdout.readline()
            elapsed = clock() - t0
            proc.stdout.read()
        finally:
            proc.stdout.close()
            try:
                code = proc.wait(timeout=120)
            except subprocess.TimeoutExpired:
                proc.kill()
                code = proc.wait()
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"setup sample failed (exit {code}): {line!r}")
        for _ in range(SETUP_REF_SAMPLES):
            speed.sample()
        samples.append(elapsed * speed.scale())
    return samples


# ---------------------------------------------------------------------- #
# Oracles: written here, independently of the code the benchmark times.
# ---------------------------------------------------------------------- #


def mst_weight(graph: Any) -> float:
    """Kruskal MST weight over ``graph.edges()``."""
    parent: dict[Any, Any] = {v: v for v in graph.vertices}

    def find(x: Any) -> Any:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    total = 0.0
    for u, v, w in sorted(graph.edges(), key=lambda e: e[2]):
        ru, rv = find(u), find(v)
        if ru != rv:
            parent[ru] = rv
            total += w
    return total


def sssp(adj: dict, source: Any) -> dict:
    """Dijkstra distances over ``adj[u] = {v: w}``."""
    dist = {source: 0.0}
    heap = [(0.0, 0, source)]
    tie = 1
    done = set()
    while heap:
        d, _, u = heapq.heappop(heap)
        if u in done:
            continue
        done.add(u)
        for v, w in adj[u].items():
            nd = d + w
            if nd < dist.get(v, math.inf):
                dist[v] = nd
                heapq.heappush(heap, (nd, tie, v))
                tie += 1
    return dist


def adjacency(graph: Any) -> dict:
    adj: dict = {v: {} for v in graph.vertices}
    for u, v, w in graph.edges():
        adj[u][v] = w
        adj[v][u] = w
    return adj
