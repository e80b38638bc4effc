#!/usr/bin/env python
"""Benchmark HEAD against a parent revision in pairs; write BENCH_<rev>.json.

Usage::

    python scripts/bench_pairs.py <parent-rev>

Checks out ``<parent-rev>`` and ``HEAD`` into temporary git worktrees
(removed on exit, also after a failure or an interrupt), byte-compiles
both, and for every workload in ``BENCHMARK.json`` and each seed in
``SEEDS`` runs ``PAIRS`` pairs of the benchmark command with
``--workload W --seed S --seconds <run_seconds> --trace 0``, one run on
each side.  The side that runs first alternates from pair to pair, and
each side runs with ``PYTHONPATH`` unset, so it imports only its own
``src/``.

For each (workload, seed, end-to-end metric) the file records both
sides' runs, medians and quartiles, the pairs the change won and lost
(ties count for neither), the parent's spread (IQR / median), the
metric's bound, and one verdict, checked in this order:

* ``regressed``: the change's median is worse than the parent's by more
  than the bound (a share of the parent's median);
* ``improved``: the change won at least ``MIN_WINS`` pairs and its
  median is better than the parent's by more than the parent's IQR;
* ``unresolved``: the parent's spread is wider than the bound and not
  every change run is better than every parent run;
* ``no_worse``: otherwise.

It also records the operations attempted and failed on each side.  The
command exits 1 when any run failed (a non-zero exit, ``correct: false``
or no result line) or any metric regressed.
"""

from __future__ import annotations

import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SEEDS = (1, 7919)
PAIRS = 10
MIN_WINS = 9
SIDES = ("parent", "change")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=REPO, check=True,
                          capture_output=True, text=True).stdout.strip()


@contextmanager
def worktrees(parent: str):
    """Detached worktrees of ``parent`` and ``HEAD``, removed on exit."""
    root = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    trees = {side: root / side for side in SIDES}
    try:
        for side, rev in zip(SIDES, (parent, "HEAD")):
            git("worktree", "add", "--detach", str(trees[side]), rev)
        yield trees
    finally:
        for tree in trees.values():
            if tree.exists():
                subprocess.run(["git", "worktree", "remove", "--force",
                                str(tree)], cwd=REPO, capture_output=True)
        git("worktree", "prune")
        shutil.rmtree(root, ignore_errors=True)


def run_perfbench(tree: Path, command: list[str], workload: str, seed: int,
                  seconds: float) -> dict | None:
    """One benchmark run in ``tree``: its result line, or None if it has none.

    A run that exits non-zero is marked ``correct: false``.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.Popen(
        [*command, "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True)
    try:
        out, err = proc.communicate()
    except BaseException:
        proc.terminate()  # the runner forwards it and reaps what it started
        proc.wait()
        raise
    try:
        result = json.loads(out.splitlines()[-1])
    except (IndexError, ValueError):
        result = None
    if result is None or proc.returncode != 0 or not result["correct"]:
        print(f"  run failed (exit {proc.returncode}): {err[-2000:]}",
              file=sys.stderr)
    if result is not None and proc.returncode != 0:
        result["correct"] = False
    return result


def collect(trees: dict, command: list[str], workloads: list[str],
            seconds: float) -> dict:
    """Every pair's results: ``{workload: {seed: {side: [result]}}}``."""
    runs: dict = {}
    for workload in workloads:
        for seed in SEEDS:
            sides: dict = {side: [] for side in SIDES}
            for i in range(PAIRS):
                for side in SIDES if i % 2 == 0 else SIDES[::-1]:
                    result = run_perfbench(trees[side], command, workload,
                                           seed, seconds)
                    sides[side].append(result)
                    print(f"{workload} seed {seed} pair {i + 1} {side}: "
                          f"{'ok' if result and result['correct'] else 'FAILED'}",
                          flush=True)
            runs.setdefault(workload, {})[str(seed)] = sides
    return runs


def _quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def judge(parent: list[float], change: list[float], better: str,
          bound: float) -> dict:
    """Compare paired runs of one metric (``parent[i]`` with ``change[i]``)."""
    sign = 1.0 if better == "higher" else -1.0
    p, c = _quartiles(parent), _quartiles(change)
    won = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    lost = sum(sign * (b - a) < 0 for a, b in zip(parent, change))
    iqr = p["q3"] - p["q1"]
    spread = iqr / p["median"]
    gain = sign * (c["median"] - p["median"])
    separated = (min(sign * v for v in change)
                 > max(sign * v for v in parent))
    if gain < -bound * p["median"]:
        verdict = "regressed"
    elif won >= MIN_WINS and gain > iqr:
        verdict = "improved"
    elif spread > bound and not separated:
        verdict = "unresolved"
    else:
        verdict = "no_worse"
    return {"better": better, "bound": bound, "parent": p, "change": c,
            "ratio": c["median"] / p["median"], "pairs_won": won,
            "pairs_lost": lost, "parent_spread": spread, "verdict": verdict}


def report(runs: dict, end_to_end: list[dict]) -> dict:
    """Per (workload, seed): operations per side and each metric's verdict."""
    out: dict = {}
    for workload, seeds in runs.items():
        for seed, sides in seeds.items():
            ops = {side: {"attempted": sum(r["attempted"] for r in rs if r),
                          "failed": sum(r["failed"] for r in rs if r),
                          "runs_failed": sum(not (r and r["correct"])
                                             for r in rs)}
                   for side, rs in sides.items()}
            complete = [(a["metrics"], b["metrics"])
                        for a, b in zip(sides["parent"], sides["change"])
                        if a and b]
            metrics = {}
            for m in end_to_end:
                name = m["name"]
                pairs = [(a[name]["value"], b[name]["value"])
                         for a, b in complete if name in a and name in b]
                if len(pairs) >= 2:
                    metrics[name] = {"unit": m["unit"], **judge(
                        [a for a, _ in pairs], [b for _, b in pairs],
                        m["better"], m["bound"])}
            out.setdefault(workload, {})[seed] = {"operations": ops,
                                                  "metrics": metrics}
    return out


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 1:
        print("usage: python scripts/bench_pairs.py <parent-rev>",
              file=sys.stderr)
        return 2
    parent = git("rev-parse", "--short", "--verify", f"{args[0]}^{{commit}}")
    rev = git("rev-parse", "--short", "HEAD")
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    command = spec["command"]
    workloads = [w["name"] for w in spec["workloads"]]
    # A SIGTERM unwinds like Ctrl-C, so the worktrees are still removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    with worktrees(parent) as trees:
        for tree in trees.values():
            subprocess.run([command[0], "-m", "compileall", "-q", "src",
                            "perfbench"], cwd=tree, check=True)
        runs = collect(trees, command, workloads, spec["run_seconds"])
    results = report(runs, spec["end_to_end"])
    bench = {"rev": rev, "parent": parent, "unix_time": int(time.time()),
             "host": {"nproc": os.cpu_count(),
                      "python": platform.python_version()},
             "command": command, "run_seconds": spec["run_seconds"],
             "seeds": list(SEEDS), "pairs": PAIRS, "workloads": results}
    out = REPO / f"BENCH_{rev}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n")

    failed = regressed = 0
    for workload, seeds in results.items():
        for seed, entry in seeds.items():
            failed += sum(o["runs_failed"] for o in entry["operations"].values())
            for name, m in entry["metrics"].items():
                regressed += m["verdict"] == "regressed"
                print(f"{workload:15s} {seed:>5s} {name:14s} "
                      f"x{m['ratio']:.3f}  won {m['pairs_won']:2d}/{PAIRS}  "
                      f"spread {m['parent_spread']:.3f}  {m['verdict']}")
    print(f"wrote {out.name}: {failed} failed runs, "
          f"{regressed} regressed metrics")
    return 1 if failed or regressed else 0


if __name__ == "__main__":
    raise SystemExit(main())
