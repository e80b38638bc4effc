"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the repository root::

    python3 perfbench/run.py --workload protocol-suite --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with no wrappers installed;
``--trace 1`` runs a fixed amount of the workload untraced and then
traced, and reports the per-layer ledger.  The last line of standard
output is ``{"correct", "attempted", "failed", "metrics"}``; the line
before it records the host, the seed and the details behind the metrics.
The exit code is 1 when any output check failed.

The command runs the workload in a child process and registers itself as
the subreaper of that child's descendants: after the child ends, it waits
for every process the run left behind (pool workers, servers, and the
resource trackers ``multiprocessing`` starts beside shared segments), and
kills the ones still running after a grace period.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = {
    "protocol-suite": "perfbench.protocol_suite",
    "chaos-sweep": "perfbench.chaos_sweep",
    "snapshot-sweep": "perfbench.snapshot_sweep",
    "serve-mix": "perfbench.serve_mix",
}


def _parse(argv: list[str] | None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(prog="perfbench/run.py")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=None,
                    help="workload seed (default 1; 7919 is held out)")
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="how long the untraced run measures")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the benchmark's own tests")
    ap.add_argument("--plant", action="store_true",
                    help="corrupt one expected value (the checks must fail)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print 'ready', tear down (times setup_s)")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


#: Seconds the processes a run left behind get to end on their own.
REAP_GRACE_S = 10.0
_PR_SET_CHILD_SUBREAPER = 36


def _become_subreaper() -> None:
    """Have orphaned descendants handed to this process, not to init."""
    try:
        import ctypes

        ctypes.CDLL(None, use_errno=True).prctl(_PR_SET_CHILD_SUBREAPER, 1,
                                                0, 0, 0)
    except (OSError, AttributeError):
        pass  # not Linux: only this process's own children are reaped


def _children() -> list[int]:
    """Pids whose parent is this process (Linux ``/proc``)."""
    me, out = os.getpid(), []
    for entry in os.listdir("/proc") if os.path.isdir("/proc") else ():
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as f:
                stat = f.read()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2:].split()[1]) == me:
            out.append(int(entry))
    return out


def _reap_all() -> None:
    """Wait for every child, orphans handed over included, until none is
    left; after ``REAP_GRACE_S`` kill the ones still running."""
    deadline = time.monotonic() + REAP_GRACE_S
    killed: set[int] = set()
    while True:
        try:
            pid, _ = os.waitpid(-1, os.WNOHANG)
        except ChildProcessError:
            return
        if pid:
            continue
        if time.monotonic() >= deadline:
            for pid in set(_children()) - killed:
                print(f"perfbench: killing leftover process {pid}",
                      file=sys.stderr)
                killed.add(pid)
                try:
                    os.kill(pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
        time.sleep(0.01)


def supervise(argv: list[str]) -> int:
    """Run ``run.py <argv> --worker`` as a child, then reap all it left."""
    _become_subreaper()
    child = subprocess.Popen([sys.executable, str(Path(__file__).resolve()),
                              *argv, "--worker"])

    def forward(signum: int, _frame: object) -> None:
        child.send_signal(signum)

    for signum in (signal.SIGINT, signal.SIGTERM):
        signal.signal(signum, forward)
    try:
        return child.wait()
    finally:
        _reap_all()


def main(argv: list[str] | None = None) -> int:
    args = _parse(argv)
    if not (_ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro sources under {_ROOT / 'src'}",
              file=sys.stderr)
        return 2
    if not args.worker:
        return supervise(sys.argv[1:] if argv is None else list(argv))
    sys.path[:0] = [str(_ROOT / "src"), str(_ROOT)]
    from perfbench.common import DEFAULT_SEED, Ctx, host_facts

    ctx = Ctx(workload=args.workload,
              seed=DEFAULT_SEED if args.seed is None else args.seed,
              seconds=args.seconds, trace=bool(args.trace), size=args.size,
              plant=args.plant)
    module = importlib.import_module(WORKLOADS[args.workload])
    if args.setup_only:
        state = module.setup(ctx)
        print("ready", flush=True)
        module.teardown(state)
        return 0
    outcome = module.run(ctx)
    info = {
        "workload": ctx.workload,
        "seed": ctx.seed,
        "seconds": ctx.seconds,
        "trace": int(ctx.trace),
        "size": ctx.size,
        "host": host_facts(ctx.jobs),
        "problems": outcome.problems,
        **outcome.info,
    }
    print(json.dumps(info, sort_keys=True, default=str))
    result = {
        "correct": outcome.correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in outcome.metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
