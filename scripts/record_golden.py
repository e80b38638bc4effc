#!/usr/bin/env python
"""(Re-)record the committed golden-trace corpus.

Each spec below pins one run as ``tests/fixtures/golden/<name>.jsonl``;
``tests/test_replay.py`` replays every file in that directory and asserts
byte-identity, so the corpus is a cross-version determinism regression
net.  Re-run this script ONLY when an intentional behavior change
invalidates the pinned traces — the diff then shows exactly which runs
changed, and ``python -m repro.replay diff`` localizes where.

Run:  python scripts/record_golden.py [--out-dir DIR]

Fleet mode (``--fleet N``) records a *sharded* N-trace corpus through
the persistent pool instead — a deterministic protocol x seed x
adversary grid (:func:`repro.replay.fleet.fleet_specs`) written to
``--out-dir`` (default ``corpus/fleet``) as ``shard-NN/*.jsonl`` plus a
``manifest.json`` of per-trace SHA-256s.  ``--check`` replays an
existing fleet corpus (optionally ``--sample K`` of it) and verifies
byte-identity; ``tests/test_golden_fleet.py`` samples the same machinery
in tier-1 under the ``fleet`` marker.

Run:  python scripts/record_golden.py --fleet 1000 --jobs 8
      python scripts/record_golden.py --fleet 1000 --check --sample 50
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.experiments.chaos import RunSpec  # noqa: E402
from repro.experiments.parallel import shutdown_pool  # noqa: E402
from repro.faults import CrashWindow, FaultPlan  # noqa: E402
from repro.replay import (  # noqa: E402
    check_fleet,
    check_golden,
    record_fleet,
    record_golden,
)

#: name -> spec. Keep these SMALL (they are committed) and diverse: a
#: fault-free run, a lossy run, a crash-recover run, and the synchronizer.
SPECS = {
    "broadcast_clean": RunSpec(
        protocol="broadcast", n=10, extra_edges=10, graph_seed=2),
    "broadcast_lossy": RunSpec(
        protocol="broadcast", n=10, extra_edges=10, graph_seed=2,
        plan=FaultPlan(drop=0.2, seed=9)),
    "dfs_crash_recover": RunSpec(
        protocol="dfs", n=10, extra_edges=10, graph_seed=2,
        plan=FaultPlan(crashes=(CrashWindow(9, 2.0, 8.0),), seed=4)),
    "gamma_w_max": RunSpec(
        protocol="gamma_w(max)", n=8, extra_edges=6, graph_seed=3,
        limit=0),  # aggregate-only: the synchronizer trace is large
}


def _fleet_main(args: argparse.Namespace) -> int:
    out = args.out_dir or str(REPO / "corpus" / "fleet")
    try:
        if args.check:
            report = check_fleet(out, jobs=args.jobs, sample=args.sample)
            print(f"fleet: replayed {report['replayed']}/{report['total']} "
                  f"trace(s), ok={report['ok']}")
            for path, desc in sorted(report["failures"].items()):
                print(f"  FAIL {path}: {desc}")
            return 0 if report["ok"] else 1
        manifest = record_fleet(out, args.fleet, jobs=args.jobs)
        print(f"fleet: recorded {len(manifest['traces'])} trace(s) -> {out}")
        return 0
    finally:
        shutdown_pool()


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--out-dir", default=None,
                        help="corpus directory (default: tests/fixtures/golden,"
                             " or corpus/fleet in --fleet mode)")
    parser.add_argument("--fleet", type=int, default=None, metavar="N",
                        help="record/check an N-trace sharded fleet corpus "
                             "through the pool instead of the committed set")
    parser.add_argument("--check", action="store_true",
                        help="with --fleet: verify an existing corpus instead "
                             "of recording")
    parser.add_argument("--sample", type=int, default=None, metavar="K",
                        help="with --fleet --check: replay a deterministic "
                             "K-trace sample instead of the whole corpus")
    parser.add_argument("--jobs", type=int, default=None,
                        help="pool workers for fleet record/check")
    args = parser.parse_args()
    if args.fleet is not None:
        return _fleet_main(args)
    out = Path(args.out_dir or str(REPO / "tests" / "fixtures" / "golden"))
    out.mkdir(parents=True, exist_ok=True)
    status = 0
    for name, spec in sorted(SPECS.items()):
        path = record_golden(spec, str(out / f"{name}.jsonl"))
        report = check_golden(path)
        print(f"{name}: {report.describe()}")
        if not report.ok:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
