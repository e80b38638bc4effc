"""CLI for the replay engine: record, verify, and diff traces.

    python -m repro.replay record --protocol broadcast --out t.jsonl
    python -m repro.replay verify t.jsonl [more.jsonl ...]
    python -m repro.replay diff a.jsonl b.jsonl

(The fuzzer has its own entry point: ``python -m repro.replay.fuzz``.)
"""

from __future__ import annotations

import argparse
import json
import sys
from collections.abc import Sequence

from ..experiments.chaos import RunSpec
from ..faults.plan import FaultPlan
from .diff import first_divergence
from .engine import check_golden, record_golden


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m repro.replay")
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("record", help="record a replayable trace")
    rec.add_argument("--protocol", required=True)
    rec.add_argument("--n", type=int, default=10)
    rec.add_argument("--extra-edges", type=int, default=10)
    rec.add_argument("--graph-seed", type=int, default=2)
    rec.add_argument("--seed", type=int, default=0)
    rec.add_argument("--unreliable", action="store_true")
    rec.add_argument("--plan", default=None,
                     help="FaultPlan as a JSON object (canonical form)")
    rec.add_argument("--out", required=True)

    ver = sub.add_parser("verify", help="replay traces, assert identity")
    ver.add_argument("paths", nargs="+")

    dif = sub.add_parser("diff", help="first divergent event of two traces")
    dif.add_argument("left")
    dif.add_argument("right")

    args = parser.parse_args(argv)

    if args.command == "record":
        plan = (FaultPlan.from_dict(json.loads(args.plan))
                if args.plan else None)
        try:
            spec = RunSpec(
                protocol=args.protocol, n=args.n, extra_edges=args.extra_edges,
                graph_seed=args.graph_seed, seed=args.seed,
                reliable=not args.unreliable, plan=plan,
            )
        except ValueError as exc:
            parser.error(str(exc))
        path = record_golden(spec, args.out)
        print(f"recorded {args.protocol!r} -> {path}")
        return 0

    if args.command == "verify":
        status = 0
        for path in args.paths:
            report = check_golden(path)
            print(f"{path}: {report.describe()}")
            if not report.ok:
                status = 1
        return status

    # diff
    with open(args.left) as fh:
        left = fh.read()
    with open(args.right) as fh:
        right = fh.read()
    divergence = first_divergence(left, right)
    if divergence is None:
        print("traces are identical")
        return 0
    print(divergence.describe())
    return 1


if __name__ == "__main__":
    sys.exit(main())
