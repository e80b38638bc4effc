"""CLI for the determinism linter: ``python -m repro.analysis``.

Walks the given paths (default: the ``repro`` package source it is running
from), applies every rule in :mod:`repro.analysis.rules`, and prints the
findings deterministically sorted — as text, as JSONL with ``--format
jsonl`` (one finding object per line, machine-diffable), or as GitHub
workflow annotations with ``--format github`` (``::error file=...`` lines
the Actions UI attaches to the diff; text and jsonl stay byte-identical
across runs).

``--flow`` restricts the run to the interprocedural message-flow rules
(``RS006``–``RS010``, :mod:`repro.analysis.flow`).  ``--dot PATH`` writes
the message-flow graph of the scanned files as Graphviz DOT; ``--graph``
prints the per-module ASCII flow graphs instead of linting.

Exit status: 0 when there are no findings, 1 on any finding, 2 on usage
errors.  A justified exception is marked at its source line with
``# repro: allow RSxxx -- reason``; nothing else silences a finding.
"""

from __future__ import annotations

import argparse
import ast
import json
import sys
from pathlib import Path

from .findings import Finding
from .flow import ModuleFlow, extract_module_flow, flow_to_ascii, flow_to_dot
from .rules import FLOW_CODES, RULES, analyze_source

__all__ = ["main", "collect_findings"]


def _iter_py_files(paths: list[Path]) -> list[Path]:
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
        else:
            raise SystemExit(f"repro.analysis: not a python file or dir: {path}")
    return files


def _rel(path: Path) -> str:
    """Repo-relative posix path when possible (stable report paths)."""
    try:
        return path.resolve().relative_to(Path.cwd().resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def collect_findings(paths: list[Path],
                     rules: list[str] | None = None) -> list[Finding]:
    """All findings over ``paths``, deterministically sorted."""
    findings: list[Finding] = []
    for file in _iter_py_files(paths):
        source = file.read_text(encoding="utf-8")
        findings.extend(analyze_source(source, path=_rel(file), rules=rules))
    return sorted(findings)


def _default_target() -> Path:
    """The installed ``repro`` package source tree."""
    return Path(__file__).resolve().parent.parent


def _module_flows(paths: list[Path]) -> list[ModuleFlow]:
    """Message-flow extraction over every python file under ``paths``."""
    flows: list[ModuleFlow] = []
    for file in _iter_py_files(paths):
        source = file.read_text(encoding="utf-8")
        tree = ast.parse(source, filename=str(file))
        flows.append(extract_module_flow(tree, path=_rel(file), source=source))
    return flows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="determinism linter for the repro simulation codebase",
    )
    parser.add_argument("paths", nargs="*", type=Path,
                        help="files or directories to scan "
                             "(default: the repro package)")
    parser.add_argument("--format", choices=("text", "jsonl", "github"),
                        default="text")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule codes to run "
                             f"(default: all of {','.join(sorted(RULES))})")
    parser.add_argument("--flow", action="store_true",
                        help="run only the message-flow contract rules "
                             f"({','.join(sorted(FLOW_CODES))})")
    parser.add_argument("--dot", type=Path, default=None, metavar="PATH",
                        help="also write the message-flow graph of the "
                             "scanned files as Graphviz DOT to PATH")
    parser.add_argument("--graph", action="store_true",
                        help="print per-module ASCII flow graphs and exit "
                             "(no linting)")
    parser.add_argument("--explain", action="store_true",
                        help="print the rule catalog and exit")
    args = parser.parse_args(argv)

    if args.explain:
        for code in sorted(RULES):
            print(f"{code}  {RULES[code]}")
        return 0

    rules = None
    if args.rules is not None:
        rules = [c.strip() for c in args.rules.split(",") if c.strip()]
        unknown = [c for c in rules if c not in RULES]
        if unknown:
            print(f"unknown rule code(s): {', '.join(unknown)}",
                  file=sys.stderr)
            return 2
    if args.flow:
        if rules is not None:
            print("--flow and --rules are mutually exclusive",
                  file=sys.stderr)
            return 2
        rules = sorted(FLOW_CODES)

    paths = args.paths or [_default_target()]

    if args.graph:
        for flow in _module_flows(paths):
            print(f"== {flow.path}")
            print(flow_to_ascii(flow), end="")
        return 0

    if args.dot is not None:
        args.dot.write_text(flow_to_dot(_module_flows(paths)),
                            encoding="utf-8")
        print(f"wrote flow graph to {args.dot}", file=sys.stderr)

    findings = collect_findings(paths, rules=rules)

    if args.format == "jsonl":
        for f in findings:
            print(json.dumps(f.as_dict(), sort_keys=True))
    elif args.format == "github":
        # Workflow-command annotations: one ::error per finding so the
        # Actions UI pins them to the diff; columns are 1-based there.
        for f in findings:
            where = f" [in {f.context}]" if f.context != "<module>" else ""
            print(f"::error file={f.path},line={f.line},col={f.col + 1},"
                  f"title={f.rule}::{f.message}{where}")
        print(f"{len(findings)} finding(s)")
    else:
        for f in findings:
            print(f.render())
        print(f"{len(findings)} finding(s)")

    return 1 if findings else 0


if __name__ == "__main__":
    raise SystemExit(main())
