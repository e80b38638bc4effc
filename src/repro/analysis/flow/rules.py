"""The message-flow contract rules (RS006-RS010).

These rules run over the :mod:`repro.analysis.flow.extract` model and
reuse the base framework end to end: findings are ordinary
:class:`~repro.analysis.findings.Finding` objects, ``# repro: allow
RSxxx`` markers suppress at the source, and CI fails on any finding.
Granularity is the *module* — the protocols are peer-symmetric, so a
kind sent by one class and dispatched by another class in the same module
(reliable transport, synchronizer hosts) is a satisfied contract.

=========  ==============================================================
code       hazard
=========  ==============================================================
``RS006``  a message kind is sent but no handler clause in the module
           dispatches on it (and no acting wildcard arm absorbs it) —
           the message costs real communication and then hits a closed
           ladder's ``raise`` or is silently dropped
``RS007``  a handler clause dispatches on a kind no send site in the
           module produces — dead protocol surface, untestable by
           construction
``RS008``  a send in a process-like class carries no ``tag=`` or a tag
           outside the cost taxonomy — its cost merges into nothing the
           per-class accounting (``Metrics.cost_by_tag``) can attribute
``RS009``  a nondeterminism hazard (the RS001-RS003 patterns) sits in a
           method reachable from a handler entry point through the call
           graph — it executes on the message path even if the site
           itself carries a narrow ``allow``
``RS010``  a handler writes attributes/items on an object received in a
           payload — static cross-process state mutation, the compile-
           time complement of the runtime race detector
=========  ==============================================================
"""

from __future__ import annotations

import ast
from collections.abc import Iterable

from ..findings import Finding
from ..rules import FLOW_CODES, Analyzer, _allowed_codes
from .extract import class_extractors
from .model import ClassFlow, ModuleFlow
from .taxonomy import module_declared_tags, tag_is_declared

__all__ = ["FLOW_CODES", "analyze_flow_tree"]

#: RS009 watches the sites these base rules flag.
_NONDET_CODES = frozenset({"RS001", "RS002", "RS003"})


class _FlowAnalyzer:
    """Applies RS006-RS010 to one parsed module."""

    def __init__(self, tree: ast.Module, path: str, source: str,
                 rules: frozenset[str]) -> None:
        self.tree = tree
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.rules = rules
        self.findings: list[Finding] = []
        self.extractors = class_extractors(tree, source)
        self.flows: list[ClassFlow] = [e.extract() for e in self.extractors]
        self.module = ModuleFlow(path=path, classes=self.flows)

    # -------------------------------------------------------------- #
    # Reporting (same allow-marker contract as the base Analyzer)
    # -------------------------------------------------------------- #

    def _report(self, code: str, line: int, col: int, context: str,
                message: str) -> None:
        if code not in self.rules:
            return
        raw = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        if code in _allowed_codes(raw):
            return
        self.findings.append(Finding(
            path=self.path, line=line, col=col, rule=code,
            message=message, context=context, snippet=raw.strip(),
        ))

    # -------------------------------------------------------------- #
    # RS006 / RS007: the send <-> handle contract
    # -------------------------------------------------------------- #

    def _check_contract(self) -> None:
        handled = self.module.handled_kinds
        sent = self.module.sent_kinds
        for cls in self.flows:
            if not cls.process_like:
                continue
            if not self.module.wildcard:
                for site in cls.sends:
                    if site.kind is not None and site.kind not in handled:
                        self._report(
                            "RS006", site.line, site.col, site.where,
                            f"kind '{site.kind}' is sent but no handler in "
                            f"this module dispatches on it (closed ladders "
                            f"raise; fall-through drops it silently)",
                        )
            for clause in cls.clauses:
                if clause.kind not in sent:
                    self._report(
                        "RS007", clause.line, 0, clause.where,
                        f"handler arm for kind '{clause.kind}' is dead: no "
                        f"send site in this module produces it",
                    )

    # -------------------------------------------------------------- #
    # RS008: tag taxonomy
    # -------------------------------------------------------------- #

    def _check_tags(self) -> None:
        local = module_declared_tags(self.tree)
        for cls in self.flows:
            if not cls.process_like:
                continue
            for site in cls.sends:
                if site.shim and site.tag.status == "forwarded":
                    continue  # the expanded call sites carry the real tag
                tag = site.tag
                if tag.status == "missing":
                    self._report(
                        "RS008", site.line, site.col, site.where,
                        "send carries no tag= — its cost is unattributable "
                        "in the per-class accounting (Metrics.cost_by_tag)",
                    )
                elif tag.status == "literal":
                    assert tag.value is not None
                    if not tag_is_declared(tag.value, local):
                        self._report(
                            "RS008", site.line, site.col, site.where,
                            f"tag '{tag.value}' is not in the cost taxonomy "
                            f"(declared manifest, module-local accounting, "
                            f"or a namespaced family)",
                        )
                elif tag.status == "prefix":
                    assert tag.value is not None
                    if not tag_is_declared(tag.value, local):
                        self._report(
                            "RS008", site.line, site.col, site.where,
                            f"f-string tag prefix '{tag.value}' does not "
                            f"start a declared namespaced family",
                        )
                # forwarded/dynamic: a sanctioned pass-through — the
                # resolvable call sites are checked via shim expansion.

    # -------------------------------------------------------------- #
    # RS009: nondeterminism on the message path
    # -------------------------------------------------------------- #

    def _check_reachable_nondet(self) -> None:
        base = Analyzer(self.path, self.source, rules=_NONDET_CODES)
        base.visit(self.tree)
        reach: dict[str, frozenset[str]] = {
            cls.name: cls.reachable
            for cls in self.flows
            if cls.process_like
        }
        for finding in [*base.findings, *base.suppressed]:
            parts = finding.context.split(".")
            if len(parts) < 2:
                continue
            cls_name, method = parts[0], parts[1]
            if method not in reach.get(cls_name, frozenset()):
                continue
            self._report(
                "RS009", finding.line, finding.col,
                f"{cls_name}.{method}",
                f"nondeterminism on the message path: {finding.rule} "
                f"({finding.message.split(';')[0]}) is reachable from a "
                f"handler entry point",
            )

    # -------------------------------------------------------------- #
    # RS010: writes to payload-received objects
    # -------------------------------------------------------------- #

    def _check_payload_writes(self) -> None:
        for extractor in self.extractors:
            cls = next(
                f for f in self.flows if f.name == extractor.node.name
            )
            if not cls.process_like:
                continue
            for name, info in extractor.methods.items():
                if name not in cls.reachable or not info.tainted:
                    continue
                for sub in ast.walk(info.node):
                    self._check_write_stmt(sub, info.tainted,
                                           f"{cls.name}.{name}")

    def _check_write_stmt(self, node: ast.AST, tainted: set[str],
                          context: str) -> None:
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = list(node.targets)
        elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            targets = [node.target]
        for target in targets:
            if not isinstance(target, (ast.Attribute, ast.Subscript)):
                continue
            root = target
            while isinstance(root, (ast.Attribute, ast.Subscript)):
                root = root.value
            if (
                isinstance(root, ast.Name)
                and root.id != "self"
                and root.id in tainted
            ):
                self._report(
                    "RS010", node.lineno,
                    getattr(node, "col_offset", 0), context,
                    f"write through '{root.id}', an object received in a "
                    f"message payload — cross-process state mutation the "
                    f"network model forbids",
                )

    # -------------------------------------------------------------- #

    def run(self) -> list[Finding]:
        if self.rules & {"RS006", "RS007"}:
            self._check_contract()
        if "RS008" in self.rules:
            self._check_tags()
        if "RS009" in self.rules:
            self._check_reachable_nondet()
        if "RS010" in self.rules:
            self._check_payload_writes()
        return self.findings


def analyze_flow_tree(tree: ast.Module, path: str, source: str,
                      rules: Iterable[str]) -> list[Finding]:
    """Run the selected flow rules over one parsed module."""
    return _FlowAnalyzer(tree, path, source, frozenset(rules)).run()
