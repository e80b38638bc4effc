"""AST rules for the protocol determinism linter.

Every guarantee the test-suite pins byte-for-byte (serial == pool sweep
rows, trace fingerprints, pinned serve addresses) rests on the
simulation being a pure function of its seeds.  These rules flag the code
patterns that silently break that purity:

=========  ==============================================================
code       hazard
=========  ==============================================================
``RS001``  iteration over an unordered ``set``/``frozenset`` (hash order
           depends on ``PYTHONHASHSEED`` for str/tuple elements), or
           arbitrary-element selection via ``next(iter(s))``
``RS002``  use of the *module-level* ``random`` functions, whose global
           stream bypasses the seeded per-component ``random.Random``
           instances the simulator threads everywhere
``RS003``  wall-clock or entropy reads (``time.time``, ``os.urandom``,
           ``uuid.uuid4``, ``secrets``, ``datetime.now``) — values that
           differ between two runs of the same seeds
``RS004``  mutation of a ``WeightedGraph``'s private adjacency without a
           ``_version`` bump — derived-parameter caches
           (:mod:`repro.graphs.cache`) would serve stale values
``RS005``  a protocol process writing simulator-owned state reachable
           through its ``ctx`` (shared-state aliasing across the
           process/network boundary)
=========  ==============================================================

A finding on a line carrying ``# repro: allow RSxxx -- reason`` is
suppressed at the source (``# noqa`` is deliberately *not* honored, so
these markers never collide with ruff's ``RUF100`` unused-noqa check).
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterable, Sequence

from .findings import Finding

__all__ = ["RULES", "FLOW_CODES", "analyze_source", "Analyzer"]

#: rule code -> one-line summary (the CLI ``--explain`` catalog).
#: RS001-RS005 are the determinism rules implemented by :class:`Analyzer`
#: below; RS006-RS010 are the message-flow contract rules implemented by
#: :mod:`repro.analysis.flow.rules` and dispatched from
#: :func:`analyze_source`.
RULES: dict[str, str] = {
    "RS001": "iteration over an unordered set (hash-order nondeterminism)",
    "RS002": "module-level random.* call bypasses the seeded RNG plumbing",
    "RS003": "wall-clock / entropy read differs between identical runs",
    "RS004": "WeightedGraph adjacency mutated without a _version bump",
    "RS005": "process writes simulator-owned state through its ctx",
    "RS006": "message kind is sent but no handler in the module dispatches it",
    "RS007": "dead handler arm: dispatched kind is never sent in the module",
    "RS008": "send is untagged or its tag is outside the cost taxonomy",
    "RS009": "nondeterminism (RS001-RS003) reachable from a message handler",
    "RS010": "handler writes state on an object received in a payload",
}

#: Codes handled by the flow checker rather than the base visitor.
FLOW_CODES = frozenset({"RS006", "RS007", "RS008", "RS009", "RS010"})

# Consumers for which the iteration order of their (sole) argument cannot
# be observed in the result.
_ORDER_INSENSITIVE = frozenset({
    "sorted", "min", "max", "sum", "len", "any", "all", "set", "frozenset",
})

# Methods of built-in collections that mutate the receiver in place.
_MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "sort", "reverse", "add", "discard", "update", "setdefault",
    "__setitem__", "__delitem__",
})

# Set methods that return a new set (propagate set-likeness).
_SET_RETURNING = frozenset({
    "intersection", "union", "difference", "symmetric_difference", "copy",
})

# time-module attributes that read the wall clock.
_TIME_ATTRS = frozenset({
    "time", "time_ns", "monotonic", "monotonic_ns", "perf_counter",
    "perf_counter_ns", "process_time", "process_time_ns",
})

# The per-node handler entry points of the Process protocol surface.
_HANDLER_METHODS = frozenset({"on_start", "on_message", "on_recover"})

# ctx methods a process may legitimately call (the sanctioned API).
_CTX_API = frozenset({"send", "set_timer", "finish", "span", "trace_pulse"})

_ALLOW_RE = re.compile(r"#\s*repro:\s*allow\s+([A-Z0-9, ]+?)(?:\s*--.*)?$")


def _allowed_codes(line: str) -> frozenset[str]:
    """Rule codes suppressed by a ``# repro: allow`` marker on ``line``."""
    m = _ALLOW_RE.search(line)
    if not m:
        return frozenset()
    return frozenset(c.strip() for c in m.group(1).split(",") if c.strip())


def _attr_chain(node: ast.expr) -> list[str] | None:
    """``self.ctx.neighbors`` -> ``["self", "ctx", "neighbors"]``.

    Subscript layers are peeled transparently (``self._adj[u][v]`` has the
    same chain as ``self._adj``); returns None for chains not rooted at a
    plain name.
    """
    parts: list[str] = []
    while True:
        if isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        elif isinstance(node, ast.Subscript):
            node = node.value
        elif isinstance(node, ast.Name):
            parts.append(node.id)
            return parts[::-1]
        else:
            return None


def _call_name(node: ast.expr) -> str | None:
    """The bare function name of a ``Call``'s func, if it is a plain name."""
    return node.id if isinstance(node, ast.Name) else None


class _ClassInfo:
    """Per-class facts gathered in a pre-pass over the class body."""

    __slots__ = ("name", "process_like", "tracks_version", "set_attrs")

    def __init__(self, node: ast.ClassDef) -> None:
        self.name = node.name
        base_names = {
            b.id if isinstance(b, ast.Name) else b.attr
            for b in node.bases
            if isinstance(b, (ast.Name, ast.Attribute))
        }
        methods = {
            n.name for n in node.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self.process_like = (
            any(b.endswith("Process") for b in base_names)
            or bool(methods & _HANDLER_METHODS)
        )
        # Does this class maintain the cache-invalidation counter?
        self.tracks_version = False
        # Instance attributes assigned a set-like value anywhere in the body.
        self.set_attrs: set[str] = set()
        for sub in ast.walk(node):
            if isinstance(sub, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = (
                    sub.targets if isinstance(sub, ast.Assign) else [sub.target]
                )
                for t in targets:
                    chain = _attr_chain(t)
                    if chain == ["self", "_version"]:
                        self.tracks_version = True
                    value = getattr(sub, "value", None)
                    if (
                        chain is not None
                        and len(chain) == 2
                        and chain[0] == "self"
                        and value is not None
                        and _is_set_expr(value)
                    ):
                        self.set_attrs.add(chain[1])


def _is_set_expr(node: ast.expr) -> bool:
    """Syntactic set-likeness (no name environment): literals and calls."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call):
        name = _call_name(node.func)
        if name in ("set", "frozenset"):
            return True
    return False


class Analyzer(ast.NodeVisitor):
    """Single-pass visitor applying every rule to one module."""

    def __init__(self, path: str, source: str,
                 rules: Iterable[str] | None = None) -> None:
        self.path = path
        self.lines = source.splitlines()
        self.rules = frozenset(rules) if rules is not None else frozenset(RULES)
        self.findings: list[Finding] = []
        #: findings silenced by an ``allow`` marker — kept so the flow
        #: checker's RS009 can still see nondeterminism sites whose *site*
        #: rule was narrowly suppressed (the reachability hazard is a
        #: separate question from the local one).
        self.suppressed: list[Finding] = []
        self._scope: list[str] = []
        self._classes: list[_ClassInfo] = []
        # Per-function environment of set-typed local names (one dict per
        # nested function scope).
        self._set_locals: list[set[str]] = []
        # Nodes exempted from RS001 (comprehensions consumed by an
        # order-insensitive callable).
        self._exempt: set[int] = set()
        # Import aliases: local name -> canonical module ("random", "time"...)
        self._modules: dict[str, str] = {}
        # Names imported via ``from datetime import datetime``.
        self._datetime_names: set[str] = set()

    # ------------------------------------------------------------------ #
    # Reporting
    # ------------------------------------------------------------------ #

    def _context(self) -> str:
        return ".".join(self._scope) if self._scope else "<module>"

    def _report(self, code: str, node: ast.AST, message: str) -> None:
        if code not in self.rules:
            return
        line = getattr(node, "lineno", 1)
        raw = self.lines[line - 1] if 0 < line <= len(self.lines) else ""
        finding = Finding(
            path=self.path,
            line=line,
            col=getattr(node, "col_offset", 0),
            rule=code,
            message=message,
            context=self._context(),
            snippet=raw.strip(),
        )
        if code in _allowed_codes(raw):
            self.suppressed.append(finding)
            return
        self.findings.append(finding)

    # ------------------------------------------------------------------ #
    # Set-likeness with the local-name environment
    # ------------------------------------------------------------------ #

    def _is_setlike(self, node: ast.expr) -> bool:
        if _is_set_expr(node):
            return True
        if isinstance(node, ast.Name):
            return any(node.id in env for env in self._set_locals)
        if isinstance(node, ast.Attribute):
            chain = _attr_chain(node)
            if (
                chain is not None and len(chain) == 2 and chain[0] == "self"
                and self._classes and chain[1] in self._classes[-1].set_attrs
            ):
                return True
            return False
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if node.func.attr in _SET_RETURNING:
                return self._is_setlike(node.func.value)
            return False
        if isinstance(node, ast.BinOp) and isinstance(
            node.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_setlike(node.left) or self._is_setlike(node.right)
        return False

    def _bind_if_set(self, target: ast.expr, value: ast.expr | None) -> None:
        if (
            value is not None
            and isinstance(target, ast.Name)
            and self._set_locals
        ):
            if self._is_setlike(value):
                self._set_locals[-1].add(target.id)
            else:
                self._set_locals[-1].discard(target.id)

    # ------------------------------------------------------------------ #
    # Scope bookkeeping
    # ------------------------------------------------------------------ #

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._classes.append(_ClassInfo(node))
        self._scope.append(node.name)
        self.generic_visit(node)
        self._scope.pop()
        self._classes.pop()

    @staticmethod
    def _annotation_is_set(annotation: ast.expr | None) -> bool:
        if annotation is None:
            return False
        node = annotation
        if isinstance(node, ast.Subscript):
            node = node.value
        return isinstance(node, ast.Name) and node.id in ("set", "frozenset")

    def _visit_function(self, node: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        self._scope.append(node.name)
        env: set[str] = set()
        args = node.args
        for arg in (*args.posonlyargs, *args.args, *args.kwonlyargs):
            if self._annotation_is_set(arg.annotation):
                env.add(arg.arg)
        self._set_locals.append(env)
        in_class = bool(self._classes) and len(self._scope) >= 1
        if in_class and self._classes[-1].tracks_version:
            self._check_version_bump(node)
        self.generic_visit(node)
        self._set_locals.pop()
        self._scope.pop()

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    # ------------------------------------------------------------------ #
    # Imports (RS002 / RS003 at the import site)
    # ------------------------------------------------------------------ #

    def visit_Import(self, node: ast.Import) -> None:
        for alias in node.names:
            root = alias.name.split(".")[0]
            if root in ("random", "time", "os", "uuid", "secrets", "datetime"):
                self._modules[alias.asname or root] = root
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        if node.module == "random":
            for alias in node.names:
                if alias.name != "Random":
                    self._report(
                        "RS002", node,
                        f"'from random import {alias.name}' binds the global "
                        f"RNG stream; use a seeded random.Random instance",
                    )
        elif node.module == "time":
            for alias in node.names:
                if alias.name in _TIME_ATTRS:
                    self._report(
                        "RS003", node,
                        f"'from time import {alias.name}' reads the wall "
                        f"clock; simulation time must come from the event "
                        f"queue",
                    )
        elif node.module == "secrets":
            self._report("RS003", node,
                         "the secrets module reads OS entropy")
        elif node.module == "datetime":
            for alias in node.names:
                if alias.name == "datetime":
                    self._datetime_names.add(alias.asname or alias.name)
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # Attribute references (RS002 / RS003)
    # ------------------------------------------------------------------ #

    def visit_Attribute(self, node: ast.Attribute) -> None:
        if isinstance(node.value, ast.Name):
            module = self._modules.get(node.value.id)
            if module == "random" and node.attr != "Random":
                self._report(
                    "RS002", node,
                    f"random.{node.attr} draws from the process-global RNG; "
                    f"thread a seeded random.Random instead",
                )
            elif module == "time" and node.attr in _TIME_ATTRS:
                self._report(
                    "RS003", node,
                    f"time.{node.attr} reads the wall clock; two identical "
                    f"runs will disagree",
                )
            elif module == "os" and node.attr in ("urandom", "getrandom"):
                self._report("RS003", node,
                             f"os.{node.attr} reads OS entropy")
            elif module == "uuid" and node.attr in ("uuid1", "uuid4"):
                self._report("RS003", node,
                             f"uuid.{node.attr} is entropy/clock-derived")
            elif module == "secrets":
                self._report("RS003", node,
                             f"secrets.{node.attr} reads OS entropy")
            elif (
                node.value.id in self._datetime_names
                or module == "datetime"
            ) and node.attr in ("now", "utcnow", "today"):
                self._report("RS003", node,
                             f"datetime {node.attr}() reads the wall clock")
        elif (
            isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and self._modules.get(node.value.value.id) == "datetime"
            and node.value.attr in ("datetime", "date")
            and node.attr in ("now", "utcnow", "today")
        ):
            self._report("RS003", node,
                         f"datetime.{node.value.attr}.{node.attr}() reads "
                         f"the wall clock")
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # Iteration sites (RS001)
    # ------------------------------------------------------------------ #

    def visit_For(self, node: ast.For) -> None:
        if self._is_setlike(node.iter):
            self._report(
                "RS001", node.iter,
                "iterating a set: element order depends on hashes "
                "(PYTHONHASHSEED); iterate a sorted() or insertion-ordered "
                "view instead",
            )
        self.generic_visit(node)

    def _visit_comprehension(self, node: ast.AST,
                             generators: Sequence[ast.comprehension]) -> None:
        if id(node) not in self._exempt:
            for gen in generators:
                if self._is_setlike(gen.iter):
                    self._report(
                        "RS001", gen.iter,
                        "comprehension over a set: element order depends on "
                        "hashes (PYTHONHASHSEED)",
                    )
        self.generic_visit(node)

    def visit_ListComp(self, node: ast.ListComp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_GeneratorExp(self, node: ast.GeneratorExp) -> None:
        self._visit_comprehension(node, node.generators)

    def visit_DictComp(self, node: ast.DictComp) -> None:
        self._visit_comprehension(node, node.generators)

    # SetComp over a set is itself unordered output: no finding.
    def visit_SetComp(self, node: ast.SetComp) -> None:
        self._exempt.add(id(node))
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # Calls: RS001 materialization/selection + exemptions, RS004/RS005
    # ------------------------------------------------------------------ #

    def visit_Call(self, node: ast.Call) -> None:
        name = _call_name(node.func)
        if name in _ORDER_INSENSITIVE:
            # The argument's own iteration order is unobservable here.
            for arg in node.args:
                self._exempt.add(id(arg))
        elif name in ("list", "tuple") and len(node.args) == 1:
            if self._is_setlike(node.args[0]):
                self._report(
                    "RS001", node,
                    f"{name}() over a set materializes hash order; wrap in "
                    f"sorted() or keep an ordered source collection",
                )
        elif name == "iter" and len(node.args) == 1:
            if self._is_setlike(node.args[0]):
                self._report(
                    "RS001", node,
                    "iter() over a set selects hash-ordered elements "
                    "(next(iter(s)) picks an arbitrary one)",
                )
        elif (
            isinstance(node.func, ast.Attribute)
            and node.func.attr == "join"
            and len(node.args) == 1
            and self._is_setlike(node.args[0])
        ):
            self._report("RS001", node,
                         "str.join over a set concatenates in hash order")
        self._check_mutating_call(node)
        self.generic_visit(node)

    # ------------------------------------------------------------------ #
    # Mutations (RS004 / RS005)
    # ------------------------------------------------------------------ #

    def _mutation_targets(self, node: ast.stmt) -> list[ast.expr]:
        if isinstance(node, ast.Assign):
            return list(node.targets)
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            return [node.target]
        if isinstance(node, ast.Delete):
            return list(node.targets)
        return []

    def _flag_write(self, node: ast.AST, chain: list[str],
                    subscripted: bool) -> None:
        """Apply the write-site rules to one mutation target chain."""
        if "_adj" in chain:
            root_is_self = chain[0] == "self"
            in_version_class = bool(self._classes) and \
                self._classes[-1].tracks_version
            # Whole-attribute (re)binding like ``self._adj = {}`` in
            # __init__ is construction, not mutation — only flag writes
            # *through* _adj (subscripts) or on non-self roots.  Inside the
            # graph class itself, self._adj writes are governed by the
            # stricter must-bump check (_check_version_bump) instead.
            if (root_is_self and subscripted and not in_version_class) \
                    or not root_is_self:
                self._report(
                    "RS004", node,
                    "direct write to a graph's private adjacency bypasses "
                    "add_edge/remove_edge and the _version counter "
                    "(stale-cache hazard)",
                )
        if (
            self._classes
            and self._classes[-1].process_like
            and chain[0] == "self"
            # Writes *through* a ctx (ctx in a non-terminal position) touch
            # simulator-owned state.  A terminal ``self.inner.ctx = shim``
            # is the sanctioned layered-protocol wrap idiom: the host hands
            # its inner process a fresh context it owns.
            and "ctx" in chain[1:-1]
        ):
            self._report(
                "RS005", node,
                "process writes simulator-owned state through its ctx; "
                "use the Process API (send/set_timer/finish) or node-local "
                "attributes",
            )

    def _handle_write_stmt(self, node: ast.stmt) -> None:
        for target in self._mutation_targets(node):
            subscripted = isinstance(target, ast.Subscript)
            chain = _attr_chain(target)
            if chain is not None and len(chain) >= 2:
                self._flag_write(node, chain, subscripted)
        # Track set-typed locals for RS001.
        if isinstance(node, ast.Assign):
            for target in node.targets:
                self._bind_if_set(target, node.value)
        elif isinstance(node, ast.AnnAssign):
            self._bind_if_set(node.target, node.value)

    def visit_Assign(self, node: ast.Assign) -> None:
        self._handle_write_stmt(node)
        self.generic_visit(node)

    def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
        self._handle_write_stmt(node)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._handle_write_stmt(node)
        self.generic_visit(node)

    def visit_Delete(self, node: ast.Delete) -> None:
        self._handle_write_stmt(node)
        self.generic_visit(node)

    def _check_mutating_call(self, node: ast.Call) -> None:
        if not isinstance(node.func, ast.Attribute):
            return
        method = node.func.attr
        if method not in _MUTATORS:
            return
        receiver = node.func.value
        chain = _attr_chain(receiver)
        if chain is not None and len(chain) >= 2:
            self._flag_write(node, chain + [method], True)
            return
        # ``self.neighbors().sort()`` — mutating the list the framework
        # handed back (it is the live ctx.neighbors list, not a copy).
        if (
            isinstance(receiver, ast.Call)
            and _attr_chain(receiver.func) == ["self", "neighbors"]
            and self._classes
            and self._classes[-1].process_like
        ):
            self._report(
                "RS005", node,
                "mutating the list returned by self.neighbors() aliases "
                "the framework's ctx.neighbors",
            )

    # ------------------------------------------------------------------ #
    # RS004(a): version-tracking classes must bump on mutation
    # ------------------------------------------------------------------ #

    def _check_version_bump(self,
                            fn: ast.FunctionDef | ast.AsyncFunctionDef) -> None:
        """Inside a class that maintains ``_version``: a method mutating
        ``self._adj`` must also touch ``self._version``."""
        mutates: ast.AST | None = None
        bumps = False
        for sub in ast.walk(fn):
            if isinstance(sub, (ast.Assign, ast.AugAssign, ast.AnnAssign,
                                ast.Delete)):
                for target in self._mutation_targets(sub):
                    chain = _attr_chain(target)
                    if chain is None:
                        continue
                    if chain[:2] == ["self", "_version"]:
                        bumps = True
                    elif (
                        chain[:2] == ["self", "_adj"]
                        and isinstance(target, ast.Subscript)
                    ):
                        mutates = mutates or sub
            elif (
                isinstance(sub, ast.Call)
                and isinstance(sub.func, ast.Attribute)
                and sub.func.attr in _MUTATORS
            ):
                chain = _attr_chain(sub.func.value)
                if chain is not None and chain[:2] == ["self", "_adj"]:
                    mutates = mutates or sub
        if mutates is not None and not bumps:
            self._report(
                "RS004", mutates,
                f"method {fn.name}() mutates self._adj without bumping "
                f"self._version (derived-parameter caches go stale)",
            )


def analyze_source(source: str, path: str = "<string>",
                   rules: Iterable[str] | None = None) -> list[Finding]:
    """Run every (selected) rule over one module's source text.

    Returns findings in deterministic (path, line, col, rule) order.
    Raises ``SyntaxError`` if the source does not parse.
    """
    tree = ast.parse(source, filename=path)
    selected = frozenset(rules) if rules is not None else frozenset(RULES)
    findings: list[Finding] = []
    if selected - FLOW_CODES:
        analyzer = Analyzer(path, source, rules=selected - FLOW_CODES)
        analyzer.visit(tree)
        findings.extend(analyzer.findings)
    if selected & FLOW_CODES:
        # Imported lazily: the flow subpackage reuses this module's allow
        # machinery, so a top-level import would be circular.
        from .flow.rules import analyze_flow_tree

        findings.extend(
            analyze_flow_tree(tree, path, source, selected & FLOW_CODES)
        )
    return sorted(findings)
