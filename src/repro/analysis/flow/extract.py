"""AST extraction of per-module message-flow facts.

One pass per module produces a :class:`~repro.analysis.flow.model.ModuleFlow`:

* **send sites** — every ``self.send(to, payload, ...)`` in a process-like
  class.  The message *kind* is the first element of a literal tuple
  payload, resolved through module constants and method-local tuple
  bindings (``frame = (_DATA, seq, payload); self.send(to, frame, ...)``).
  Shim helpers that forward a payload parameter verbatim
  (``def _ds_send(self, to, payload, tag): self.send(to, payload, tag=tag)``)
  are expanded one level: each call site becomes a send site with the
  caller's payload and tag.
* **handler clauses** — ``kind == "..."`` dispatch arms (if/elif ladders,
  ``!= K`` misuse guards, ``assert kind == K``) over names bound from the
  handler payload, found through the class's intraprocedural call graph
  (``on_message -> _try -> _on_connect`` and friends).  Each clause also
  records the kinds sent *in response*: literal-kind sends in the arm body
  plus everything reachable from the arm through the call graph.
* **reachability and payload taint** — which methods a handler entry point
  can reach, and which names alias payload contents (for RS009/RS010).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field

from .model import ClassFlow, HandlerClause, ModuleFlow, SendSite, TagInfo

__all__ = ["extract_module_flow", "HANDLER_ROOTS"]

#: Entry points a delivery can invoke on a process-like class.
#: ``handle_control`` is the synchronizer-host extension point (invoked by
#: the base class dispatch in another module).
HANDLER_ROOTS = frozenset({
    "on_start", "on_message", "on_recover", "handle_control",
})

#: Handler signatures whose last positional parameter is the payload.
_PAYLOAD_HANDLERS = frozenset({"on_message", "handle_control"})


def _segment(source: str, node: ast.AST) -> str:
    text = ast.get_source_segment(source, node)  # type: ignore[arg-type]
    return " ".join(text.split()) if text else "<expr>"


def _is_process_like(node: ast.ClassDef) -> bool:
    base_names = {
        b.id if isinstance(b, ast.Name) else b.attr
        for b in node.bases
        if isinstance(b, (ast.Name, ast.Attribute))
    }
    methods = {
        n.name for n in node.body
        if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
    }
    # Broader than the base linter's notion: defining ``handle_control``
    # (the synchronizer-host extension point) also makes a class part of
    # the message plane even without its own ``on_message``.
    return any(b.endswith("Process") for b in base_names) or bool(
        methods & HANDLER_ROOTS
    )


def _module_constants(tree: ast.Module) -> dict[str, str]:
    """Top-level ``NAME = "literal"`` string constants."""
    consts: dict[str, str] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1:
            target = stmt.targets[0]
            if (
                isinstance(target, ast.Name)
                and isinstance(stmt.value, ast.Constant)
                and isinstance(stmt.value.value, str)
            ):
                consts[target.id] = stmt.value.value
    return consts


def _self_call_name(node: ast.Call) -> str | None:
    """``self.X(...)`` -> ``"X"``."""
    func = node.func
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    ):
        return func.attr
    return None


def _raises_only(stmts: list[ast.stmt]) -> bool:
    """Does this block do nothing but raise / assert-false / pass/return?"""
    for stmt in stmts:
        if isinstance(stmt, (ast.Raise, ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Return) and stmt.value is None:
            continue
        if isinstance(stmt, ast.Assert):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / ellipsis
        return False
    return True


@dataclass
class _Method:
    """Working facts for one method during extraction."""

    node: ast.FunctionDef | ast.AsyncFunctionDef
    params: list[str]  # positional + kwonly, ``self`` excluded
    calls: set[str] = field(default_factory=set)
    sends: list[ast.Call] = field(default_factory=list)
    tainted: set[str] = field(default_factory=set)
    # shim forwarding: index into ``params`` of a payload parameter the
    # method passes to ``self.send`` verbatim, else None
    forwards_payload: int | None = None
    # name of the shim's parameter its send's tag= forwards, if any
    forwards_tag_param: str | None = None
    # the shim send's own tag resolution (inherited by expanded sites
    # when the tag is not parameter-forwarded)
    forward_tag: TagInfo | None = None


class _ClassExtractor:
    """Builds one :class:`ClassFlow` from a ``ClassDef``."""

    def __init__(self, node: ast.ClassDef, source: str,
                 consts: dict[str, str]) -> None:
        self.node = node
        self.source = source
        self.consts = consts
        self.methods: dict[str, _Method] = {}
        for stmt in node.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = stmt.args
                params = [
                    a.arg
                    for a in (*args.posonlyargs, *args.args, *args.kwonlyargs)
                    if a.arg != "self"
                ]
                self.methods[stmt.name] = _Method(stmt, params)

    # -------------------------------------------------------------- #
    # Call graph / reachability
    # -------------------------------------------------------------- #

    def _collect_calls(self) -> None:
        for info in self.methods.values():
            for sub in ast.walk(info.node):
                if isinstance(sub, ast.Call):
                    name = _self_call_name(sub)
                    if name == "send":
                        info.sends.append(sub)
                    elif name is not None and name in self.methods:
                        info.calls.add(name)
                elif (
                    isinstance(sub, ast.Attribute)
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "self"
                    and sub.attr in self.methods
                    and isinstance(sub.ctx, ast.Load)
                ):
                    # bare reference: timer callbacks, bound-method passing
                    info.calls.add(sub.attr)

    def _roots(self) -> frozenset[str]:
        declared = frozenset(self.methods) & HANDLER_ROOTS
        if "on_message" in self.methods or not self.methods:
            return declared
        # No own dispatch: an inherited on_message (or a host wrapper) may
        # invoke anything this class defines — treat every method as an
        # entry point rather than under-approximate reachability.
        return frozenset(self.methods)

    def _reachable(self, roots: frozenset[str]) -> frozenset[str]:
        seen: set[str] = set()
        stack = sorted(roots)
        while stack:
            name = stack.pop()
            if name in seen or name not in self.methods:
                continue
            seen.add(name)
            stack.extend(self.methods[name].calls)
        return frozenset(seen)

    def _closure(self, names: set[str]) -> frozenset[str]:
        return self._reachable(frozenset(n for n in names if n in self.methods))

    # -------------------------------------------------------------- #
    # Payload taint
    # -------------------------------------------------------------- #

    def _propagate_taint(self) -> None:
        for name, info in self.methods.items():
            if name in _PAYLOAD_HANDLERS and len(info.params) >= 2:
                info.tainted.add(info.params[-1])
        for _ in range(len(self.methods) + 2):
            changed = False
            for info in self.methods.values():
                changed |= self._taint_locals(info)
                changed |= self._taint_callees(info)
            if not changed:
                break

    def _expr_tainted(self, node: ast.expr, tainted: set[str]) -> bool:
        """Is any *load* of a tainted name embedded in this expression?"""
        for sub in ast.walk(node):
            if (
                isinstance(sub, ast.Name)
                and isinstance(sub.ctx, ast.Load)
                and sub.id in tainted
            ):
                return True
        return False

    def _taint_locals(self, info: _Method) -> bool:
        changed = False
        for sub in ast.walk(info.node):
            if isinstance(sub, ast.Assign):
                if self._expr_tainted(sub.value, info.tainted):
                    for target in sub.targets:
                        changed |= self._taint_binding(target, info)
        return changed

    def _taint_binding(self, target: ast.expr, info: _Method) -> bool:
        """Taint plain name (re)bindings only — storing a tainted value
        *into* a container (``buf[k] = x``) does not make the container a
        payload object."""
        if isinstance(target, ast.Name):
            if target.id not in info.tainted:
                info.tainted.add(target.id)
                return True
            return False
        if isinstance(target, (ast.Tuple, ast.List)):
            changed = False
            for elt in target.elts:
                changed |= self._taint_binding(elt, info)
            return changed
        if isinstance(target, ast.Starred):
            return self._taint_binding(target.value, info)
        return False

    def _taint_callees(self, info: _Method) -> bool:
        changed = False
        for sub in ast.walk(info.node):
            if not isinstance(sub, ast.Call):
                continue
            callee = _self_call_name(sub)
            if callee is None or callee not in self.methods:
                continue
            target = self.methods[callee]
            for i, arg in enumerate(sub.args):
                if i < len(target.params) and self._expr_tainted(
                    arg, info.tainted
                ):
                    if target.params[i] not in target.tainted:
                        target.tainted.add(target.params[i])
                        changed = True
            for kw in sub.keywords:
                if kw.arg in target.params and self._expr_tainted(
                    kw.value, info.tainted
                ):
                    if kw.arg not in target.tainted:
                        target.tainted.add(kw.arg)
                        changed = True
        return changed

    # -------------------------------------------------------------- #
    # Kind variables and dispatch clauses
    # -------------------------------------------------------------- #

    def _kind_names(self, info: _Method) -> set[str]:
        """Local names bound to *element 0* of a tainted payload."""
        kinds: set[str] = set()
        payloads = set(info.tainted)
        for sub in ast.walk(info.node):
            if not isinstance(sub, ast.Assign) or len(sub.targets) != 1:
                continue
            target, value = sub.targets[0], sub.value
            self._bind_kind(target, value, payloads, kinds)
        return kinds

    def _bind_kind(self, target: ast.expr, value: ast.expr,
                   payloads: set[str], kinds: set[str]) -> None:
        if isinstance(target, ast.Name):
            if self._is_payload_elt0(value, payloads):
                kinds.add(target.id)
        elif isinstance(target, ast.Tuple) and target.elts:
            if isinstance(value, ast.Tuple):
                for t, v in zip(target.elts, value.elts, strict=False):
                    self._bind_kind(t, v, payloads, kinds)
            elif (
                isinstance(value, ast.Name)
                and value.id in payloads
                and isinstance(target.elts[0], ast.Name)
            ):
                kinds.add(target.elts[0].id)

    def _is_payload_elt0(self, node: ast.expr, payloads: set[str]) -> bool:
        return (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in payloads
            and isinstance(node.slice, ast.Constant)
            and node.slice.value == 0
        )

    def _kind_of_compare(self, test: ast.expr, info: _Method,
                         kinds: set[str]) -> tuple[str, bool] | None:
        """``(kind, negated)`` when ``test`` compares a kind var/expr to a
        resolvable string — searching inside ``and`` conjunctions."""
        if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.And):
            for value in test.values:
                found = self._kind_of_compare(value, info, kinds)
                if found is not None:
                    return found
            return None
        if not isinstance(test, ast.Compare) or len(test.ops) != 1:
            return None
        op = test.ops[0]
        if not isinstance(op, (ast.Eq, ast.NotEq)):
            return None
        left, right = test.left, test.comparators[0]
        for kind_side, const_side in ((left, right), (right, left)):
            if not self._is_kind_expr(kind_side, info, kinds):
                continue
            value = self._resolve_str(const_side)
            if value is not None:
                return value, isinstance(op, ast.NotEq)
        return None

    def _is_kind_expr(self, node: ast.expr, info: _Method,
                      kinds: set[str]) -> bool:
        if isinstance(node, ast.Name):
            return node.id in kinds
        return self._is_payload_elt0(node, info.tainted)

    def _resolve_str(self, node: ast.expr) -> str | None:
        if isinstance(node, ast.Constant) and isinstance(node.value, str):
            return node.value
        if isinstance(node, ast.Name):
            return self.consts.get(node.id)
        return None

    def _scan_clauses(self, flow: ClassFlow, reachable: frozenset[str]) -> None:
        for name in sorted(reachable):
            info = self.methods[name]
            kinds = self._kind_names(info)
            if not kinds and not info.tainted:
                continue
            self._scan_block(list(info.node.body), info, kinds, flow, name)

    def _scan_block(self, stmts: list[ast.stmt], info: _Method,
                    kinds: set[str], flow: ClassFlow, method: str) -> None:
        for i, stmt in enumerate(stmts):
            if isinstance(stmt, ast.If):
                found = self._kind_of_compare(stmt.test, info, kinds)
                if found is not None:
                    kind, negated = found
                    if negated and _raises_only(stmt.body):
                        # ``if kind != K: raise`` — the remainder of the
                        # block is the handler body for K.
                        self._add_clause(flow, kind, method, stmt.lineno,
                                         stmts[i + 1:])
                    elif not negated:
                        self._add_clause(flow, kind, method, stmt.lineno,
                                         stmt.body)
                        self._scan_else(stmt.orelse, info, kinds, flow,
                                        method)
                        continue
                self._scan_block(list(stmt.body), info, kinds, flow, method)
                self._scan_block(list(stmt.orelse), info, kinds, flow, method)
            elif isinstance(stmt, ast.Assert) and stmt.test is not None:
                found = self._kind_of_compare(stmt.test, info, kinds)
                if found is not None and not found[1]:
                    self._add_clause(flow, found[0], method, stmt.lineno,
                                     stmts[i + 1:])
            elif isinstance(stmt, (ast.For, ast.While, ast.With)):
                self._scan_block(list(stmt.body), info, kinds, flow, method)
            elif isinstance(stmt, ast.Try):
                self._scan_block(list(stmt.body), info, kinds, flow, method)
                for handler in stmt.handlers:
                    self._scan_block(list(handler.body), info, kinds, flow,
                                     method)

    def _scan_else(self, orelse: list[ast.stmt], info: _Method,
                   kinds: set[str], flow: ClassFlow, method: str) -> None:
        """Walk an elif chain; classify the terminal ``else`` arm."""
        if not orelse:
            return
        if len(orelse) == 1 and isinstance(orelse[0], ast.If):
            nxt = orelse[0]
            found = self._kind_of_compare(nxt.test, info, kinds)
            if found is not None and not found[1]:
                self._add_clause(flow, found[0], method, nxt.lineno, nxt.body)
                self._scan_else(nxt.orelse, info, kinds, flow, method)
                return
        if not _raises_only(orelse):
            flow.wildcard = True
            if flow.wildcard_line is None:
                flow.wildcard_line = orelse[0].lineno
        self._scan_block(list(orelse), info, kinds, flow, method)

    def _add_clause(self, flow: ClassFlow, kind: str, method: str,
                    line: int, body: list[ast.stmt]) -> None:
        responds = self._responds(body)
        flow.clauses.append(HandlerClause(
            kind=kind, cls=self.node.name, method=method, line=line,
            responds=responds,
        ))

    def _responds(self, body: list[ast.stmt]) -> frozenset[str]:
        """Kinds sent while handling: inline sends in the arm body plus
        everything reachable from the methods the arm calls."""
        called: set[str] = set()
        kinds: set[str] = set()
        for stmt in body:
            for sub in ast.walk(stmt):
                if isinstance(sub, ast.Call):
                    name = _self_call_name(sub)
                    if name == "send":
                        kind = self._send_kind(sub, None)
                        if kind is not None:
                            kinds.add(kind)
                    elif name in self.methods:
                        called.add(name)
        for name in self._closure(called):
            for call in self.methods[name].sends:
                kind = self._send_kind(call, self.methods[name])
                if kind is not None:
                    kinds.add(kind)
            for sub in ast.walk(self.methods[name].node):
                if isinstance(sub, ast.Call):
                    shim = _self_call_name(sub)
                    if shim is not None and shim in self.methods:
                        expanded = self._expand_shim_kind(sub, shim)
                        if expanded is not None:
                            kinds.add(expanded)
        return frozenset(kinds)

    # -------------------------------------------------------------- #
    # Send sites
    # -------------------------------------------------------------- #

    def _send_kind(self, call: ast.Call, info: _Method | None) -> str | None:
        if len(call.args) < 2:
            return None
        return self._payload_kind(call.args[1], info)

    def _payload_kind(self, payload: ast.expr,
                      info: _Method | None) -> str | None:
        if isinstance(payload, ast.Tuple) and payload.elts:
            return self._resolve_str(payload.elts[0])
        if isinstance(payload, ast.Name) and info is not None:
            # method-local tuple binding: frame = (KIND, ...); send(frame)
            for sub in ast.walk(info.node):
                if (
                    isinstance(sub, ast.Assign)
                    and len(sub.targets) == 1
                    and isinstance(sub.targets[0], ast.Name)
                    and sub.targets[0].id == payload.id
                    and isinstance(sub.value, ast.Tuple)
                    and sub.value.elts
                ):
                    return self._resolve_str(sub.value.elts[0])
        return None

    def _tag_info(self, call: ast.Call, info: _Method) -> TagInfo:
        tag: ast.expr | None = None
        for kw in call.keywords:
            if kw.arg == "tag":
                tag = kw.value
        return self._tag_expr_info(tag, info)

    def _tag_expr_info(self, tag: ast.expr | None, info: _Method) -> TagInfo:
        if tag is None:
            return TagInfo("missing")
        literal = self._resolve_str(tag)
        if literal is not None:
            return TagInfo("literal", literal)
        if isinstance(tag, ast.Name):
            if tag.id in info.params:
                return TagInfo("forwarded")
            return TagInfo("dynamic")
        if isinstance(tag, ast.Attribute):
            resolved = self._resolve_self_attr(tag)
            if resolved is not None:
                return TagInfo("literal", resolved)
            return TagInfo("dynamic")
        if isinstance(tag, ast.JoinedStr):
            head = ""
            for part in tag.values:
                if isinstance(part, ast.Constant) and isinstance(
                    part.value, str
                ):
                    head += part.value
                else:
                    break
            return TagInfo("prefix", head) if head else TagInfo("dynamic")
        return TagInfo("dynamic")

    def _resolve_self_attr(self, node: ast.Attribute) -> str | None:
        """``self.X`` where ``__init__`` binds X to a literal (or to a
        parameter whose default is a literal)."""
        if not (isinstance(node.value, ast.Name) and node.value.id == "self"):
            return None
        init = self.methods.get("__init__")
        if init is None:
            return None
        for sub in ast.walk(init.node):
            if not (isinstance(sub, ast.Assign) and len(sub.targets) == 1):
                continue
            target = sub.targets[0]
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr == node.attr
            ):
                continue
            if isinstance(sub.value, ast.Constant) and isinstance(
                sub.value.value, str
            ):
                return sub.value.value
            if isinstance(sub.value, ast.Name):
                return self._param_default(init, sub.value.id)
        return None

    def _param_default(
        self, init: _Method, name: str
    ) -> str | None:
        args = init.node.args
        pos = [*args.posonlyargs, *args.args]
        defaults = list(args.defaults)
        for arg, default in zip(pos[len(pos) - len(defaults):], defaults,
                                strict=True):
            if (
                arg.arg == name
                and isinstance(default, ast.Constant)
                and isinstance(default.value, str)
            ):
                return default.value
        for arg, kw_default in zip(args.kwonlyargs, args.kw_defaults,
                                   strict=True):
            if (
                arg.arg == name
                and isinstance(kw_default, ast.Constant)
                and isinstance(kw_default.value, str)
            ):
                return kw_default.value
        return None

    def _find_forwarders(self) -> None:
        """Mark methods that forward a payload parameter to self.send."""
        for info in self.methods.values():
            for call in info.sends:
                if (
                    len(call.args) >= 2
                    and isinstance(call.args[1], ast.Name)
                    and call.args[1].id in info.params
                ):
                    info.forwards_payload = info.params.index(call.args[1].id)
                    tag_expr: ast.expr | None = None
                    for kw in call.keywords:
                        if kw.arg == "tag":
                            tag_expr = kw.value
                    if (
                        isinstance(tag_expr, ast.Name)
                        and tag_expr.id in info.params
                    ):
                        info.forwards_tag_param = tag_expr.id
                    else:
                        info.forward_tag = self._tag_info(call, info)

    def _expand_shim_kind(self, call: ast.Call, shim: str) -> str | None:
        """The kind a ``self._shim(..., (KIND, ...), ...)`` call sends."""
        target = self.methods[shim]
        if target.forwards_payload is None:
            return None
        idx = target.forwards_payload
        if idx < len(call.args):
            return self._payload_kind(call.args[idx], None)
        param = target.params[idx]
        for kw in call.keywords:
            if kw.arg == param:
                return self._payload_kind(kw.value, None)
        return None

    def _collect_sends(self, flow: ClassFlow) -> None:
        for name, info in self.methods.items():
            for call in info.sends:
                payload = call.args[1] if len(call.args) >= 2 else None
                is_shim = (
                    info.forwards_payload is not None
                    and payload is not None
                    and isinstance(payload, ast.Name)
                    and payload.id in info.params
                )
                size = None
                for kw in call.keywords:
                    if kw.arg == "size":
                        size = _segment(self.source, kw.value)
                flow.sends.append(SendSite(
                    line=call.lineno,
                    col=call.col_offset,
                    cls=self.node.name,
                    method=name,
                    kind=self._send_kind(call, info),
                    tag=self._tag_info(call, info),
                    payload=(
                        _segment(self.source, payload)
                        if payload is not None else "<none>"
                    ),
                    size=size,
                    shim=is_shim,
                ))
            # expanded shim call sites
            for sub in ast.walk(info.node):
                if not isinstance(sub, ast.Call):
                    continue
                shim = _self_call_name(sub)
                if (
                    shim is None
                    or shim not in self.methods
                    or self.methods[shim].forwards_payload is None
                ):
                    continue
                target = self.methods[shim]
                idx = target.forwards_payload
                assert idx is not None
                payload_expr: ast.expr | None = None
                if idx < len(sub.args):
                    payload_expr = sub.args[idx]
                else:
                    for kw in sub.keywords:
                        if kw.arg == target.params[idx]:
                            payload_expr = kw.value
                if payload_expr is None:
                    continue
                flow.sends.append(SendSite(
                    line=sub.lineno,
                    col=sub.col_offset,
                    cls=self.node.name,
                    method=name,
                    kind=self._payload_kind(payload_expr, info),
                    tag=self._expanded_tag(sub, target, info),
                    payload=_segment(self.source, payload_expr),
                    size=None,
                    via=shim,
                ))

    def _expanded_tag(self, call: ast.Call, target: _Method,
                      info: _Method) -> TagInfo:
        """Tag of a shim-expanded site: the caller's argument for the
        shim's forwarded tag parameter, else the shim send's own tag."""
        if target.forwards_tag_param is not None:
            idx = target.params.index(target.forwards_tag_param)
            if idx < len(call.args):
                return self._tag_expr_info(call.args[idx], info)
            for kw in call.keywords:
                if kw.arg == target.forwards_tag_param:
                    return self._tag_expr_info(kw.value, info)
            return TagInfo("missing")
        return target.forward_tag or TagInfo("missing")

    # -------------------------------------------------------------- #
    # Entry point
    # -------------------------------------------------------------- #

    def extract(self) -> ClassFlow:
        flow = ClassFlow(
            name=self.node.name,
            line=self.node.lineno,
            process_like=_is_process_like(self.node),
        )
        self._collect_calls()
        self._find_forwarders()
        self._propagate_taint()
        roots = self._roots()
        reachable = self._reachable(roots)
        flow.reachable = reachable
        flow.calls = {
            name: frozenset(info.calls)
            for name, info in sorted(self.methods.items())
        }
        self._collect_sends(flow)
        self._scan_clauses(flow, reachable)
        flow.sends.sort(key=lambda s: (s.line, s.col))
        flow.clauses.sort(key=lambda c: (c.line, c.kind))
        return flow


def extract_module_flow(tree: ast.Module, path: str,
                        source: str) -> ModuleFlow:
    """Extract the full flow model for one parsed module."""
    consts = _module_constants(tree)
    flow = ModuleFlow(path=path)
    for stmt in tree.body:
        if isinstance(stmt, ast.ClassDef):
            flow.classes.append(
                _ClassExtractor(stmt, source, consts).extract()
            )
    return flow


def class_extractors(tree: ast.Module, source: str) -> list[_ClassExtractor]:
    """Extractor per top-level class (rules need taint + method tables)."""
    consts = _module_constants(tree)
    return [
        _ClassExtractor(stmt, source, consts)
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef)
    ]
