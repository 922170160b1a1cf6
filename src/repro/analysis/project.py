"""Whole-program project model: modules, symbols, calls, worker reachability.

Per-file rules cannot answer the question the parallel runtime actually
poses: *which functions run inside worker processes?*  A worker function
is rarely handed to ``Process(target=...)`` directly — in this codebase
it is forwarded through ``ExecutionBackend.map``, stored on a
``SweepRuntime``, or passed down a plain parameter that some inner frame
eventually submits to a pool.  This module builds the global picture
those questions need:

* a **module index** mapping analyzed files to dotted module names
  (derived by walking ``__init__.py`` parents, so ``src/repro/core/
  sweep.py`` becomes ``repro.core.sweep``);
* a **symbol table** of every function/method, keyed by a fully
  qualified id like ``repro.parallel.runtime.LocalSweepRuntime.merge``;
* a **call graph** linking those ids, resolved through local names,
  ``self.method`` receivers, import aliases, and (for project-private
  ``_underscore`` names) a unique-bare-name fallback;
* the **worker-reachable set**: the call-graph closure of every
  function submitted to a process/thread boundary — ``target=`` kwargs,
  pool dispatch methods (``map``/``submit``/``apply_async``/...), plus a
  *dispatcher fixpoint*: when a function forwards one of its own
  parameters into a dispatch position, each of its call sites
  contributes the argument bound to that parameter as a new seed.

The fixpoint is what lets ``runtime.chunk_merge_range(chain, start, stop)``
→ ``self._merge_on_copies(chain, _merge_arrays_worker, args)`` →
``backend.map(fn, ...)`` mark ``_merge_arrays_worker`` as worker code
without any annotation.

Resolution is deliberately conservative-but-sound-enough: unresolvable
calls simply contribute no edge.  For a may-analysis over worker safety
that means missed reachability is possible, never phantom modules.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.astutils import ScopeNode, call_tail, dotted_name, walk_scope
from repro.analysis.base import ModuleContext

__all__ = [
    "CallSite",
    "FunctionInfo",
    "ProjectModel",
    "build_project",
    "module_name_for",
    "DISPATCH_METHODS",
    "PROCESS_FACTORIES",
    "THREAD_FACTORIES",
    "WORKER_FACTORIES",
]

_FUNC_NODES = (ast.FunctionDef, ast.AsyncFunctionDef)

PROCESS_FACTORIES = frozenset({"Process", "Pool", "ProcessPoolExecutor"})
THREAD_FACTORIES = frozenset({"Thread", "ThreadPool", "ThreadPoolExecutor"})
WORKER_FACTORIES = PROCESS_FACTORIES | THREAD_FACTORIES

DISPATCH_METHODS = frozenset(
    {
        "submit",
        "apply",
        "apply_async",
        "map",
        "map_async",
        "imap",
        "imap_unordered",
        "starmap",
        "starmap_async",
    }
)


def module_name_for(path: object) -> str:
    """Dotted module name for a file, walking up through ``__init__.py``.

    Files outside any package (test fixtures, scripts) get their bare
    stem, which keeps single-file analysis self-consistent.
    """
    p = Path(str(path))
    parts = [p.stem] if p.stem != "__init__" else []
    parent = p.parent
    while (parent / "__init__.py").is_file():
        parts.append(parent.name)
        parent = parent.parent
    if not parts:
        parts = [p.stem]
    return ".".join(reversed(parts))


@dataclass
class FunctionInfo:
    """One function or method in the project symbol table."""

    fid: str
    module: str
    qualname: str
    name: str
    node: ast.AST
    ctx: ModuleContext
    class_name: Optional[str] = None
    parent: Optional[str] = None  # enclosing function's fid
    params: Tuple[str, ...] = ()

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class CallSite:
    """One resolved call edge, with enough shape to map args to params."""

    call: ast.Call
    caller: Optional[str]  # fid, or the module name for import-time code
    callee: str
    via_attribute: bool  # bound-method call: positional args offset by one


def _param_names(node: ast.AST) -> Tuple[str, ...]:
    args = node.args  # type: ignore[attr-defined]
    names = [a.arg for a in args.posonlyargs + args.args]
    if args.vararg:
        names.append(args.vararg.arg)
    names.extend(a.arg for a in args.kwonlyargs)
    if args.kwarg:
        names.append(args.kwarg.arg)
    return tuple(names)


class ProjectModel:
    """Symbol table + call graph + worker-reachable set over modules."""

    def __init__(self, contexts: Sequence[ModuleContext]):
        self.contexts = list(contexts)
        self.modules: Dict[str, ModuleContext] = {}
        self.functions: Dict[str, FunctionInfo] = {}
        self._by_bare: Dict[str, List[str]] = {}
        self._call_sites: List[CallSite] = []
        self.call_graph: Dict[str, Set[str]] = {}
        self.worker_seeds: Set[str] = set()
        self.worker_reachable: Set[str] = set()
        self._dispatcher_params: Set[Tuple[str, str]] = set()

        for ctx in self.contexts:
            self._index_module(ctx)
        for ctx in self.contexts:
            self._collect_calls(ctx)
        self._dispatcher_fixpoint()
        self._close_reachability()

    # ------------------------------------------------------------------
    # indexing
    # ------------------------------------------------------------------
    def _index_module(self, ctx: ModuleContext) -> None:
        module = module_name_for(ctx.path)
        self.modules[module] = ctx

        def visit(
            stmts: Iterable[ast.stmt],
            qual: Tuple[str, ...],
            class_name: Optional[str],
            parent_fid: Optional[str],
        ) -> None:
            for stmt in stmts:
                if isinstance(stmt, ast.ClassDef):
                    visit(stmt.body, qual + (stmt.name,), stmt.name, parent_fid)
                elif isinstance(stmt, _FUNC_NODES):
                    qualname = ".".join(qual + (stmt.name,))
                    fid = f"{module}.{qualname}"
                    info = FunctionInfo(
                        fid=fid,
                        module=module,
                        qualname=qualname,
                        name=stmt.name,
                        node=stmt,
                        ctx=ctx,
                        class_name=class_name,
                        parent=parent_fid,
                        params=_param_names(stmt),
                    )
                    self.functions[fid] = info
                    self._by_bare.setdefault(stmt.name, []).append(fid)
                    visit(stmt.body, qual + (stmt.name,), None, fid)
                else:
                    # defs can hide under if/try/with at any level
                    for sub_body in (
                        getattr(stmt, "body", None),
                        getattr(stmt, "orelse", None),
                        getattr(stmt, "finalbody", None),
                    ):
                        if isinstance(sub_body, list):
                            visit(sub_body, qual, class_name, parent_fid)
                    for handler in getattr(stmt, "handlers", []) or []:
                        visit(handler.body, qual, class_name, parent_fid)

        visit(ctx.tree.body, (), None, None)

    # ------------------------------------------------------------------
    # call resolution
    # ------------------------------------------------------------------
    def resolve_callable(
        self,
        expr: ast.expr,
        ctx: ModuleContext,
        module: str,
        caller: Optional[FunctionInfo],
    ) -> Optional[str]:
        """Project fid for a callable reference, or ``None``."""
        dotted = dotted_name(expr)
        if dotted is None:
            return None
        if caller is not None:
            nested = f"{caller.fid}.{dotted}"
            if nested in self.functions:
                return nested
        if "." not in dotted:
            candidate = f"{module}.{dotted}"
            if candidate in self.functions:
                return candidate
            resolved = ctx.imports.resolve(expr)
            if resolved is not None and resolved in self.functions:
                return resolved
            bare = self._by_bare.get(dotted, [])
            if len(bare) == 1:
                return bare[0]
            return None
        head, _, rest = dotted.partition(".")
        if head in ("self", "cls") and caller is not None and "." not in rest:
            enclosing = caller
            while enclosing is not None and enclosing.class_name is None:
                enclosing = (
                    self.functions.get(enclosing.parent)
                    if enclosing.parent
                    else None
                )
            if enclosing is not None:
                candidate = f"{module}.{enclosing.class_name}.{rest}"
                if candidate in self.functions:
                    return candidate
        resolved = ctx.imports.resolve(expr)
        if resolved is not None and resolved in self.functions:
            return resolved
        candidate = f"{module}.{dotted}"  # ClassName.method spelled out
        if candidate in self.functions:
            return candidate
        tail = dotted.rsplit(".", 1)[1]
        if tail.startswith("_"):
            # project-private names are unlikely to collide with stdlib
            # attributes; a unique match is almost certainly ours.
            bare = self._by_bare.get(tail, [])
            if len(bare) == 1:
                return bare[0]
        return None

    def _seed_expr(
        self,
        expr: ast.expr,
        ctx: ModuleContext,
        module: str,
        caller: Optional[FunctionInfo],
    ) -> bool:
        """Register a value flowing into a worker boundary.  True if new."""
        fid = self.resolve_callable(expr, ctx, module, caller)
        if fid is not None:
            if fid not in self.worker_seeds:
                self.worker_seeds.add(fid)
                return True
            return False
        if (
            isinstance(expr, ast.Name)
            and caller is not None
            and expr.id in caller.params
        ):
            key = (caller.fid, expr.id)
            if key not in self._dispatcher_params:
                self._dispatcher_params.add(key)
                return True
        return False

    def _collect_calls(self, ctx: ModuleContext) -> None:
        module = module_name_for(ctx.path)
        scopes: List[Tuple[ScopeNode, Optional[FunctionInfo]]] = [
            (ctx.tree, None)
        ]
        for info in self.functions.values():
            if info.ctx is ctx:
                scopes.append((info.node, info))  # type: ignore[arg-type]
        for scope, caller in scopes:
            caller_id = caller.fid if caller is not None else module
            for node in walk_scope(scope):
                if not isinstance(node, ast.Call):
                    continue
                if call_tail(node) in WORKER_FACTORIES:
                    for kw in node.keywords:
                        if kw.arg == "target":
                            self._seed_expr(kw.value, ctx, module, caller)
                if (
                    isinstance(node.func, ast.Attribute)
                    and node.func.attr in DISPATCH_METHODS
                    and node.args
                ):
                    self._seed_expr(node.args[0], ctx, module, caller)
                callee = self.resolve_callable(node.func, ctx, module, caller)
                if callee is not None:
                    self._call_sites.append(
                        CallSite(
                            call=node,
                            caller=caller_id,
                            callee=callee,
                            via_attribute=isinstance(node.func, ast.Attribute),
                        )
                    )
                    self.call_graph.setdefault(caller_id, set()).add(callee)

    def _arg_for_param(
        self, site: CallSite, callee: FunctionInfo, param: str
    ) -> Optional[ast.expr]:
        """The expression bound to ``param`` at ``site``, if spelled plainly."""
        for kw in site.call.keywords:
            if kw.arg == param:
                return kw.value
        try:
            index = callee.params.index(param)
        except ValueError:
            return None
        if callee.is_method and site.via_attribute:
            index -= 1  # self is bound by the receiver
        if 0 <= index < len(site.call.args):
            arg = site.call.args[index]
            if not isinstance(arg, ast.Starred):
                return arg
        return None

    def _dispatcher_fixpoint(self) -> None:
        """Propagate seeds through parameter-forwarding dispatchers."""
        changed = True
        while changed:
            changed = False
            by_fid: Dict[str, List[str]] = {}
            for fid, param in self._dispatcher_params:
                by_fid.setdefault(fid, []).append(param)
            for site in self._call_sites:
                params = by_fid.get(site.callee)
                if not params:
                    continue
                callee = self.functions[site.callee]
                caller = self.functions.get(site.caller or "")
                for param in params:
                    arg = self._arg_for_param(site, callee, param)
                    if arg is None:
                        continue
                    if self._seed_expr(arg, callee.ctx, callee.module, caller):
                        changed = True

    def _close_reachability(self) -> None:
        frontier = [fid for fid in self.worker_seeds if fid in self.functions]
        self.worker_reachable = set(frontier)
        while frontier:
            fid = frontier.pop()
            for callee in self.call_graph.get(fid, ()):
                if callee not in self.worker_reachable:
                    self.worker_reachable.add(callee)
                    frontier.append(callee)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def is_worker_reachable(self, fid: str) -> bool:
        return fid in self.worker_reachable

    def worker_functions(self) -> List[FunctionInfo]:
        """Worker-reachable functions, in stable (module, line) order."""
        infos = [
            self.functions[fid]
            for fid in self.worker_reachable
            if fid in self.functions
        ]
        infos.sort(key=lambda i: (i.ctx.path, i.node.lineno))  # type: ignore[attr-defined]
        return infos


def build_project(contexts: Sequence[ModuleContext]) -> ProjectModel:
    """Build the project model for a set of parsed modules."""
    return ProjectModel(contexts)
