"""API rules: call-convention hygiene for the public surface.

API001 — no mutable default arguments.  A ``def f(x, acc=[])`` default
is evaluated once at definition time and shared across calls — in this
codebase that means shared across worker invocations and across
clustering runs, which is exactly the hidden cross-run state the
determinism rules exist to forbid.  Use ``None`` and construct the
container inside the function.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional

from repro.analysis.astutils import call_tail
from repro.analysis.base import ModuleContext, Rule
from repro.analysis.finding import Finding
from repro.analysis.registry import register

__all__ = ["MutableDefaultArgRule"]

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.SetComp,
    ast.DictComp,
)
_MUTABLE_CALLS = {
    "Counter",
    "OrderedDict",
    "bytearray",
    "defaultdict",
    "deque",
    "dict",
    "list",
    "set",
}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    return isinstance(node, ast.Call) and call_tail(node) in _MUTABLE_CALLS


@register
class MutableDefaultArgRule(Rule):
    rule_id = "API001"
    summary = "no mutable default arguments"

    def check(self, ctx: ModuleContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
            ):
                continue
            name = getattr(node, "name", "<lambda>")
            defaults: List[Optional[ast.expr]] = list(node.args.defaults)
            defaults.extend(node.args.kw_defaults)
            for default in defaults:
                if default is not None and _is_mutable_default(default):
                    yield self.finding(
                        ctx,
                        default,
                        f"mutable default argument in {name!r} is shared "
                        "across calls; default to None and build the "
                        "container inside the function",
                    )
