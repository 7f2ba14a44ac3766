"""GC001: every ``threading.Thread`` must be grasp-named with explicit daemon."""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.lint.engine import Finding
from repro.lint.rules.base import FileContext, Rule, dotted


def _static_name_prefix(node: ast.AST) -> Optional[str]:
    """The static leading text of a name expression, if determinable.

    Handles plain string constants and f-strings whose first piece is a
    constant (``f"grasp-worker-{rank}"``).  Returns None when the prefix
    cannot be determined statically.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr) and node.values:
        first = node.values[0]
        if isinstance(first, ast.Constant) and isinstance(first.value, str):
            return first.value
    return None


class ThreadNamingRule(Rule):
    id = "GC001"
    summary = "threading.Thread must be named grasp-* with explicit daemon="
    rationale = (
        "The teardown leak checks sweep for threads named grasp-*; an "
        "unnamed service thread escapes them silently (PR 4/5 hardening), "
        "and an implicit daemon flag inherits from the spawning thread, "
        "which differs between pytest and worker subprocesses."
    )

    def check(self, ctx: FileContext) -> Iterator[Finding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            callee = dotted(node.func)
            if callee not in ("threading.Thread", "Thread"):
                continue
            kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
            if "daemon" not in kwargs:
                yield self.finding(
                    ctx, node, "threading.Thread without explicit daemon= flag"
                )
            name_value = kwargs.get("name")
            if name_value is None:
                yield self.finding(
                    ctx,
                    node,
                    "threading.Thread without name=; service threads must be "
                    "named grasp-* so leak checks can find them",
                )
                continue
            prefix = _static_name_prefix(name_value)
            if prefix is None:
                yield self.finding(
                    ctx,
                    node,
                    "threading.Thread name is not statically grasp-*-prefixed; "
                    "start the name with a 'grasp-' literal",
                )
            elif not prefix.startswith("grasp-"):
                yield self.finding(
                    ctx,
                    node,
                    f"threading.Thread name {prefix!r}... must start with 'grasp-'",
                )
