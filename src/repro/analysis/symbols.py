"""Lightweight per-module symbol resolution for the rule checkers.

Full type inference is out of scope; what the determinism rules need is
much smaller and entirely syntactic:

* which local names are *imported modules* (``import numpy as np`` maps
  ``np`` → ``numpy``) or *imported attributes* (``from time import
  time`` maps ``time`` → ``time.time``), so a call site can be
  qualified back to the real dotted path it invokes;
* which module-level names are bound to *mutable containers*
  (dict/list/set/deque literals or constructor calls) — the state
  SPAWN001 guards;
* which module-level names are bound to ``threading.Lock()`` /
  ``RLock()`` — mutations under ``with <lock>:`` are concurrency-safe.

:class:`ModuleContext` walks each tree exactly once.  That walk threads
a ``_repro_parent`` backlink through the tree, so checkers can walk
outward (is this read a subscript store?  is this mutation inside a
lock's ``with`` block?), and records every node in ``ast.walk`` order
plus, per function scope, the nodes of its body outside nested scopes.
The module rules, the project graph and the suppression spans all read
those lists instead of walking the tree again.
"""

from __future__ import annotations

import ast

__all__ = ["ModuleSymbols", "ModuleContext", "parent_chain"]

#: Constructor calls whose result is a mutable container.
_MUTABLE_CONSTRUCTORS = {
    "dict",
    "list",
    "set",
    "deque",
    "OrderedDict",
    "defaultdict",
    "Counter",
}

_LOCK_CONSTRUCTORS = {"Lock", "RLock"}


#: The nodes that open a new scope for the scope-aware rules.
_FUNCTION_TYPES = (ast.FunctionDef, ast.AsyncFunctionDef)
_SCOPE_TYPES = (ast.Module, *_FUNCTION_TYPES)


def parent_chain(node: ast.AST):
    """Yield ``node``'s ancestors, innermost first."""
    current = getattr(node, "_repro_parent", None)
    while current is not None:
        yield current
        current = getattr(current, "_repro_parent", None)


class ModuleSymbols:
    """Import aliases plus module-level mutable/lock bindings."""

    def __init__(self, tree: ast.Module) -> None:
        #: local alias → dotted module path ("np" → "numpy").
        self.module_imports: "dict[str, str]" = {}
        #: local name → dotted origin ("time" → "time.time").
        self.attribute_imports: "dict[str, str]" = {}
        #: module-level names bound to mutable containers.
        self.mutable_globals: "set[str]" = set()
        #: module-level names bound to threading locks.
        self.lock_globals: "set[str]" = set()
        self._scan_block(tree.body)

    # -- construction -------------------------------------------------------
    def _scan_block(self, body: "list[ast.stmt]") -> None:
        """Scan module-level statements (descending into if/try blocks)."""
        for stmt in body:
            if isinstance(stmt, ast.Import):
                for alias in stmt.names:
                    self.module_imports[alias.asname or alias.name.split(".")[0]] = (
                        alias.name if alias.asname else alias.name.split(".")[0]
                    )
            elif isinstance(stmt, ast.ImportFrom) and stmt.module and stmt.level == 0:
                for alias in stmt.names:
                    if alias.name == "*":
                        continue
                    self.attribute_imports[alias.asname or alias.name] = (
                        f"{stmt.module}.{alias.name}"
                    )
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = (
                    stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                )
                value = stmt.value
                if value is None:
                    continue
                for target in targets:
                    if not isinstance(target, ast.Name):
                        continue
                    if self._is_mutable_literal(value):
                        self.mutable_globals.add(target.id)
                    elif self._is_lock_call(value):
                        self.lock_globals.add(target.id)
            elif isinstance(stmt, ast.If):
                self._scan_block(stmt.body)
                self._scan_block(stmt.orelse)
            elif isinstance(stmt, ast.Try):
                self._scan_block(stmt.body)
                for handler in stmt.handlers:
                    self._scan_block(handler.body)
                self._scan_block(stmt.orelse)
                self._scan_block(stmt.finalbody)

    def _is_mutable_literal(self, node: ast.expr) -> bool:
        if isinstance(node, (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            name = self._call_basename(node)
            return name in _MUTABLE_CONSTRUCTORS
        return False

    def _is_lock_call(self, node: ast.expr) -> bool:
        if not isinstance(node, ast.Call):
            return False
        qualified = self.qualified(node.func)
        if qualified in ("threading.Lock", "threading.RLock"):
            return True
        return self._call_basename(node) in _LOCK_CONSTRUCTORS

    @staticmethod
    def _call_basename(node: ast.Call) -> "str | None":
        func = node.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    # -- queries ------------------------------------------------------------
    def qualified(self, node: ast.expr) -> "str | None":
        """Dotted origin of an expression, resolved through imports.

        ``np.random.seed`` → ``"numpy.random.seed"``; ``datetime.now``
        after ``from datetime import datetime`` → ``"datetime.datetime.now"``.
        Returns ``None`` for anything not rooted in an import (locals,
        attributes of call results, builtins).
        """
        if isinstance(node, ast.Name):
            if node.id in self.module_imports:
                return self.module_imports[node.id]
            if node.id in self.attribute_imports:
                return self.attribute_imports[node.id]
            return None
        if isinstance(node, ast.Attribute):
            base = self.qualified(node.value)
            return f"{base}.{node.attr}" if base else None
        return None


class ModuleContext:
    """Everything a checker needs about one parsed module."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.lines = source.splitlines()
        self.tree = tree
        #: scope (the module or a function def) → the nodes of its body
        #: outside nested function scopes; a nested def itself belongs to
        #: the enclosing scope, its arguments and decorators to its own.
        self.scope_nodes: "dict[ast.AST, list[ast.AST]]" = {}
        self._by_type: "dict[tuple[type, ...], list[ast.AST]]" = {}
        #: every node, the tree included, in ``ast.walk`` order.
        self.nodes: "list[ast.AST]" = self._walk(tree)
        #: function defs in ``ast.walk`` order (the module is not one).
        self.functions: "list[ast.AST]" = self.of_type(*_FUNCTION_TYPES)
        self.symbols = ModuleSymbols(tree)

    def _walk(self, tree: ast.Module) -> "list[ast.AST]":
        """The one traversal of the tree.

        Depth first, popping the last child first, so each scope's list
        holds its body in that order, which fixes the order the scope
        rules report in (and so the suppression list and the occurrence
        index in fingerprints).  Each depth level collects its
        nodes right to left; reading the levels top down, each one
        reversed, gives ``ast.walk``'s breadth-first order.  Children
        are enumerated as ``ast.iter_child_nodes`` does, inlined.
        """
        levels: "list[list[ast.AST]]" = []
        stack: "list[tuple[ast.AST, int, list]]" = [(tree, 0, [])]
        pop, push = stack.pop, stack.append
        while stack:
            node, depth, owner = pop()
            owner.append(node)
            if depth == len(levels):
                levels.append([node])
            else:
                levels[depth].append(node)
            if isinstance(node, _SCOPE_TYPES):
                owner = self.scope_nodes[node] = []
            depth += 1
            for name in node._fields:
                value = getattr(node, name, None)
                if isinstance(value, list):
                    for item in value:
                        if isinstance(item, ast.AST):
                            item._repro_parent = node  # type: ignore[attr-defined]
                            push((item, depth, owner))
                elif isinstance(value, ast.AST):
                    value._repro_parent = node  # type: ignore[attr-defined]
                    push((value, depth, owner))
        return [node for level in levels for node in reversed(level)]

    def of_type(self, *types: type) -> "list[ast.AST]":
        """Nodes that are instances of ``types``, in ``ast.walk`` order."""
        found = self._by_type.get(types)
        if found is None:
            found = [node for node in self.nodes if isinstance(node, types)]
            self._by_type[types] = found
        return found

    def line_text(self, lineno: int) -> str:
        """Source text of 1-based ``lineno`` (empty string out of range)."""
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""
