"""The per-module determinism/concurrency checkers.

Each checker enforces one clause of the repo's reproducibility contract
(see DESIGN.md §2f).  They are deliberately syntactic: the goal is a
fast, dependency-free pass over the whole tree that catches the
contract-breaking *patterns*, with inline suppressions carrying the
justification wherever a pattern is provably safe in context.  The
whole-program rules live in :mod:`repro.analysis.graph_rules`; FLOW002
is here because asymmetric-draw detection needs only one function body.

Checker docstrings carry the ``Violating::`` / ``Clean::`` blocks that
``repro lint --explain RULE`` renders.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from repro.analysis.rules import rule
from repro.analysis.symbols import ModuleContext, parent_chain

__all__ = ["TELEMETRY_NAME_GRAMMAR"]

Hit = "tuple[int, int, str]"


def _hit(node: ast.AST, message: str) -> "tuple[int, int, str]":
    return (node.lineno, node.col_offset, message)


# -- DET001: ambient RNG state ---------------------------------------------

#: ``numpy.random`` attributes that construct explicit generators (fine)
#: rather than touching the hidden global stream (not fine).
_NP_RANDOM_ALLOWED = {
    "default_rng",
    "Generator",
    "SeedSequence",
    "BitGenerator",
    "PCG64",
    "PCG64DXSM",
    "Philox",
    "SFC64",
    "MT19937",
}

#: ``random`` attributes that construct independent instances (fine).
_STDLIB_RANDOM_ALLOWED = {"Random", "SystemRandom"}


@rule(
    "DET001",
    "bare random.*/np.random.* global-state call",
    "Hidden module-global RNG streams make results depend on call order "
    "and process layout; every stream must be an explicit Generator "
    "derived from a job key (rng.py is the only blessed constructor site).",
)
def check_det001(module: ModuleContext) -> Iterator[Hit]:
    """Violating::

        np.random.seed(0)
        x = np.random.rand(3)

    Clean::

        rng = derive(seed, "sampling")   # repro.rng
        x = rng.random(3)
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        qualified = module.symbols.qualified(node.func)
        if not qualified:
            continue
        if qualified.startswith("random."):
            attr = qualified.split(".", 1)[1]
            if "." not in attr and attr not in _STDLIB_RANDOM_ALLOWED:
                yield _hit(
                    node,
                    f"global-state RNG call {qualified}(); derive an explicit "
                    "Generator via repro.rng instead",
                )
        elif qualified.startswith("numpy.random."):
            attr = qualified.split("numpy.random.", 1)[1]
            if "." not in attr and attr not in _NP_RANDOM_ALLOWED:
                yield _hit(
                    node,
                    f"global-state RNG call np.random.{attr}(); derive an "
                    "explicit Generator via repro.rng instead",
                )


# -- DET002: wall clocks in result paths -----------------------------------

_WALL_CLOCKS = {
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
}


@rule(
    "DET002",
    "wall-clock read in a result-affecting module",
    "Results must be a pure function of the job key; clock reads belong "
    "to telemetry/progress, which are allowlisted.",
)
def check_det002(module: ModuleContext) -> Iterator[Hit]:
    """Violating::

        started = time.time()        # in a result-affecting module

    Clean::

        with telemetry.span("engine.job"):   # clocks live in telemetry
            run(job)
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        qualified = module.symbols.qualified(node.func)
        if qualified in _WALL_CLOCKS:
            yield _hit(
                node,
                f"wall-clock read {qualified}() in a result-affecting module "
                "(telemetry/progress are the allowlisted homes)",
            )


# -- DET003: unordered set iteration ---------------------------------------


def _is_set_expr(node: ast.expr) -> bool:
    if isinstance(node, (ast.Set, ast.SetComp)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in ("set", "frozenset")
    return False


def _scopes(tree: ast.Module):
    yield tree
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node


def _scope_body_walk(scope: ast.AST):
    """Walk a scope without descending into nested function scopes."""
    stack = list(
        ast.iter_child_nodes(scope)
        if isinstance(scope, (ast.FunctionDef, ast.AsyncFunctionDef))
        else scope.body  # type: ignore[union-attr]
    )
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            stack.extend(ast.iter_child_nodes(node))


@rule(
    "DET003",
    "iteration over a set without sorted(...)",
    "Set iteration order depends on hash seeding and insertion history; "
    "anything feeding results must iterate a sorted materialisation.",
)
def check_det003(module: ModuleContext) -> Iterator[Hit]:
    """Violating::

        for name in {"b", "a"}:
            emit(name)

    Clean::

        for name in sorted({"b", "a"}):
            emit(name)
    """
    for scope in _scopes(module.tree):
        set_vars: "set[str]" = set()
        for node in _scope_body_walk(scope):
            if isinstance(node, ast.Assign) and _is_set_expr(node.value):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        set_vars.add(target.id)
        for node in _scope_body_walk(scope):
            iters = []
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iters.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iters.extend(gen.iter for gen in node.generators)
            for it in iters:
                if _is_set_expr(it) or (
                    isinstance(it, ast.Name) and it.id in set_vars
                ):
                    yield _hit(
                        it,
                        "iteration over a set has nondeterministic order; "
                        "iterate sorted(...) instead",
                    )


# -- DET004: ambient environment reads -------------------------------------


@rule(
    "DET004",
    "os.environ read outside the blessed config modules",
    "Environment is ambient, unrecorded input; all reads must funnel "
    "through engine/context.py (and the C-kernel escape hatch) so a run's "
    "configuration is auditable.",
)
def check_det004(module: ModuleContext) -> Iterator[Hit]:
    """Violating::

        jobs = int(os.environ.get("JOBS", 1))   # anywhere else

    Clean::

        jobs = context.jobs          # engine/context.py read it, once,
                                     # and recorded it in the run manifest
    """
    for node in ast.walk(module.tree):
        if isinstance(node, ast.Call):
            qualified = module.symbols.qualified(node.func)
            if qualified == "os.getenv":
                yield _hit(node, "os.getenv() read outside engine/context.py")
            continue
        if not isinstance(node, (ast.Attribute, ast.Name)):
            continue
        if module.symbols.qualified(node) != "os.environ":
            continue
        parent = getattr(node, "_repro_parent", None)
        # ``os.environ.get(...)`` is reported at this node; the outer
        # Attribute (``.get``) has no ``os.environ`` qualification itself.
        if isinstance(parent, ast.Attribute):
            yield _hit(node, f"os.environ.{parent.attr} read outside engine/context.py")
            continue
        if isinstance(parent, ast.Subscript):
            if isinstance(parent.ctx, (ast.Store, ast.Del)):
                continue  # writes/deletes are test-harness territory
            yield _hit(node, "os.environ[...] read outside engine/context.py")
            continue
        yield _hit(node, "os.environ read outside engine/context.py")


# -- SPAWN001: unguarded module-level mutable state --------------------------

_MUTATING_METHODS = {
    "append",
    "appendleft",
    "add",
    "update",
    "setdefault",
    "pop",
    "popitem",
    "popleft",
    "clear",
    "remove",
    "discard",
    "extend",
    "insert",
    "move_to_end",
    "sort",
    "reverse",
}


def _under_module_lock(node: ast.AST, lock_names: "set[str]") -> bool:
    for ancestor in parent_chain(node):
        if isinstance(ancestor, (ast.With, ast.AsyncWith)):
            for item in ancestor.items:
                expr = item.context_expr
                if isinstance(expr, ast.Name) and expr.id in lock_names:
                    return True
        if isinstance(ancestor, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
    return False


@rule(
    "SPAWN001",
    "module-level mutable state mutated in worker-executed code",
    "Anything importable runs in pool workers; unsynchronised mutation of "
    "module globals is only safe per-process or under a module lock, and "
    "each such site must say which.",
)
def check_spawn001(module: ModuleContext) -> Iterator[Hit]:
    """Violating::

        _CACHE = {}
        def lookup(key):
            _CACHE[key] = compute(key)

    Clean::

        _CACHE = {}
        _LOCK = threading.Lock()
        def lookup(key):
            with _LOCK:
                _CACHE[key] = compute(key)
    """
    mutables = module.symbols.mutable_globals
    locks = module.symbols.lock_globals
    for scope in _scopes(module.tree):
        if isinstance(scope, ast.Module):
            continue  # import-time registration is single-threaded
        declared_global: "set[str]" = set()
        for node in _scope_body_walk(scope):
            if isinstance(node, ast.Global):
                declared_global.update(node.names)
        for node in _scope_body_walk(scope):
            name = None
            how = "mutated"
            if isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in mutables
                    ):
                        name = target.value.id
                    elif (
                        isinstance(target, ast.Name)
                        and target.id in declared_global
                    ):
                        name = target.id
                        how = "rebound via 'global'"
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in mutables
                and node.func.attr in _MUTATING_METHODS
            ):
                name = node.func.value.id
            if name is None or _under_module_lock(node, locks):
                continue
            yield _hit(
                node,
                f"module-level state {name!r} {how} outside a module "
                "lock in worker-executable code",
            )


# -- TEL001: telemetry naming discipline -------------------------------------

#: The namespace grammar every span/counter/gauge name must satisfy.
TELEMETRY_NAME_GRAMMAR = re.compile(
    r"^(engine|forest|learner|costmodel|service|surrogate|analysis)"
    r"\.[a-z0-9_]+(\.[a-z0-9_]+)*$"
)

_TELEMETRY_CALL_SUFFIXES = (
    "telemetry.span",
    "telemetry.spans.span",
    "telemetry.inc",
    "telemetry.gauge",
    "telemetry.counters.inc",
    "telemetry.counters.gauge",
)


def _is_telemetry_call(module: ModuleContext, node: ast.Call) -> "str | None":
    qualified = module.symbols.qualified(node.func)
    if qualified and any(qualified.endswith(s) for s in _TELEMETRY_CALL_SUFFIXES):
        return qualified.rsplit(".", 1)[1]
    return None


@rule(
    "TEL001",
    "telemetry name violates the namespace grammar or is not a literal",
    "Span/counter names are a queryable schema: they must be string "
    "literals (greppable, summarizable) in the engine./forest./learner./ "
    "costmodel./service./surrogate. namespaces.",
)
def check_tel001(module: ModuleContext) -> Iterator[Hit]:
    """Violating::

        counters.inc(f"jobs_{kind}")     # computed, wrong namespace

    Clean::

        counters.inc("engine.jobs.executed")
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        kind = _is_telemetry_call(module, node)
        if kind is None or not node.args:
            continue
        name_arg = node.args[0]
        if not isinstance(name_arg, ast.Constant) or not isinstance(
            name_arg.value, str
        ):
            yield _hit(
                name_arg,
                f"telemetry {kind} name must be a string literal "
                "(computed names defeat grep and the trace summarizer)",
            )
        elif not TELEMETRY_NAME_GRAMMAR.match(name_arg.value):
            yield _hit(
                name_arg,
                f"telemetry name {name_arg.value!r} outside the "
                "engine.*/forest.*/learner.*/costmodel.*/service.*/"
                "surrogate.*/analysis.* namespace grammar",
            )


# -- IO001: raw file writes ---------------------------------------------------


def _write_mode(node: ast.Call, mode_position: int) -> "str | None":
    mode = None
    if len(node.args) > mode_position:
        mode = node.args[mode_position]
    else:
        for kw in node.keywords:
            if kw.arg == "mode":
                mode = kw.value
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        if any(c in mode.value for c in "wax+"):
            return mode.value
    return None


@rule(
    "IO001",
    "raw file write bypassing the atomic-write/journal helpers",
    "Partially-written artifacts masquerade as results after a crash; "
    "writes in src/ must go through engine/store.py's fsync'd journal "
    "or atomic-replace helpers.",
)
def check_io001(module: ModuleContext) -> Iterator[Hit]:
    """Violating::

        with open(path, "w") as fh:
            fh.write(json.dumps(result))

    Clean::

        atomic_write_text(path, json.dumps(result))   # engine/store.py
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        qualified = module.symbols.qualified(func)
        if isinstance(func, ast.Name) and func.id == "open" or qualified == "io.open":
            mode = _write_mode(node, 1)
            if mode is not None:
                yield _hit(
                    node,
                    f"open(..., {mode!r}) bypasses the atomic-write/journal "
                    "helpers in engine/store.py",
                )
        elif qualified == "os.fdopen":
            mode = _write_mode(node, 1)
            if mode is not None:
                yield _hit(
                    node,
                    f"os.fdopen(..., {mode!r}) bypasses the atomic-write/"
                    "journal helpers in engine/store.py",
                )
        elif isinstance(func, ast.Attribute) and func.attr in (
            "write_text",
            "write_bytes",
        ):
            yield _hit(
                node,
                f".{func.attr}() bypasses the atomic-write/journal helpers "
                "in engine/store.py",
            )


# -- EXC001: swallowed exceptions --------------------------------------------


def _is_silent_body(body: "list[ast.stmt]") -> bool:
    for stmt in body:
        if isinstance(stmt, (ast.Pass, ast.Continue)):
            continue
        if isinstance(stmt, ast.Expr) and isinstance(stmt.value, ast.Constant):
            continue  # docstring / ellipsis
        return False
    return True


@rule(
    "EXC001",
    "bare except or silently swallowed exception",
    "A swallowed error in the engine/executor path turns a lost result "
    "into silent data corruption; every handler must re-raise, record, "
    "or justify itself.",
)
def check_exc001(module: ModuleContext) -> Iterator[Hit]:
    """Violating::

        try:
            store.flush()
        except Exception:
            pass

    Clean::

        try:
            store.flush()
        except OSError as exc:
            log.warning("flush failed: %s", exc)
            raise
    """
    for node in ast.walk(module.tree):
        if not isinstance(node, ast.ExceptHandler):
            continue
        if node.type is None:
            yield _hit(
                node,
                "bare 'except:' catches SystemExit/KeyboardInterrupt; name "
                "the exceptions",
            )
        elif _is_silent_body(node.body):
            yield _hit(
                node,
                "silently swallowed exception (handler body is pass); "
                "record, re-raise, or justify with a suppression",
            )


# -- FLOW002: path-asymmetric Generator consumption ---------------------------


def _generator_params(fn: ast.AST) -> "list[str]":
    """Parameters that carry an RNG stream: named ``rng`` or
    annotated with a ``Generator`` type."""
    out = []
    for arg in (*fn.args.posonlyargs, *fn.args.args, *fn.args.kwonlyargs):
        if arg.arg == "rng":
            out.append(arg.arg)
            continue
        ann = arg.annotation
        text = ast.unparse(ann) if ann is not None else ""
        if "Generator" in text:
            out.append(arg.arg)
    return out


def _walk_no_nested(stmts: "list[ast.stmt]"):
    """Walk statement subtrees without descending into nested defs."""
    stack = list(stmts)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def _draw_nodes(stmts: "list[ast.stmt]", param: str) -> "list[ast.AST]":
    from repro.analysis.graph import RNG_DRAW_METHODS

    out = []
    for node in _walk_no_nested(stmts):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and isinstance(node.func.value, ast.Name)
            and node.func.value.id == param
            and node.func.attr in RNG_DRAW_METHODS
        ):
            out.append(node)
    return out


def _has(stmts: "list[ast.stmt]", kind) -> bool:
    return any(isinstance(n, kind) for n in _walk_no_nested(stmts))


@rule(
    "FLOW002",
    "Generator parameter drawn on one branch path but not the other",
    "When one path through a branch consumes draws and another silently "
    "skips them, the stream's position afterwards depends on the data — "
    "every later draw (and every later caller sharing the stream) "
    "diverges across inputs.  Draw unconditionally, or split the stream "
    "with derive()/spawn() per path.",
)
def check_flow002(module: ModuleContext) -> Iterator[Hit]:
    """Violating::

        def sample(x, rng):
            if x.cached:
                return x.value        # skips the draw below
            return x.value + rng.normal()

    Clean::

        def sample(x, rng):
            noise = rng.normal()      # stream advances on every path
            return x.value if x.cached else x.value + noise
    """
    for scope in _scopes(module.tree):
        if isinstance(scope, ast.Module):
            continue
        for param in _generator_params(scope):
            all_draws = _draw_nodes(scope.body, param)
            if not all_draws:
                continue  # pure pass-through parameters are fine
            for node in _walk_no_nested(scope.body):
                if not isinstance(node, ast.If):
                    continue
                body_draws = bool(_draw_nodes(node.body, param))
                else_draws = bool(_draw_nodes(node.orelse, param))
                hit = False
                # Guard-return: one side bails out drawless while draws
                # happen on the other side or after the branch.
                for side, drew in ((node.body, body_draws), (node.orelse, else_draws)):
                    if not side or drew:
                        continue
                    if not _has(side, ast.Return):
                        continue
                    other_drew = else_draws if side is node.body else body_draws
                    draws_after = any(
                        d.lineno > (node.end_lineno or node.lineno)
                        for d in all_draws
                    )
                    if other_drew or draws_after:
                        hit = True
                # Asymmetric fall-through: both sides continue, only one
                # consumes (a raising side is exceptional, not a path).
                if (
                    not hit
                    and node.body
                    and node.orelse
                    and body_draws != else_draws
                    and not _has(node.body, (ast.Return, ast.Raise))
                    and not _has(node.orelse, (ast.Return, ast.Raise))
                ):
                    hit = True
                if hit:
                    yield _hit(
                        node,
                        f"Generator parameter {param!r} is drawn on one "
                        "path through this branch but not the other; the "
                        "stream position diverges across inputs — draw "
                        "unconditionally or split with derive()/spawn()",
                    )
