"""Whole-program rules over the project graph: FLOW001, RACE001/002, ARCH001.

These run once per lint invocation (not per file) against the
:class:`~repro.analysis.graph.ProjectGraph`, using the fixed-point
engine in :mod:`repro.analysis.dataflow` for the interprocedural parts:

* **FLOW001** — an RNG constructed without derivation (``default_rng()``
  with no or a constant seed, ``as_generator(None)``) is *consumed* —
  drawn from locally, or passed into a parameter that some callee
  transitively draws from — inside code reachable from a worker entry
  point.  Such draws make worker results depend on scheduling order.
* **RACE001** — lock-scoped shared state (module-level mutables, or
  mutable attributes of a lock-owning class) is accessed on a
  thread-reachable path without the guarding lock held — neither
  syntactically (enclosing ``with``) nor on every call path into the
  function (must-hold dataflow).
* **RACE002** — two locks are acquired in both nesting orders anywhere
  in the program (may-hold dataflow supplies locks held at function
  entry).  Inconsistent order is a latent deadlock even if today's
  schedules never interleave.
* **ARCH001** — the layering contract: an import whose source layer
  forbids the target layer.  The contract is the table below
  (mirrored in DESIGN.md §2k).

The layer of a module is the first dotted segment after its root
package (``repro.engine.store`` → ``engine``); the contract applies to
imports whose target shares the importer's root package (or targets
``repro.*``, so fixtures exercise the rule too).
"""

from __future__ import annotations

from typing import Iterator

from repro.analysis.dataflow import fixed_point, intersect_join, reachable, union_join
from repro.analysis.graph import Access, ProjectGraph
from repro.analysis.rules import project_rule

__all__ = ["LAYER_CONTRACT", "layer_of"]

Hit = "tuple[str, int, int, str]"

#: Layers whose job is modeling/search — pure functions of their inputs.
#: None of them may know about execution, serving, or orchestration.
_MODEL_FORBIDS = ("engine", "service", "experiments", "api", "cli", "analysis")

#: layer → {"forbid": layers it must not import, "allow": exceptions to "*"}.
#: ``"*"`` forbids every project layer except the module's own and the
#: explicit allow list — the shape used for leaf utility layers.
LAYER_CONTRACT: "dict[str, dict[str, tuple[str, ...]]]" = {
    # leaf utilities: importable from anywhere, import (almost) nothing
    "_version": {"forbid": ("*",), "allow": ()},
    "rng": {"forbid": ("*",), "allow": ()},
    "envelope": {"forbid": ("*",), "allow": ()},
    "registry": {"forbid": ("*",), "allow": ()},
    "telemetry": {"forbid": ("*",), "allow": ("_version",)},
    # the linter itself: pure stdlib, no project layer at all
    "analysis": {"forbid": ("*",), "allow": ()},
    # modeling/search layers
    "workloads": {"forbid": _MODEL_FORBIDS},
    "forest": {"forbid": _MODEL_FORBIDS},
    "gp": {"forbid": _MODEL_FORBIDS},
    "surrogate": {"forbid": _MODEL_FORBIDS},
    "sampling": {"forbid": _MODEL_FORBIDS},
    "space": {"forbid": _MODEL_FORBIDS},
    "noise": {"forbid": _MODEL_FORBIDS},
    "kernels": {"forbid": _MODEL_FORBIDS},
    "apps": {"forbid": _MODEL_FORBIDS},
    "costmodel": {"forbid": _MODEL_FORBIDS},
    "machine": {"forbid": _MODEL_FORBIDS},
    "metrics": {"forbid": _MODEL_FORBIDS},
    "tuning": {"forbid": _MODEL_FORBIDS},
    "active": {"forbid": _MODEL_FORBIDS},
    "transfer": {"forbid": _MODEL_FORBIDS},
    # execution and serving: may use the layers above, not each other
    # upward — the service reaches the learner via active/surrogate
    # protocols, never the forest/gp internals.
    "engine": {"forbid": ("service", "api", "cli", "analysis")},
    "service": {"forbid": ("forest", "gp", "api", "cli", "analysis")},
    "experiments": {"forbid": ("service", "api", "cli", "analysis")},
}


def layer_of(module: str) -> str:
    """Architectural layer of a dotted module name (see module docstring)."""
    parts = module.split(".")
    return parts[1] if len(parts) > 1 else parts[0]


def _call_edges_with_locks(graph: ProjectGraph):
    """Call edges whose transfer adds the locks held at the call site."""
    edges: "dict[str, list]" = {}
    for qual, fn in graph.functions.items():
        out = []
        for site in fn.calls:
            if site.callee not in graph.functions:
                continue

            def add_site_locks(fact, _extra=site.held):
                return fact | _extra

            out.append((site.callee, add_site_locks))
        edges[qual] = out
    return edges


def _scope_locks(graph: ProjectGraph, access: Access) -> "frozenset[str]":
    """The lock keys that could legitimately guard ``access``."""
    if access.kind == "module":
        info = graph.modules.get(access.owner)
        if info is None:
            return frozenset()
        return frozenset(
            f"{access.owner}.{name}"
            for name in info.context.symbols.lock_globals
        )
    cls = graph.classes.get(access.owner)
    if cls is None:
        return frozenset()
    return frozenset(f"{access.owner}.{attr}" for attr in cls.lock_attrs)


@project_rule(
    "FLOW001",
    "un-derived RNG consumed on a worker-reachable path",
    "Results must be a pure function of the job key; a Generator built "
    "from nothing (or a constant) and drawn from inside worker-reachable "
    "code makes outputs depend on scheduling and call order.  Derive "
    "every stream with repro.rng.derive/spawn from the job key.",
)
def check_flow001(graph: ProjectGraph) -> Iterator[Hit]:
    """Violating::

        def prepare(job):           # repro: worker-entry
            rng = np.random.default_rng()   # or default_rng(0)
            return rng.normal()

    Clean::

        def prepare(job):           # repro: worker-entry
            rng = derive(job.seed, "prepare")
            return rng.normal()
    """
    edges = graph.call_edges()
    worker = reachable(sorted(graph.worker_entries), edges)
    # (function, param) consumes-RNG lattice, propagated backwards over
    # parameter forwards: if callee draws from q and f forwards p → q,
    # then f consumes p.
    seeds = {}
    consume_edges: "dict[tuple, list]" = {}
    for qual, fn in graph.functions.items():
        for param in fn.draws:
            seeds[(qual, param)] = True
        for own_param, callee, callee_param in fn.forwards:
            consume_edges.setdefault((callee, callee_param), []).append(
                ((qual, own_param), None)
            )
    consumes = fixed_point(seeds, consume_edges, lambda a, b: a or b)

    for qual in sorted(worker):
        fn = graph.functions.get(qual)
        if fn is None:
            continue
        for creation in fn.creations:
            used = creation.consumed or any(
                consumes.get((callee, param), False)
                for callee, param in creation.passes
            )
            if not used:
                continue
            yield (
                fn.file,
                creation.lineno,
                creation.col,
                f"un-derived RNG ({creation.desc}) is consumed on a "
                f"worker-reachable path (via {qual}); derive it from the "
                "job key with repro.rng.derive/spawn",
            )


@project_rule(
    "RACE001",
    "shared state accessed on a thread-reachable path without its lock",
    "Under ThreadingHTTPServer every route handler runs concurrently; "
    "module-level mutables and the mutable attributes of lock-owning "
    "classes must be touched with the guarding lock held — either in an "
    "enclosing 'with', or on every call path into the function.",
)
def check_race001(graph: ProjectGraph) -> Iterator[Hit]:
    """Violating::

        class Registry:
            def __init__(self):
                self._lock = threading.Lock()
                self._items = {}
            def put(self, k, v):        # repro: thread-entry
                self._items[k] = v      # lock exists but is not held

    Clean::

        def put(self, k, v):            # repro: thread-entry
            with self._lock:
                self._items[k] = v
    """
    # Must-hold: a lock is held at function entry iff it is held at
    # *every* thread-reachable call site.  Seeding only thread entries
    # confines the analysis to thread-reachable code.
    must = fixed_point(
        {entry: frozenset() for entry in sorted(graph.thread_entries)},
        _call_edges_with_locks(graph),
        intersect_join,
    )
    for qual in sorted(must):
        fn = graph.functions.get(qual)
        if fn is None:
            continue
        entry_held = must[qual]
        for access in fn.accesses:
            held = access.held | entry_held
            scope = _scope_locks(graph, access)
            if held & scope:
                continue
            if not access.write and not scope:
                # reads of never-locked state are per-process caches;
                # SPAWN001 already polices their writes.
                continue
            state = f"{access.owner}.{access.attr}"
            verb = "written" if access.write else "read"
            guard = (
                " or ".join(f"'with {k.rsplit('.', 1)[1]}'" for k in sorted(scope))
                if scope
                else "a lock"
            )
            yield (
                fn.file,
                access.lineno,
                access.col,
                f"shared state {state} {verb} on a thread-reachable path "
                f"(via {qual}) without holding {guard}",
            )


@project_rule(
    "RACE002",
    "locks acquired in inconsistent order across the program",
    "Two locks taken in both nesting orders deadlock the moment two "
    "threads interleave the orders; every pair of locks must have one "
    "global acquisition order.",
)
def check_race002(graph: ProjectGraph) -> Iterator[Hit]:
    """Violating::

        def a():
            with _x:
                with _y: ...
        def b():
            with _y:
                with _x: ...

    Clean::

        def a():
            with _x:
                with _y: ...
        def b():
            with _x:
                with _y: ...
    """
    # May-hold: locks possibly held at entry, from *any* call site.
    may = fixed_point(
        {qual: frozenset() for qual in sorted(graph.functions)},
        _call_edges_with_locks(graph),
        union_join,
    )
    #: (outer, inner) → earliest witness site of that nesting order.
    pairs: "dict[tuple[str, str], tuple[str, int, int]]" = {}
    for qual in sorted(graph.functions):
        fn = graph.functions[qual]
        entry = may.get(qual, frozenset())
        for acq in fn.acquisitions:
            for outer in acq.held_before | entry:
                if outer == acq.key:
                    continue  # re-entrant RLock nesting is order-safe
                witness = (fn.file, acq.lineno, acq.col)
                pair = (outer, acq.key)
                if pair not in pairs or witness < pairs[pair]:
                    pairs[pair] = witness
    for a, b in sorted(pairs):
        if a >= b or (b, a) not in pairs:
            continue
        w_ab, w_ba = pairs[(a, b)], pairs[(b, a)]
        site, other = max(w_ab, w_ba), min(w_ab, w_ba)
        yield (
            site[0],
            site[1],
            site[2],
            f"locks {a} and {b} are acquired in both nesting orders "
            f"(the opposite order is at {other[0]}:{other[1]}); pick one "
            "global acquisition order",
        )


@project_rule(
    "ARCH001",
    "import violates the layering contract",
    "The dependency direction is part of the reproduction's design: "
    "model layers (workloads/forest/gp/surrogate/...) are pure functions "
    "importable by anything but importing no execution or serving code; "
    "the service reaches the learner only through active/surrogate "
    "protocols, never forest/gp internals.  See DESIGN.md §2k for the "
    "full layer table.",
)
def check_arch001(graph: ProjectGraph) -> Iterator[Hit]:
    """Violating::

        # in repro/workloads/kernel.py
        from repro.engine.executor import execute_job

    Clean::

        # in repro/workloads/kernel.py
        from repro.rng import derive
    """
    for name in sorted(graph.modules):
        if "." not in name:
            continue  # loose top-level files have no layer position
        info = graph.modules[name]
        source_layer = layer_of(name)
        contract = LAYER_CONTRACT.get(source_layer)
        if contract is None:
            continue
        root = name.split(".", 1)[0]
        forbid = contract["forbid"]
        allow = contract.get("allow", ())
        for lineno, col, target in info.import_sites:
            target_root = target.split(".", 1)[0]
            if target_root != root and target_root != "repro":
                continue
            if target == root or target == "repro":
                continue  # the bare package re-exports carry no layer
            target_layer = layer_of(target)
            if target_layer == source_layer:
                continue
            banned = (
                target_layer in forbid
                or ("*" in forbid and target_layer not in allow)
            )
            if not banned:
                continue
            yield (
                info.file,
                lineno,
                col,
                f"layer {source_layer!r} must not import layer "
                f"{target_layer!r} ({target}); layering contract in "
                "DESIGN.md §2k",
            )
