"""Per-layer attribution: timing spans around the repo's public layer functions.

The benchmark does not use the program's own tracer
(``repro.telemetry.tracing()`` stays off).  Instead a :class:`Recorder`
swaps timing wrappers in for the public functions of each layer — from
these files, in the benchmark's own process — and keeps every span in
memory until the run ends.  A span records its name, start, end, the
span that was open on the same thread when it began (its parent) and the
run id.  A layer's self time is its spans' durations minus the time their
child spans cover.

The arithmetic below (:func:`self_times`, :func:`inclusive`,
:func:`layer_metrics`) is pure and needs no ``repro`` import; only
:func:`install` touches the program.
"""

from __future__ import annotations

import functools
import itertools
import json
import sys
import threading
import time
from typing import NamedTuple

from stats import percentile

__all__ = [
    "Span",
    "Recorder",
    "rebind",
    "install",
    "self_times",
    "inclusive",
    "layer_self",
    "layer_metrics",
]

class Span(NamedTuple):
    """One timed call.  ``parent`` is 0 for a span opened on an idle thread."""

    id: int
    parent: int
    name: str
    start: float
    end: float
    #: Rows handed to the call (oracle batches), else 0.
    n: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects spans in memory; :meth:`patch` installs timing wrappers."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, rows_arg: "int | None" = None):
        """``fn`` behind a wrapper recording one ``name`` span per call."""
        recorder = self

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stack = recorder._stack()
            span_id = next(recorder._ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                n = 0
                if rows_arg is not None and rows_arg < len(args):
                    n = len(args[rows_arg])
                recorder.spans.append(Span(span_id, parent, name, start, end, n))

        return timed

    def patch(self, owner, attr: str, name: str, rows_arg: "int | None" = None) -> None:
        """Replace ``owner.attr`` with a timed wrapper (undone by :meth:`restore`)."""
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, rows_arg))

    def patch_bindings(self, original, name: str) -> None:
        """Wrap ``original`` wherever a ``repro`` module binds it (see :func:`rebind`)."""
        self._undo.extend(rebind(original, self.wrap(name, original)))

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """Write the spans as JSON lines, one per span."""
        with open(path, "w", encoding="utf-8") as fh:
            for s in sorted(self.spans):
                fh.write(json.dumps({"run_id": self.run_id, **s._asdict()}) + "\n")


def rebind(original, replacement) -> list:
    """Point every loaded ``repro`` module's binding of ``original`` at ``replacement``.

    Modules that import a function by name (``from m import f``) hold
    their own reference, so a wrapper has to go where the name is looked
    up, not only where it is defined.  Returns ``(module, attr, original)``
    undo entries.
    """
    undo = []
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                undo.append((module, attr, original))
                setattr(module, attr, replacement)
    return undo


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(recorder: Recorder, full: bool = True) -> None:
    """Wrap the layers' public functions.

    ``full=False`` wraps only ``ActiveLearner.suggest``/``observe``: the
    per-round latency an untraced campaign reports.
    """
    from repro.active import ActiveLearner

    recorder.patch(ActiveLearner, "suggest", "learner.suggest")
    recorder.patch(ActiveLearner, "observe", "learner.observe")
    if not full:
        return

    import repro.engine
    import repro.engine.store
    import repro.experiments.runner
    import repro.service.session
    from repro.forest import RandomForestRegressor
    from repro.sampling import SamplingStrategy
    from repro.service import Session
    from repro.workloads import Benchmark

    recorder.patch(ActiveLearner, "run", "learner.run")
    recorder.patch_bindings(repro.engine.run_jobs, "engine.run_jobs")
    recorder.patch_bindings(repro.experiments.runner.prepare_data, "experiments.prepare")
    recorder.patch_bindings(repro.engine.store.append_jsonl, "store.journal_append")
    for cls in _subclasses(SamplingStrategy):
        if "select" in cls.__dict__:
            recorder.patch(cls, "select", "sampling.select")
    recorder.patch(RandomForestRegressor, "fit", "forest.fit")
    recorder.patch(RandomForestRegressor, "update", "forest.update")
    for attr in ("predict_pool", "predict_with_uncertainty_pool"):
        recorder.patch(RandomForestRegressor, attr, "forest.pool_score")
    for attr in ("predict", "predict_with_uncertainty"):
        recorder.patch(RandomForestRegressor, attr, "forest.predict")
    recorder.patch(Benchmark, "evaluate_batch", "oracle.evaluate", rows_arg=1)
    recorder.patch(Session, "suggest", "service.session_suggest")
    recorder.patch(Session, "report", "service.session_report")


# -- arithmetic ----------------------------------------------------------------

def _covered(intervals) -> float:
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_times(spans) -> dict[int, float]:
    """Span id → duration minus the time its direct children cover."""
    children: dict[int, list] = {}
    for s in spans:
        children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        kids = [
            (max(k.start, s.start), min(k.end, s.end))
            for k in children.get(s.id, ())
        ]
        out[s.id] = s.duration - _covered(k for k in kids if k[1] > k[0])
    return out


def _outermost(spans) -> list:
    """Spans with no ancestor of the same name (so totals never double count)."""
    by_id = {s.id: s for s in spans}
    out = []
    for s in spans:
        parent = by_id.get(s.parent)
        while parent is not None and parent.name != s.name:
            parent = by_id.get(parent.parent)
        if parent is None:
            out.append(s)
    return out


def inclusive(spans, name: str) -> float:
    """Wall time inside ``name`` spans, counting nested same-name calls once."""
    return sum(s.duration for s in _outermost(spans) if s.name == name)


def layer_self(spans) -> dict[str, float]:
    """Layer (the span name's first component) → summed self time."""
    own = self_times(spans)
    out: dict[str, float] = {}
    for s in spans:
        layer = s.name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + own[s.id]
    return out


def http_overheads_ms(rtts_ms, spans) -> list[float]:
    """Client round trip minus the in-server ``Session`` method time, per request.

    ``rtts_ms`` holds ``(verb, ms)`` in request order from one closed-loop
    client, so the i-th ``suggest`` round trip pairs with the i-th
    ``service.session_suggest`` span (and likewise for ``report``).
    """
    server = {
        verb: sorted(
            (s for s in spans if s.name == f"service.session_{verb}"),
            key=lambda s: s.start,
        )
        for verb in ("suggest", "report")
    }
    seen = {"suggest": 0, "report": 0}
    out = []
    for verb, ms in rtts_ms:
        i = seen[verb]
        seen[verb] += 1
        if i < len(server[verb]):
            out.append(ms - server[verb][i].duration * 1e3)
    return out


def layer_metrics(
    spans,
    counters: dict,
    engine: "dict | None",
    campaign_s: float,
    rtts_ms=(),
) -> dict[str, float]:
    """Every per-layer metric of ``BENCHMARK.json`` but ``tracing.overhead_s``.

    A layer the workload does not reach reads 0.  ``counters`` holds the
    deltas of the program's always-on counters over the campaign;
    ``engine`` the summed ``EngineStats`` fields
    (``executed``/``failed``/``retried``), or ``None`` where no engine ran.
    """
    spans = list(spans)
    own = layer_self(spans)
    fits_ms = [s.duration * 1e3 for s in spans if s.name == "forest.fit"]
    hits = counters.get("forest.pool_cache.hits", 0)
    lookups = hits + counters.get("forest.pool_cache.misses", 0)
    fit_s = inclusive(spans, "forest.fit")
    overheads = http_overheads_ms(rtts_ms, spans)
    return {
        "forest.fit_s": fit_s,
        "forest.fit_calls": len(fits_ms),
        "forest.fit_ms_p50": percentile(fits_ms, 50) if fits_ms else 0.0,
        "forest.fit_ms_p90": percentile(fits_ms, 90) if fits_ms else 0.0,
        "forest.trees_fit": counters.get("forest.trees_fit", 0),
        "forest.fit_share": fit_s / campaign_s if campaign_s > 0 else 0.0,
        "forest.update_s": inclusive(spans, "forest.update"),
        "forest.update_calls": sum(1 for s in spans if s.name == "forest.update"),
        "forest.pool_score_s": inclusive(spans, "forest.pool_score"),
        "forest.predict_s": inclusive(spans, "forest.predict"),
        "forest.trees_traversed": counters.get("forest.trees_traversed", 0),
        "forest.pool_cache_hit_ratio": hits / lookups if lookups else 0.0,
        "forest.pool_cache_lookups": lookups,
        "sampling.select_s": inclusive(spans, "sampling.select"),
        "sampling.select_self_s": own.get("sampling", 0.0),
        "learner.suggest_s": inclusive(spans, "learner.suggest"),
        "learner.observe_s": inclusive(spans, "learner.observe"),
        "learner.self_s": own.get("learner", 0.0),
        "oracle.evaluate_s": inclusive(spans, "oracle.evaluate"),
        "oracle.rows": sum(s.n for s in spans if s.name == "oracle.evaluate"),
        "experiments.prepare_s": inclusive(spans, "experiments.prepare"),
        "engine.run_jobs_s": inclusive(spans, "engine.run_jobs"),
        "engine.jobs_executed": engine["executed"] if engine else 0,
        "engine.jobs_failed": engine["failed"] if engine else 0,
        "engine.jobs_retried": engine["retried"] if engine else 0,
        "service.session_suggest_s": inclusive(spans, "service.session_suggest"),
        "service.session_report_s": inclusive(spans, "service.session_report"),
        "service.http_ms_p50": percentile(overheads, 50) if overheads else 0.0,
        "store.journal_append_s": inclusive(spans, "store.journal_append"),
        "store.journal_appends": sum(
            1 for s in spans if s.name == "store.journal_append"
        ),
    }
