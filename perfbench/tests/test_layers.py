import json
import sys
import threading
import types
from pathlib import Path

import pytest

import layers
from layers import Recorder, Span

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())


def _span(i, parent, name, start, end, n=0):
    return Span(i, parent, name, float(start), float(end), n)


# engine.run_jobs [0, 10]
#   learner.run [1, 9]
#     learner.suggest [1, 3]
#       sampling.select [1, 3]
#         forest.pool_score [1.5, 2.5]
#     oracle.evaluate [3, 4] (5 rows)
#     learner.observe [4, 9]
#       forest.fit [4, 8]
#         forest.fit [5, 6]   nested same-name call
SPANS = [
    _span(1, 0, "engine.run_jobs", 0, 10),
    _span(2, 1, "learner.run", 1, 9),
    _span(3, 2, "learner.suggest", 1, 3),
    _span(4, 3, "sampling.select", 1, 3),
    _span(5, 4, "forest.pool_score", 1.5, 2.5),
    _span(6, 2, "oracle.evaluate", 3, 4, n=5),
    _span(7, 2, "learner.observe", 4, 9),
    _span(8, 7, "forest.fit", 4, 8),
    _span(9, 8, "forest.fit", 5, 6),
]


def test_self_time_subtracts_direct_children():
    own = layers.self_times(SPANS)
    assert own[1] == pytest.approx(2.0)   # 10 - learner.run 8
    assert own[2] == pytest.approx(0.0)   # 8 - (2 + 1 + 5)
    assert own[3] == pytest.approx(0.0)
    assert own[4] == pytest.approx(1.0)   # 2 - pool_score 1
    assert own[7] == pytest.approx(1.0)   # 5 - fit 4
    assert own[8] == pytest.approx(3.0)   # 4 - nested fit 1
    assert sum(own.values()) == pytest.approx(10.0)


def test_self_time_merges_overlapping_children():
    spans = [
        _span(1, 0, "a.x", 0, 10),
        _span(2, 1, "b.y", 1, 5),
        _span(3, 1, "b.y", 4, 6),   # overlaps its sibling
    ]
    assert layers.self_times(spans)[1] == pytest.approx(5.0)


def test_inclusive_counts_nested_same_name_once():
    assert layers.inclusive(SPANS, "forest.fit") == pytest.approx(4.0)
    assert layers.inclusive(SPANS, "learner.suggest") == pytest.approx(2.0)
    assert layers.inclusive(SPANS, "missing") == 0


def test_layer_self_partitions_the_root():
    out = layers.layer_self(SPANS)
    assert out == pytest.approx(
        {"engine": 2.0, "learner": 1.0, "sampling": 1.0, "forest": 5.0, "oracle": 1.0}
    )
    assert sum(out.values()) == pytest.approx(10.0)


def test_layer_metrics_from_spans_and_counters():
    counters = {
        "forest.pool_cache.hits": 9, "forest.pool_cache.misses": 1,
        "forest.trees_fit": 30, "forest.trees_traversed": 12,
    }
    engine = {"total": 2, "executed": 2, "failed": 0, "retried": 1}
    m = layers.layer_metrics(SPANS, counters, engine, campaign_s=10.0)
    # Every per-layer metric BENCHMARK.json declares; the runner adds the overhead.
    declared = {m["name"] for m in SPEC["per_layer"]} - {"tracing.overhead_s"}
    assert set(m) == declared
    assert m["forest.fit_s"] == pytest.approx(4.0)
    assert m["forest.fit_calls"] == 2
    assert m["forest.fit_share"] == pytest.approx(0.4)
    assert m["forest.pool_cache_hit_ratio"] == pytest.approx(0.9)
    assert m["forest.pool_cache_lookups"] == 10
    assert m["sampling.select_s"] == pytest.approx(2.0)
    assert m["sampling.select_self_s"] == pytest.approx(1.0)
    assert m["learner.self_s"] == pytest.approx(1.0)
    assert m["oracle.rows"] == 5
    assert m["engine.jobs_retried"] == 1
    assert m["service.http_ms_p50"] == 0.0


def test_http_overhead_pairs_requests_in_order():
    spans = [
        _span(1, 0, "service.session_suggest", 0.0, 0.002),
        _span(2, 0, "service.session_report", 0.010, 0.015),
        _span(3, 0, "service.session_suggest", 0.020, 0.021),
    ]
    rtts = [("suggest", 3.0), ("report", 8.0), ("suggest", 4.0)]
    assert layers.http_overheads_ms(rtts, spans) == pytest.approx([1.0, 3.0, 3.0])


class _Thing:
    def outer(self, rows):
        return self.inner(rows) + 1

    def inner(self, rows):
        return len(rows) * 2


def test_recorder_links_parents_and_restores():
    rec = Recorder("t")
    rec.patch(_Thing, "outer", "a.outer")
    rec.patch(_Thing, "inner", "b.inner", rows_arg=1)
    assert _Thing().outer([7, 8, 9]) == 7
    rec.restore()
    assert not hasattr(_Thing.outer, "__wrapped__")
    assert not hasattr(_Thing.inner, "__wrapped__")
    assert len(rec.spans) == 2
    by_name = {s.name: s for s in rec.spans}
    assert by_name["a.outer"].parent == 0
    assert by_name["b.inner"].parent == by_name["a.outer"].id
    assert by_name["a.outer"].start <= by_name["b.inner"].start
    assert by_name["b.inner"].end <= by_name["a.outer"].end
    assert by_name["b.inner"].n == 3


def test_recorder_keeps_threads_apart():
    rec = Recorder("t")

    def work():
        return 1

    timed = rec.wrap("x.work", work)
    threads = [threading.Thread(target=timed) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=10)
        assert not t.is_alive()
    assert len(rec.spans) == 4
    assert all(s.parent == 0 for s in rec.spans)


def test_rebind_reaches_by_name_imports():
    def original():
        return "original"

    mod_a = types.ModuleType("repro_perfbench_test_a")
    mod_b = types.ModuleType("repro_perfbench_test_b")
    mod_a.f = original
    mod_b.alias = original
    sys.modules[mod_a.__name__] = mod_a
    sys.modules[mod_b.__name__] = mod_b
    try:
        rec = Recorder("t")
        rec.patch_bindings(original, "x.f")
        assert mod_a.f() == "original" and mod_b.alias() == "original"
        assert [s.name for s in rec.spans] == ["x.f", "x.f"]
        rec.restore()
        assert mod_a.f is original and mod_b.alias is original
    finally:
        del sys.modules[mod_a.__name__], sys.modules[mod_b.__name__]
