"""repro.telemetry: spans, counters, JSONL sink, and the overhead contract."""

from __future__ import annotations

import json
import time
from collections import deque

import numpy as np
import pytest

from repro import telemetry
from repro.engine.context import EngineConfig
from repro.experiments.runner import comparison_traces, strategy_trace
from repro.telemetry import sink, spans


@pytest.fixture(autouse=True)
def _clean_telemetry():
    """Each test starts and ends with empty buffers and tracing off.

    The executor's per-process prepare memo is also cleared: earlier tests
    in the suite may have prepared the same benchmark/scale, which would
    silently skip the ``engine.prepare`` spans asserted here.
    """
    from repro.engine import executor

    executor._PREPARED.clear()
    was = telemetry.enabled()
    telemetry.disable()
    telemetry.clear()
    telemetry.reset()
    yield
    telemetry.clear()
    telemetry.reset()
    if was:
        telemetry.enable()
    else:
        telemetry.disable()


def _quiet(jobs: int = 1) -> EngineConfig:
    return EngineConfig(jobs=jobs, progress=False)


class TestSpans:
    def test_disabled_span_records_nothing(self):
        with telemetry.span("x", a=1):
            pass
        assert telemetry.drain_events() == []

    def test_disabled_span_is_shared_noop(self):
        assert telemetry.span("a") is telemetry.span("b", k=1)

    def test_enabled_span_records_event(self):
        with telemetry.tracing(True):
            with telemetry.span("forest.fit", trees=5):
                pass
        (event,) = telemetry.drain_events()
        assert event["kind"] == "span"
        assert event["name"] == "forest.fit"
        assert event["attrs"] == {"trees": 5}
        assert event["dur"] >= 0.0
        assert event["depth"] == 0

    def test_nesting_depth_recorded(self):
        with telemetry.tracing(True):
            with telemetry.span("outer"):
                with telemetry.span("inner"):
                    with telemetry.span("innermost"):
                        pass
        by_name = {e["name"]: e for e in telemetry.drain_events()}
        assert by_name["outer"]["depth"] == 0
        assert by_name["inner"]["depth"] == 1
        assert by_name["innermost"]["depth"] == 2

    def test_depth_restored_after_exception(self):
        with telemetry.tracing(True):
            with pytest.raises(RuntimeError):
                with telemetry.span("failing"):
                    raise RuntimeError("boom")
            with telemetry.span("after"):
                pass
        by_name = {e["name"]: e for e in telemetry.drain_events()}
        assert by_name["failing"]["depth"] == 0
        assert by_name["after"]["depth"] == 0

    def test_tracing_context_restores_state(self):
        assert not telemetry.enabled()
        with telemetry.tracing(True):
            assert telemetry.enabled()
        assert not telemetry.enabled()

    def test_ring_buffer_drops_oldest(self, monkeypatch):
        monkeypatch.setattr(spans, "_buffer", deque(maxlen=3))
        monkeypatch.setattr(spans, "_dropped", 0)
        for i in range(5):
            telemetry.record_event({"kind": "span", "name": f"e{i}"})
        assert telemetry.dropped_events() == 2
        assert [e["name"] for e in telemetry.drain_events()] == ["e2", "e3", "e4"]

    def test_absorb_merges_foreign_events(self):
        telemetry.record_event({"kind": "span", "name": "local"})
        telemetry.absorb_events([{"kind": "span", "name": "remote"}])
        names = [e["name"] for e in telemetry.drain_events()]
        assert names == ["local", "remote"]


class TestCounters:
    def test_inc_and_snapshot(self):
        telemetry.inc("a")
        telemetry.inc("a", 4)
        telemetry.inc("b", 2)
        snap = telemetry.counters_snapshot()
        assert snap["a"] == 5 and snap["b"] == 2

    def test_gauge_keeps_latest(self):
        telemetry.gauge("g", 1.0)
        telemetry.gauge("g", 7.5)
        assert telemetry.gauges_snapshot()["g"] == 7.5

    def test_drain_resets_and_absorb_merges(self):
        telemetry.inc("x", 3)
        delta = telemetry.drain()
        assert delta == {"x": 3}
        assert telemetry.counters_snapshot() == {}
        telemetry.inc("x", 1)
        telemetry.absorb(delta)
        assert telemetry.counters_snapshot()["x"] == 4

    def test_absorb_sets_foreign_gauges_latest_wins(self):
        telemetry.gauge("g", 1.0)
        telemetry.absorb({}, {"g": 2.0, "h": 3.0})
        telemetry.absorb({"x": 1}, {"g": 4.0})
        assert telemetry.gauges_snapshot() == {"g": 4.0, "h": 3.0}
        assert telemetry.counters_snapshot() == {"x": 1}


class TestSink:
    def _synthetic_events(self):
        # parent [0, 1.0], child [0.1, 0.5] -> parent self-time 0.6
        return [
            {"kind": "span", "name": "parent", "ts": 100.0, "dur": 1.0,
             "pid": 1, "tid": 1, "depth": 0},
            {"kind": "span", "name": "child", "ts": 100.1, "dur": 0.4,
             "pid": 1, "tid": 1, "depth": 1},
        ]

    def test_phase_totals_self_time(self):
        totals = sink.phase_totals(self._synthetic_events())
        assert totals["parent"]["total"] == pytest.approx(1.0)
        assert totals["parent"]["self"] == pytest.approx(0.6)
        assert totals["child"]["self"] == pytest.approx(0.4)

    def _op_events(self, durations_ms):
        """Back-to-back top-level ``op`` spans with the given durations."""
        events, ts = [], 0.0
        for ms in durations_ms:
            events.append({"kind": "span", "name": "op", "ts": ts,
                           "dur": ms / 1e3, "pid": 1, "tid": 1, "depth": 0})
            ts += ms / 1e3
        return events

    def test_phase_totals_percentiles(self):
        # Durations 1..100 ms, shuffled: p50 sits halfway between the 50th
        # and 51st (50.5 ms), p99 0.01 of the way from 99 to 100 ms.
        durations = [(7 * k) % 100 + 1 for k in range(100)]
        assert sorted(durations) == list(range(1, 101))
        entry = sink.phase_totals(self._op_events(durations))["op"]
        assert entry["p50"] == pytest.approx(0.0505)
        assert entry["p99"] == pytest.approx(0.09901)
        single = sink.phase_totals(self._op_events([4.0]))["op"]
        assert single["p50"] == single["p99"] == pytest.approx(0.004)

    def test_summarize_prints_percentile_columns(self):
        text = sink.summarize(self._op_events([1.0, 2.0, 3.0, 10.0]))
        header, row = text.splitlines()[1:3]
        assert header.split() == [
            "phase", "count", "total(s)", "self(s)", "mean(ms)", "p50(ms)", "p99(ms)"
        ]
        assert row.split() == ["op", "4", "0.016", "0.016", "4.00", "2.50", "9.79"]

    def test_self_time_is_per_thread(self):
        events = self._synthetic_events()
        events[1]["pid"] = 2  # other process: no longer nested
        totals = sink.phase_totals(events)
        assert totals["parent"]["self"] == pytest.approx(1.0)

    def test_run_id_is_content_addressed(self):
        a = sink.run_id_for_keys(["k1", "k2"])
        assert a == sink.run_id_for_keys(["k2", "k1"])  # order-independent
        assert a != sink.run_id_for_keys(["k1", "k3"])
        assert len(a) == 16

    def test_jsonl_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        events = self._synthetic_events()
        sink.write_trace(
            path, events, counters={"c": 3}, gauges={"g": 1.5},
            run_id="deadbeef", dropped=1,
        )
        with open(path) as fh:
            lines = [json.loads(l) for l in fh]
        assert lines[0]["kind"] == "header"
        assert lines[0]["schema"] == sink.TRACE_SCHEMA_VERSION
        parsed = sink.read_trace(path)
        assert parsed["header"]["run_id"] == "deadbeef"
        assert parsed["header"]["dropped_events"] == 1
        assert parsed["events"] == events
        assert parsed["counters"] == {"c": 3}
        assert parsed["gauges"] == {"g": 1.5}

    def test_header_names_the_forest_kernel(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink.write_trace(
            path, self._synthetic_events(), run_id="abc", forest_kernel="c"
        )
        parsed = sink.read_trace(path)
        assert parsed["header"]["forest_kernel"] == "c"
        assert "forest kernel: c" in sink.summarize(parsed).splitlines()

    def test_summarize_round_trip(self, tmp_path):
        path = str(tmp_path / "t.jsonl")
        sink.write_trace(
            path, self._synthetic_events(), counters={"n": 2}, run_id="abc"
        )
        text = sink.summarize(sink.read_trace(path))
        assert "run abc" in text
        assert "parent" in text and "child" in text
        assert "n = 2" in text
        # Summarizing the in-memory form gives the same table.
        direct = sink.summarize(
            {"header": {"run_id": "abc"},
             "events": self._synthetic_events(),
             "counters": {"n": 2}, "gauges": {}}
        )
        assert text == direct


class TestTracedRuns:
    def test_serial_run_traces_all_phases(self, tiny_scale):
        with telemetry.tracing(True):
            strategy_trace("mvt", "pwu", tiny_scale, seed=0, engine=_quiet())
        events = telemetry.drain_events()
        names = {e["name"] for e in events}
        for expected in (
            "engine.run", "engine.job", "engine.prepare",
            "learner.select", "learner.evaluate", "learner.refit",
            "learner.record", "forest.fit", "forest.traverse",
            "costmodel.evaluate",
        ):
            assert expected in names, expected
        counts = telemetry.counters_snapshot()
        assert counts["engine.jobs.executed"] == tiny_scale.n_trials
        assert counts["learner.evaluations"] == tiny_scale.n_max

    def test_phase_totals_cover_job_wall_time(self, tiny_scale):
        with telemetry.tracing(True):
            comparison_traces(
                "mvt", ("random", "pwu"), tiny_scale, seed=0, engine=_quiet()
            )
        events = telemetry.drain_events()
        phase_total, job_wall, fraction = sink.phase_coverage(events)
        assert job_wall > 0
        # Acceptance: accounted phases sum to within 10% of traced wall.
        assert fraction > 0.9
        assert fraction < 1.05

    def test_jobs2_trace_merges_worker_events(self, tiny_scale):
        import dataclasses

        scale = dataclasses.replace(tiny_scale, n_trials=2)
        with telemetry.tracing(True):
            comparison_traces(
                "mvt", ("random", "pwu"), scale, seed=0, engine=_quiet(jobs=2)
            )
        events = telemetry.drain_events()
        jobs = [e for e in events if e["name"] == "engine.job"]
        assert len(jobs) == 4  # 2 strategies x 2 trials, none lost
        for job in jobs:
            # time.time() across processes; allow sub-ms clock slack.
            assert job["attrs"]["queue_wait"] > -1e-3
        # Worker-side spans made it back through the result channel.
        fits = [e for e in events if e["name"] == "forest.fit"]
        assert {e["pid"] for e in fits} == {e["pid"] for e in jobs}
        # Counters merged across processes: every trial evaluated n_max.
        counts = telemetry.counters_snapshot()
        assert counts["learner.evaluations"] == 4 * scale.n_max
        assert counts["engine.jobs.executed"] == 4

    def test_jobs2_gauges_reach_the_parent(self, tiny_scale):
        import dataclasses

        scale = dataclasses.replace(tiny_scale, n_trials=2)
        comparison_traces(
            "mvt", ("random", "pwu"), scale, seed=0, engine=_quiet(jobs=2)
        )
        # Every fit ran in a worker; its gauges came back with the result.
        gauges = telemetry.gauges_snapshot()
        assert gauges["forest.kernel"] in (0, 1)
        assert gauges["learner.batch_rows"] > 0

    def test_trace_off_buffer_stays_empty(self, tiny_scale):
        strategy_trace("mvt", "pwu", tiny_scale, seed=0, engine=_quiet())
        assert telemetry.drain_events() == []


class TestOverheadContract:
    def test_disabled_fast_path_under_two_percent(self, tiny_scale):
        # Wall time of an untraced run...
        t0 = time.perf_counter()
        strategy_trace("mvt", "pwu", tiny_scale, seed=0, engine=_quiet())
        wall = time.perf_counter() - t0
        # ...the number of span call sites the same run passes through...
        with telemetry.tracing(True):
            strategy_trace("mvt", "pwu", tiny_scale, seed=0, engine=_quiet())
        n_events = len(telemetry.drain_events())
        assert n_events > 0
        # ...and the measured per-call cost of a disabled span.
        reps = 20_000
        telemetry.disable()
        t0 = time.perf_counter()
        for _ in range(reps):
            with telemetry.span("bench.site", n=1):
                pass
        per_call = (time.perf_counter() - t0) / reps
        assert telemetry.drain_events() == []
        # Total disabled-instrumentation cost is under 2% of the run.
        assert per_call * n_events < 0.02 * wall, (
            f"disabled spans cost {per_call * n_events:.6f}s "
            f"({n_events} sites) on a {wall:.3f}s run"
        )
