import json

import pytest

import compare

BENCH = {
    "end_to_end": [
        {"name": "campaign_s", "unit": "s", "better": "lower", "bound": 0.1},
        {"name": "rounds_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]
}


def _record(tmp, side, i, metrics, trace=0, kernel="c", layer_self=None, rmse=0.1,
            checks_failed=()):
    d = tmp / side
    d.mkdir(exist_ok=True)
    rec = {
        "context": {"workload": "w", "trace": trace, "forest_kernel": kernel, "seed": i},
        "correct": not checks_failed,
        "checks_failed": list(checks_failed),
        "attempted": 12,
        "failed": 0,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
        "raw": {"layer_self_s": layer_self or {}, "rmse_final": rmse},
    }
    (d / f"r{i}.json").write_text(json.dumps(rec))


def _run(tmp, capsys):
    bench = tmp / "BENCHMARK.json"
    bench.write_text(json.dumps(BENCH))
    code = compare.main([str(tmp / "old"), str(tmp / "new"), "--bench", str(bench)])
    return code, capsys.readouterr()


def _status(out, metric):
    line = next(l for l in out.splitlines() if l.startswith(metric))
    return line.split()[-1]


@pytest.mark.parametrize(
    "old, new, expect",
    [
        ([10.0, 10.1, 9.9, 10.0], [10.05, 10.0, 9.95, 10.1], "same"),
        ([10.0, 10.1, 9.9, 10.0], [12.0, 12.1, 11.9, 12.0], "worse"),
        ([10.0, 10.1, 9.9, 10.0], [9.0, 9.1, 8.9, 9.0], "better"),
        # Spread wider than the bound and the runs overlap.
        ([10.0, 14.0, 7.0, 12.0], [11.0, 8.0, 13.0, 9.5], "unresolved"),
        # Wide spread, but every new run beats every old one.
        ([20.0, 30.0, 25.0, 40.0], [10.0, 15.0, 12.0, 19.0], "better"),
    ],
)
def test_status_per_metric(tmp_path, capsys, old, new, expect):
    for i, v in enumerate(old):
        _record(tmp_path, "old", i, {"campaign_s": v, "rounds_per_s": 100.0 / v})
    for i, v in enumerate(new):
        _record(tmp_path, "new", i, {"campaign_s": v, "rounds_per_s": 100.0 / v})
    code, out = _run(tmp_path, capsys)
    assert code == 0
    assert _status(out.out, "campaign_s") == expect
    # The same runs read as a rate: higher is better, so the verdict agrees.
    assert _status(out.out, "rounds_per_s") == expect


def test_rmse_compared_seed_by_seed(tmp_path, capsys):
    for i in range(4):
        _record(tmp_path, "old", i, {"campaign_s": 1.0}, rmse=0.1 + i)
        _record(tmp_path, "new", i, {"campaign_s": 1.0}, rmse=0.1 + i)
    _, out = _run(tmp_path, capsys)
    assert "rmse_final identical on all 4 shared seeds" in out.out
    _record(tmp_path, "new", 2, {"campaign_s": 1.0}, rmse=2.1 * 1.5)
    _, out = _run(tmp_path, capsys)
    assert "rmse_final changed on 1 of 4 shared seeds (median change +50.0%)" in out.out


def test_layer_self_time_deltas(tmp_path, capsys):
    _record(tmp_path, "old", 0, {"campaign_s": 1.0})
    _record(tmp_path, "new", 0, {"campaign_s": 1.0})
    _record(tmp_path, "old", 1, {}, trace=1, layer_self={"forest": 4.0, "learner": 0.5})
    _record(tmp_path, "new", 1, {}, trace=1, layer_self={"forest": 1.5, "learner": 0.5})
    code, out = _run(tmp_path, capsys)
    assert code == 0
    forest = next(l for l in out.out.splitlines() if l.strip().startswith("forest"))
    assert "-2.5000 s" in forest


def test_refuses_mixed_kernels(tmp_path, capsys):
    _record(tmp_path, "old", 0, {"campaign_s": 1.0}, kernel="c")
    _record(tmp_path, "new", 0, {"campaign_s": 1.0}, kernel="numpy")
    code, out = _run(tmp_path, capsys)
    assert code == 2
    assert "different forest kernels" in out.err
    assert out.out == ""


def test_counts_failed_operations_per_side(tmp_path, capsys):
    _record(tmp_path, "old", 0, {"campaign_s": 1.0})
    _record(tmp_path, "new", 0, {"campaign_s": 1.0})
    _record(tmp_path, "new", 1, {"campaign_s": 1.0})
    _, out = _run(tmp_path, capsys)
    assert "== w: 1 old runs (0/12 failed), 2 new runs (0/24 failed) ==" in out.out


def test_refuses_runs_that_failed_their_checks(tmp_path, capsys):
    _record(tmp_path, "old", 0, {"campaign_s": 1.0})
    _record(tmp_path, "new", 0, {"campaign_s": 0.5},
            checks_failed=["traced traces differ from untraced ones"])
    code, out = _run(tmp_path, capsys)
    assert code == 2
    assert "w seed 0 trace 0 failed its output checks: traced traces differ" in out.err
    assert out.out == ""
