import statistics

import pytest

from stats import percentile, quartiles, spread, tail_summary


def test_percentile_interpolates_between_ranks():
    data = [4.0, 1.0, 3.0, 2.0, 5.0]
    assert percentile(data, 0) == 1.0
    assert percentile(data, 50) == 3.0
    assert percentile(data, 100) == 5.0
    assert percentile(data, 90) == pytest.approx(4.6)
    assert percentile([1.0, 2.0], 25) == pytest.approx(1.25)


def test_percentile_rejects_empty_and_out_of_range():
    with pytest.raises(ValueError):
        percentile([], 50)
    with pytest.raises(ValueError):
        percentile([1.0], 101)


@pytest.mark.parametrize(
    "n, tail",
    [(10, None), (19, None), (20, "p50"), (40, "p75"), (99, "p75"),
     (100, "p90"), (199, "p90"), (200, "p95"), (1000, "p99"), (10000, "p99.9")],
)
def test_tail_is_highest_percentile_with_ten_samples_beyond(n, tail):
    samples = [float(i) for i in range(n)]
    out = tail_summary(samples)
    assert out["n"] == n
    assert out["tail"] == tail
    assert out["p50"] == percentile(samples, 50)
    if tail is not None:
        q = float(tail[1:])
        assert out["tail_value"] == percentile(samples, q)
        assert round(n * (100 - q), 6) >= 1000


def test_quartiles_match_statistics_quantiles():
    values = [3.1, 2.9, 3.4, 3.0, 5.2, 3.3, 2.8, 3.05, 3.2, 3.15]
    assert quartiles(values) == tuple(statistics.quantiles(values, n=4))
    assert quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_spread_is_iqr_over_median():
    values = [9.0, 10.0, 10.0, 11.0, 10.0]
    q1, med, q3 = quartiles(values)
    assert spread(values) == pytest.approx((q3 - q1) / med)
    assert spread([0.0, 0.0]) == 0.0
