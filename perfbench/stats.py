"""Order statistics shared by the benchmark runner and the comparison script.

Standard library only: the runner parent and ``compare.py`` never import
numpy, so they work on any interpreter that can read the result files.
"""

from __future__ import annotations

import math
import statistics

__all__ = ["percentile", "tail_summary", "quartiles", "spread"]

#: Percentiles :func:`tail_summary` may report as the tail, lowest first.
TAIL_LADDER: tuple[float, ...] = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: Samples that must lie beyond a reported tail percentile.
MIN_BEYOND = 10


def percentile(samples, q: float) -> float:
    """The ``q``-th percentile (0-100) by linear interpolation between ranks.

    Matches numpy's default ("linear") method.  Raises on an empty sample.
    """
    if not samples:
        raise ValueError("percentile of an empty sample")
    if not 0.0 <= q <= 100.0:
        raise ValueError(f"percentile must be in [0, 100], got {q}")
    ordered = sorted(samples)
    pos = (len(ordered) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def tail_summary(samples) -> dict:
    """Median plus the highest percentile with at least ten samples beyond it.

    Returns ``{"n", "p50", "tail", "tail_value"}``.  ``tail`` names the
    percentile (``"p90"``, ``"p99"``, ...) or is ``None`` when fewer than
    twenty samples leave no percentile from the ladder qualified.
    """
    n = len(samples)
    out = {"n": n, "p50": percentile(samples, 50.0), "tail": None, "tail_value": None}
    for q in reversed(TAIL_LADDER):
        # Rounded: 100 * (1 - 0.9) is a hair under 10 in binary floating point.
        if round(n * (100.0 - q), 6) >= 100 * MIN_BEYOND:
            out["tail"] = f"p{q:g}"
            out["tail_value"] = percentile(samples, q)
            break
    return out


def quartiles(values) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)`` gives them.

    A single value is its own quartiles.
    """
    values = list(values)
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (``inf`` at median 0)."""
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)
