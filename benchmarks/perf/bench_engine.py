#!/usr/bin/env python
"""Engine hot-path microbenchmark: fused batch evaluation.

Times measuring a pool-sized batch of configurations (DESIGN.md §2h) —
one fused :meth:`~repro.workloads.base.Benchmark.evaluate_batch` call vs
the per-configuration evaluation loop the learner and service used
before — and writes the result to ``BENCH_engine.json``.  The cost models
are closed-form numpy, so the fused call amortises the parameter-space
bookkeeping across the whole batch.  The script exits 1 below a 5x
configs/sec speedup (``--min-batch-speedup``) at the chosen pool scale.

Usage::

    PYTHONPATH=src python benchmarks/perf/bench_engine.py [--quick] \
        [--output BENCH_engine.json]
"""

from __future__ import annotations

import argparse
import json
import sys
import time

import numpy as np

from repro.workloads import get_benchmark

#: Oracle section: paper pool size (7000 configurations, Section III-D).
PAPER_ORACLE = dict(benchmark="mvt", n_configs=7000, repeats=5)
QUICK_ORACLE = dict(benchmark="mvt", n_configs=1200, repeats=2)


def best_of_pair(fn_a, fn_b, repeats: int) -> tuple[float, float]:
    """Best-of-N for two functions, *interleaved* so drifting background
    load hits both sides of a speedup ratio equally."""
    fn_a(), fn_b()  # warmup
    best_a = best_b = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn_a()
        best_a = min(best_a, time.perf_counter() - t0)
        t0 = time.perf_counter()
        fn_b()
        best_b = min(best_b, time.perf_counter() - t0)
    return best_a, best_b


def bench_oracle(scale) -> dict:
    """Pool-sized fused evaluate_batch vs the per-configuration loop."""
    benchmark = get_benchmark(scale["benchmark"])
    X = benchmark.space.sample_encoded(
        np.random.default_rng(7), scale["n_configs"]
    )

    def fused():
        benchmark.evaluate_batch(X, np.random.default_rng(11))

    def per_config():
        rng = np.random.default_rng(11)
        for row in X:
            benchmark.evaluate_batch(row[None, :], rng)

    per_config_sec, fused_sec = best_of_pair(
        per_config, fused, scale["repeats"]
    )
    n = scale["n_configs"]
    return {
        "benchmark": scale["benchmark"],
        "n_configs": n,
        "fused_sec": round(fused_sec, 6),
        "per_config_sec": round(per_config_sec, 6),
        "configs_per_sec_fused": round(n / fused_sec, 1),
        "configs_per_sec_per_config": round(n / per_config_sec, 1),
        "speedup": round(per_config_sec / fused_sec, 3),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument(
        "--quick", action="store_true",
        help="small scale for CI smoke runs (the speedup floor still applies)",
    )
    ap.add_argument("--output", default="BENCH_engine.json")
    ap.add_argument(
        "--min-batch-speedup", type=float, default=5.0,
        help="fail (exit 1) below this fused-vs-per-config speedup on "
        "pool-sized batches (the oracle ratio is stable enough to gate "
        "even at --quick scale)",
    )
    args = ap.parse_args(argv)

    oracle = bench_oracle(QUICK_ORACLE if args.quick else PAPER_ORACLE)
    result = {
        "schema": "repro.bench_engine/v2",
        "oracle": oracle,
        "speedups": {"pool_batch_eval": oracle["speedup"]},
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }
    with open(args.output, "w") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")

    print(
        f"oracle: {oracle['benchmark']} x{oracle['n_configs']}   "
        f"fused {oracle['fused_sec'] * 1e3:.2f} ms   "
        f"per-config {oracle['per_config_sec'] * 1e3:.2f} ms   "
        f"speedup {oracle['speedup']:.1f}x"
    )
    print(f"wrote {args.output}")

    speedup = oracle["speedup"]
    if speedup < args.min_batch_speedup:
        print(
            f"FAIL: pool-batch speedup {speedup:.2f}x is below the "
            f"{args.min_batch_speedup:.1f}x bar",
            file=sys.stderr,
        )
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
