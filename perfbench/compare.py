"""Compare two sets of benchmark runs, workload by workload.

Usage (from the repository root)::

    python3 perfbench/compare.py OLD NEW

``OLD`` and ``NEW`` are directories of run records (what ``run.py``
writes to ``--out``) or single record files.  For every workload, each
end-to-end metric gets both sides' median and quartiles over their
untraced runs, the median's change, and a status:

* ``unresolved``: either side's quartile spread exceeds the metric's
  bound in ``BENCHMARK.json``, and the runs do not separate (not every
  new run beats every old one);
* ``worse``: the new median is worse than the old by more than the bound;
* ``better``: the new median is better by more than the old side's spread;
* ``same``: otherwise.

``rmse_final`` is deterministic for a seed but varies widely between
seeds, so it is compared seed by seed instead: runs of the same seed on
both sides must report the same value unless the change altered results.
Traced runs add each layer's median self time on both sides.  Each
workload's header counts both sides' failed and attempted operations.
Records whose forest kernel differs (C against numpy), or any record
whose output checks failed, are refused: exit code 2.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from stats import quartiles, spread

HERE = Path(__file__).resolve().parent


def load_records(path: Path) -> list[dict]:
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def by_workload(records, trace: int) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for r in records:
        if r["context"]["trace"] == trace:
            out.setdefault(r["context"]["workload"], []).append(r)
    return out


def compare_metric(old: list, new: list, bound: float, better: str) -> dict:
    """One metric's row: quartiles of both sides, relative change, status."""
    sign = 1.0 if better == "lower" else -1.0
    o1, om, o3 = quartiles(old)
    n1, nm, n3 = quartiles(new)
    worse_by = sign * (nm - om) / abs(om) if om else 0.0
    old_spread, new_spread = spread(old), spread(new)
    separated = all(sign * (n - o) < 0 for n in new for o in old)
    if separated and worse_by < 0:
        status = "better"
    elif max(old_spread, new_spread) > bound:
        status = "unresolved"
    elif worse_by > bound:
        status = "worse"
    elif -worse_by > old_spread:
        status = "better"
    else:
        status = "same"
    return {
        "old": (o1, om, o3),
        "new": (n1, nm, n3),
        "change": (nm - om) / abs(om) if om else 0.0,
        "status": status,
    }


def rmse_by_seed(old, new) -> tuple[int, list[float]]:
    """Shared seeds, and the relative ``rmse_final`` change on each that moved."""
    a = {r["context"]["seed"]: r["raw"]["rmse_final"] for r in old}
    b = {r["context"]["seed"]: r["raw"]["rmse_final"] for r in new}
    shared = sorted(set(a) & set(b))
    return len(shared), [(b[s] - a[s]) / a[s] for s in shared if b[s] != a[s]]


def layer_self(records) -> dict[str, float]:
    """Median self time of each layer over the traced records."""
    layers = sorted({k for r in records for k in r["raw"].get("layer_self_s", {})})
    return {
        k: statistics.median(r["raw"]["layer_self_s"].get(k, 0.0) for r in records)
        for k in layers
    }


def failed_of(records) -> str:
    """``failed/attempted`` summed over ``records``."""
    return (f"{sum(r['failed'] for r in records)}/"
            f"{sum(r['attempted'] for r in records)} failed")


def _q(q) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Compare two sets of benchmark runs.")
    parser.add_argument("old", type=Path)
    parser.add_argument("new", type=Path)
    parser.add_argument("--bench", type=Path, default=HERE.parent / "BENCHMARK.json",
                        help="benchmark description with the bounds (default: %(default)s)")
    args = parser.parse_args(argv)
    spec = json.loads(args.bench.read_text())
    old, new = load_records(args.old), load_records(args.new)

    kernels = {r["context"]["forest_kernel"] for r in old + new}
    if len(kernels) > 1:
        print(f"refusing to compare: the runs used different forest kernels "
              f"({', '.join(sorted(kernels))})", file=sys.stderr)
        return 2
    broken = [r for r in old + new if not r["correct"]]
    for r in broken:
        c = r["context"]
        print(f"refusing to compare: {c['workload']} seed {c['seed']} trace "
              f"{c['trace']} failed its output checks: "
              f"{'; '.join(r['checks_failed'])}", file=sys.stderr)
    if broken:
        return 2

    old_t0, new_t0 = by_workload(old, 0), by_workload(new, 0)
    old_t1, new_t1 = by_workload(old, 1), by_workload(new, 1)
    for workload in sorted(set(old_t0) | set(new_t0) | set(old_t1) | set(new_t1)):
        a, b = old_t0.get(workload, []), new_t0.get(workload, [])
        print(f"== {workload}: {len(a)} old runs ({failed_of(a)}), "
              f"{len(b)} new runs ({failed_of(b)}) ==")
        if a and b:
            print(f"{'metric':<16} {'unit':<5} {'old median [q1, q3]':<30} "
                  f"{'new median [q1, q3]':<30} {'change':>8} {'bound':>6}  status")
            for m in spec["end_to_end"]:
                name = m["name"]
                ov = [r["metrics"][name]["value"] for r in a if name in r["metrics"]]
                nv = [r["metrics"][name]["value"] for r in b if name in r["metrics"]]
                if not ov or not nv:
                    continue
                row = compare_metric(ov, nv, m["bound"], m["better"])
                print(f"{name:<16} {m['unit']:<5} {_q(row['old']):<30} "
                      f"{_q(row['new']):<30} {row['change']:>+8.1%} "
                      f"{m['bound']:>6.0%}  {row['status']}")
            shared, moved = rmse_by_seed(a, b)
            if moved:
                print(f"rmse_final changed on {len(moved)} of {shared} shared seeds "
                      f"(median change {statistics.median(moved):+.1%})")
            elif shared:
                print(f"rmse_final identical on all {shared} shared seeds")
        ta, tb = old_t1.get(workload, []), new_t1.get(workload, [])
        if ta and tb:
            sa, sb = layer_self(ta), layer_self(tb)
            print(f"layer self time, median of {len(ta)} old and {len(tb)} new traced runs:")
            for layer in sorted(set(sa) | set(sb)):
                x, y = sa.get(layer, 0.0), sb.get(layer, 0.0)
                print(f"  {layer:<12} {x:9.4f} s -> {y:9.4f} s  {y - x:+9.4f} s")
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
