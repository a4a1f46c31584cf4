"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload fig6-smoke --seed 1 --seconds 50 --trace 0

Every sample is a fresh interpreter (``child.py``).  With ``--trace 0``
the run repeats the workload's campaign untraced and prints the
end-to-end metrics; with ``--trace 1`` it pairs an untraced campaign with
a traced one and prints the per-layer metrics plus the tracing overhead.
Repetition ``i`` runs the campaign at seed ``100 * seed + i``, so the
same ``--seed`` always gives the same inputs.

The output checks run in the same command and turn any mismatch into
``"correct": false`` and exit code 1: no failed trial job or request,
every trace reaches its budget, traced traces equal untraced ones, and
every ``service-loop`` session serves the same model bytes as
``offline_reference``.  Metric names and units come from
``BENCHMARK.json``.  A run
that cannot set the workload up (no program to import) exits 2 and
prints no result.  The last stdout line is the JSON result; a fuller
record with the context block goes to ``--out``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from stats import percentile, tail_summary

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: A run takes the median of at least this many set-up samples.
MIN_SETUPS = 5

#: Whole-run deadline; a run must finish well inside three minutes.
RUN_DEADLINE_S = 170.0

#: Rounds every sample must time; 100 leaves ten beyond its p90.
MIN_ROUNDS = 100


@dataclass(frozen=True)
class Plan:
    """How a workload is sampled.  ``round(--seconds / nominal_s)`` is the
    repetition count, so it depends on ``--seconds`` alone, never on the
    machine's speed.  ``nominal_s`` is one untraced sample's wall time,
    set-up included, on a 2-vCPU shared host, so a run measures for about
    ``--seconds``."""

    nominal_s: float
    #: Compare served models with ``offline_reference`` (service-loop).
    reference: bool = False


#: ``--seconds 50`` gives five samples of fig6-smoke and six of
#: service-loop.
PLANS = {
    "fig6-smoke": Plan(nominal_s=10.0),
    "service-loop": Plan(nominal_s=8.0, reference=True),
}


class ChildFailed(RuntimeError):
    """A sample process crashed, timed out or broke the protocol."""


@dataclass
class Sample:
    setup_s: float
    ready: dict
    result: "dict | None"


def hermetic_env() -> tuple[dict, dict]:
    """The child environment, and the ``REPRO_*`` variables removed from it.

    ``REPRO_PURE_NUMPY`` passes through: it selects the forest kernel,
    which the context block records and ``compare.py`` refuses to mix.
    """
    env, cleared = {}, {}
    for key, value in os.environ.items():
        if key.startswith("REPRO_") and key != "REPRO_PURE_NUMPY":
            cleared[key] = value
        else:
            env[key] = value
    env["PYTHONPATH"] = str(ROOT / "src")
    return env, cleared


def run_child(args: list, env: dict, deadline: float, probe: bool = False) -> Sample:
    """Start ``child.py``; set-up time runs from spawn to its ready line."""
    argv = [sys.executable, str(HERE / "child.py"), *map(str, args)]
    if probe:
        argv.append("--probe")
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    setup_s, ready, result = None, None, None
    try:
        for line in iter(proc.stdout.readline, ""):
            if line.startswith("@@ready "):
                setup_s = time.perf_counter() - start
                ready = json.loads(line[len("@@ready "):])
            elif line.startswith("@@result "):
                result = json.loads(line[len("@@result "):])
        code = proc.wait()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0 or ready is None or (result is None and not probe):
        raise ChildFailed(f"sample {' '.join(argv[1:])} exited {code}")
    return Sample(setup_s, ready, result)


def git_sha() -> "str | None":
    """The checked-out commit, or ``None`` outside a git checkout."""
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
    except OSError:
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def src_digest() -> str:
    """Hash of the program's sources, naming the code without git."""
    h = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.suffix in (".py", ".c") and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(src)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Checks:
    """Collects output-check failures; the run is correct when none fail."""

    def __init__(self) -> None:
        self.failures: list[str] = []

    def require(self, ok: bool, message: str) -> None:
        if not ok:
            self.failures.append(message)

    def traces(self, sample: Sample, label: str) -> None:
        traces = sample.result["traces"]
        self.require(bool(traces), f"{label}: no traces")
        self.require(all(t["complete"] for t in traces),
                     f"{label}: a trace stopped short of its budget")
        self.require(sample.result.get("failed", 0) == 0, f"{label}: failed operations")
        self.require(all(t.get("reference", True) for t in traces),
                     f"{label}: served model differs from offline_reference")

    def same(self, a: Sample, b: Sample, message: str) -> None:
        self.require(digests(a) == digests(b), message)


def digests(sample: Sample) -> list:
    return [t["digest"] for t in sample.result["traces"]]


def campaign_args(workload: str, seed: int, trace: int = 0,
                  reference: bool = False, spans_out=None) -> list:
    args = ["--workload", workload, "--seed", seed,
            "--trace", trace, "--reference", int(reference)]
    if spans_out is not None:
        args += ["--spans-out", spans_out]
    return args


def peak_rss_mb(samples) -> float:
    """This process plus the largest sample process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return (own + max(s.result["rss_kb"] for s in samples)) / 1024.0


def rmse_final(samples) -> float:
    """Mean final top-α RMSE (seconds) over every trace, each at its own α.

    Deterministic for a seed, but the pool/test split it depends on moves
    it by about a third between seeds, so it is recorded and compared seed
    by seed (``compare.py``) rather than reported as a bounded metric.
    """
    return statistics.fmean(t["rmse"] for s in samples for t in s.result["traces"])


def timed_run(workload: str, plan: Plan, seed: int, seconds: int, env: dict,
              deadline: float, checks: Checks) -> tuple[dict, dict, list]:
    """Repeat the campaign untraced; returns (metrics, raw values, samples)."""
    reps = max(1, round(seconds / plan.nominal_s))
    samples = []
    for i in range(reps):
        sample = run_child(
            campaign_args(workload, 100 * seed + i,
                          reference=plan.reference and i == 0),
            env, deadline,
        )
        checks.traces(sample, f"rep {i}")
        samples.append(sample)
    setups = [s.setup_s for s in samples]
    while len(setups) < MIN_SETUPS:
        setups.append(run_child(campaign_args(workload, seed), env,
                                deadline, probe=True).setup_s)
    checks.require(
        all(len(s.result[k]) >= MIN_ROUNDS for s in samples
            for k in ("suggest_ms", "report_ms")),
        f"fewer than {MIN_ROUNDS} rounds in a sample: "
        "p90 would rest on under ten samples",
    )

    def latency(key: str, q: float) -> float:
        # Per sample, then the median over samples, as for campaign_s.
        # Every sample times the same sequence of rounds, cheap early ones
        # and dearer later ones, so only speed moves a sample's percentile.
        # Windows of consecutive rounds differ in that mix, and a median
        # over windows jumped between their levels from run to run.
        return statistics.median(percentile(s.result[key], q) for s in samples)

    campaign = [s.result["campaign_s"] for s in samples]
    metrics = {
        "setup_s": statistics.median(setups),
        "campaign_s": statistics.median(campaign),
        "peak_rss_mb": peak_rss_mb(samples),
        "suggest_ms_p50": latency("suggest_ms", 50),
        "suggest_ms_p90": latency("suggest_ms", 90),
        "report_ms_p50": latency("report_ms", 50),
        "report_ms_p90": latency("report_ms", 90),
        "rounds_per_s": statistics.median(
            s.result["rounds"] / s.result["campaign_s"] for s in samples
        ),
    }
    raw = {
        "setup_s": setups,
        "campaign_s": campaign,
        "rmse_final": rmse_final(samples),
    }
    for key in ("suggest_ms", "report_ms"):
        raw[key] = tail_summary([ms for s in samples for ms in s.result[key]])
    return metrics, raw, samples


def traced_run(workload: str, plan: Plan, seed: int, seconds: int, env: dict,
               deadline: float, checks: Checks, spans_dir: Path
               ) -> tuple[dict, dict, list]:
    """Pair untraced and traced campaigns; returns per-pair median layer metrics."""
    pairs = max(1, int(seconds / (2 * plan.nominal_s)))
    per_pair, self_times, everything = [], [], []
    for i in range(pairs):
        sub_seed = 100 * seed + i
        spans = spans_dir / f"{workload}.s{sub_seed}"
        base = run_child(campaign_args(workload, sub_seed,
                                       reference=plan.reference and i == 0),
                         env, deadline)
        traced = run_child(campaign_args(workload, sub_seed, trace=1,
                                         spans_out=f"{spans}.jsonl"),
                           env, deadline)
        checks.traces(base, f"pair {i} untraced")
        checks.traces(traced, f"pair {i} traced")
        checks.same(base, traced, "traced traces differ from untraced ones")
        everything += [base, traced]
        metrics = dict(traced.result["layers"])
        metrics["tracing.overhead_s"] = (
            traced.result["campaign_s"] - base.result["campaign_s"]
        )
        per_pair.append(metrics)
        self_times.append(traced.result["layer_self_s"])
    metrics = {n: statistics.median(m[n] for m in per_pair) for n in per_pair[0]}
    all_layers = sorted({k for d in self_times for k in d})
    raw = {
        "layer_self_s": {
            k: statistics.median(d.get(k, 0.0) for d in self_times) for k in all_layers
        },
    }
    return metrics, raw, everything


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Run one workload of the repro benchmark.")
    parser.add_argument("--workload", required=True, choices=sorted(PLANS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, default=HERE / "_results",
                        help="directory for the run record (default: %(default)s)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program under {ROOT / 'src'}", file=sys.stderr)
        return 2

    plan = PLANS[args.workload]
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    env, cleared = hermetic_env()
    deadline = time.monotonic() + RUN_DEADLINE_S
    try:
        # Untimed first sample: compiles the C kernel and bytecode if needed.
        warm = run_child(campaign_args(args.workload, args.seed),
                         env, deadline, probe=True)
    except ChildFailed as exc:
        print(f"perfbench: set-up failed: {exc}", file=sys.stderr)
        return 2

    checks = Checks()
    spans_dir = args.out / "spans"
    spans_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            measured, raw, samples = traced_run(
                args.workload, plan, args.seed, args.seconds, env, deadline,
                checks, spans_dir)
        else:
            measured, raw, samples = timed_run(
                args.workload, plan, args.seed, args.seconds, env, deadline, checks)
    except ChildFailed as exc:
        checks.require(False, str(exc))
        measured, raw, samples = None, {}, []
    # Every metric BENCHMARK.json declares for this kind of run, in its order.
    declared = spec["per_layer" if args.trace else "end_to_end"]
    metrics = {} if measured is None else {
        m["name"]: {"value": measured[m["name"]], "unit": m["unit"]} for m in declared
    }

    attempted = sum(s.result["attempted"] for s in samples) or 1
    failed = sum(s.result.get("failed", 0) for s in samples) + (
        0 if samples else 1
    )
    correct = not checks.failures
    context = {
        **warm.ready,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "src_digest": src_digest(),
        "cleared_env": cleared,
    }
    record = {
        "context": context,
        "correct": correct,
        "checks_failed": checks.failures,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "metrics": metrics,
        "raw": raw,
    }
    args.out.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = args.out / f"{args.workload}.t{args.trace}.s{args.seed}.{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    kernel = context["forest_kernel"]
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"kernel={kernel} nproc={context['nproc']} record={path}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    for key in ("suggest_ms", "report_ms"):
        if key in raw:
            t = raw[key]
            print(f"{key}: n={t['n']} p50={t['p50']:.4g} {t['tail']}={t['tail_value']:.4g}")
    if "rmse_final" in raw:
        print(f"rmse_final = {raw['rmse_final']:.6g} s (quality; compared seed by seed)")
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.3g}")
    for failure in checks.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    # SIGTERM unwinds like Ctrl-C, so run_child still stops its sample.
    signal.signal(signal.SIGTERM, signal.default_int_handler)
    sys.exit(main())
