"""One benchmark process: set a workload up, run its campaign once, report.

``run.py`` starts this file in a fresh interpreter for every sample, so
imports, the forest C kernel's ``dlopen`` and every per-process cache
(the prepared split, the service's benchmark memo) are paid each time,
as a command-line user pays them.  The protocol is two stdout lines:

* ``@@ready {context}`` once set-up is done (the parent times the
  interval from spawning the process to reading this line);
* ``@@result {...}`` after the campaign: its wall time, a digest and the
  final RMSE of every trace, request counts, per-round latencies and,
  when traced, the per-layer metrics.

With ``--probe`` it stops after ``@@ready``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import layers

WORK_DIR = Path(__file__).resolve().parent / "_work"

#: Session α values of ``service-loop``, two sessions each (306 rounds per
#: sample); each session is scored at its own α.
SERVICE_ALPHAS = (0.01, 0.05, 0.10) * 2


def emit(tag: str, payload: dict) -> None:
    sys.stdout.write(f"@@{tag} {json.dumps(payload, sort_keys=True)}\n")
    sys.stdout.flush()


def engine_config():
    from repro.engine import EngineConfig

    return EngineConfig(jobs=1, cache_dir=None, progress=False)


# -- campaign workloads ----------------------------------------------------------

def run_fig6(seed: int) -> None:
    from repro.engine import use_engine
    from repro.experiments.config import SCALES
    from repro.experiments.figures import fig6

    with use_engine(engine_config()):
        fig6(SCALES["smoke"], seed=seed)


#: Campaign workload → (benchmark resolved at set-up, campaign function).
CAMPAIGNS = {
    "fig6-smoke": ("atax", run_fig6),
}


class EngineCapture:
    """Keeps every ``run_jobs`` call's jobs, results and stats for the checks."""

    def __init__(self) -> None:
        self.calls: list = []
        import repro.engine

        original = repro.engine.run_jobs
        calls = self.calls

        def run_jobs(jobs, config=None, reporter=None):
            jobs = list(jobs)
            results, stats = original(jobs, config=config, reporter=reporter)
            calls.append((jobs, results, stats))
            return results, stats

        layers.rebind(original, run_jobs)

    def traces(self) -> list[dict]:
        out = []
        for jobs, results, _ in self.calls:
            for job in jobs:
                result = results[job.key()]
                if not result.ok:
                    out.append({"digest": None, "rmse": None, "complete": False})
                    continue
                history = result.history
                blob = json.dumps(history.to_dict(), sort_keys=True).encode()
                out.append({
                    "digest": hashlib.sha256(blob).hexdigest(),
                    "rmse": history.records[-1].rmse[f"{job.alpha:g}"],
                    "complete": int(history.n_train[-1]) == job.scale.n_max,
                })
        return out

    def rounds(self) -> int:
        """Suggest → measure → observe rounds across every trial."""
        total = 0
        for jobs, _, _ in self.calls:
            for job in jobs:
                s = job.scale
                total += 1 + math.ceil((s.n_max - s.n_init) / s.n_batch)
        return total

    def stats(self) -> dict:
        out = {"total": 0, "executed": 0, "failed": 0, "retried": 0}
        for _, _, stats in self.calls:
            for key in out:
                out[key] += getattr(stats, key)
        return out


# -- service workload ------------------------------------------------------------

class ServiceLoop:
    """A :class:`repro.service.TuningServer` on loopback plus one closed-loop client."""

    def __init__(self) -> None:
        from repro.service import Client, TuningServer
        from repro.service.config import ServiceConfig
        from repro.workloads import get_benchmark

        get_benchmark("atax")
        self.data_dir = WORK_DIR / f"service-{os.getpid()}"
        shutil.rmtree(self.data_dir, ignore_errors=True)
        self.server = TuningServer(
            ServiceConfig(host="127.0.0.1", port=0, data_dir=str(self.data_dir))
        ).start()
        self.client = Client(self.server.url)
        self.client.healthz()
        self.requests = 0
        self.rounds = 0
        #: ``(verb, round-trip ms)`` of every suggest and report, in order.
        self.rtts: list[tuple[str, float]] = []
        self.sessions: list[tuple[dict, str, dict]] = []

    def close(self) -> None:
        self.server.stop()
        shutil.rmtree(self.data_dir, ignore_errors=True)

    def _timed(self, verb: str, fn, *args):
        self.requests += 1
        start = time.perf_counter()
        out = fn(*args)
        self.rtts.append((verb, (time.perf_counter() - start) * 1e3))
        return out

    def run(self, seed: int) -> None:
        """One atax smoke session per entry of ``SERVICE_ALPHAS``, each
        driven to its budget."""
        import numpy as np
        from repro.service import SessionSpec
        from repro.service.session import measure_round

        for k, alpha in enumerate(SERVICE_ALPHAS):
            fields = dict(benchmark="atax", strategy="pwu", scale="smoke",
                          seed=seed * 10 + k, alpha=alpha)
            spec = SessionSpec(**fields)
            self.requests += 1
            snap = self.client.create_session(**fields)
            sid = snap["id"]
            while snap["state"] == "open":
                sug = self._timed("suggest", self.client.suggest, sid)
                x = np.asarray(sug["x"], dtype=np.float64)
                y = measure_round(spec, x, sug["round"])
                snap = self._timed("report", self.client.report, sid, sug["indices"], y)
                self.rounds += 1
            self.sessions.append((fields, sid, snap))

    def traces(self, reference: bool) -> list[dict]:
        """Served-model digest and final RMSE per session; optionally the
        byte comparison against ``offline_reference``."""
        from repro.service import SessionSpec, offline_reference
        from repro.surrogate import surrogate_bytes

        out = []
        for fields, sid, snap in self.sessions:
            self.requests += 1
            served = self.client.model_bytes(sid)
            trace = {
                "digest": hashlib.sha256(served).hexdigest(),
                "rmse": snap["rmse"][f"{fields['alpha']:g}"],
                "complete": snap["state"] == "completed"
                and snap["n_labeled"] == snap["n_max"],
            }
            if reference:
                learner = offline_reference(SessionSpec(**fields))
                trace["reference"] = surrogate_bytes(learner.model) == served
            out.append(trace)
        return out


# -- the process -------------------------------------------------------------------

def pin_to_one_cpu() -> int:
    """Bind this process, and every thread it starts later, to one CPU.

    Called before any import that starts threads.  On a shared virtual
    machine, a wake-up sent to a thread on another vCPU waits until the
    hypervisor runs that vCPU: unpinned, the loopback service's suggest
    p90 read 9-11 ms against 3.8 ms pinned, and it jumped between the two
    from one run to the next.  Every workload runs at jobs=1, so one CPU
    is all a sample uses.
    """
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def context(lib) -> dict:
    import numpy
    import scipy

    if lib is not None:
        kernel, reason = "c", None
    elif os.environ.get("REPRO_PURE_NUMPY"):
        kernel, reason = "numpy", "REPRO_PURE_NUMPY"
    else:
        kernel, reason = "numpy", "C kernel unavailable"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "forest_kernel": kernel,
        "forest_kernel_reason": reason,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="one benchmark sample")
    parser.add_argument("--workload", required=True,
                        choices=(*CAMPAIGNS, "service-loop"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans-out", default=None)
    parser.add_argument("--probe", action="store_true")
    args = parser.parse_args(argv)
    cpu = pin_to_one_cpu()

    from repro.forest import _cgrower

    service = None
    if args.workload == "service-loop":
        service = ServiceLoop()
    else:
        # Set-up imports what the campaign calls, so campaign_s holds no imports.
        import repro.engine  # noqa: F401
        import repro.experiments.figures  # noqa: F401
        from repro.workloads import get_benchmark

        get_benchmark(CAMPAIGNS[args.workload][0])
    emit("ready", {**context(_cgrower.load()), "cpu": cpu})
    try:
        if args.probe:
            return 0
        return _measure(args, service)
    finally:
        if service is not None:
            service.close()


def _measure(args, service: "ServiceLoop | None") -> int:
    from repro.telemetry import counters_snapshot

    capture = EngineCapture()
    recorder = layers.Recorder(f"{args.workload}-s{args.seed}-{os.getpid()}")
    if args.trace or service is None:
        layers.install(recorder, full=bool(args.trace))
    before = counters_snapshot()
    start = time.perf_counter()
    if service is not None:
        service.run(args.seed)
    else:
        CAMPAIGNS[args.workload][1](args.seed)
    campaign_s = time.perf_counter() - start
    after = counters_snapshot()
    recorder.restore()

    if service is not None:
        traces = service.traces(bool(args.reference))
        engine = None
        out = {
            "attempted": service.requests,
            "rounds": service.rounds,
            "suggest_ms": [ms for verb, ms in service.rtts if verb == "suggest"],
            "report_ms": [ms for verb, ms in service.rtts if verb == "report"],
        }
    else:
        traces = capture.traces()
        stats = capture.stats()
        engine = stats
        out = {
            "attempted": stats["total"],
            "failed": stats["failed"],
            "rounds": capture.rounds(),
            "suggest_ms": [s.duration * 1e3 for s in recorder.spans
                           if s.name == "learner.suggest"],
            "report_ms": [s.duration * 1e3 for s in recorder.spans
                          if s.name == "learner.observe"],
        }
    out.update(
        campaign_s=campaign_s,
        traces=traces,
        engine=engine,
        rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    )
    if args.trace:
        delta = {k: v - before.get(k, 0) for k, v in after.items()}
        out["layers"] = layers.layer_metrics(
            recorder.spans, delta, engine, campaign_s,
            service.rtts if service is not None else (),
        )
        out["layer_self_s"] = layers.layer_self(recorder.spans)
        if args.spans_out:
            recorder.write(args.spans_out)
    emit("result", out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
