"""Fault-tolerant parallel experiment engine with a journaled result store.

The paper's protocol is embarrassingly parallel — every figure averages
``n_trials`` independent active-learning runs per (benchmark, strategy) —
and this subsystem turns that structure into throughput that survives the
faults a production campaign actually hits (hung evaluations, flaky jobs,
worker crashes, kills mid-write):

* :mod:`repro.engine.jobs` — frozen :class:`TrialJob` specs with stable
  content-address keys; each trial's RNG derives from its key, so results
  are independent of scheduling order, worker placement, and retries.
  :class:`TrialResult` is the per-job terminal outcome: a trace, or a
  recorded failure once retries are exhausted;
* :mod:`repro.engine.executor` — :func:`run_jobs` fans jobs over a process
  pool (serial fallback for ``jobs=1`` and fork-less platforms) with
  bit-identical traces either way, one future per trial attempt with the
  pool/test split prepared once per worker process, per-attempt
  ``SIGALRM`` timeouts, retries with deterministic exponential backoff,
  and mid-run ``BrokenProcessPool`` recovery (salvage completed results,
  requeue in-flight trials, rebuild the pool, degrade to serial after
  repeated deaths);
* :mod:`repro.engine.store` — :class:`ResultStore`, an append-only JSONL
  journal with fsync-on-commit and fsync-before-replace compaction: a
  ``kill -9`` mid-write never loses a committed trial, re-runs skip
  completed trials, and killed runs resume where they stopped;
* :mod:`repro.engine.faults` — deterministic chaos injection
  (crash/hang/exception/slow, keyed off the job key) so fault-tolerance
  behaviour is testable and reproducible at any ``--jobs N``;
* :mod:`repro.engine.progress` — job/cache-hit/retry/failure telemetry on
  stderr, transient on TTYs and restored on the ``finally`` path;
* :mod:`repro.engine.context` — ambient :class:`EngineConfig`
  (``--jobs``/``--cache-dir``/``--max-retries``/``--job-timeout`` from
  the CLI; ``REPRO_JOBS``/``REPRO_CACHE_DIR``/``REPRO_MAX_RETRIES``/
  ``REPRO_JOB_TIMEOUT``/``REPRO_FAULTS`` for harnesses).

The experiment runner (:mod:`repro.experiments.runner`) routes every
trial through :func:`run_jobs`, so all CLI figures, benchmarks, and
library callers get scheduling, caching, and fault tolerance for free.
"""

from repro.engine.context import (
    EngineConfig,
    current_engine,
    engine_from_env,
    use_engine,
)
from repro.engine.executor import JobTimeout, execute_job, run_jobs
from repro.engine.faults import FaultPlan, FaultRule, plan_from_spec
from repro.engine.jobs import (
    JOB_SCHEMA_VERSION,
    EngineJobError,
    TrialJob,
    TrialResult,
    trial_jobs,
)
from repro.engine.progress import EngineStats, ProgressReporter
from repro.engine.store import JOURNAL_NAME, STORE_SCHEMA_VERSION, ResultStore

__all__ = [
    "EngineConfig",
    "EngineJobError",
    "EngineStats",
    "FaultPlan",
    "FaultRule",
    "JobTimeout",
    "ProgressReporter",
    "ResultStore",
    "TrialJob",
    "TrialResult",
    "JOB_SCHEMA_VERSION",
    "JOURNAL_NAME",
    "STORE_SCHEMA_VERSION",
    "current_engine",
    "engine_from_env",
    "execute_job",
    "plan_from_spec",
    "run_jobs",
    "trial_jobs",
    "use_engine",
]
