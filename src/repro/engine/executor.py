"""The trial scheduler: fan jobs out, reuse cached traces, survive faults.

:func:`run_jobs` is the engine's single entry point.  It deduplicates the
requested :class:`~repro.engine.jobs.TrialJob` list by content key, satisfies
whatever it can from the :class:`~repro.engine.store.ResultStore`, and
executes the remainder — serially for ``jobs=1``, otherwise over a
``ProcessPoolExecutor``.  Because every trial's randomness is derived from
its job key (see :mod:`repro.engine.jobs`), the traces are bit-identical
regardless of worker count, scheduling order, retries, or whether a trial
was executed now or loaded from a previous run.

Fault tolerance (the production posture — worker crashes, hung
evaluations, and flaky jobs are routine at campaign scale):

* **Per-attempt timeouts.**  When ``EngineConfig.job_timeout`` is set,
  each attempt runs under a ``SIGALRM`` wall-clock limit in the process
  that executes it (worker or serial).  A timed-out attempt is a
  retryable failure, not a wedged campaign.  (Platforms without
  ``SIGALRM`` run without the limit.)
* **Retries with exponential backoff.**  Failed attempts (job exception,
  timeout, or a crash-lost worker) are retried up to
  ``EngineConfig.max_retries`` times.  The backoff for attempt *k* is
  ``retry_backoff * 2**(k-1)`` scaled by a deterministic jitter in
  ``[0.5, 1.5)`` derived from the job key — reproducible, but decorrelated
  across jobs.  A job that exhausts its retries is recorded as a failed
  :class:`~repro.engine.jobs.TrialResult`; the rest of the batch is
  unaffected.
* **Pool-death recovery.**  A worker dying hard (segfault, OOM kill, the
  ``crash`` chaos fault) breaks the whole ``ProcessPoolExecutor``.  The
  scheduler salvages every result that completed before the death,
  counts one attempt against each in-flight job, rebuilds the pool, and
  resubmits.  After :data:`_POOL_RESTART_LIMIT` rebuilds it degrades to
  the serial path instead of thrashing.

Dispatch is one pool future per trial attempt (:func:`_execute_keyed`).
Worker-side, :func:`execute_job` memoises the per-benchmark data
preparation (pool/test split and the pre-labeled ``y_test``) in a small
per-process cache, so the split — which the paper's protocol shares across
all strategies and trials of a benchmark — is paid once per process rather
than once per trial.  Because all randomness is key-derived, histories are
bit-identical at any ``--jobs N`` (DESIGN.md §2h).

The pool prefers the ``fork`` start method (cheap, inherits the prepared
caches' code pages) and falls back to ``spawn`` where fork is unavailable;
if process pools cannot be created at all (restricted sandboxes), execution
degrades gracefully to the serial path with identical results.
"""

from __future__ import annotations

import hashlib
import signal
import threading
import time
from collections import OrderedDict, deque
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from pickle import PicklingError

import multiprocessing

from repro import telemetry
from repro.active import LearningHistory
from repro.engine import faults as faults_mod
from repro.engine.context import EngineConfig, current_engine
from repro.engine.jobs import TrialJob, TrialResult
from repro.engine.progress import EngineStats, ProgressReporter
from repro.engine.store import ResultStore
from repro.telemetry.sink import run_id_for_keys

__all__ = [
    "run_jobs",
    "execute_job",
    "JobTimeout",
    "backoff_seconds",
]

#: Per-process cache of prepared (benchmark, pool, X_test, y_test) tuples.
#: Small and LRU-bounded: entries hold the pool matrix and measured test
#: labels, which is exactly the state worth amortising across trials.
_PREPARED: "OrderedDict[tuple, tuple]" = OrderedDict()
_PREPARED_MAX = 4

#: Ceiling on any single retry backoff sleep, seconds.
_RETRY_BACKOFF_CAP = 30.0

#: Pool rebuilds tolerated per batch before degrading to serial execution.
_POOL_RESTART_LIMIT = 2

#: Per-process cache of parsed fault plans, keyed by spec string.
_PLANS: "dict[str | None, faults_mod.FaultPlan]" = {}


class JobTimeout(TimeoutError):
    """An attempt exceeded ``EngineConfig.job_timeout`` wall-clock seconds."""


def _prepared(benchmark_name: str, scale, seed: int) -> tuple:
    """Benchmark object plus pool/test split, memoised per process.

    The derivation mirrors the historical runner exactly
    (``derive(seed, "data", benchmark)`` feeding ``prepare_data``), so the
    split for a given (benchmark, scale, seed) is identical in every
    process and to what the serial code produced.
    """
    from repro.experiments.runner import prepare_data
    from repro.rng import derive
    from repro.workloads import get_benchmark

    key = (benchmark_name, scale, int(seed))
    entry = _PREPARED.get(key)
    if entry is None:
        with telemetry.span("engine.prepare", benchmark=benchmark_name):
            benchmark = get_benchmark(benchmark_name)
            data_rng = derive(seed, "data", benchmark_name)
            pool, X_test, y_test = prepare_data(benchmark, scale, data_rng)
        entry = (benchmark, pool, X_test, y_test)
        telemetry.inc("engine.prepared_benchmarks")
        # repro: allow[SPAWN001] per-process memo: pool workers are processes, not threads; no cross-process sharing
        _PREPARED[key] = entry
        while len(_PREPARED) > _PREPARED_MAX:
            # repro: allow[SPAWN001] per-process memo eviction, same as above
            _PREPARED.popitem(last=False)
    else:
        # repro: allow[SPAWN001] per-process memo LRU touch, same as above
        _PREPARED.move_to_end(key)
    return entry


def execute_job(job: TrialJob) -> LearningHistory:  # repro: worker-entry
    """Run one trial job to completion in the current process."""
    from repro.experiments.runner import run_single

    benchmark, pool, X_test, y_test = _prepared(
        job.benchmark, job.scale, job.seed
    )
    return run_single(
        benchmark,
        job.build_strategy(),
        job.scale,
        pool,
        X_test,
        y_test,
        job.rng(),
        alpha=job.alpha,
        alphas=job.alphas,
        config_overrides=job.overrides_dict(),
    )


def _traced_execute(
    key: str, job: TrialJob, submit_ts: float, attempt: int = 0
) -> LearningHistory:
    """Run one job under its ``engine.job`` span (queue wait annotated)."""
    with telemetry.span(
        "engine.job",
        key=key[:12],
        job=job.describe(),
        # repro: allow[DET002] queue-wait is a telemetry attribute; never enters results
        queue_wait=time.time() - submit_ts,
        attempt=attempt,
    ):
        return execute_job(job)


def _plan(spec: "str | None") -> faults_mod.FaultPlan:
    """Parsed fault plan for ``spec``, memoised per process."""
    plan = _PLANS.get(spec)
    if plan is None:
        plan = faults_mod.plan_from_spec(spec)
        # repro: allow[SPAWN001] per-process memo of a parse result; workers are processes, not threads
        _PLANS[spec] = plan
    return plan


def _with_timeout(fn, seconds: "float | None"):
    """Run ``fn()`` under a ``SIGALRM`` wall-clock limit when possible.

    Timeouts need a real asynchronous interrupt to unstick a hung job, so
    they only engage where ``SIGALRM`` exists and we are on the main
    thread (always true for pool workers and the CLI's serial path).
    Elsewhere ``fn`` runs unlimited rather than pretending.
    """
    if (
        not seconds
        or not hasattr(signal, "SIGALRM")
        or threading.current_thread() is not threading.main_thread()
    ):
        return fn()

    def _on_alarm(signum, frame):
        raise JobTimeout(f"attempt exceeded {seconds}s wall-clock limit")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        return fn()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def backoff_seconds(key: str, attempt: int, base: float) -> float:
    """Deterministic exponential backoff with per-job jitter.

    ``attempt`` is 1-based (the attempt about to run).  The jitter factor
    in ``[0.5, 1.5)`` is derived from (key, attempt), so chaos runs are
    reproducible while concurrent retries stay decorrelated.
    """
    if base <= 0 or attempt <= 0:
        return 0.0
    digest = hashlib.sha256(f"backoff:{attempt}:{key}".encode()).digest()
    jitter = 0.5 + int.from_bytes(digest[:8], "big") / 2**64
    return min(base * (2 ** (attempt - 1)) * jitter, _RETRY_BACKOFF_CAP)


def _attempt(
    key: str,
    job: TrialJob,
    submit_ts: float,
    attempt: int,
    plan: faults_mod.FaultPlan,
    timeout: "float | None",
) -> "tuple[str, object]":
    """One guarded execution attempt in the current process.

    Returns ``("ok", history)``, ``("timeout", message)``, or
    ``("error", message)``.  Interrupts (``KeyboardInterrupt``,
    ``SystemExit``) propagate — they end the run, not the job.
    """

    def run() -> LearningHistory:
        if plan:
            plan.apply(key, attempt)
        return _traced_execute(key, job, submit_ts, attempt)

    try:
        return "ok", _with_timeout(run, timeout)
    except JobTimeout as exc:
        telemetry.inc("engine.jobs.timeouts")
        return "timeout", str(exc)
    except (KeyboardInterrupt, SystemExit):
        raise
    except BaseException as exc:
        return "error", f"{type(exc).__name__}: {exc}"


def _execute_keyed(  # repro: worker-entry
    item: "tuple[str, TrialJob, float, int, float | None, str | None]",
) -> "tuple[str, object, list, dict]":
    """Pool-friendly wrapper: runs one guarded attempt in a worker process.

    Besides the outcome it ships the worker's telemetry for this attempt
    back through the result channel — the span events drained from the
    local ring buffer (empty when tracing is off) and the counter deltas —
    so the parent can merge them and ``--jobs N`` traces stay complete.
    Job failures travel as data (``outcome != "ok"``), never as raised
    exceptions: an exception escaping here would be indistinguishable from
    pool infrastructure trouble on the parent side.
    """
    key, job, submit_ts, attempt, timeout, faults_spec = item
    outcome, payload = _attempt(
        key, job, submit_ts, attempt, _plan(faults_spec), timeout
    )
    return outcome, payload, telemetry.drain_events(), telemetry.drain()


def _worker_init(trace_on: bool) -> None:  # repro: worker-entry
    """Reset fork-inherited state in a fresh pool worker.

    A forked worker inherits the parent's ring buffer and counters; left
    alone they would be drained and re-absorbed by the parent, double
    counting everything recorded before the pool started.  The prepared
    cache is cleared too, so each worker prepares its own splits and
    behaviour is identical under fork and spawn instead of silently
    depending on copy-on-write inheritance.  Also marks the process as an
    expendable pool worker so the ``crash`` chaos fault dies hard
    (``os._exit``) instead of raising.
    """
    telemetry.clear()
    telemetry.reset()
    if trace_on:
        telemetry.enable()
    else:
        telemetry.disable()
    # repro: allow[SPAWN001] pool-initializer reset of the per-process prepared cache, before any job runs in this process
    _PREPARED.clear()
    faults_mod.IN_POOL_WORKER = True


def _mp_context():
    """Prefer fork (fast, no re-import) but run anywhere spawn exists."""
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )


def _record_success(
    key: str,
    job: TrialJob,
    attempt: int,
    history: LearningHistory,
    results: "dict[str, TrialResult]",
    store: "ResultStore | None",
    reporter: ProgressReporter,
) -> None:
    """Commit one completed trace: results dict, store, progress — in order.

    The store write happens before the progress event so a crash between
    the two can only under-report completed work, never lose it.
    """
    results[key] = TrialResult(key=key, history=history, attempts=attempt + 1)
    if store is not None:
        store.put(job, history)
    reporter.job_finished(job.describe())


def _run_serial(
    pending: "list[tuple[str, TrialJob, int]]",
    results: "dict[str, TrialResult]",
    store: "ResultStore | None",
    reporter: ProgressReporter,
    config: EngineConfig,
) -> None:
    """In-process execution with the same retry policy as the pool path."""
    plan = _plan(config.faults)
    for key, job, start_attempt in pending:
        attempt = start_attempt
        while True:
            reporter.job_started(job.describe())
            outcome, payload = _attempt(
                # repro: allow[DET002] submit timestamp feeds the queue-wait telemetry attribute only
                key, job, time.time(), attempt, plan, config.job_timeout
            )
            if outcome == "ok":
                _record_success(
                    key, job, attempt, payload, results, store, reporter
                )
                break
            if attempt < config.max_retries:
                attempt += 1
                telemetry.inc("engine.jobs.retried")
                reporter.job_retried(f"{job.describe()} ({outcome})")
                time.sleep(
                    backoff_seconds(key, attempt, config.retry_backoff)
                )
                continue
            telemetry.inc("engine.jobs.failed")
            results[key] = TrialResult(
                key=key, history=None, attempts=attempt + 1, error=str(payload)
            )
            reporter.job_failed(f"{job.describe()}: {payload}")
            break


def _run_parallel(
    pending: "list[tuple[str, TrialJob, int]]",
    results: "dict[str, TrialResult]",
    store: "ResultStore | None",
    reporter: ProgressReporter,
    n_workers: int,
    config: EngineConfig,
) -> "list[tuple[str, TrialJob, int]]":
    """Execute over a process pool; returns jobs that still need running.

    Each trial attempt is one future running :func:`_execute_keyed`.  Jobs
    come back for the caller's serial fallback when pools cannot be
    created at all, when job payloads turn out unpicklable, or when the
    pool has died more than :data:`_POOL_RESTART_LIMIT` times.  Everything
    else — job errors, timeouts, single pool deaths — is absorbed here:
    completed results are committed the moment their future resolves (and
    salvaged from a broken pool's already-done futures), in-flight jobs
    lost to a pool death are charged one attempt and requeued, and the
    pool is rebuilt.
    """
    todo: "deque[tuple[str, TrialJob, int]]" = deque(pending)
    deferred: "list[tuple[float, str, TrialJob, int]]" = []  # (ready_at, ...)
    restarts = 0

    def leftover() -> "list[tuple[str, TrialJob, int]]":
        reporter.running = 0
        return list(todo) + [(k, j, a) for _, k, j, a in deferred]

    def attempt_failed(key: str, job: TrialJob, attempt: int, error: str, why: str) -> None:
        """Parent-side verdict on one failed attempt: defer a retry or fail."""
        if attempt < config.max_retries:
            telemetry.inc("engine.jobs.retried")
            reporter.job_retried(f"{job.describe()} ({why})")
            delay = backoff_seconds(key, attempt + 1, config.retry_backoff)
            # repro: allow[DET002] retry-backoff scheduling clock; results are key-derived regardless of timing
            deferred.append((time.monotonic() + delay, key, job, attempt + 1))
        else:
            telemetry.inc("engine.jobs.failed")
            results[key] = TrialResult(
                key=key, history=None, attempts=attempt + 1, error=error
            )
            reporter.job_failed(f"{job.describe()}: {error}")

    def absorb_result(key: str, job: TrialJob, attempt: int, returned) -> None:
        """Commit one future's outcome and merge its worker telemetry."""
        outcome, payload, events, counter_delta = returned
        telemetry.absorb_events(events)
        telemetry.absorb(counter_delta)
        if outcome == "ok":
            _record_success(
                key, job, attempt, payload, results, store, reporter
            )
        else:
            attempt_failed(key, job, attempt, str(payload), outcome)

    while todo or deferred:
        try:
            pool = ProcessPoolExecutor(
                max_workers=n_workers,
                mp_context=_mp_context(),
                initializer=_worker_init,
                initargs=(telemetry.enabled(),),
            )
        except (OSError, PermissionError, BrokenProcessPool, PicklingError):
            # Pools unavailable here (restricted sandbox) — run serially.
            return leftover()
        broken = False
        unpicklable = False
        futures: "dict[object, tuple[str, TrialJob, int]]" = {}
        try:
            while (todo or deferred or futures) and not broken:
                # repro: allow[DET002] backoff readiness check; scheduling only, never in results
                now = time.monotonic()
                still = []
                for ready_at, key, job, attempt in deferred:
                    if ready_at <= now:
                        todo.append((key, job, attempt))
                    else:
                        still.append((ready_at, key, job, attempt))
                deferred[:] = still
                while todo:
                    key, job, attempt = todo.popleft()
                    item = (
                        key,
                        job,
                        # repro: allow[DET002] submit timestamp feeds the queue-wait telemetry attribute only
                        time.time(),
                        attempt,
                        config.job_timeout,
                        config.faults,
                    )
                    try:
                        fut = pool.submit(_execute_keyed, item)
                    except (BrokenProcessPool, RuntimeError):
                        todo.appendleft((key, job, attempt))
                        broken = True
                        break
                    futures[fut] = (key, job, attempt)
                    reporter.job_started(job.describe())
                if broken:
                    break
                if not futures:
                    # Everything is backing off: sleep until the earliest.
                    if deferred:
                        earliest = min(r for r, *_ in deferred)
                        # repro: allow[DET002] sleep until the earliest backoff deadline; scheduling only
                        time.sleep(max(0.0, earliest - time.monotonic()))
                    continue
                wait_timeout = None
                if deferred:
                    earliest = min(r for r, *_ in deferred)
                    # repro: allow[DET002] wait timeout from the backoff deadline; scheduling only
                    wait_timeout = max(0.0, earliest - time.monotonic())
                done, _ = wait(
                    set(futures),
                    timeout=wait_timeout,
                    return_when=FIRST_COMPLETED,
                )
                for fut in done:
                    key, job, attempt = futures.pop(fut)
                    try:
                        returned = fut.result()
                    except BrokenProcessPool:
                        broken = True
                        attempt_failed(
                            key, job, attempt,
                            "worker process died", "worker died",
                        )
                    except PicklingError:
                        todo.appendleft((key, job, attempt))
                        unpicklable = True
                        broken = True
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BaseException as exc:
                        # Result-channel trouble for this one future; treat
                        # as a failed attempt, not pool death.
                        attempt_failed(
                            key, job, attempt,
                            f"{type(exc).__name__}: {exc}", "channel error",
                        )
                    else:
                        absorb_result(key, job, attempt, returned)
        except (KeyboardInterrupt, SystemExit):
            # Don't leave orphaned workers grinding after a Ctrl-C: the
            # shutdown below won't wait, so kill them explicitly.
            for proc in list((getattr(pool, "_processes", None) or {}).values()):
                proc.terminate()
            raise
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
        if not broken:
            return []
        if unpicklable:
            # Deterministic serialization failure: retrying through the
            # pool cannot help, so hand everything to the serial path.
            todo.extend(futures.values())
            return leftover()
        # The pool died.  Salvage futures that completed before the death
        # (their results are real — losing them was the old data-loss bug),
        # charge one attempt to every trial genuinely in flight, then
        # rebuild and resubmit.
        restarts += 1
        telemetry.inc("engine.pool.restarts")
        reporter.pool_restarted(restarts)
        for fut, (key, job, attempt) in list(futures.items()):
            if fut.done() and not fut.cancelled():
                try:
                    returned = fut.result()
                # repro: allow[EXC001] salvage probe on a dead pool's future; unsalvaged jobs are charged an attempt below
                except BaseException:
                    pass
                else:
                    absorb_result(key, job, attempt, returned)
                    continue
            attempt_failed(
                key, job, attempt, "worker process died", "worker died"
            )
        if restarts > _POOL_RESTART_LIMIT:
            telemetry.inc("engine.pool.degraded_serial")
            return leftover()
    return []


def run_jobs(
    jobs: "list[TrialJob]",
    config: "EngineConfig | None" = None,
    reporter: "ProgressReporter | None" = None,
) -> "tuple[dict[str, TrialResult], EngineStats]":
    """Execute (or load) every job; returns ``(key → TrialResult, stats)``.

    Duplicate specs in ``jobs`` are executed once.  ``config`` defaults to
    the ambient :func:`~repro.engine.context.current_engine`; ``stats``
    reports how many traces were freshly executed versus served from the
    store, plus retry/failure counts (the resume/fault-tolerance telemetry
    the CLI and tests assert on).  A job that fails permanently — its
    error, timeout, or worker crash survived ``config.max_retries``
    retries — yields a failed :class:`~repro.engine.jobs.TrialResult`
    rather than an exception, so one bad trial cannot abort a campaign.

    Completed results are committed to the store as they finish, and the
    ``finally`` path restores the progress line and sweeps temp files, so
    an interrupt (Ctrl-C) loses neither finished work nor the terminal.
    """
    config = config if config is not None else current_engine()
    unique: "OrderedDict[str, TrialJob]" = OrderedDict()
    for job in jobs:
        unique.setdefault(job.key(), job)
    store = ResultStore(config.cache_dir) if config.cache_dir else None
    own_reporter = reporter is None
    if own_reporter:
        reporter = ProgressReporter(
            total=len(unique),
            enabled=config.progress,
            force=config.progress_force,
        )

    results: "dict[str, TrialResult]" = {}
    try:
        with telemetry.span(
            "engine.run",
            run_id=run_id_for_keys(list(unique)),
            total=len(unique),
            workers=config.jobs,
        ):
            pending: "list[tuple[str, TrialJob, int]]" = []
            for key, job in unique.items():
                cached = store.get(key) if store is not None else None
                if cached is not None:
                    results[key] = TrialResult(
                        key=key, history=cached, attempts=0, cached=True
                    )
                    reporter.job_cached(job.describe())
                else:
                    pending.append((key, job, 0))

            n_workers = min(config.jobs, len(pending))
            if pending and n_workers > 1:
                pending = _run_parallel(
                    pending, results, store, reporter, n_workers, config
                )
            if pending:
                _run_serial(pending, results, store, reporter, config)
    finally:
        if store is not None:
            store.cleanup_tmp()
        if own_reporter:
            reporter.close()

    stats = EngineStats(
        total=len(unique),
        executed=reporter.executed,
        cached=reporter.cached,
        wall_time=reporter.elapsed(),
        failed=reporter.failed,
        retried=reporter.retried,
    )
    return results, stats
