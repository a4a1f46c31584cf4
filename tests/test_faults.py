"""Chaos suite: fault injection, retries, crash recovery, journal durability.

Every chaos test asserts the engine's core promise: deterministic faults
(crash/hang/exception/slow, keyed off the job key) are survived via
retries and pool rebuilds, and the surviving run is **bit-identical** to a
fault-free run — same job keys, same final histories.
"""

import json
import os
import shutil
from pathlib import Path

import pytest

from repro.engine import (
    EngineConfig,
    EngineJobError,
    JobTimeout,
    ResultStore,
    TrialResult,
    plan_from_spec,
    run_jobs,
    trial_jobs,
)
from repro.engine.executor import backoff_seconds, execute_job
from repro.engine.faults import (
    FaultRule,
    InjectedFault,
    SimulatedCrash,
    fault_roll,
)
from repro.engine.store import STORE_SCHEMA_VERSION
from repro.experiments.config import ExperimentScale
from repro.experiments.runner import strategy_trace
from repro.telemetry import counters


@pytest.fixture
def two_trial_scale() -> ExperimentScale:
    """Tiny scale with two trials, so retries have something to retry."""
    return ExperimentScale(
        name="tiny2",
        pool_size=150,
        test_size=120,
        n_init=8,
        n_batch=1,
        n_max=16,
        n_trials=2,
        eval_every=4,
        n_estimators=8,
    )


def _cfg(**kw) -> EngineConfig:
    kw.setdefault("progress", False)
    kw.setdefault("retry_backoff", 0.01)
    return EngineConfig(**kw)


def _histories(results):
    return {k: r.history.records for k, r in results.items()}


@pytest.fixture
def baseline(two_trial_scale):
    """Fault-free reference results for the standard 4-job batch."""
    jobs = trial_jobs("mvt", "pwu", two_trial_scale, seed=0) + trial_jobs(
        "mvt", "random", two_trial_scale, seed=0
    )
    results, _ = run_jobs(jobs, config=_cfg(jobs=1))
    return jobs, _histories(results)


class TestFaultPlan:
    def test_empty_specs_are_noop_plans(self):
        assert not plan_from_spec(None)
        assert not plan_from_spec("")
        assert not plan_from_spec("   ")

    def test_parse_full_grammar(self):
        plan = plan_from_spec("crash:0.2,hang:0.1:2:30,exc:0.5:3,slow:1.0")
        kinds = [r.kind for r in plan.rules]
        assert kinds == ["crash", "hang", "exc", "slow"]
        hang = plan.rules[1]
        assert (hang.rate, hang.times, hang.seconds) == (0.1, 2, 30.0)
        assert plan.rules[2].times == 3
        assert plan.rules[0].times == 1  # default: first attempt only

    @pytest.mark.parametrize(
        "spec",
        ["boom:0.5", "crash", "crash:nope", "crash:0.5:1:2:3", "exc:1.5"],
    )
    def test_malformed_specs_fail_fast(self, spec):
        with pytest.raises(ValueError):
            plan_from_spec(spec)

    def test_roll_is_deterministic_and_kind_scoped(self):
        key = "a" * 64
        assert fault_roll("exc", key) == fault_roll("exc", key)
        assert fault_roll("exc", key) != fault_roll("crash", key)
        assert 0.0 <= fault_roll("exc", key) < 1.0

    def test_fires_gates_on_rate_and_attempt(self):
        key = "b" * 64
        always = FaultRule(kind="exc", rate=1.0, times=2)
        never = FaultRule(kind="exc", rate=0.0)
        assert always.fires(key, 0) and always.fires(key, 1)
        assert not always.fires(key, 2)  # beyond `times`: retried job heals
        assert not never.fires(key, 0)

    def test_apply_raises_the_right_faults(self):
        key = "c" * 64
        with pytest.raises(InjectedFault):
            plan_from_spec("exc:1.0").apply(key, 0)
        with pytest.raises(SimulatedCrash):
            # Serial path: a crash must not kill the experiment process.
            plan_from_spec("crash:1.0").apply(key, 0)
        plan_from_spec("slow:1.0:1:0.0").apply(key, 0)  # falls through
        plan_from_spec("exc:1.0").apply(key, 1)  # attempt past `times`


class TestBackoff:
    def test_deterministic_with_jitter_bounds(self):
        key = "d" * 64
        assert backoff_seconds(key, 1, 0.1) == backoff_seconds(key, 1, 0.1)
        for attempt in (1, 2, 3):
            delay = backoff_seconds(key, attempt, 0.1)
            base = 0.1 * 2 ** (attempt - 1)
            assert 0.5 * base <= delay < 1.5 * base

    def test_zero_base_and_cap(self):
        key = "e" * 64
        assert backoff_seconds(key, 3, 0.0) == 0.0
        assert backoff_seconds(key, 0, 1.0) == 0.0
        assert backoff_seconds(key, 40, 10.0) <= 30.0


class TestRetrySemantics:
    def test_injected_exception_is_retried_to_identical_results(
        self, baseline
    ):
        jobs, expect = baseline
        before = counters.value("engine.jobs.retried")
        results, stats = run_jobs(jobs, config=_cfg(jobs=1, faults="exc:1.0"))
        assert stats.retried == len(jobs)
        assert stats.failed == 0
        assert _histories(results) == expect
        assert counters.value("engine.jobs.retried") - before == len(jobs)

    def test_exhausted_retries_record_failed_trialresult(
        self, two_trial_scale
    ):
        jobs = trial_jobs("mvt", "pwu", two_trial_scale, seed=0)
        results, stats = run_jobs(
            jobs, config=_cfg(jobs=1, faults="exc:1.0:99", max_retries=1)
        )
        assert stats.failed == len(jobs)
        assert stats.retried == len(jobs)  # one retry each before giving up
        for job in jobs:
            res = results[job.key()]
            assert isinstance(res, TrialResult)
            assert not res.ok and res.history is None
            assert res.attempts == 2
            assert "injected exception" in res.error
            with pytest.raises(EngineJobError):
                res.unwrap()

    def test_failure_does_not_abort_healthy_siblings(self, two_trial_scale):
        """One pathological job must not take the batch down with it."""
        jobs = trial_jobs("mvt", "pwu", two_trial_scale, seed=0)
        rolls = sorted(fault_roll("exc", j.key()) for j in jobs)
        rate = (rolls[0] + rolls[1]) / 2  # afflicts exactly one of the two
        results, stats = run_jobs(
            jobs,
            config=_cfg(jobs=1, faults=f"exc:{rate}:99", max_retries=0),
        )
        assert stats.failed == 1 and stats.executed == 1
        assert sorted(r.ok for r in results.values()) == [False, True]

    def test_runner_surfaces_permanent_failures(self, two_trial_scale):
        with pytest.raises(EngineJobError, match="failed permanently"):
            strategy_trace(
                "mvt",
                "pwu",
                two_trial_scale,
                seed=0,
                engine=_cfg(jobs=1, faults="exc:1.0:99", max_retries=0),
            )


class TestTimeouts:
    def test_hang_is_timed_out_and_retried(self, baseline):
        jobs, expect = baseline
        before = counters.value("engine.jobs.timeouts")
        results, stats = run_jobs(
            jobs,
            config=_cfg(jobs=1, faults="hang:1.0:1:60", job_timeout=0.5),
        )
        assert stats.retried == len(jobs) and stats.failed == 0
        assert _histories(results) == expect
        assert counters.value("engine.jobs.timeouts") - before == len(jobs)

    def test_hang_timeout_parallel(self, baseline):
        jobs, expect = baseline
        results, stats = run_jobs(
            jobs,
            config=_cfg(jobs=2, faults="hang:1.0:1:60", job_timeout=0.5),
        )
        assert stats.failed == 0
        assert _histories(results) == expect

    def test_timeout_exhaustion_reports_timeout_error(self, two_trial_scale):
        jobs = trial_jobs("mvt", "pwu", two_trial_scale, seed=0)[:1]
        results, stats = run_jobs(
            jobs,
            config=_cfg(
                jobs=1, faults="hang:1.0:99:60", job_timeout=0.3, max_retries=0
            ),
        )
        res = results[jobs[0].key()]
        assert not res.ok and "wall-clock limit" in res.error

    def test_jobtimeout_is_a_timeout_error(self):
        assert issubclass(JobTimeout, TimeoutError)


class TestCrashRecovery:
    def test_serial_crash_is_simulated_and_retried(self, baseline):
        jobs, expect = baseline
        results, stats = run_jobs(jobs, config=_cfg(jobs=1, faults="crash:1.0"))
        assert stats.failed == 0 and stats.retried == len(jobs)
        assert _histories(results) == expect

    def test_pool_death_recovery_bit_identical(self, baseline):
        """Workers dying hard mid-run: rebuild, requeue, finish, identical."""
        jobs, expect = baseline
        before = counters.value("engine.pool.restarts")
        results, stats = run_jobs(jobs, config=_cfg(jobs=2, faults="crash:1.0"))
        assert stats.failed == 0
        assert _histories(results) == expect
        assert counters.value("engine.pool.restarts") > before

    def test_chaos_cocktail_matches_fault_free_at_any_jobs(self, baseline):
        """The acceptance bar: mixed faults, serial and parallel, identical."""
        jobs, expect = baseline
        spec = "crash:0.4,exc:0.4,slow:0.3:1:0.05"
        for n in (1, 2):
            results, stats = run_jobs(
                jobs, config=_cfg(jobs=n, faults=spec, max_retries=3)
            )
            assert stats.failed == 0, f"jobs={n}"
            assert _histories(results) == expect, f"jobs={n}"

    def test_parallel_run_leaves_no_dev_shm_entries(self, baseline):
        """A pool run, with or without worker deaths, litters no /dev/shm."""
        shm_dir = Path("/dev/shm")
        if not shm_dir.is_dir():
            pytest.skip("no /dev/shm on this platform")
        jobs, expect = baseline
        before = {p.name for p in shm_dir.iterdir()}
        for faults in (None, "crash:1.0"):
            results, _ = run_jobs(jobs, config=_cfg(jobs=2, faults=faults))
            assert _histories(results) == expect
        assert {p.name for p in shm_dir.iterdir()} - before == set()

    def test_completed_results_survive_pool_death(
        self, tmp_path, two_trial_scale
    ):
        """The data-loss bugfix: work finished before a pool death is kept.

        With a crash fault afflicting only one job of four, the survivors'
        results must be committed to the store even though the pool broke
        while they were in flight or queued.
        """
        jobs = trial_jobs("mvt", "pwu", two_trial_scale, seed=0) + trial_jobs(
            "mvt", "random", two_trial_scale, seed=0
        )
        rolls = sorted((fault_roll("crash", j.key()), j) for j in jobs)
        rate = (rolls[0][0] + rolls[1][0]) / 2  # exactly one job crashes
        store_dir = tmp_path / "store"
        results, stats = run_jobs(
            jobs,
            config=_cfg(jobs=2, faults=f"crash:{rate}", cache_dir=str(store_dir)),
        )
        assert stats.failed == 0
        assert sorted(ResultStore(store_dir).keys()) == sorted(
            j.key() for j in jobs
        )


class TestResumeAfterFailure:
    @pytest.mark.parametrize("n_jobs", [1, 2])
    def test_killed_run_resumes_from_journal_bit_identical(
        self, tmp_path, two_trial_scale, baseline, n_jobs
    ):
        """Satellite: a run 'killed' partway (some jobs failing permanently)
        resumes from the journal — remaining job keys and final histories
        are bit-identical to an uninterrupted run, at --jobs 1 and 2."""
        jobs, expect = baseline
        rolls = sorted((fault_roll("exc", j.key()), j) for j in jobs)
        # Permanently fail the two most-afflicted jobs, succeed the rest.
        rate = (rolls[1][0] + rolls[2][0]) / 2
        store_dir = tmp_path / f"store{n_jobs}"
        results, stats = run_jobs(
            jobs,
            config=_cfg(
                jobs=n_jobs,
                faults=f"exc:{rate}:99",
                max_retries=1,
                cache_dir=str(store_dir),
            ),
        )
        assert stats.failed == 2 and stats.executed == 2

        # The journal holds exactly the completed jobs; the remaining job
        # keys are exactly the failed ones — deterministically.
        store = ResultStore(store_dir)
        done_keys = set(store.keys())
        remaining = sorted(j.key() for j in jobs if j.key() not in done_keys)
        expected_remaining = sorted(
            j.key() for j in jobs if not results[j.key()].ok
        )
        assert remaining == expected_remaining

        # Fault-free resume: cached jobs served from the journal, the rest
        # executed; the union is bit-identical to the fault-free baseline.
        resumed, rstats = run_jobs(
            jobs, config=_cfg(jobs=n_jobs, cache_dir=str(store_dir))
        )
        assert rstats.cached == 2 and rstats.executed == 2
        assert rstats.failed == 0
        assert _histories(resumed) == expect


class TestJournalDurability:
    def _put_one(self, root, job):
        store = ResultStore(root)
        history = execute_job(job)
        store.put(job, history)
        return store, history

    def test_torn_tail_never_loses_committed_entries(
        self, tmp_path, two_trial_scale
    ):
        """kill -9 mid-append == truncated tail; every committed entry
        survives truncation at every byte position of the torn record."""
        j0, j1 = trial_jobs("mvt", "random", two_trial_scale, seed=0)
        store = ResultStore(tmp_path)
        h0 = execute_job(j0)
        store.put(j0, h0)
        store.put(j1, execute_job(j1))
        size = store.journal_path.stat().st_size
        first_len = store._index[j0.key()][2]
        backup = tmp_path / "journal.bak"
        shutil.copy(store.journal_path, backup)
        for cut in range(first_len, size, 37):  # sample positions
            shutil.copy(backup, store.journal_path)
            with open(store.journal_path, "ab") as fh:
                fh.truncate(cut)
            reopened = ResultStore(tmp_path)
            got = reopened.get(j0.key())
            assert got is not None and got.records == h0.records, cut
        backup.unlink()

    def test_mid_file_corruption_skips_only_the_bad_line(
        self, tmp_path, two_trial_scale
    ):
        j0, j1 = trial_jobs("mvt", "random", two_trial_scale, seed=0)
        store = ResultStore(tmp_path)
        store.put(j0, execute_job(j0))
        h1 = execute_job(j1)
        store.put(j1, h1)
        lines = store.journal_path.read_bytes().splitlines(keepends=True)
        lines[0] = b'{"garbage": tru\n'
        store.journal_path.write_bytes(b"".join(lines))
        reopened = ResultStore(tmp_path)
        assert reopened.get(j0.key()) is None
        assert reopened.get(j1.key()).records == h1.records

    def test_put_fsyncs_before_acknowledging(
        self, tmp_path, two_trial_scale, monkeypatch
    ):
        """The satellite bugfix: a write is only committed after fsync."""
        synced = []
        real_fsync = os.fsync
        monkeypatch.setattr(
            os, "fsync", lambda fd: (synced.append(fd), real_fsync(fd))[1]
        )
        job = trial_jobs("mvt", "random", two_trial_scale, seed=0)[0]
        store = ResultStore(tmp_path)
        synced.clear()
        store.put(job, execute_job(job))
        assert synced, "put() returned without fsync"

    def test_compact_fsyncs_tmp_before_replace(
        self, tmp_path, two_trial_scale, monkeypatch
    ):
        """fsync-before-replace ordering: the rename may never publish
        un-flushed bytes."""
        job = trial_jobs("mvt", "random", two_trial_scale, seed=0)[0]
        store, history = self._put_one(tmp_path, job)
        store.put(job, history)  # create a dead line worth compacting
        events = []
        real_fsync, real_replace = os.fsync, os.replace
        monkeypatch.setattr(
            os, "fsync", lambda fd: (events.append("fsync"), real_fsync(fd))[1]
        )
        monkeypatch.setattr(
            os,
            "replace",
            lambda a, b: (events.append("replace"), real_replace(a, b))[1],
        )
        store.compact()
        assert "fsync" in events and "replace" in events
        assert events.index("fsync") < events.index("replace")
        assert store.get(job.key()).records == history.records

    def test_temp_files_never_observable(self, tmp_path, two_trial_scale):
        """Staging files are invisible to the store API and swept on close."""
        job = trial_jobs("mvt", "random", two_trial_scale, seed=0)[0]
        store, _ = self._put_one(tmp_path, job)
        store.compact()
        assert not list(Path(tmp_path).glob(".tmp-*"))
        (tmp_path / ".tmp-stray.jsonl").write_text("junk")
        assert store.keys() == [job.key()]  # tmp never listed
        assert ResultStore(tmp_path).keys() == [job.key()]
        assert store.cleanup_tmp() == 1
        assert not list(Path(tmp_path).glob(".tmp-*"))

    def test_legacy_per_key_files_migrate_transparently(
        self, tmp_path, two_trial_scale
    ):
        job = trial_jobs("mvt", "random", two_trial_scale, seed=0)[0]
        history = execute_job(job)
        legacy = {
            "store_schema": STORE_SCHEMA_VERSION,
            "key": job.key(),
            "job": job.spec(),
            "history": history.to_dict(),
        }
        legacy_path = tmp_path / f"{job.key()}.json"
        legacy_path.write_text(json.dumps(legacy), encoding="utf-8")
        store = ResultStore(tmp_path)
        assert store.get(job.key()).records == history.records
        assert not legacy_path.exists(), "legacy artifact not absorbed"
        assert store.journal_path.exists()
        # And the migrated journal round-trips through a fresh open.
        assert ResultStore(tmp_path).get(job.key()).records == history.records

    def test_compaction_drops_dead_lines_losslessly(
        self, tmp_path, two_trial_scale
    ):
        job = trial_jobs("mvt", "random", two_trial_scale, seed=0)[0]
        store, history = self._put_one(tmp_path, job)
        for _ in range(4):
            store.put(job, history)
        before = store.journal_path.stat().st_size
        store.compact()
        assert store.journal_path.stat().st_size < before
        assert store.get(job.key()).records == history.records
        assert len(ResultStore(tmp_path)) == 1


class TestInterruptCleanup:
    def test_interrupt_flushes_store_and_restores_terminal(
        self, tmp_path, two_trial_scale, monkeypatch, capsys
    ):
        """Satellite: Ctrl-C mid-run keeps finished work, sweeps temp files,
        and leaves the progress line closed out."""
        import repro.engine.executor as executor

        jobs = trial_jobs("mvt", "random", two_trial_scale, seed=0)
        real = executor.execute_job
        ran = []

        def interrupt_second(job):
            if ran:
                raise KeyboardInterrupt
            ran.append(job)
            return real(job)

        monkeypatch.setattr(executor, "execute_job", interrupt_second)
        (tmp_path / ".tmp-leak.jsonl").write_text("junk")
        with pytest.raises(KeyboardInterrupt):
            run_jobs(
                jobs,
                config=EngineConfig(
                    jobs=1, cache_dir=str(tmp_path), progress=True
                ),
            )
        # Finished-before-interrupt work is durably stored...
        assert len(ResultStore(tmp_path)) == 1
        # ...temp files are swept...
        assert not list(Path(tmp_path).glob(".tmp-*"))
        # ...and the reporter still printed its (never-throttled) summary.
        assert "completed" in capsys.readouterr().err

    def test_tty_transient_line_is_restored_on_close(self):
        import io

        from repro.engine import ProgressReporter

        class Tty(io.StringIO):
            def isatty(self):
                return True

        stream = Tty()
        rep = ProgressReporter(total=2, enabled=True, stream=stream, min_interval=0.0)
        rep.job_started("a")
        assert "\r" in stream.getvalue()
        assert not stream.getvalue().endswith("\n")
        rep.job_finished("a")
        rep.close()
        out = stream.getvalue()
        # The transient line was finished with a newline before the summary,
        # and the summary line itself ends the output cleanly.
        assert "\n[engine] completed" in out and out.endswith("\n")

    def test_close_is_idempotent(self, capsys):
        from repro.engine import ProgressReporter

        rep = ProgressReporter(total=1, enabled=True, min_interval=0.0)
        rep.job_started("a")
        rep.job_finished("a")
        rep.close()
        rep.close()
        assert capsys.readouterr().err.count("completed") == 1


class TestFailureTelemetry:
    def test_failure_and_retry_counters_flow_to_snapshot(self, two_trial_scale):
        jobs = trial_jobs("mvt", "pwu", two_trial_scale, seed=0)[:1]
        before_r = counters.value("engine.jobs.retried")
        before_f = counters.value("engine.jobs.failed")
        before_e = counters.value("engine.faults.exc")
        run_jobs(jobs, config=_cfg(jobs=1, faults="exc:1.0:99", max_retries=2))
        assert counters.value("engine.jobs.retried") - before_r == 2
        assert counters.value("engine.jobs.failed") - before_f == 1
        assert counters.value("engine.faults.exc") - before_e == 3

    def test_stats_expose_fault_tolerance_fields(self, two_trial_scale):
        jobs = trial_jobs("mvt", "pwu", two_trial_scale, seed=0)[:1]
        _, stats = run_jobs(jobs, config=_cfg(jobs=1))
        assert (stats.failed, stats.retried) == (0, 0)
