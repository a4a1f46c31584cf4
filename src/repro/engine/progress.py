"""Lightweight progress and telemetry for engine runs.

The reporter counts job lifecycle events (queued → running → done, plus
cache hits, retries, permanent failures, and pool restarts) and renders a
throttled one-line status to stderr::

    [engine] 12/40 done (3 cached, 4 running) | 2.1 jobs/s

It is deliberately dependency-free and cheap: a handful of integer counters
and a monotonic clock, so it can wrap the hot scheduling loop without
perturbing timings.  The final summary line always prints (even with
throttling), making cache-hit and failure counts visible in CI logs — the
acceptance signal for resume and fault-tolerance semantics.

On a TTY the status line is transient: updates redraw in place with a
carriage return and the line is erased-and-finalised by :meth:`close`,
which runs on the engine's ``finally`` path — so a Ctrl-C mid-run cannot
leave a half-drawn status line under the user's prompt.  When the stream
is *not* a TTY (CI logs, daemon stderr, pytest capture) the per-update
lines are suppressed entirely — a long-running daemon must not flood its
log with redraw spam — and only the final summary prints.  Pass
``force=True`` (CLI ``--progress``, ``REPRO_PROGRESS=force``) to restore
plain full per-update lines on a non-TTY stream.

The lifecycle events also feed the unified metric namespace in
:mod:`repro.telemetry.counters` (``engine.jobs.executed``,
``engine.store.resume_hits``), so engine accounting lands in the same
export as the forest/learner counters instead of living only in this
reporter's private integers.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field

from repro.telemetry import counters

__all__ = ["ProgressReporter", "EngineStats"]


@dataclass(frozen=True)
class EngineStats:
    """Summary telemetry of one :func:`~repro.engine.executor.run_jobs` call."""

    total: int
    executed: int
    cached: int
    wall_time: float
    #: Jobs that exhausted retries and were recorded as failed TrialResults.
    failed: int = 0
    #: Attempt-level retries performed across all jobs.
    retried: int = 0

    @property
    def jobs_per_sec(self) -> float:
        """Completed jobs (executed + cached) per wall-clock second."""
        if self.wall_time <= 0:
            return float("inf") if self.total else 0.0
        return self.total / self.wall_time


@dataclass
class ProgressReporter:
    """Counts engine events and renders throttled status lines to stderr."""

    total: int = 0
    enabled: bool = True
    stream: object = None
    #: Minimum seconds between status lines (the summary is never throttled).
    min_interval: float = 0.5
    #: Emit per-update lines even when the stream is not a TTY (daemon and
    #: CI logs stay summary-only by default).
    force: bool = False

    done: int = field(default=0, init=False)
    cached: int = field(default=0, init=False)
    executed: int = field(default=0, init=False)
    running: int = field(default=0, init=False)
    failed: int = field(default=0, init=False)
    retried: int = field(default=0, init=False)
    pool_restarts: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.stream is None:
            self.stream = sys.stderr
        self._t0 = time.monotonic()
        self._last_emit = 0.0
        self._closed = False
        #: True while a transient (carriage-return) line is on screen.
        self._line_dirty = False
        try:
            self._tty = bool(self.stream.isatty())
        except (AttributeError, ValueError):
            self._tty = False

    # -- events ------------------------------------------------------------
    def job_started(self, label: str = "") -> None:
        """A job attempt was handed to a worker (or the serial loop)."""
        self.running += 1
        self._emit(f"running {label}" if label else None)

    def job_cached(self, label: str = "") -> None:
        """A job was satisfied from the result store without executing."""
        self.done += 1
        self.cached += 1
        counters.inc("engine.store.resume_hits")
        self._emit(f"cache hit {label}" if label else None)

    def job_finished(self, label: str = "") -> None:
        """A job finished executing (its trace is now available)."""
        self.running = max(0, self.running - 1)
        self.done += 1
        self.executed += 1
        counters.inc("engine.jobs.executed")
        self._emit(f"finished {label}" if label else None)

    def job_retried(self, label: str = "") -> None:
        """An attempt failed (error/timeout/crash) and will be retried."""
        self.running = max(0, self.running - 1)
        self.retried += 1
        self._emit(f"retrying {label}" if label else "retrying")

    def job_failed(self, label: str = "") -> None:
        """A job exhausted its retries; a failed TrialResult was recorded."""
        self.running = max(0, self.running - 1)
        self.done += 1
        self.failed += 1
        self._emit(f"FAILED {label}" if label else "FAILED", force=True)

    def pool_restarted(self, count: int) -> None:
        """The worker pool died and was rebuilt (in-flight jobs requeued)."""
        self.pool_restarts = count
        self._emit(f"worker pool died, rebuilding (restart {count})", force=True)

    # -- rendering ---------------------------------------------------------
    def elapsed(self) -> float:
        """Wall-clock seconds since the reporter was created."""
        return time.monotonic() - self._t0

    def stats(self) -> EngineStats:
        """Snapshot of the counters as :class:`EngineStats`."""
        return EngineStats(
            total=self.done,
            executed=self.executed,
            cached=self.cached,
            wall_time=self.elapsed(),
            failed=self.failed,
            retried=self.retried,
        )

    def _line(self, note: "str | None" = None) -> str:
        elapsed = max(self.elapsed(), 1e-9)
        rate = self.done / elapsed
        line = (
            f"[engine] {self.done}/{self.total} done "
            f"({self.cached} cached, {self.running} running) | "
            f"{rate:.1f} trials/s"
        )
        if self.failed:
            line += f" | {self.failed} failed"
        if self.retried:
            line += f" | {self.retried} retried"
        if note:
            line += f" | {note}"
        return line

    def _emit(self, note: "str | None" = None, force: bool = False) -> None:
        if not self.enabled or self._closed:
            return
        if not self._tty and not self.force:
            # Non-TTY without --progress: intermediate updates are noise
            # in daemon/CI logs; the close() summary still prints.
            return
        now = time.monotonic()
        if not force and now - self._last_emit < self.min_interval:
            return
        self._last_emit = now
        if self._tty:
            # Redraw in place; \x1b[K clears any longer previous line.
            self.stream.write(f"\r{self._line(note)}\x1b[K")
            self.stream.flush()
            self._line_dirty = True
        else:
            print(self._line(note), file=self.stream, flush=True)

    def restore_line(self) -> None:
        """Finish any transient status line so the cursor is on a fresh line.

        Safe to call repeatedly and from ``finally`` paths: it only writes
        when a carriage-return line is actually pending.
        """
        if self._line_dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._line_dirty = False

    def close(self) -> None:
        """Restore the terminal line and print the final summary (once).

        Runs on the engine's ``finally`` path, so it also executes after a
        ``KeyboardInterrupt`` — the summary then reflects whatever had
        completed before the interrupt.
        """
        if self._closed:
            return
        self._closed = True
        if not self.enabled:
            return
        self.restore_line()
        stats = self.stats()
        line = (
            f"[engine] completed {stats.total} jobs in {stats.wall_time:.1f}s"
            f" — executed {stats.executed}, cache hits {stats.cached}"
        )
        if stats.failed:
            line += f", failed {stats.failed}"
        if stats.retried:
            line += f", retries {stats.retried}"
        if self.pool_restarts:
            line += f", pool restarts {self.pool_restarts}"
        line += f" ({stats.jobs_per_sec:.1f} jobs/s)"
        print(line, file=self.stream, flush=True)
