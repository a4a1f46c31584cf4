"""Ambient engine configuration.

The experiment layer is called from many entry points (CLI subcommands, the
pytest benchmark harness, examples, library users), and threading
``--jobs``/``--cache-dir`` through every figure-driver signature would leak
scheduling concerns into the science code.  Instead, an
:class:`EngineConfig` is installed as ambient context: entry points wrap
their work in :func:`use_engine`, and :func:`~repro.experiments.runner`
picks up :func:`current_engine` automatically.  A :mod:`contextvars` var
keeps the setting task/thread-local, and the fallback reads the
``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` environment variables so the benchmark
harness scales without code changes.
"""

from __future__ import annotations

import contextlib
import contextvars
import os
from dataclasses import dataclass

__all__ = ["EngineConfig", "engine_from_env", "current_engine", "use_engine"]


@dataclass(frozen=True)
class EngineConfig:
    """How the engine schedules, persists, and fault-protects trial jobs.

    ``jobs`` is the worker-process count (1 = serial in-process execution);
    ``cache_dir`` enables the persistent result store; ``progress`` controls
    stderr telemetry.

    The fault-tolerance knobs: ``max_retries`` is how many times a failed
    (errored, timed-out, or crash-lost) job is re-attempted before it is
    recorded as a failed :class:`~repro.engine.jobs.TrialResult`;
    ``job_timeout`` is the per-attempt wall-clock limit in seconds (``None``
    disables it); ``retry_backoff`` is the base of the exponential
    backoff between attempts (the delay for attempt *k* is
    ``retry_backoff * 2**(k-1)`` scaled by a deterministic jitter in
    ``[0.5, 1.5)`` derived from the job key); ``faults`` is the chaos
    spec injected into every attempt (see :mod:`repro.engine.faults`).
    """

    jobs: int = 1
    cache_dir: "str | None" = None
    progress: bool = True
    #: Emit per-update progress lines even on a non-TTY stderr (by default
    #: non-TTY runs print only the final summary; see engine/progress.py).
    progress_force: bool = False
    max_retries: int = 2
    job_timeout: "float | None" = None
    retry_backoff: float = 0.1
    faults: "str | None" = None

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError(f"jobs must be >= 1, got {self.jobs}")
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.job_timeout is not None and self.job_timeout <= 0:
            raise ValueError(
                f"job_timeout must be positive or None, got {self.job_timeout}"
            )
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )


_CONTEXT: contextvars.ContextVar["EngineConfig | None"] = contextvars.ContextVar(
    "repro_engine_config", default=None
)


def engine_from_env() -> EngineConfig:
    """Engine settings from the ``REPRO_*`` environment variables.

    ``REPRO_JOBS`` / ``REPRO_CACHE_DIR`` / ``REPRO_PROGRESS`` configure
    scheduling and persistence (``REPRO_PROGRESS=0`` silences stderr
    telemetry; ``REPRO_PROGRESS=force`` emits per-update lines even when
    stderr is not a TTY); ``REPRO_MAX_RETRIES`` / ``REPRO_JOB_TIMEOUT`` /
    ``REPRO_RETRY_BACKOFF`` configure fault tolerance; ``REPRO_FAULTS``
    injects deterministic chaos faults (see :mod:`repro.engine.faults`).
    Unset variables fall back to the dataclass defaults.
    """
    jobs = int(os.environ.get("REPRO_JOBS", "1"))
    cache_dir = os.environ.get("REPRO_CACHE_DIR") or None
    progress_raw = os.environ.get("REPRO_PROGRESS", "1")
    progress = progress_raw != "0"
    progress_force = progress_raw == "force"
    max_retries = int(os.environ.get("REPRO_MAX_RETRIES", "2"))
    timeout_raw = os.environ.get("REPRO_JOB_TIMEOUT") or None
    job_timeout = float(timeout_raw) if timeout_raw else None
    retry_backoff = float(os.environ.get("REPRO_RETRY_BACKOFF", "0.1"))
    faults = os.environ.get("REPRO_FAULTS") or None
    return EngineConfig(
        jobs=jobs,
        cache_dir=cache_dir,
        progress=progress,
        progress_force=progress_force,
        max_retries=max_retries,
        job_timeout=job_timeout,
        retry_backoff=retry_backoff,
        faults=faults,
    )


def current_engine() -> EngineConfig:
    """The ambient engine config: the innermost :func:`use_engine`, else env."""
    config = _CONTEXT.get()
    return config if config is not None else engine_from_env()


@contextlib.contextmanager
def use_engine(config: EngineConfig):
    """Install ``config`` as the ambient engine for the enclosed block."""
    token = _CONTEXT.set(config)
    try:
        yield config
    finally:
        _CONTEXT.reset(token)
