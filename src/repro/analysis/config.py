"""Per-rule enable/severity/path configuration for the linter.

The default configuration encodes the repo's reproducibility contract:
which files are the *blessed homes* of otherwise-forbidden constructs
(``rng.py`` for RNG construction, ``engine/context.py``,
``forest/_cgrower.py`` and ``service/config.py`` for environment reads,
``engine/store.py`` for raw file writes, the telemetry/progress modules
for wall clocks) and
which trees are harness code where a rule does not apply (tests and
benchmarks may read clocks and environment variables; tests may write
scratch files and use free-form telemetry names).

Path patterns are :mod:`fnmatch` globs matched against ``"/" + path``
with ``/`` separators, so ``*/repro/rng.py`` matches that file at any
depth and regardless of the lint root.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from fnmatch import fnmatch
from pathlib import PurePath
from typing import Mapping

from repro.analysis.findings import SEVERITIES, LintUsageError

__all__ = [
    "RuleConfig",
    "LintConfig",
    "default_config",
    "permissive_config",
    "path_matches",
    "DEFAULT_EXCLUDES",
]

#: Trees the default walk skips entirely.  ``tests/fixtures`` holds the
#: deliberately-violating lint fixture package.
DEFAULT_EXCLUDES: tuple[str, ...] = (
    "*/tests/fixtures/*",
    "*/_cbuild/*",
    "*/.git/*",
    "*/__pycache__/*",
)


def path_matches(path: "str | PurePath", patterns: "tuple[str, ...]") -> bool:
    """Whether ``path`` matches any pattern (see module docstring)."""
    p = "/" + PurePath(path).as_posix().lstrip("/")
    return any(fnmatch(p, pattern) for pattern in patterns)


@dataclass(frozen=True)
class RuleConfig:
    """How one rule runs: on/off, its severity, and where it is waived.

    ``allow_paths`` are glob patterns naming files where the rule never
    fires — the contract's designated homes for the construct, plus
    harness trees where it does not apply.
    """

    enabled: bool = True
    severity: str = "error"
    allow_paths: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise LintUsageError(
                f"unknown severity {self.severity!r}; choose from {SEVERITIES}"
            )


@dataclass(frozen=True)
class LintConfig:
    """The full lint run configuration: per-rule settings plus excludes."""

    rules: "Mapping[str, RuleConfig]" = field(default_factory=dict)
    exclude: tuple[str, ...] = DEFAULT_EXCLUDES

    def rule(self, rule_id: str) -> RuleConfig:
        """Settings for ``rule_id`` (library default when unconfigured)."""
        return self.rules.get(rule_id, RuleConfig())

    def with_overrides(
        self,
        select: "tuple[str, ...] | None" = None,
        disable: tuple[str, ...] = (),
        severities: "Mapping[str, str] | None" = None,
    ) -> "LintConfig":
        """Apply CLI-style overrides; unknown rule ids raise."""
        from repro.analysis.rules import known_rule_ids

        known = known_rule_ids()
        for rule_id in (*(select or ()), *disable, *(severities or {})):
            if rule_id not in known:
                raise LintUsageError(
                    f"unknown rule id {rule_id!r} (known: {', '.join(known)})"
                )
        rules = dict(self.rules)
        for rule_id in known:
            cfg = rules.get(rule_id, RuleConfig())
            if select is not None:
                cfg = replace(cfg, enabled=rule_id in select)
            if rule_id in disable:
                cfg = replace(cfg, enabled=False)
            if severities and rule_id in severities:
                cfg = replace(cfg, severity=severities[rule_id])
            rules[rule_id] = cfg
        return replace(self, rules=rules)


def default_config() -> LintConfig:
    """The repo's reproducibility contract (see module docstring)."""
    harness = ("*/tests/*", "*/benchmarks/*", "*/examples/*")
    return LintConfig(
        rules={
            "DET001": RuleConfig(allow_paths=("*/repro/rng.py",)),
            "DET002": RuleConfig(
                allow_paths=(
                    "*/repro/telemetry/*",
                    "*/repro/engine/progress.py",
                    *harness,
                )
            ),
            "DET003": RuleConfig(),
            "DET004": RuleConfig(
                allow_paths=(
                    "*/repro/engine/context.py",
                    "*/repro/forest/_cgrower.py",
                    "*/repro/service/config.py",
                    *harness,
                )
            ),
            "SPAWN001": RuleConfig(),
            "TEL001": RuleConfig(allow_paths=harness),
            "IO001": RuleConfig(
                allow_paths=("*/repro/engine/store.py", *harness)
            ),
            "EXC001": RuleConfig(),
            # rng.py is where underived generators are *made* — every
            # construction inside it would otherwise be its own source.
            "FLOW001": RuleConfig(allow_paths=("*/repro/rng.py", *harness)),
            "FLOW002": RuleConfig(allow_paths=harness),
            "RACE001": RuleConfig(allow_paths=harness),
            "RACE002": RuleConfig(allow_paths=harness),
            "ARCH001": RuleConfig(allow_paths=harness),
        },
    )


def permissive_config() -> LintConfig:
    """Every rule on everywhere: no allowlists, no excludes.

    This is what the fixture tests run, so seeded violations fire even
    though the fixture package lives under ``tests/fixtures/``.
    """
    return LintConfig(rules={}, exclude=())
