"""The lint driver: walk files, run rules, apply suppressions and baseline.

:func:`lint_paths` is the single entry point used by the CLI, the
pytest gate, and the fixture tests.  The walk is fully deterministic —
files are discovered with a sorted traversal, findings are sorted by
``(file, line, col, rule)`` — because the linter polices a determinism
contract and must honour it itself.

Each file is read, parsed and walked once (:class:`ModuleContext`).  Its
context, suppression table and statement spans then serve two passes:

* the **module pass** runs every per-module rule over the file;
* the **project pass** builds the whole-program
  :class:`~repro.analysis.graph.ProjectGraph` over every context and
  runs the FLOW/RACE/ARCH family, which needs every module at once.

``changed`` narrows only the report: both passes still see the whole
walk, so a changed file's whole-program findings stay exact.

Suppression markers anchor to *statements*, not physical lines: a
finding reported inside a multi-line statement is covered by a marker
on (or directly above) the statement's first line, as well as by one on
or directly above the reported line itself.
"""

from __future__ import annotations

import ast
import gc
import os
from dataclasses import dataclass, field
from pathlib import Path

from repro.analysis.baseline import apply_baseline, load_baseline
from repro.analysis.config import LintConfig, default_config, path_matches
from repro.analysis.findings import Finding, LintUsageError
from repro.analysis.graph import build_project_graph
from repro.analysis.rules import module_rules, project_rules
from repro.analysis.suppress import Suppression, parse_suppressions
from repro.analysis.symbols import ModuleContext

__all__ = [
    "LintResult",
    "lint_paths",
    "iter_python_files",
    "build_graph_for_paths",
    "statement_spans",
    "find_suppression",
]


@dataclass
class LintResult:
    """Outcome of one lint run."""

    findings: "list[Finding]" = field(default_factory=list)
    suppressed: "list[tuple[str, Suppression]]" = field(default_factory=list)
    baselined: int = 0
    files_scanned: int = 0
    config: LintConfig = field(default_factory=default_config)

    @property
    def errors(self) -> "list[Finding]":
        """Findings at ``error`` severity — the ones that fail the run."""
        return [f for f in self.findings if f.severity == "error"]

    @property
    def exit_code(self) -> int:
        """0 when no error-severity findings survived, else 1."""
        return 1 if self.errors else 0


def iter_python_files(
    paths: "list[str]", exclude: tuple = ()
) -> "list[tuple[Path, str]]":
    """``(absolute_path, report_name)`` for every ``.py`` under ``paths``.

    ``report_name`` is the path as the user referenced it (relative
    stays relative), which keeps report lines stable across machines.
    The traversal is sorted so runs are byte-identical.
    """
    seen: "set[Path]" = set()
    out: "list[tuple[Path, str]]" = []
    for root in paths:
        root_path = Path(root)
        if not root_path.exists():
            raise LintUsageError(f"path {root!r} does not exist")
        if root_path.is_file():
            candidates = [root_path]
        else:
            candidates = sorted(
                p for p in root_path.rglob("*.py") if p.is_file()
            )
        for path in candidates:
            name = path.as_posix()
            if path_matches(name, exclude):
                continue
            resolved = path.resolve()
            if resolved in seen:
                continue
            seen.add(resolved)
            out.append((path, name))
    return out


def statement_spans(module: ModuleContext) -> "dict[int, int]":
    """Map each line inside a multi-line statement to the statement start.

    Only the *innermost* covering statement counts (a single-line
    statement inside a ten-line ``if`` maps to itself, so a marker on
    the ``if`` head does not blanket-suppress the whole body).
    """
    spans: "dict[int, int]" = {}
    for node in module.of_type(ast.stmt):
        end = getattr(node, "end_lineno", None) or node.lineno
        for lineno in range(node.lineno, end + 1):
            previous = spans.get(lineno)
            if previous is None or node.lineno > previous:
                spans[lineno] = node.lineno
    return spans


def find_suppression(
    table: "dict[int, list[Suppression]]",
    spans: "dict[int, int]",
    line: int,
    rule_id: str,
) -> "Suppression | None":
    """The marker covering ``(line, rule)``, statement-span aware.

    Candidates, in priority order: the reported line, the line above
    it, the first line of the enclosing multi-line statement, and the
    line above that.
    """
    candidates = [line, line - 1]
    start = spans.get(line)
    if start is not None and start != line:
        candidates.extend([start, start - 1])
    seen: "set[int]" = set()
    for candidate in candidates:
        if candidate in seen:
            continue
        seen.add(candidate)
        for supp in table.get(candidate, ()):
            if supp.rule == rule_id:
                return supp
    return None


def _parse(path: Path, name: str) -> "ModuleContext | Finding":
    """Read, parse and walk one file; a SYNTAX finding if it cannot parse."""
    try:
        source = path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise LintUsageError(f"cannot read {name!r}: {exc}") from exc
    try:
        tree = ast.parse(source, filename=name)
    except SyntaxError as exc:
        return Finding(
            file=name,
            line=exc.lineno or 1,
            col=(exc.offset or 1) - 1,
            rule="SYNTAX",
            message=f"file does not parse: {exc.msg}",
        )
    return ModuleContext(name, source, tree)


def build_graph_for_paths(paths: "list[str]", config: "LintConfig | None" = None):
    """Build the :class:`ProjectGraph` over a walk (the ``--graph`` dump)."""
    config = config if config is not None else default_config()
    modules = []
    for path, name in iter_python_files([os.fspath(p) for p in paths], config.exclude):
        parsed = _parse(path, name)
        if isinstance(parsed, ModuleContext):
            modules.append((name, parsed))
    return build_project_graph(modules)


def lint_paths(
    paths: "list[str]",
    config: "LintConfig | None" = None,
    baseline_path: "str | None" = None,
    *,
    changed: "set[str] | None" = None,
) -> LintResult:
    """Lint every Python file under ``paths``; see :class:`LintResult`.

    ``changed`` (report names or absolute paths) restricts the *reported*
    findings and suppressions to those files; both passes still run over
    the full walk, so the whole-program graph sees every module.
    """
    # Every file's tree stays alive until the project pass; with the cyclic
    # collector paused it does not rescan them over and over as they pile up.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _lint(paths, config, baseline_path, changed)
    finally:
        if enabled:
            gc.enable()


def _lint(
    paths: "list[str]",
    config: "LintConfig | None",
    baseline_path: "str | None",
    changed: "set[str] | None",
) -> LintResult:
    config = config if config is not None else default_config()
    baseline = load_baseline(baseline_path) if baseline_path else set()
    files = iter_python_files([os.fspath(p) for p in paths], config.exclude)
    result = LintResult(config=config, files_scanned=len(files))

    contexts: "dict[str, ModuleContext]" = {}
    for path, name in files:
        parsed = _parse(path, name)
        if isinstance(parsed, Finding):
            result.findings.append(parsed)
        else:
            contexts[name] = parsed
    tables = {name: parse_suppressions(m.lines) for name, m in contexts.items()}
    spans = {name: statement_spans(m) for name, m in contexts.items()}
    occurrence: "dict[tuple[str, str, str], int]" = {}

    def record(
        file: str, rule_id: str, severity: str, line: int, col: int, message: str
    ) -> None:
        marker = find_suppression(tables[file], spans[file], line, rule_id)
        if marker is not None and marker.valid:
            result.suppressed.append((file, marker))
            return
        if marker is not None:
            message += " (suppression ignored: missing reason)"
        line_text = contexts[file].line_text(line)
        key = (file, rule_id, line_text.strip())
        index = occurrence.get(key, 0)
        occurrence[key] = index + 1
        result.findings.append(
            Finding(
                file=file,
                line=line,
                col=col,
                rule=rule_id,
                message=message,
                severity=severity,
            ).with_fingerprint(line_text, index)
        )

    # -- module pass -----------------------------------------------------------
    for name, module in contexts.items():
        for rule in module_rules():
            rule_cfg = config.rule(rule.id)
            if not rule_cfg.enabled or path_matches(name, rule_cfg.allow_paths):
                continue
            for line, col, message in rule.run(module):
                record(name, rule.id, rule_cfg.severity, line, col, message)

    # -- whole-program pass ----------------------------------------------------
    graph = build_project_graph(list(contexts.items()))
    for rule in project_rules():
        rule_cfg = config.rule(rule.id)
        if not rule_cfg.enabled:
            continue
        for file, line, col, message in rule.run_project(graph):
            if file not in contexts or path_matches(file, rule_cfg.allow_paths):
                continue
            record(file, rule.id, rule_cfg.severity, line, col, message)

    if changed is not None:
        scope = {
            name
            for path, name in files
            if name in changed or path.resolve().as_posix() in changed
        }
        result.findings = [f for f in result.findings if f.file in scope]
        result.suppressed = [
            (file, supp) for file, supp in result.suppressed if file in scope
        ]

    if baseline:
        kept, baselined = apply_baseline(result.findings, baseline)
        result.findings = kept
        result.baselined = len(baselined)
    result.findings.sort()
    return result
