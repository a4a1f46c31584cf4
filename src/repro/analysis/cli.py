"""Argument parsing shared by ``repro lint`` and ``python -m repro.analysis``.

Exit codes: ``0`` clean (or warnings only), ``1`` at least one
error-severity finding survived suppressions and the baseline, ``2``
usage/configuration error.
"""

from __future__ import annotations

import argparse
import sys

from repro.analysis.findings import LintUsageError

__all__ = ["configure_parser", "run_from_args", "main"]

#: Paths linted when none are given (missing ones are skipped).
DEFAULT_PATHS = ("src", "tests", "benchmarks")


def configure_parser(parser: argparse.ArgumentParser) -> argparse.ArgumentParser:
    """Attach the lint options to ``parser`` (shared with ``repro lint``)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help="files or directories to lint (default: src tests benchmarks, "
        "skipping those that do not exist)",
    )
    parser.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report format (json schema: see repro.analysis.reporters)",
    )
    parser.add_argument(
        "--baseline",
        metavar="FILE",
        default=None,
        help="baseline file of grandfathered findings (DET*/SPAWN* entries "
        "are rejected — determinism may not be grandfathered)",
    )
    parser.add_argument(
        "--write-baseline",
        metavar="FILE",
        default=None,
        help="write surviving non-DET/SPAWN findings to FILE and exit 0",
    )
    parser.add_argument(
        "--select",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to run (all others disabled)",
    )
    parser.add_argument(
        "--disable",
        metavar="IDS",
        default=None,
        help="comma-separated rule ids to skip",
    )
    parser.add_argument(
        "--severity",
        action="append",
        metavar="RULE=LEVEL",
        default=[],
        help="override one rule's severity (error|warning); repeatable",
    )
    parser.add_argument(
        "--no-defaults",
        action="store_true",
        help="drop the built-in path allowlists and excludes (every rule "
        "applies everywhere — what the fixture tests use)",
    )
    parser.add_argument(
        "--changed",
        nargs="?",
        const="HEAD",
        default=None,
        metavar="REF",
        help="only report findings in files changed vs REF (git diff "
        "--name-only; default HEAD); the whole-program graph still "
        "covers the full tree",
    )
    parser.add_argument(
        "--graph",
        action="store_true",
        help="print the whole-program import/call graph as JSON and exit",
    )
    parser.add_argument(
        "--explain",
        metavar="RULE",
        default=None,
        help="print a rule's rationale with violating/clean examples and exit",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every rule id with its scope and summary, then exit",
    )
    return parser


def _explain_blocks(doc: "str | None") -> "dict[str, str]":
    """Extract the ``Violating::`` / ``Clean::`` example blocks."""
    import textwrap

    blocks: "dict[str, str]" = {}
    if not doc:
        return blocks
    current: "str | None" = None
    buffer: "list[str]" = []

    def flush() -> None:
        if current and buffer:
            blocks[current] = textwrap.dedent("\n".join(buffer)).strip("\n")

    for line in textwrap.dedent(doc).splitlines():
        stripped = line.strip()
        if stripped in ("Violating::", "Clean::"):
            flush()
            current = stripped[:-2].lower()
            buffer = []
        elif current is not None:
            if stripped and not line.startswith((" ", "\t")):
                flush()
                current = None
                buffer = []
            else:
                buffer.append(line)
    flush()
    return blocks


def _explain_rule(rule_id: str) -> int:
    from repro.analysis.rules import get_rule, known_rule_ids

    try:
        rule = get_rule(rule_id)
    except KeyError:
        print(
            f"repro lint: unknown rule id {rule_id!r} "
            f"(known: {', '.join(known_rule_ids())})",
            file=sys.stderr,
        )
        return 2
    print(f"{rule.id} ({rule.scope}): {rule.summary}")
    if rule.rationale:
        print()
        print(rule.rationale)
    blocks = _explain_blocks(rule.checker.__doc__)
    for title in ("violating", "clean"):
        body = blocks.get(title)
        if body:
            print()
            print(f"{title.capitalize()}:")
            for line in body.splitlines():
                print(f"    {line}")
    return 0


def _changed_names(ref: str) -> "set[str]":
    """Resolved paths of tracked files changed vs ``ref`` (git diff)."""
    import subprocess
    from pathlib import Path

    try:
        proc = subprocess.run(
            ["git", "diff", "--name-only", ref],
            capture_output=True,
            text=True,
        )
    except OSError as exc:
        raise LintUsageError(f"--changed: cannot run git: {exc}") from exc
    if proc.returncode != 0:
        detail = proc.stderr.strip().splitlines()
        raise LintUsageError(
            f"--changed: git diff vs {ref!r} failed"
            + (f": {detail[0]}" if detail else "")
        )
    try:
        top = subprocess.run(
            ["git", "rev-parse", "--show-toplevel"],
            capture_output=True,
            text=True,
        ).stdout.strip()
    except OSError:
        top = ""
    root = Path(top) if top else Path.cwd()
    out: "set[str]" = set()
    for line in proc.stdout.splitlines():
        name = line.strip()
        if not name.endswith(".py"):
            continue
        out.add((root / name).resolve().as_posix())
    return out


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed lint invocation; returns the process exit code."""
    from repro.analysis.baseline import write_baseline
    from repro.analysis.config import default_config, permissive_config
    from repro.analysis.reporters import render_json, render_text
    from repro.analysis.rules import all_rules
    from repro.analysis.runner import build_graph_for_paths, lint_paths

    if args.list_rules:
        rules = all_rules()
        width = max(len(r.id) for r in rules)
        for rule in rules:
            print(f"{rule.id:<{width}}  {rule.scope:<7}  {rule.summary}")
        return 0
    if args.explain:
        return _explain_rule(args.explain)

    try:
        config = permissive_config() if args.no_defaults else default_config()
        severities = {}
        for item in args.severity:
            rule_id, sep, level = item.partition("=")
            if not sep:
                raise LintUsageError(
                    f"--severity expects RULE=LEVEL, got {item!r}"
                )
            severities[rule_id] = level
        select = tuple(args.select.split(",")) if args.select else None
        disable = tuple(args.disable.split(",")) if args.disable else ()
        if select or disable or severities:
            config = config.with_overrides(
                select=select, disable=disable, severities=severities
            )

        paths = list(args.paths)
        if not paths:
            import os

            paths = [p for p in DEFAULT_PATHS if os.path.isdir(p)]
            if not paths:
                raise LintUsageError(
                    "no paths given and none of src/, tests/, benchmarks/ "
                    "exist here"
                )

        if args.graph:
            import json

            graph = build_graph_for_paths(paths, config=config)
            print(json.dumps(graph.to_json(), indent=2, sort_keys=True))
            return 0

        changed = _changed_names(args.changed) if args.changed else None
        result = lint_paths(
            paths, config=config, baseline_path=args.baseline, changed=changed
        )

        if args.write_baseline:
            recorded = write_baseline(args.write_baseline, result.findings)
            print(f"[baseline written {args.write_baseline}: {recorded} finding(s)]")
            return 0
    except LintUsageError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    if args.format == "json":
        print(render_json(result, paths))
    else:
        print(render_text(result))
    return result.exit_code


def main(argv: "list[str] | None" = None) -> int:
    """Entry point for ``python -m repro.analysis``."""
    parser = configure_parser(
        argparse.ArgumentParser(
            prog="python -m repro.analysis",
            description=__doc__,
            formatter_class=argparse.RawDescriptionHelpFormatter,
        )
    )
    return run_from_args(parser.parse_args(argv))
