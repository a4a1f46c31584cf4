"""CLI surfaces of the lint: ``repro lint``, ``python -m repro.analysis``.

Covers the exit-code contract (0 clean, 1 findings, 2 usage error), the
documented JSON schema and its ``findings_from_json`` round-trip, and
the acceptance check that an introduced violation is reported as
``file:line:col RULE message`` with a non-zero exit.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import (
    JSON_SCHEMA_VERSION,
    findings_from_json,
    lint_paths,
    permissive_config,
)
from repro.analysis.cli import main as lint_main

ROOT = Path(__file__).resolve().parent.parent
FIXTURES = Path(__file__).resolve().parent / "fixtures" / "lintpkg"
FINDING_LINE = re.compile(r"^\S+\.py:\d+:\d+ [A-Z]+\d* .+$")


@pytest.fixture(autouse=True)
def _scratch_cwd(tmp_path_factory, monkeypatch):
    """The CLI caches to ``.repro-lint-cache.json`` in cwd by default;
    run every test from a scratch directory so no cache file lands in
    the repository checkout."""
    monkeypatch.chdir(tmp_path_factory.mktemp("lint-cwd"))


def test_clean_tree_exits_zero(capsys):
    code = lint_main([str(ROOT / "src" / "repro")])
    out = capsys.readouterr().out
    assert code == 0
    assert out.startswith("clean:")


def test_fixture_violations_exit_one_with_clickable_lines(capsys):
    code = lint_main([str(FIXTURES), "--no-defaults"])
    out = capsys.readouterr().out.strip().splitlines()
    assert code == 1
    finding_lines = out[:-1]  # last line is the summary
    assert len(finding_lines) == 13
    for line in finding_lines:
        assert FINDING_LINE.match(line), line


def test_json_report_matches_schema_and_round_trips(capsys):
    code = lint_main([str(FIXTURES), "--no-defaults", "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    assert code == 1
    assert payload["schema"] == JSON_SCHEMA_VERSION
    assert payload["tool"] == "repro.analysis"
    assert payload["files_scanned"] == 16
    assert payload["summary"]["total"] == 13
    assert payload["summary"]["errors"] == 13
    assert payload["summary"]["warnings"] == 0
    assert set(payload["summary"]["by_rule"]) == set(payload["rules"])
    assert len(payload["suppressed"]) == 13
    for entry in payload["suppressed"]:
        assert entry["reason"]

    # Round-trip: the JSON findings reconstruct the exact Finding objects.
    direct = lint_paths([FIXTURES], config=permissive_config())
    assert findings_from_json(payload) == direct.findings
    fingerprints = [e["fingerprint"] for e in payload["findings"]]
    assert fingerprints == [f.fingerprint for f in direct.findings]


def test_usage_errors_exit_two(capsys):
    assert lint_main([str(FIXTURES), "--severity", "DET002"]) == 2
    assert lint_main([str(FIXTURES), "--select", "NOPE999"]) == 2
    assert lint_main(["definitely/not/a/path"]) == 2
    err = capsys.readouterr().err
    assert "repro lint:" in err


def test_list_rules_prints_every_rule_with_scope(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule_id in (
        "DET001",
        "DET002",
        "DET003",
        "DET004",
        "SPAWN001",
        "TEL001",
        "IO001",
        "EXC001",
        "FLOW001",
        "FLOW002",
        "RACE001",
        "RACE002",
        "ARCH001",
    ):
        assert rule_id in out
    # every row carries the scope column
    rows = [line for line in out.splitlines() if line.strip()]
    assert all(" module " in row or " project " in row for row in rows)


def test_write_baseline_flow(tmp_path, capsys):
    target = tmp_path / "m.py"
    target.write_text(
        "def f(p):\n    with open(p, 'w') as fh:\n        fh.write('x')\n",
        encoding="utf-8",
    )
    baseline = tmp_path / "baseline.json"
    assert (
        lint_main([str(target), "--no-defaults", "--write-baseline", str(baseline)])
        == 0
    )
    capsys.readouterr()
    assert (
        lint_main([str(target), "--no-defaults", "--baseline", str(baseline)])
        == 0
    )
    assert "1 baselined" in capsys.readouterr().out


def test_repro_cli_lint_subcommand(capsys):
    from repro.cli import main as repro_main

    assert repro_main(["lint", "--no-cache", str(ROOT / "src" / "repro")]) == 0
    assert repro_main(["lint", "--no-cache", str(FIXTURES), "--no-defaults"]) == 1
    capsys.readouterr()


def _run_module(args, cwd):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        # --no-cache keeps subprocess runs from dropping a cache file in cwd
        [sys.executable, "-m", "repro.analysis", "--no-cache", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=120,
    )


def test_python_dash_m_clean_on_shipped_tree():
    proc = _run_module(["src/repro"], cwd=ROOT)
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_python_dash_m_flags_an_introduced_violation(tmp_path):
    bad = tmp_path / "regression.py"
    bad.write_text(
        '"""A module that breaks the determinism contract."""\n'
        "import random\n\n\n"
        "def jitter():\n"
        '    """Draws from the hidden global stream."""\n'
        "    return random.random()\n",
        encoding="utf-8",
    )
    proc = _run_module([str(bad), "--no-defaults"], cwd=ROOT)
    assert proc.returncode == 1
    first = proc.stdout.strip().splitlines()[0]
    assert FINDING_LINE.match(first), first
    assert "DET001" in first and ":7:" in first


@pytest.mark.parametrize("entry", ["repro.analysis", "repro.cli"])
def test_help_exits_zero(entry):
    args = ["--help"] if entry == "repro.analysis" else ["lint", "--help"]
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", entry, *args],
        capture_output=True,
        text=True,
        cwd=ROOT,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0
    assert "--format" in proc.stdout
# -- whole-program flags -----------------------------------------------------


def test_explain_renders_rationale_and_examples(capsys):
    assert lint_main(["--explain", "FLOW001"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("FLOW001 (project):")
    assert "Violating:" in out and "Clean:" in out
    assert "worker-entry" in out  # the docstring example survives rendering


def test_explain_module_rule_and_unknown_rule(capsys):
    assert lint_main(["--explain", "DET001"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("DET001 (module):")
    assert lint_main(["--explain", "NOPE999"]) == 2
    assert "unknown rule id" in capsys.readouterr().err


def test_graph_dump_is_json_with_entries(capsys):
    assert lint_main([str(FIXTURES), "--no-defaults", "--graph"]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert "lintpkg.flow001" in dump["modules"]
    assert dump["modules"]["lintpkg.workloads.arch001"]["imports"] == [
        "lintpkg.engine"
    ]
    assert "lintpkg.flow001.simulate" in dump["worker_entries"]
    assert "lintpkg.race001.Board.post" in dump["thread_entries"]


def test_jobs_output_matches_serial(capsys):
    code1 = lint_main([str(FIXTURES), "--no-defaults", "--no-cache"])
    serial = capsys.readouterr().out
    code2 = lint_main([str(FIXTURES), "--no-defaults", "--no-cache", "--jobs", "4"])
    parallel = capsys.readouterr().out
    assert (code1, serial) == (code2, parallel)


def test_changed_scopes_report_to_git_diff(tmp_path, capsys, monkeypatch):
    def git(*args):
        subprocess.run(
            ["git", *args],
            cwd=tmp_path,
            check=True,
            capture_output=True,
            env={
                **os.environ,
                "GIT_AUTHOR_NAME": "t",
                "GIT_AUTHOR_EMAIL": "t@t",
                "GIT_COMMITTER_NAME": "t",
                "GIT_COMMITTER_EMAIL": "t@t",
            },
        )

    (tmp_path / "clean.py").write_text("import time\nt = time.time()\n")
    (tmp_path / "other.py").write_text("x = 1\n")
    git("init", "-q")
    git("add", ".")
    git("commit", "-q", "-m", "seed")

    monkeypatch.chdir(tmp_path)
    # Nothing changed vs HEAD: the pre-existing violation is out of scope.
    assert lint_main([str(tmp_path), "--no-defaults", "--changed"]) == 0
    capsys.readouterr()

    # Touch only other.py: clean.py's violation stays out of scope.
    (tmp_path / "other.py").write_text("x = 2\n")
    assert lint_main([str(tmp_path), "--no-defaults", "--changed"]) == 0
    capsys.readouterr()

    # Touch clean.py itself: now it is reported.
    (tmp_path / "clean.py").write_text("import time\nt = time.time() + 1\n")
    assert lint_main([str(tmp_path), "--no-defaults", "--changed"]) == 1
    out = capsys.readouterr().out
    assert "DET002" in out


def test_changed_outside_git_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "m.py").write_text("x = 1\n")
    assert lint_main([str(tmp_path), "--no-defaults", "--changed"]) == 2
    assert "--changed" in capsys.readouterr().err
