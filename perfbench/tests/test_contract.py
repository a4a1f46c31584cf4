"""BENCHMARK.json's workloads can run, and a bare copy refuses to."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parents[2]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_every_workload_has_a_plan():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(run.PLANS)


def test_setup_has_the_largest_bound():
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    assert all(b <= bounds["setup_s"] <= 0.25 for b in bounds.values())


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_results", "_work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fig6-smoke",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
