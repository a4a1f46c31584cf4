"""Import hygiene: each entry point loads only the layers it uses.

``import repro`` is lazy (PEP 562), so the lint never loads numpy, and the
forest paths (the fig6 driver, the tuning service) never load the scipy
submodules that only the GP, EI, transfer and qmc code need.  Each check
runs in a fresh interpreter so ``sys.modules`` starts clean.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro

SRC = Path(__file__).resolve().parents[1] / "src"

#: scipy submodules the forest paths must not load.
SCIPY_HEAVY = ("scipy.linalg", "scipy.optimize", "scipy.stats")


def loaded_after(code: str, cwd: Path) -> "set[str]":
    """The module names in ``sys.modules`` after running ``code`` in a new
    interpreter with ``src`` on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    script = textwrap.dedent(code) + textwrap.dedent(
        """
        import json, sys
        print(json.dumps(sorted(sys.modules)))
        """
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True, text=True, env=env, cwd=cwd, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code", ["import repro", "import repro.analysis"])
def test_top_level_and_lint_load_no_numpy(code, tmp_path):
    modules = loaded_after(code, tmp_path)
    assert "numpy" not in modules
    assert not any(m == "scipy" or m.startswith("scipy.") for m in modules)


def test_fig6_setup_loads_no_heavy_scipy(tmp_path):
    modules = loaded_after(
        """
        import repro.engine
        import repro.experiments.figures
        from repro import get_benchmark
        from repro.forest import _cgrower

        get_benchmark("atax")
        _cgrower.load()
        """,
        tmp_path,
    )
    assert "repro.forest" in modules and "repro.active" in modules
    assert modules.isdisjoint(SCIPY_HEAVY)


def test_service_setup_loads_no_heavy_scipy(tmp_path):
    modules = loaded_after(
        f"""
        from repro.service import Client, ServiceConfig, TuningServer
        from repro.workloads import get_benchmark

        get_benchmark("atax")
        server = TuningServer(
            ServiceConfig(host="127.0.0.1", port=0, data_dir={str(tmp_path / "svc")!r})
        ).start()
        try:
            assert Client(server.url).healthz()["status"] == "ok"
        finally:
            server.stop()
        """,
        tmp_path,
    )
    assert "repro.service" in modules
    assert modules.isdisjoint(SCIPY_HEAVY)


def test_exports_resolve_to_their_defining_module():
    for name, module in repro._EXPORTS.items():
        assert getattr(repro, name) is getattr(importlib.import_module(module), name)
    assert set(repro.__all__) == {"__version__", *repro._EXPORTS}
    assert set(repro.__all__) <= set(dir(repro))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from repro import *", namespace)
    assert set(repro.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_export"):
        repro.no_such_export  # noqa: B018
    assert not hasattr(repro, "no_such_export")
