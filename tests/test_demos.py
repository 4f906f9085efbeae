"""The narrated demos run to completion against the package."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def _env() -> dict:
    """The environment with the package's sources first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


@pytest.mark.parametrize("demo", ["seven_node_taxonomy.py", "somos5_walkthrough.py"])
def test_demo_runs(demo):
    result = subprocess.run(
        [sys.executable, str(ROOT / "demos" / demo)],
        capture_output=True, text=True, env=_env(), timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert result.stdout.strip()


def test_cli_tour_runs(tmp_path):
    bash = shutil.which("bash")
    if bash is None:
        pytest.skip("the tour is a bash script")
    # the tour calls the installed console script; a shim runs the sources
    shim = tmp_path / "cluster-reduce"
    shim.write_text(f'#!/bin/sh\nexec "{sys.executable}" -m cluster_reduce.cli "$@"\n')
    shim.chmod(0o755)
    env = _env()
    env["PATH"] = os.pathsep.join([str(tmp_path), env.get("PATH", "")])
    result = subprocess.run(
        [bash, str(ROOT / "demos" / "cli_tour.sh")],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    assert "done; full report" in result.stdout
