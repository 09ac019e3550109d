"""Smoke test: every experiment script runs with its defaults."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import decogate

SCRIPTS = sorted((Path(__file__).resolve().parents[1] / "scripts").glob("*.py"))
SRC = str(Path(decogate.__file__).resolve().parents[1])


@pytest.mark.parametrize("script", SCRIPTS, ids=lambda p: p.name)
def test_script_runs_with_defaults(script):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": path}, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
