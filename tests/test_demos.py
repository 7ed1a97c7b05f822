"""Every demo script runs to completion with its default arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import golden

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# exact zeros a demo prints: a column's own anchor term, and a shared copy's
# term on its twin, leave that column untouched
PINNED = {
    "regularizer_geometry.py": ["gradient on a column from its own anchor: 0.0e+00"],
    "shared_identities.py": ["on its twin copy 0.0e+00,"],
}


def run_demo(demo, cwd) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    return subprocess.run(
        [sys.executable, str(demo)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    proc = run_demo(demo, tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    for line in PINNED.get(demo.name, []):
        assert line in proc.stdout
    assert golden.sha(proc.stdout.encode()) == golden.recorded("demos")[demo.name]
