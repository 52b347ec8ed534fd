"""Smoke test: every narrative demo runs to completion with warnings as
errors (``python -W error``), as ``filterwarnings = error`` makes them for the
in-process suite.

Each script is copied into a temporary directory first, so files it writes
next to itself (demo 03's CSVs) land there and not in the source tree.
"""
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[d.name for d in DEMOS])
def test_demo_runs(demo, tmp_path):
    script = tmp_path / demo.name
    shutil.copy(demo, script)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, "-W", "error", str(script)], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
    if demo.name.startswith("03_"):
        assert sorted(p.name for p in tmp_path.glob("*.csv")) == [
            "pulse_f0_0.1.csv", "pulse_f0_4.5.csv"]
