"""Self-checks of the benchmark at smoke sizes.

    python -m pytest perfbench -q

Every metric named in BENCHMARK.json appears with its unit; the exact
counts of a traced run repeat across two runs with one seed; and the
benchmark refuses to run without the qdrive sources.
"""
from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import top_import_seconds  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
EXACT_COUNTS = ("rabi.density_calls", "pulse.density_calls", "liouville.steps",
                "coherence.refine_max_evals", "io.csv_write_bytes")


@functools.cache
def run_bench(workload: str, trace: int, repeat: int = 0, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_reported_with_its_unit(workload, trace):
    result = run_bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end"] if trace == 0 else SPEC["per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}
    if trace == 0:
        assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["trajectory_io", "rk4_verify", "sweep"])
def test_exact_counts_repeat(workload):
    first = run_bench(workload, 1)["metrics"]
    second = run_bench(workload, 1, repeat=1)["metrics"]
    assert [first[k]["value"] for k in EXACT_COUNTS] == [second[k]["value"] for k in EXACT_COUNTS]


def test_exact_counts_are_exercised():
    totals = {k: 0 for k in EXACT_COUNTS}
    for workload in ("trajectory_io", "rk4_verify", "sweep"):
        for k in EXACT_COUNTS:
            totals[k] += run_bench(workload, 1)["metrics"][k]["value"]
    assert all(totals.values()), totals


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_top_import_seconds_skips_nested_entries():
    log = "\n".join([
        "import time: self [us] | cumulative | imported package",
        "import time:       100 |        100 |       numpy.core",
        "import time:        50 |        150 |     numpy",
        "import time:        20 |         20 |       scipy.linalg",
        "import time:        10 |         30 |     scipy.optimize",
        "import time:         5 |        185 |   qdrive.coherence",
        "import time:         1 |        186 | qdrive",
    ])
    assert top_import_seconds(log, "numpy") == pytest.approx(150e-6)
    assert top_import_seconds(log, "scipy") == pytest.approx(30e-6)
    assert top_import_seconds(log, "qdrive") == pytest.approx(186e-6)
