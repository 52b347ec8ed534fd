"""scripts/bench.py: one short interleaved run of the sweep workload on two
labels of this checkout, written to BENCH files."""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_bench_writes_one_file_per_label(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--seconds", "0.1", "--runs", "1",
         "--workloads", "sweep", "--out", str(tmp_path), f"a={ROOT}", f"b={ROOT}"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    for label, other in (("a", "b"), ("b", "a")):
        doc = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
        assert doc["label"] == label and set(doc["host"]) == {"python", "numpy", "scipy", "nproc"}
        sweep = doc["workloads"]["sweep"]
        assert set(sweep["end_to_end"]) == {"setup_s", "ops_per_s", "cycle_p50_s", "peak_rss_mb"}
        cycle = sweep["end_to_end"]["cycle_p50_s"]
        assert cycle["unit"] == "s" and len(cycle["runs"]) == 1 and cycle["median"] > 0
        assert sweep["fail_ratio"] == [0.0] and sweep["seeds"] == [601]
        assert sweep["per_module"]["coherence.refine_max_evals"]["value"] > 0
        digests = sweep["digests"][other]
        assert digests["common_ops"] > 0 and digests["differing_ops"] == 0
