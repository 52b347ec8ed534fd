"""scripts/bench.py: one short interleaved run of the sweep workload on two
labels of this checkout, written to BENCH files, and its count of the pairs
a label beat the first label in, and the line count of the sources."""
import importlib.util
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_pairs_better_follows_the_metric_direction():
    bench = load_bench()
    assert bench.directions() == {"setup_s": "lower", "ops_per_s": "higher",
                                  "cycle_p50_s": "lower", "peak_rss_mb": "lower"}
    mine, theirs = [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0]
    assert bench.pairs_better(mine, theirs, "lower") == 2  # a tie is no win
    assert bench.pairs_better(mine, theirs, "higher") == 1


def test_bench_writes_one_file_per_label(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench.py"), "--seconds", "0.1", "--runs", "1",
         "--workloads", "sweep", "--out", str(tmp_path), f"a={ROOT}", f"b={ROOT}"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = sum(path.read_bytes().count(b"\n") for path in (ROOT / "src" / "qdrive").glob("*.py"))
    for label, other in (("a", "b"), ("b", "a")):
        doc = json.loads((tmp_path / f"BENCH_{label}.json").read_text())
        assert doc["label"] == label and set(doc["host"]) == {"python", "numpy", "scipy", "nproc"}
        assert doc["src_lines"] == lines
        sweep = doc["workloads"]["sweep"]
        assert set(sweep["end_to_end"]) == {"setup_s", "ops_per_s", "cycle_p50_s", "peak_rss_mb"}
        cycle = sweep["end_to_end"]["cycle_p50_s"]
        assert cycle["unit"] == "s" and len(cycle["runs"]) == 1 and cycle["median"] > 0
        assert sweep["fail_ratio"] == [0.0] and sweep["seeds"] == [601]
        assert sweep["per_module"]["coherence.refine_max_evals"]["value"] > 0
        digests = sweep["digests"][other]
        assert digests["common_ops"] > 0 and digests["differing_ops"] == 0
        if label == "a":  # the first label is what the others are counted against
            assert "pairs_better" not in sweep
        else:
            better = sweep["pairs_better"]
            assert better["than"] == "a" and better["pairs"] == 1
            assert set(better["counts"]) == set(sweep["end_to_end"])
            assert all(k in (0, 1) for k in better["counts"].values())
    summary = [line for line in proc.stdout.splitlines() if line.startswith("sweep ")]
    assert len(summary) == 4 and all(line.endswith(" of 1") for line in summary)
    assert f"\nsrc_lines{' ' * 18}a {lines}  b {lines}\n" in proc.stdout
