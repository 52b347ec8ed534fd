#!/usr/bin/env python3
"""Run perfbench/run.py over every workload and write BENCH_<label>.json.

    python3 scripts/bench.py --seconds 25 --runs 5 parent=/path/to/parent-checkout change=.

Each LABEL=CHECKOUT names a source tree; its own perfbench/run.py runs
against its own src/.  Run r (seed --seed + r) runs every workload untraced
(--trace 0) once per checkout, the checkouts back to back, their order
reversed on every other run, so each run is an interleaved pair (or set) on
one seed.  Then each checkout runs every workload once traced (--trace 1,
seed --seed) for the per-module metrics.

BENCH_<label>.json holds, per workload, every run's end-to-end metrics
with their median and quartiles, the fail ratio, the traced per-module
metrics, the commit and host facts that run.py records, and how many of
the per-op output digests shared with the other checkouts differ, and
src_lines, the line count of the checkout's src/qdrive/*.py.  For
every label but the first it also holds, per end-to-end metric, in how
many of the interleaved pairs the label beat the first label: strictly
better in the direction BENCHMARK.json gives the metric.  The summary
printed at the end shows the same counts and each label's src_lines.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("trajectory_io", "rk4_verify", "sweep", "cli_cold")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One run.py run: its JSON result line and the path of its full record.

    Records are read only once every run is done.  subprocess starts the
    child with vfork, so the child's ru_maxrss starts at this process's peak
    RSS; this process stays small while the runs that report
    ``peak_rss_mb`` are made."""
    cmd = [sys.executable, str(checkout / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr[-3000:]}")
    return {"result": json.loads(proc.stdout.strip().splitlines()[-1]),
            "record": checkout / "perfbench" / "out" / f"{workload}-seed{seed}-trace{trace}.json"}


def summary(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"runs": values, "median": median, "q1": q1, "q3": q3}


def directions() -> dict[str, str]:
    """Each end-to-end metric's better direction, "lower" or "higher"."""
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"] for m in doc["end_to_end"]}


def pairs_better(mine: list[float], theirs: list[float], better: str) -> int:
    """In how many runs r mine[r] is strictly better than theirs[r]."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (a - b) < 0 for a, b in zip(mine, theirs))


def src_lines(checkout: Path) -> int:
    """Newlines in CHECKOUT/src/qdrive/*.py, the total of `wc -l`."""
    return sum(p.read_bytes().count(b"\n") for p in (checkout / "src" / "qdrive").glob("*.py"))


def worktree_clean(checkout: Path) -> bool | None:
    """Whether src/ and perfbench/ match the recorded commit (None outside git)."""
    proc = subprocess.run(["git", "status", "--porcelain", "--", "src", "perfbench"],
                          cwd=checkout, capture_output=True, text=True)
    return None if proc.returncode != 0 else not proc.stdout.strip()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("checkouts", nargs="+", metavar="LABEL=CHECKOUT")
    ap.add_argument("--seconds", type=float, default=25.0, help="length of each untraced run")
    ap.add_argument("--runs", type=int, default=5, help="untraced runs per workload and checkout")
    ap.add_argument("--seed", type=int, default=601, help="seed of run 0; run r uses seed + r")
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS, default=list(WORKLOADS))
    ap.add_argument("--out", type=Path, default=ROOT, help="directory of the BENCH files")
    args = ap.parse_args(argv)
    trees = {}
    for item in args.checkouts:
        label, sep, path = item.partition("=")
        if not sep or not label or label in trees:
            ap.error(f"expected distinct LABEL=CHECKOUT items, got {item!r}")
        trees[label] = Path(path).resolve()

    better = directions()
    runs = {label: {w: [] for w in args.workloads} for label in trees}
    for r in range(args.runs):
        order = list(trees) if r % 2 == 0 else list(reversed(trees))
        for w in args.workloads:
            for label in order:
                run = run_bench(trees[label], w, args.seed + r, args.seconds, 0)
                runs[label][w].append(run)
                print(f"run {r} {w:13s} {label:12s} cycle_p50_s "
                      f"{run['result']['metrics']['cycle_p50_s']['value']:.6g}", flush=True)
    traced = {label: {w: run_bench(tree, w, args.seed, args.seconds, 1)["result"]
                      for w in args.workloads} for label, tree in trees.items()}

    for untraced in (run for label in runs.values() for w in label.values() for run in w):
        untraced["record"] = json.loads(untraced["record"].read_text())

    def values(label, w, name):
        return [run["result"]["metrics"][name]["value"] for run in runs[label][w]]

    base = next(iter(trees))
    for label, tree in trees.items():
        workloads = {}
        for w in args.workloads:
            untraced = runs[label][w]
            names = untraced[0]["result"]["metrics"]
            digests = {(rec["environment"]["seed"], op["cycle"], op["index"]): op["sha256"]
                       for rec in (run["record"] for run in untraced) for op in rec["ops"]}
            compared = {}
            for other in trees:
                if other == label:
                    continue
                theirs = {(rec["environment"]["seed"], op["cycle"], op["index"]): op["sha256"]
                          for rec in (run["record"] for run in runs[other][w])
                          for op in rec["ops"]}
                common = digests.keys() & theirs.keys()
                compared[other] = {"common_ops": len(common),
                                   "differing_ops": sum(digests[k] != theirs[k] for k in common)}
            workloads[w] = {
                "end_to_end": {name: {"unit": m["unit"], **summary(values(label, w, name))}
                               for name, m in names.items()},
                "fail_ratio": [run["record"]["diagnostics"]["fail_ratio"] for run in untraced],
                "seeds": [run["record"]["environment"]["seed"] for run in untraced],
                "per_module": traced[label][w]["metrics"],
                "digests": compared,
            }
            if label != base:
                workloads[w]["pairs_better"] = {
                    "than": base, "pairs": len(untraced),
                    "counts": {name: pairs_better(values(label, w, name), values(base, w, name),
                                                  better[name])
                               for name in names if name in better}}
        env = dict(runs[label][args.workloads[0]][0]["record"]["environment"])
        env.pop("seed")
        doc = {"label": label, "commit": env.pop("commit"), "src_sha256": env.pop("src_sha256"),
               "worktree_clean": worktree_clean(tree), "src_lines": src_lines(tree), "host": env,
               "settings": {"seconds": args.seconds, "runs": args.runs, "seed": args.seed,
                            "labels_in_order": list(trees)},
               "workloads": workloads}
        path = args.out / f"BENCH_{label}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n")
        print(f"wrote {path}")

    for w in args.workloads:
        for name in runs[base][w][0]["result"]["metrics"]:
            cells = []
            for label in trees:
                s = summary(values(label, w, name))
                cell = f"{label} {s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}]"
                if label != base and name in better:
                    k = pairs_better(values(label, w, name), values(base, w, name), better[name])
                    cell += f" better in {k} of {args.runs}"
                cells.append(cell)
            print(f"{w:13s} {name:12s} " + "  ".join(cells))
    print(f"{'src_lines':26s} " + "  ".join(f"{label} {src_lines(tree)}"
                                           for label, tree in trees.items()))
    return 0


if __name__ == "__main__":
    sys.exit(main())
