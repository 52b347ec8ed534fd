#!/usr/bin/env python3
"""Benchmark of the qdrive command line, end to end and per module.

    python3 perfbench/run.py --workload trajectory_io --seed 1 --seconds 20 --trace 0

One process, one thread, one client in a closed loop: each op (one CLI call)
starts after the previous one and its output check have finished.  The
in-process workloads call ``qdrive.cli.main(argv)``; ``cli_cold`` runs
``python -m qdrive.cli ...`` as a child process per op.  Inputs come from
``--seed`` only (see workloads.py).  Each op's output is checked and digested
outside the timed region.

``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` runs a
fixed number of cycles untraced and then the same cycles traced, and reports
the per-module metrics (tracer.py), the import layer and the tracing
overhead.  The last stdout line is the JSON result; the full record of a run
(every metric and diagnostic, per-op digests, spans, versions) is written to
``perfbench/out/<workload>-seed<seed>-trace<t>[-smoke].json``.
"""
from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Hermetic runs, in process and for every child: no steps default (each op
# passes --steps), one thread in the numeric libraries, set before numpy
# loads (workloads imports it), and qdrive imported from src.
os.environ.pop("QDRIVE_STEPS_DEFAULT", None)
os.environ.update({v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS")})
sys.path.insert(0, str(SRC))

from tracer import LAYER_METRICS, Tracer, layer_metrics, merge_raw  # noqa: E402
from workloads import FULL, SMOKE, WORKLOADS, Result, build_cycle  # noqa: E402

SETUP_REPS = 3  # fresh interpreters per run for setup_s and the import layer
TRACE_CYCLES = 2  # fixed, so the traced counts repeat exactly for a seed
CHILD_TIMEOUT_S = 120

END_TO_END = (("setup_s", "s"), ("ops_per_s", "1/s"), ("cycle_p50_s", "s"),
              ("peak_rss_mb", "MB"))
IMPORT_METRICS = (("import.python_s", "s"), ("import.numpy_s", "s"),
                  ("import.qdrive_s", "s"), ("import.scipy_s", "s"),
                  ("import.errors", "count"))
TRACE_METRICS = (("trace.untraced_ops_per_s", "1/s"), ("trace.traced_ops_per_s", "1/s"),
                 ("trace.overhead_ratio", "ratio"))


def timed_child(cmd: list[str]) -> tuple[float, subprocess.CompletedProcess | None]:
    t0 = time.perf_counter()
    try:
        proc = subprocess.run(cmd, env={**os.environ, "PYTHONPATH": str(SRC)}, cwd=ROOT,
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc = None
    return time.perf_counter() - t0, proc


def setup_seconds(reps: int) -> float:
    """Median wall time of a fresh interpreter importing qdrive.cli."""
    times = []
    for _ in range(reps):
        dt, proc = timed_child([sys.executable, "-c", "import qdrive.cli"])
        if proc is None or proc.returncode != 0:
            raise RuntimeError(f"importing qdrive.cli failed: {proc and proc.stderr[-2000:]}")
        times.append(dt)
    return statistics.median(times)


_IMPORTTIME = re.compile(r"^import time:\s*(\d+) \|\s*(\d+) \| ( *)(\S+)\s*$")


def top_import_seconds(stderr: str, package: str) -> float:
    """Cumulative import time of ``package`` entries with no ``package``
    ancestor in a ``-X importtime`` log: everything importing it cost."""
    entries = []
    for line in stderr.splitlines():
        m = _IMPORTTIME.match(line)
        if m:
            entries.append((len(m.group(3)) // 2, m.group(4), int(m.group(2))))
    # the log is post-order; reversed, each entry's parent precedes it
    total, stack = 0, []  # stack of (depth, inside package)
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        mine = name == package or name.startswith(package + ".")
        if mine and not (stack and stack[-1][1]):
            total += cumulative
        stack.append((depth, mine or bool(stack and stack[-1][1])))
    return total / 1e6


def import_metrics(reps: int) -> dict[str, float]:
    samples: dict[str, list[float]] = {k: [] for k, _ in IMPORT_METRICS[:4]}
    errors = 0
    for _ in range(reps):
        dt, proc = timed_child([sys.executable, "-c", "pass"])
        errors += proc is None or proc.returncode != 0
        samples["import.python_s"].append(dt)
        _, proc = timed_child([sys.executable, "-X", "importtime", "-c", "import qdrive.cli"])
        if proc is None or proc.returncode != 0:
            errors += 1
            continue
        for pkg in ("numpy", "qdrive", "scipy"):
            samples[f"import.{pkg}_s"].append(top_import_seconds(proc.stderr, pkg))
    out = {k: statistics.median(v) if v else 0.0 for k, v in samples.items()}
    out["import.errors"] = errors
    return out


class Bench:
    """Runs the cycles of one workload and records every op."""

    def __init__(self, workload: str, seed: int, sizes, work: Path) -> None:
        self.workload, self.seed, self.sizes, self.work = workload, seed, sizes, work
        self.cold = workload == "cli_cold"
        self.cli = None
        if not self.cold:
            import qdrive.cli
            self.cli = qdrive.cli
        self.records: list[dict] = []
        self.tracer = None  # set while a traced phase runs
        self.child_raws: list[dict] = []

    def _call(self, argv: list[str]) -> tuple[float, Result]:
        if self.cold:
            raw_path = self.work / "trace.json"
            if self.tracer is None:
                cmd = [sys.executable, "-m", "qdrive.cli", *argv]
            else:
                cmd = [sys.executable, str(HERE / "tracer.py"), str(raw_path), "--", *argv]
            dt, proc = timed_child(cmd)
            if raw_path.exists():
                raw = json.loads(raw_path.read_text())
                for span in raw["spans"]:
                    span[4] = self.tracer.op
                self.child_raws.append(raw)
                raw_path.unlink()
            if proc is None:
                return dt, Result(None, "", "timed out", b"")
            return dt, Result(proc.returncode, proc.stdout, proc.stderr, b"")
        out, err = io.StringIO(), io.StringIO()
        rc = None
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is a failed op, not a failed benchmark
            err.write(traceback.format_exc())
        return time.perf_counter() - t0, Result(rc, out.getvalue(), err.getvalue(), b"")

    def run_op(self, op, cycle: int, index: int, record: bool = True) -> float:
        if op.output is not None and op.output.exists():
            op.output.unlink()
        if self.tracer is not None:
            self.tracer.op = len(self.records)
        elapsed, res = self._call(op.argv)
        error = None
        if res.rc != 0:
            error = f"exit code {res.rc}: {res.stderr.strip()[-300:]}"
        else:
            try:
                res.data = op.output.read_bytes() if op.output else res.stdout.encode()
                error = op.check(res)
            except Exception as exc:  # unreadable or malformed output
                error = f"check raised {type(exc).__name__}: {exc}"
        if record:
            self.records.append({
                "cycle": cycle, "index": index, "sub": op.sub, "argv": op.argv,
                "elapsed_s": elapsed, "error": error, "traced": self.tracer is not None,
                "sha256": hashlib.sha256(res.data).hexdigest() if error is None else None,
            })
        return elapsed

    def run_cycles(self, first: int, *, count: int | None = None,
                   until: float | None = None, sizes=None, record: bool = True) -> list[float]:
        """Run cycles first, first+1, ... for ``count`` cycles, or until the
        clock passes ``until`` (checked before each op, once a cycle is
        complete).  Returns the summed op time of each complete cycle."""
        cycle_times: list[float] = []
        for cycle in range(first, first + count if count is not None else sys.maxsize):
            ops = build_cycle(self.workload, self.seed, cycle, self.work, sizes or self.sizes)
            total = 0.0
            for i, op in enumerate(ops):
                if until is not None and cycle_times and time.perf_counter() >= until:
                    return cycle_times
                total += self.run_op(op, cycle, i, record)
            cycle_times.append(total)
        return cycle_times

    def ops_per_s(self, traced: bool) -> float:
        recs = [r for r in self.records if r["traced"] == traced]
        return len(recs) / sum(r["elapsed_s"] for r in recs)


def per_subcommand(records: list[dict]) -> dict[str, dict]:
    """Median and p90 time-to-result per subcommand, with sample counts.
    The p90 is a diagnostic: a run has too few ops for a steady tail."""
    out = {}
    for sub in sorted({r["sub"] for r in records}):
        times = sorted(r["elapsed_s"] for r in records if r["sub"] == sub)
        out[f"{sub}_p50_s"] = {"value": statistics.median(times), "n": len(times)}
        out[f"{sub}_p90_s"] = {"value": times[min(len(times) - 1, int(0.9 * len(times)))],
                               "n": len(times)}
    return out


def environment(seed: int) -> dict:
    def version(pkg: str) -> str | None:
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None
    commit = None
    if (ROOT / ".git").exists():  # a plain source checkout has no commit
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    src = hashlib.sha256()
    for path in sorted((SRC / "qdrive").glob("*.py")):
        src.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"python": sys.version.split()[0], "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "commit": commit,
            "src_sha256": src.hexdigest(), "seed": seed}


def compare_digests(records: list[dict], previous: Path) -> str:
    """Report (never fail) ops whose output bytes changed since the last
    run of this workload and seed in this checkout."""
    if not previous.exists():
        return "no earlier record of this seed to compare digests with"
    try:
        old = {(r["cycle"], r["index"]): r["sha256"]
               for r in json.loads(previous.read_text())["ops"] if not r["traced"]}
    except (ValueError, KeyError):
        return "earlier record unreadable; digests not compared"
    pairs = [(old[(r["cycle"], r["index"])], r["sha256"]) for r in records
             if not r["traced"] and (r["cycle"], r["index"]) in old]
    changed = sum(a != b for a, b in pairs)
    return f"{changed} of {len(pairs)} common op digests changed since the earlier record"


def measure(args, bench: Bench) -> tuple[dict[str, tuple[float, str]], dict]:
    """The metrics of one run, as {name: (value, unit)}, and diagnostics."""
    reps = 1 if args.smoke else SETUP_REPS
    if args.trace == 0:
        setup = setup_seconds(reps)
    else:
        imports = import_metrics(reps)
    if not bench.cold:
        # untimed warm-up, so first-call costs stay out of the ops
        bench.run_cycles(0, count=1, sizes=SMOKE, record=False)
    if args.trace == 0:
        if args.smoke:
            cycles = bench.run_cycles(0, count=1)
        else:
            cycles = bench.run_cycles(0, until=time.perf_counter() + args.seconds)
        who = resource.RUSAGE_CHILDREN if bench.cold else resource.RUSAGE_SELF
        values = {"setup_s": setup, "ops_per_s": bench.ops_per_s(False),
                  "cycle_p50_s": statistics.median(cycles),
                  "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
        return {name: (values[name], unit) for name, unit in END_TO_END}, {"cycles": len(cycles)}

    trace_cycles = 1 if args.smoke else TRACE_CYCLES
    bench.run_cycles(0, count=trace_cycles)
    bench.tracer = Tracer()
    if not bench.cold:
        bench.tracer.install()
    try:
        bench.run_cycles(0, count=trace_cycles)
    finally:
        bench.tracer.uninstall()
    raw = merge_raw(bench.child_raws) if bench.cold else bench.tracer.raw()
    untraced, traced = bench.ops_per_s(False), bench.ops_per_s(True)
    values = {**imports, **layer_metrics(raw),
              "trace.untraced_ops_per_s": untraced, "trace.traced_ops_per_s": traced,
              "trace.overhead_ratio": untraced / traced}
    spans = [r["spans"] for r in bench.child_raws] if bench.cold else [bench.tracer.spans]
    return ({name: (values[name], unit)
             for name, unit in IMPORT_METRICS + LAYER_METRICS + TRACE_METRICS},
            {"absent": raw["absent"], "spans": spans})


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny sizes and one cycle per phase (the benchmark's own tests)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be non-negative")
    if not (SRC / "qdrive" / "cli.py").is_file():
        print(f"qdrive sources not found under {SRC}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{args.workload}-{os.getpid()}"
    work.mkdir()
    try:
        bench = Bench(args.workload, args.seed, SMOKE if args.smoke else FULL, work)
        measured, diagnostics = measure(args, bench)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in measured.items()}

    records = bench.records
    failed = [r for r in records if r["error"] is not None]
    diagnostics.update(per_subcommand([r for r in records if not r["traced"]]))
    diagnostics["fail_ratio"] = len(failed) / len(records)
    record_path = OUT / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                         f"{'-smoke' if args.smoke else ''}.json")
    diagnostics["digests"] = compare_digests(records, record_path)
    diagnostics["digest_cycle0"] = hashlib.sha256("".join(
        r["sha256"] or "-" for r in records if r["cycle"] == 0 and not r["traced"]
    ).encode()).hexdigest()
    run_env = environment(args.seed)
    record_path.write_text(json.dumps({
        "workload": args.workload, "seconds": args.seconds, "trace": args.trace,
        "smoke": args.smoke, "environment": run_env, "metrics": metrics,
        "diagnostics": diagnostics, "ops": records,
    }, indent=1))

    print(f"qdrive benchmark: workload={args.workload} seed={args.seed} trace={args.trace} "
          f"python={run_env['python']} numpy={run_env['numpy']} scipy={run_env['scipy']} "
          f"nproc={run_env['nproc']} commit={run_env['commit']}")
    for name, m in metrics.items():
        value = m["value"] if isinstance(m["value"], int) else f"{m['value']:.6g}"
        print(f"  {name:32s} {value} {m['unit']}")
    for name, d in diagnostics.items():
        if isinstance(d, dict):
            print(f"  {name:32s} {d['value']:.6g} s  (n={d['n']})")
    print(f"  {'fail_ratio':32s} {len(failed)}/{len(records)} = {diagnostics['fail_ratio']:.6g}")
    for r in failed[:5]:
        print(f"  FAILED {r['sub']} cycle {r['cycle']}: {r['error']}")
    print(f"  digests: {diagnostics['digests']}; cycle 0 digest {diagnostics['digest_cycle0'][:16]}")
    if diagnostics.get("absent"):
        print(f"  absent names (reported, not errors): {', '.join(diagnostics['absent'])}")
    print(json.dumps({"correct": not failed, "attempted": len(records),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
