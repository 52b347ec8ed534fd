"""Timing wrappers for the qdrive benchmark's traced runs.

``Tracer.install`` rebinds public names in every loaded ``qdrive.*`` module
namespace; ``src/`` is not edited.  Coarse boundaries get spans (name,
start, end, parent, op id); per-sample functions get call counters and
accumulated busy time instead, because a span per sample would cost more
than the sample.  A span's self time is its duration minus its children's.
Busy times of per-sample functions are inclusive: ``rabi_density`` includes
the ``dm_new`` it calls.

A name missing at some commit is reported in ``absent`` and its metrics
read 0; that is not an error.

Run as a script, it traces one CLI call in a fresh process and writes the
raw totals as JSON (used by the traced ``cli_cold`` runs):

    PYTHONPATH=src python perfbench/tracer.py OUT.json -- rabi --steps 64 ...
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from collections import defaultdict

# (layer, span name, home module, attribute)
SPANS = (
    ("cli", "cli.main", "qdrive.cli", "main"),
    ("config", "config.build", "qdrive.config", "scenario_config_from_dict"),
    ("config", "config.drive_read", "qdrive.io", "read_sampled_drive"),
    ("runner", "runner.run_scenario", "qdrive.runner", "run_scenario"),
    ("runner", "runner.run_sweep", "qdrive.runner", "run_sweep"),
    ("liouville", "liouville.propagate", "qdrive.liouville", "propagate"),
    ("coherence", "coherence.build_series", "qdrive.coherence", "build_series"),
    ("coherence", "coherence.refine_max", "qdrive.coherence", "refine_max"),
    ("io", "io.csv_write", "qdrive.io", "write_series_csv"),
    ("io", "io.json_write", "qdrive.io", "write_series_json"),
    ("io", "io.csv_read", "qdrive.io", "read_states_csv"),
    ("io", "io.csv_read", "qdrive.io", "read_series_csv"),
)
COUNTED = (
    ("rabi", "rabi.density", "qdrive.rabi", "rabi_density"),
    ("pulse", "pulse.density", "qdrive.pulse", "pulse_density"),
    ("coherence", "coherence.l1_closed_form", "qdrive.coherence", "l1_pulse_closed_form"),
    ("core", "core.dm_new", "qdrive.core", "dm_new"),
    ("liouville", "liouville.hamiltonian", "qdrive.liouville", "hamiltonian_at"),
)
LAYERS = ("cli", "config", "runner", "rabi", "pulse", "core", "coherence", "liouville", "io")

# (metric, unit) of every per-module metric, in report order
LAYER_METRICS = (
    ("cli.main_s", "s"), ("cli.self_s", "s"),
    ("config.build_s", "s"), ("config.drive_read_s", "s"),
    ("runner.self_s", "s"),
    ("rabi.density_calls", "count"), ("rabi.density_s", "s"),
    ("pulse.density_calls", "count"), ("pulse.density_s", "s"),
    ("core.dm_new_calls", "count"), ("core.dm_new_s", "s"),
    ("coherence.build_series_s", "s"), ("coherence.refine_max_s", "s"),
    ("coherence.refine_max_evals", "count"), ("coherence.l1_closed_form_calls", "count"),
    ("liouville.propagate_s", "s"), ("liouville.steps", "count"),
    ("liouville.us_per_step", "us"), ("liouville.hamiltonian_calls", "count"),
    ("io.csv_write_s", "s"), ("io.csv_write_bytes", "bytes"), ("io.json_write_s", "s"),
    ("io.csv_read_s", "s"), ("io.csv_read_bytes", "bytes"),
) + tuple((f"{layer}.errors", "count") for layer in LAYERS)


class Tracer:
    """Spans, counters and error counts for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, op id]
        self.calls: dict[str, int] = defaultdict(int)
        self.busy: dict[str, float] = defaultdict(float)
        self.errors: dict[str, int] = defaultdict(int)
        self.amounts: dict[str, int] = defaultdict(int)
        self.absent: list[str] = []
        self.op: int | None = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    def install(self) -> None:
        modules = [m for n, m in list(sys.modules.items())
                   if m is not None and (n == "qdrive" or n.startswith("qdrive."))]
        for kind, table in ((self._span, SPANS), (self._counter, COUNTED)):
            for layer, name, home, attr in table:
                orig = getattr(sys.modules.get(home), attr, None)
                if orig is None:
                    self.absent.append(f"{home}.{attr}")
                    continue
                wrapper = kind(layer, name, orig)
                for m in modules:
                    for key in [k for k, v in vars(m).items() if v is orig]:
                        self._restore.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        for m, key, orig in reversed(self._restore):
            setattr(m, key, orig)
        self._restore.clear()

    def _span(self, layer: str, name: str, fn):
        sig = inspect.signature(fn)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            bound = sig.bind(*args, **kwargs)
            self._before(name, bound.arguments)
            rec = [name, clock(), None, self._stack[-1] if self._stack else None, self.op]
            self._stack.append(len(self.spans))
            self.spans.append(rec)
            try:
                result = fn(*bound.args, **bound.kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                rec[2] = clock()
                self._stack.pop()
            self._after(name, bound.arguments)
            return result
        return wrapper

    def _counter(self, layer: str, name: str, fn):
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                self.errors[layer] += 1
                raise
            finally:
                self.calls[name] += 1
                self.busy[name] += clock() - t0
        return wrapper

    def _before(self, name: str, arguments: dict) -> None:
        if name == "coherence.refine_max" and "fn" in arguments:
            fn = arguments["fn"]

            def counted(t):
                self.amounts["coherence.refine_max_evals"] += 1
                return fn(t)
            arguments["fn"] = counted
        elif name == "liouville.propagate" and "grid" in arguments:
            self.amounts["liouville.steps"] += arguments["grid"].steps
        elif name == "io.csv_read" and "path" in arguments:
            self.amounts["io.csv_read_bytes"] += os.path.getsize(arguments["path"])

    def _after(self, name: str, arguments: dict) -> None:
        if name == "io.csv_write" and "path" in arguments:
            self.amounts["io.csv_write_bytes"] += os.path.getsize(arguments["path"])

    def raw(self) -> dict:
        """Additive totals: raw dicts of several processes can be summed."""
        span_s: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for name, start, end, parent, _ in self.spans:
            dur = end - start
            span_s[name] += dur
            self_s[name] += dur
            if parent is not None:
                self_s[self.spans[parent][0]] -= dur
        return {"span_s": dict(span_s), "self_s": dict(self_s), "calls": dict(self.calls),
                "busy_s": dict(self.busy), "errors": dict(self.errors),
                "amounts": dict(self.amounts), "absent": sorted(set(self.absent))}


def merge_raw(raws: list[dict]) -> dict:
    out: dict = {"absent": set()}
    for raw in raws:
        for key, table in raw.items():
            if key == "absent":
                out["absent"].update(table)
                continue
            if key == "spans":
                continue
            acc = out.setdefault(key, defaultdict(float))
            for name, v in table.items():
                acc[name] += v
    out["absent"] = sorted(out["absent"])
    return out


def layer_metrics(raw: dict) -> dict[str, float]:
    """The per-module metrics of LAYER_METRICS from (merged) raw totals."""
    def get(table: str, name: str) -> float:
        return raw.get(table, {}).get(name, 0)

    steps = get("amounts", "liouville.steps")
    propagate_s = get("span_s", "liouville.propagate")
    m = {
        "cli.main_s": get("span_s", "cli.main"),
        "cli.self_s": get("self_s", "cli.main"),
        "config.build_s": get("span_s", "config.build"),
        "config.drive_read_s": get("span_s", "config.drive_read"),
        "runner.self_s": get("self_s", "runner.run_scenario") + get("self_s", "runner.run_sweep"),
        "rabi.density_calls": get("calls", "rabi.density"),
        "rabi.density_s": get("busy_s", "rabi.density"),
        "pulse.density_calls": get("calls", "pulse.density"),
        "pulse.density_s": get("busy_s", "pulse.density"),
        "core.dm_new_calls": get("calls", "core.dm_new"),
        "core.dm_new_s": get("busy_s", "core.dm_new"),
        "coherence.build_series_s": get("span_s", "coherence.build_series"),
        "coherence.refine_max_s": get("span_s", "coherence.refine_max"),
        "coherence.refine_max_evals": get("amounts", "coherence.refine_max_evals"),
        "coherence.l1_closed_form_calls": get("calls", "coherence.l1_closed_form"),
        "liouville.propagate_s": propagate_s,
        "liouville.steps": steps,
        "liouville.us_per_step": propagate_s / steps * 1e6 if steps else 0.0,
        "liouville.hamiltonian_calls": get("calls", "liouville.hamiltonian"),
        "io.csv_write_s": get("span_s", "io.csv_write"),
        "io.csv_write_bytes": get("amounts", "io.csv_write_bytes"),
        "io.json_write_s": get("span_s", "io.json_write"),
        "io.csv_read_s": get("span_s", "io.csv_read"),
        "io.csv_read_bytes": get("amounts", "io.csv_read_bytes"),
    }
    for layer in LAYERS:
        m[f"{layer}.errors"] = get("errors", layer)
    counts = {name for name, unit in LAYER_METRICS if unit in ("count", "bytes")}
    return {k: int(v) if k in counts else float(v) for k, v in m.items()}


def _main(argv: list[str]) -> int:
    out, sep, cli_argv = argv[0], argv[1], argv[2:]
    if sep != "--":
        raise SystemExit("usage: tracer.py OUT.json -- <qdrive argv>")
    import qdrive.cli

    tracer = Tracer()
    tracer.install()
    rc = 1
    try:
        rc = qdrive.cli.main(cli_argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        with open(out, "w", encoding="utf-8") as f:
            json.dump({**tracer.raw(), "spans": tracer.spans}, f)
    return rc


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
