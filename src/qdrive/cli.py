"""Command-line interface.

Subcommands:

    rabi        run the RWA harmonic-drive scenario
    pulse       run the square-pulse scenario
    integrate   propagate a sampled drive loaded from a JSON file
    coherence   recompute purity/coherence columns for a CSV of states
    verify      run a scenario both ways and compare against thresholds
    sweep       one-parameter sweep with a summary table

The subcommand decides the scenario and mode that run (see _RUNS).  Flags
mirror configuration fields; ``--config FILE`` loads a JSON document whose
values override the flags, but may only repeat that scenario and mode.  Exit
codes: 0 success, 1 verification (or run) failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import csv
import functools
import json
import re
import sys
from pathlib import Path

from .coherence import build_series
from .config import FORMATS, scenario_config_from_dict, sweep_config_from_dict
from .errors import ConfigInvalid, QdriveError
from .io import (
    check_states,
    fmt17,
    open_output,
    probe_output,
    read_states_csv,
    write_series,
    write_series_csv,
    write_series_json,
)
from .runner import (
    ENTRYWISE_THRESHOLD,
    SWEEP_PARAMS,
    TRACE_THRESHOLD,
    SweepRow,
    run_scenario,
    run_sweep,
)


#: What each run subcommand runs: its scenario (verify: the --scenario given)
#: and the modes it may run, the first its default
_RUNS = {
    "rabi": ("rabi", ("analytic", "numeric")),
    "pulse": ("pulse", ("analytic", "numeric")),
    "integrate": ("sampled", ("numeric",)),
    "verify": (None, ("verify",)),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process (parsing does not mutate it)."""
    parser = argparse.ArgumentParser(
        prog="qdrive",
        description="Density-matrix dynamics of periodically driven two-level systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_run_flags(p: argparse.ArgumentParser, modes: tuple = (), series: bool = True) -> None:
        """modes: the --mode choices; series: the grid span and format flags."""
        if series:
            p.add_argument("--t-start", type=float, default=None, help="grid start time")
            p.add_argument("--t-end", type=float, default=None, help="grid end time")
        p.add_argument("--steps", type=int, default=None,
                       help="grid steps (default: $QDRIVE_STEPS_DEFAULT or 4096)")
        if modes:
            p.add_argument("--mode", choices=modes, default=modes[0])
        p.add_argument("--output", default=None, help="output file path")
        if series:
            p.add_argument("--format", choices=FORMATS, default=None,
                           help="output format (default csv)")
        p.add_argument("--config", default=None,
                       help="JSON config file; its values override flags")

    def add_rabi_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--e-g", type=float, default=None, help="ground-level energy")
        p.add_argument("--e-e", type=float, default=None, help="excited-level energy")
        p.add_argument("--omega0", type=float, default=None, help="drive frequency")
        p.add_argument("--coupling", type=str, default=None,
                       help="complex coupling, e.g. '0.5' or '0.3+0.4j'")

    def add_pulse_flags(p: argparse.ArgumentParser) -> None:
        p.add_argument("--e0", type=float, default=None, help="field energy (> 0)")
        p.add_argument("--f0", type=float, default=None, help="pulse amplitude ratio (> 0)")
        p.add_argument("--n", type=int, default=None, help="period index N (>= 1)")

    p_rabi = sub.add_parser("rabi", help="RWA harmonic drive")
    add_rabi_flags(p_rabi)
    add_run_flags(p_rabi, _RUNS["rabi"][1])

    p_pulse = sub.add_parser("pulse", help="square-pulse drive")
    add_pulse_flags(p_pulse)
    add_run_flags(p_pulse, _RUNS["pulse"][1])

    p_int = sub.add_parser("integrate", help="propagate a sampled drive from a file")
    p_int.add_argument("--drive", default=None, help='JSON file {"samples": [...]}')
    add_run_flags(p_int)

    p_coh = sub.add_parser("coherence", help="recompute measures for a CSV of states")
    p_coh.add_argument("--input", required=True, help="input CSV of states")
    p_coh.add_argument("--output", default=None, help="output path (default: stdout)")
    p_coh.add_argument("--format", choices=FORMATS, default="csv")

    p_ver = sub.add_parser("verify", help="compare closed form against the propagator")
    p_ver.add_argument("--scenario", choices=("rabi", "pulse"), default=None)
    add_rabi_flags(p_ver)
    add_pulse_flags(p_ver)
    add_run_flags(p_ver)

    p_sw = sub.add_parser("sweep", help="summary table over one swept parameter")
    p_sw.add_argument("--scenario", choices=("rabi", "pulse"), default=None)
    p_sw.add_argument("--param", required=True, choices=SWEEP_PARAMS)
    p_sw.add_argument("--values", required=True,
                      help="comma-separated numbers (empty for an empty sweep)")
    add_rabi_flags(p_sw)
    add_pulse_flags(p_sw)
    add_run_flags(p_sw, series=False)

    return parser


def _parse_coupling(text: str) -> list[float]:
    try:
        c = complex(text)
    except ValueError:
        raise ConfigInvalid(f"--coupling must be a complex literal, got {text!r}") from None
    return [c.real, c.imag]


# config block -> ((config key, argparse attribute), ...) filled from flags
_FLAG_KEYS = {
    "rabi": (("e_g", "e_g"), ("e_e", "e_e"), ("omega0", "omega0"), ("coupling", "coupling")),
    "pulse": (("e0", "e0"), ("f0", "f0"), ("n_period", "n")),
    "sampled": (("drive_file", "drive"),),
    "grid": (("t_start", "t_start"), ("t_end", "t_end"), ("steps", "steps")),
    "output": (("path", "output"), ("format", "format")),
}


def _raw_config(args: argparse.Namespace, scenario: str, mode: str | None) -> dict:
    """The raw config mapping: the flags given, with the --config file's
    values laid over them."""
    def block(name: str) -> dict:
        given = ((key, getattr(args, attr, None)) for key, attr in _FLAG_KEYS[name])
        return {key: v for key, v in given if v is not None}

    params = block(scenario)
    if "coupling" in params:
        params["coupling"] = _parse_coupling(params["coupling"])
    raw = {"scenario": scenario, "params": params, "grid": block("grid"), "mode": mode,
           "output": block("output")}
    raw = {key: v for key, v in raw.items() if v}
    if getattr(args, "config", None) is not None:  # file values win, blocks merge key by key
        for key, value in _load_config_file(args.config).items():
            both = isinstance(value, dict) and isinstance(raw.get(key), dict)
            raw[key] = {**raw[key], **value} if both else value
    return raw


def _load_config_file(path: str) -> dict:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8, a 4300+ digit int
        raise ConfigInvalid(f"cannot read config file {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigInvalid("config file must contain a JSON object")
    return doc


def _reject_cross_scenario_flags(args: argparse.Namespace, scenario: str) -> None:
    for _, attr in _FLAG_KEYS["pulse" if scenario == "rabi" else "rabi"]:
        if getattr(args, attr, None) is not None:
            raise ConfigInvalid(
                f"flag --{attr.replace('_', '-')} does not belong to scenario {scenario!r}"
            )


def _write_series(series, path: str | None, fmt: str) -> None:
    """Write the series to path, or to stdout when path is None."""
    if path is None:
        write_series(series, sys.stdout, fmt)
    elif fmt == "json":
        write_series_json(series, path)
    else:
        write_series_csv(series, path)


def _print_report(report) -> None:
    print(f"max entrywise error: {report.max_entrywise_error:.6e} "
          f"(threshold {ENTRYWISE_THRESHOLD:.0e})")
    print(f"max trace drift:     {report.max_trace_drift:.6e} "
          f"(threshold {TRACE_THRESHOLD:.0e})")
    print(f"max purity drift:    {report.max_purity_drift:.6e}")
    print(f"verdict: {'PASS' if report.passed else 'FAIL'}")


def _run_command(args: argparse.Namespace) -> int:
    scenario, modes = _RUNS[args.command]
    if args.command == "verify":
        if args.scenario is None:
            raise ConfigInvalid("verify needs --scenario")
        scenario = args.scenario
        _reject_cross_scenario_flags(args, scenario)
    raw = _raw_config(args, scenario, getattr(args, "mode", modes[0]))
    for key, runs in (("scenario", (scenario,)), ("mode", modes)):
        if raw[key] not in runs:
            raise ConfigInvalid(f"qdrive {args.command} runs {key} "
                                f"{' or '.join(map(repr, runs))}, not {raw[key]!r}")
    cfg = scenario_config_from_dict(raw)
    if cfg.output_path is not None:  # fail before the compute, not after it
        probe_output(cfg.output_path)
    series, report = run_scenario(cfg)
    if cfg.output_path is not None:
        _write_series(series, cfg.output_path, cfg.output_format)
    if report is not None:
        _print_report(report)
        return 0 if report.passed else 1
    print(f"{cfg.scenario} [{cfg.mode}]: {len(series)} samples over "
          f"[{cfg.grid.t_start:g}, {cfg.grid.t_end:g}]"
          + (f" -> {cfg.output_path}" if cfg.output_path else ""))
    return 0


def _coherence_command(args: argparse.Namespace) -> int:
    if args.output is not None:  # fail before reading the input, not after it
        probe_output(args.output)
    t, rho = read_states_csv(args.input)
    _write_series(build_series(t, rho, check_states(rho, args.input)), args.output, args.format)
    return 0


def _parse_values(text: str) -> list[float]:
    items = [s for s in (part.strip() for part in text.split(",")) if s]
    try:
        return [float(s) for s in items]
    except ValueError as exc:
        raise ConfigInvalid(f"--values: {exc}") from exc


def _format_cell(v: float | None) -> str:
    return "-" if v is None else f"{v:.9g}"


def _sweep_command(args: argparse.Namespace) -> int:
    scenario = args.scenario or ("pulse" if args.param == "f0" else "rabi")
    _reject_cross_scenario_flags(args, scenario)
    drive, steps, output_path = sweep_config_from_dict(_raw_config(args, scenario, None))
    if output_path is not None:
        probe_output(output_path)
    rows = run_sweep(drive, steps, args.param, _parse_values(args.values))
    _print_sweep(args.param, rows)
    if output_path is not None:
        _write_sweep_csv(output_path, args.param, rows)
    return 0


def _print_sweep(param: str, rows: list[SweepRow]) -> None:
    header = f"{param:>18} {'max_c_l1':>14} {'min_purity':>14} {'max_purity':>14} {'period_return':>14}  error"
    print(header)
    for r in rows:
        print(f"{r.value:>18.9g} {_format_cell(r.max_c_l1):>14} "
              f"{_format_cell(r.min_purity):>14} {_format_cell(r.max_purity):>14} "
              f"{_format_cell(r.period_return_error):>14}  {r.error or ''}")


def _write_sweep_csv(path: str, param: str, rows: list[SweepRow]) -> None:
    # csv quotes an error cell that holds a comma, quote or newline
    with open_output(path, encoding="utf-8") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(["param", "value", "max_c_l1", "min_purity", "max_purity",
                         "period_return_error", "error"])
        for r in rows:
            stats = (r.max_c_l1, r.min_purity, r.max_purity, r.period_return_error)
            writer.writerow([param, fmt17(r.value), *("" if v is None else fmt17(v) for v in stats),
                             r.error or ""])


_NEGATIVE = re.compile(r"-([0-9.]|inf|nan)", re.IGNORECASE)


def _attach_values(argv: list[str]) -> list[str]:
    """Rewrite ``--flag -1e308`` as ``--flag=-1e308`` for every long option
    (each takes a value): argparse counts only '-1'-like tokens as numbers
    and would read '-1e308', '-1e-3', '-0.5,1', '-inf' or '-NaN' as an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1].startswith("--") and "=" not in out[-1] and _NEGATIVE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(_attach_values(sys.argv[1:] if argv is None else argv))
    try:
        if args.command in _RUNS:
            return _run_command(args)
        if args.command == "coherence":
            return _coherence_command(args)
        if args.command == "sweep":
            return _sweep_command(args)
        raise ConfigInvalid(f"unknown command {args.command!r}")
    except ConfigInvalid as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except QdriveError as exc:
        print(f"run failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
