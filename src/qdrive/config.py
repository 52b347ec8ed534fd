"""Scenario configuration: strict parsing and validation.

A scenario is described by a single JSON-style document::

    {
      "scenario": "rabi" | "pulse" | "sampled",
      "params":   { ... scenario-specific keys ... },
      "grid":     {"t_start": 0.0, "t_end": 6.28, "steps": 4096},
      "mode":     "analytic" | "numeric" | "verify",
      "output":   {"path": "out.csv", "format": "csv" | "json"}
    }

Unknown keys anywhere are errors: silent typos in physics parameters are the
costliest failure mode, so validation is strict and messages name the field.
A sweep's document may hold only scenario ("rabi" or "pulse"), params,
grid.steps and output.path.

Parameter blocks and defaults:

    rabi:    e_g (0.0), e_e (1.0), omega0 (1.0), coupling (0.5; a number or
             [re, im] pair)
    pulse:   e0 (1.0), f0 (1.0), n_period (1)
    sampled: drive_file (path to a {"samples": [...]} JSON) or inline
             samples; optional rho0 as [[re,im] x 4] in row-major order
             (defaults to the ground state)

Grid defaults: t_start = 0 (sampled: first sample time), t_end = one drive
period (rabi: pi/Omega, pulse: T; sampled: last sample time).  steps is
grid.steps if given; else the QDRIVE_STEPS_DEFAULT environment variable,
which is read only then; else 4096.  From any source it must lie in
[1, MAX_STEPS].

Every mode is valid here; the command line runs verify only through
``qdrive verify`` (see cli).
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import TimeGrid, scan_rho
from .errors import BadParam, ConfigInvalid, DegenerateDrive, QdriveError
from .io import json_number, read_sampled_drive, sampled_from_records
from .liouville import DriveHamiltonian, Sampled
from .pulse import PulseParams
from .rabi import RabiParams

SCENARIOS = ("rabi", "pulse", "sampled")
MODES = ("analytic", "numeric", "verify")
FORMATS = ("csv", "json")

BUILTIN_STEPS_DEFAULT = 4096
STEPS_ENV_VAR = "QDRIVE_STEPS_DEFAULT"

#: Largest accepted grid.steps: a trajectory holds 96 bytes per sample (2x2
#: complex rho, t, three measure columns), 1.5 GiB at 2**24 before CSV text.
MAX_STEPS = 2**24

RABI_DEFAULTS = {"e_g": 0.0, "e_e": 1.0, "omega0": 1.0, "coupling": 0.5 + 0.0j}
PULSE_DEFAULTS = {"e0": 1.0, "f0": 1.0, "n_period": 1}
#: The default rho0, |0><0| (read-only: every config shares it).
GROUND_STATE = np.diag([1.0, 0.0]).astype(complex)
GROUND_STATE.flags.writeable = False


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    drive: DriveHamiltonian
    rho0: np.ndarray  #: (2, 2), a density matrix within TOL
    grid: TimeGrid
    mode: str
    output_path: str | None
    output_format: str


def _check_keys(block: dict, allowed: tuple[str, ...], where: str) -> None:
    unknown = set(block) - set(allowed)
    if unknown:
        raise ConfigInvalid(f"unknown key(s) {sorted(unknown)} in {where}; "
                            f"allowed: {sorted(allowed)}")


def _number(block: dict, key: str, where: str, default: float) -> float:
    v = json_number(block.get(key, default), f"{where}.{key}")
    if not math.isfinite(v):
        raise ConfigInvalid(f"{where}.{key} must be finite, got {v!r}")
    return v


def _integer(block: dict, key: str, where: str, default: int) -> int:
    v = block.get(key, default)
    if isinstance(v, bool) or not isinstance(v, int):
        raise ConfigInvalid(f"{where}.{key} must be an integer, got {v!r}")
    return v


def _complex(block: dict, key: str, where: str, default: complex) -> complex:
    v = block.get(key, default)
    if isinstance(v, complex):
        return v
    parts = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0.0)
    if not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in parts):
        raise ConfigInvalid(f"{where}.{key} must be a number or [re, im] pair, got {v!r}")
    return complex(*(json_number(x, f"{where}.{key}") for x in parts))


def _drive_params(scenario: str, block: dict) -> RabiParams | PulseParams:
    """The rabi or pulse params block, each value read by its default's type."""
    cls, defaults = ((RabiParams, RABI_DEFAULTS) if scenario == "rabi"
                     else (PulseParams, PULSE_DEFAULTS))
    _check_keys(block, tuple(defaults), f"params ({scenario})")
    read = {float: _number, int: _integer, complex: _complex}
    try:
        return cls(**{key: read[type(default)](block, key, "params", default)
                      for key, default in defaults.items()})
    except BadParam as exc:
        raise ConfigInvalid(f"params: {exc}") from exc


def _sampled_params(block: dict) -> tuple[Sampled, np.ndarray]:
    _check_keys(block, ("drive_file", "samples", "rho0"), "params (sampled)")
    if ("drive_file" in block) == ("samples" in block):
        raise ConfigInvalid('params (sampled) needs exactly one of "drive_file" or "samples"')
    if "drive_file" in block:
        if not isinstance(block["drive_file"], str):
            raise ConfigInvalid("params.drive_file must be a string path")
        drive = read_sampled_drive(block["drive_file"])
    else:
        drive = sampled_from_records(block["samples"])

    rho0 = GROUND_STATE
    if "rho0" in block:
        v = block["rho0"]
        ok = (isinstance(v, list) and len(v) == 4
              and all(isinstance(e, (list, tuple)) and len(e) == 2 for e in v))
        if not ok:
            raise ConfigInvalid("params.rho0 must be [[re,im],[re,im],[re,im],[re,im]] "
                                "for (rho00, rho01, rho10, rho11)")
        entries = [complex(json_number(e[0], f"params.rho0[{i}][0]"),
                           json_number(e[1], f"params.rho0[{i}][1]")) for i, e in enumerate(v)]
        rho0 = np.array(entries, dtype=complex).reshape(2, 2)
        try:
            scan_rho(rho0).require_valid()
        except QdriveError as exc:  # NotHermitian / TraceNotOne / NotPositive / BadParam
            raise ConfigInvalid(f"params.rho0 is not a valid density matrix: {exc}") from exc
    return drive, rho0


def _choice(value: Any, name: str, choices: tuple[str, ...]) -> str:
    if value not in choices:
        raise ConfigInvalid(f"{name} must be one of {list(choices)}, got {value!r}")
    return value


def _block(raw: dict, name: str) -> dict:
    block = raw.get(name, {})
    if not isinstance(block, dict):
        raise ConfigInvalid(f"{name} must be an object")
    return block


def _steps(grid_block: dict) -> int:
    """grid.steps, else QDRIVE_STEPS_DEFAULT, else BUILTIN_STEPS_DEFAULT."""
    if "steps" in grid_block:
        steps = shown = _integer(grid_block, "steps", "grid", 0)
        low, high = "grid: steps", "grid.steps"
    else:
        raw = os.environ.get(STEPS_ENV_VAR)
        if raw is None:
            return BUILTIN_STEPS_DEFAULT
        try:
            steps = int(raw)
        except ValueError:
            steps = 0  # reported as not a positive integer
        shown, low, high = repr(raw), STEPS_ENV_VAR, STEPS_ENV_VAR
    if steps < 1:
        raise ConfigInvalid(f"{low} must be a positive integer, got {shown}")
    if steps > MAX_STEPS:
        raise ConfigInvalid(f"{high} must be at most {MAX_STEPS}, got {shown}")
    return steps


def _output_path(output_block: dict) -> str | None:
    path = output_block.get("path")
    if path is not None and not isinstance(path, str):
        raise ConfigInvalid(f"output.path must be a string, got {path!r}")
    return path


def scenario_config_from_dict(raw: dict[str, Any]) -> ScenarioConfig:
    """Validate a raw configuration mapping into a ScenarioConfig."""
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"configuration must be an object, got {type(raw).__name__}")
    _check_keys(raw, ("scenario", "params", "grid", "mode", "output"), "configuration")
    scenario = _choice(raw.get("scenario"), "scenario", SCENARIOS)
    mode = _choice(raw.get("mode", "analytic"), "mode", MODES)
    params_block = _block(raw, "params")

    # default time span: one drive period (sampled: the sample window)
    rho0 = GROUND_STATE
    if scenario == "sampled":
        drive, rho0 = _sampled_params(params_block)
        if mode != "numeric":
            raise ConfigInvalid("sampled drives have no closed form; mode must be numeric")
        span = (float(drive.times[0]), float(drive.times[-1]))
        if span[1] <= span[0]:
            raise ConfigInvalid("sampled drive needs at least two sample times to "
                                "define a default grid; set grid.t_end explicitly")
    else:
        drive = _drive_params(scenario, params_block)
        try:
            span = (0.0, drive.population_period if scenario == "rabi" else drive.period)
        except DegenerateDrive as exc:
            raise ConfigInvalid(f"params: degenerate drive: {exc}") from exc

    grid_block = _block(raw, "grid")
    _check_keys(grid_block, ("t_start", "t_end", "steps"), "grid")
    t_start = _number(grid_block, "t_start", "grid", span[0])
    t_end = _number(grid_block, "t_end", "grid", span[1])
    steps = _steps(grid_block)
    try:
        grid = TimeGrid(t_start=t_start, t_end=t_end, steps=steps)
    except BadParam as exc:
        raise ConfigInvalid(f"grid: {exc}") from exc

    output_block = _block(raw, "output")
    _check_keys(output_block, ("path", "format"), "output")
    output_path = _output_path(output_block)
    output_format = _choice(output_block.get("format", "csv"), "output.format", FORMATS)

    return ScenarioConfig(
        scenario=scenario,
        drive=drive,
        rho0=rho0,
        grid=grid,
        mode=mode,
        output_path=output_path,
        output_format=output_format,
    )


def sweep_config_from_dict(raw: dict) -> tuple[RabiParams | PulseParams, int, str | None]:
    """Validate a raw sweep document into (drive, grid.steps, output.path)."""
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"configuration must be an object, got {type(raw).__name__}")
    _check_keys(raw, ("scenario", "params", "grid", "output"), "configuration")
    scenario = _choice(raw.get("scenario"), "scenario", ("rabi", "pulse"))
    drive = _drive_params(scenario, _block(raw, "params"))
    grid_block = _block(raw, "grid")
    _check_keys(grid_block, ("steps",), "grid")
    steps = _steps(grid_block)
    output_block = _block(raw, "output")
    _check_keys(output_block, ("path",), "output")
    return drive, steps, _output_path(output_block)

