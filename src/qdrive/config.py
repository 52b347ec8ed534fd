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

Parameter blocks and defaults:

    rabi:    e_g (0.0), e_e (1.0), omega0 (1.0), coupling (0.5; a number or
             [re, im] pair)
    pulse:   e0 (1.0), f0 (1.0), n_period (1)
    sampled: drive_file (path to a {"samples": [...]} JSON) or inline
             samples; optional rho0 as [[re,im] x 4] in row-major order
             (defaults to the ground state)

Grid defaults: t_start = 0 (sampled: first sample time), t_end = one drive
period (rabi: pi/Omega, pulse: T; sampled: last sample time), steps from the
QDRIVE_STEPS_DEFAULT environment variable, falling back to 4096.  An
explicitly configured steps value always wins over the environment; either
way steps may not exceed MAX_STEPS.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from typing import Any

import numpy as np

from .core import DensityMatrix, TimeGrid, dm_new, ground_state_dm
from .errors import BadParam, ConfigInvalid, DegenerateDrive, QdriveError
from .io import json_number, read_sampled_drive, sampled_from_records
from .liouville import Sampled
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


@dataclass(frozen=True)
class ScenarioConfig:
    scenario: str
    rabi: RabiParams | None
    pulse: PulseParams | None
    sampled: Sampled | None
    rho0: DensityMatrix
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


def _rabi_params(block: dict) -> RabiParams:
    _check_keys(block, ("e_g", "e_e", "omega0", "coupling"), "params (rabi)")
    try:
        return RabiParams(
            e_g=_number(block, "e_g", "params", RABI_DEFAULTS["e_g"]),
            e_e=_number(block, "e_e", "params", RABI_DEFAULTS["e_e"]),
            omega0=_number(block, "omega0", "params", RABI_DEFAULTS["omega0"]),
            coupling=_complex(block, "coupling", "params", RABI_DEFAULTS["coupling"]),
        )
    except BadParam as exc:
        raise ConfigInvalid(f"params: {exc}") from exc


def _pulse_params(block: dict) -> PulseParams:
    _check_keys(block, ("e0", "f0", "n_period"), "params (pulse)")
    try:
        return PulseParams(
            e0=_number(block, "e0", "params", PULSE_DEFAULTS["e0"]),
            f0=_number(block, "f0", "params", PULSE_DEFAULTS["f0"]),
            n_period=_integer(block, "n_period", "params", PULSE_DEFAULTS["n_period"]),
        )
    except BadParam as exc:
        raise ConfigInvalid(f"params: {exc}") from exc


def _sampled_params(block: dict) -> tuple[Sampled, DensityMatrix]:
    _check_keys(block, ("drive_file", "samples", "rho0"), "params (sampled)")
    has_file = "drive_file" in block
    has_inline = "samples" in block
    if has_file == has_inline:
        raise ConfigInvalid('params (sampled) needs exactly one of "drive_file" or "samples"')
    if has_file:
        if not isinstance(block["drive_file"], str):
            raise ConfigInvalid("params.drive_file must be a string path")
        drive = read_sampled_drive(block["drive_file"])
    else:
        drive = sampled_from_records(block["samples"])

    rho0 = ground_state_dm()
    if "rho0" in block:
        v = block["rho0"]
        ok = (isinstance(v, list) and len(v) == 4
              and all(isinstance(e, (list, tuple)) and len(e) == 2 for e in v))
        if not ok:
            raise ConfigInvalid("params.rho0 must be [[re,im],[re,im],[re,im],[re,im]] "
                                "for (rho00, rho01, rho10, rho11)")
        entries = [complex(json_number(e[0], f"params.rho0[{i}][0]"),
                           json_number(e[1], f"params.rho0[{i}][1]")) for i, e in enumerate(v)]
        m = np.array(entries, dtype=complex).reshape(2, 2)
        try:
            rho0 = dm_new(m)
        except QdriveError as exc:  # NotHermitian / TraceNotOne / NotPositive / BadParam
            raise ConfigInvalid(f"params.rho0 is not a valid density matrix: {exc}") from exc
    return drive, rho0


def _default_steps() -> int:
    raw = os.environ.get(STEPS_ENV_VAR)
    if raw is None:
        return BUILTIN_STEPS_DEFAULT
    try:
        steps = int(raw)
    except ValueError:
        raise ConfigInvalid(f"{STEPS_ENV_VAR} must be a positive integer, got {raw!r}") from None
    if steps < 1:
        raise ConfigInvalid(f"{STEPS_ENV_VAR} must be a positive integer, got {raw!r}")
    if steps > MAX_STEPS:
        raise ConfigInvalid(f"{STEPS_ENV_VAR} must be at most {MAX_STEPS}, got {raw!r}")
    return steps


def scenario_config_from_dict(raw: dict[str, Any]) -> ScenarioConfig:
    """Validate a raw configuration mapping into a ScenarioConfig."""
    if not isinstance(raw, dict):
        raise ConfigInvalid(f"configuration must be an object, got {type(raw).__name__}")
    _check_keys(raw, ("scenario", "params", "grid", "mode", "output"), "configuration")

    scenario = raw.get("scenario")
    if scenario not in SCENARIOS:
        raise ConfigInvalid(f"scenario must be one of {list(SCENARIOS)}, got {scenario!r}")

    mode = raw.get("mode", "analytic")
    if mode not in MODES:
        raise ConfigInvalid(f"mode must be one of {list(MODES)}, got {mode!r}")

    params_block = raw.get("params", {})
    if not isinstance(params_block, dict):
        raise ConfigInvalid("params must be an object")

    rabi = pulse = sampled = None
    rho0 = ground_state_dm()
    if scenario == "rabi":
        rabi = _rabi_params(params_block)
        try:
            period = rabi.population_period
        except DegenerateDrive as exc:
            raise ConfigInvalid(f"params: degenerate drive: {exc}") from exc
    elif scenario == "pulse":
        pulse = _pulse_params(params_block)
    else:
        sampled, rho0 = _sampled_params(params_block)
        if mode != "numeric":
            raise ConfigInvalid("sampled drives have no closed form; mode must be numeric")

    # default time span: one drive period (sampled: the sample window)
    if scenario == "rabi":
        span = (0.0, period)
    elif scenario == "pulse":
        span = (0.0, pulse.period)
    else:
        span = (float(sampled.times[0]), float(sampled.times[-1]))
        if span[1] <= span[0]:
            raise ConfigInvalid("sampled drive needs at least two sample times to "
                                "define a default grid; set grid.t_end explicitly")

    grid_block = raw.get("grid", {})
    if not isinstance(grid_block, dict):
        raise ConfigInvalid("grid must be an object")
    _check_keys(grid_block, ("t_start", "t_end", "steps"), "grid")
    t_start = _number(grid_block, "t_start", "grid", span[0])
    t_end = _number(grid_block, "t_end", "grid", span[1])
    steps = _integer(grid_block, "steps", "grid", _default_steps())
    if steps > MAX_STEPS:
        raise ConfigInvalid(f"grid.steps must be at most {MAX_STEPS}, got {steps}")
    try:
        grid = TimeGrid(t_start=t_start, t_end=t_end, steps=steps)
    except BadParam as exc:
        raise ConfigInvalid(f"grid: {exc}") from exc

    output_block = raw.get("output", {})
    if not isinstance(output_block, dict):
        raise ConfigInvalid("output must be an object")
    _check_keys(output_block, ("path", "format"), "output")
    output_path = output_block.get("path")
    if output_path is not None and not isinstance(output_path, str):
        raise ConfigInvalid(f"output.path must be a string, got {output_path!r}")
    output_format = output_block.get("format", "csv")
    if output_format not in FORMATS:
        raise ConfigInvalid(f"output.format must be one of {list(FORMATS)}, "
                            f"got {output_format!r}")

    return ScenarioConfig(
        scenario=scenario,
        rabi=rabi,
        pulse=pulse,
        sampled=sampled,
        rho0=rho0,
        grid=grid,
        mode=mode,
        output_path=output_path,
        output_format=output_format,
    )


def merge_config(flags: dict[str, Any], overrides: dict[str, Any]) -> dict[str, Any]:
    """Overlay a config-file document on top of flag-derived values.

    File values win key-by-key; nested blocks (params/grid/output) merge the
    same way.
    """
    merged = dict(flags)
    for key, value in overrides.items():
        if isinstance(value, dict) and isinstance(merged.get(key), dict):
            sub = dict(merged[key])
            sub.update(value)
            merged[key] = sub
        else:
            merged[key] = value
    return merged
