"""Scenario execution: analytic sampling, numeric propagation, verification
reports, and parameter sweeps."""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .coherence import build_series, l1_pulse_closed_form, refine_max
from .config import ScenarioConfig
from .core import TimeSeries, dm_new, scan_rho
from .errors import BadParam, ConfigInvalid, QdriveError
from .liouville import propagate
from .pulse import PulseParams, pulse_density, pulse_rho
from .rabi import RabiParams, rabi_density, rabi_rho

#: Verification thresholds: numeric-vs-analytic entrywise error and trace drift.
ENTRYWISE_THRESHOLD = 1e-6
TRACE_THRESHOLD = 1e-9


@dataclass(frozen=True)
class VerifyReport:
    """Maxima of the numeric-vs-analytic comparison over all samples."""

    max_entrywise_error: float
    max_trace_drift: float
    max_purity_drift: float

    @property
    def passed(self) -> bool:
        return (self.max_entrywise_error <= ENTRYWISE_THRESHOLD
                and self.max_trace_drift <= TRACE_THRESHOLD)


#: The closed forms, each of the state started in |0> at t = 0.
CLOSED_FORMS = {"rabi": rabi_rho, "pulse": pulse_rho}


def analytic_series(cfg: ScenarioConfig) -> TimeSeries:
    """Sample the scenario's closed-form density matrix over the grid."""
    if cfg.scenario not in CLOSED_FORMS:
        raise ConfigInvalid("sampled drives have no closed form")
    times = cfg.grid.times()
    rho = CLOSED_FORMS[cfg.scenario](cfg.drive, times)
    return build_series(times, rho, scan_rho(rho).require_valid(times))


def numeric_series(cfg: ScenarioConfig) -> TimeSeries:
    """Propagate the scenario's drive over the grid: a sampled drive from
    cfg.rho0, rabi and pulse from their closed form at t_start (+ 0.0 clears
    its -0.0 entries), so both routes follow one trajectory."""
    rho0 = cfg.rho0
    if cfg.scenario in CLOSED_FORMS:
        rho0 = dm_new(CLOSED_FORMS[cfg.scenario](cfg.drive, cfg.grid.t_start) + 0.0)
    return propagate(cfg.drive, rho0, cfg.grid)


def verify_series(cfg: ScenarioConfig) -> tuple[TimeSeries, VerifyReport]:
    """Run both routes and report their maximal disagreement."""
    ana = analytic_series(cfg)
    num = numeric_series(cfg)
    entry = float(np.abs(num.rho - ana.rho).max())
    trace = float(np.abs(num.rho[:, 0, 0] + num.rho[:, 1, 1] - 1.0).max())
    purity = float(np.abs(num.purity - ana.purity).max())
    return num, VerifyReport(entry, trace, purity)


def run_scenario(cfg: ScenarioConfig) -> tuple[TimeSeries, VerifyReport | None]:
    """Execute a scenario per its mode; verify mode also returns a report."""
    if cfg.mode == "analytic":
        return analytic_series(cfg), None
    if cfg.mode == "numeric":
        return numeric_series(cfg), None
    return verify_series(cfg)


SWEEP_PARAMS = ("f0", "coupling-magnitude", "omega0")


@dataclass(frozen=True)
class SweepRow:
    value: float
    max_c_l1: float | None = None
    min_purity: float | None = None
    max_purity: float | None = None
    period_return_error: float | None = None
    error: str | None = None


def _swept(drive: RabiParams | PulseParams, param: str, value: float) -> RabiParams | PulseParams:
    if param != "coupling-magnitude":  # f0 or omega0, the name of its field
        return replace(drive, **{param: value})
    # coupling-magnitude: rescale the magnitude, keep the phase
    if not 0.0 <= value < np.inf:  # nan fails both comparisons
        raise BadParam(f"coupling-magnitude must be finite and non-negative, got {value!r}")
    c = drive.coupling
    phase = c / abs(c) if c != 0 else 1.0
    return replace(drive, coupling=value * phase)


def _sweep_row(drive: RabiParams | PulseParams, steps: int, param: str, value: float) -> SweepRow:
    p = _swept(drive, param, value)
    pulse = isinstance(p, PulseParams)
    if pulse:
        period, rho_at, dm_at = p.period, pulse_rho, pulse_density
        c_l1_at = partial(l1_pulse_closed_form, p)
    else:
        period, rho_at, dm_at = p.population_period, rabi_rho, rabi_density

        def c_l1_at(t):  # each batch of the polish is checked as it is made
            return scan_rho(rabi_rho(p, t)).require_valid().c_l1

    times = np.linspace(0.0, period, steps + 1)
    scan = scan_rho(rho_at(p, times)).require_valid(times)
    # rabi scans the states it just validated; pulse scans its closed form,
    # whose bits differ from scan.c_l1
    max_l1 = refine_max(c_l1_at, 0.0, period, samples=steps, scan=None if pulse else scan.c_l1)
    ret = float(np.abs(dm_at(p, period).matrix - np.diag([1.0, 0.0])).max())
    return SweepRow(
        value=value,
        max_c_l1=max_l1,
        min_purity=float(scan.purity.min()),
        max_purity=float(scan.purity.max()),
        period_return_error=ret,
    )


def run_sweep(drive: RabiParams | PulseParams, steps: int, param: str,
              values: list[float]) -> list[SweepRow]:
    """One analytic summary row per value over steps samples of its period;
    per-row errors are recorded, not raised, so the sweep always completes."""
    if param not in SWEEP_PARAMS:
        raise ConfigInvalid(f"sweep param must be one of {list(SWEEP_PARAMS)}, got {param!r}")
    scenario, params = ("pulse", PulseParams) if param == "f0" else ("rabi", RabiParams)
    if not isinstance(drive, params):
        raise ConfigInvalid(f"param {param} applies to the {scenario} scenario only")

    rows = []
    for value in values:
        try:
            rows.append(_sweep_row(drive, steps, param, value))
        except QdriveError as exc:
            rows.append(SweepRow(value=value, error=f"{type(exc).__name__}: {exc}"))
    return rows
