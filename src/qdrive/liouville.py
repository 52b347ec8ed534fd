"""Numerical propagation of the Liouville-von Neumann equation

    drho/dt = -i [H(t), rho]

with a fixed-step classical 4th-order Runge-Kutta integrator.  This is the
independent cross-check for every closed-form solution in the package.

Drives are a tagged union: the RWA harmonic drive, the square-pulse drive,
or an arbitrary sampled Hamiltonian held piecewise constant from the left
sample.  For the square pulse the grid must place a node on every switching
time k*T/2 inside the integration window; each RK4 step then evaluates the
(per-step constant) Hamiltonian at the step midpoint, so no stage ever
mixes the two pulse branches and the integrator keeps its 4th-order
accuracy across switches.  The delta-function kick exactly at the switch is
measure zero and is not integrated.

Integration acts on the raw matrix; the finished (n, 2, 2) trajectory is
validated as density matrices in one batch (relaxed 1e-8 tolerances)
rather than renormalized, so integrator defects surface as errors -- naming
the first failing step and its time -- instead of being masked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .coherence import build_series
from .core import DensityMatrix, TimeGrid, TimeSeries, commutator, validate_rho
from .errors import BadParam, OutOfRange, QdriveError, StepSpansDiscontinuity
from .pulse import PulseParams, pulse_hamiltonian
from .rabi import RabiParams, rabi_hamiltonian


@dataclass(frozen=True)
class RwaRabi:
    params: RabiParams


@dataclass(frozen=True)
class SquarePulse:
    params: PulseParams


@dataclass(frozen=True, eq=False)
class Sampled:
    """Hamiltonian given as (time, matrix) samples, piecewise constant from
    the left: H(t) = H_k for t_k <= t < t_{k+1}, and H(t_last) at the end."""

    times: np.ndarray
    matrices: np.ndarray

    def __post_init__(self) -> None:
        times = np.asarray(self.times, dtype=float)
        mats = np.asarray(self.matrices, dtype=complex)
        if times.ndim != 1 or len(times) < 1:
            raise BadParam("sampled drive needs at least one (t, H) sample")
        if mats.shape != (len(times), 2, 2):
            raise BadParam(f"matrices must have shape ({len(times)}, 2, 2), got {mats.shape}")
        if not np.isfinite(times).all() or not np.isfinite(mats).all():
            raise BadParam("sampled drive entries must be finite")
        if len(times) > 1 and not np.all(np.diff(times) > 0):
            raise BadParam("sample times must be strictly increasing")
        herm = np.abs(mats - np.conj(np.transpose(mats, (0, 2, 1)))).max()
        if herm > 1e-12:
            raise BadParam(f"sampled Hamiltonians must be Hermitian within 1e-12, worst {herm:.3e}")
        times.setflags(write=False)
        mats.setflags(write=False)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "matrices", mats)


DriveHamiltonian = Union[RwaRabi, SquarePulse, Sampled]


def hamiltonian_at(drive: DriveHamiltonian, t: float) -> np.ndarray:
    """Drive Hamiltonian matrix at time t.

    For the square pulse the value at an exact switching time is the right
    limit (the "-f0" branch at tau = T/2).  Sampled drives raise OutOfRange
    outside their sample window.
    """
    if isinstance(drive, RwaRabi):
        return rabi_hamiltonian(drive.params, t)
    if isinstance(drive, SquarePulse):
        return pulse_hamiltonian(drive.params, t)
    if isinstance(drive, Sampled):
        times = drive.times
        # slack tolerates one-ulp drift of RK4 stage times at the window edge
        slack = 1e-12 * max(1.0, abs(times[0]), abs(times[-1]))
        if t < times[0] - slack or t > times[-1] + slack:
            raise OutOfRange(f"t = {t} outside sampled range [{times[0]}, {times[-1]}]")
        idx = int(np.searchsorted(times, t, side="right")) - 1
        idx = min(max(idx, 0), len(times) - 1)
        return drive.matrices[idx]
    raise BadParam(f"unknown drive type {type(drive).__name__}")


def liouville_rhs(drive: DriveHamiltonian, t: float, rho: np.ndarray) -> np.ndarray:
    """Right-hand side -i [H(t), rho] acting on a raw 2x2 matrix."""
    return -1j * commutator(hamiltonian_at(drive, t), rho)


def _check_pulse_nodes(p: PulseParams, grid: TimeGrid) -> None:
    # every switching time k*T/2 inside (t_start, t_end) must land on a node
    half = p.period / 2.0
    h = grid.h
    tol = 1e-9 * h
    k_lo = math.floor(grid.t_start / half) - 1
    k_hi = math.ceil(grid.t_end / half) + 1
    for k in range(k_lo, k_hi + 1):
        s = k * half
        if s <= grid.t_start + tol or s >= grid.t_end - tol:
            continue
        j = round((s - grid.t_start) / h)
        node = grid.t_start + j * h
        if abs(s - node) > tol:
            raise StepSpansDiscontinuity(
                f"switching time {s!r} falls strictly inside a step "
                f"(nearest node {node!r}); align the grid with multiples of T/2"
            )


def _check_states(rhos: np.ndarray, times: np.ndarray) -> None:
    """Raise for the lowest integrated state k >= 1 whose trace or Hermiticity
    drifted past 1e-6 (InvariantDrift) or that fails the relaxed 1e-8
    density-matrix checks, naming k and t_k."""
    bad = validate_rho(rhos[1:], tol_herm=1e-8, tol_trace=1e-8, tol_psd=1e-8, tol_drift=1e-6)
    if bad is not None:
        k, error = bad[0] + 1, bad[1]
        raise type(error)(f"step {k}, t = {float(times[k])!r}: {error}") from None


def propagate(drive: DriveHamiltonian, rho0: DensityMatrix, grid: TimeGrid) -> TimeSeries:
    """Fixed-step RK4 propagation of rho over the grid.

    Returns a TimeSeries of steps + 1 samples including the initial state.
    Raises StepSpansDiscontinuity if a square-pulse switch falls inside a
    step; see _check_states for the errors of an integrated state.
    """
    if isinstance(drive, SquarePulse):
        _check_pulse_nodes(drive.params, grid)

    h = grid.h
    t0 = grid.t_start
    piecewise_const = isinstance(drive, SquarePulse)
    times = grid.times()
    rhos = np.empty((grid.steps + 1, 2, 2), dtype=complex)
    rhos[0] = rho = np.array(rho0.matrix, dtype=complex)
    # an unstable step size may overflow; _check_states reports it
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for i in range(grid.steps):
                a = t0 + i * h
                if piecewise_const:
                    # constant on the open step interval; the midpoint picks the branch
                    h_a = h_mid = h_b = hamiltonian_at(drive, a + 0.5 * h)
                else:
                    h_a, h_mid, h_b = (hamiltonian_at(drive, a), hamiltonian_at(drive, a + 0.5 * h),
                                       hamiltonian_at(drive, a + h))
                k1 = -1j * commutator(h_a, rho)
                k2 = -1j * commutator(h_mid, rho + 0.5 * h * k1)
                k3 = -1j * commutator(h_mid, rho + 0.5 * h * k2)
                k4 = -1j * commutator(h_b, rho + h * k3)
                rhos[i + 1] = rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        except QdriveError:
            _check_states(rhos[:i + 1], times)  # an earlier state may have failed
            raise
    _check_states(rhos, times)
    return build_series(times, rhos)
