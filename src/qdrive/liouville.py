"""Numerical propagation of the Liouville-von Neumann equation

    drho/dt = -i [H(t), rho]

with a fixed-step classical 4th-order Runge-Kutta integrator.  This is the
independent cross-check for every closed-form solution in the package.

Drives are a tagged union: the RWA harmonic drive (H at a, a + h/2 and
a + h), and two that are piecewise constant: the square pulse (a piece from
each switch k*T/2 on) and a sampled Hamiltonian (held from each sample on).
A step takes the piece in force at its midpoint; a piece starting more than
1e-9*h inside a step splits it into one RK4 sub-step per piece, so every
drive integrates at 4th order on any grid.

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
from .errors import BadParam, OutOfRange
from .pulse import PulseParams, pulse_hamiltonian, reduced_time
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


def _held(starts: np.ndarray, t):
    """Index of the piece held at t (float or array): the last one starting
    at or before t, else the first (left hold); -1 outside [starts[0],
    starts[-1]] widened by a slack for one-ulp drift of step times."""
    slack = 1e-12 * max(1.0, abs(starts[0]), abs(starts[-1]))
    held = np.maximum(np.searchsorted(starts, t, side="right") - 1, 0)
    return np.where((t < starts[0] - slack) | (t > starts[-1] + slack), -1, held)


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
        k = int(_held(drive.times, t))
        if k < 0:
            raise OutOfRange(f"t = {t} outside sampled range [{drive.times[0]}, {drive.times[-1]}]")
        return drive.matrices[k]
    raise BadParam(f"unknown drive type {type(drive).__name__}")


def liouville_rhs(drive: DriveHamiltonian, t: float, rho: np.ndarray) -> np.ndarray:
    """Right-hand side -i [H(t), rho] acting on a raw 2x2 matrix."""
    return -1j * commutator(hamiltonian_at(drive, t), rho)


def _pieces(drive: DriveHamiltonian, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray] | None:
    """(start times, matrices) of a piecewise-constant drive; None otherwise."""
    if isinstance(drive, Sampled):
        return drive.times, drive.matrices
    if not isinstance(drive, SquarePulse):
        return None
    p, half = drive.params, drive.params.period / 2.0
    if grid.h > half:  # RK4-unstable anyway, and a step could span any number of switches
        raise BadParam(f"step {grid.h!r} exceeds the half period T/2 = {half!r}")
    # piece k runs from k*T/2 on and holds the branch of its midpoint
    ks = np.arange(math.floor(grid.t_start / half), math.ceil(grid.t_end / half) + 1.0)
    _, sign = reduced_time(p, (ks + 0.5) * half)
    branches = np.stack([pulse_hamiltonian(p, 0.0), pulse_hamiltonian(p, half)])
    return ks * half, branches[(sign < 0).astype(int)]


def _rk4(rho: np.ndarray, h: float, h_a: np.ndarray, h_mid: np.ndarray, h_b: np.ndarray):
    """One RK4 step of length h, given H at its start, midpoint and end."""
    k1 = -1j * commutator(h_a, rho)
    k2 = -1j * commutator(h_mid, rho + 0.5 * h * k1)
    k3 = -1j * commutator(h_mid, rho + 0.5 * h * k2)
    k4 = -1j * commutator(h_b, rho + h * k3)
    return rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _check_states(rhos: np.ndarray, times: np.ndarray) -> None:
    """Raise, naming k and t_k, for the lowest state k >= 1 that drifted past
    1e-8 in trace or Hermiticity (InvariantDrift), is not finite or not PSD."""
    bad = validate_rho(rhos[1:], tol_herm=1e-8, tol_trace=1e-8, tol_psd=1e-8, tol_drift=1e-8)
    if bad is not None:
        k, error = bad[0] + 1, bad[1]
        raise type(error)(f"step {k}, t = {float(times[k])!r}: {error}") from None


def propagate(drive: DriveHamiltonian, rho0: DensityMatrix, grid: TimeGrid) -> TimeSeries:
    """Fixed-step RK4 propagation of rho over the grid.

    Returns a TimeSeries of steps + 1 samples including the initial state.
    Raises BadParam for a square-pulse step longer than T/2, OutOfRange for
    the first step outside a sampled drive's window (after checking the
    states before it), and the errors of _check_states.
    """
    h, t0, times, n = grid.h, grid.t_start, grid.times(), grid.steps
    pieces = _pieces(drive, grid)
    if pieces is not None:
        starts, mats = pieces
        # step i holds pieces first[i]..last[i] (-1: outside the window); a
        # piece starting within tol of a node counts as starting on it
        tol = 1e-9 * h
        first, last = _held(starts, times[:-1] + tol), _held(starts, times[1:] - tol)
        outside = (first < 0) | (last < 0)
        n = int(np.argmax(outside)) if outside.any() else n
    rhos = np.empty((grid.steps + 1, 2, 2), dtype=complex)
    rhos[0] = rho = np.array(rho0.matrix, dtype=complex)
    # an unstable step size may overflow; _check_states reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(n):
            a = t0 + i * h
            if pieces is None:
                rho = _rk4(rho, h, hamiltonian_at(drive, a), hamiltonian_at(drive, a + 0.5 * h),
                           hamiltonian_at(drive, a + h))
            else:
                k0, k1 = first[i], last[i]
                hs = [h] if k0 == k1 else np.diff([a, *starts[k0 + 1:k1 + 1], a + h])
                for m, dh in zip(mats[k0:k1 + 1], hs):
                    rho = _rk4(rho, dh, m, m, m)
            rhos[i + 1] = rho
    _check_states(rhos[:n + 1], times)
    if n < grid.steps:
        raise OutOfRange(f"step {n + 1}, t = {float(times[n + 1])!r}: outside the sampled "
                         f"range [{starts[0]}, {starts[-1]}]")
    return build_series(times, rhos)
