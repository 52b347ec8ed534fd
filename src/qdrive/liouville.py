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

The equation is linear in rho and keeps Hermitian matrices Hermitian, so
one RK4 step is a fixed real 4x4 transfer map on the coordinates (rho00,
Re rho01, Im rho01, rho11) of a Hermitian matrix, built from the
generators h G(H) of rho -> -i h [H, rho] at the stage times.  A raw rho
is split as P + iQ with P and Q Hermitian, and the map acts on both.  The
maps of a block of steps are built in one numpy batch and then applied in
order: one map per piece for a piecewise-constant drive, and for a split
step the product of its sub-step maps.  Each product is written straight
into the next node of the trajectory.  A Hermitian start stays exactly
Hermitian, as under the stage-by-stage RK4 loop.

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
        if not np.all(times[1:] > times[:-1]):
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


#: Steps whose transfer maps are built and applied together: the block's
#: temporaries stay near 1 MB, and larger blocks run no faster.
_BLOCK = 512
_I4 = np.eye(4)


def _generator(hams: np.ndarray, dt) -> np.ndarray:
    """dt G(H) for (..., 2, 2) Hamiltonians: the real (..., 4, 4) matrix of
    rho -> -i dt [H, rho] on the coordinates (rho00, x, y, rho11) of a
    Hermitian rho, rho01 = x + iy.  With u + iv the off-diagonal of the
    Hermitian part of H and w = H00 - H11,

        rho00' = 2 (v x - u y) = -rho11',
        x' = -v rho00 + w y + v rho11,    y' = u rho00 - w x - u rho11.
    """
    h01 = 0.5 * (hams[..., 0, 1] + np.conj(hams[..., 1, 0]))
    u, v, w = h01.real, h01.imag, hams[..., 0, 0].real - hams[..., 1, 1].real
    g = np.zeros(np.shape(w) + (4, 4))
    g[..., 0, 1], g[..., 0, 2] = 2 * v, -2 * u
    g[..., 1, 0], g[..., 1, 2], g[..., 1, 3] = -v, w, v
    g[..., 2, 0], g[..., 2, 1], g[..., 2, 3] = u, -w, -u
    g[..., 3, 1], g[..., 3, 2] = -2 * v, 2 * u
    return np.asarray(dt)[..., None, None] * g


def _rk4_map(a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """One classical RK4 step as a (..., 4, 4) map, given the generators
    h G(H) at the step's start (a), midpoint (b) and end (c): the stages
    h k2, h k3, h k4 act as p2, p3 and p4."""
    p2 = b + 0.5 * (b @ a)  # b (I + a/2)
    p3 = b + 0.5 * (b @ p2)  # b (I + p2/2)
    p4 = c + c @ p3  # c (I + p3)
    return _I4 + (a + 2 * p2 + 2 * p3 + p4) / 6


def _piece_map(mats: np.ndarray, dt) -> np.ndarray:
    """RK4 maps of steps dt over which the Hamiltonians mats are held."""
    a = _generator(mats, dt)
    return _rk4_map(a, a, a)


def _split_maps(starts, mats, a, h, k0, k1) -> np.ndarray:
    """Maps of the steps [a, a + h] that pieces k0 < k1 split: the product
    of one RK4 sub-step map per piece, applied right to left."""
    counts = k1 - k0 + 1
    maps = np.tile(_I4, (len(a), 1, 1))
    for j in range(int(counts.max())):
        s = counts > j  # steps with a j-th sub-step
        k = k0[s] + j
        left = a[s] if j == 0 else starts[k]
        right = np.where(k == k1[s], a[s] + h, starts[np.minimum(k + 1, len(starts) - 1)])
        maps[s] = _piece_map(mats[k], right - left) @ maps[s]
    return maps


def _step_maps(drive: DriveHamiltonian, held, t0: float, h: float, i0: int, i1: int) -> np.ndarray:
    """(i1 - i0, 4, 4) RK4 maps of steps i0..i1-1; held is None for the RWA
    drive, else (starts, mats, first, last) of the pieces."""
    a = t0 + np.arange(i0, i1) * h
    if held is None:
        hams = rabi_hamiltonian(drive.params, np.stack([a, a + 0.5 * h, a + h]))
        return _rk4_map(*_generator(hams, h))
    starts, mats, first, last = held
    k0, k1 = first[i0:i1], last[i0:i1]
    # one map per piece in force in the block, gathered per unsplit step
    maps = _piece_map(mats[k0[0]:k1[-1] + 1], h)[k0 - k0[0]]
    split = k0 != k1
    if split.any():
        maps[split] = _split_maps(starts, mats, a[split], h, k0[split], k1[split])
    return maps


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
    held = pieces = _pieces(drive, grid)
    if pieces is not None:
        starts, mats = pieces
        # step i holds pieces first[i]..last[i] (-1: outside the window); a
        # piece starting within tol of a node counts as starting on it
        tol = 1e-9 * h
        first, last = _held(starts, times[:-1] + tol), _held(starts, times[1:] - tol)
        outside = (first < 0) | (last < 0)
        n = int(np.argmax(outside)) if outside.any() else n
        held = (starts, mats, first, last)
    elif not isinstance(drive, RwaRabi):
        raise BadParam(f"unknown drive type {type(drive).__name__}")
    # rho = P + iQ with P = (rho + rho^H)/2 and Q = (rho - rho^H)/2i
    # Hermitian; the columns of r hold the coordinates of P and Q.  Each
    # node's r sits in its own rho: the (re, im) slots of rho00, rho01, rho10
    # and rho11 take its rows, and the off-diagonals are rebuilt at the end
    m = np.array(rho0.matrix, dtype=complex)
    s, d = 0.5 * (m[0, 1] + np.conj(m[1, 0])), 0.5 * (m[0, 1] - np.conj(m[1, 0]))
    rhos = np.empty((grid.steps + 1, 2, 2), dtype=complex)
    coords = rhos.view(float).reshape(-1, 4, 2)
    coords[0] = [[m[0, 0].real, m[0, 0].imag], [s.real, d.imag],
                 [s.imag, -d.real], [m[1, 1].real, m[1, 1].imag]]
    # an unstable step size may overflow; _check_states reports it
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n, _BLOCK):
            maps = _step_maps(drive, held, t0, h, i0, min(i0 + _BLOCK, n))
            # the ndarray.dot method skips np.dot's __array_function__ dispatch
            for step, r, out in zip(maps, coords[i0:], coords[i0 + 1:]):
                step.dot(r, out)
        (px, qx), (py, qy) = coords[:, 1].T.copy(), coords[:, 2].T.copy()
        rhos[:, 0, 1].real, rhos[:, 0, 1].imag = px - qy, py + qx
        rhos[:, 1, 0].real, rhos[:, 1, 0].imag = px + qy, qx - py
    rhos[0] = m
    _check_states(rhos[:n + 1], times)
    if n < grid.steps:
        raise OutOfRange(f"step {n + 1}, t = {float(times[n + 1])!r}: outside the sampled "
                         f"range [{starts[0]}, {starts[-1]}]")
    return build_series(times, rhos)
