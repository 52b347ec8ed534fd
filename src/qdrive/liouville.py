"""Numerical propagation of the Liouville-von Neumann equation

    drho/dt = -i [H(t), rho]

with a fixed-step classical 4th-order Runge-Kutta integrator.  This is the
independent cross-check for every closed-form solution in the package.

A drive is its parameters: RabiParams, the RWA harmonic drive (H at a,
a + h/2 and a + h), or a piecewise-constant one: PulseParams, the square
pulse (a piece from each switch k*T/2 on), or Sampled, a Hamiltonian held
from each sample on.  A step takes the piece in force at its midpoint; a
piece starting more than 1e-9*h inside a step splits it into one RK4
sub-step per piece, so every drive integrates at 4th order on any grid.

The equation is linear in rho and keeps Hermitian matrices Hermitian, so
one RK4 step is a fixed real 4x4 transfer map on the coordinates (rho00,
Re rho01, Im rho01, rho11) of a Hermitian matrix, built from the
generators h G(H) of rho -> -i h [H, rho] at the stage times.  A raw rho
is split as P + iQ with P and Q Hermitian, and the map acts on both, so a
Hermitian start stays exactly Hermitian.  A piecewise-constant drive has
one map per piece and one per split step (the product of its sub-step
maps).  The RWA drive has one: H(a + s) = R(s) H(a) R(s)^H with R(s) =
diag(1, e^{-i w0 s}), so with rho01 turned back by w0 (t - t_start) every
step takes the first step's map turned back by w0 h, and rho01 is turned
forward at the end: the same RK4 scheme, not a rotating-frame integrator.
One applier, _apply, serves every drive.

Integration acts on the raw matrix; the finished (n, 2, 2) trajectory is
validated as density matrices in one batch (at TOL_RUNTIME, 1e-8)
rather than renormalized, so integrator defects surface as errors -- naming
the first failing step and its time -- instead of being masked.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .coherence import build_series
from .core import TOL_RUNTIME, DensityMatrix, Scan, TimeGrid, TimeSeries, scan_rho
from .errors import BadParam, OutOfRange
from .pulse import PulseParams, pulse_hamiltonian, reduced_time
from .rabi import RabiParams, rabi_hamiltonian


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


DriveHamiltonian = RabiParams | PulseParams | Sampled


def _held(starts: np.ndarray, t):
    """Index of the piece held at t (float or array): the last one starting
    at or before t, else the first (left hold); -1 outside [starts[0],
    starts[-1]] widened by a slack for one-ulp drift of step times."""
    slack = 1e-12 * max(1.0, abs(starts[0]), abs(starts[-1]))
    held = np.maximum(np.searchsorted(starts, t, side="right") - 1, 0)
    return np.where((t < starts[0] - slack) | (t > starts[-1] + slack), -1, held)


def _pieces(drive: DriveHamiltonian, grid: TimeGrid) -> tuple[np.ndarray, np.ndarray] | None:
    """(start times, matrices) of a piecewise-constant drive; None otherwise."""
    if isinstance(drive, Sampled):
        return drive.times, drive.matrices
    if not isinstance(drive, PulseParams):
        return None
    half = drive.period / 2.0
    if grid.h > half:  # RK4-unstable anyway, and a step could span any number of switches
        raise BadParam(f"step {grid.h!r} exceeds the half period T/2 = {half!r}")
    # piece k runs from k*T/2 on and holds the branch of its midpoint
    ks = np.arange(math.floor(grid.t_start / half), math.ceil(grid.t_end / half) + 1.0)
    _, sign = reduced_time(drive, (ks + 0.5) * half)
    branches = pulse_hamiltonian(drive, np.array([0.0, half]))
    return ks * half, branches[(sign < 0).astype(int)]


#: Steps per block (its maps and their chunk products: 0.25 MB each) and per chunk
_BLOCK, _CHUNK = 2048, 64
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
    for j in range(int(counts.max(initial=0))):
        s = counts > j  # steps with a j-th sub-step
        k = k0[s] + j
        left = a[s] if j == 0 else starts[k]
        right = np.where(k == k1[s], a[s] + h, starts[np.minimum(k + 1, len(starts) - 1)])
        maps[s] = _piece_map(mats[k], right - left) @ maps[s]
    return maps


def _apply(maps: np.ndarray, nodes: np.ndarray) -> None:
    """nodes[k + 1] = maps[k] nodes[k] for each map, in place, in about two
    numpy calls per _CHUNK steps: all chunks' maps multiplied out together,
    each chunk's start carried in order with one dot, and every interior
    filled by one matmul.  A last partial chunk is applied step by step."""
    q = len(maps) // _CHUNK
    full = q * _CHUNK
    if q:
        chunks = maps[:full].reshape(q, _CHUNK, 4, 4)
        prods = np.empty(chunks.shape)  # prods[:, j] = chunks[:, j] ... chunks[:, 0]
        prods[:, 0] = chunks[:, 0]
        for j in range(1, _CHUNK):
            np.matmul(chunks[:, j], prods[:, j - 1], out=prods[:, j])
        starts = nodes[:full + 1:_CHUNK]
        for c in range(q):  # ndarray.dot skips np.dot's __array_function__ dispatch
            prods[c, -1].dot(starts[c], starts[c + 1])
        np.matmul(prods[:, :-1], starts[:q, None],
                  out=nodes[1:full + 1].reshape(q, _CHUNK, 4, 2)[:, :-1])
    for step, r, out in zip(maps[full:], nodes[full:], nodes[full + 1:]):
        step.dot(r, out)


def _corotating_map(p: RabiParams, t0: float, h: float) -> np.ndarray:
    """The RK4 map of every RWA step with rho01 turned back by w0 (t - t0):
    M_0, from H at t0, t0 + h/2 and t0 + h, its (x, y) rows turned back by w0 h."""
    m = _rk4_map(*_generator(rabi_hamiltonian(p, t0 + np.array([0.0, 0.5, 1.0]) * h), h))
    w = p.omega0 * h
    if not math.isfinite(w):
        raise BadParam(f"omega0 h = {w!r} overflows at step h = {h!r}")
    m[1:3] = np.array([[math.cos(w), math.sin(w)], [-math.sin(w), math.cos(w)]]) @ m[1:3]
    return m


def _check_states(rhos: np.ndarray, times: np.ndarray) -> Scan:
    """Scan the states at TOL_RUNTIME; raise, naming k and t_k, for the lowest state k
    that drifted in trace or Hermiticity (InvariantDrift), is not finite or not PSD.
    rho0 passed DensityMatrix's TOL check, so its drift is at most hypot(TOL, 2 TOL)
    and k >= 1."""
    return scan_rho(rhos, TOL_RUNTIME, drift=True).require_valid(times, "step")


def propagate(drive: DriveHamiltonian, rho0: DensityMatrix, grid: TimeGrid) -> TimeSeries:
    """Fixed-step RK4 propagation of rho over the grid.

    Returns a TimeSeries of steps + 1 samples including the initial state.
    Raises BadParam for a square-pulse step longer than T/2, OutOfRange for
    the first step outside a sampled drive's window (after checking the
    states before it), and the errors of _check_states.
    """
    h, t0, times, n = grid.h, grid.t_start, grid.times(), grid.steps
    pieces = _pieces(drive, grid)
    # an unstable step size may overflow the maps and states; _check_states reports it
    with np.errstate(over="ignore", invalid="ignore"):
        if pieces is not None:
            starts, mats = pieces
            # step i holds pieces first[i]..last[i] (-1: outside the window); a
            # piece starting within tol of a node counts as starting on it
            tol = 1e-9 * h
            first, last = _held(starts, times[:-1] + tol), _held(starts, times[1:] - tol)
            outside = (first < 0) | (last < 0)
            n = int(np.argmax(outside)) if outside.any() else n
            # step i's map is table[index[i]]: each piece's map, then the split steps'
            split = np.flatnonzero(first[:n] != last[:n])
            table = np.concatenate([_piece_map(mats, h), _split_maps(
                starts, mats, times[split], h, first[split], last[split])])
            index = first[:n].copy()
            index[split] = len(mats) + np.arange(len(split))
        elif isinstance(drive, RabiParams):
            table, index = _corotating_map(drive, t0, h)[None], np.zeros(n, dtype=int)
        else:
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
    with np.errstate(over="ignore", invalid="ignore"):
        for i0 in range(0, n, _BLOCK):
            _apply(table[index[i0:i0 + _BLOCK]], coords[i0:i0 + _BLOCK + 1])
        (px, qx), (py, qy) = coords[:, 1].T.copy(), coords[:, 2].T.copy()
        rhos[:, 0, 1].real, rhos[:, 0, 1].imag = px - qy, py + qx
        rhos[:, 1, 0].real, rhos[:, 1, 0].imag = px + qy, qx - py
        if pieces is None:  # turn rho01 forward by w0 k h, rho10 back
            turn = np.exp(1j * drive.omega0 * (np.arange(grid.steps + 1) * h))
            rhos[:, 0, 1] *= turn
            rhos[:, 1, 0] *= turn.conj()
            del turn
    del px, qx, py, qy  # free the coordinate copies before _check_states scans rhos
    rhos[0] = m
    scan = _check_states(rhos[:n + 1], times)
    if n < grid.steps:
        raise OutOfRange(f"step {n + 1}, t = {float(times[n + 1])!r}: outside the sampled "
                         f"range [{starts[0]}, {starts[-1]}]")
    return build_series(times, rhos, scan)
