"""Scalar/2x2-matrix arithmetic, the state check and the grid and series types.

Everything downstream works with 2x2 complex matrices (numpy arrays of
shape ``(2, 2)``, dtype complex128), a batch of states as an ``(n, 2, 2)``
array.  This module provides the one-pass check of density-matrix
invariants (Hermitian, unit trace, positive semidefinite) and output
columns (:func:`scan_rho`), and two validated types:

* :class:`TimeGrid`      -- uniform grid for propagation/sampling;
* :class:`TimeSeries`    -- ordered (t, rho, purity, coherence) record.

All types are immutable values; all functions are pure.  hbar = 1 throughout.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    BadParam,
    DiscriminantNegative,
    InvariantDrift,
    NotHermitian,
    NotPositive,
    QdriveError,
    TraceNotOne,
)

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Tolerance of every density-matrix invariant of a state the library builds.
TOL = 1e-12
#: Tolerance of a propagated state (trace and Hermiticity drift included) and
#: of a state re-read from a file.
TOL_RUNTIME = 1e-8


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator ``a @ b - b @ a``."""
    return a @ b - b @ a


def finite_times(t) -> np.ndarray:
    """Times t (any shape) as a float array; BadParam if one is not finite,
    where a closed form would give NaN or a math domain error."""
    t = np.asarray(t, dtype=float)
    if not np.isfinite(t).all():
        raise BadParam(f"t must be finite, got {float(t[~np.isfinite(t)][0])!r}")
    return t


def hermitian(r00, r11, r01) -> np.ndarray:
    """(..., 2, 2) matrices [[r00, r01], [conj(r01), r11]] over the broadcast
    shape of the inputs; r00 and r11 are real, r01 complex."""
    m = np.empty(np.broadcast(r00, r11, r01).shape + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 1, 1] = r00, r11
    m[..., 0, 1], m[..., 1, 0] = r01, np.conj(r01)
    return m


def projector(c0, c1) -> np.ndarray:
    """|psi><psi| of the normalized amplitudes (c0, c1) (arrays of one shape),
    with rho11 = 1 - |c0|^2, so the trace is 1 to one rounding."""
    r00 = c0.real * c0.real + c0.imag * c0.imag
    return hermitian(r00, 1.0 - r00, c0 * np.conj(c1))


class Scan(NamedTuple):
    """What scan_rho finds in a batch of states: the density-matrix verdict,
    and output columns holding one value per matrix of the flattened batch."""

    bad: tuple[int, QdriveError] | None
    purity: np.ndarray
    c_l1: np.ndarray
    radicand: np.ndarray  #: 1 + 4|rho01|^2 - 4 rho00 rho11, the squared Frobenius coherence
    tol: float  #: the tolerance the states were checked at

    @property
    def c_frob(self) -> np.ndarray:
        """sqrt(radicand) clamped to [0, 1].

        The radicand is (rho00 - rho11)^2 + 4|rho01|^2 + 1 - tr^2, so a state
        within ``tol`` of unit trace has one of at least -tol (2 + tol), less
        a few roundings of numbers near 1 (4 ulp(1) covers them).  Clamping
        absorbs that; a radicand below it raises DiscriminantNegative.
        """
        floor = -(self.tol * (2.0 + self.tol) + 4.0 * math.ulp(1.0))
        bad = self.radicand < floor
        if bad.any():
            raise DiscriminantNegative(
                f"coherence radicand {self.radicand[bad][0]:.3e} below {floor:.3e} (tolerance {self.tol:g})")
        return np.sqrt(np.clip(self.radicand, 0.0, 1.0))

    def require_valid(self, times: np.ndarray | float | None = None,
                      where: str = "sample {k}") -> Scan:
        """This scan if every state passed; else raise the first failure k, its
        message prefixed "{where}, t = t_k: " when the states' ``times`` (one
        per state, or a scalar for one state) are given; ``where`` may name k."""
        if self.bad is None:
            return self
        k, error = self.bad
        if times is None:
            raise error
        t = float(np.reshape(times, -1)[k])
        raise type(error)(f"{where.format(k=k)}, t = {t!r}: {error}") from None


def scan_rho(rho: np.ndarray, tol: float = TOL, drift: bool = False) -> Scan:
    """Check each matrix of a (..., 2, 2) array as a density matrix and compute
    its purity tr(rho^2), l1 coherence |rho01| + |rho10| and Frobenius
    radicand, in one pass that takes |rho01| and |rho01|^2 once.

    ``bad`` is None if all pass, else ``(i, error)``: the lowest failing index
    of the flattened batch and its unraised error for the first violated
    invariant, each checked to within ``tol``, in the order: trace or
    Hermiticity drift (InvariantDrift; only if ``drift``), finite (BadParam),
    Hermitian (NotHermitian), unit trace (TraceNotOne), positive semidefinite
    (NotPositive).
    """
    m = np.asarray(rho, dtype=complex).reshape(-1, 2, 2)
    r00, i00, re01, im01, re10, im10, r11, i11 = m.reshape(-1, 4).view(float).T
    with np.errstate(invalid="ignore", over="ignore"):
        a01 = np.hypot(re01, im01)
        a01_sq = a01 * a01
        purity = r00 * r00 + r11 * r11 + 2.0 * a01_sq
        c_l1 = a01 + np.hypot(re10, im10)
        radicand = 1.0 + 4.0 * a01_sq - 4.0 * r00 * r11
        herm = np.maximum(np.hypot(re10 - re01, im10 + im01), np.maximum(np.abs(i00), np.abs(i11)))
        tr = r00 + r11
        tr_err = np.abs(tr - 1.0)
        d = (r00 - r11) / 2.0
        lam_min = tr / 2.0 - np.sqrt(d * d + a01_sq)
        # a non-finite entry makes herm, tr_err or lam_min non-finite: "not within" catches NaN
        failing = ~(herm <= tol) | ~(tr_err <= tol) | ~(lam_min >= -tol)
        if drift:
            tr_drift = np.hypot(tr - 1.0, i00 + i11)
            drifted = (tr_drift > tol) | (herm > tol)
            failing |= drifted
    if not failing.any():
        return Scan(None, purity, c_l1, radicand, tol)
    i = int(np.argmax(failing))
    if drift and drifted[i]:
        error: QdriveError = InvariantDrift(
            f"trace drift {tr_drift[i]:.3e}, Hermiticity drift {herm[i]:.3e} (limit {tol:g})")
    elif not np.isfinite(m[i]).all():
        error = BadParam(f"density-matrix entry must be finite, got {m[i].tolist()!r}")
    elif herm[i] > tol:
        error = NotHermitian(f"Hermiticity violation {herm[i]:.3e} exceeds {tol:.1e}")
    elif tr_err[i] > tol:
        error = TraceNotOne(f"|trace - 1| = {tr_err[i]:.3e} exceeds {tol:.1e}")
    else:
        error = NotPositive(f"smallest eigenvalue {lam_min[i]:.3e} below -{tol:.1e}")
    return Scan((i, error), purity, c_l1, radicand, tol)


@dataclass(frozen=True)
class TimeGrid:
    """Uniform time grid: ``steps`` intervals covering [t_start, t_end],
    with strictly increasing nodes."""

    t_start: float
    t_end: float
    steps: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.t_start) and math.isfinite(self.t_end - self.t_start)):
            raise BadParam("grid endpoints and the span between them must be finite")
        if not self.t_end > self.t_start:
            raise BadParam(f"t_end ({self.t_end}) must exceed t_start ({self.t_start})")
        if not isinstance(self.steps, (int, np.integer)) or self.steps < 1:
            raise BadParam(f"steps must be an integer >= 1, got {self.steps!r}")
        # node i rounds i*h and t_start + i*h, each by at most half the
        # spacing u of doubles at 2 max(|t_start|, |t_end|), so nodes differ
        # by at least h - 2u; only a smaller h needs a node-by-node check
        if self.h <= 4.0 * math.ulp(2.0 * max(abs(self.t_start), abs(self.t_end))):
            times = self.times()
            stuck = np.flatnonzero(np.diff(times) <= 0.0)
            if len(stuck):
                k = int(stuck[0])
                raise BadParam(f"nodes {k} and {k + 1} coincide at t = {float(times[k])!r}: "
                               f"step {self.h!r} is below the spacing of doubles there")

    @property
    def h(self) -> float:
        return (self.t_end - self.t_start) / self.steps

    def times(self) -> np.ndarray:
        """steps + 1 node times, t_start + i*h, endpoint included."""
        return self.t_start + np.arange(self.steps + 1) * self.h


@dataclass(frozen=True, eq=False)
class TimeSeries:
    """Ordered record of (t, rho, purity, l1 coherence, Frobenius coherence).

    ``rho`` is stored as an (n, 2, 2) complex array; rows were validated as
    density matrices when the series was built.  Every column must be finite.
    """

    t: np.ndarray
    rho: np.ndarray
    purity: np.ndarray
    c_l1: np.ndarray
    c_frob: np.ndarray

    def __post_init__(self) -> None:
        n = len(self.t)
        if self.rho.shape != (n, 2, 2):
            raise BadParam(f"rho must have shape ({n}, 2, 2), got {self.rho.shape}")
        for name in ("purity", "c_l1", "c_frob"):
            if len(getattr(self, name)) != n:
                raise BadParam(f"{name} length does not match t")
        for name in ("t", "rho", "purity", "c_l1", "c_frob"):
            if not np.isfinite(getattr(self, name)).all():
                raise BadParam(f"{name} holds a non-finite value")
        if not np.all(self.t[1:] > self.t[:-1]):
            raise BadParam("sample times must be strictly increasing")

    def __len__(self) -> int:
        return len(self.t)
