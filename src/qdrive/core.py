"""Scalar/2x2-matrix arithmetic and the validated state types.

Everything downstream works with 2x2 complex matrices (numpy arrays of
shape ``(2, 2)``, dtype complex128).  This module provides the batch check of
density-matrix invariants (:func:`validate_rho`, on ``(n, 2, 2)`` arrays)
and the constructors that apply it at the boundary:

* :class:`DensityMatrix` -- Hermitian, unit trace, positive semidefinite;
* :class:`StateVector`   -- normalized two-component amplitude vector;
* :class:`TimeGrid`      -- uniform grid for propagation/sampling;
* :class:`TimeSeries`    -- ordered (t, rho, purity, coherence) record.

All types are immutable values; all functions are pure.  hbar = 1 throughout.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass
from typing import Iterator, NamedTuple

import numpy as np

from .errors import (
    BadParam,
    DiscriminantNegative,
    InvariantDrift,
    NotHermitian,
    NotNormalized,
    NotPositive,
    QdriveError,
    TraceNotOne,
)

IDENTITY = np.eye(2, dtype=complex)
SIGMA_X = np.array([[0, 1], [1, 0]], dtype=complex)
SIGMA_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
SIGMA_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Construction tolerances for density-matrix invariants.  Fixed defaults;
#: the numerical propagator and the coherence subcommand pass relaxed
#: values (1e-8) when checking integrated or re-read samples.
TOL_HERM = 1e-12
TOL_TRACE = 1e-12
TOL_PSD = 1e-12


def mat2(a00: complex, a01: complex, a10: complex, a11: complex) -> np.ndarray:
    """Build a 2x2 complex matrix, rejecting non-finite entries."""
    m = np.array([[a00, a01], [a10, a11]], dtype=complex)
    # np.isfinite on complex arrays requires both real and imaginary parts finite
    if not np.isfinite(m).all():
        raise BadParam(f"matrix entry must be finite, got {m!r}")
    return m


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Matrix commutator ``a @ b - b @ a``."""
    return a @ b - b @ a


# Array code mirrors the scalar formulas bit for bit: |z| is libm hypot
# (np.abs on complex arrays may round differently), x ** 2 is libm pow via
# np.float_power (not always x * x), and complex products go through cmul
# (numpy's complex array multiply may fuse them into FMAs).


def cabs(z: np.ndarray) -> np.ndarray:
    """Elementwise |z|, rounded like Python's scalar abs(complex)."""
    return np.hypot(z.real, z.imag)


def cmul(ar, ai, br, bi):
    """(ar + i ai)(br + i bi) as (re, im), rounded like a scalar complex product."""
    return ar * br - ai * bi, ar * bi + ai * br


def hermitian(r00, r11, re01, im01) -> np.ndarray:
    """(..., 2, 2) matrices [[r00, re01 + i im01], [re01 - i im01, r11]]."""
    m = np.empty(np.shape(r00) + (2, 2), dtype=complex)
    m[..., 0, 0], m[..., 1, 1] = r00, r11
    m[..., 0, 1].real = m[..., 1, 0].real = re01
    m[..., 0, 1].imag, m[..., 1, 0].imag = im01, -im01
    return m


def validate_rho(
    rho: np.ndarray,
    tol_herm: float = TOL_HERM,
    tol_trace: float = TOL_TRACE,
    tol_psd: float = TOL_PSD,
    tol_drift: float | None = None,
) -> tuple[int, QdriveError] | None:
    """Check each matrix of a (..., 2, 2) array as a density matrix.

    Returns None if all pass, else ``(i, error)``: the lowest failing index
    of the flattened batch and its unraised error for the first violated
    invariant, in the order: trace or Hermiticity drift past ``tol_drift``
    (InvariantDrift; only if given), finite (BadParam), Hermitian
    (NotHermitian), unit trace (TraceNotOne), positive semidefinite
    (NotPositive).
    """
    m = np.asarray(rho, dtype=complex).reshape(-1, 2, 2)
    r00, r11 = m[:, 0, 0].real, m[:, 1, 1].real
    with np.errstate(invalid="ignore", over="ignore"):
        herm = np.maximum(cabs(m[:, 1, 0] - np.conj(m[:, 0, 1])),
                          np.maximum(np.abs(m[:, 0, 0].imag), np.abs(m[:, 1, 1].imag)))
        tr_err = np.abs(r00 + r11 - 1.0)
        drift = cabs(m[:, 0, 0] + m[:, 1, 1] - 1.0)
        # eigenvalues of the Hermitian part; the discriminant is a sum of
        # squares, so it cannot go negative
        disc = np.sqrt(np.float_power((r00 - r11) / 2.0, 2.0)
                       + np.float_power(cabs(m[:, 0, 1]), 2.0))
        lam_min = (r00 + r11) / 2.0 - disc
    drifted = (np.zeros(len(m), dtype=bool) if tol_drift is None
               else (drift > tol_drift) | (herm > tol_drift))
    finite = np.isfinite(m).all(axis=(1, 2))
    failing = (drifted | ~finite | (herm > tol_herm) | (tr_err > tol_trace)
               | (lam_min < -tol_psd))
    if not failing.any():
        return None
    i = int(np.argmax(failing))
    if drifted[i]:
        error: QdriveError = InvariantDrift(
            f"trace drift {drift[i]:.3e}, Hermiticity drift {herm[i]:.3e} (limit {tol_drift:g})")
    elif not finite[i]:
        error = BadParam(f"density-matrix entry must be finite, got {m[i].tolist()!r}")
    elif herm[i] > tol_herm:
        error = NotHermitian(f"Hermiticity violation {herm[i]:.3e} exceeds {tol_herm:.1e}")
    elif tr_err[i] > tol_trace:
        error = TraceNotOne(f"|trace - 1| = {tr_err[i]:.3e} exceeds {tol_trace:.1e}")
    else:
        error = NotPositive(f"smallest eigenvalue {lam_min[i]:.3e} below -{tol_psd:.1e}")
    return i, error


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """2x2 density matrix checked at construction by validate_rho.  The
    stored matrix is the one supplied -- never renormalized -- and read-only.
    """

    matrix: np.ndarray
    tol_herm: InitVar[float] = TOL_HERM
    tol_trace: InitVar[float] = TOL_TRACE
    tol_psd: InitVar[float] = TOL_PSD

    def __post_init__(self, tol_herm: float, tol_trace: float, tol_psd: float) -> None:
        m = np.array(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise BadParam(f"density matrix must be 2x2, got shape {m.shape}")
        bad = validate_rho(m, tol_herm, tol_trace, tol_psd)
        if bad is not None:
            raise bad[1]
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)

    @property
    def rho00(self) -> complex:
        return complex(self.matrix[0, 0])

    @property
    def rho01(self) -> complex:
        return complex(self.matrix[0, 1])

    @property
    def rho10(self) -> complex:
        return complex(self.matrix[1, 0])

    @property
    def rho11(self) -> complex:
        return complex(self.matrix[1, 1])


def dm_new(
    m: np.ndarray,
    *,
    tol_herm: float = TOL_HERM,
    tol_trace: float = TOL_TRACE,
    tol_psd: float = TOL_PSD,
) -> DensityMatrix:
    """Validate a 2x2 matrix as a density matrix.

    Raises NotHermitian / TraceNotOne / NotPositive naming the violated
    invariant and the offending magnitude.
    """
    return DensityMatrix(m, tol_herm=tol_herm, tol_trace=tol_trace, tol_psd=tol_psd)


def ground_state_dm() -> DensityMatrix:
    """The |0><0| (ground-state) density matrix, diag(1, 0)."""
    return DensityMatrix(np.diag([1.0, 0.0]).astype(complex))


def purities(rho: np.ndarray) -> np.ndarray:
    """tr(rho^2) of each matrix in a (..., 2, 2) array."""
    return (np.float_power(rho[..., 0, 0].real, 2.0) + np.float_power(rho[..., 1, 1].real, 2.0)
            + 2.0 * np.float_power(cabs(rho[..., 0, 1]), 2.0))


def dm_purity(rho: DensityMatrix) -> float:
    """tr(rho^2); 1 for pure states, 0.5 for the maximally mixed qubit."""
    return float(purities(rho.matrix))


def dm_eigenvalues(rho: DensityMatrix) -> tuple[float, float]:
    """Eigenvalue pair (lam_plus, lam_minus) = 1/2 +- sqrt(1/4 + |rho01|^2 - rho00*rho11).

    A radicand below -1e-12 signals an invalid state and raises
    DiscriminantNegative; small negatives from rounding are clamped to 0.
    """
    m = rho.matrix
    radicand = 0.25 + abs(m[0, 1]) ** 2 - m[0, 0].real * m[1, 1].real
    if radicand < -1e-12:
        raise DiscriminantNegative(f"eigenvalue radicand {radicand:.3e} below -1e-12")
    s = math.sqrt(max(radicand, 0.0))
    return 0.5 + s, 0.5 - s


@dataclass(frozen=True)
class StateVector:
    """Normalized amplitudes (c0, c1) on the |0>/ground and |1>/excited levels."""

    c0: complex
    c1: complex

    def __post_init__(self) -> None:
        for name, c in (("c0", self.c0), ("c1", self.c1)):
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise BadParam(f"{name} must be finite, got {c!r}")
        norm_err = abs(abs(self.c0) ** 2 + abs(self.c1) ** 2 - 1.0)
        if norm_err > 1e-12:
            raise NotNormalized(f"| |c0|^2 + |c1|^2 - 1 | = {norm_err:.3e} exceeds 1e-12")

    def as_array(self) -> np.ndarray:
        return np.array([self.c0, self.c1], dtype=complex)

    def projector(self) -> np.ndarray:
        """Outer product |psi><psi| as a raw 2x2 matrix."""
        v = self.as_array()
        return np.outer(v, v.conj())

    def to_density_matrix(self) -> DensityMatrix:
        return DensityMatrix(self.projector())


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
        if int(self.steps) != self.steps or self.steps < 1:
            raise BadParam(f"steps must be a positive integer, got {self.steps}")
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


class Sample(NamedTuple):
    t: float
    rho: np.ndarray
    purity: float
    c_l1: float
    c_frob: float


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

    def __iter__(self) -> Iterator[Sample]:
        for i in range(len(self.t)):
            yield Sample(
                float(self.t[i]),
                self.rho[i],
                float(self.purity[i]),
                float(self.c_l1[i]),
                float(self.c_frob[i]),
            )
