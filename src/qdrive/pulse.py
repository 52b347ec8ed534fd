"""Two-level system driven by a constant z field plus a square-pulse x field.

    H(t) = -E0 (sigma_z + f(t) sigma_x),   f(t) = +f0 for tau < T/2,
                                                  -f0 for tau >= T/2,

with tau = t mod T.  The closed forms below hold for the self-consistent
period

    T = 2 N pi / eps0,   eps0 = E0 sqrt(1 + f0^2),   N = 1, 2, ...

chosen so the state started in |0> returns exactly to |0><0| at every
multiple of T/2.  Within a period the populations oscillate at 2*eps0 and
the off-diagonal elements flip sign when tau crosses T/2 (tracking the sign
of the pulse).  Times outside [0, T) are reduced periodically.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import SIGMA_X, SIGMA_Z, finite_times, projector, scan_rho
from .errors import BadParam


def periodicity_T(e0: float, f0: float, n: int) -> float:
    """Self-consistent drive period T = 2 n pi / (e0 sqrt(1 + f0^2)).

    f0 = 0 is admitted here (plain Larmor period); driven-scenario
    parameters additionally require f0 > 0, enforced by PulseParams.
    """
    if not (math.isfinite(e0) and e0 > 0):
        raise BadParam(f"e0 must be positive and finite, got {e0!r}")
    if not (math.isfinite(f0) and f0 >= 0):
        raise BadParam(f"f0 must be non-negative and finite, got {f0!r}")
    if not 1 <= n <= 1e308 or int(n) != n:
        raise BadParam(f"n must be an integer in [1, 1e308], got {n!r}")
    T = 2.0 * n * math.pi / (e0 * math.sqrt(1.0 + f0 * f0))
    if not 0.0 < T < math.inf:  # eps0 = e0 sqrt(1 + f0^2) overflowed (T = 0) or underflowed
        raise BadParam(f"period T = {T!r} must be positive and finite")
    return T


@dataclass(frozen=True)
class PulseParams:
    """Square-pulse drive parameters: field energy e0, amplitude ratio f0,
    period index n_period."""

    e0: float
    f0: float
    n_period: int

    def __post_init__(self) -> None:
        if not (math.isfinite(self.f0) and self.f0 > 0):
            raise BadParam(f"f0 must be positive and finite, got {self.f0!r}")
        # periodicity_T performs the remaining domain checks
        periodicity_T(self.e0, self.f0, self.n_period)

    @property
    def eps0(self) -> float:
        """Effective oscillation energy eps0 = e0 sqrt(1 + f0^2)."""
        return self.e0 * math.sqrt(1.0 + self.f0 * self.f0)

    @property
    def period(self) -> float:
        return periodicity_T(self.e0, self.f0, self.n_period)


def reduced_time(p: PulseParams, t: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Map t (any shape) to (tau, s): tau = t mod T in [0, T) and the pulse
    sign s on that branch (+1 before T/2, -1 from T/2 on)."""
    T = p.period
    tau = np.fmod(finite_times(t), T)
    tau = np.where(tau < 0.0, tau + T, tau)
    return tau, np.where(tau < T / 2.0, 1.0, -1.0)


def pulse_f(p: PulseParams, t: np.ndarray | float) -> np.ndarray | float:
    """Square pulse value at time(s) t: +f0 for tau < T/2, -f0 for tau >= T/2
    (right limit at the switch); a float for scalar t, an array of t's shape
    otherwise."""
    _, s = reduced_time(p, t)
    f = s * p.f0
    return f if np.ndim(t) else float(f)


def pulse_hamiltonian(p: PulseParams, t: np.ndarray | float) -> np.ndarray:
    """Drive Hamiltonian -e0 (sigma_z + f(t) sigma_x) at times t (shape S), as
    an S + (2, 2) array."""
    f = np.asarray(pulse_f(p, t))
    return -p.e0 * (SIGMA_Z + f[..., None, None] * SIGMA_X)


def pulse_amplitudes(p: PulseParams, t: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes (c0, c1) at times t (any shape) of the system started in |0>:

    c0 = cos(eps0 tau) + (i / sqrt(1 + f0^2)) sin(eps0 tau)
    c1 = s (i f0 / sqrt(1 + f0^2)) sin(eps0 tau)

    The |1> amplitude flips sign with the pulse branch s.
    """
    tau, s = reduced_time(p, t)
    root = math.sqrt(1.0 + p.f0 * p.f0)
    sin = np.sin(p.eps0 * tau)
    return np.cos(p.eps0 * tau) + 1j * (sin / root), (1j * p.f0 / root) * (s * sin)


def pulse_rho(p: PulseParams, t: np.ndarray | float) -> np.ndarray:
    """Closed-form density matrices |psi><psi| at times t (shape S) for the
    system started in |0>, as an S + (2, 2) array (see pulse_amplitudes).

    With x = 2 eps0 tau and q = 1 + f0^2:
        rho00 = (f0^2 / 2q) cos x + (2 + f0^2) / 2q
        rho01 = s [ (f0 / 2q)(1 - cos x) - (i f0 / 2 sqrt(q)) sin x ]
    and rho11 = 1 - rho00, rho10 = conj(rho01).  The sign s follows the
    pulse branch; at the switches eps0 tau is a multiple of pi, so c1 and
    rho01 vanish on both branches, up to the rounding of sin.  At t = 0 the
    state is |0><0| exactly.
    """
    return projector(*pulse_amplitudes(p, t))


def pulse_density(p: PulseParams, t: float) -> np.ndarray:
    """The closed-form density matrix at a single time t (see pulse_rho), checked
    by scan_rho at TOL; an error names t ("state, t = ...")."""
    rho = pulse_rho(p, t)
    scan_rho(rho).require_valid(t, "state")
    return rho
