"""Closed-form solution of the harmonically driven two-level system under the
rotating-wave approximation (RWA).

The drive Hamiltonian is

    H(t) = [[E_g,                 conj(g) e^{+i w0 t}],
            [g e^{-i w0 t},       E_e               ]]

with a single complex coupling g (the product of field amplitude and dipole
matrix element).  Two derived constants control the dynamics:

    Theta = E_e - E_g - w0          (detuning)
    Omega = sqrt(Theta^2/4 + |g|^2) (Rabi frequency)

Starting from the ground state diag(1, 0), the density matrix stays pure and
oscillates with population period pi/Omega.  Following the paper, the
solution is written e^{i zeta t} |phi(t)> with zeta = (w0 - E_e - E_g)/2.
|phi(t)> mixes e^{+i Omega t} and e^{-i Omega t} over a 2 pi/w0-periodic
part, so it is not 2 pi/w0-periodic unless Omega and w0 are commensurate:
the solution is a sum of two Floquet states with quasi-energies
-zeta -+ Omega (mod w0) (e^{-i eps t} convention), whose mean is -zeta.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, dm_new, finite_times, hermitian, projector
from .errors import BadParam, DegenerateDrive


@dataclass(frozen=True)
class RabiParams:
    """Physical parameters of the RWA drive.

    Omega is zero only in the fully degenerate case (zero coupling AND zero
    detuning); operations that divide by Omega reject it with DegenerateDrive,
    and also a nonzero Omega below about 3.7e-155, where 1/(4 Omega^2)
    overflows (Omega itself may round to 0).  An Omega that overflows is
    rejected here with BadParam.
    """

    e_g: float
    e_e: float
    omega0: float
    coupling: complex

    def __post_init__(self) -> None:
        for name in ("e_g", "e_e", "omega0"):
            v = getattr(self, name)
            if not math.isfinite(v):
                raise BadParam(f"{name} must be finite, got {v!r}")
        c = complex(self.coupling)
        if not (math.isfinite(c.real) and math.isfinite(c.imag)):
            raise BadParam(f"coupling must be finite, got {c!r}")
        object.__setattr__(self, "coupling", c)
        # Omega's radicand, without the OverflowError that ** raises
        if not math.isfinite(self.theta * self.theta / 4.0 + abs(c) * abs(c)):
            raise BadParam(f"Theta = {self.theta!r} and coupling {c!r} overflow the Rabi frequency")

    @property
    def theta(self) -> float:
        """Detuning Theta = E_e - E_g - w0."""
        return self.e_e - self.e_g - self.omega0

    @property
    def omega_rabi(self) -> float:
        """Rabi frequency Omega = sqrt(Theta^2/4 + |coupling|^2).  A subnormal
        radicand has lost bits to its absolute rounding, and hypot keeps them."""
        radicand = self.theta**2 / 4.0 + abs(self.coupling) ** 2
        if 0.0 < radicand < 2.2250738585072014e-308:  # the smallest normal double
            return math.hypot(self.theta / 2.0, abs(self.coupling))
        return math.sqrt(radicand)

    @property
    def population_period(self) -> float:
        """Period pi/Omega of the level populations."""
        return math.pi / _nonzero_omega(self)


def _nonzero_omega(p: RabiParams) -> float:
    if p.theta == 0.0 and p.coupling == 0:
        raise DegenerateDrive("Omega = 0 (zero coupling and zero detuning)")
    om = p.omega_rabi  # 0.0 also when Theta**2 and |coupling|**2 underflow
    if om * om == 0.0 or math.isinf(1.0 / (4.0 * om * om)):  # the Lewis invariant scales by it
        raise DegenerateDrive(f"Omega = {om!r} is too small: 1/(4 Omega^2) overflows")
    return om


def rabi_hamiltonian(p: RabiParams, t: np.ndarray | float) -> np.ndarray:
    """RWA drive Hamiltonian [[E_g, conj(g) e^{i w0 t}], [g e^{-i w0 t}, E_e]]
    at times t (shape S), as an S + (2, 2) array."""
    t = finite_times(t)
    return hermitian(p.e_g, p.e_e, np.conj(p.coupling) * np.exp(1j * p.omega0 * t))


def rabi_amplitudes(p: RabiParams, t: np.ndarray | float) -> tuple[np.ndarray, np.ndarray]:
    """Amplitudes (c0, c1) of |phi(t)> at times t (any shape) for the system
    started in the ground state; the full solution of the Schroedinger
    equation is e^{i zeta t} |phi(t)>, zeta = floquet_quasienergy(p):

    c0 = cos(Omega t) + (i Theta / 2 Omega) sin(Omega t)
    c1 = -(i g / Omega) e^{-i w0 t} sin(Omega t)
    """
    t = finite_times(t)
    om = _nonzero_omega(p)
    s = np.sin(om * t)
    c0 = np.cos(om * t) + 1j * (p.theta / (2.0 * om) * s)
    c1 = (-1j * p.coupling / om) * np.exp(-1j * p.omega0 * t) * s
    return c0, c1


def rabi_rho(p: RabiParams, t: np.ndarray | float) -> np.ndarray:
    """Density matrices |phi(t)><phi(t)| at times t (shape S) for the system
    started in the ground state, as an S + (2, 2) array (see rabi_amplitudes):

    rho_gg = cos^2(Omega t) + (Theta^2 / 4 Omega^2) sin^2(Omega t)
    rho_ee = 1 - rho_gg = (|g|^2 / Omega^2) sin^2(Omega t)
    rho_ge = (conj(g) e^{i w0 t} / 4 Omega^2)
             (Theta cos(2 Omega t) - Theta + 2i Omega sin(2 Omega t))
    """
    return projector(*rabi_amplitudes(p, t))


def rabi_density(p: RabiParams, t: float) -> DensityMatrix:
    """Validated closed-form density matrix at a single time t (see rabi_rho)."""
    return dm_new(rabi_rho(p, t))


def floquet_quasienergy(p: RabiParams) -> float:
    """The paper's quasi-energy zeta = (w0 - E_e - E_g) / 2 (see the module docstring)."""
    return (p.omega0 - p.e_e - p.e_g) / 2.0
