"""Dynamical (Lewis-type) invariant for the RWA-driven two-level system.

A Hermitian operator I(t) is invariant when its total time derivative
vanishes along the dynamics:

    dI/dt = dI/dt|_partial + (1/i)[I, H(t)] = 0.

For the RWA drive the general 2x2 invariant has diagonal (xi^2, C - xi^2)
where the auxiliary amplitude xi(t) solves an Ermakov-Pinney equation and C
is a constant of integration fixed by initial conditions.  With the system
started in the ground state,

    xi^2(t) = ((2 - C)|g|^2 / 2 Omega^2) cos(2 Omega t)
              + (Theta^2 + 2 C |g|^2) / (4 Omega^2)

and the off-diagonal coefficient on the |g><e| slot is

    gamma1(t) = (Theta / 2 g) e^{i w0 t} (xi^2 - 1) - i xi xidot e^{i w0 t} / g.

At C = 1 the (rescaled, unit-eigenvalue) invariant coincides entrywise with
the closed-form density matrix, and the accompanying phase is linear in t
with slope equal to the Floquet quasi-energy.

Note: the Ermakov-Pinney form consistent with the solution above is, in
u = xi^2 terms,  u'' + 4 Omega^2 u = Theta^2 + 2 C |g|^2,  equivalently
xidd/xi + xid^2/xi^2 + 2 Omega^2 = (Theta^2/2 + C|g|^2)/xi^2.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .core import commutator
from .errors import BadParam, DegenerateDrive, ZeroCoupling
from .rabi import RabiParams, floquet_quasienergy, rabi_hamiltonian


@dataclass(frozen=True)
class InvariantCoefficients:
    """Coefficients of the invariant I = [[delta1, gamma1], [gamma2, delta2]].

    Hermiticity fixes gamma2 = conj(gamma1); the trace delta1 + delta2 equals
    the Ermakov constant C.
    """

    delta1: float
    delta2: float
    gamma1: complex
    gamma2: complex
    c_const: float


def xi_squared(p: RabiParams, t: float, c_const: float) -> float:
    """Squared auxiliary amplitude xi^2(t) with xi^2(0) = 1, d(xi^2)/dt(0) = 0."""
    om = p.omega_rabi
    if om == 0.0:
        raise DegenerateDrive("Omega = 0 (zero coupling and zero detuning)")
    g2 = abs(p.coupling) ** 2
    return (2.0 - c_const) * g2 / (2.0 * om * om) * math.cos(2.0 * om * t) + (
        p.theta**2 + 2.0 * c_const * g2
    ) / (4.0 * om * om)


def invariant_coefficients(p: RabiParams, t: float, c_const: float = 1.0) -> InvariantCoefficients:
    """Coefficient record of the rescaled invariant at time t.

    xi^2 - 1 = (2 - C)(|g|^2 / 2 Omega^2)(cos 2 Omega t - 1) and xi xidot =
    -(2 - C)(|g|^2 / 2 Omega) sin 2 Omega t share the factor |g|^2 = g conj(g),
    so gamma1 is evaluated as

        (2 - C) conj(g) e^{i w0 t} (Theta (cos 2 Omega t - 1)
                                    + 2i Omega sin 2 Omega t) / 4 Omega^2,

    without dividing by g: the quotient form loses about eps Theta/|g| to
    cancellation, and gives NaN once Theta/2g overflows.
    """
    if p.coupling == 0:
        raise ZeroCoupling("gamma1 divides by the coupling, which is zero")
    x2 = xi_squared(p, t, c_const)
    om = p.omega_rabi
    phase = cmath.exp(1j * p.omega0 * t)
    g1 = ((2.0 - c_const) * p.coupling.conjugate() * phase / (4.0 * om * om)
          * (p.theta * (math.cos(2.0 * om * t) - 1.0) + 2j * om * math.sin(2.0 * om * t)))
    return InvariantCoefficients(
        delta1=x2,
        delta2=c_const - x2,
        gamma1=g1,
        gamma2=g1.conjugate(),
        c_const=c_const,
    )


def invariant_operator(p: RabiParams, t: float, c_const: float = 1.0) -> np.ndarray:
    """The invariant as a 2x2 matrix [[xi^2, gamma1], [conj(gamma1), C - xi^2]]."""
    co = invariant_coefficients(p, t, c_const)
    return np.array([[co.delta1, co.gamma1], [co.gamma2, co.delta2]], dtype=complex)


def invariance_residual(p: RabiParams, t: float, h: float, c_const: float = 1.0) -> float:
    """Max-entry magnitude of dI/dt + (1/i)[I, H] with a central-difference dI/dt.

    Exact invariants give a residual of order h^2; h must be positive.
    """
    if not h > 0:
        raise BadParam(f"finite-difference step must be positive, got {h}")
    di = (invariant_operator(p, t + h, c_const) - invariant_operator(p, t - h, c_const)) / (
        2.0 * h
    )
    residual = di + (1.0 / 1j) * commutator(
        invariant_operator(p, t, c_const), rabi_hamiltonian(p, t)
    )
    return float(np.abs(residual).max())


def lewis_phase(p: RabiParams, t: float) -> float:
    """Accumulated invariant-eigenstate phase theta(t) = zeta * t.

    Linear in time: theta(t) = (t/2)(w0 - E_e - E_g).
    """
    return floquet_quasienergy(p) * t
