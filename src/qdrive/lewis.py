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
with slope zeta = (w0 - E_e - E_g)/2, the paper's quasi-energy; |phi(t)> is
not 2 pi/w0-periodic unless Omega and w0 are commensurate (see qdrive.rabi).
Every function takes times t of any shape, as rabi_rho does.

Note: the Ermakov-Pinney form consistent with the solution above is, in
u = xi^2 terms,  u'' + 4 Omega^2 u = Theta^2 + 2 C |g|^2,  equivalently
xidd/xi + xid^2/xi^2 + 2 Omega^2 = (Theta^2/2 + C|g|^2)/xi^2.
"""
from __future__ import annotations

import math

import numpy as np

from .core import commutator, finite_times, hermitian
from .errors import BadParam
from .rabi import RabiParams, _nonzero_omega, floquet_quasienergy, rabi_hamiltonian


def xi_squared(p: RabiParams, t: np.ndarray | float, c_const: float) -> np.ndarray | float:
    """Squared auxiliary amplitude xi^2(t) with xi^2(0) = 1, d(xi^2)/dt(0) = 0:
    a float for scalar t, else an array of t's shape.  BadParam names
    c_const if it is not finite or makes xi^2 overflow."""
    t = finite_times(t)
    om = _nonzero_omega(p)
    g2 = abs(p.coupling) ** 2
    with np.errstate(over="ignore", invalid="ignore"):
        x2 = (2.0 - c_const) * g2 / (2.0 * om * om) * np.cos(2.0 * om * t) + (
            p.theta**2 + 2.0 * c_const * g2
        ) / (4.0 * om * om)
    if not (math.isfinite(c_const) and np.isfinite(x2).all()):
        raise BadParam(f"c_const must be finite and keep xi^2 finite, got {c_const!r}")
    return x2 if t.ndim else float(x2)


def invariant_operator(p: RabiParams, t: np.ndarray | float, c_const: float = 1.0) -> np.ndarray:
    """The invariant [[xi^2, gamma1], [conj(gamma1), C - xi^2]] at times t
    (shape S), as an S + (2, 2) array; at C = 1 it is rabi_rho.

    xi^2 - 1 = (2 - C)(|g|^2 / 2 Omega^2)(cos 2 Omega t - 1) and xi xidot =
    -(2 - C)(|g|^2 / 2 Omega) sin 2 Omega t share the factor |g|^2 = g conj(g),
    so gamma1 is evaluated as

        (2 - C) conj(g) e^{i w0 t} (Theta (cos 2 Omega t - 1)
                                    + 2i Omega sin 2 Omega t) / 4 Omega^2,

    without dividing by g: the quotient form loses about eps Theta/|g| to
    cancellation, and gives NaN once Theta/2g overflows.  At g = 0 the
    invariant is diag(1, 0) at C = 1.
    """
    x2 = xi_squared(p, t, c_const)  # checks t and Omega
    t = np.asarray(t, dtype=float)
    om = p.omega_rabi
    a = (2.0 - c_const) * np.conj(p.coupling) * np.exp(1j * p.omega0 * t) / (4.0 * om * om)
    b = p.theta * (np.cos(2.0 * om * t) - 1.0) + 2j * om * np.sin(2.0 * om * t)
    return hermitian(x2, c_const - x2, a * b)


def invariance_residual(p: RabiParams, t: np.ndarray | float, h: float,
                        c_const: float = 1.0) -> np.ndarray | float:
    """Max-entry magnitude of dI/dt + (1/i)[I, H] with a central-difference
    dI/dt, at times t: a float for scalar t, else an array of t's shape.

    Exact invariants give a residual of order h^2; h must be positive and finite.
    """
    if not 0.0 < h < math.inf:
        raise BadParam(f"finite-difference step must be positive and finite, got {h}")
    t = finite_times(t)
    di = (invariant_operator(p, t + h, c_const) - invariant_operator(p, t - h, c_const)) / (
        2.0 * h
    )
    residual = di + (1.0 / 1j) * commutator(
        invariant_operator(p, t, c_const), rabi_hamiltonian(p, t)
    )
    r = np.abs(residual).max(axis=(-2, -1))
    return r if t.ndim else float(r)


def lewis_phase(p: RabiParams, t: np.ndarray | float) -> np.ndarray | float:
    """Accumulated invariant-eigenstate phase theta(t) = zeta * t.

    Linear in time: theta(t) = (t/2)(w0 - E_e - E_g).
    """
    return floquet_quasienergy(p) * finite_times(t)
