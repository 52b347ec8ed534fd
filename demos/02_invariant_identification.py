"""Dynamical invariant of the RWA drive and its identification with rho(t).

A Hermitian operator I(t) with vanishing total time derivative,

    dI/dt = partial_t I + (1/i)[I, H(t)] = 0,

can be built for the RWA drive from an auxiliary amplitude xi(t) solving an
Ermakov-Pinney equation, with one free constant C = tr I.  The remarkable
fact this script demonstrates: at C = 1 the (rescaled) invariant *is* the
closed-form density matrix, entry for entry, and the accompanying phase is
linear in time with slope equal to the paper's quasi-energy zeta.  Every
invariant function takes a whole time grid, so each check is one call.
"""
import numpy as np

from qdrive import (
    RabiParams,
    floquet_quasienergy,
    invariance_residual,
    invariant_operator,
    lewis_phase,
    rabi_density,
    rabi_rho,
    xi_squared,
)

params = RabiParams(e_g=0.0, e_e=2.0, omega0=1.0, coupling=0.7)  # Theta = 1
period = params.population_period

# 1. The invariance property itself, checked by finite differences for
#    three different trace constants.
print("invariance residual |dI/dt + (1/i)[I, H]| (central difference, h = 1e-5):")
for c_const in (0.5, 1.0, 2.0):
    worst = invariance_residual(params, np.linspace(0.05, period, 40), 1e-5, c_const).max()
    print(f"  C = {c_const:3.1f}: max residual = {worst:.3e}")
print()

# 2. At C = 1 the invariant reproduces the density matrix exactly.
grid = np.linspace(0.0, period, 100)
worst = np.abs(invariant_operator(params, grid, 1.0) - rabi_rho(params, grid)).max()
print(f"C = 1 identification: max |I(t) - rho(t)| over one period = {worst:.3e}")
print()

# 3. The auxiliary amplitude itself: at C = 1 its square equals the ground
#    population; at C = 2 it freezes at 1.
print(" t/T      xi^2(C=1)  rho_gg     xi^2(C=2)")
for frac in (0.0, 0.2, 0.45, 0.7):
    t = frac * period
    print(f"{frac:5.2f}    {xi_squared(params, t, 1.0):9.6f}  "
          f"{rabi_density(params, t).matrix[0, 0].real:9.6f}  {xi_squared(params, t, 2.0):9.6f}")
print()

# 4. The accumulated phase is zeta * t: drive-period bookkeeping reduces to
#    a single number.
zeta = floquet_quasienergy(params)
print(f"quasienergy zeta = {zeta:+.4f}")
for t in (1.0, 2.5, 10.0):
    print(f"  phase({t:5.2f}) = {lewis_phase(params, t):+9.5f}  (zeta*t = {zeta * t:+9.5f})")
