"""Harmonically driven two-level system: closed form vs numerical propagation.

A two-level atom (levels E_g, E_e) driven at frequency w0 with complex
coupling g has, under the rotating-wave approximation, an exactly solvable
density matrix.  The populations oscillate at the Rabi frequency

    Omega = sqrt(Theta^2/4 + |g|^2),   Theta = E_e - E_g - w0,

with period pi/Omega.  This script evaluates the closed form, cross-checks
it against the fixed-step RK4 Liouville propagator, and shows the Floquet
quasi-energy extracted from the solution.
"""
import numpy as np

from qdrive import (
    RabiParams,
    TimeGrid,
    floquet_quasienergy,
    ground_state_dm,
    propagate,
    rabi_amplitudes,
    rabi_density,
)
from qdrive.core import projector

# A detuned drive: Theta = 0.4, so population transfer stays incomplete.
params = RabiParams(e_g=0.3, e_e=1.7, omega0=1.0, coupling=0.4 - 0.3j)
print(f"detuning Theta      = {params.theta:.4f}")
print(f"Rabi frequency      = {params.omega_rabi:.6f}")
print(f"population period   = {params.population_period:.6f}")
print(f"Floquet quasienergy = {floquet_quasienergy(params):+.4f}")
print()

# Populations from the closed form over one period.
period = params.population_period
print(" t/T      rho_gg    rho_ee    |rho_ge|")
for frac in np.linspace(0.0, 1.0, 9):
    rho = rabi_density(params, frac * period).matrix
    print(f"{frac:5.3f}   {rho[0, 0].real:8.5f}  {rho[1, 1].real:8.5f}"
          f"  {abs(rho[0, 1]):8.5f}")
print()

# The peak excited-state population is |g|^2 / Omega^2 < 1 off resonance.
ceiling = abs(params.coupling) ** 2 / params.omega_rabi**2
print(f"predicted max excited population |g|^2/Omega^2 = {ceiling:.6f}")
print()

# Independent check: integrate the Liouville equation drho/dt = -i[H, rho]
# with fixed-step RK4 and compare every sample against the closed form.
# The parameters are the drive: propagate takes them as they are.
grid = TimeGrid(0.0, period, 5000)
series = propagate(params, ground_state_dm(), grid)
worst = max(
    np.abs(series.rho[i] - rabi_density(params, t).matrix).max()
    for i, t in enumerate(series.t)
)
print(f"RK4 vs closed form over one period ({grid.steps} steps):"
      f" max entrywise error = {worst:.3e}")

# The propagated state also stays pure to integrator accuracy.
print(f"propagated purity drift: {np.abs(series.purity - 1.0).max():.3e}")
print()

# The pure state behind the density matrix: rho(t) = |phi(t)><phi(t)|.  The
# paper's full solution e^{i zeta t} |phi(t)> has the same projector.
t_probe = 0.37 * period
c0, c1 = rabi_amplitudes(params, t_probe)
gap = np.abs(projector(c0, c1) - rabi_density(params, t_probe).matrix).max()
print(f"state projector vs density matrix at t = {t_probe:.3f}: gap = {gap:.3e}")
