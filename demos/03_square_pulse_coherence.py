"""Square-pulse drive: exact solution and the two coherence measures.

A spin in a constant z field with a square-wave x field,

    H(t) = -E0 (sigma_z + f(t) sigma_x),   f = +f0 then -f0 per half period,

returns exactly to the ground state every half period T/2 when T satisfies
T = 2 N pi / (E0 sqrt(1 + f0^2)).  Along the way the l1 coherence rises and
falls, while the Frobenius coherence is constant at 1 (the state never
leaves the pure-state shell).  For f0 <= 1 the l1 measure peaks at
2 f0/(1+f0^2) at T/4; for f0 > 1 it touches 1 twice per half period with a
dip at T/4.

Writes plot-ready CSVs (same schema as the CLI) next to this script:
    pulse_f0_0.1.csv   weak drive
    pulse_f0_4.5.csv   strong drive
"""
from pathlib import Path

import numpy as np

from qdrive import (
    PulseParams,
    TimeGrid,
    build_series,
    ground_state_dm,
    l1_pulse_closed_form,
    propagate,
    pulse_rho,
    refine_max,
)
from qdrive.io import write_series_csv

OUT_DIR = Path(__file__).parent

for f0 in (0.1, 4.5):
    p = PulseParams(e0=1.0, f0=f0, n_period=1)
    T = p.period
    times = np.linspace(0.0, T, 2001)
    series = build_series(times, pulse_rho(p, times))
    path = OUT_DIR / f"pulse_f0_{f0}.csv"
    write_series_csv(series, path)

    peak = refine_max(lambda t: l1_pulse_closed_form(p, t), 0.0, T, samples=4096)
    print(f"f0 = {f0}:")
    print(f"  period T            = {T:.6f}")
    print(f"  max l1 coherence    = {peak:.9f}"
          f"   (2 f0/(1+f0^2) = {2 * f0 / (1 + f0**2):.9f})")
    print(f"  l1 at t = T/4       = {l1_pulse_closed_form(p, T / 4):.9f}")
    print(f"  l1 at t = T/2       = {l1_pulse_closed_form(p, T / 2):.2e}")
    print(f"  Frobenius coherence = {series.c_frob.min():.12f} .. {series.c_frob.max():.12f}")
    print(f"  wrote {path.name}")
    print()

# The closed form is backed by the RK4 propagator.  Any grid works (a switch
# inside a step is sub-stepped); this one puts nodes on the switches.  The
# PulseParams are the drive.
p = PulseParams(e0=1.0, f0=4.5, n_period=1)
series = propagate(p, ground_state_dm(), TimeGrid(0.0, p.period, 8192))
worst = np.abs(series.rho - pulse_rho(p, series.t)).max()
print(f"strong drive, RK4 vs closed form: max entrywise error = {worst:.3e}")
print(f"state returns to |0><0| at T: rho00(T) = {series.rho[-1][0, 0].real:.12f}")
