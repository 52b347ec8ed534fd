"""The paper's identities over random parameters and times: the Lewis
invariant at C = 1 is the closed-form density matrix, and the pure states
rabi_state and pulse_state project onto rabi_rho and pulse_rho.

Tolerances are a few ulps, scaled by what the two routes round
differently: the phase arguments w0 t and Omega t (absolute error about
eps |arg|) and, for the pulse, eps0 tau < 2 pi n."""
import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdrive import (DegenerateDrive, PulseParams, RabiParams, invariant_operator, pulse_rho, pulse_state,
                    rabi_rho, rabi_state)
from test_array_core import moderate

EPS = np.finfo(float).eps


@st.composite
def rabi_params(draw, zero_coupling=st.just(False)):
    coupling = 0.0 if draw(zero_coupling) else complex(draw(moderate(10)), draw(moderate(10)))
    p = RabiParams(*[draw(moderate(50)) for _ in range(3)], coupling)
    try:
        p.population_period
    except DegenerateDrive:  # Omega zero, or too small for the closed form
        assume(False)
    return p


def rabi_tol(p, t):
    return 16 * EPS * (1.0 + abs(p.omega0 * t) + p.omega_rabi * abs(t))


@settings(max_examples=500, deadline=None)
@given(rabi_params(), moderate(1e3))
def test_lewis_invariant_at_unit_constant_is_rabi_rho(p, t):
    err = np.abs(invariant_operator(p, t, 1.0) - rabi_rho(p, t)).max()
    assert err <= rabi_tol(p, t)


@settings(max_examples=300, deadline=None)
@given(rabi_params(zero_coupling=st.booleans()), st.integers(1, 4096))
def test_lewis_invariant_is_rabi_rho_over_a_grid_in_one_call(p, steps):
    # over a population period Omega t <= pi, and both routes take e^{i w0 t}
    # from the same argument, so their difference is a few ulps of O(1) terms
    grid = np.linspace(0.0, p.population_period, steps + 1)
    assert np.abs(invariant_operator(p, grid, 1.0) - rabi_rho(p, grid)).max() <= 1e-12


@settings(max_examples=500, deadline=None)
@given(rabi_params(), moderate(1e3))
def test_rabi_state_projects_onto_rabi_rho(p, t):
    err = np.abs(rabi_state(p, t).projector() - rabi_rho(p, t)).max()
    assert err <= rabi_tol(p, t)


@settings(max_examples=500, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-6, 1e3), st.integers(1, 4), moderate(1e3))
def test_pulse_state_projects_onto_pulse_rho(e0, f0, n, t):
    p = PulseParams(e0=e0, f0=f0, n_period=n)
    err = np.abs(pulse_state(p, t).projector() - pulse_rho(p, t)).max()
    assert err <= 16 * EPS * (1.0 + 2 * math.pi * n)
