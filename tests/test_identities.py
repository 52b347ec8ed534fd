"""The paper's identities over random parameters and times: the Lewis
invariant at C = 1 is the closed-form density matrix, the amplitudes
rabi_amplitudes and pulse_amplitudes stay normalized, the closed forms start
exactly in |0><0| and stay unit-trace and pure.

Tolerances are a few ulps, scaled by what the two routes round
differently: the phase arguments w0 t and Omega t (absolute error about
eps |arg|) and, for the pulse, eps0 tau < 2 pi n."""
import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdrive import (DegenerateDrive, PulseParams, RabiParams, TimeGrid, ground_state_dm,
                    invariant_operator, pulse_amplitudes, pulse_rho, rabi_amplitudes, rabi_rho)
from qdrive.config import ScenarioConfig
from qdrive.core import scan_rho
from qdrive.runner import numeric_series
from test_array_core import moderate, times

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


def assert_normalized(c0, c1):
    """| |c0|^2 + |c1|^2 - 1 | <= 16 EPS.

    Both drives have c0 = cos x + i a sin x and |c1| = b |sin x| with a^2 +
    b^2 = 1 exactly: a = Theta/2 Omega, b = |g|/Omega, or a = 1/sqrt(q), b =
    f0/sqrt(q) with q = 1 + f0^2.  The computed Omega^2 (or q) is within four
    roundings (unit u = EPS/2) of Theta^2/4 + |g|^2 (or 1 + f0^2) and its
    root adds one, so a^2 + b^2 is 1 within 6u.  Each component is a product
    of at most four factors, each within a rounding or one ulp of libm (sin,
    cos, e^{-i w0 t}), so its square is within 16u of its value; the four
    squares weigh 1 in total and add three more roundings: 25u < 16 EPS.  Where
    Omega^2 is subnormal (Omega < 1.5e-154) its rounding is absolute, so
    omega_rabi takes Omega by hypot, within an ulp, instead."""
    norm = c0.real * c0.real + c0.imag * c0.imag + c1.real * c1.real + c1.imag * c1.imag
    assert np.abs(norm - 1.0).max() <= 16 * EPS


@settings(max_examples=500, deadline=None)
@given(rabi_params(zero_coupling=st.booleans()), times)
def test_rabi_amplitudes_are_normalized(p, t):
    assert_normalized(*rabi_amplitudes(p, t))


def test_rabi_amplitudes_are_normalized_for_a_subnormal_rabi_radicand():
    """Omega^2 = Theta^2/4 + |g|^2 is subnormal here, and its absolute
    rounding, taken through sqrt, missed the norm by 18 EPS once sin^2
    (Omega t) is of order 1."""
    p = RabiParams(0.0, 7.613567898163442e-155, 0.0,
                   4.509649021943113e-162 + 2.582822035434573e-162j)
    assert_normalized(*rabi_amplitudes(p, np.linspace(1e153, 1e156, 50)))


@settings(max_examples=500, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-6, 1e3), st.integers(1, 4), times)
def test_pulse_amplitudes_are_normalized(e0, f0, n, t):
    assert_normalized(*pulse_amplitudes(PulseParams(e0=e0, f0=f0, n_period=n), t))


GROUND = np.diag([1.0, 0.0])


def numeric_start(scenario, p):
    """The first state of the numeric route from t_start = 0; the grid is short
    enough for RK4 at any drawn energy."""
    cfg = ScenarioConfig(scenario, p, ground_state_dm(), TimeGrid(0.0, 1e-6, 2), "numeric", None, "csv")
    return numeric_series(cfg).rho[0]


@settings(max_examples=300, deadline=None)
@given(rabi_params(zero_coupling=st.booleans()))
def test_rabi_starts_exactly_in_the_ground_state(p):
    assert np.array_equal(rabi_rho(p, 0.0), GROUND)
    assert np.array_equal(numeric_start("rabi", p), ground_state_dm().matrix)


@settings(max_examples=300, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-6, 1e3), st.integers(1, 4))
@example(1.0, 0.1, 1)  # where f0^2/2q cos x + (2 + f0^2)/2q rounds below 1 at x = 0
@example(1.0, 0.3, 1)
def test_pulse_starts_exactly_in_the_ground_state(e0, f0, n):
    p = PulseParams(e0=e0, f0=f0, n_period=n)
    assert np.array_equal(pulse_rho(p, 0.0), GROUND)
    assert np.array_equal(numeric_start("pulse", p), ground_state_dm().matrix)


def assert_unit_trace_and_pure(rho):
    """rho11 = fl(1 - rho00), so the trace rounds once: |tr - 1| <= EPS.
    purity = tr^2 - 2 det, and the exact projector of (c0, c1) has det =
    |c0|^2 (1 - |c0|^2 - |c1|^2): the computed amplitudes are normalized to
    a few roundings, and the entries and the purity's own sum add a few
    more, so |purity - 1| <= 16 EPS."""
    tr = rho[..., 0, 0].real + rho[..., 1, 1].real
    assert np.abs(tr - 1.0).max() <= EPS
    assert np.abs(scan_rho(rho).purity - 1.0).max() <= 16 * EPS


@settings(max_examples=500, deadline=None)
@given(rabi_params(zero_coupling=st.booleans()), times)
def test_rabi_rho_is_unit_trace_and_pure(p, t):
    assert_unit_trace_and_pure(rabi_rho(p, t))


@settings(max_examples=500, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-6, 1e3), st.integers(1, 4), times)
def test_pulse_rho_is_unit_trace_and_pure(e0, f0, n, t):
    assert_unit_trace_and_pure(pulse_rho(PulseParams(e0=e0, f0=f0, n_period=n), t))
