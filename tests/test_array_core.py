"""The array closed forms, the RWA Hamiltonian, the Lewis invariant and the
measure columns against per-sample scalar reference loops: equal bit for bit, signed zeros
included, over random parameters and times."""
import cmath
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdrive import (PulseParams, RabiParams, build_series, commutator, invariance_residual,
                    invariant_operator, l1_pulse_closed_form, pulse_rho, rabi_hamiltonian,
                    rabi_rho, xi_squared)


def moderate(bound):
    return st.floats(-bound, bound, allow_nan=False, allow_infinity=False)


times = st.lists(moderate(1e3), min_size=1, max_size=8, unique=True).map(np.array)


def rabi_reference(p, t):
    om, th, g = p.omega_rabi, p.theta, p.coupling
    s, c = math.sin(om * t), math.cos(om * t)
    rgg = c * c + (th * th / (4.0 * om * om)) * s * s
    ree = (abs(g) ** 2 / (om * om)) * s * s
    phase = cmath.exp(1j * p.omega0 * t)
    rge = (np.conj(g) * phase / (4.0 * om * om)) * (
        th * math.cos(2.0 * om * t) - th + 2j * om * math.sin(2.0 * om * t))
    return np.array([[rgg, rge], [np.conj(rge), ree]], dtype=complex)


def hamiltonian_reference(p, t):
    ph = cmath.exp(-1j * p.omega0 * t)
    return np.array([[p.e_g, np.conj(p.coupling * ph)], [p.coupling * ph, p.e_e]], dtype=complex)


def xi_squared_reference(p, t, c_const):
    om = p.omega_rabi
    g2 = abs(p.coupling) ** 2
    return (2.0 - c_const) * g2 / (2.0 * om * om) * math.cos(2.0 * om * t) + (
        p.theta**2 + 2.0 * c_const * g2
    ) / (4.0 * om * om)


def invariant_reference(p, t, c_const):
    x2 = xi_squared_reference(p, t, c_const)
    om = p.omega_rabi
    phase = cmath.exp(1j * p.omega0 * t)
    g1 = ((2.0 - c_const) * p.coupling.conjugate() * phase / (4.0 * om * om)
          * (p.theta * (math.cos(2.0 * om * t) - 1.0) + 2j * om * math.sin(2.0 * om * t)))
    return np.array([[x2, g1], [g1.conjugate(), c_const - x2]], dtype=complex)


def residual_reference(p, t, h, c_const):
    di = (invariant_reference(p, t + h, c_const) - invariant_reference(p, t - h, c_const)) / (
        2.0 * h
    )
    residual = di + (1.0 / 1j) * commutator(
        invariant_reference(p, t, c_const), hamiltonian_reference(p, t)
    )
    return float(np.abs(residual).max())


def pulse_reduce(p, t):
    tau = math.fmod(t, p.period)
    if tau < 0.0:
        tau += p.period
    return tau, 1.0 if tau < p.period / 2.0 else -1.0


def pulse_reference(p, t):
    tau, s = pulse_reduce(p, t)
    f0 = p.f0
    q = 1.0 + f0 * f0
    x = 2.0 * p.eps0 * tau
    r00 = f0 * f0 / (2.0 * q) * math.cos(x) + (2.0 + f0 * f0) / (2.0 * q)
    r01 = s * (f0 / (2.0 * q) * (1.0 - math.cos(x))
               - 1j * f0 / (2.0 * math.sqrt(q)) * math.sin(x))
    return np.array([[r00, r01], [np.conj(r01), 1.0 - r00]], dtype=complex)


def l1_reference(p, t):
    tau, _ = pulse_reduce(p, t)
    f0 = p.f0
    sin, cos = math.sin(p.eps0 * tau), math.cos(p.eps0 * tau)
    return 2.0 * f0 / (1.0 + f0 * f0) * math.sqrt(sin * sin * (1.0 + f0 * f0 * (cos * cos)))


def measures_reference(m):
    r00, r11, a01 = m[0, 0].real, m[1, 1].real, abs(m[0, 1])
    purity = r00 * r00 + r11 * r11 + 2.0 * (a01 * a01)
    radicand = 1.0 + 4.0 * (a01 * a01) - 4.0 * r00 * r11
    return purity, abs(m[0, 1]) + abs(m[1, 0]), math.sqrt(min(max(radicand, 0.0), 1.0))


def same_bits(a, b):
    return np.asarray(a).tobytes() == np.asarray(b).tobytes()


# x * x and libm pow differ in about one square in a thousand: the dense
# examples hold states where a pow square would move purity and the pulse l1
@settings(max_examples=300, deadline=None)
@given(moderate(50), moderate(50), moderate(50), moderate(10), moderate(10), times)
@example(0.2, 1.3, 0.8, 0.7, -0.2, np.linspace(0.0, 20.0, 4097))
def test_rabi_rho_matches_scalar_loop(e_g, e_e, omega0, g_re, g_im, t):
    p = RabiParams(e_g=e_g, e_e=e_e, omega0=omega0, coupling=complex(g_re, g_im))
    assume(p.omega_rabi > 1e-6)
    rho = rabi_rho(p, t)
    assert same_bits(rho, [rabi_reference(p, ti) for ti in t])
    series = build_series(np.sort(t), rho)
    ref = np.array([measures_reference(m) for m in rho])
    assert same_bits(np.column_stack([series.purity, series.c_l1, series.c_frob]), ref)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.05, 20), st.floats(1e-3, 20), st.integers(1, 4), times,
       st.integers(-6, 6))
@example(1.0, 4.5, 1, np.linspace(0.0, 6.0, 4097), 0)
def test_pulse_rho_matches_scalar_loop(e0, f0, n, t, k):
    p = PulseParams(e0=e0, f0=f0, n_period=n)
    # include exact switching times k T/2, where the signed zeros matter
    t = np.append(t, k * p.period / 2.0)
    assert same_bits(pulse_rho(p, t), [pulse_reference(p, ti) for ti in t])
    assert same_bits(l1_pulse_closed_form(p, t), [l1_reference(p, ti) for ti in t])
    assert all(l1_pulse_closed_form(p, float(ti)) == l1_reference(p, ti) for ti in t)


@settings(max_examples=300, deadline=None)
@given(moderate(50), moderate(50), moderate(50), moderate(10), moderate(10), times)
def test_rabi_hamiltonian_matches_scalar_loop(e_g, e_e, omega0, g_re, g_im, t):
    p = RabiParams(e_g=e_g, e_e=e_e, omega0=omega0, coupling=complex(g_re, g_im))
    t = np.append(t, [0.0, -0.0])
    assert same_bits(rabi_hamiltonian(p, t), [hamiltonian_reference(p, ti) for ti in t])
    assert same_bits(rabi_hamiltonian(p, t.reshape(-1, 1)),
                     [[hamiltonian_reference(p, ti)] for ti in t])
    assert all(same_bits(rabi_hamiltonian(p, float(ti)), hamiltonian_reference(p, float(ti)))
               for ti in t)


@settings(max_examples=300, deadline=None)
@given(moderate(50), moderate(50), moderate(50), moderate(10), moderate(10), times,
       st.floats(0.0, 3.0), st.floats(1e-6, 1e-2))
def test_lewis_forms_match_scalar_loop(e_g, e_e, omega0, g_re, g_im, t, c_const, h):
    # the scalar code the array forms replaced, g = 0 included
    p = RabiParams(e_g=e_g, e_e=e_e, omega0=omega0, coupling=complex(g_re, g_im))
    assume(p.omega_rabi > 1e-6)
    ts = [float(ti) for ti in t]
    refs = np.array([invariant_reference(p, ti, c_const) for ti in ts])
    assert same_bits(invariant_operator(p, t, c_const), refs)
    assert same_bits(xi_squared(p, t, c_const), [xi_squared_reference(p, ti, c_const) for ti in ts])
    assert same_bits(invariance_residual(p, t, h, c_const),
                     [residual_reference(p, ti, h, c_const) for ti in ts])
    ti = ts[0]
    assert same_bits(invariant_operator(p, ti, c_const), refs[0])
    assert xi_squared(p, ti, c_const) == xi_squared_reference(p, ti, c_const)
    assert invariance_residual(p, ti, h, c_const) == residual_reference(p, ti, h, c_const)
