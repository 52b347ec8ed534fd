"""The array closed forms, the drive Hamiltonians, the Lewis invariant and the
measure columns against per-sample scalar reference loops, over random
parameters and times.

The references are the paper's formulas for rho, H and the invariant.  The
code takes rho as the projector of its amplitudes instead, so the two agree
to a few roundings, not bit for bit; each tolerance below is derived where it
is defined.  The measure columns and the pulse's closed-form l1 still equal
their references bit for bit."""
import cmath
import math

import numpy as np
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qdrive import (SIGMA_X, SIGMA_Z, PulseParams, RabiParams, build_series, commutator,
                    invariance_residual, invariant_operator, l1_pulse_closed_form, pulse_f,
                    pulse_hamiltonian, pulse_rho, rabi_hamiltonian, rabi_rho, xi_squared)


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


EPS = np.finfo(float).eps


def entry_tol(diag, off):
    """(..., 2, 2) bounds: diag on the diagonal, off on the off-diagonal."""
    diag, off = np.broadcast_arrays(diag, off)
    return np.stack([np.stack([diag, off], -1), np.stack([off, diag], -1)], -2)


def phase_tol(p, t):
    """EPS |w0 t|: how far e^{i w0 t} moves if the routes round w0 t apart.

    Both routes round w0 t alike here, and libm and numpy take sin, cos and
    exp of it to within an ulp at any size, so this term is margin for a
    build that does not."""
    return EPS * np.abs(p.omega0 * np.asarray(t, dtype=float))


def rabi_tol(p, t):
    """Bounds on |rabi_rho - rabi_reference| at times t.

    Both routes take libm sin and cos of the same rounded Omega t, and
    2 Omega t = 2 fl(Omega t) exactly, so the reference's double angles and
    the code's products of cos(Omega t) and sin(Omega t) differ by roundings
    only.  Each entry sums at most four terms of size at most 1 (since
    |Theta|/2 Omega <= 1, |g|/Omega <= 1 and |g| |Theta| <= 2 Omega^2), each
    after at most four roundings, and the reference's |g|^2/Omega^2 and the
    code's 1 - rho_gg differ by the rounding of Omega: 16 EPS covers both.
    The off-diagonal entry adds phase_tol."""
    return entry_tol(16 * EPS, 16 * EPS + phase_tol(p, t))


def hamiltonian_tol(p, t):
    """Bounds on |rabi_hamiltonian - hamiltonian_reference| at times t: the
    diagonal is copied, and the off-diagonal entry is one complex product of
    g and the phase, each part within 2 EPS |g| of exact in either route
    (the phase to an ulp, then two products and a sum), plus phase_tol."""
    g = abs(p.coupling)
    return entry_tol(0.0, g * (4 * EPS + phase_tol(p, t)))


def invariant_tol(p, t, c_const):
    """Bounds on |invariant_operator - invariant_reference| at times t.

    The diagonal xi^2 and C - xi^2 are one shared expression.  gamma1 is the
    same expression in both routes; numpy may divide by 4 Omega^2 through a
    reciprocal and fuse products, so they differ by roundings.  Each of its
    terms is at most |2 - C| in size (|g| |Theta| <= 2 Omega^2 and
    |g| <= Omega), after at most eight roundings: 16 EPS |2 - C| covers
    them, and the phase adds |gamma1| phase_tol <= 1.5 |2 - C| phase_tol."""
    m = abs(2.0 - c_const)
    return entry_tol(0.0, m * (16 * EPS + 1.5 * phase_tol(p, t)))


def residual_tol(p, t, h, c_const):
    """Bounds on |invariance_residual - residual_reference| at times t.

    The two residuals run the same arithmetic on invariants that differ by
    at most dI (invariant_tol over t -+ h) and Hamiltonians that differ by
    at most dH (hamiltonian_tol).  The central difference passes dI on as
    dI / h; each commutator entry sums four products, so it moves by at most
    4 (dI |H| + |I| dH).  Rounding those different inputs adds a few ulps of
    the difference quotient, at most |I| / h, and of the products, |I| |H|:
    8 EPS of each.  |I| <= 1 + 1.5 (|C| + |2 - C|) bounds every entry of the
    invariant, by the bounds of invariant_tol."""
    t = np.asarray(t, dtype=float)
    d_i = invariant_tol(p, np.abs(t) + h, c_const).max((-2, -1))
    d_h = hamiltonian_tol(p, t).max((-2, -1))
    i_max = 1.0 + 1.5 * (abs(c_const) + abs(2.0 - c_const))
    h_max = max(abs(p.e_g), abs(p.e_e), abs(p.coupling))
    return d_i / h + 4 * (d_i * h_max + i_max * d_h) + 8 * EPS * (i_max / h + i_max * h_max)


# x * x and libm pow differ in about one square in a thousand: the dense
# examples hold states where a pow square would move purity and the pulse l1
@settings(max_examples=300, deadline=None)
@given(moderate(50), moderate(50), moderate(50), moderate(10), moderate(10), times)
@example(0.2, 1.3, 0.8, 0.7, -0.2, np.linspace(0.0, 20.0, 4097))
def test_rabi_rho_matches_scalar_loop(e_g, e_e, omega0, g_re, g_im, t):
    p = RabiParams(e_g=e_g, e_e=e_e, omega0=omega0, coupling=complex(g_re, g_im))
    assume(p.omega_rabi > 1e-6)
    rho = rabi_rho(p, t)
    assert (np.abs(rho - [rabi_reference(p, ti) for ti in t]) <= rabi_tol(p, t)).all()
    series = build_series(np.sort(t), rho)
    ref = np.array([measures_reference(m) for m in rho])
    assert same_bits(np.column_stack([series.purity, series.c_l1, series.c_frob]), ref)


@settings(max_examples=300, deadline=None)
@given(st.floats(0.05, 20), st.floats(1e-3, 20), st.integers(1, 4), times,
       st.integers(-6, 6))
@example(1.0, 4.5, 1, np.linspace(0.0, 6.0, 4097), 0)
def test_pulse_rho_matches_scalar_loop(e0, f0, n, t, k):
    p = PulseParams(e0=e0, f0=f0, n_period=n)
    # include exact switching times k T/2, where the branch sign flips
    t = np.append(t, k * p.period / 2.0)
    # both routes reduce t alike and take libm sin and cos of the same
    # rounded eps0 tau (2 eps0 tau = 2 fl(eps0 tau) exactly), so as for
    # rabi_tol they differ by roundings of terms at most 1: 16 EPS, no phase
    assert (np.abs(pulse_rho(p, t) - [pulse_reference(p, ti) for ti in t]) <= 16 * EPS).all()
    assert same_bits(l1_pulse_closed_form(p, t), [l1_reference(p, ti) for ti in t])
    assert all(l1_pulse_closed_form(p, float(ti)) == l1_reference(p, ti) for ti in t)


@settings(max_examples=300, deadline=None)
@given(moderate(50), moderate(50), moderate(50), moderate(10), moderate(10), times)
def test_rabi_hamiltonian_matches_scalar_loop(e_g, e_e, omega0, g_re, g_im, t):
    p = RabiParams(e_g=e_g, e_e=e_e, omega0=omega0, coupling=complex(g_re, g_im))
    t = np.append(t, [0.0, -0.0])
    refs = np.array([hamiltonian_reference(p, ti) for ti in t])
    tol = hamiltonian_tol(p, t)
    assert (np.abs(rabi_hamiltonian(p, t) - refs) <= tol).all()
    assert (np.abs(rabi_hamiltonian(p, t.reshape(-1, 1)) - refs[:, None]) <= tol[:, None]).all()
    assert all((np.abs(rabi_hamiltonian(p, float(ti)) - ref) <= tol_i).all()
               for ti, ref, tol_i in zip(t, refs, tol))


@settings(max_examples=300, deadline=None)
@given(st.floats(0.05, 20), st.floats(1e-3, 20), st.integers(1, 4), times,
       st.integers(-6, 6))
def test_pulse_hamiltonian_matches_scalar_loop(e0, f0, n, t, k):
    # one expression serves every shape of t, so the array route equals the
    # stacked scalar calls bit for bit, switching times k T/2 included
    p = PulseParams(e0=e0, f0=f0, n_period=n)
    t = np.append(t, k * p.period / 2.0)
    fs = [pulse_f(p, float(ti)) for ti in t]
    assert all(type(f) is float for f in fs)
    refs = np.stack([pulse_hamiltonian(p, float(ti)) for ti in t])
    assert same_bits(refs, [-e0 * (SIGMA_Z + f * SIGMA_X) for f in fs])
    assert same_bits(pulse_f(p, t), fs)
    assert same_bits(pulse_hamiltonian(p, t), refs)
    assert same_bits(pulse_hamiltonian(p, np.stack([t, t[::-1]])), np.stack([refs, refs[::-1]]))
    assert same_bits(pulse_hamiltonian(p, np.asarray(t[0])), refs[0])


@settings(max_examples=300, deadline=None)
@given(moderate(50), moderate(50), moderate(50), moderate(10), moderate(10), times,
       st.floats(0.0, 3.0), st.floats(1e-6, 1e-2))
def test_lewis_forms_match_scalar_loop(e_g, e_e, omega0, g_re, g_im, t, c_const, h):
    # the paper's forms, g = 0 included
    p = RabiParams(e_g=e_g, e_e=e_e, omega0=omega0, coupling=complex(g_re, g_im))
    assume(p.omega_rabi > 1e-6)
    ts = [float(ti) for ti in t]
    refs = np.array([invariant_reference(p, ti, c_const) for ti in ts])
    tol = invariant_tol(p, t, c_const)
    assert (np.abs(invariant_operator(p, t, c_const) - refs) <= tol).all()
    assert same_bits(xi_squared(p, t, c_const), [xi_squared_reference(p, ti, c_const) for ti in ts])
    res_tol = residual_tol(p, t, h, c_const)
    assert (np.abs(invariance_residual(p, t, h, c_const)
                   - [residual_reference(p, ti, h, c_const) for ti in ts]) <= res_tol).all()
    ti = ts[0]
    assert (np.abs(invariant_operator(p, ti, c_const) - refs[0]) <= tol[0]).all()
    assert xi_squared(p, ti, c_const) == xi_squared_reference(p, ti, c_const)
    assert abs(invariance_residual(p, ti, h, c_const) - residual_reference(p, ti, h, c_const)) <= res_tol[0]
