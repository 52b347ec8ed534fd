"""l1 and Frobenius coherence measures, the pulse closed form and the
bounded peak polish."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrive import (
    PulseParams,
    RabiParams,
    dm_new,
    l1_pulse_closed_form,
    pulse_density,
    rabi_rho,
    refine_max,
)
from qdrive.coherence import _fminbound, l1_columns
from qdrive.core import scan_rho
from conftest import random_density_matrix


class TestL1:
    def test_diagonal_state_has_none(self):
        assert scan_rho(np.diag([1.0, 0.0]).astype(complex)).c_l1.item() == 0.0

    def test_maximally_coherent_state(self):
        assert scan_rho(np.full((2, 2), 0.5, dtype=complex)).c_l1.item() == 1.0

    def test_complex_off_diagonal(self):
        rho = np.array([[0.5, 0.3 + 0.4j], [0.3 - 0.4j, 0.5]], dtype=complex)
        assert scan_rho(rho).c_l1.item() == pytest.approx(1.0, abs=1e-15)


class TestFrobenius:
    def test_pure_states_have_unit_coherence(self, rng):
        for _ in range(50):
            v = rng.normal(size=2) + 1j * rng.normal(size=2)
            v = v / np.linalg.norm(v)
            assert abs(scan_rho(np.outer(v, v.conj())).c_frob.item() - 1.0) <= 1e-12

    def test_maximally_mixed_is_zero(self):
        assert scan_rho(np.diag([0.5, 0.5]).astype(complex)).c_frob.item() == 0.0

    def test_state_at_the_trace_tolerance_is_zero(self):
        # trace 1 + 9.998e-13 passes DensityMatrix's 1e-12 check; the radicand
        # 1 - trace^2 = -2.0e-12 is within what that tolerance admits
        rho = dm_new(np.diag([0.5 + 4.999e-13] * 2))
        assert scan_rho(rho.matrix).c_frob.item() == 0.0

    def test_diagonal_mixed_state(self):
        c_frob = scan_rho(np.diag([0.75, 0.25]).astype(complex)).c_frob.item()
        assert c_frob == pytest.approx(0.5, abs=1e-15)

    def test_matches_eigenvalue_route(self, rng):
        # sqrt(2 ((lam+ - 1/2)^2 + (lam- - 1/2)^2)) from LAPACK's eigenvalues
        for _ in range(1000):
            m = random_density_matrix(rng).matrix
            lm, lp = np.linalg.eigvalsh(m)
            via_eigs = np.sqrt(2.0 * ((lp - 0.5) ** 2 + (lm - 0.5) ** 2))
            assert abs(scan_rho(m).c_frob.item() - via_eigs) <= 1e-12


class TestPulseClosedForm:
    def test_zero_at_start(self):
        p = PulseParams(e0=1.0, f0=1.0, n_period=1)
        assert l1_pulse_closed_form(p, 0.0) == 0.0

    def test_small_amplitude_peak(self):
        # at eps0*tau = pi/2 the value is 2 f0/(1+f0^2) = 0.2/1.01
        p = PulseParams(e0=1.0, f0=0.1, n_period=1)
        tau = (np.pi / 2) / p.eps0
        assert l1_pulse_closed_form(p, tau) == pytest.approx(0.2 / 1.01, abs=1e-12)
        assert l1_pulse_closed_form(p, tau) == pytest.approx(0.1980198, abs=1e-7)

    @pytest.mark.parametrize("f0", [1.0, 2.0, 4.5])
    def test_strong_drive_reaches_unity(self, f0):
        p = PulseParams(e0=1.0, f0=f0, n_period=1)
        peak = refine_max(lambda t: l1_pulse_closed_form(p, t), 0.0, p.period, samples=8192)
        assert peak == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("f0", [0.1, 1.0, 4.5])
    def test_equals_density_matrix_route(self, f0):
        p = PulseParams(e0=1.0, f0=f0, n_period=1)
        for t in np.linspace(0.0, 2 * p.period, 400):
            direct = scan_rho(pulse_density(p, t).matrix).c_l1.item()
            assert abs(l1_pulse_closed_form(p, t) - direct) <= 1e-12

    @pytest.mark.parametrize("f0", [0.1, 1.0, 4.5])
    def test_frobenius_constant_for_pulse(self, f0):
        p = PulseParams(e0=1.0, f0=f0, n_period=1)
        for t in np.linspace(0.0, 2 * p.period, 400):
            assert abs(scan_rho(pulse_density(p, t).matrix).c_frob.item() - 1.0) <= 1e-12

    def test_interior_maximizer_strong_drive(self):
        # for f0 > 1 the half-period max sits at sin^2(eps0 tau) = (1+f0^2)/(2 f0^2)
        f0 = 4.5
        p = PulseParams(e0=1.0, f0=f0, n_period=1)
        u_star = (1 + f0**2) / (2 * f0**2)
        tau_star = np.arcsin(np.sqrt(u_star)) / p.eps0
        # dense scan agrees with the calculus location...
        taus = np.linspace(0.0, p.period / 2, 200001)
        vals = np.array([l1_pulse_closed_form(p, t) for t in taus])
        tau_scan = taus[np.argmax(vals)]
        assert abs(tau_scan - tau_star) <= 2 * (taus[1] - taus[0])
        # ...and the achieved maximum is exactly 1
        assert l1_pulse_closed_form(p, tau_star) == pytest.approx(1.0, abs=1e-9)

    def test_endpoint_maximizer_weak_drive(self):
        # for f0 <= 1 the max is 2 f0/(1+f0^2), attained at eps0 tau = pi/2
        for f0 in (0.1, 0.5, 1.0):
            p = PulseParams(e0=1.0, f0=f0, n_period=1)
            expected = 2 * f0 / (1 + f0**2)
            peak = refine_max(lambda t: l1_pulse_closed_form(p, t), 0.0, p.period / 2,
                              samples=4096)
            assert peak == pytest.approx(expected, abs=1e-9)
            tau_star = (np.pi / 2) / p.eps0
            assert l1_pulse_closed_form(p, tau_star) == pytest.approx(expected, abs=1e-12)


def _reference_min(f, a, b, xatol=1e-14):
    """f's minimum on [a, b] by the reference bounded Brent minimiser."""
    optimize = pytest.importorskip("scipy.optimize")
    return optimize.minimize_scalar(f, bounds=(a, b), method="bounded",
                                    options={"xatol": xatol}).fun


def _scan_bracket(fn, lo, hi, samples):
    """The grid interval around the scan maximum, as refine_max picks it."""
    ts = np.linspace(lo, hi, samples + 1)
    i = int(np.argmax(fn(ts)))
    return ts[max(i - 1, 0)], ts[min(i + 1, samples)]


def _same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


def _assert_same_run(f, a, b, xatol=1e-14):
    """_fminbound evaluates f at the reference's points, in the reference's
    order, and returns the same minimum, all bit for bit."""
    ours, ref = [], []

    def logged(log):
        def g(t):
            log.append(np.float64(t).tobytes())
            return f(t)
        return g

    fx = _fminbound(logged(ours), a, b, xatol=xatol)
    assert _same_bits(fx, _reference_min(logged(ref), a, b, xatol))
    assert ours == ref
    return len(ours)


samples = st.sampled_from([8, 33, 256, 1000, 4096])


class TestFminbound:
    """_fminbound against the reference implementation, bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(st.floats(0.05, 5.0), st.floats(0.01, 10.0), st.integers(1, 4), samples)
    def test_pulse_closed_form_bracket(self, e0, f0, n, k):
        p = PulseParams(e0=e0, f0=f0, n_period=n)

        def f(t):
            return -l1_pulse_closed_form(p, t)

        a, b = _scan_bracket(lambda t: l1_pulse_closed_form(p, t), 0.0, p.period, k)
        _assert_same_run(f, a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0), st.floats(-2.0, 2.0),
           st.floats(0.01, 2.0), st.floats(0.0, 2 * np.pi), samples)
    def test_rabi_l1_column_bracket(self, e_g, e_e, omega0, g, phase, k):
        p = RabiParams(e_g=e_g, e_e=e_e, omega0=omega0, coupling=g * np.exp(1j * phase))

        def f(t):
            return -l1_columns(rabi_rho(p, t))

        a, b = _scan_bracket(lambda t: l1_columns(rabi_rho(p, t)), 0.0,
                             p.population_period, k)
        _assert_same_run(f, a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.floats(-3.0, 3.0), st.floats(0.1, 20.0), st.floats(-3.0, 3.0),
           st.floats(-1.0, 1.0), st.floats(-10.0, 10.0), st.floats(1e-9, 10.0))
    def test_smooth_function_any_bracket(self, amp, w, phase, curv, a, width):
        def f(t):
            return amp * np.cos(w * t + phase) + curv * t * t

        b = a + width
        _assert_same_run(f, a, b)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 8), st.floats(0.5, 5.0), st.floats(-5.0, 5.0), st.floats(0.1, 10.0))
    def test_staircase_function_ties(self, levels, w, a, width):
        # equal function values exercise the tie branches of the bracket update
        def f(t):
            return np.floor(levels * np.cos(w * t)) / levels

        b = a + width
        _assert_same_run(f, a, b)

    def test_evaluation_cap(self):
        # with xatol = 0 the kink at 0 is approached until 500 evaluations
        assert _assert_same_run(abs, -1.0, 2.0, xatol=0.0) == 500

    @pytest.mark.parametrize("a, b", [(0.7, 0.7), (0.0, 0.0), (0.7, np.nextafter(0.7, 1.0))])
    def test_degenerate_bracket(self, a, b):
        def f(t):
            return np.sin(3.0 * t) - t

        _assert_same_run(f, a, b)

    def test_refine_max_scan_argument_skips_the_grid_call(self):
        p = PulseParams(e0=1.0, f0=0.5, n_period=1)
        grid_calls = []

        def fn(t):
            if np.ndim(t):
                grid_calls.append(len(t))
            return l1_pulse_closed_form(p, t)

        scan = l1_pulse_closed_form(p, np.linspace(0.0, p.period, 257))
        given_scan = refine_max(fn, 0.0, p.period, samples=256, scan=scan)
        assert grid_calls == []
        assert _same_bits(given_scan, refine_max(fn, 0.0, p.period, samples=256))
        assert grid_calls == [257]
