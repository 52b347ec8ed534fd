"""l1 and Frobenius coherence measures, the pulse closed form, refine_max's
peak polish and the sweep's peak against its closed form."""
import re
from math import sqrt

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrive import (
    BadParam,
    PulseParams,
    RabiParams,
    dm_new,
    l1_pulse_closed_form,
    pulse_density,
    refine_max,
)
from qdrive import runner
from qdrive.coherence import ZOOM
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


def _same_bits(x, y):
    return np.float64(x).tobytes() == np.float64(y).tobytes()


class TestRefineMax:
    def test_refine_max_scan_argument_skips_the_grid_call(self):
        p = PulseParams(e0=1.0, f0=0.5, n_period=1)
        grid_calls = []

        def fn(t):
            if np.size(t) == 257:
                grid_calls.append(np.size(t))
            return l1_pulse_closed_form(p, t)

        scan = l1_pulse_closed_form(p, np.linspace(0.0, p.period, 257))
        given_scan = refine_max(fn, 0.0, p.period, samples=256, scan=scan)
        assert grid_calls == []
        assert _same_bits(given_scan, refine_max(fn, 0.0, p.period, samples=256))
        assert grid_calls == [257]

    @pytest.mark.parametrize("samples", [1, 2, 7, 64, 4096])
    @pytest.mark.parametrize("t0", [0.0, 0.3137, 1.0, 2.2360679774997896, 3.0])
    def test_known_maximum_to_the_last_bit(self, t0, samples):
        # the final spacing is at most 3e-9, so the parabola misses m by
        # (1.5e-9)^2 at most, and the cosine by half that: below rounding
        m = 0.7071067811865476
        assert refine_max(lambda t: m - (t - t0) ** 2, 0.0, 3.0, samples) == m
        assert refine_max(lambda t: np.cos(5.0 * (t - t0)), 0.0, 3.0, samples) == 1.0

    def test_one_sample_polishes_the_whole_interval(self):
        # the two grid nodes read sin(0) = 0 and sin(3) = 0.14; the polish
        # starts at 3 with half-width 3 and finds the peak at pi/2
        calls = []

        def fn(t):
            calls.append(len(t))
            return np.sin(t)

        assert refine_max(fn, 0.0, 3.0, samples=1) == 1.0
        assert calls[0] == 2

    @pytest.mark.parametrize("fn, sup", [
        (lambda t: -np.abs(t - 0.123456789), 0.0),
        (lambda t: np.floor(5.0 * np.cos(3.0 * t)) / 5.0, 1.0),
        (lambda t: np.sin(1e4 * t) * np.cos(t), 1.0),
        (lambda t: np.minimum(np.sin(t), 0.5), 0.5),
    ], ids=["kink", "staircase", "high_frequency", "plateau"])
    @pytest.mark.parametrize("samples", [1, 16, 4096])
    def test_rough_function_terminates_at_least_at_the_grid_maximum(self, fn, sup, samples):
        calls = []

        def counted(t):
            calls.append(len(t))
            return fn(t)

        lo, hi = -1.0, 2.5
        grid_max = fn(np.linspace(lo, hi, samples + 1)).max()
        peak = refine_max(counted, lo, hi, samples)
        assert grid_max <= peak <= sup
        # each polish step shrinks the half-width by ZOOM / 2, from the grid
        # spacing down to 1e-9 of the interval
        steps = int(np.ceil(np.log(1e9 / samples) / np.log(ZOOM / 2)))
        assert calls == [samples + 1] + [ZOOM + 1] * steps


class TestRefineMaxRejects:
    """Inputs refine_max would answer wrongly raise BadParam naming the argument."""

    @staticmethod
    def f(t):
        return -(t - 0.8) ** 2

    def test_scan_of_another_grid(self):
        # the five values cover [0, 0.4], where f peaks at -0.16; the maximum
        # on [0, 1] is 0
        with pytest.raises(BadParam, match="^scan must hold 11 values"):
            refine_max(self.f, 0.0, 1.0, samples=10, scan=self.f(np.linspace(0.0, 0.4, 5)))

    def test_scan_longer_than_the_grid(self):
        with pytest.raises(BadParam, match="^scan must hold 5 values"):
            refine_max(self.f, 0.0, 1.0, samples=4, scan=self.f(np.linspace(0.0, 1.0, 11)))

    @pytest.mark.parametrize("samples", [0, -1, 2.5, 4096.0])
    def test_samples_not_a_positive_integer(self, samples):
        with pytest.raises(BadParam, match="^samples must be an integer >= 1"):
            refine_max(self.f, 0.0, 1.0, samples=samples)

    @pytest.mark.parametrize("where", ["scan", "grid", "polish"])
    def test_nan_value_names_its_first_t(self, where):
        # nans at points 3 and 7 of the scan, the grid or the first polish step
        first = []

        def fn(t):
            v = self.f(t)
            if len(t) == (ZOOM + 1 if where == "polish" else 11) and not first:
                first.append(float(t[3]))
                v[[3, 7]] = np.nan
            return v

        scan = fn(np.linspace(0.0, 1.0, 11)) if where == "scan" else None
        with pytest.raises(BadParam) as err:
            refine_max(fn, 0.0, 1.0, samples=10, scan=scan)
        assert str(err.value) == f"the value at t = {first[0]!r} is nan"

    @pytest.mark.parametrize("lo, hi", [(np.nan, 1.0), (np.inf, 1.0), (-np.inf, 1.0),
                                        (0.0, np.nan), (0.0, np.inf), (0.0, -np.inf),
                                        (0.0, -0.5), (-1e308, 1e308)],
                             ids=["lo-nan", "lo-inf", "lo--inf", "hi-nan", "hi-inf", "hi--inf",
                                  "hi-below-lo", "span-overflows"])
    def test_bounds_not_finite_or_reversed(self, lo, hi):
        with pytest.raises(BadParam, match=re.escape(f"lo = {lo!r}, hi = {hi!r}: lo, hi and ")):
            refine_max(self.f, lo, hi)


EPS = np.finfo(float).eps
sweep_steps = st.sampled_from([1, 5, 16, 256, 4096])


def _closed_form_peak(p_max):
    """Largest l1 of a pure state whose rho11 sweeps [0, p_max]."""
    return 1.0 if p_max >= 0.5 else 2.0 * sqrt(p_max * (1.0 - p_max))


class TestSweepPeak:
    """Each sweep row's max_c_l1 against its closed-form peak, within 8 EPS.

    Every sweep state is pure, so C_l1 = 2 sqrt(p (1 - p)) with p = rho11.
    Over one period p = p_max sin^2(w t) sweeps [0, p_max], with p_max =
    |g|^2/Omega^2 and w T = pi for rabi (w = Omega, T = pi/Omega), p_max =
    f0^2/(1 + f0^2) and w T = 2 N pi for the pulse (w = eps0).  Every lobe
    peaks at the same C*: 1 if p_max >= 1/2 (where p crosses 1/2), else
    2 sqrt(p_max (1 - p_max)) (where p = p_max).

    The row misses C* by two things:

    * truncation: the polish stops at a spacing s <= 1e-9 T, its best point
      within s/2 of a maximiser.  At a maximiser |C''| <= 4 w^2 C* (p
      crossing 1/2: C'' = -(2 p')^2 with |p'| <= w; p = p_max < 1/2:
      |C''| = C* w^2 (1 - 2 p_max)/(1 - p_max)), so the shortfall is at most
      (w s)^2 C*/2 <= (1e-9 w T)^2 C*/2: 0.02 EPS C* for rabi and, at N = 5,
      2.2 EPS C* for the pulse;
    * rounding: a computed C_l1 carries the roundings of the amplitudes
      (a sine or cosine, a division and a square root: about 1 EPS each
      amplitude), of rho01 = c0 conj(c1) (sqrt(5)/2 EPS), of hypot and of the
      sum (1 EPS), and the closed-form peak about 1 EPS: some 5 EPS in all,
      up or down.

    8 EPS C* covers both.  The largest miss seen over 100000 random rows was
    3.75 EPS C*.
    """

    @settings(max_examples=200, deadline=None)
    @given(st.floats(-1.0, 1.0), st.floats(-1.0, 2.0), st.floats(-3.0, 3.0),
           st.floats(0.001, 3.0), st.floats(0.0, 2 * np.pi), sweep_steps,
           st.sampled_from(["omega0", "coupling-magnitude"]))
    def test_rabi(self, e_g, e_e, omega0, g, phase, n, param):
        p = RabiParams(e_g=e_g, e_e=e_e, omega0=omega0, coupling=g * np.exp(1j * phase))
        value = omega0 if param == "omega0" else g
        [row] = runner.run_sweep(p, n, param, [value])
        swept = runner._swept(p, param, value)
        peak = _closed_form_peak(abs(swept.coupling) ** 2 / swept.omega_rabi ** 2)
        assert row.error is None
        assert abs(row.max_c_l1 - peak) <= 8 * EPS * peak

    @settings(max_examples=200, deadline=None)
    @given(st.floats(0.1, 5.0), st.floats(0.01, 10.0), st.integers(1, 5), sweep_steps)
    def test_pulse(self, e0, f0, n_period, n):
        p = PulseParams(e0=e0, f0=f0, n_period=n_period)
        [row] = runner.run_sweep(p, n, "f0", [f0])
        peak = _closed_form_peak(f0 * f0 / (1.0 + f0 * f0))
        assert row.error is None
        assert abs(row.max_c_l1 - peak) <= 8 * EPS * peak
