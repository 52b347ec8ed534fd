"""Square-pulse drive: period, piecewise closed forms, amplitudes, phase."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrive import (
    BadParam,
    PulseParams,
    TimeGrid,
    periodicity_T,
    propagate,
    pulse_amplitudes,
    pulse_density,
    pulse_f,
    pulse_hamiltonian,
    pulse_rho,
)
from qdrive.config import GROUND_STATE

P11 = PulseParams(e0=1.0, f0=1.0, n_period=1)


class TestPeriodicity:
    def test_direct_values(self):
        assert periodicity_T(1.0, 0.0, 1) == pytest.approx(2 * np.pi, abs=1e-15)
        assert periodicity_T(1.0, 1.0, 1) == pytest.approx(np.pi * np.sqrt(2), abs=1e-12)
        assert periodicity_T(1.0, 1.0, 1) == pytest.approx(4.442883, abs=1e-6)

    def test_linear_in_n(self):
        assert periodicity_T(0.7, 2.0, 4) == pytest.approx(2 * periodicity_T(0.7, 2.0, 2))

    def test_bad_params(self):
        with pytest.raises(BadParam):
            periodicity_T(0.0, 1.0, 1)
        with pytest.raises(BadParam):
            periodicity_T(1.0, -0.5, 1)
        with pytest.raises(BadParam):
            periodicity_T(1.0, 1.0, 0)
        with pytest.raises(BadParam):
            PulseParams(e0=1.0, f0=0.0, n_period=1)  # driven case needs f0 > 0

    @pytest.mark.parametrize("e0, f0, n", [
        (1.0, 1e200, 1),      # eps0 overflows, T = 0
        (1e-320, 1.0, 1),     # eps0 subnormal, T = inf
        (1.0, 1.0, 10**400),  # 2 n pi overflows
        (1.0, 1.0, np.inf),
    ], ids=["eps0-overflow", "eps0-underflow", "huge-n", "infinite-n"])
    def test_overflow_rejected(self, e0, f0, n):
        with pytest.raises(BadParam):
            periodicity_T(e0, f0, n)

    def test_derived_quantities(self):
        assert P11.eps0 == pytest.approx(np.sqrt(2.0), abs=1e-15)
        assert P11.period == pytest.approx(2 * np.pi / np.sqrt(2.0), abs=1e-12)


class TestPulseF:
    def test_branches(self):
        T = P11.period
        assert pulse_f(P11, 0.0) == 1.0
        assert pulse_f(P11, T / 2) == -1.0          # right limit at the switch
        assert pulse_f(P11, T) == 1.0               # periodic extension
        assert pulse_f(P11, 0.49 * T) == 1.0
        assert pulse_f(P11, 0.51 * T) == -1.0

    def test_hamiltonian_matrices(self):
        T = P11.period
        assert np.abs(pulse_hamiltonian(P11, 0.0) - np.array([[-1, -1], [-1, 1]])).max() == 0.0
        assert np.abs(pulse_hamiltonian(P11, T / 2) - np.array([[-1, 1], [1, 1]])).max() == 0.0


class TestPulseDensity:
    def test_initial_state(self):
        assert np.abs(pulse_density(P11, 0.0) - np.diag([1.0, 0.0])).max() == 0.0

    def test_quarter_period_value(self):
        # 2 eps0 T/4 = pi, so rho00 = (1/4)(-1) + 3/4 = 1/2
        rho = pulse_density(P11, P11.period / 4)
        assert rho[0, 0].real == pytest.approx(0.5, abs=1e-12)

    def test_half_period_returns_to_ground(self):
        for p in (P11, PulseParams(e0=1.0, f0=4.5, n_period=1)):
            err = np.abs(pulse_density(p, p.period / 2) - np.diag([1.0, 0.0])).max()
            assert err <= 1e-12

    def test_period_return(self):
        for p in (P11, PulseParams(e0=1.0, f0=0.1, n_period=1),
                  PulseParams(e0=1.0, f0=1.0, n_period=3)):
            T = p.period
            for k in range(1, 6):
                err = np.abs(pulse_density(p, k * T) - np.diag([1.0, 0.0])).max()
                assert err <= 1e-12

    def test_purity(self):
        for f0 in (0.1, 1.0, 4.5):
            p = PulseParams(e0=1.0, f0=f0, n_period=1)
            for t in np.linspace(0.0, 2 * p.period, 300):
                m = pulse_density(p, t)
                assert np.abs(m @ m - m).max() <= 1e-12

    def test_off_diagonal_sign_flip(self):
        # second half-period value = minus the first-branch expression
        p = PulseParams(e0=1.0, f0=2.0, n_period=1)
        T, eps0, f0 = p.period, p.eps0, p.f0
        q = 1.0 + f0 * f0
        for tau in np.linspace(0.55 * T, 0.95 * T, 17):
            first_branch = (f0 / (2 * q) * (1 - np.cos(2 * eps0 * tau))
                            - 1j * f0 / (2 * np.sqrt(q)) * np.sin(2 * eps0 * tau))
            assert abs(pulse_density(p, tau)[0, 1] - (-first_branch)) <= 1e-12


class TestPulseState:
    def test_initial_state(self):
        c0, c1 = pulse_amplitudes(P11, 0.0)
        assert c0 == 1.0 and c1 == 0.0

    def test_outer_product_matches_density(self):
        p = PulseParams(e0=1.0, f0=2.0, n_period=1)
        for frac in (0.4, 0.15, 0.8):
            t = frac * p.period
            psi = np.array(pulse_amplitudes(p, t))
            err = np.abs(np.outer(psi, psi.conj()) - pulse_density(p, t)).max()
            assert err <= 1e-12

    def test_excited_population(self):
        p = PulseParams(e0=1.0, f0=2.0, n_period=1)
        for frac in (0.1, 0.3, 0.65):
            t = frac * p.period
            expected = (p.f0**2 / (1 + p.f0**2)) * np.sin(p.eps0 * t) ** 2
            assert abs(abs(pulse_amplitudes(p, t)[1]) ** 2 - expected) <= 1e-12

    def test_schroedinger_residual_away_from_switches(self):
        p = PulseParams(e0=1.0, f0=2.0, n_period=1)
        T, h = p.period, 1e-5
        for frac in np.linspace(0.02, 0.98, 49):
            t = frac * T
            if min(abs(t - 0.0), abs(t - T / 2), abs(t - T)) < 1e-3 * T:
                continue
            psi = np.array(pulse_amplitudes(p, t))
            dpsi = (np.array(pulse_amplitudes(p, t + h))
                    - np.array(pulse_amplitudes(p, t - h))) / (2 * h)
            resid = 1j * dpsi - pulse_hamiltonian(p, t) @ psi
            assert np.abs(resid).max() <= 1e-6


EPS = np.finfo(float).eps


@settings(max_examples=500, deadline=None)
@given(st.floats(1e-3, 1e3), st.floats(1e-6, 1e3), st.integers(1, 20),
       st.integers(-10**6, 10**6))
def test_returns_to_ground_at_every_half_period(e0, f0, n, k):
    """pulse_rho(k T/2) is |0><0| for every integer k.

    x = 2 eps0 tau should be 2 pi N m, m = 0, 1 or 2.  eps0 and T divide
    the same rounded denominator, so eps0 T = 2 pi N to 3 roundings (unit
    u = eps/2) and x to 4 m; t = k (T/2) rounds once, moving x by at most
    u |k| 2 pi N.  So |dx| <= pi N eps (8 + |k|).  rho01 moves by at most
    |dx| / 2 (sin x has the coefficient f0 / 2 sqrt(1 + f0^2) < 1/2), the
    diagonal by a few roundings of terms below 1.
    """
    p = PulseParams(e0=e0, f0=f0, n_period=n)
    err = np.abs(pulse_rho(p, k * (p.period / 2)) - np.diag([1.0, 0.0])).max()
    assert err <= math.pi * n * EPS * (8 + abs(k)) / 2 + 4 * EPS


class TestPulseLewisPhase:
    @pytest.mark.parametrize("frac", [0.3, 0.7])
    def test_phase_rate_vanishes(self, frac):
        # <phi| i d/dt - H |phi> = 0 in both branches
        p, h = PulseParams(e0=1.0, f0=2.0, n_period=1), 1e-5
        t = frac * p.period
        phi = np.array(pulse_amplitudes(p, t))
        dphi = (np.array(pulse_amplitudes(p, t + h))
                - np.array(pulse_amplitudes(p, t - h))) / (2 * h)
        val = phi.conj() @ (1j * dphi - pulse_hamiltonian(p, t) @ phi)
        assert abs(val) <= 1e-6


@pytest.mark.parametrize("f0,n", [(0.1, 1), (1.0, 1), (4.5, 1), (1.0, 3)])
def test_density_matches_propagator(f0, n):
    p = PulseParams(e0=1.0, f0=f0, n_period=n)
    grid = TimeGrid(0.0, p.period, 8192)
    series = propagate(p, GROUND_STATE, grid)
    worst = max(
        np.abs(series.rho[i] - pulse_density(p, t)).max()
        for i, t in enumerate(series.t)
    )
    assert worst <= 1e-8
