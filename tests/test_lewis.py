"""Dynamical invariant: auxiliary amplitude, operator, residuals, phase."""
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdrive import (
    BadParam,
    DegenerateDrive,
    RabiParams,
    floquet_quasienergy,
    invariance_residual,
    invariant_operator,
    lewis_phase,
    rabi_density,
    rabi_rho,
    xi_squared,
)
from test_array_core import moderate
from test_identities import rabi_params, rabi_tol

P = RabiParams(e_g=0.0, e_e=2.0, omega0=1.0, coupling=0.7)   # Theta = 1
P2 = RabiParams(e_g=0.3, e_e=1.7, omega0=1.0, coupling=0.4 - 0.3j)


class TestXiSquared:
    def test_initial_value_is_one(self):
        for p in (P, P2):
            for c_const in (0.5, 1.0, 2.0):
                assert xi_squared(p, 0.0, c_const) == pytest.approx(1.0, abs=1e-15)

    def test_equals_ground_population_at_unit_constant(self):
        rho00 = rabi_density(P, 0.9)[0, 0].real
        assert xi_squared(P, 0.9, 1.0) == pytest.approx(rho00, abs=1e-12)
        for t in np.linspace(0.0, 4.0, 50):
            assert abs(xi_squared(P2, t, 1.0) - rabi_density(P2, t)[0, 0].real) <= 1e-12

    def test_constant_at_c_two(self):
        # cosine coefficient vanishes; remainder is Omega^2/Omega^2 = 1
        for t in (0.0, 0.37, 2.9):
            assert xi_squared(P, t, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_degenerate_rejected(self):
        p = RabiParams(e_g=0.0, e_e=1.0, omega0=1.0, coupling=0.0)
        with pytest.raises(DegenerateDrive):
            xi_squared(p, 0.1, 1.0)


@pytest.mark.parametrize("c_const", [np.nan, np.inf, -np.inf, 1e308, -1e308])
def test_c_const_not_finite_or_overflowing_xi_squared(c_const):
    """Each Lewis function names c_const instead of returning nan or inf
    with a RuntimeWarning; the check sits in xi_squared, which the others call."""
    calls = [lambda: xi_squared(P2, 0.3, c_const),
             lambda: invariant_operator(P2, np.array([0.0, 0.3]), c_const),
             lambda: invariance_residual(P2, 0.3, 1e-5, c_const)]
    for call in calls:
        with pytest.raises(BadParam, match=f"^c_const.*{re.escape(repr(c_const))}"):
            call()


class TestInvariantOperator:
    def test_initial_operator_is_ground_projector(self):
        op = invariant_operator(P, 0.0, 1.0)
        assert np.abs(op - np.diag([1.0, 0.0])).max() <= 1e-15

    def test_identifies_with_density_matrix(self):
        err = np.abs(invariant_operator(P, 0.9, 1.0) - rabi_density(P, 0.9)).max()
        assert err <= 1e-12
        # over a whole population period, 100 samples
        for p in (P, P2):
            for t in np.linspace(0.0, p.population_period, 100):
                err = np.abs(invariant_operator(p, t, 1.0) - rabi_density(p, t)).max()
                assert err <= 1e-12

    def test_trace_equals_constant(self):
        for c_const in (0.5, 1.0, 2.0, 3.7):
            for t in (0.0, 0.31, 1.7):
                op = invariant_operator(P2, t, c_const)
                assert abs(op.trace() - c_const) <= 1e-14

    def test_hermitian_coefficients(self):
        op = invariant_operator(P2, 1.1, 0.8)
        assert op[1, 0] == op[0, 1].conjugate()
        assert op[0, 0].real + op[1, 1].real == pytest.approx(0.8, abs=1e-15)

    def test_zero_coupling_gives_ground_projector(self):
        # nothing divides by g: with no coupling the state stays in |g>
        p = RabiParams(e_g=0.0, e_e=3.0, omega0=1.0, coupling=0.0)
        t = np.linspace(0.0, 10.0, 11)
        op = invariant_operator(p, t, 1.0)
        assert np.abs(op - np.diag([1.0, 0.0])).max() <= 1e-15
        assert np.abs(op - rabi_rho(p, t)).max() <= 1e-15


@settings(max_examples=500, deadline=None)
@given(rabi_params(), moderate(1e3), st.floats(-3.0, 3.0))
def test_invariant_family_is_affine_in_the_density_matrix(p, t, c_const):
    """The paper's invariant at any C is (2 - C) rho + (C - 1) I, rho the
    closed-form state: xi^2 - 1 and gamma1 carry the factor 2 - C.  Both
    sides round the phases w0 t and Omega t as the C = 1 identity does, and
    the factors (2 - C) and C - 1 scale that by up to 1 + |C|.  The worst
    error seen over 13000 draws was 0.19 of this bound."""
    affine = (2.0 - c_const) * rabi_rho(p, t) + (c_const - 1.0) * np.eye(2)
    err = np.abs(invariant_operator(p, t, c_const) - affine).max()
    assert err <= (1.0 + abs(c_const)) * rabi_tol(p, t)

class TestInvarianceResidual:
    def test_small_for_exact_invariant(self):
        p = RabiParams(e_g=0.0, e_e=2.0, omega0=1.0, coupling=0.5)  # Theta = 1
        assert invariance_residual(p, 0.3, 1e-5, c_const=1.0) <= 1e-8

    def test_constant_invariant_case(self):
        # C = 2 gives the identity operator, which commutes with everything
        assert invariance_residual(P, 0.3, 1e-5, c_const=2.0) <= 1e-8

    def test_residual_for_all_constants(self):
        for c_const in (0.5, 1.0, 2.0):
            for t in np.linspace(0.05, P2.population_period, 25):
                assert invariance_residual(P2, t, 1e-5, c_const=c_const) <= 1e-7

    def test_second_order_in_h(self):
        # away from the rounding floor the central difference is O(h^2)
        r1 = invariance_residual(P2, 0.4, 1e-3, c_const=0.5)
        r2 = invariance_residual(P2, 0.4, 5e-4, c_const=0.5)
        assert r1 / r2 == pytest.approx(4.0, rel=0.25)


class TestErmakovPinney:
    def test_xi_form_consistency(self):
        # xidd/xi + xid^2/xi^2 + 2 Omega^2 = (Theta^2/2 + C|g|^2) / xi^2
        # (the coefficient consistent with the closed-form xi^2; C = 1 keeps
        # xi^2 = rho_gg strictly positive for Theta != 0)
        p, c_const, h = P2, 1.0, 1e-4
        om2 = p.omega_rabi**2
        rhs_const = p.theta**2 / 2.0 + c_const * abs(p.coupling) ** 2
        for t in np.linspace(0.1, 4.0, 40):
            u0 = xi_squared(p, t, c_const)
            up = xi_squared(p, t + h, c_const)
            um = xi_squared(p, t - h, c_const)
            xi, xip, xim = np.sqrt([u0, up, um])
            xid = (xip - xim) / (2 * h)
            xidd = (xip - 2 * xi + xim) / h**2
            resid = xidd / xi + xid**2 / xi**2 + 2.0 * om2 - rhs_const / u0
            assert abs(resid) <= 1e-5

    def test_u_form_consistency(self):
        # equivalent second-order form in u = xi^2 (no square roots):
        # u'' + 4 Omega^2 u = Theta^2 + 2 C |g|^2, for every constant C
        p, h = P2, 1e-4
        om2 = p.omega_rabi**2
        for c_const in (0.5, 1.0, 2.0):
            rhs = p.theta**2 + 2.0 * c_const * abs(p.coupling) ** 2
            for t in np.linspace(0.1, 4.0, 40):
                u0 = xi_squared(p, t, c_const)
                up = xi_squared(p, t + h, c_const)
                um = xi_squared(p, t - h, c_const)
                udd = (up - 2 * u0 + um) / h**2
                assert abs(udd + 4.0 * om2 * u0 - rhs) <= 1e-5


class TestLewisPhase:
    def test_vanishes_when_frequency_matches_level_sum(self):
        p = RabiParams(e_g=0.5, e_e=1.0, omega0=1.5, coupling=0.3)
        for t in (0.0, 1.0, 5.0):
            assert lewis_phase(p, t) == 0.0

    def test_direct_value(self):
        p = RabiParams(e_g=0.0, e_e=1.0, omega0=2.0, coupling=0.3)
        assert lewis_phase(p, 3.0) == pytest.approx(1.5, abs=1e-15)

    def test_linear_in_time(self):
        assert lewis_phase(P2, 1.0) * 5.0 == pytest.approx(lewis_phase(P2, 5.0), abs=1e-12)

    def test_equals_quasienergy_times_t(self):
        for t in (0.0, 0.77, 13.2):
            assert lewis_phase(P2, t) == floquet_quasienergy(P2) * t
