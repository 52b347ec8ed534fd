"""Closed-form RWA drive solution: density matrix, amplitudes, Floquet pieces."""
import numpy as np
import pytest

from qdrive import (
    BadParam,
    DegenerateDrive,
    RabiParams,
    TimeGrid,
    floquet_quasienergy,
    ground_state_dm,
    propagate,
    rabi_amplitudes,
    rabi_density,
    rabi_hamiltonian,
    rabi_rho,
)

RESONANT = RabiParams(e_g=0.0, e_e=1.0, omega0=1.0, coupling=0.5)
DETUNED = RabiParams(e_g=0.3, e_e=1.7, omega0=1.0, coupling=0.4 - 0.3j)
# detuning Theta = 1 with unit |coupling|
THETA_ONE = RabiParams(e_g=0.0, e_e=2.0, omega0=1.0, coupling=1.0)


@pytest.mark.parametrize("kwargs", [
    dict(e_g=0.0, e_e=1.0, omega0=1e308, coupling=0.5),     # Theta**2 overflows
    dict(e_g=-1.7e308, e_e=1.7e308, omega0=0.0, coupling=0.5),  # Theta = inf
    dict(e_g=0.0, e_e=1.0, omega0=1.0, coupling=1e200),     # |g|**2 overflows
])
def test_overflowing_rabi_frequency_rejected(kwargs):
    with pytest.raises(BadParam, match="overflow the Rabi frequency"):
        RabiParams(**kwargs)


@pytest.mark.parametrize("coupling", [1.5e-155j, 1e-160, 3.7e-155])
def test_rabi_frequency_too_small_for_closed_form_rejected(coupling):
    # 1/(4 Omega^2) overflowed and rabi_rho returned NaN coherences
    p = RabiParams(e_g=0.0, e_e=0.0, omega0=0.0, coupling=coupling)
    with pytest.raises(DegenerateDrive, match=r"too small: 1/\(4 Omega\^2\) overflows"):
        rabi_rho(p, 0.0)
    p = RabiParams(e_g=0.0, e_e=0.0, omega0=0.0, coupling=3.8e-155)
    assert np.isfinite(rabi_rho(p, np.array([0.0, 1e150]))).all()


@pytest.mark.parametrize("kwargs, message", [
    (dict(e_g=0.0, e_e=1.0, omega0=1.0, coupling=0.0),
     r"Omega = 0 \(zero coupling and zero detuning\)"),
    (dict(e_g=0.0, e_e=1.0, omega0=1.0, coupling=1e-200),  # |g|**2 underflows to 0
     r"Omega = 0\.0 is too small: 1/\(4 Omega\^2\) overflows"),
    (dict(e_g=0.0, e_e=1e-200, omega0=0.0, coupling=0.0),  # Theta**2 underflows to 0
     r"Omega = 0\.0 is too small: 1/\(4 Omega\^2\) overflows"),
], ids=["degenerate", "tiny-coupling", "tiny-detuning"])
def test_zero_omega_names_its_cause(kwargs, message):
    with pytest.raises(DegenerateDrive, match=f"^{message}$"):
        RabiParams(**kwargs).population_period


def test_derived_constants():
    assert RESONANT.theta == 0.0
    assert RESONANT.omega_rabi == 0.5
    assert DETUNED.theta == pytest.approx(0.4)
    assert DETUNED.omega_rabi == pytest.approx(np.sqrt(0.4**2 / 4 + 0.25))


class TestRabiDensity:
    def test_initial_condition(self):
        for p in (RESONANT, DETUNED, THETA_ONE):
            assert np.abs(rabi_density(p, 0.0).matrix - np.diag([1.0, 0.0])).max() == 0.0

    def test_full_population_transfer_on_resonance(self):
        # Omega = 0.5, so at t = pi the excited population is sin^2(pi/2) = 1
        rho = rabi_density(RESONANT, np.pi)
        assert rho.matrix[1, 1].real == pytest.approx(1.0, abs=1e-12)

    def test_zero_coupling_freezes_populations(self):
        p = RabiParams(e_g=0.0, e_e=3.0, omega0=1.0, coupling=0.0)  # Theta = 2
        for t in (0.0, 0.7, 3.3):
            assert np.abs(rabi_density(p, t).matrix - np.diag([1.0, 0.0])).max() <= 1e-15

    def test_degenerate_drive_rejected(self):
        p = RabiParams(e_g=0.0, e_e=1.0, omega0=1.0, coupling=0.0)  # Theta = 0 too
        with pytest.raises(DegenerateDrive):
            rabi_density(p, 0.1)

    def test_purity_and_trace(self):
        for p in (RESONANT, DETUNED):
            for t in np.linspace(0.0, 2 * p.population_period, 200):
                m = rabi_density(p, t).matrix
                assert abs((m @ m - m)).max() <= 1e-12  # projector
                assert abs(m.trace() - 1.0) <= 1e-12

    def test_population_periodicity(self):
        p = DETUNED
        T = p.population_period
        for t in np.linspace(0.0, T, 37):
            a = rabi_density(p, t).matrix[0, 0]
            b = rabi_density(p, t + T).matrix[0, 0]
            assert abs(a - b) <= 1e-12


class TestRabiState:
    def test_initial_state(self):
        c0, c1 = rabi_amplitudes(DETUNED, 0.0)
        assert c0 == 1.0 and c1 == 0.0

    def test_outer_product_matches_density(self):
        assert abs(THETA_ONE.theta - 1.0) < 1e-15 and abs(THETA_ONE.coupling) == 1.0
        t = 0.7
        phi = np.array(rabi_amplitudes(THETA_ONE, t))
        err = np.abs(np.outer(phi, phi.conj()) - rabi_density(THETA_ONE, t).matrix).max()
        assert err <= 1e-12

    def test_resonant_quarter_period(self):
        # Theta = 0, real coupling, Omega*t = pi/2: all population in |e>
        p = RESONANT
        t = (np.pi / 2) / p.omega_rabi
        c0, c1 = rabi_amplitudes(p, t)
        expected_c1 = -1j * np.exp(-1j * p.omega0 * t)
        assert abs(c0) <= 1e-15
        assert abs(c1 - expected_c1) <= 1e-12


def solution(p, t):
    """The paper's full solution e^{i zeta t} |phi(t)> at a single time t."""
    return np.exp(1j * floquet_quasienergy(p) * t) * np.array(rabi_amplitudes(p, t))


class TestFloquet:
    def test_quasienergy_values(self):
        assert floquet_quasienergy(RESONANT) == 0.0
        sym = RabiParams(e_g=-1.3, e_e=1.3, omega0=0.8, coupling=0.2)
        assert floquet_quasienergy(sym) == pytest.approx(0.4)
        p = RabiParams(e_g=0.3, e_e=1.7, omega0=1.0, coupling=0.5)
        assert floquet_quasienergy(p) == pytest.approx(-0.5)

    def test_solution_initial_and_zero_zeta(self):
        assert solution(DETUNED, 0.0).tolist() == [1.0, 0.0]
        assert floquet_quasienergy(RESONANT) == 0.0
        for t in (0.3, 1.9):
            assert np.array_equal(solution(RESONANT, t), rabi_amplitudes(RESONANT, t))

    def test_phi_is_not_drive_periodic(self):
        # |phi(t)> mixes e^{+-i Omega t} over a 2 pi/w0-periodic part, so it
        # returns after one drive period only when Omega is a multiple of w0
        ends = np.array([0.0, 2 * np.pi])
        p = RabiParams(e_g=0.3, e_e=1.7, omega0=1.0, coupling=0.4 - 0.3j)  # Omega = 0.539
        q = RabiParams(e_g=0.0, e_e=1.0, omega0=1.0, coupling=1.0)  # Theta = 0, Omega = w0
        moved = [np.abs(np.diff(rabi_amplitudes(r, ends))).max() for r in (p, q)]
        assert moved[0] > 1.0 and moved[1] <= 1e-15

    def test_schroedinger_residual(self):
        # i d|psi>/dt = H|psi> for the phase-dressed solution
        p = RabiParams(e_g=0.0, e_e=2.0, omega0=1.0, coupling=0.5)  # Theta = 1
        t, h = 0.5, 1e-5
        dpsi = (solution(p, t + h) - solution(p, t - h)) / (2 * h)
        resid = 1j * dpsi - rabi_hamiltonian(p, t) @ solution(p, t)
        assert np.abs(resid).max() <= 1e-8

    def test_phase_expectation_equals_quasienergy(self):
        # <phi| i d/dt - H |phi> = zeta at 100 times over one period
        p = DETUNED
        zeta = floquet_quasienergy(p)
        h = 1e-5
        for t in np.linspace(0.0, p.population_period, 100):
            phi = np.array(rabi_amplitudes(p, t))
            dphi = (np.array(rabi_amplitudes(p, t + h))
                    - np.array(rabi_amplitudes(p, t - h))) / (2 * h)
            val = phi.conj() @ (1j * dphi - rabi_hamiltonian(p, t) @ phi)
            assert abs(val - zeta) <= 1e-6


def test_density_matches_propagator():
    # independent numerical oracle over one population period
    for p in (RESONANT, DETUNED):
        grid = TimeGrid(0.0, p.population_period, 5000)
        series = propagate(p, ground_state_dm(), grid)
        worst = max(
            np.abs(series.rho[i] - rabi_density(p, t).matrix).max()
            for i, t in enumerate(series.t)
        )
        assert worst <= 1e-8
