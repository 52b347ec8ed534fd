"""Core helpers: the state check, 2x2 helpers, grids and series."""
import re
import warnings

import numpy as np
import pytest

from qdrive import (
    BadParam,
    NotHermitian,
    NotPositive,
    PulseParams,
    RabiParams,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Sampled,
    TimeGrid,
    TimeSeries,
    TraceNotOne,
    commutator,
    invariance_residual,
    invariant_operator,
    l1_pulse_closed_form,
    lewis_phase,
    propagate,
    pulse_amplitudes,
    pulse_hamiltonian,
    pulse_rho,
    rabi_amplitudes,
    rabi_hamiltonian,
    rabi_rho,
    xi_squared,
)
from qdrive.core import scan_rho
from conftest import random_density_matrix


def start(m) -> np.ndarray:
    """The first state of a one-step propagation from m: propagate checks m first."""
    drive = Sampled(times=np.array([0.0, 1.0]), matrices=np.zeros((2, 2, 2), dtype=complex))
    return propagate(drive, m, TimeGrid(0.0, 1.0, 1)).rho[0]


class TestDmNew:
    """propagate's check of rho0 on the hand-picked cases of the former dm_new
    constructor; tests/test_liouville.py draws random ones."""

    def test_ground_state_valid(self):
        rho = start(np.diag([1.0, 0.0]).astype(complex))
        assert scan_rho(rho).purity.item() == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed_valid(self):
        rho = start(np.diag([0.5, 0.5]).astype(complex))
        assert scan_rho(rho).purity.item() == pytest.approx(0.5, abs=1e-15)

    def test_indefinite_matrix_rejected(self):
        # eigenvalues 1.1 and -0.1 by the 2x2 formula
        with pytest.raises(NotPositive):
            start(np.array([[0.5, 0.6], [0.6, 0.5]], dtype=complex))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            start(np.array([[0.5, 0.2], [0.3, 0.5]], dtype=complex))
        with pytest.raises(NotHermitian):
            start(np.array([[0.5 + 1e-6j, 0], [0, 0.5]], dtype=complex))

    def test_bad_trace_rejected(self):
        with pytest.raises(TraceNotOne):
            start(np.diag([0.6, 0.6]).astype(complex))

    def test_non_finite_rejected(self):
        with pytest.raises(BadParam):
            start(np.array([[np.inf, 0], [0, 0]], dtype=complex))

    def test_non_finite_message_is_one_line(self):
        # a sweep prints and writes it as one cell
        with pytest.raises(BadParam, match=r"^density-matrix entry must be finite, got "
                                           r"\[\[\(nan\+0j\), 0j\], \[0j, \(1\+0j\)\]\]$"):
            start(np.array([[np.nan, 0], [0, 1]], dtype=complex))

    def test_relaxed_tolerances(self):
        m = np.array([[0.5 + 3e-9, 0.1], [0.1, 0.5 - 1e-9]], dtype=complex)
        with pytest.raises(TraceNotOne):
            start(m)


class TestCommutator:
    def test_pauli_algebra(self):
        assert np.abs(commutator(SIGMA_Z, SIGMA_X) - 2j * SIGMA_Y).max() < 1e-15

    def test_self_commutator_vanishes(self):
        a = np.array([[1.0, 2.0 + 1j], [0.5, -3.0]], dtype=complex)
        assert np.abs(commutator(a, a)).max() == 0.0

    def test_hand_computed_example(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = np.array([[0, 1], [0, 0]], dtype=complex)
        expected = np.array([[0, -1], [0, 0]], dtype=complex)
        assert np.abs(commutator(a, b) - expected).max() == 0.0

    def test_antisymmetry(self, rng):
        for _ in range(50):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert np.abs(commutator(a, b) + commutator(b, a)).max() <= 1e-15


class TestPurityAndEigenvalues:
    """scan_rho's purity and Frobenius radicand against the eigenvalues that
    LAPACK finds (eigvalsh, ascending): purity is lam-^2 + lam+^2 and the
    radicand is (lam+ - lam-)^2."""

    def test_purity_examples(self):
        for diag, purity in (([1.0, 0.0], 1.0), ([0.5, 0.5], 0.5), ([0.75, 0.25], 0.625)):
            assert scan_rho(np.diag(diag).astype(complex)).purity.item() == purity

    def test_eigenvalue_examples(self):
        for m in (np.diag([1.0, 0.0]), np.diag([0.5, 0.5]), np.full((2, 2), 0.5),
                  np.array([[0.5, 0.3 + 0.4j], [0.3 - 0.4j, 0.5]])):
            lm, lp = np.linalg.eigvalsh(m)
            scan = scan_rho(m.astype(complex))
            assert scan.c_frob.item() == pytest.approx(lp - lm, abs=1e-15)
            assert scan.purity.item() == pytest.approx(lp * lp + lm * lm, abs=1e-15)

    def test_eigenvalues_match_direct_radicand(self, rng):
        for _ in range(2000):
            m = random_density_matrix(rng)
            lm, lp = np.linalg.eigvalsh(m)
            assert abs(scan_rho(m).radicand.item() - (lp - lm) ** 2) <= 1e-12

    def test_eigenvalues_sum_to_one(self, rng):
        # a state the TOL check accepts has eigenvalues >= 0 summing to 1, within 1e-12
        for _ in range(200):
            lam = np.linalg.eigvalsh(random_density_matrix(rng))
            assert abs(lam.sum() - 1.0) <= 1e-12 and lam.min() >= -1e-12

    def test_purity_equals_eigenvalue_squares(self, rng):
        for _ in range(200):
            m = random_density_matrix(rng)
            lm, lp = np.linalg.eigvalsh(m)
            assert abs(scan_rho(m).purity.item() - (lp * lp + lm * lm)) <= 1e-12


class TestTimeGrid:
    def test_times_cover_range(self):
        grid = TimeGrid(0.0, 1.0, 4)
        assert np.allclose(grid.times(), [0.0, 0.25, 0.5, 0.75, 1.0])
        assert grid.h == 0.25

    def test_invalid_grids(self):
        with pytest.raises(BadParam):
            TimeGrid(1.0, 0.0, 4)
        with pytest.raises(BadParam):
            TimeGrid(0.0, 1.0, 0)
        with pytest.raises(BadParam):
            TimeGrid(0.0, np.inf, 4)
        with pytest.raises(BadParam, match="span"):  # t_end - t_start overflows
            TimeGrid(-1e308, 1e308, 4)

    @pytest.mark.parametrize("steps", [4.0, 2.5, np.nan, np.inf, "4", None, 0, -1])
    def test_steps_not_an_integer_of_at_least_one(self, steps):
        # a float is no step count, even 4.0, and nan and inf raise BadParam,
        # not ValueError or OverflowError
        message = f"steps must be an integer >= 1, got {steps!r}"
        with pytest.raises(BadParam, match=f"^{re.escape(message)}$"):
            TimeGrid(0.0, 1.0, steps)

    def test_numpy_integer_steps(self):
        assert len(TimeGrid(0.0, 1.0, np.int64(4)).times()) == 5

    def test_colliding_nodes_rejected(self):
        # h = 2440 is below 16384, the spacing of doubles at 1e20
        with pytest.raises(BadParam, match=r"^nodes 0 and 1 coincide at t = 1e\+20: step 2440\.0 "):
            TimeGrid(1e20, 1.0000000000001e20, 4096)
        # a step of a few spacings still gives strictly increasing nodes
        grid = TimeGrid(1e20, 1e20 + 4096 * 65536.0, 4096)
        assert (np.diff(grid.times()) > 0).all()


class TestTimeSeries:
    def test_requires_increasing_times(self):
        n = 3
        with pytest.raises(BadParam):
            TimeSeries(
                t=np.array([0.0, 2.0, 1.0]),
                rho=np.zeros((n, 2, 2), dtype=complex),
                purity=np.zeros(n),
                c_l1=np.zeros(n),
                c_frob=np.zeros(n),
            )

    def test_far_apart_times_without_overflow(self):
        # t[1] - t[0] overflows; the order check compares without subtracting
        rho = np.stack([np.diag([1.0, 0.0]).astype(complex)] * 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            series = TimeSeries(t=np.array([-1e308, 1e308]), rho=rho, purity=np.ones(2),
                                c_l1=np.zeros(2), c_frob=np.ones(2))
            assert len(series) == 2
            with pytest.raises(BadParam, match="^sample times must be strictly increasing$"):
                TimeSeries(t=np.array([1e308, -1e308]), rho=rho, purity=np.ones(2),
                           c_l1=np.zeros(2), c_frob=np.ones(2))

    @pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
    @pytest.mark.parametrize("name", ["t", "rho", "purity", "c_l1", "c_frob"])
    def test_rejects_non_finite_values(self, name, value):
        cols = dict(t=np.array([0.0, 1.0]), rho=np.stack([np.diag([1.0, 0.0]).astype(complex)] * 2),
                    purity=np.ones(2), c_l1=np.zeros(2), c_frob=np.ones(2))
        cols[name][-1] = value
        with pytest.raises(BadParam, match=rf"^{name} holds a non-finite value$"):
            TimeSeries(**cols)


RABI = RabiParams(e_g=0.0, e_e=2.0, omega0=1.0, coupling=0.7)
PULSE = PulseParams(e0=1.0, f0=1.0, n_period=1)
CLOSED_FORMS = {
    "rabi_rho": lambda t: rabi_rho(RABI, t),
    "rabi_amplitudes": lambda t: rabi_amplitudes(RABI, t),
    "rabi_hamiltonian": lambda t: rabi_hamiltonian(RABI, t),
    "xi_squared": lambda t: xi_squared(RABI, t, 1.0),
    "invariant_operator": lambda t: invariant_operator(RABI, t),
    "invariance_residual": lambda t: invariance_residual(RABI, t, 1e-5),
    "invariance_residual-h": lambda h: invariance_residual(RABI, 0.5, h),
    "lewis_phase": lambda t: lewis_phase(RABI, t),
    "pulse_rho": lambda t: pulse_rho(PULSE, t),
    "pulse_amplitudes": lambda t: pulse_amplitudes(PULSE, t),
    "pulse_hamiltonian": lambda t: pulse_hamiltonian(PULSE, t),
    "l1_pulse_closed_form": lambda t: l1_pulse_closed_form(PULSE, t),
}


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", CLOSED_FORMS)
def test_closed_forms_reject_non_finite_times(name, value):
    # BadParam, not math's ValueError or a NaN matrix; for arrays too
    args = (value,) if name.endswith("-h") else (value, np.array([0.0, value]))  # h is a scalar
    for arg in args:
        with pytest.raises(BadParam, match="must be .*finite, got"):
            CLOSED_FORMS[name](arg)
