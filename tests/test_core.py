"""Core types: validated density matrices, 2x2 helpers, grids and series."""
import warnings

import numpy as np
import pytest

from qdrive import (
    BadParam,
    DiscriminantNegative,
    NotHermitian,
    NotNormalized,
    NotPositive,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    StateVector,
    TimeGrid,
    TimeSeries,
    TraceNotOne,
    commutator,
    dm_eigenvalues,
    dm_new,
    dm_purity,
    ground_state_dm,
    mat2,
)
from conftest import random_density_matrix


class TestDmNew:
    def test_ground_state_valid(self):
        rho = dm_new(np.diag([1.0, 0.0]).astype(complex))
        assert dm_purity(rho) == pytest.approx(1.0, abs=1e-15)

    def test_maximally_mixed_valid(self):
        rho = dm_new(np.diag([0.5, 0.5]).astype(complex))
        assert dm_purity(rho) == pytest.approx(0.5, abs=1e-15)

    def test_indefinite_matrix_rejected(self):
        # eigenvalues 1.1 and -0.1 by the 2x2 formula
        with pytest.raises(NotPositive):
            dm_new(mat2(0.5, 0.6, 0.6, 0.5))

    def test_non_hermitian_rejected(self):
        with pytest.raises(NotHermitian):
            dm_new(mat2(0.5, 0.2, 0.3, 0.5))
        with pytest.raises(NotHermitian):
            dm_new(mat2(0.5 + 1e-6j, 0, 0, 0.5))

    def test_bad_trace_rejected(self):
        with pytest.raises(TraceNotOne):
            dm_new(np.diag([0.6, 0.6]).astype(complex))

    def test_non_finite_rejected(self):
        with pytest.raises(BadParam):
            mat2(np.nan, 0, 0, 1)
        with pytest.raises(BadParam):
            dm_new(np.array([[np.inf, 0], [0, 0]], dtype=complex))

    def test_non_finite_message_is_one_line(self):
        # a sweep prints and writes it as one cell
        with pytest.raises(BadParam, match=r"^density-matrix entry must be finite, got "
                                           r"\[\[\(nan\+0j\), 0j\], \[0j, \(1\+0j\)\]\]$"):
            dm_new(np.array([[np.nan, 0], [0, 1]], dtype=complex))

    def test_relaxed_tolerances(self):
        m = mat2(0.5 + 3e-9, 0.1, 0.1, 0.5 - 1e-9)
        with pytest.raises(TraceNotOne):
            dm_new(m)
        dm_new(m, tol_herm=1e-8, tol_trace=1e-8, tol_psd=1e-8)

    def test_matrix_is_immutable(self):
        rho = ground_state_dm()
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 0.3


class TestCommutator:
    def test_pauli_algebra(self):
        assert np.abs(commutator(SIGMA_Z, SIGMA_X) - 2j * SIGMA_Y).max() < 1e-15

    def test_self_commutator_vanishes(self):
        a = mat2(1.0, 2.0 + 1j, 0.5, -3.0)
        assert np.abs(commutator(a, a)).max() == 0.0

    def test_hand_computed_example(self):
        a = np.diag([1.0, 2.0]).astype(complex)
        b = mat2(0, 1, 0, 0)
        expected = mat2(0, -1, 0, 0)
        assert np.abs(commutator(a, b) - expected).max() == 0.0

    def test_antisymmetry(self, rng):
        for _ in range(50):
            a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
            assert np.abs(commutator(a, b) + commutator(b, a)).max() <= 1e-15


class TestPurityAndEigenvalues:
    def test_purity_examples(self):
        assert dm_purity(dm_new(np.diag([1.0, 0.0]).astype(complex))) == 1.0
        assert dm_purity(dm_new(np.diag([0.5, 0.5]).astype(complex))) == 0.5
        assert dm_purity(dm_new(np.diag([0.75, 0.25]).astype(complex))) == pytest.approx(0.625, abs=1e-15)

    def test_eigenvalue_examples(self):
        assert dm_eigenvalues(dm_new(np.diag([1.0, 0.0]).astype(complex))) == (1.0, 0.0)
        assert dm_eigenvalues(dm_new(np.diag([0.5, 0.5]).astype(complex))) == (0.5, 0.5)
        lam = dm_eigenvalues(dm_new(mat2(0.5, 0.5, 0.5, 0.5)))
        assert lam[0] == pytest.approx(1.0, abs=1e-15)
        assert lam[1] == pytest.approx(0.0, abs=1e-15)

    def test_discriminant_negative(self):
        # only reachable with a deliberately relaxed trace tolerance:
        # trace 1.2 makes 1/4 + |rho01|^2 - rho00*rho11 = -0.11
        rho = dm_new(np.diag([0.6, 0.6]).astype(complex), tol_trace=0.5)
        with pytest.raises(DiscriminantNegative):
            dm_eigenvalues(rho)

    def test_eigenvalues_sum_to_one(self, rng):
        for _ in range(200):
            lam = dm_eigenvalues(random_density_matrix(rng))
            assert abs(lam[0] + lam[1] - 1.0) <= 1e-12

    def test_purity_equals_eigenvalue_squares(self, rng):
        for _ in range(200):
            rho = random_density_matrix(rng)
            lp, lm = dm_eigenvalues(rho)
            assert abs(dm_purity(rho) - (lp * lp + lm * lm)) <= 1e-12


class TestStateVector:
    def test_valid_and_projector(self):
        psi = StateVector(1.0, 0.0)
        assert np.abs(psi.projector() - np.diag([1.0, 0.0])).max() == 0.0
        assert psi.to_density_matrix().rho00 == 1.0

    def test_unnormalized_rejected(self):
        with pytest.raises(NotNormalized):
            StateVector(1.0, 0.5)

    def test_non_finite_rejected(self):
        with pytest.raises(BadParam):
            StateVector(complex("nan"), 0.0)


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

    def test_iteration_yields_samples(self):
        rho = np.stack([np.diag([1.0, 0.0]).astype(complex)] * 2)
        series = TimeSeries(
            t=np.array([0.0, 1.0]),
            rho=rho,
            purity=np.ones(2),
            c_l1=np.zeros(2),
            c_frob=np.ones(2),
        )
        samples = list(series)
        assert len(series) == 2
        assert samples[1].t == 1.0
        assert samples[0].purity == 1.0
