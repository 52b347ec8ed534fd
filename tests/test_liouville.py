"""Fixed-step RK4 Liouville propagator and the drive variants."""
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qdrive import (
    BadParam,
    InvariantDrift,
    NotPositive,
    OutOfRange,
    PulseParams,
    RabiParams,
    RwaRabi,
    Sampled,
    SquarePulse,
    TimeGrid,
    dm_new,
    ground_state_dm,
    hamiltonian_at,
    liouville_rhs,
    mat2,
    propagate,
    pulse_density,
    pulse_hamiltonian,
    pulse_rho,
    rabi_density,
    rabi_hamiltonian,
)
from qdrive.core import commutator
from qdrive.liouville import _BLOCK, _held, _pieces, _step_maps
from test_array_core import moderate

RES = RabiParams(e_g=0.0, e_e=1.0, omega0=1.0, coupling=0.5)


def zero_drive(t_end: float = 10.0) -> Sampled:
    return Sampled(times=np.array([0.0, t_end]),
                   matrices=np.zeros((2, 2, 2), dtype=complex))


class TestSampled:
    def test_far_apart_times_without_overflow(self):
        # t[1] - t[0] overflows; the order check compares without subtracting
        mats = np.zeros((2, 2, 2), dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drive = Sampled(times=np.array([-1e308, 1e308]), matrices=mats)
            assert np.array_equal(hamiltonian_at(drive, 0.0), mats[0])
            with pytest.raises(BadParam, match="^sample times must be strictly increasing$"):
                Sampled(times=np.array([1e308, -1e308]), matrices=mats)


class TestHamiltonianAt:
    def test_rwa_at_zero(self):
        p = RabiParams(e_g=0.2, e_e=1.3, omega0=0.9, coupling=0.3 + 0.4j)
        h = hamiltonian_at(RwaRabi(p), 0.0)
        expected = mat2(0.2, 0.3 - 0.4j, 0.3 + 0.4j, 1.3)
        assert np.abs(h - expected).max() <= 1e-15

    def test_square_pulse_branches(self):
        p = PulseParams(e0=1.0, f0=1.0, n_period=1)
        assert np.abs(hamiltonian_at(SquarePulse(p), 0.0)
                      - mat2(-1, -1, -1, 1)).max() == 0.0
        # right-limit branch at the switch: -E0 sigma_z + f0 E0 sigma_x
        assert np.abs(hamiltonian_at(SquarePulse(p), p.period / 2)
                      - mat2(-1, 1, 1, 1)).max() == 0.0

    def test_sampled_piecewise_left(self):
        drive = Sampled(
            times=np.array([0.0, 1.0, 2.0]),
            matrices=np.stack([k * np.eye(2, dtype=complex) for k in (1.0, 2.0, 3.0)]),
        )
        assert hamiltonian_at(drive, 0.5)[0, 0] == 1.0
        assert hamiltonian_at(drive, 1.0)[0, 0] == 2.0
        assert hamiltonian_at(drive, 2.0)[0, 0] == 3.0
        with pytest.raises(OutOfRange):
            hamiltonian_at(drive, 2.5)
        with pytest.raises(OutOfRange):
            hamiltonian_at(drive, -0.1)

    def test_sampled_validation(self):
        with pytest.raises(BadParam):
            Sampled(times=np.array([0.0, 0.0]), matrices=np.zeros((2, 2, 2), dtype=complex))
        nonherm = np.zeros((1, 2, 2), dtype=complex)
        nonherm[0, 0, 1] = 1.0
        with pytest.raises(BadParam):
            Sampled(times=np.array([0.0]), matrices=nonherm)


class TestRhs:
    def test_zero_hamiltonian(self):
        rho = ground_state_dm().matrix
        assert np.abs(liouville_rhs(zero_drive(), 1.0, rho)).max() == 0.0

    def test_resonant_initial_slope(self):
        # -i[H, diag(1,0)] has off-diagonal entries +i conj(g), -i g
        p = RabiParams(e_g=0.0, e_e=1.0, omega0=1.0, coupling=0.3 + 0.4j)
        out = liouville_rhs(RwaRabi(p), 0.0, ground_state_dm().matrix)
        expected = mat2(0.0, 1j * np.conj(p.coupling), -1j * p.coupling, 0.0)
        assert np.abs(out - expected).max() <= 1e-15

    def test_commuting_matrices_give_zero(self):
        drive = Sampled(times=np.array([0.0, 1.0]),
                        matrices=np.stack([np.diag([1.0, 2.0]).astype(complex)] * 2))
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert np.abs(liouville_rhs(drive, 0.5, rho)).max() == 0.0


class TestPropagate:
    def test_zero_drive_is_constant(self):
        rho0 = dm_new(mat2(0.7, 0.2, 0.2, 0.3))
        series = propagate(zero_drive(), rho0, TimeGrid(0.0, 5.0, 64))
        assert np.abs(series.rho - rho0.matrix).max() == 0.0

    def test_zero_drive_keeps_non_hermitian_start(self):
        # rho01 and rho10 miss being conjugates by 8e-13: the anti-Hermitian
        # part Q of rho = P + iQ is carried along with P and put back
        rho0 = dm_new(mat2(0.7, 0.2 + 4e-13, 0.2 - 4e-13, 0.3))
        series = propagate(zero_drive(), rho0, TimeGrid(0.0, 5.0, 64))
        assert np.abs(series.rho - rho0.matrix).max() == 0.0

    def test_rabi_example_against_closed_form(self):
        # one population period 2 pi / (2 Omega) at Omega = 1/2
        grid = TimeGrid(0.0, 2 * np.pi, 5000)
        series = propagate(RwaRabi(RES), ground_state_dm(), grid)
        err = np.abs(series.rho[-1] - rabi_density(RES, grid.t_end).matrix).max()
        assert err <= 1e-8

    def test_pulse_returns_to_ground(self):
        p = PulseParams(e0=1.0, f0=1.0, n_period=1)
        series = propagate(SquarePulse(p), ground_state_dm(), TimeGrid(0.0, p.period, 8192))
        assert np.abs(series.rho[-1] - np.diag([1.0, 0.0])).max() <= 1e-8

    def test_series_has_measure_columns(self):
        p = PulseParams(e0=1.0, f0=0.5, n_period=1)
        series = propagate(SquarePulse(p), ground_state_dm(), TimeGrid(0.0, p.period, 128))
        assert len(series) == 129
        assert np.all(series.purity > 0.999999)
        assert np.abs(series.c_frob - 1.0).max() <= 1e-6
        # spot-check one l1 value against the closed form
        i = 32
        assert series.c_l1[i] == pytest.approx(
            2 * abs(pulse_density(p, series.t[i]).rho01), abs=1e-7)

    def test_conservation_properties(self):
        runs = [
            (RwaRabi(RES), TimeGrid(0.0, RES.population_period, 5000)),
            (SquarePulse(PulseParams(e0=1.0, f0=1.0, n_period=1)),
             TimeGrid(0.0, PulseParams(e0=1.0, f0=1.0, n_period=1).period, 8192)),
        ]
        for drive, grid in runs:
            series = propagate(drive, ground_state_dm(), grid)
            trace_drift = np.abs(series.rho[:, 0, 0] + series.rho[:, 1, 1] - 1.0).max()
            herm_drift = np.abs(series.rho[:, 0, 1] - series.rho[:, 1, 0].conj()).max()
            purity_drift = np.abs(series.purity - 1.0).max()
            assert trace_drift <= 1e-9
            assert herm_drift <= 1e-9
            assert purity_drift <= 1e-8

    def test_fourth_order_convergence(self):
        # halving h shrinks the closed-form error ~16x while truncation
        # still dominates rounding
        errs = {}
        for steps in (2500, 5000):
            grid = TimeGrid(0.0, RES.population_period, steps)
            series = propagate(RwaRabi(RES), ground_state_dm(), grid)
            errs[steps] = max(
                np.abs(series.rho[i] - rabi_density(RES, t).matrix).max()
                for i, t in enumerate(series.t)
            )
        ratio = errs[2500] / errs[5000]
        assert 8.0 <= ratio <= 32.0

    def test_aligned_multiperiod_grid_accepted(self):
        p = PulseParams(e0=1.0, f0=1.0, n_period=1)
        series = propagate(SquarePulse(p), ground_state_dm(),
                           TimeGrid(0.0, 2 * p.period, 1024))
        assert np.abs(series.rho[-1] - np.diag([1.0, 0.0])).max() <= 1e-8

    def test_sampled_out_of_range_propagation(self):
        with pytest.raises(OutOfRange):
            propagate(zero_drive(t_end=1.0), ground_state_dm(), TimeGrid(0.0, 2.0, 16))

    def test_invariant_drift_detected(self):
        # a 1e-12 Hermiticity defect on the diagonal is amplified by a wildly
        # unstable step size until the drift guard trips; the Hermitian part
        # (I/2 + sigma_x/2) commutes with the sigma_x drive and stays put
        drive = Sampled(times=np.array([0.0, 1000.0]),
                        matrices=np.stack([mat2(0, 1, 1, 0)] * 2))
        rho0 = dm_new(mat2(0.5 + 1e-12j, 0.5, 0.5, 0.5))
        # step 1 also fails the 1e-8 Hermiticity check; drift is reported first
        with pytest.raises(InvariantDrift, match=r"^step 1, t = 100\.0: trace drift"):
            propagate(drive, rho0, TimeGrid(0.0, 1000.0, 10))

    def test_drift_past_1e8_is_invariant_drift(self):
        # the same defect grows to about 1e-7 by step 4: one drift limit
        # (1e-8) reports it as InvariantDrift, not NotHermitian
        drive = Sampled(times=np.array([0.0, 25.0]),
                        matrices=np.stack([mat2(0, 1, 1, 0)] * 2))
        rho0 = dm_new(mat2(0.5 + 1e-12j, 0.5, 0.5, 0.5))
        with pytest.raises(InvariantDrift, match=r"^step 4, t = 10\.0: trace drift 1\.000e-12, "
                                                 r"Hermiticity drift 1\.053e-07 \(limit 1e-08\)$"):
            propagate(drive, rho0, TimeGrid(0.0, 25.0, 10))

    def test_unstable_step_names_step_and_time(self):
        # h = 2 under a sigma_x drive: RK4 is unstable and the first state
        # already has eigenvalue -3.3
        sx = mat2(0, 1, 1, 0)
        drive = Sampled(times=np.array([0.0, 20.0]), matrices=np.stack([sx, sx]))
        with pytest.raises(NotPositive, match=r"^step 1, t = 2\.0: smallest eigenvalue -3\.304e\+00"):
            propagate(drive, ground_state_dm(), TimeGrid(0.0, 20.0, 10))

    def test_invalid_state_reported_before_later_out_of_range(self):
        # the drive ends at t = 10, so step 5 leaves its range; the state
        # after step 1 is already invalid and is the failure reported
        sx = mat2(0, 1, 1, 0)
        drive = Sampled(times=np.array([0.0, 10.0]), matrices=np.stack([sx, sx]))
        with pytest.raises(NotPositive, match=r"^step 1, t = 2\.0: "):
            propagate(drive, ground_state_dm(), TimeGrid(0.0, 20.0, 10))


P15 = PulseParams(e0=1.0, f0=1.5, n_period=1)
# the square pulse as a sampled drive: samples at 0, T/2 and T
SAMPLED_PULSE = Sampled(times=np.array([0.0, P15.period / 2, P15.period]),
                        matrices=np.stack([pulse_hamiltonian(P15, t)
                                           for t in (0.0, P15.period / 2, P15.period)]))
# a slowly varying drive held constant over 32 pieces of [0, 3]
SMOOTH_TIMES = np.linspace(0.0, 3.0, 33)
SMOOTH = Sampled(times=SMOOTH_TIMES, matrices=np.stack([
    rabi_hamiltonian(RabiParams(e_g=0.2, e_e=1.1, omega0=0.9, coupling=0.4), t)
    for t in SMOOTH_TIMES]))


def observed_order(drive, t_end, steps):
    """log2(|rho_4h - rho_2h| / |rho_2h - rho_h|) over the nodes of the
    coarsest of three grids of steps, 2 steps and 4 steps."""
    rho = [propagate(drive, ground_state_dm(), TimeGrid(0.0, t_end, k * steps)).rho[::k]
           for k in (1, 2, 4)]
    return np.log2(np.abs(rho[0] - rho[1]).max() / np.abs(rho[1] - rho[2]).max())


class TestPiecewiseConstantOrder:
    """Every piecewise-constant drive integrates at 4th order, whether its
    pieces start on grid nodes or inside steps (which are then sub-stepped)."""

    @pytest.mark.parametrize("drive, t_end, steps", [
        (SAMPLED_PULSE, P15.period, 64),   # switches on nodes
        (SquarePulse(P15), P15.period, 101),  # switches inside steps
        (SMOOTH, 3.0, 64),                 # samples on nodes
        (SMOOTH, 3.0, 200),                # samples inside steps
    ], ids=["sampled-pulse-aligned", "square-pulse-unaligned", "smooth-aligned",
            "smooth-unaligned"])
    def test_fourth_order(self, drive, t_end, steps):
        assert 3.5 <= observed_order(drive, t_end, steps) <= 4.5

    def test_sampled_pulse_matches_closed_form(self):
        # no step may mix the two branches of the held samples
        series = propagate(SAMPLED_PULSE, ground_state_dm(), TimeGrid(0.0, P15.period, 1024))
        assert np.abs(series.rho - pulse_rho(P15, series.t)).max() <= 1e-8

    def test_aligned_sampled_pulse_equals_square_pulse(self):
        # both hold the branch in force at each step midpoint, bit for bit
        grid = TimeGrid(0.0, P15.period, 256)
        a = propagate(SAMPLED_PULSE, ground_state_dm(), grid)
        b = propagate(SquarePulse(P15), ground_state_dm(), grid)
        assert np.array_equal(a.rho, b.rho)

    def test_switch_within_tolerance_of_node_does_not_split(self):
        # moving a switch by 1e-10 h keeps it on the node: same bits
        h = P15.period / 64
        moved = Sampled(times=SAMPLED_PULSE.times + np.array([0.0, 1e-10 * h, 0.0]),
                        matrices=SAMPLED_PULSE.matrices)
        grid = TimeGrid(0.0, P15.period, 64)
        assert np.array_equal(propagate(moved, ground_state_dm(), grid).rho,
                              propagate(SAMPLED_PULSE, ground_state_dm(), grid).rho)

    def test_step_longer_than_half_period_rejected(self):
        with pytest.raises(BadParam, match="exceeds the half period"):
            propagate(SquarePulse(P15), ground_state_dm(), TimeGrid(0.0, 3 * P15.period, 5))


def rk4_step(rho, h, h_a, h_mid, h_b):
    """One stage-by-stage classical RK4 step of length h on the raw matrix,
    given H at its start, midpoint and end."""
    k1 = -1j * commutator(h_a, rho)
    k2 = -1j * commutator(h_mid, rho + 0.5 * h * k1)
    k3 = -1j * commutator(h_mid, rho + 0.5 * h * k2)
    k4 = -1j * commutator(h_b, rho + h * k3)
    return rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def reference_propagate(drive, rho0, grid):
    """Raw (steps + 1, 2, 2) trajectory from the four RK4 stages of every
    step and sub-step, on the grid and pieces that propagate uses; the grid
    must lie inside a sampled drive's window."""
    h, t0, times = grid.h, grid.t_start, grid.times()
    pieces = _pieces(drive, grid)
    if pieces is not None:
        starts, mats = pieces
        tol = 1e-9 * h
        first, last = _held(starts, times[:-1] + tol), _held(starts, times[1:] - tol)
        assert (first >= 0).all() and (last >= 0).all()
    rhos = [np.array(rho0.matrix, dtype=complex)]
    for i in range(grid.steps):
        a, rho = t0 + i * h, rhos[-1]
        if pieces is None:
            rho = rk4_step(rho, h, hamiltonian_at(drive, a), hamiltonian_at(drive, a + 0.5 * h),
                           hamiltonian_at(drive, a + h))
        else:
            k0, k1 = first[i], last[i]
            hs = [h] if k0 == k1 else np.diff([a, *starts[k0 + 1:k1 + 1], a + h])
            for m, dh in zip(mats[k0:k1 + 1], hs):
                rho = rk4_step(rho, dh, m, m, m)
        rhos.append(rho)
    return np.array(rhos)


# a mixed start: RK4's truncation error at large h then cannot push an
# eigenvalue below zero, which propagate would reject
MIXED = dm_new(mat2(0.7, 0.1 - 0.2j, 0.1 + 0.2j, 0.3))


def assert_matches_reference(drive, grid):
    series = propagate(drive, MIXED, grid)
    # rounding only: both routes evaluate the same polynomial in the step's
    # generators h (rho -> -i [H, rho])
    assert np.abs(series.rho - reference_propagate(drive, MIXED, grid)).max() <= 1e-12 * grid.steps


def gap(mats):
    """Largest eigenvalue gap of (..., 2, 2) Hermitian matrices: rho ->
    -i [H, rho] has eigenvalues 0 and +-i times it, so h * gap bounds the
    RK4 step."""
    return float(np.max(np.hypot(mats[..., 0, 0].real - mats[..., 1, 1].real,
                                 2.0 * np.abs(mats[..., 0, 1]))))


# h * (gap + drive frequency), inside RK4's stable range on the imaginary
# axis (2.8); grids have at most a few hundred steps
courants = st.floats(0.01, 1.0)
steps_ = st.integers(1, 300)


class TestMatchesStageByStageReference:
    """propagate applies one 4x4 map per step; the stage-by-stage RK4 loop it
    replaced must give the same trajectory up to rounding."""

    @settings(max_examples=40, deadline=None)
    @given(moderate(5), moderate(5), moderate(5), moderate(2), moderate(2), moderate(100),
           steps_, courants)
    def test_rwa(self, e_g, e_e, omega0, g_re, g_im, t_start, steps, courant):
        p = RabiParams(e_g=e_g, e_e=e_e, omega0=omega0, coupling=complex(g_re, g_im))
        rate = gap(rabi_hamiltonian(p, 0.0)) + abs(omega0)  # H also turns at omega0
        assume(rate > 1e-3)
        assert_matches_reference(RwaRabi(p),
                                 TimeGrid(t_start, t_start + steps * courant / rate, steps))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 5), st.floats(0.01, 5), st.integers(1, 4), st.integers(-4, 4),
           st.integers(1, 3), st.integers(1, 200), steps_, st.floats(0.0, 1.0), courants)
    def test_square_pulse_aligned_and_split(self, e0, f0, n, k, halves, per_half, steps,
                                            shift, courant):
        p = PulseParams(e0=e0, f0=f0, n_period=n)
        drive, half = SquarePulse(p), p.period / 2
        # switches on nodes: h 2 eps0 = 2 n pi / per_half, the pulse's gap
        # being 2 eps0, so at least 2 n pi steps per half period
        per_half = max(per_half, math.ceil(2 * n * math.pi))
        assert_matches_reference(drive, TimeGrid(k * half, (k + halves) * half,
                                                 halves * per_half))
        # switches inside steps, which are then split
        t_start = (k + shift) * half
        assert_matches_reference(drive, TimeGrid(t_start, t_start + steps * courant / (2 * p.eps0),
                                                 steps))

    @settings(max_examples=40, deadline=None)
    @given(moderate(2), moderate(2), moderate(2), moderate(1), moderate(1), st.integers(2, 40),
           steps_, st.floats(0.0, 0.5), courants)
    def test_smooth_sampled(self, e_g, e_e, omega0, g_re, g_im, samples, steps, inset,
                            courant):
        p = RabiParams(e_g=e_g, e_e=e_e, omega0=omega0, coupling=complex(g_re, g_im))
        rate = gap(rabi_hamiltonian(p, 0.0)) + abs(omega0)
        assume(rate > 1e-3)
        # a window inside the samples; steps and sample times rarely align
        span = steps * courant / rate / (1 - inset)
        times = np.linspace(0.0, span, samples)
        drive = Sampled(times=times, matrices=rabi_hamiltonian(p, times))
        assert_matches_reference(drive, TimeGrid(inset * span / 2, span * (1 - inset / 2), steps))


def chained_propagate(drive, rho0, grid):
    """Raw (steps + 1, 2, 2) trajectory of propagate's maps, built block by
    block with _step_maps and applied as r = maps[i] @ r, one new array per
    step; the grid must lie inside a sampled drive's window."""
    h, t0, times, n = grid.h, grid.t_start, grid.times(), grid.steps
    held = pieces = _pieces(drive, grid)
    if pieces is not None:
        starts, mats = pieces
        tol = 1e-9 * h
        held = (starts, mats, _held(starts, times[:-1] + tol), _held(starts, times[1:] - tol))
    m = np.array(rho0.matrix, dtype=complex)
    s, d = 0.5 * (m[0, 1] + np.conj(m[1, 0])), 0.5 * (m[0, 1] - np.conj(m[1, 0]))
    r = np.array([[m[0, 0].real, m[0, 0].imag], [s.real, d.imag], [s.imag, -d.real],
                  [m[1, 1].real, m[1, 1].imag]])
    rhos = np.empty((n + 1, 2, 2), dtype=complex)
    coords = rhos.view(float).reshape(-1, 4, 2)
    coords[0] = r
    for i0 in range(0, n, _BLOCK):
        maps = _step_maps(drive, held, t0, h, i0, min(i0 + _BLOCK, n))
        for i in range(len(maps)):
            r = maps[i] @ r
            coords[i0 + i + 1] = r
    # rho01 = P01 + i Q01 and rho10 = conj(P01) + i conj(Q01)
    (px, qx), (py, qy) = coords[:, 1].T.copy(), coords[:, 2].T.copy()
    rhos[:, 0, 1].real, rhos[:, 0, 1].imag = px - qy, py + qx
    rhos[:, 1, 0].real, rhos[:, 1, 0].imag = px + qy, qx - py
    rhos[0] = m
    return rhos


P_SPLIT = PulseParams(e0=0.7, f0=1.3, n_period=2)


class TestInPlaceApply:
    """propagate writes each map's product into the trajectory in place; it
    must give the bits of the plain chain, over several 512-step blocks."""

    @pytest.mark.parametrize("drive, grid", [
        (RwaRabi(RabiParams(e_g=-0.2, e_e=1.1, omega0=0.9, coupling=0.3 - 0.4j)),
         TimeGrid(0.3, 40.0, 1500)),
        # switches inside steps: 1537 steps over 3.3 half periods
        (SquarePulse(P_SPLIT), TimeGrid(0.1 * P_SPLIT.period, 1.75 * P_SPLIT.period, 1537)),
        # 301 samples of the RWA Hamiltonian, none on a node
        (Sampled(times=np.linspace(-0.01, 30.02, 301),
                 matrices=rabi_hamiltonian(RES, np.linspace(-0.01, 30.02, 301))),
         TimeGrid(0.0, 30.0, 1499)),
    ], ids=["rwa", "square-pulse", "sampled"])
    def test_matches_chained_maps_bit_for_bit(self, drive, grid):
        assert _BLOCK < grid.steps // 2
        rhos = propagate(drive, MIXED, grid).rho
        expected = chained_propagate(drive, MIXED, grid)
        assert rhos.dtype == expected.dtype and rhos.tobytes() == expected.tobytes()
