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
    SIGMA_X,
    Sampled,
    TimeGrid,
    dm_new,
    ground_state_dm,
    propagate,
    pulse_density,
    pulse_hamiltonian,
    pulse_rho,
    rabi_density,
    rabi_hamiltonian,
    rabi_rho,
)
from qdrive.core import commutator
from qdrive.liouville import (_BLOCK, _CHUNK, _corotating_map, _generator, _held, _piece_map,
                              _pieces, _rk4_map, _split_maps)
from test_array_core import moderate
from test_identities import rabi_params

RES = RabiParams(e_g=0.0, e_e=1.0, omega0=1.0, coupling=0.5)
EPS = np.finfo(float).eps


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
            assert _held(drive.times, 0.0) == 0
            with pytest.raises(BadParam, match="^sample times must be strictly increasing$"):
                Sampled(times=np.array([1e308, -1e308]), matrices=mats)


class TestHamiltonianAt:
    """H(t) of each drive: rabi_hamiltonian, pulse_hamiltonian, and the
    sample that _held picks for a Sampled drive."""

    def test_rwa_at_zero(self):
        p = RabiParams(e_g=0.2, e_e=1.3, omega0=0.9, coupling=0.3 + 0.4j)
        h = rabi_hamiltonian(p, 0.0)
        expected = np.array([[0.2, 0.3 - 0.4j], [0.3 + 0.4j, 1.3]], dtype=complex)
        assert np.abs(h - expected).max() <= 1e-15

    def test_square_pulse_branches(self):
        p = PulseParams(e0=1.0, f0=1.0, n_period=1)
        assert np.abs(pulse_hamiltonian(p, 0.0) - np.array([[-1, -1], [-1, 1]])).max() == 0.0
        # right-limit branch at the switch: -E0 sigma_z + f0 E0 sigma_x
        assert np.abs(pulse_hamiltonian(p, p.period / 2) - np.array([[-1, 1], [1, 1]])).max() == 0.0

    def test_sampled_piecewise_left(self):
        drive = Sampled(
            times=np.array([0.0, 1.0, 2.0]),
            matrices=np.stack([k * np.eye(2, dtype=complex) for k in (1.0, 2.0, 3.0)]),
        )
        held = _held(drive.times, np.array([0.5, 1.0, 2.0, 2.5, -0.1]))
        assert held.tolist() == [0, 1, 2, -1, -1]  # -1: outside the samples
        grid = TimeGrid(-0.1, 2.0, 4)
        with pytest.raises(OutOfRange, match=r"^step 1, t = 0\.425"):
            propagate(drive, ground_state_dm(), grid)

    def test_sampled_validation(self):
        with pytest.raises(BadParam):
            Sampled(times=np.array([0.0, 0.0]), matrices=np.zeros((2, 2, 2), dtype=complex))
        nonherm = np.zeros((1, 2, 2), dtype=complex)
        nonherm[0, 0, 1] = 1.0
        with pytest.raises(BadParam):
            Sampled(times=np.array([0.0]), matrices=nonherm)


def rhs(ham, rho):
    """-i [H, rho] for a Hermitian rho, through propagate's real generator
    on the coordinates (rho00, Re rho01, Im rho01, rho11)."""
    r = _generator(ham, 1.0) @ np.array([rho[0, 0].real, rho[0, 1].real, rho[0, 1].imag,
                                         rho[1, 1].real])
    return np.array([[r[0], complex(r[1], r[2])], [complex(r[1], -r[2]), r[3]]], dtype=complex)


class TestRhs:
    def test_zero_hamiltonian(self):
        rho = ground_state_dm().matrix
        assert np.abs(rhs(np.zeros((2, 2), dtype=complex), rho)).max() == 0.0

    def test_resonant_initial_slope(self):
        # -i[H, diag(1,0)] has off-diagonal entries +i conj(g), -i g
        p = RabiParams(e_g=0.0, e_e=1.0, omega0=1.0, coupling=0.3 + 0.4j)
        out = rhs(rabi_hamiltonian(p, 0.0), ground_state_dm().matrix)
        expected = np.array([[0.0, 1j * np.conj(p.coupling)], [-1j * p.coupling, 0.0]])
        assert np.abs(out - expected).max() <= 1e-15

    def test_commuting_matrices_give_zero(self):
        rho = np.diag([0.3, 0.7]).astype(complex)
        assert np.abs(rhs(np.diag([1.0, 2.0]).astype(complex), rho)).max() == 0.0


class TestPropagate:
    def test_zero_drive_is_constant(self):
        rho0 = dm_new(np.array([[0.7, 0.2], [0.2, 0.3]], dtype=complex))
        series = propagate(zero_drive(), rho0, TimeGrid(0.0, 5.0, 64))
        assert np.abs(series.rho - rho0.matrix).max() == 0.0

    def test_zero_drive_keeps_non_hermitian_start(self):
        # rho01 and rho10 miss being conjugates by 8e-13: the anti-Hermitian
        # part Q of rho = P + iQ is carried along with P and put back
        rho0 = dm_new(np.array([[0.7, 0.2 + 4e-13], [0.2 - 4e-13, 0.3]], dtype=complex))
        series = propagate(zero_drive(), rho0, TimeGrid(0.0, 5.0, 64))
        assert np.abs(series.rho - rho0.matrix).max() == 0.0

    @pytest.mark.parametrize("drive, closed_form", [
        (RES, rabi_rho),
        (PulseParams(e0=1.0, f0=1.5, n_period=1), pulse_rho),
        (zero_drive(), lambda drive, t: np.broadcast_to(np.diag([1.0, 0.0]), (len(t), 2, 2))),
    ], ids=["RabiParams", "PulseParams", "Sampled"])
    def test_each_drive_is_accepted_as_it_is(self, drive, closed_form):
        grid = TimeGrid(0.0, 2.0, 2048)
        series = propagate(drive, ground_state_dm(), grid)
        assert np.abs(series.rho - closed_form(drive, grid.times())).max() <= 1e-10

    def test_rejects_what_is_not_a_drive(self):
        grid = TimeGrid(0.0, 1.0, 8)
        with pytest.raises(BadParam, match="^unknown drive type TimeGrid$"):
            propagate(grid, ground_state_dm(), grid)

    def test_rabi_example_against_closed_form(self):
        # one population period 2 pi / (2 Omega) at Omega = 1/2
        grid = TimeGrid(0.0, 2 * np.pi, 5000)
        series = propagate(RES, ground_state_dm(), grid)
        err = np.abs(series.rho[-1] - rabi_density(RES, grid.t_end).matrix).max()
        assert err <= 1e-8

    def test_pulse_returns_to_ground(self):
        p = PulseParams(e0=1.0, f0=1.0, n_period=1)
        series = propagate(p, ground_state_dm(), TimeGrid(0.0, p.period, 8192))
        assert np.abs(series.rho[-1] - np.diag([1.0, 0.0])).max() <= 1e-8

    def test_series_has_measure_columns(self):
        p = PulseParams(e0=1.0, f0=0.5, n_period=1)
        series = propagate(p, ground_state_dm(), TimeGrid(0.0, p.period, 128))
        assert len(series) == 129
        assert np.all(series.purity > 0.999999)
        assert np.abs(series.c_frob - 1.0).max() <= 1e-6
        # spot-check one l1 value against the closed form
        i = 32
        assert series.c_l1[i] == pytest.approx(
            2 * abs(pulse_density(p, series.t[i]).matrix[0, 1]), abs=1e-7)

    def test_conservation_properties(self):
        runs = [
            (RES, TimeGrid(0.0, RES.population_period, 5000)),
            (PulseParams(e0=1.0, f0=1.0, n_period=1),
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
            series = propagate(RES, ground_state_dm(), grid)
            errs[steps] = max(
                np.abs(series.rho[i] - rabi_density(RES, t).matrix).max()
                for i, t in enumerate(series.t)
            )
        ratio = errs[2500] / errs[5000]
        assert 8.0 <= ratio <= 32.0

    def test_aligned_multiperiod_grid_accepted(self):
        p = PulseParams(e0=1.0, f0=1.0, n_period=1)
        series = propagate(p, ground_state_dm(),
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
                        matrices=np.stack([SIGMA_X] * 2))
        rho0 = dm_new(np.array([[0.5 + 1e-12j, 0.5], [0.5, 0.5]], dtype=complex))
        # step 1 also fails the 1e-8 Hermiticity check; drift is reported first
        with pytest.raises(InvariantDrift, match=r"^step 1, t = 100\.0: trace drift"):
            propagate(drive, rho0, TimeGrid(0.0, 1000.0, 10))

    def test_drift_past_1e8_is_invariant_drift(self):
        # the same defect grows to about 1e-7 by step 4: one drift limit
        # (1e-8) reports it as InvariantDrift, not NotHermitian
        drive = Sampled(times=np.array([0.0, 25.0]),
                        matrices=np.stack([SIGMA_X] * 2))
        rho0 = dm_new(np.array([[0.5 + 1e-12j, 0.5], [0.5, 0.5]], dtype=complex))
        with pytest.raises(InvariantDrift, match=r"^step 4, t = 10\.0: trace drift 1\.000e-12, "
                                                 r"Hermiticity drift 1\.053e-07 \(limit 1e-08\)$"):
            propagate(drive, rho0, TimeGrid(0.0, 25.0, 10))

    def test_unstable_step_names_step_and_time(self):
        # h = 2 under a sigma_x drive: RK4 is unstable and the first state
        # already has eigenvalue -3.3
        drive = Sampled(times=np.array([0.0, 20.0]), matrices=np.stack([SIGMA_X, SIGMA_X]))
        with pytest.raises(NotPositive, match=r"^step 1, t = 2\.0: smallest eigenvalue -3\.304e\+00"):
            propagate(drive, ground_state_dm(), TimeGrid(0.0, 20.0, 10))

    def test_invalid_state_reported_before_later_out_of_range(self):
        # the drive ends at t = 10, so step 5 leaves its range; the state
        # after step 1 is already invalid and is the failure reported
        drive = Sampled(times=np.array([0.0, 10.0]), matrices=np.stack([SIGMA_X, SIGMA_X]))
        with pytest.raises(NotPositive, match=r"^step 1, t = 2\.0: "):
            propagate(drive, ground_state_dm(), TimeGrid(0.0, 20.0, 10))


P15 = PulseParams(e0=1.0, f0=1.5, n_period=1)
# the square pulse as a sampled drive: samples at 0, T/2 and T
SAMPLED_PULSE = Sampled(times=np.array([0.0, P15.period / 2, P15.period]),
                        matrices=pulse_hamiltonian(P15, np.array([0.0, 0.5, 1.0]) * P15.period))
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
        (P15, P15.period, 101),  # switches inside steps
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
        b = propagate(P15, ground_state_dm(), grid)
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
            propagate(P15, ground_state_dm(), TimeGrid(0.0, 3 * P15.period, 5))


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
            rho = rk4_step(rho, h, *rabi_hamiltonian(drive, [a, a + 0.5 * h, a + h]))
        else:
            k0, k1 = first[i], last[i]
            hs = [h] if k0 == k1 else np.diff([a, *starts[k0 + 1:k1 + 1], a + h])
            for m, dh in zip(mats[k0:k1 + 1], hs):
                rho = rk4_step(rho, dh, m, m, m)
        rhos.append(rho)
    return np.array(rhos)


# a mixed start: RK4's truncation error at large h then cannot push an
# eigenvalue below zero, which propagate would reject
MIXED = dm_new(np.array([[0.7, 0.1 - 0.2j], [0.1 + 0.2j, 0.3]], dtype=complex))


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
        assert_matches_reference(p,
                                 TimeGrid(t_start, t_start + steps * courant / rate, steps))

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.05, 5), st.floats(0.01, 5), st.integers(1, 4), st.integers(-4, 4),
           st.integers(1, 3), st.integers(1, 200), steps_, st.floats(0.0, 1.0), courants)
    def test_square_pulse_aligned_and_split(self, e0, f0, n, k, halves, per_half, steps,
                                            shift, courant):
        p = PulseParams(e0=e0, f0=f0, n_period=n)
        drive, half = p, p.period / 2
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


def lab_step_maps(drive, grid):
    """(steps, 4, 4) RK4 maps of every step of the grid in the lab frame:
    the RWA map of each step from H at its own stage times, a piece's map
    for an unsplit step and the product of the sub-step maps for a split
    one; the grid must lie inside a sampled drive's window."""
    h, times = grid.h, grid.times()
    a = times[:-1]
    pieces = _pieces(drive, grid)
    if pieces is None:
        hams = rabi_hamiltonian(drive, np.stack([a, a + 0.5 * h, a + h]))
        return _rk4_map(*_generator(hams, h))
    starts, mats = pieces
    tol = 1e-9 * h
    first, last = _held(starts, times[:-1] + tol), _held(starts, times[1:] - tol)
    assert (first >= 0).all() and (last >= 0).all()
    maps, split = _piece_map(mats[first], h), first != last
    if split.any():
        maps[split] = _split_maps(starts, mats, a[split], h, first[split], last[split])
    return maps


def chained_propagate(drive, rho0, grid):
    """Raw (steps + 1, 2, 2) trajectory of the lab-frame maps of
    lab_step_maps applied as r = maps[i] @ r, one new array per step."""
    m = np.array(rho0.matrix, dtype=complex)
    s, d = 0.5 * (m[0, 1] + np.conj(m[1, 0])), 0.5 * (m[0, 1] - np.conj(m[1, 0]))
    r = np.array([[m[0, 0].real, m[0, 0].imag], [s.real, d.imag], [s.imag, -d.real],
                  [m[1, 1].real, m[1, 1].imag]])
    rhos = np.empty((grid.steps + 1, 2, 2), dtype=complex)
    coords = rhos.view(float).reshape(-1, 4, 2)
    coords[0] = r
    for i, step in enumerate(lab_step_maps(drive, grid)):
        r = step @ r
        coords[i + 1] = r
    # rho01 = P01 + i Q01 and rho10 = conj(P01) + i conj(Q01)
    (px, qx), (py, qy) = coords[:, 1].T.copy(), coords[:, 2].T.copy()
    rhos[:, 0, 1].real, rhos[:, 0, 1].imag = px - qy, py + qx
    rhos[:, 1, 0].real, rhos[:, 1, 0].imag = px + qy, qx - py
    rhos[0] = m
    return rhos


P_SPLIT = PulseParams(e0=0.7, f0=1.3, n_period=2)
RWA_DETUNED = RabiParams(e_g=-0.2, e_e=1.1, omega0=0.9, coupling=0.3 - 0.4j)
# 1201 samples of the RWA Hamiltonian, none on a node of TimeGrid(0, 120, n)
SAMPLED_RWA = Sampled(times=np.linspace(-0.01, 120.02, 1201),
                      matrices=rabi_hamiltonian(RES, np.linspace(-0.01, 120.02, 1201)))


class TestChunkedApply:
    """propagate multiplies out the maps of each 64-step chunk, carries the
    chunk starts and fills the chunk interiors in batch, and applies the RWA
    drive as one co-rotating map; it must give the plain chain of the
    lab-frame maps up to rounding (assert_matches_reference's bound)."""

    @pytest.mark.parametrize("drive, grid", [
        (RWA_DETUNED, TimeGrid(0.3, 240.0, 9001)),
        # switches inside steps: 9001 steps over 19.3 half periods
        (P_SPLIT, TimeGrid(0.1 * P_SPLIT.period, 9.75 * P_SPLIT.period, 9001)),
        (SAMPLED_RWA, TimeGrid(0.0, 120.0, 9001)),
    ], ids=["rwa", "square-pulse", "sampled"])
    def test_matches_chained_maps(self, drive, grid):
        # two or more full blocks, then one that ends in a partial chunk
        assert 2 * _BLOCK < grid.steps and grid.steps % _BLOCK % _CHUNK
        rhos = propagate(drive, MIXED, grid).rho
        expected = chained_propagate(drive, MIXED, grid)
        assert np.abs(rhos - expected).max() <= 1e-12 * grid.steps

    @pytest.mark.parametrize("drive, grid", [
        (P_SPLIT, TimeGrid(0.1 * P_SPLIT.period, 0.75 * P_SPLIT.period, 63)),
        (SAMPLED_RWA, TimeGrid(0.0, 6.0, 63)),
    ], ids=["square-pulse", "sampled"])
    def test_shorter_than_a_chunk_is_the_plain_chain(self, drive, grid):
        # fewer steps than a chunk: the step-by-step remainder, bit for bit
        assert grid.steps < _CHUNK
        rhos = propagate(drive, MIXED, grid).rho
        expected = chained_propagate(drive, MIXED, grid)
        assert rhos.dtype == expected.dtype and rhos.tobytes() == expected.tobytes()

    def test_out_of_range_inside_a_later_chunk(self):
        # the window ends at 4200.5, inside a chunk of a later block: steps
        # 0..4199 are propagated, checked, then step 4201 is named
        assert _BLOCK < 4100 and 4200 % _BLOCK % _CHUNK
        sx = SIGMA_X
        grid = TimeGrid(0.0, 5000.0, 5000)
        calm = Sampled(times=np.array([0.0, 4100.0, 4200.5]),
                       matrices=np.stack([0 * sx, 1e-3 * sx, 1e-3 * sx]))
        with pytest.raises(OutOfRange, match=r"^step 4201, t = 4201\.0: outside the sampled "
                                             r"range \[0\.0, 4200\.5\]$"):
            propagate(calm, ground_state_dm(), grid)
        # at 2 sigma_x from t = 4100 the step h = 1 is RK4-unstable: the state
        # after step 4101, inside a chunk, fails before the window's end
        wild = Sampled(times=calm.times, matrices=np.stack([0 * sx, 2 * sx, 2 * sx]))
        with pytest.raises(NotPositive, match=r"^step 4101, t = 4101\.0: smallest eigenvalue"):
            propagate(wild, ground_state_dm(), grid)


def turn(phi):
    """D(phi): rho01 -> e^{i phi} rho01 on the coordinates (rho00, x, y, rho11)."""
    d = np.eye(4)
    d[1:3, 1:3] = [[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]]
    return d


class TestCorotatingMap:
    @settings(max_examples=200, deadline=None)
    @given(moderate(5), moderate(5), moderate(5), moderate(2), moderate(2), moderate(100),
           st.integers(0, 16384), courants)
    def test_turned_into_the_lab_frame_is_the_step_map(self, e_g, e_e, omega0, g_re, g_im,
                                                         t_start, k, courant):
        """D(w0 (k + 1) h) M' D(-w0 k h), M' the co-rotating map, is the RK4
        map of step k built from H at its own stage times t_k = t_start + k h.

        The two differ by rounding only.  The map entries are O(1) (r h <= 1),
        and each of the four products (three here, the turn inside M') adds
        about 4 eps.  The phase of H at t_k + s is w0 (t_start + k h + s) in
        the lab map, and w0 (t_start + s) plus the angles w0 k h and
        w0 (k + 1) h of the turns here.  Rounding t and w0 t costs each about
        2 eps |w0| (|t_start| + (k + 1) h), and a phase error moves an entry of
        size at most about 3 by that times its size.  Hence
        16 eps (1 + |w0| (|t_start| + (k + 1) h)); 20000 random draws peaked
        at 0.9 eps (1 + ...).
        """
        p = RabiParams(e_g=e_g, e_e=e_e, omega0=omega0, coupling=complex(g_re, g_im))
        rate = gap(rabi_hamiltonian(p, 0.0)) + abs(omega0)
        assume(rate > 1e-3)
        h = courant / rate
        a = t_start + k * h
        hams = rabi_hamiltonian(p, np.array([a, a + 0.5 * h, a + h]))
        lab = _rk4_map(*_generator(hams, h))
        w = omega0 * h
        lab_from_corotating = turn((k + 1) * w) @ _corotating_map(p, t_start, h) @ turn(-k * w)
        tol = 16 * EPS * (1 + abs(omega0) * (abs(t_start) + (k + 1) * h))
        assert np.abs(lab_from_corotating - lab).max() <= tol


def closed_form_tol(steps, courant, n_periods=0):
    """Bound on |propagate - closed form| from the ground state at t = 0.

    RK4's local error on a step of h is about (r h)^5 / 120 for a generator
    of rate r (its gap plus the drive frequency), so the global error stays
    below steps (r h)^5 = (r t_end) (r h)^4, the 1/120 left as margin for
    H's own time dependence.  Rounding adds about 16 eps per step, and the
    closed form loses 16 eps per unit of its phase arguments (w0 t and
    Omega t, at most r t_end <= steps; for the pulse 2 eps0 tau < 4 pi N).
    """
    return steps * courant**5 + 16 * EPS * (2 * steps + 1 + 4 * math.pi * n_periods)


class TestMatchesClosedForms:
    """propagate against rabi_rho and pulse_rho over the random parameters
    of tests/test_identities.py; grids of at most 300 steps, with r h
    between 1e-3 and 0.1."""

    @settings(max_examples=200, deadline=None)
    @given(rabi_params(), steps_, st.floats(1e-3, 0.1))
    def test_rwa(self, p, steps, courant):
        rate = gap(rabi_hamiltonian(p, 0.0)) + abs(p.omega0)
        grid = TimeGrid(0.0, steps * courant / rate, steps)
        series = propagate(p, ground_state_dm(), grid)
        err = np.abs(series.rho - rabi_rho(p, series.t)).max()
        assert err <= closed_form_tol(steps, courant)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(1e-3, 1e3), st.floats(1e-6, 1e3), st.integers(1, 4), steps_,
           st.floats(1e-3, 0.1))
    def test_square_pulse(self, e0, f0, n, steps, courant):
        p = PulseParams(e0=e0, f0=f0, n_period=n)
        grid = TimeGrid(0.0, steps * courant / (2 * p.eps0), steps)
        series = propagate(p, ground_state_dm(), grid)
        err = np.abs(series.rho - pulse_rho(p, series.t)).max()
        assert err <= closed_form_tol(steps, courant, n)
