"""Acceptance gate: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failing criterion shows up as the pytest failure itself).
"""
import json

import numpy as np
import pytest

from qdrive import (
    PulseParams,
    RabiParams,
    TimeGrid,
    floquet_quasienergy,
    ground_state_dm,
    invariance_residual,
    invariant_operator,
    l1_pulse_closed_form,
    lewis_phase,
    propagate,
    pulse_density,
    pulse_rho,
    rabi_amplitudes,
    rabi_density,
    rabi_hamiltonian,
    refine_max,
)
from qdrive.cli import main as cli_main
from qdrive.core import scan_rho
from qdrive.io import CSV_HEADER, read_series_csv, write_series_csv
from conftest import random_density_matrix

RABI_EXAMPLE = RabiParams(e_g=0.0, e_e=1.0, omega0=1.0, coupling=0.5)
RABI_DETUNED = RabiParams(e_g=0.3, e_e=1.7, omega0=1.0, coupling=0.4 - 0.3j)
PULSE_COMBOS = [(0.1, 1), (1.0, 1), (4.5, 1), (1.0, 3)]


def _report(num: int, name: str, detail: str) -> None:
    print(f"ACCEPTANCE {num:2d} {name}: PASS ({detail})")


def _max_series_error(params: RabiParams, steps: int) -> float:
    grid = TimeGrid(0.0, params.population_period, steps)
    series = propagate(params, ground_state_dm(), grid)
    return max(
        np.abs(series.rho[i] - rabi_density(params, t).matrix).max()
        for i, t in enumerate(series.t)
    )


def test_criterion_1_rabi_oracle_equivalence():
    err_coarse = _max_series_error(RABI_EXAMPLE, 2500)
    err = _max_series_error(RABI_EXAMPLE, 5000)
    assert err <= 1e-6
    ratio = err_coarse / err
    assert 8.0 <= ratio <= 32.0
    _report(1, "rabi-oracle-equivalence", f"max err {err:.3e} at 5000 steps, "
            f"halving ratio {ratio:.1f}")


def test_criterion_2_purity_preservation():
    worst = 0.0
    for t in np.linspace(0.0, 2 * RABI_DETUNED.population_period, 1000):
        m = rabi_density(RABI_DETUNED, t).matrix
        worst = max(worst, abs((m @ m).trace().real - 1.0))
    p = PulseParams(e0=1.0, f0=1.0, n_period=1)
    for t in np.linspace(0.0, 2 * p.period, 1000):
        m = pulse_density(p, t).matrix
        worst = max(worst, abs((m @ m).trace().real - 1.0))
    assert worst <= 1e-12
    _report(2, "purity-preservation", f"max |tr(rho^2) - 1| = {worst:.3e}")


def test_criterion_3_invariant_identification():
    worst = 0.0
    for p in (RABI_DETUNED, RabiParams(e_g=0.0, e_e=2.0, omega0=1.0, coupling=0.7)):
        for t in np.linspace(0.0, p.population_period, 100):
            err = np.abs(invariant_operator(p, t, 1.0) - rabi_density(p, t).matrix).max()
            worst = max(worst, err)
    assert worst <= 1e-12
    _report(3, "invariant-identification", f"max entrywise gap {worst:.3e}")


def test_criterion_4_invariance_residual():
    worst = 0.0
    for c_const in (0.5, 1.0, 2.0):
        for t in np.linspace(0.05, RABI_DETUNED.population_period, 50):
            worst = max(worst, invariance_residual(RABI_DETUNED, t, 1e-5, c_const=c_const))
    assert worst <= 1e-7
    _report(4, "invariance-residual", f"max residual {worst:.3e} (h = 1e-5)")


def test_criterion_5_floquet_phase():
    h = 1e-5
    worst = 0.0
    for p in (RABI_EXAMPLE, RABI_DETUNED):
        zeta = floquet_quasienergy(p)
        assert zeta == (p.omega0 - p.e_e - p.e_g) / 2.0
        for t in np.linspace(0.0, p.population_period, 100):
            phi = np.array(rabi_amplitudes(p, t))
            dphi = (np.array(rabi_amplitudes(p, t + h))
                    - np.array(rabi_amplitudes(p, t - h))) / (2 * h)
            val = phi.conj() @ (1j * dphi - rabi_hamiltonian(p, t) @ phi)
            worst = max(worst, abs(val - zeta))
        for t in (0.0, 0.9, 17.3):
            assert lewis_phase(p, t) == zeta * t
    assert worst <= 1e-6
    _report(5, "floquet-phase", f"max |<i d/dt - H> - zeta| = {worst:.3e}")


def test_criterion_6_pulse_periodicity():
    worst_return = 0.0
    worst_oracle = 0.0
    for f0, n in PULSE_COMBOS:
        p = PulseParams(e0=1.0, f0=f0, n_period=n)
        for k in range(1, 6):
            err = np.abs(pulse_density(p, k * p.period).matrix - np.diag([1.0, 0.0])).max()
            worst_return = max(worst_return, err)
        grid = TimeGrid(0.0, p.period, 8192)
        series = propagate(p, ground_state_dm(), grid)
        err = max(
            np.abs(series.rho[i] - pulse_density(p, t).matrix).max()
            for i, t in enumerate(series.t)
        )
        worst_oracle = max(worst_oracle, err)
    assert worst_return <= 1e-12
    assert worst_oracle <= 1e-6
    _report(6, "pulse-periodicity", f"period return {worst_return:.3e}, "
            f"RK4 vs closed form {worst_oracle:.3e}")


def test_criterion_7_weak_drive_coherence_scale():
    p = PulseParams(e0=1.0, f0=0.1, n_period=1)
    T = p.period
    times = np.linspace(0.0, T, 2001)
    values = np.array([l1_pulse_closed_form(p, t) for t in times])
    direct = scan_rho(pulse_rho(p, times)).c_l1
    assert np.abs(values - direct).max() <= 1e-12
    peak = refine_max(lambda t: l1_pulse_closed_form(p, t), 0.0, T, samples=2000)
    assert peak == pytest.approx(0.2 / 1.01, abs=1e-9)
    for t in (0.0, T / 2, T):
        assert l1_pulse_closed_form(p, t) <= 1e-9
    _report(7, "weak-drive-coherence", f"peak {peak:.10f} vs 2 f0/(1+f0^2) = {0.2 / 1.01:.10f}")


def test_criterion_8_strong_drive_coherence_scale():
    p = PulseParams(e0=1.0, f0=4.5, n_period=1)
    T = p.period
    peak = refine_max(lambda t: l1_pulse_closed_form(p, t), 0.0, T, samples=8192)
    assert peak == pytest.approx(1.0, abs=1e-9)
    # strict local minimum at tau = T/4
    quarter = T / 4
    at_quarter = l1_pulse_closed_form(p, quarter)
    for delta in (1e-4 * T, 1e-3 * T, 1e-2 * T):
        assert at_quarter < l1_pulse_closed_form(p, quarter - delta)
        assert at_quarter < l1_pulse_closed_form(p, quarter + delta)
    assert at_quarter == pytest.approx(2 * 4.5 / (1 + 4.5**2), abs=1e-12)
    _report(8, "strong-drive-coherence", f"max {peak:.12f}, dip at T/4 = {at_quarter:.6f}")


def test_criterion_9_frobenius_constancy():
    worst = 0.0
    for f0, n in PULSE_COMBOS:
        p = PulseParams(e0=1.0, f0=f0, n_period=n)
        c_frob = scan_rho(pulse_rho(p, np.linspace(0.0, 2 * p.period, 500))).c_frob
        worst = max(worst, np.abs(c_frob - 1.0).max())
    assert worst <= 1e-12
    mixed = np.diag([0.5, 0.5]).astype(complex)
    assert scan_rho(mixed).require_valid().c_frob.item() == 0.0
    _report(9, "frobenius-constancy", f"max |C_F - 1| = {worst:.3e}; C_F(mixed) = 0 exactly")


def test_criterion_10_measure_cross_validation():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(1000):
        m = random_density_matrix(rng).matrix
        lm, lp = np.linalg.eigvalsh(m)
        via_eigs = np.sqrt(2.0 * ((lp - 0.5) ** 2 + (lm - 0.5) ** 2))
        worst = max(worst, abs(scan_rho(m).c_frob.item() - via_eigs))
    assert worst <= 1e-12
    _report(10, "measure-cross-validation", f"max route gap {worst:.3e} over 1000 states")


def test_criterion_11_cli_contract(tmp_path, capsys):
    # exit codes: 0 verified, 1 verification failure, 2 config error
    assert cli_main(["verify", "--scenario", "rabi", "--steps", "5000"]) == 0
    assert cli_main(["verify", "--scenario", "rabi", "--steps", "10"]) == 1
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"scenario": "rabi", "params": {"oops": 1}}))
    assert cli_main(["rabi", "--config", str(cfg)]) == 2
    capsys.readouterr()

    # CSV schema and 17-significant-digit bit-exact round trip
    out = tmp_path / "series.csv"
    assert cli_main(["pulse", "--f0", "4.5", "--steps", "128",
                     "--output", str(out)]) == 0
    capsys.readouterr()
    raw = out.read_bytes()
    assert raw.startswith(CSV_HEADER.encode("ascii") + b"\n")
    assert b"\r" not in raw
    series = read_series_csv(out)
    rewritten = tmp_path / "rewritten.csv"
    write_series_csv(series, rewritten)
    assert rewritten.read_bytes() == raw
    _report(11, "cli-contract", "exit codes 0/1/2, schema header, bit-exact round trip")
