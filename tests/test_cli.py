"""CLI contract: subcommands, config handling, CSV/JSON schema, exit codes."""
import contextlib
import csv
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qdrive import ConfigInvalid, PulseParams, RabiParams, pulse_rho, rabi_rho
from qdrive.cli import _write_sweep_csv, build_parser, main
from qdrive.coherence import ZOOM
from qdrive.config import MAX_STEPS, MODES, scenario_config_from_dict, sweep_config_from_dict
from qdrive.io import CSV_HEADER, read_series_csv
from qdrive.runner import SWEEP_PARAMS, SweepRow
from test_output_digests import EXPECTED, run_case


ZERO_SAMPLE = {k: 0.0 for k in ("t", "h00_re", "h00_im", "h01_re", "h01_im",
                                 "h10_re", "h10_im", "h11_re", "h11_im")}


def run(argv):
    return main([str(a) for a in argv])


def csv_rows(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


class TestCsvContract:
    def test_header_and_newlines(self, tmp_path):
        out = tmp_path / "series.csv"
        assert run(["rabi", "--steps", 8, "--output", out]) == 0
        raw = out.read_bytes()
        assert raw.startswith(CSV_HEADER.encode("ascii") + b"\n")
        assert b"\r" not in raw
        assert raw.endswith(b"\n")
        assert len(raw.split(b"\n")) == 1 + 9 + 1  # header + rows + trailing LF

    def test_roundtrip_bit_equal(self, tmp_path):
        out = tmp_path / "series.csv"
        assert run(["pulse", "--f0", 4.5, "--steps", 100, "--output", out]) == 0
        first = read_series_csv(out)
        again = tmp_path / "again.csv"
        from qdrive.io import write_series_csv
        write_series_csv(first, again)
        assert out.read_bytes() == again.read_bytes()
        second = read_series_csv(again)
        assert np.array_equal(first.t, second.t)
        assert np.array_equal(first.rho, second.rho)
        assert np.array_equal(first.purity, second.purity)
        assert np.array_equal(first.c_l1, second.c_l1)
        assert np.array_equal(first.c_frob, second.c_frob)

    def test_json_output(self, tmp_path):
        out = tmp_path / "series.json"
        assert run(["rabi", "--steps", 4, "--output", out, "--format", "json"]) == 0
        docs = json.loads(out.read_text())
        assert len(docs) == 5
        assert set(docs[0]) == set(CSV_HEADER.split(","))
        assert docs[0]["rho00_re"] == 1.0


class TestVerify:
    def test_rabi_verify_passes(self, capsys):
        assert run(["verify", "--scenario", "rabi", "--steps", 5000]) == 0
        text = capsys.readouterr().out
        assert "verdict: PASS" in text
        reported = float(text.split("max entrywise error:")[1].split()[0])
        assert reported <= 1e-6

    def test_pulse_verify_passes(self):
        assert run(["verify", "--scenario", "pulse", "--f0", 4.5, "--steps", 4096]) == 0

    def test_coarse_grid_fails_with_exit_1(self, capsys):
        assert run(["verify", "--scenario", "rabi", "--steps", 10]) == 1
        assert "verdict: FAIL" in capsys.readouterr().out

    @pytest.mark.parametrize("argv", [
        ["--scenario", "rabi", "--e-g", 0.2, "--e-e", 1.3, "--omega0", 0.8,
         "--coupling", "0.7-0.2j", "--t-start", 1000, "--t-end", 1003.9],
        ["--scenario", "pulse", "--e0", 1.4, "--f0", 2.2, "--n", 4, "--t-start", 0.5,
         "--t-end", 8],
    ], ids=["rabi", "pulse"])
    def test_late_start_follows_the_closed_form(self, argv, capsys):
        # the closed forms start in |0> at t = 0: RK4 starts from their state
        # at t_start, not from |0> there (entrywise error 0.93 and 0.90 then)
        assert run(["verify", *argv, "--steps", 16384]) == 0
        text = capsys.readouterr().out
        assert float(text.split("max entrywise error:")[1].split()[0]) <= 1e-10

    @pytest.mark.parametrize("scenario, flags, rho_at", [
        ("rabi", ["--e-g", 0.2, "--e-e", 1.3, "--omega0", 0.8, "--coupling", "0.7-0.2j"],
         lambda t: rabi_rho(RabiParams(e_g=0.2, e_e=1.3, omega0=0.8, coupling=0.7 - 0.2j), t)),
        ("pulse", ["--e0", 1.4, "--f0", 2.2, "--n", 4],
         lambda t: pulse_rho(PulseParams(e0=1.4, f0=2.2, n_period=4), t)),
    ], ids=["rabi", "pulse"])
    def test_numeric_mode_starts_from_the_closed_form(self, scenario, flags, rho_at, tmp_path):
        out = tmp_path / "numeric.csv"
        assert run([scenario, *flags, "--mode", "numeric", "--t-start", 2.5, "--t-end", 4,
                    "--steps", 64, "--output", out]) == 0
        assert np.array_equal(read_series_csv(out).rho[0], rho_at(2.5) + 0.0)

    def test_verify_needs_scenario(self):
        assert run(["verify", "--steps", 100]) == 2

    def test_cross_scenario_flag_rejected(self):
        assert run(["verify", "--scenario", "rabi", "--f0", 2.0]) == 2


class TestConfig:
    def test_config_file_overrides_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        out = tmp_path / "out.csv"
        cfg.write_text(json.dumps({
            "scenario": "pulse",
            "params": {"f0": 4.5},
            "grid": {"steps": 256},
            "output": {"path": str(out)},
        }))
        assert run(["pulse", "--f0", 0.1, "--steps", 64, "--config", cfg]) == 0
        series = read_series_csv(out)
        assert len(series) == 257          # config steps, not the flag's 64
        assert series.c_l1.max() > 0.9     # f0 = 4.5 physics, not 0.1

    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "rabi", "params": {"couplng": 0.3}}))
        assert run(["rabi", "--config", cfg]) == 2

    def test_bad_coupling_literal(self):
        assert run(["rabi", "--coupling", "one-half"]) == 2

    def test_degenerate_rabi_params_are_config_error(self):
        assert run(["rabi", "--coupling", "0", "--e-g", 0, "--e-e", 1,
                    "--omega0", 1]) == 2

    # numeric square-pulse grids need not put nodes on the switching times:
    # a switch inside a step is sub-stepped

    def test_pulse_numeric_steps_divisibility(self):
        assert run(["pulse", "--mode", "numeric", "--steps", 333]) == 0
        assert run(["pulse", "--mode", "numeric", "--steps", 334]) == 0

    def test_steps_divisibility_scales_with_n(self, capsys):
        assert run(["pulse", "--n", 3, "--mode", "numeric", "--steps", 100]) == 0
        assert run(["pulse", "--n", 3, "--mode", "numeric", "--steps", 102]) == 0
        # 100 steps over three periods are too coarse for the 1e-6 verdict
        # (error 1e-3, as on the aligned 102); 1001 steps pass
        capsys.readouterr()
        assert run(["verify", "--scenario", "pulse", "--n", 3, "--steps", 100]) == 1
        assert run(["verify", "--scenario", "pulse", "--n", 3, "--steps", 1001]) == 0
        verdicts = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("verdict")]
        assert verdicts == ["verdict: FAIL", "verdict: PASS"]

    def test_steps_divisibility_applies_to_verify(self, capsys):
        assert run(["verify", "--scenario", "pulse", "--steps", 333]) == 0
        assert "verdict: PASS" in capsys.readouterr().out

    def test_inline_samples_and_rho0(self, tmp_path):
        # sampled scenario fully described by a config file: zero drive
        # started in the excited state stays there
        zeros = {k: 0.0 for k in ("h00_re", "h00_im", "h01_re", "h01_im",
                                  "h10_re", "h10_im", "h11_re", "h11_im")}
        out = tmp_path / "excited.csv"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "sampled",
            "params": {
                "samples": [dict(t=0.0, **zeros), dict(t=1.0, **zeros)],
                "rho0": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
            },
            "mode": "numeric",
            "grid": {"steps": 16},
            "output": {"path": str(out)},
        }))
        assert run(["integrate", "--config", cfg]) == 0
        series = read_series_csv(out)
        assert np.abs(series.rho - np.diag([0.0, 1.0])).max() == 0.0

    def test_sampled_rejects_analytic_mode(self, tmp_path):
        zeros = {k: 0.0 for k in ("h00_re", "h00_im", "h01_re", "h01_im",
                                  "h10_re", "h10_im", "h11_re", "h11_im")}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": "sampled",
            "params": {"samples": [dict(t=0.0, **zeros), dict(t=1.0, **zeros)]},
            "mode": "analytic",
        }))
        assert run(["integrate", "--config", cfg]) == 2

    def test_env_var_sets_default_steps(self, tmp_path, monkeypatch):
        out = tmp_path / "env.csv"
        monkeypatch.setenv("QDRIVE_STEPS_DEFAULT", "12")
        assert run(["rabi", "--output", out]) == 0
        assert len(read_series_csv(out)) == 13

    def test_flag_beats_env(self, tmp_path, monkeypatch):
        out = tmp_path / "env.csv"
        monkeypatch.setenv("QDRIVE_STEPS_DEFAULT", "12")
        assert run(["rabi", "--steps", 6, "--output", out]) == 0
        assert len(read_series_csv(out)) == 7

    def test_bad_env_value(self, monkeypatch):
        monkeypatch.setenv("QDRIVE_STEPS_DEFAULT", "zero")
        assert run(["rabi"]) == 2
        monkeypatch.setenv("QDRIVE_STEPS_DEFAULT", "-3")
        assert run(["rabi"]) == 2

    SWEEP = ["sweep", "--param", "f0", "--values", "1"]

    @pytest.mark.parametrize("env", ["abc", "-3", "0", str(10**12)])
    @pytest.mark.parametrize("argv", [["rabi"], SWEEP], ids=["rabi", "sweep"])
    def test_explicit_steps_never_read_the_env(self, argv, env, tmp_path, monkeypatch):
        monkeypatch.setenv("QDRIVE_STEPS_DEFAULT", env)
        assert run([*argv, "--steps", 8]) == 0
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"steps": 8}}))
        assert run([*argv, "--config", cfg]) == 0
        assert run(argv) == 2

    @pytest.mark.parametrize("env, steps, message", [
        ("zero", None, "QDRIVE_STEPS_DEFAULT must be a positive integer, got 'zero'"),
        ("-3", None, "QDRIVE_STEPS_DEFAULT must be a positive integer, got '-3'"),
        (str(MAX_STEPS + 1), None,
         f"QDRIVE_STEPS_DEFAULT must be at most {MAX_STEPS}, got '{MAX_STEPS + 1}'"),
        ("abc", 0, "grid: steps must be a positive integer, got 0"),
        ("abc", MAX_STEPS + 1, f"grid.steps must be at most {MAX_STEPS}, got {MAX_STEPS + 1}"),
    ], ids=["env-word", "env-negative", "env-huge", "flag-zero", "flag-huge"])
    @pytest.mark.parametrize("argv", [["rabi"], SWEEP], ids=["rabi", "sweep"])
    def test_one_steps_check_for_every_source(self, argv, env, steps, message, monkeypatch,
                                              capsys, no_compute):
        monkeypatch.setenv("QDRIVE_STEPS_DEFAULT", env)
        assert run(argv if steps is None else [*argv, "--steps", steps]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("argv, doc, message", [
        (["verify", "--scenario", "rabi"], {"mode": "analytic"},
         "qdrive verify runs mode 'verify', not 'analytic'"),
        (["verify", "--scenario", "rabi"], {"scenario": "pulse"},
         "qdrive verify runs scenario 'rabi', not 'pulse'"),
        (["rabi"], {"scenario": "pulse"}, "qdrive rabi runs scenario 'rabi', not 'pulse'"),
        (["rabi"], {"mode": "verify"},
         "qdrive rabi runs mode 'analytic' or 'numeric', not 'verify'"),
        (["pulse", "--mode", "numeric"], {"mode": None},
         "qdrive pulse runs mode 'analytic' or 'numeric', not None"),
        (["integrate"], {"scenario": "rabi", "mode": "analytic"},
         "qdrive integrate runs scenario 'sampled', not 'rabi'"),
        (["integrate"], {"mode": "analytic"}, "qdrive integrate runs mode 'numeric', not 'analytic'"),
        (["verify"], {"scenario": "pulse"}, "verify needs --scenario"),
    ], ids=["verify-mode", "verify-scenario", "rabi-scenario", "rabi-mode", "pulse-null-mode",
            "integrate-rabi", "integrate-mode", "verify-no-scenario"])
    def test_config_cannot_change_what_the_subcommand_runs(self, argv, doc, message, tmp_path,
                                                           capsys, no_compute):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run([*argv, "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    @pytest.mark.parametrize("argv, doc, summary", [
        (["verify", "--scenario", "rabi", "--steps", 64], {"scenario": "rabi", "mode": "verify"},
         None),
        (["rabi", "--steps", 8], {"scenario": "rabi", "mode": "numeric"}, "rabi [numeric]"),
        (["pulse", "--mode", "numeric", "--steps", 8], {"mode": "analytic"}, "pulse [analytic]"),
    ], ids=["verify", "rabi-numeric", "pulse-analytic"])
    def test_config_may_repeat_what_the_subcommand_runs(self, argv, doc, summary, tmp_path,
                                                        capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        rc = run([*argv, "--config", cfg])
        out = capsys.readouterr().out
        if summary is None:  # the same verdict as without the file
            assert (rc, out) == (run(argv), capsys.readouterr().out)
            assert "verdict: " in out
        else:
            assert rc == 0 and out.startswith(f"{summary}: 9 samples")

    def test_verify_is_no_mode_of_rabi_or_pulse(self, capsys):
        for command in ("rabi", "pulse"):
            with pytest.raises(SystemExit) as exc:
                run([command, "--mode", "verify"])
            assert exc.value.code == 2
            assert "argument --mode: invalid choice: 'verify'" in capsys.readouterr().err

    @pytest.fixture
    def no_compute(self, monkeypatch):
        """Fail the test if anything past config validation runs."""
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran past config validation")
        monkeypatch.setattr("qdrive.cli.run_scenario", must_not_run)
        monkeypatch.setattr("qdrive.cli.run_sweep", must_not_run)
        monkeypatch.setattr("qdrive.core.TimeGrid.times", must_not_run)

    @pytest.mark.parametrize("argv", [
        ["rabi", "--steps", 10**12],
        ["pulse", "--mode", "numeric", "--steps", MAX_STEPS + 2],
        ["sweep", "--param", "f0", "--values", "1", "--steps", 10**12],
    ])
    def test_oversized_steps_flag_rejected(self, argv, no_compute):
        assert run(argv) == 2

    @pytest.mark.parametrize("argv, message", [
        (["rabi", "--omega0", 1e308], "overflow the Rabi frequency"),
        (["rabi", "--coupling", "1e200"], "overflow the Rabi frequency"),
        (["pulse", "--f0", 1e200], r"period T = 0\.0 must be positive and finite"),
        (["pulse", "--e0", 1e-320], r"period T = inf"),
        (["rabi", "--t-start", -1e308, "--t-end", 1e308], "span between them must be finite"),
        (["rabi", "--e-e", 0, "--omega0", 0, "--coupling", "1.5e-155j"],
         r"too small: 1/\(4 Omega\^2\) overflows"),
    ], ids=["omega0", "coupling", "f0", "e0", "grid-span", "tiny-omega"])
    def test_overflowing_params_are_config_errors(self, argv, message, capsys):
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(("config error: params: ", "config error: grid: "))
        assert re.search(message, err) and err.count("\n") == 1

    NOT_FINITE = "step 1, t = 1e+308: density-matrix entry must be finite"

    @pytest.mark.parametrize("argv, message", [
        (["verify", "--scenario", "rabi"], NOT_FINITE),
        (["rabi", "--mode", "numeric", "--omega0", 2], "omega0 h = inf overflows at step h = 1e+308"),
        (["integrate", "--drive", "{drive}"], NOT_FINITE),
    ], ids=["verify", "corotating-turn", "sampled"])
    def test_overflowing_step_is_a_one_line_run_error(self, argv, message, tmp_path, capsys):
        """A step so long that its RK4 map overflows ends the run with one
        line and exit 1, with no numpy warning and no traceback."""
        drive = tmp_path / "drive.json"
        big = {**ZERO_SAMPLE, "h00_re": 1e308, "h01_re": 1e308, "h10_re": 1e308}
        drive.write_text(json.dumps({"samples": [big, {**big, "t": 1e308}]}))
        argv = [str(drive) if a == "{drive}" else a for a in argv]
        assert run([*argv, "--t-end", 1e308, "--steps", 1, "--output", tmp_path / "x.csv"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"run failed: BadParam: {message}") and err.count("\n") == 1

    @pytest.mark.parametrize("coupling, cause", [
        ("0", "Omega = 0 (zero coupling and zero detuning)"),
        ("1e-200", "Omega = 0.0 is too small: 1/(4 Omega^2) overflows"),  # |g|**2 underflows
    ], ids=["zero", "underflow"])
    def test_zero_omega_names_its_cause(self, coupling, cause, capsys):
        resonant = ["--e-g", 0, "--e-e", 1, "--omega0", 1]
        assert run(["rabi", *resonant, "--coupling", coupling]) == 2
        assert capsys.readouterr().err == f"config error: params: degenerate drive: {cause}\n"
        assert run(["sweep", "--param", "coupling-magnitude", "--values", coupling, *resonant,
                    "--steps", 8]) == 0
        assert capsys.readouterr().out.split("\n")[1].endswith(f"  DegenerateDrive: {cause}")

    HUGE = 10**400  # a JSON int that no double holds: 1329 bits

    @pytest.mark.parametrize("command, doc, message", [
        ("rabi", {"scenario": "rabi", "params": {"e_g": HUGE}},
         "params.e_g must fit a double, got an integer of 1329 bits"),
        ("rabi", {"scenario": "rabi", "params": {"coupling": -HUGE}},
         "params.coupling must fit a double, got an integer of 1329 bits"),
        ("rabi", {"scenario": "rabi", "params": {"coupling": [0.5, HUGE]}},
         "params.coupling must fit a double, got an integer of 1329 bits"),
        ("rabi", {"scenario": "rabi", "grid": {"t_end": HUGE}},
         "grid.t_end must fit a double, got an integer of 1329 bits"),
        ("integrate", {"scenario": "sampled", "params": {"samples": [ZERO_SAMPLE, dict(
            ZERO_SAMPLE, t=1.0, h01_re=HUGE)]}},
         "samples[1].h01_re must fit a double, got an integer of 1329 bits"),
        ("integrate", {"scenario": "sampled", "params": {
            "samples": [ZERO_SAMPLE, dict(ZERO_SAMPLE, t=1.0)],
            "rho0": [[1.0, 0.0], [0.0, 0.0], [0.0, "x"], [0.0, 0.0]]}},
         "params.rho0[2][1] must be a number, got 'x'"),
        ("integrate", {"scenario": "sampled", "params": {
            "samples": [ZERO_SAMPLE, dict(ZERO_SAMPLE, t=1.0)],
            "rho0": [[1.0, 0.0], [0.0, 0.0], [0.0, 0.0], [HUGE, 0.0]]}},
         "params.rho0[3][0] must fit a double, got an integer of 1329 bits"),
    ], ids=["param", "coupling", "coupling-pair", "grid", "inline-sample", "rho0-string",
            "rho0-huge"])
    def test_numbers_that_are_not_doubles(self, command, doc, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run([command, "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    def test_drive_file_number_that_is_not_a_double(self, tmp_path, capsys):
        drive = tmp_path / "drive.json"
        drive.write_text(json.dumps({"samples": [ZERO_SAMPLE, dict(ZERO_SAMPLE, t=self.HUGE)]}))
        assert run(["integrate", "--drive", drive]) == 2
        assert capsys.readouterr().err == ("config error: samples[1].t must fit a double, "
                                           "got an integer of 1329 bits\n")

    @pytest.mark.parametrize("data", [b'{"scenario": "rabi", "params": {"e_g": 1' + b"0" * 5000
                                      + b"}}", b'{"scenario": "\xff"}'],
                             ids=["5001-digit-int", "bad-utf8"])
    def test_unreadable_config_file(self, data, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(data)
        assert run(["rabi", "--config", cfg]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config file {cfg}: ")
        assert err.count("\n") == 1

    def test_colliding_grid_nodes_rejected_before_compute(self, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("ran past config validation")
        monkeypatch.setattr("qdrive.cli.run_scenario", must_not_run)
        argv = ["rabi", "--t-start", 1e20, "--t-end", 1.0000000000001e20, "--steps", 4096]
        assert run(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: grid: nodes 0 and 1 coincide at t = 1e+20")
        assert err.count("\n") == 1

    def test_oversized_steps_env_rejected(self, monkeypatch, no_compute):
        monkeypatch.setenv("QDRIVE_STEPS_DEFAULT", str(10**12))
        assert run(["rabi"]) == 2

    def test_oversized_steps_config_file_rejected(self, tmp_path, no_compute):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "rabi", "grid": {"steps": MAX_STEPS + 1}}))
        assert run(["rabi", "--config", cfg]) == 2

    def test_steps_ceiling_is_inclusive(self):
        cfg = scenario_config_from_dict({"scenario": "rabi", "grid": {"steps": MAX_STEPS}})
        assert cfg.grid.steps == MAX_STEPS


# JSON values as json.loads builds them, non-finite floats and ints past a
# double included; ints stay small or exceed MAX_STEPS, so no grid is large
numbers = st.one_of(st.floats(), st.integers(-5000, 5000),
                    st.sampled_from([MAX_STEPS + 1, 2**64, 2**1100, -2**1100]))
json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), numbers, st.text(max_size=6)),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=6), inner,
                                                                max_size=4),
    max_leaves=10)


@st.composite
def rho0_entries(draw):
    """[[re, im]] x 4: a state from a Bloch vector of length <= 1, one entry
    pushed by up to 1e-8 so that the state check accepts some and rejects others."""
    x, y, z = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    norm = max(1.0, float(np.hypot(np.hypot(x, y), z)))
    x, y, z = x / norm, y / norm, z / norm
    entries = [[(1 + z) / 2, 0.0], [x / 2, -y / 2], [x / 2, y / 2], [(1 - z) / 2, 0.0]]
    i, j = draw(st.integers(0, 3)), draw(st.integers(0, 1))
    entries[i][j] += draw(st.sampled_from([0.0, 1e-13, -1e-12, 2e-12, 1e-8]))
    return entries


def mostly(draw, good):
    """A draw from ``good``, or now and then any JSON value."""
    return draw(json_values if draw(st.integers(0, 3)) == 3 else good)


def block(draw, keys: dict) -> dict:
    """Most of ``keys``, each mostly drawn from its value strategy."""
    return {k: mostly(draw, v) for k, v in keys.items() if draw(st.integers(0, 3)) < 3}


TWO_SAMPLES = [{**ZERO_SAMPLE, "h01_re": 1.0, "h10_re": 1.0}, {**ZERO_SAMPLE, "t": 1.0}]
PARAMS = {
    "rabi": {"e_g": numbers, "e_e": numbers, "omega0": numbers,
             "coupling": numbers | st.lists(numbers, max_size=3)},
    "pulse": {"e0": numbers, "f0": numbers, "n_period": numbers},
    "sampled": {"samples": st.just(TWO_SAMPLES) | st.lists(
                    st.fixed_dictionaries({k: numbers for k in ZERO_SAMPLE}), max_size=3),
                "rho0": rho0_entries()},
}


@st.composite
def config_documents(draw):
    """Some of the scenario, params, grid, mode and output blocks, each
    mostly well-formed, or any JSON value in place of the document."""
    if draw(st.integers(0, 9)) == 9:
        return draw(json_values)
    scenario = draw(st.sampled_from(list(PARAMS)))
    params = block(draw, PARAMS[scenario])
    if draw(st.integers(0, 7)) == 7:  # never a path that exists: no file is opened
        params["drive_file"] = draw(st.just("no-such-drive-file.json") | st.none())
    doc = {
        "scenario": mostly(draw, st.just(scenario)),
        "params": mostly(draw, st.just(params)),
        "grid": mostly(draw, st.just(
            block(draw, {"t_start": numbers, "t_end": numbers, "steps": numbers}))),
        "mode": mostly(draw, st.sampled_from(MODES)),
        "output": mostly(draw, st.just(
            block(draw, {"path": st.text(max_size=6), "format": st.just("csv")}))),
    }
    return {k: v for k, v in doc.items() if draw(st.integers(0, 3)) < 3}


# the boundary the fuzz pins: a sampled drive's params.rho0 goes through scan_rho
rho0_documents = st.fixed_dictionaries({
    "scenario": st.just("sampled"), "mode": st.just("numeric"),
    "params": st.fixed_dictionaries({"samples": st.just(TWO_SAMPLES),
                                     "rho0": rho0_entries() | json_values})})


@settings(max_examples=200, deadline=None)
@given(config_documents() | rho0_documents)
def test_config_readers_return_or_raise_config_invalid(doc):
    for read in (scenario_config_from_dict, sweep_config_from_dict):
        try:
            read(doc)
        except ConfigInvalid:
            pass


# Argv fuzz: flag values valid or not, missing values, flags of other
# subcommands, and --config files that contradict the subcommand or hold
# unknown keys.  Valid steps stay <= 64 (QDRIVE_STEPS_DEFAULT is always set),
# so no draw computes much; the invalid ones reach every steps check.
STEPS = st.integers(1, 64).map(str) | st.sampled_from(
    ["0", "-1", str(MAX_STEPS + 1), str(10**12), "abc", "nan", "1.5", ""])
FLAG_NUMBERS = st.floats(0.1, 3.0).map(repr) | st.floats().map(repr) | st.integers(-3, 5).map(
    str) | st.sampled_from(["1e-200", "1e308", "-1e308", "1e400", "-nan", "-inf", str(10**12),
                            "abc", "", "0.3+0.4j"])
RABI_FLAGS = ("--e-g", "--e-e", "--omega0", "--coupling")
PULSE_FLAGS = ("--e0", "--f0", "--n")
RUN_FLAGS = ("--t-start", "--t-end", "--steps", "--output", "--format", "--config")
COMMANDS = {  # the flags each subcommand takes, the ones it needs first
    "rabi": ((), RABI_FLAGS + RUN_FLAGS + ("--mode",)),
    "pulse": ((), PULSE_FLAGS + RUN_FLAGS + ("--mode",)),
    "integrate": (("--drive",), RUN_FLAGS),
    "coherence": (("--input",), ("--output", "--format")),
    "verify": (("--scenario",), RABI_FLAGS + PULSE_FLAGS + RUN_FLAGS),
    "sweep": (("--param", "--values"), ("--scenario", *RABI_FLAGS, *PULSE_FLAGS, "--steps",
                                        "--output", "--config")),
}
ALL_FLAGS = sorted({f for needed, rest in COMMANDS.values() for f in needed + rest} | {"--help"})

RAN = {  # the stdout of a run that exits 0
    "rabi": r"rabi \[(analytic|numeric)\]: .*\n",
    "pulse": r"pulse \[(analytic|numeric)\]: .*\n",
    "integrate": r"sampled \[numeric\]: .*\n",
    "verify": r"max entrywise error: (.*\n){3}verdict: PASS\n",
}


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_any_argv_exits_0_1_or_2(data, tmp_path):
    drive, states, cfg = tmp_path / "drive.json", tmp_path / "states.csv", tmp_path / "cfg.json"
    drive.write_text(json.dumps({"samples": [{**ZERO_SAMPLE, "h01_re": 1.0, "h10_re": 1.0},
                                             {**ZERO_SAMPLE, "t": 1.0}]}))
    states.write_text(",".join(CSV_HEADER.split(",")[:9]) + "\n0,1,0,0,0,0,0,0,0\n")
    missing = str(tmp_path / "missing" / "x")
    files = st.sampled_from([str(drive), str(states), str(cfg), missing, str(tmp_path)])
    settings_only = st.fixed_dictionaries({}, optional={  # may repeat or contradict argv
        "scenario": st.sampled_from(["rabi", "pulse", "sampled"]), "mode": st.sampled_from(MODES)})
    cfg.write_text(json.dumps(data.draw(settings_only | st.fixed_dictionaries({}, optional={
        "scenario": st.sampled_from(["rabi", "pulse", "sampled", "bogus"]) | st.none(),
        "mode": st.sampled_from([*MODES, "bogus"]) | st.none(),
        "params": st.sampled_from([{}, {"f0": 2.0}, {"coupling": [0.5, 0.1]}, {"couplng": 1},
                                   {"drive_file": str(drive)}, {"drive_file": missing}]),
        "grid": st.fixed_dictionaries({}, optional={
            "steps": STEPS.map(lambda v: int(v) if v.lstrip("-").isdigit() else v),
            "t_end": st.floats(), "typo": st.just(1)}),
        "output": st.fixed_dictionaries({}, optional={
            "path": st.sampled_from([str(tmp_path / "cfg-out.csv"), missing]),
            "format": st.sampled_from(["csv", "json", "xml"])}),
        "typo": st.just(1),
    }))))
    values = {
        **dict.fromkeys(RABI_FLAGS + PULSE_FLAGS + ("--t-start", "--t-end"), FLAG_NUMBERS),
        "--steps": STEPS, "--mode": st.sampled_from([*MODES, "bogus"]),
        "--format": st.sampled_from(["csv", "json", "xml"]),
        "--output": st.sampled_from([str(tmp_path / "out.csv"), missing, str(tmp_path)]),
        "--config": st.just(str(cfg)) | files, "--drive": files, "--input": files,
        "--scenario": st.sampled_from(["rabi", "pulse", "sampled"]),
        "--param": st.sampled_from([*SWEEP_PARAMS, "bogus"]),
        "--values": st.lists(FLAG_NUMBERS, max_size=3).map(",".join),
    }
    command = data.draw(st.sampled_from([*COMMANDS, "bogus"]))
    needed, rest = COMMANDS.get(command, ((), tuple(ALL_FLAGS)))
    flags = [f for f in needed if data.draw(st.integers(0, 9)) < 9]
    if "--config" in rest and data.draw(st.booleans()):
        flags.append("--config")
    flags += data.draw(st.lists(st.sampled_from(rest) | st.sampled_from(ALL_FLAGS), max_size=4))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag != "--help" and data.draw(st.integers(0, 19)) < 19:  # else its value is missing
            argv.append(data.draw(values[flag]))
    out = io.StringIO()
    env = data.draw(st.integers(1, 64).map(str) | STEPS)  # valid three times in four
    with mock.patch.dict(os.environ, {"QDRIVE_STEPS_DEFAULT": env}), \
            contextlib.redirect_stdout(out):
        try:
            rc = main(argv)
        except SystemExit as exc:  # argparse: --help, or a usage error
            assert exc.code in (0, 2), argv
            return
    assert rc in (0, 1, 2), argv
    # a run that exits 0 ran what its subcommand names
    if rc == 0 and command in RAN:
        assert re.fullmatch(RAN[command], out.getvalue()), (argv, out.getvalue())


class TestScenarios:
    def test_fig1_scale_peak(self, tmp_path):
        # weak drive: c_l1 peaks at 2 f0/(1+f0^2) ~ 0.19802 at T/4
        out = tmp_path / "fig1.csv"
        assert run(["pulse", "--f0", 0.1, "--n", 1, "--steps", 2000,
                    "--output", out]) == 0
        series = read_series_csv(out)
        assert series.c_l1.max() == pytest.approx(0.2 / 1.01, abs=1e-9)
        i = int(np.argmax(series.c_l1))
        assert series.t[i] == pytest.approx(series.t[-1] / 4, rel=1e-9)

    def test_fig2_scale_double_peak(self, tmp_path):
        # strong drive: two near-unity peaks per half-period, dip at T/4
        out = tmp_path / "fig2.csv"
        assert run(["pulse", "--f0", 4.5, "--n", 1, "--steps", 2000,
                    "--output", out]) == 0
        series = read_series_csv(out)
        half = len(series) // 2
        c = series.c_l1[: half + 1]
        interior = (c[1:-1] > c[:-2]) & (c[1:-1] > c[2:])
        peak_values = c[1:-1][interior]
        assert len(peak_values) == 2          # two unity peaks bracketing the dip
        assert list(peak_values) == pytest.approx([1.0, 1.0], abs=1e-5)
        # strict local minimum at T/4, value 2 f0/(1+f0^2)
        q = half // 2
        assert c[q] < c[q - 1] and c[q] < c[q + 1]
        assert c[q] == pytest.approx(9.0 / 21.25, abs=1e-9)

    def test_rabi_analytic_summary(self, capsys):
        assert run(["rabi", "--steps", 16]) == 0
        assert "rabi [analytic]" in capsys.readouterr().out

    def test_integrate_constant_zero_drive(self, tmp_path):
        drive = tmp_path / "drive.json"
        zeros = {k: 0.0 for k in ("h00_re", "h00_im", "h01_re", "h01_im",
                                  "h10_re", "h10_im", "h11_re", "h11_im")}
        drive.write_text(json.dumps({
            "samples": [dict(t=0.0, **zeros), dict(t=2.0, **zeros)]}))
        out = tmp_path / "flat.csv"
        assert run(["integrate", "--drive", drive, "--steps", 32,
                    "--output", out]) == 0
        series = read_series_csv(out)
        assert np.abs(series.rho - np.diag([1.0, 0.0])).max() == 0.0

    def test_integrate_pi_pulse(self, tmp_path):
        # constant sigma_x/2 drive for t = pi inverts the populations
        drive = tmp_path / "drive.json"
        rec = {"h00_re": 0.0, "h00_im": 0.0, "h01_re": 0.5, "h01_im": 0.0,
               "h10_re": 0.5, "h10_im": 0.0, "h11_re": 0.0, "h11_im": 0.0}
        drive.write_text(json.dumps({
            "samples": [dict(t=0.0, **rec), dict(t=float(np.pi), **rec)]}))
        out = tmp_path / "flip.csv"
        assert run(["integrate", "--drive", drive, "--steps", 400,
                    "--output", out]) == 0
        series = read_series_csv(out)
        assert abs(series.rho[-1][1, 1].real - 1.0) <= 1e-9

    def test_coherence_recompute_matches(self, tmp_path):
        src = tmp_path / "src.csv"
        assert run(["pulse", "--f0", 1.0, "--steps", 64, "--output", src]) == 0
        out = tmp_path / "recomputed.csv"
        assert run(["coherence", "--input", src, "--output", out]) == 0
        a, b = read_series_csv(src), read_series_csv(out)
        assert np.array_equal(a.rho, b.rho)
        assert np.array_equal(a.purity, b.purity)
        assert np.array_equal(a.c_l1, b.c_l1)
        assert np.array_equal(a.c_frob, b.c_frob)

    def test_coherence_rejects_invalid_state(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text(CSV_HEADER + "\n" + ",".join(["0"] + ["0.9"] + ["0"] * 7
                                                    + ["1", "0", "1"]) + "\n")
        assert run(["coherence", "--input", bad]) == 2

    def test_coherence_accepts_states_only_csv(self, tmp_path, capsys):
        # nine-column input: t plus the eight state components
        header = ",".join(CSV_HEADER.split(",")[:9])
        src = tmp_path / "states.csv"
        src.write_text(header + "\n0,0.5,0,0.5,0,0.5,0,0.5,0\n")
        assert run(["coherence", "--input", src]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert lines[0] == CSV_HEADER
        row = lines[1].split(",")
        assert float(row[10]) == 1.0   # c_l1 of the maximally coherent state
        assert float(row[11]) == 1.0   # c_frobenius of a pure state

    def test_coherence_of_a_state_at_the_runtime_tolerance(self, tmp_path, capsys):
        # trace 1 + 8e-9 passes the reader's 1e-8 check; its Frobenius radicand
        # 1 - 4 rho00 rho11 is -1.6e-8, which that tolerance admits
        header = ",".join(CSV_HEADER.split(",")[:9])
        src = tmp_path / "states.csv"
        src.write_text(header + "\n0,0.500000004,0,0,0,0,0,0.500000004,0\n")
        assert run(["coherence", "--input", src]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert out.split("\n")[1].split(",")[9:] == ["0.500000008", "0", "0"]

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("times, row", [(["0", "inf"], 3), (["-inf", "0"], 2), (["nan"], 2)])
    def test_coherence_rejects_non_finite_times(self, tmp_path, capsys, fmt, times, row):
        # the times are increasing, and the states valid: only finiteness fails
        header = ",".join(CSV_HEADER.split(",")[:9])
        src = tmp_path / "states.csv"
        src.write_text(header + "\n" + "".join(f"{t},1,0,0,0,0,0,0,0\n" for t in times))
        assert run(["coherence", "--input", src, "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert re.match(rf"config error: row {row} of .*states\.csv: t = -?\w+ is not finite\n$", err)

    @pytest.mark.parametrize("times, previous", [(["0", "2", "1"], "2.0"),
                                                 (["0", "1", "1"], "1.0")],
                             ids=["swapped", "repeated"])
    def test_coherence_rejects_unsorted_times(self, tmp_path, capsys, times, previous):
        header = ",".join(CSV_HEADER.split(",")[:9])
        src = tmp_path / "states.csv"
        src.write_text(header + "\n" + "".join(f"{t},1,0,0,0,0,0,0,0\n" for t in times))
        assert run(["coherence", "--input", src]) == 2
        assert capsys.readouterr() == ("", f"config error: row 4 of {src}: t = 1.0 does not "
                                           f"exceed the previous row's t = {previous}\n")

    @pytest.mark.parametrize("fmt, text", [("csv", CSV_HEADER + "\n"), ("json", "[]\n")],
                             ids=["csv", "json"])
    def test_coherence_of_header_only_csv(self, tmp_path, capsys, fmt, text):
        src = tmp_path / "empty.csv"
        src.write_text(CSV_HEADER + "\n")
        assert run(["coherence", "--input", src, "--format", fmt]) == 0
        assert capsys.readouterr().out == text

    def test_closed_form_names_its_failing_sample(self, monkeypatch, capsys):
        """A closed-form batch that holds a bad state fails naming its sample
        index and time, as propagate names its step."""
        from qdrive import runner

        def one_bad_state(p, t):
            rho = rabi_rho(p, t)
            rho[5, 0, 1] += 1e-3
            return rho

        monkeypatch.setitem(runner.CLOSED_FORMS, "rabi", one_bad_state)
        assert run(["rabi", "--t-end", 8, "--steps", 64]) == 1
        assert capsys.readouterr() == ("", "run failed: NotHermitian: sample 5, t = 0.625: "
                                           "Hermiticity violation 1.000e-03 exceeds 1.0e-12\n")


class TestSweep:
    def test_f0_sweep_values(self, capsys):
        assert run(["sweep", "--param", "f0", "--values", "0.1,0.5,1,2,4.5",
                    "--steps", 2048]) == 0
        lines = [ln.split() for ln in capsys.readouterr().out.strip().split("\n")[1:]]
        maxima = [float(row[1]) for row in lines]
        expected = [0.2 / 1.01, 0.8, 1.0, 1.0, 1.0]
        assert maxima == pytest.approx(expected, abs=1e-6)

    def test_polish_reports_its_first_failing_state(self, monkeypatch):
        """The rabi polish checks each batch of states as it is made: the row
        names the first failing state, by its t, in the order the states were
        made, and the polish stops at the batch that holds it."""
        from qdrive import runner
        real, batches = runner.rabi_rho, []

        def failing_polish(p, t):
            rho = real(p, t)
            if len(t) == ZOOM + 1:  # a polish batch; the grid has 257 nodes
                batches.append(t)
                if len(batches) == 2:
                    rho[20] *= 1.5  # |trace - 1| = 0.5
                    rho[25, 0, 1] += 1e-3  # not Hermitian, later in the batch
                elif len(batches) == 3:
                    rho[3, 0, 1] += 1e-3  # not Hermitian, earlier in a later batch
            return rho

        monkeypatch.setattr(runner, "rabi_rho", failing_polish)
        drive, steps, _ = sweep_config_from_dict({"scenario": "rabi", "grid": {"steps": 256}})
        [row] = runner.run_sweep(drive, steps, "omega0", [0.7])
        assert len(batches) == 2
        assert row.error == (f"TraceNotOne: polish point, t = {float(batches[1][20])!r}: "
                             "|trace - 1| = 5.000e-01 exceeds 1.0e-12")

    def test_period_return_names_its_time(self, monkeypatch):
        from qdrive import pulse, runner

        def bad_state(p, t):  # pulse_density's closed form, not the grid's
            return pulse_rho(p, t) * 1.5  # |trace - 1| = 0.5

        monkeypatch.setattr(pulse, "pulse_rho", bad_state)
        drive, steps, _ = sweep_config_from_dict({"scenario": "pulse", "grid": {"steps": 256}})
        [row] = runner.run_sweep(drive, steps, "f0", [1.0])
        period = runner._swept(drive, "f0", 1.0).period
        assert row.error == (f"TraceNotOne: state, t = {period!r}: "
                             "|trace - 1| = 5.000e-01 exceeds 1.0e-12")

    def test_grid_scan_names_its_failing_sample(self, monkeypatch):
        from qdrive import runner

        def one_bad_state(p, t):
            rho = pulse_rho(p, t)
            if np.ndim(t) and len(t) == 257:  # the grid, not the period return
                rho[3, 0, 1] += 1e-3
            return rho

        monkeypatch.setattr(runner, "pulse_rho", one_bad_state)
        drive, steps, _ = sweep_config_from_dict({"scenario": "pulse", "grid": {"steps": 256}})
        [row] = runner.run_sweep(drive, steps, "f0", [1.0])
        t = float(np.linspace(0.0, runner._swept(drive, "f0", 1.0).period, 257)[3])
        assert row.error == (f"NotHermitian: sample 3, t = {t!r}: "
                             "Hermiticity violation 1.000e-03 exceeds 1.0e-12")

    def test_empty_sweep(self, capsys):
        assert run(["sweep", "--param", "f0", "--values", ""]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 1  # header only

    def test_degenerate_row_continues(self, capsys):
        assert run(["sweep", "--scenario", "rabi", "--param", "coupling-magnitude",
                    "--values", "0,0.5", "--steps", 512]) == 0
        out = capsys.readouterr().out
        lines = out.strip().split("\n")
        assert len(lines) == 3
        assert "DegenerateDrive" in lines[1]
        assert "DegenerateDrive" not in lines[2]

    @pytest.mark.parametrize("flag", [["--format", "json"], ["--t-start", "0"], ["--t-end", "5"]],
                             ids=["format", "t-start", "t-end"])
    def test_series_flags_are_no_sweep_flags(self, flag, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--param", "f0", "--values", "1", *flag])
        assert exc.value.code == 2
        assert f"error: unrecognized arguments: {' '.join(flag)}\n" in capsys.readouterr().err

    def test_help_lists_the_flags_it_reads(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--help"])
        assert exc.value.code == 0
        out = capsys.readouterr().out
        assert all(flag in out for flag in ("--steps", "--output", "--config", "--coupling"))
        assert not re.search("--t-start|--t-end|--format|--mode", out)

    @pytest.mark.parametrize("doc, message", [
        ({"mode": "analytic"}, "unknown key(s) ['mode'] in configuration; "
         "allowed: ['grid', 'output', 'params', 'scenario']"),
        ({"grid": {"t_start": 0.0}}, "unknown key(s) ['t_start'] in grid; allowed: ['steps']"),
        ({"grid": {"t_end": -1.0}}, "unknown key(s) ['t_end'] in grid; allowed: ['steps']"),
        ({"output": {"format": "json"}}, "unknown key(s) ['format'] in output; allowed: ['path']"),
        ({"scenario": "sampled"}, "scenario must be one of ['rabi', 'pulse'], got 'sampled'"),
        ({"grid": {"steps": 0}}, "grid: steps must be a positive integer, got 0"),
    ], ids=["mode", "t_start", "t_end", "format", "sampled", "zero-steps"])
    def test_config_holds_only_what_it_reads(self, doc, message, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["sweep", "--param", "f0", "--values", "1", "--config", cfg]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"

    DEGENERATE = ["--coupling", "0", "--e-g", "0", "--e-e", "1", "--omega0", "1",
                  "--values", "0.5,1", "--steps", 64]

    def test_degenerate_base_drive_runs(self, capsys):
        assert run(["sweep", "--param", "coupling-magnitude", *self.DEGENERATE]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert [len(row.split()) for row in rows] == [5, 5]  # no error cell
        assert run(["sweep", "--param", "omega0", *self.DEGENERATE]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert len(rows) == 2 and len(rows[0].split()) == 5
        assert rows[1].split()[:2] == ["1", "-"] and "DegenerateDrive: " in rows[1]

    @pytest.mark.parametrize("value", ["inf", "nan", "-0.5"])
    def test_coupling_magnitude_must_be_finite_and_non_negative(self, value, capsys):
        assert run(["sweep", "--param", "coupling-magnitude", f"--values={value},1",
                    "--steps", 64]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert rows[0].endswith(
            f"  BadParam: coupling-magnitude must be finite and non-negative, got {value}")
        assert len(rows[1].split()) == 5

    def test_sweep_csv_output(self, tmp_path):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--param", "f0", "--values", "0.5,1",
                    "--steps", 512, "--output", out]) == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == "param,value,max_c_l1,min_purity,max_purity,period_return_error,error"
        assert len(lines) == 3

    def test_param_scenario_mismatch(self):
        assert run(["sweep", "--scenario", "rabi", "--param", "f0",
                    "--values", "1"]) == 2

    def test_values_with_leading_minus(self, tmp_path, capsys):
        # "--values -0.5,1,1.7" must parse like "--values=-0.5,1,1.7"
        outputs = []
        for i, values in enumerate((["--values=-0.5,1,1.7"], ["--values", "-0.5,1,1.7"])):
            out = tmp_path / f"sweep{i}.csv"
            assert run(["sweep", "--param", "omega0", *values, "--steps", 128,
                        "--output", out]) == 0
            outputs.append((capsys.readouterr().out, out.read_bytes()))
        assert outputs[0] == outputs[1]
        assert outputs[0][0].count("\n") == 4  # header and three rows

    def test_overflowing_value_is_a_one_line_row_error(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        assert run(["sweep", "--param", "omega0", "--values", "1e308,1", "--steps", 64,
                    "--output", out]) == 0
        lines = capsys.readouterr().out.strip().split("\n")
        assert len(lines) == 3
        assert "BadParam: Theta = -1e+308" in lines[1]
        assert "overflow the Rabi frequency" in lines[1]
        assert [len(row) for row in csv_rows(out)] == [7, 7, 7]

    def test_error_cell_is_quoted(self, tmp_path):
        out = tmp_path / "sweep.csv"
        error = 'BadParam: got [[nan, 1], "x"], and\na second line'
        _write_sweep_csv(out, "f0", [SweepRow(value=1.0, error=error), SweepRow(value=2.0)])
        rows = csv_rows(out)
        assert [len(row) for row in rows] == [7, 7, 7]
        assert rows[1][-1] == error
        # a row without those characters keeps its plain bytes
        assert out.read_bytes().endswith(b"\nf0,2,,,,,\n")

    @pytest.mark.parametrize("flag, value", [("--e-g", "-1e308"), ("--t-start", "-1e-3"),
                                             ("--e-g", "-inf"), ("--e-g", "-NaN"),
                                             ("--e-g", "-Infinity")])
    def test_negative_scientific_flag_values(self, flag, value, capsys):
        results = []
        for argv in (["rabi", flag, value], ["rabi", f"{flag}={value}"]):
            results.append((run([*argv, "--steps", 8]), capsys.readouterr()))
        assert results[0] == results[1]
        assert results[0][0] == (2 if flag == "--e-g" else 0)

    @pytest.mark.parametrize("values", ["-inf,1", "-nan,1", "-infinity,1", "-INF,1"])
    def test_non_finite_values_with_leading_minus(self, values, capsys):
        # a BadParam row, as "--values=-inf,1" gives, not an argparse usage error
        results = []
        for argv in (["--values", values], [f"--values={values}"]):
            results.append((run(["sweep", "--param", "omega0", *argv, "--steps", 64]),
                            capsys.readouterr()))
        assert results[0] == results[1]
        assert results[0][0] == 0 and "BadParam: omega0 must be finite" in results[0][1].out

    def test_values_flag_still_needs_an_argument(self):
        with pytest.raises(SystemExit) as exc:
            run(["sweep", "--param", "omega0", "--values", "--steps", 128])
        assert exc.value.code == 2


class TestFiles:
    """A file that cannot be read or written is a one-line config error."""

    @pytest.mark.parametrize("data", [None, CSV_HEADER.encode() + b"\n\xff\n",
                                      b"\xff" + CSV_HEADER.encode() + b"\n"],
                             ids=["missing", "non-ascii-row", "non-ascii-header"])
    def test_unreadable_input_csv(self, data, tmp_path, capsys):
        src = tmp_path / "states.csv"
        if data is not None:
            src.write_bytes(data)
        assert run(["coherence", "--input", src]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"config error: cannot read CSV file {src}: ")
        assert err.count("\n") == 1

    def test_input_csv_is_a_directory(self, tmp_path, capsys):
        assert run(["coherence", "--input", tmp_path]) == 2
        assert capsys.readouterr().err.startswith(f"config error: cannot read CSV file {tmp_path}: ")

    @pytest.mark.parametrize("argv", [
        ["rabi", "--steps", 8],
        ["rabi", "--steps", 8, "--format", "json"],
        ["pulse", "--steps", 8],
        ["integrate", "--drive", "DRIVE", "--steps", 8],
        ["coherence", "--input", "STATES"],
        ["coherence", "--input", "STATES", "--format", "json"],
        ["sweep", "--param", "f0", "--values", "1", "--steps", 64],
    ], ids=["rabi", "rabi-json", "pulse", "integrate", "coherence", "coherence-json", "sweep"])
    @pytest.mark.parametrize("target", ["missing-dir", "directory"])
    def test_unwritable_output(self, argv, target, tmp_path, capsys):
        drive = tmp_path / "drive.json"
        drive.write_text(json.dumps({"samples": [ZERO_SAMPLE, dict(ZERO_SAMPLE, t=1.0)]}))
        states = tmp_path / "states.csv"
        states.write_text(",".join(CSV_HEADER.split(",")[:9]) + "\n0,1,0,0,0,0,0,0,0\n")
        out = tmp_path / "missing" / "out.csv" if target == "missing-dir" else tmp_path
        argv = [{"DRIVE": drive, "STATES": states}.get(a, a) for a in argv]
        assert run([*argv, "--output", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output file {out}: ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["rabi", "--steps", 2_000_000],
        ["verify", "--scenario", "pulse", "--steps", 2_000_000],
        ["sweep", "--param", "omega0", "--values", "0.5,1", "--steps", 2_000_000],
        ["coherence", "--input", "/nonexistent/states.csv"],
    ], ids=["rabi", "verify", "sweep", "coherence"])
    def test_unwritable_output_fails_before_compute(self, argv, monkeypatch, capsys):
        def must_not_run(*args, **kwargs):
            raise AssertionError("computed before probing the output path")
        monkeypatch.setattr("qdrive.cli.run_scenario", must_not_run)
        monkeypatch.setattr("qdrive.cli.run_sweep", must_not_run)
        monkeypatch.setattr("qdrive.cli.read_states_csv", must_not_run)
        out = "/nonexistent/x.csv"
        assert run([*argv, "--output", out]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot write output file {out}: ")
        assert err.count("\n") == 1

    def test_failed_run_leaves_outputs_alone(self, tmp_path, capsys):
        """The probe neither empties an existing output nor leaves a new one
        behind when the run then fails (here: a grid past the drive's window)."""
        drive = tmp_path / "drive.json"
        drive.write_text(json.dumps({"samples": [ZERO_SAMPLE, dict(ZERO_SAMPLE, t=1.0)]}))
        old, new = tmp_path / "old.csv", tmp_path / "new.csv"
        old.write_text("earlier results\n")
        for out in (old, new):
            assert run(["integrate", "--drive", drive, "--t-end", 2, "--steps", 8,
                        "--output", out]) == 1
            assert "OutOfRange" in capsys.readouterr().err
        assert old.read_text() == "earlier results\n"
        assert not new.exists()


class TestProcess:
    def test_parser_is_built_once_and_reused(self, tmp_path):
        assert build_parser() is build_parser()
        # successive commands on the one parser keep their pinned output bytes
        for case in ("sweep_omega0_csv", "pulse_json", "coherence_json",
                     "sweep_coupling_stdout", "rabi_detuned_csv"):
            work = tmp_path / case
            work.mkdir()
            assert run_case(case, work)[1] == EXPECTED[case]

    # what `import qdrive.cli` may load beyond numpy: each module a CLI start
    # imports weighs on every run's start-up time
    CLI_IMPORTS = {"argparse", "gettext", "csv", "_csv", "json", "_json", "dataclasses", "copy",
                   "array", "__future__"}

    def test_cli_imports_only_pinned_modules_beyond_numpy(self):
        code = ("import sys, numpy\n"
                "before = set(sys.modules)\n"
                "import qdrive.cli\n"
                "print(' '.join(sorted(set(sys.modules) - before)))\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stdout.split()
        assert "qdrive.cli" in loaded
        assert [m for m in loaded if m not in self.CLI_IMPORTS and m.split(".")[0] not in
                ("json", "qdrive")] == []

    def test_cli_run_never_imports_scipy(self):
        code = ("import sys, qdrive, qdrive.cli\n"
                "rc = qdrive.cli.main(['sweep', '--param', 'f0', '--values', '0.5,2',"
                " '--steps', '64'])\n"
                "assert rc == 0, rc\n"
                "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n")
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
