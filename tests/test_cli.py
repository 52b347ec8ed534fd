"""CLI contract: subcommands, config handling, CSV/JSON schema, exit codes."""
import csv
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qdrive.cli import _write_sweep_csv, build_parser, main
from qdrive.config import MAX_STEPS, scenario_config_from_dict
from qdrive.io import CSV_HEADER, read_series_csv
from qdrive.runner import SweepRow
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

    @pytest.mark.parametrize("fmt, text", [("csv", CSV_HEADER + "\n"), ("json", "[]\n")])
    def test_coherence_of_header_only_csv(self, tmp_path, capsys, fmt, text):
        src = tmp_path / "empty.csv"
        src.write_text(CSV_HEADER + "\n")
        assert run(["coherence", "--input", src, "--format", fmt]) == 0
        assert capsys.readouterr().out == text


class TestSweep:
    def test_f0_sweep_values(self, capsys):
        assert run(["sweep", "--param", "f0", "--values", "0.1,0.5,1,2,4.5",
                    "--steps", 2048]) == 0
        lines = [ln.split() for ln in capsys.readouterr().out.strip().split("\n")[1:]]
        maxima = [float(row[1]) for row in lines]
        expected = [0.2 / 1.01, 0.8, 1.0, 1.0, 1.0]
        assert maxima == pytest.approx(expected, abs=1e-6)

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

    @pytest.mark.parametrize("flag, value", [("--e-g", "-1e308"), ("--t-start", "-1e-3")])
    def test_negative_scientific_flag_values(self, flag, value, capsys):
        results = []
        for argv in (["rabi", flag, value], ["rabi", f"{flag}={value}"]):
            results.append((run([*argv, "--steps", 8]), capsys.readouterr()))
        assert results[0] == results[1]
        assert results[0][0] == (2 if flag == "--e-g" else 0)

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


class TestProcess:
    def test_parser_is_built_once_and_reused(self, tmp_path):
        assert build_parser() is build_parser()
        # successive commands on the one parser keep their pinned output bytes
        for case in ("sweep_omega0_csv", "pulse_json", "coherence_json",
                     "sweep_coupling_stdout", "rabi_detuned_csv"):
            work = tmp_path / case
            work.mkdir()
            assert run_case(case, work)[1] == EXPECTED[case]

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
