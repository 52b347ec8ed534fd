"""Byte-level pins of every CLI subcommand's output.

Each case runs one subcommand in process at a small size and compares the
sha256 of what it wrote (the output file, or stdout when it writes none)
with a digest recorded before the trajectory core moved to (n, 2, 2)
arrays.  A refactor that changes any output byte -- a signed zero, the
last bit of a product, a JSON float -- fails here.

The digests were recorded with Python 3.11.7 and numpy 2.4.6 on x86-64
Linux with glibc.  They pin libm's sin/cos/hypot results (the measures
square by multiplication, not pow), so a different libm or numpy build may
legitimately produce other bytes.
"""
import contextlib
import hashlib
import io
import json

import numpy as np
import pytest

from qdrive.cli import main

PULSE_SWITCHES = ["--e0", 0.8, "--f0", 4.5, "--n", 2]
RABI_DETUNED = ["--e-g", -0.1, "--e-e", 1.2, "--omega0", -0.9, "--coupling", "0.3-0.4j"]


def _drive_file(path):
    """33 samples of a slowly varying Hermitian drive with complex off-diagonals."""
    ts = np.linspace(0.0, 3.0, 33)
    records = []
    for t in ts:
        c = 0.4 * np.exp(-1j * 0.3 * t)
        records.append({"t": float(t), "h00_re": 0.2, "h00_im": 0.0,
                        "h01_re": c.real, "h01_im": -c.imag,
                        "h10_re": c.real, "h10_im": c.imag,
                        "h11_re": 1.1 - 0.1 * t, "h11_im": 0.0})
    path.write_text(json.dumps({"samples": records}))
    return path


# case id -> (argv with {out}/{src}/{drive} placeholders, expected rc,
#             whether the digest covers the output file or stdout)
CASES = {
    "rabi_default_csv": (["rabi", "--steps", 64, "--output", "{out}"], 0, "file"),
    "rabi_detuned_csv": (["rabi", *RABI_DETUNED, "--t-start", -1.5, "--t-end", 7.0,
                          "--steps", 64, "--output", "{out}"], 0, "file"),
    # 4101 rows: the only case whose series crosses a 4096-row write block
    "rabi_json_4100": (["rabi", "--steps", 4100, "--format", "json", "--output", "{out}"],
                       0, "file"),
    "pulse_default_csv": (["pulse", "--steps", 64, "--output", "{out}"], 0, "file"),
    "pulse_json": (["pulse", *PULSE_SWITCHES, "--t-start", -7.5, "--t-end", 9.0,
                    "--steps", 96, "--format", "json", "--output", "{out}"], 0, "file"),
    "coherence_csv_stdout": (["coherence", "--input", "{src}"], 0, "stdout"),
    "coherence_json": (["coherence", "--input", "{src}", "--format", "json",
                        "--output", "{out}"], 0, "file"),
    "coherence_json_stdout": (["coherence", "--input", "{src}", "--format", "json"],
                              0, "stdout"),
    "verify_rabi_stdout": (["verify", "--scenario", "rabi", *RABI_DETUNED,
                            "--steps", 32], 1, "stdout"),
    "verify_pulse_stdout": (["verify", "--scenario", "pulse", *PULSE_SWITCHES,
                             "--steps", 2048], 0, "stdout"),
    "integrate_csv": (["integrate", "--drive", "{drive}", "--steps", 256,
                       "--output", "{out}"], 0, "file"),
    "sweep_f0_csv": (["sweep", "--param", "f0", "--values", "0.1,0.5,1,2,4.5",
                      "--steps", 256, "--output", "{out}"], 0, "file"),
    "sweep_coupling_stdout": (["sweep", "--param", "coupling-magnitude",
                               "--coupling", "0.3+0.4j", "--omega0", 0.7,
                               "--values", "0,0.3,0.9", "--steps", 128], 0, "stdout"),
    "sweep_omega0_csv": (["sweep", "--param", "omega0", "--values=-0.5,1,1.7",
                          "--steps", 128, "--output", "{out}"], 0, "file"),
}

EXPECTED = {
    "coherence_csv_stdout": "57c82e38e72acbfb17c15613ea24df977d9346ce50dfdfb92a2351debcba2730",
    "coherence_json": "80de0965b7669ec40fa0dac531dcd259c76a0955f25cbbe0aad21e86e41be5fe",
    # the same bytes as coherence_json, written to stdout
    "coherence_json_stdout": "80de0965b7669ec40fa0dac531dcd259c76a0955f25cbbe0aad21e86e41be5fe",
    # integrate_csv and the two verify cases run RK4; recorded with the maps
    # applied in 64-step chunks and the RWA drive as one co-rotating map.
    # Against the one-dot-per-step loop before it, the largest |delta rho| was
    # 1.0e-15 (integrate_csv), 1.1e-14 (pulse, 2048 steps) and 4.4e-16 (rabi,
    # 32 steps); verify_pulse_stdout's trace drift went 7.327472e-15 ->
    # 2.153833e-14 and its entrywise error 1.159175e-09 -> 1.159174e-09, and
    # verify_rabi_stdout's trace drift 1.887379e-15 -> 1.554312e-15.
    # Re-pinned when the measures went from np.float_power squares to
    # products: purity in 1 of 257 rows, largest |delta| 1.1e-16; no rho moved
    "integrate_csv": "896a28dbd5dd97d7f19d825f669d071538434d1939abed87084e84cf8948fe19",
    "pulse_default_csv": "050c866ff7dd2797697daac78cff9ab3120dcee267040d223f893181a7e96a57",
    "pulse_json": "eaf6fef4367b6fb56368b0f8fe3b710d6e2c0e2f8e4c779436e0393431235fd9",
    "rabi_default_csv": "488f0c9147ca810f401a14bb1a2de726af400ef711b92c6528dfcab91aaf43da",
    "rabi_detuned_csv": "45f3b44feb900928b0f67926c37820da2d62ee950997478d6e7e3fcbe6aa96ee",
    # squares as products: purity and c_frobenius each in 1 of 4101 rows,
    # largest |delta| 1.1e-16; no rho moved
    "rabi_json_4100": "93b6cc3e62441bcc4785dc3ccf20dd81ab068c50bdaad9d6ec5abbfe4f691fb7",
    "sweep_coupling_stdout": "110e0caf4f27e8b410e3cdf114889b7f1623c3a94f26c7afccb1e298afabb4d8",
    "sweep_f0_csv": "01888c9d6eef97f81dd79947d135e390180cfc7fccc50f396d5e0af8394568c3",
    # squares as products: min_purity in 1 of 3 rows, largest |delta| 1.1e-16
    "sweep_omega0_csv": "424ab22a728263cbb23f816bf76c81858b73abc4e6121d4076eb18c3c683872a",
    "verify_pulse_stdout": "3b8e6ca4e974d50cc64159d3f90a48aec7c32afed4ade14b74a636df14179257",
    "verify_rabi_stdout": "870fb35d12a97d3c277a698af3832ab8ade3e19bfc8a026358ce7389649232a8",
}


def run_case(case, tmp_path):
    """Run one case; return (exit code, sha256 hex of its output bytes)."""
    argv, _, source = CASES[case]
    src = tmp_path / "src.csv"
    # coherence cases read a detuned rabi trajectory with complex coherences
    assert main(["rabi", *map(str, RABI_DETUNED), "--steps", "64", "--output", str(src)]) == 0
    subs = {"{out}": str(tmp_path / "out"), "{src}": str(src),
            "{drive}": str(_drive_file(tmp_path / "drive.json"))}
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        rc = main([subs.get(str(a), str(a)) for a in argv])
    data = (tmp_path / "out").read_bytes() if source == "file" else stdout.getvalue().encode()
    return rc, hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_pinned(case, tmp_path):
    rc, digest = run_case(case, tmp_path)
    assert rc == CASES[case][1]
    assert digest == EXPECTED[case]
