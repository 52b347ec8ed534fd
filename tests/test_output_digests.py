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
    # Re-pinned when rho became the projector of each drive's amplitudes, with
    # the largest |delta| of each moved case: coherence_* re-read a rabi
    # trajectory whose rho moved by 3.3e-16 and measures by 5.6e-16 (purity)
    "coherence_csv_stdout": "c8cbf868eba12870318935727f57dfd3ece8729e4790c452e5ef6e5be83040b4",
    "coherence_json": "8fb04e668bb02924fa7fe4c7db7cf7875ca15ec616a41052812b4bf4f9888e3c",
    # the same bytes as coherence_json, written to stdout
    "coherence_json_stdout": "8fb04e668bb02924fa7fe4c7db7cf7875ca15ec616a41052812b4bf4f9888e3c",
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
    # projector: rho 2.2e-16, measures 4.4e-16 (purity)
    "pulse_default_csv": "a4bf94c20da6ae0a37dcfe164f440b6726b2294b03ddd58fab4697016a7f21f9",
    # projector: rho 2.2e-16, measures 5.6e-16 (purity)
    "pulse_json": "8bf91bf2fe3288b6f92fc069898cb88758dd6aa2036fd45e70a343a3c434f495",
    # projector: rho 1.2e-16, measures 3.3e-16 (purity, c_frobenius)
    "rabi_default_csv": "21c67fc5028693824b059e5f3d9c3a97172bfcb3c8035a0eb5ab81b7babdaf62",
    # projector: rho 2.5e-16, measures 4.4e-16 (purity)
    "rabi_detuned_csv": "b6313ea74c79d173fecec690797b558dc0b393e514a22adfb9c168194bd6e624",
    # projector: rho 2.2e-16, measures 4.4e-16 (purity, c_frobenius)
    "rabi_json_4100": "141c94dd57366cfab94cdc75602dd41b99db84842da3ceb226b67698dc6565fd",
    "sweep_coupling_stdout": "110e0caf4f27e8b410e3cdf114889b7f1623c3a94f26c7afccb1e298afabb4d8",
    # projector: min_purity and max_purity by at most 6.7e-16; the return
    # error at f0 = 0.1 went 1.1e-16 -> 0: pulse_rho is |0><0| at tau = 0
    "sweep_f0_csv": "a6b5b063faa54de7e8f3fd8660d0648797b905f28963ad35901514e4795e7e88",
    # projector: max_purity in 1 of 3 rows, by 2.2e-16
    "sweep_omega0_csv": "797234fef08eec215289b01133a80d95133d8b50caf1ceecc16f2748a63e1142",
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
