"""The four workloads of the qdrive benchmark.

A workload is a cycle of CLI-equivalent calls (ops) that repeats for the
run.  ``build_cycle`` draws every op's parameters from ``(seed, cycle)``, so
cycle ``i`` of a seed is the same on every run and every commit, and no two
ops share inputs.  Each op carries a check of its output, run outside the
timed region with the tolerances fixed below.

Why each workload exists (the layer it stresses):

* ``trajectory_io``: closed forms, per-sample validation, build_series and
  CSV/JSON I/O, reads beside writes; never enters liouville.
* ``rk4_verify``: liouville.propagate does most of the work; no file I/O.
* ``sweep``: per-sample closed-form scanning plus refine_max; no liouville,
  no bulk I/O.
* ``cli_cold``: every subcommand as a fresh process, so interpreter start,
  imports, argparse and config dominate.
"""
from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

WORKLOADS = ("trajectory_io", "rk4_verify", "sweep", "cli_cold")
SUBCOMMANDS = ("rabi", "pulse", "coherence", "verify", "integrate", "sweep")

# Output-check tolerances, fixed before any measurement.
TOL_CLOSED_FORM = 1e-10  # CSV rho against the RWA closed form evaluated here
TOL_FROBENIUS = 1e-9  # pulse c_frobenius against 1
# integrate on the sampled RWA drive against the closed form; the worst
# error seen over 25 draws at 4097 samples / 16384 steps was 8.5e-5
TOL_INTEGRATE = 1e-3
TOL_PEAK = 1e-8  # sweep max_c_l1 against the analytic peak


@dataclass(frozen=True)
class Sizes:
    traj_steps: int
    rk4_steps: int
    drive_samples: int
    sweep_steps: int
    sweep_values: int


FULL = Sizes(traj_steps=16384, rk4_steps=16384, drive_samples=4097,
             sweep_steps=4096, sweep_values=8)
# Smoke sizes for the benchmark's own tests.  verify needs >= 2048 steps and
# integrate >= 513 samples to pass (see COLD_* below).
SMOKE = Sizes(traj_steps=64, rk4_steps=2048, drive_samples=513,
              sweep_steps=64, sweep_values=2)

# cli_cold runs every subcommand at 64 steps, except two that cannot pass
# there: verify's RK4 error at 64 steps (~1e-5) exceeds its 1e-6 threshold
# (a correct FAIL verdict), and integrate on a smooth sampled drive fails
# with NotPositive at <= 1024 steps (the sampled-drive order loss of
# ROADMAP item 4).  Both run at the smallest size that passed every draw.
COLD_STEPS = 64
COLD_RK4_STEPS = 2048
COLD_DRIVE_SAMPLES = 513
COLD_SWEEP_VALUES = 8


@dataclass
class Result:
    rc: int | None
    stdout: str
    stderr: str
    data: bytes  # the op's output file, or its stdout when it writes none


@dataclass
class Op:
    sub: str
    argv: list[str]
    output: Path | None
    check: Callable[[Result], str | None]  # None when the output is correct


# -- parameter draws ---------------------------------------------------------

@dataclass(frozen=True)
class Rabi:
    e_g: float
    e_e: float
    omega0: float
    coupling: complex

    @property
    def theta(self) -> float:
        return self.e_e - self.e_g - self.omega0

    @property
    def omega(self) -> float:
        return math.sqrt(self.theta ** 2 / 4.0 + abs(self.coupling) ** 2)

    @property
    def period(self) -> float:
        return math.pi / self.omega

    def flags(self) -> list[str]:
        return [f"--e-g={self.e_g!r}", f"--e-e={self.e_e!r}",
                f"--omega0={self.omega0!r}", f"--coupling={self.coupling!r}"]


@dataclass(frozen=True)
class Pulse:
    e0: float
    f0: float
    n: int

    def flags(self, with_f0: bool = True) -> list[str]:
        f0 = [f"--f0={self.f0!r}"] if with_f0 else []
        return [f"--e0={self.e0!r}", *f0, f"--n={self.n}"]


def draw_rabi(rng: np.random.Generator) -> Rabi:
    e_g = float(rng.uniform(-0.5, 0.5))
    return Rabi(e_g=e_g, e_e=e_g + float(rng.uniform(0.5, 1.5)),
                omega0=float(rng.uniform(0.5, 1.5)),
                coupling=float(rng.uniform(0.3, 1.0))
                * cmath.exp(1j * float(rng.uniform(0.0, 2.0 * math.pi))))


def draw_pulse(rng: np.random.Generator) -> Pulse:
    # n_period in {1, 2, 4} keeps every step count here divisible by 2n
    return Pulse(e0=float(rng.uniform(0.5, 2.0)), f0=float(rng.uniform(0.1, 3.0)),
                 n=int(rng.choice([1, 2, 4])))


def draw_values(rng: np.random.Generator, lo: float, hi: float, k: int) -> list[float]:
    return [float(v) for v in rng.uniform(lo, hi, k)]


# -- reference closed forms (numpy, independent of qdrive) -------------------

def rwa_rho(p: Rabi, t: np.ndarray) -> np.ndarray:
    """(n, 2, 2) RWA density matrix for the system started in the ground state."""
    om, th, g = p.omega, p.theta, p.coupling
    s, c = np.sin(om * t), np.cos(om * t)
    rho = np.empty((len(t), 2, 2), dtype=complex)
    rho[:, 0, 0] = c * c + th * th / (4 * om * om) * s * s
    rho[:, 1, 1] = abs(g) ** 2 / (om * om) * s * s
    rge = (np.conj(g) * np.exp(1j * p.omega0 * t) / (4 * om * om)
           * (th * np.cos(2 * om * t) - th + 2j * om * np.sin(2 * om * t)))
    rho[:, 0, 1] = rge
    rho[:, 1, 0] = np.conj(rge)
    return rho


def rwa_hamiltonian(p: Rabi, t: np.ndarray) -> np.ndarray:
    off = p.coupling * np.exp(-1j * p.omega0 * t)
    h = np.empty((len(t), 2, 2), dtype=complex)
    h[:, 0, 0] = p.e_g
    h[:, 1, 1] = p.e_e
    h[:, 1, 0] = off
    h[:, 0, 1] = np.conj(off)
    return h


def pulse_peak(f0: float) -> float:
    return 1.0 if f0 >= 1.0 else 2.0 * f0 / (1.0 + f0 * f0)


def rabi_peak(p: Rabi) -> float:
    pop = abs(p.coupling) ** 2 / p.omega ** 2
    return 1.0 if pop >= 0.5 else 2.0 * math.sqrt(pop * (1.0 - pop))


def write_drive(p: Rabi, samples: int, path: Path) -> None:
    """The RWA drive over one population period as a sampled drive file.

    Sample k holds H at the midpoint of [t_k, t_k+1], so the piecewise-
    constant drive follows the smooth one to second order."""
    ts = np.linspace(0.0, p.period, samples)
    mid = ts.copy()
    mid[:-1] += (ts[1] - ts[0]) / 2.0
    h = rwa_hamiltonian(p, mid)
    records = []
    for t, m in zip(ts, h):
        rec = {"t": float(t)}
        for (i, j) in ((0, 0), (0, 1), (1, 0), (1, 1)):
            rec[f"h{i}{j}_re"] = float(m[i, j].real)
            rec[f"h{i}{j}_im"] = float(m[i, j].imag)
        records.append(rec)
    path.write_text(json.dumps({"samples": records}), encoding="utf-8")


# -- output checks -----------------------------------------------------------

CSV_HEADER = ("t,rho00_re,rho00_im,rho01_re,rho01_im,rho10_re,rho10_im,"
              "rho11_re,rho11_im,purity,c_l1,c_frobenius")
SWEEP_HEADER = "param,value,max_c_l1,min_purity,max_purity,period_return_error,error"


def _csv_rows(data: bytes, header: str, n_rows: int) -> tuple[list[str], str | None]:
    lines = data.decode("ascii").split("\n")
    if lines[0] != header:
        return [], f"header {lines[0][:80]!r}"
    rows = [ln for ln in lines[1:] if ln]
    if len(rows) != n_rows:
        return rows, f"{len(rows)} rows, expected {n_rows}"
    return rows, None


def check_rwa_csv(p: Rabi, steps: int, tol: float) -> Callable[[Result], str | None]:
    """Rows match the RWA closed form at 65 sampled rows; the grid ends at T."""
    def check(res: Result) -> str | None:
        rows, err = _csv_rows(res.data, CSV_HEADER, steps + 1)
        if err:
            return err
        picks = np.unique(np.linspace(0, steps, 65).astype(int))
        vals = np.array([[float(x) for x in rows[i].split(",")] for i in picks])
        rho = (vals[:, 1:9:2] + 1j * vals[:, 2:9:2]).reshape(-1, 2, 2)
        worst = float(np.abs(rho - rwa_rho(p, vals[:, 0])).max())
        if not worst <= tol:
            return f"max |rho - closed form| = {worst:.3e} > {tol:.0e}"
        if abs(vals[-1, 0] - p.period) > 1e-12 * p.period:
            return f"last t {vals[-1, 0]!r} != period {p.period!r}"
        return None
    return check


def check_pulse_json(steps: int) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        records = json.loads(res.data)
        if len(records) != steps + 1:
            return f"{len(records)} records, expected {steps + 1}"
        worst = max(abs(r["c_frobenius"] - 1.0) for r in records)
        if not worst <= TOL_FROBENIUS:
            return f"max |c_frobenius - 1| = {worst:.3e}"
        return None
    return check


def check_coherence(source: Path, steps: int) -> Callable[[Result], str | None]:
    """The t and rho columns are byte-identical to the input CSV's."""
    def check(res: Result) -> str | None:
        rows, err = _csv_rows(res.data, CSV_HEADER, steps + 1)
        if err:
            return err
        src, _ = _csv_rows(source.read_bytes(), CSV_HEADER, steps + 1)
        for i, (a, b) in enumerate(zip(rows, src)):
            if a.rsplit(",", 3)[0] != b.rsplit(",", 3)[0]:
                return f"row {i + 2}: rho columns differ from the input"
        return None
    return check


def check_verify(res: Result) -> str | None:
    return None if "verdict: PASS" in res.stdout else "verdict is not PASS"


def check_sweep(peaks: list[float]) -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        rows, err = _csv_rows(res.data, SWEEP_HEADER, len(peaks))
        if err:
            return err
        for row, peak in zip(rows, peaks):
            cells = row.split(",")
            if cells[-1]:
                return f"row error {cells[-1]!r}"
            got = float(cells[2])
            if not abs(got - peak) <= TOL_PEAK:
                return f"max_c_l1 {got!r} != analytic peak {peak!r}"
        return None
    return check


def check_row_count(n: int, fmt: str = "csv") -> Callable[[Result], str | None]:
    def check(res: Result) -> str | None:
        if fmt == "json":
            got = len(json.loads(res.data))
        else:
            got = len([ln for ln in res.data.decode("ascii").split("\n")[1:] if ln])
        return None if got == n else f"{got} rows, expected {n}"
    return check


# -- cycles ------------------------------------------------------------------

def _steps(n: int) -> list[str]:
    return ["--steps", str(n)]


def _trajectory_io(rng, work: Path, sz: Sizes, cycle: int) -> list[Op]:
    n = sz.traj_steps
    rp, pp = draw_rabi(rng), draw_pulse(rng)
    rabi_csv, pulse_json, coh_csv = work / "rabi.csv", work / "pulse.json", work / "coh.csv"
    return [
        Op("rabi", ["rabi", "--mode", "analytic", *rp.flags(), *_steps(n),
                    "--output", str(rabi_csv)],
           rabi_csv, check_rwa_csv(rp, n, TOL_CLOSED_FORM)),
        Op("pulse", ["pulse", "--mode", "analytic", *pp.flags(), *_steps(n),
                     "--format", "json", "--output", str(pulse_json)],
           pulse_json, check_pulse_json(n)),
        Op("coherence", ["coherence", "--input", str(rabi_csv), "--output", str(coh_csv)],
           coh_csv, check_coherence(rabi_csv, n)),
    ]


def _rk4_verify(rng, work: Path, sz: Sizes, cycle: int) -> list[Op]:
    n = sz.rk4_steps
    rp, pp, ip = draw_rabi(rng), draw_pulse(rng), draw_rabi(rng)
    drive, out = work / "drive.json", work / "integrate.csv"
    write_drive(ip, sz.drive_samples, drive)
    return [
        Op("verify", ["verify", "--scenario", "rabi", *rp.flags(), *_steps(n)],
           None, check_verify),
        Op("verify", ["verify", "--scenario", "pulse", *pp.flags(), *_steps(n)],
           None, check_verify),
        Op("integrate", ["integrate", "--drive", str(drive), *_steps(n), "--output", str(out)],
           out, check_rwa_csv(ip, n, TOL_INTEGRATE)),
    ]


def _sweep(rng, work: Path, sz: Sizes, cycle: int) -> list[Op]:
    n, k = sz.sweep_steps, sz.sweep_values
    pp, cp, wp = draw_pulse(rng), draw_rabi(rng), draw_rabi(rng)
    f0s = draw_values(rng, 0.1, 3.0, k)
    mags = draw_values(rng, 0.3, 1.5, k)
    omegas = draw_values(rng, 0.2, 2.5, k)
    phase = cp.coupling / abs(cp.coupling)
    cp_peaks = [rabi_peak(Rabi(cp.e_g, cp.e_e, cp.omega0, m * phase)) for m in mags]
    wp_peaks = [rabi_peak(Rabi(wp.e_g, wp.e_e, w, wp.coupling)) for w in omegas]
    ops = []
    for name, flags, values, peaks in (
        ("f0", pp.flags(with_f0=False), f0s, [pulse_peak(f) for f in f0s]),
        ("coupling-magnitude", cp.flags(), mags, cp_peaks),
        ("omega0", wp.flags(), omegas, wp_peaks),
    ):
        out = work / f"sweep-{name}.csv"
        ops.append(Op("sweep", ["sweep", "--param", name, "--values", ",".join(map(repr, values)),
                                *flags, *_steps(n), "--output", str(out)],
                      out, check_sweep(peaks)))
    return ops


def _cli_cold(rng, work: Path, sz: Sizes, cycle: int) -> list[Op]:
    n = COLD_STEPS
    rp, pp, ip, vr, vp = (draw_rabi(rng), draw_pulse(rng), draw_rabi(rng),
                          draw_rabi(rng), draw_pulse(rng))
    rabi_csv, pulse_json = work / "rabi.csv", work / "pulse.json"
    drive, int_csv, coh_csv = work / "drive.json", work / "integrate.csv", work / "coh.csv"
    sweep_csv = work / "sweep.csv"
    write_drive(ip, COLD_DRIVE_SAMPLES, drive)
    verify_flags = (["--scenario", "rabi", *vr.flags()] if cycle % 2 == 0
                    else ["--scenario", "pulse", *vp.flags()])
    param = ("f0", "coupling-magnitude", "omega0")[cycle % 3]
    if param == "f0":
        values, sweep_flags = draw_values(rng, 0.1, 3.0, COLD_SWEEP_VALUES), pp.flags(False)
    elif param == "coupling-magnitude":
        values, sweep_flags = draw_values(rng, 0.3, 1.5, COLD_SWEEP_VALUES), rp.flags()
    else:
        values, sweep_flags = draw_values(rng, 0.2, 2.5, COLD_SWEEP_VALUES), rp.flags()
    return [
        Op("rabi", ["rabi", "--mode", "analytic", *rp.flags(), *_steps(n),
                    "--output", str(rabi_csv)], rabi_csv, check_row_count(n + 1)),
        Op("pulse", ["pulse", "--mode", "analytic", *pp.flags(), *_steps(n),
                     "--format", "json", "--output", str(pulse_json)],
           pulse_json, check_row_count(n + 1, "json")),
        Op("coherence", ["coherence", "--input", str(rabi_csv), "--output", str(coh_csv)],
           coh_csv, check_row_count(n + 1)),
        Op("integrate", ["integrate", "--drive", str(drive), *_steps(COLD_RK4_STEPS),
                         "--output", str(int_csv)], int_csv, check_row_count(COLD_RK4_STEPS + 1)),
        Op("verify", ["verify", *verify_flags, *_steps(COLD_RK4_STEPS)], None, check_verify),
        Op("sweep", ["sweep", "--param", param, "--values", ",".join(map(repr, values)),
                     *sweep_flags, *_steps(n), "--output", str(sweep_csv)],
           sweep_csv, check_row_count(COLD_SWEEP_VALUES)),
    ]


_CYCLES = {"trajectory_io": _trajectory_io, "rk4_verify": _rk4_verify,
           "sweep": _sweep, "cli_cold": _cli_cold}


def build_cycle(workload: str, seed: int, cycle: int, work: Path, sizes: Sizes) -> list[Op]:
    """The ops of one cycle; writes any input files the ops read."""
    rng = np.random.default_rng([seed, cycle])
    return _CYCLES[workload](rng, work, sizes, cycle)
