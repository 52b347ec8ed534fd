"""Flat-file serialization of time series and sampled drives.

CSV schema (fixed header, LF newlines, floats at 17 significant digits so a
round trip reproduces every double bit-exactly):

    t,rho00_re,rho00_im,rho01_re,rho01_im,rho10_re,rho10_im,rho11_re,rho11_im,purity,c_l1,c_frobenius

JSON output is json.dumps(records, indent=1) of per-sample records, same fields.
Sampled drives are JSON documents {"samples": [{"t": ..., "h00_re": ...,
..., "h11_im": ...}, ...]}.
"""
from __future__ import annotations

import json
from array import array
from contextlib import suppress
from operator import itemgetter
from pathlib import Path
from typing import TextIO

import numpy as np

from .core import TimeSeries, validate_rho
from .errors import BadParam, ConfigInvalid
from .liouville import Sampled

CSV_HEADER = (
    "t,rho00_re,rho00_im,rho01_re,rho01_im,rho10_re,rho10_im,"
    "rho11_re,rho11_im,purity,c_l1,c_frobenius"
)
CSV_FIELDS = tuple(CSV_HEADER.split(","))

DRIVE_FIELDS = ("t", "h00_re", "h00_im", "h01_re", "h01_im",
                "h10_re", "h10_im", "h11_re", "h11_im")


def fmt17(x: float) -> str:
    """17 significant digits: enough to reproduce any double exactly."""
    return f"{x:.17g}"


_ROW_FORMAT = ",".join(["%.17g"] * len(CSV_FIELDS))  # fmt17 per field
# one record as json.dumps(records, indent=1) lays it out; %r is json's float repr
_JSON_RECORD = " {\n" + ",\n".join(f'  "{k}": %r' for k in CSV_FIELDS) + "\n }"
# fmt -> (row template, row separator, head, tail, text of an empty series)
_LAYOUTS = {
    "csv": (_ROW_FORMAT, "\n", CSV_HEADER + "\n", "\n", CSV_HEADER + "\n"),
    "json": (_JSON_RECORD, ",\n", "[\n", "\n]\n", "[]\n"),
}


def write_series(series: TimeSeries, out: TextIO, fmt: str) -> None:
    """Write the series to the text stream ``out`` in format "csv" or "json",
    4096 rows at a time: the whole text is never held in memory."""
    row, sep, head, tail, empty = _LAYOUTS[fmt]
    n = len(series)
    # (n, 2, 2) complex viewed as (n, 8) floats: re/im of rho00, 01, 10, 11
    parts = np.ascontiguousarray(series.rho).reshape(n, 4).view(float)
    table = np.column_stack([series.t, parts, series.purity, series.c_l1, series.c_frob])
    out.write(head if n else empty)
    for start in range(0, n, 4096):
        block = [row % tuple(r) for r in table[start:start + 4096].tolist()]
        out.write((sep if start else "") + sep.join(block))
    out.write(tail if n else "")


def write_series_csv(series: TimeSeries, path: str | Path) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        write_series(series, f, "csv")


def write_series_json(series: TimeSeries, path: str | Path) -> None:
    with open(path, "w", encoding="ascii", newline="") as f:
        write_series(series, f, "json")


def _read_table(path: str | Path, headers: tuple[str, ...]) -> np.ndarray:
    """Parse a CSV whose header is one of ``headers`` into an (n, ncols) array
    of finite floats, streaming the lines into one growing buffer of
    doubles; blank lines are skipped and not counted.  ConfigInvalid names
    the file and row of any defect."""
    values = array("d")
    with open(path, encoding="ascii") as f:
        lines = filter(None, (ln.rstrip("\n") for ln in f))
        header = next(lines, "")
        if header not in headers:
            expected = " or ".join(repr(h) for h in headers)
            got = f", got {header!r}" if len(headers) == 1 else ""
            raise ConfigInvalid(f"CSV header mismatch in {path}: expected {expected}{got}")
        ncols = header.count(",") + 1
        for row, ln in enumerate(lines, 2):  # the header is row 1
            parts = ln.split(",")
            if len(parts) != ncols:
                raise ConfigInvalid(f"row {row} of {path} has {len(parts)} fields, "
                                    f"expected {ncols}")
            try:
                values.extend(map(float, parts))
            except ValueError as exc:
                raise ConfigInvalid(f"row {row} of {path}: {exc}") from exc
    data = np.frombuffer(values).reshape(-1, ncols)
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        i, j = bad[0]
        raise ConfigInvalid(f"row {i + 2} of {path}: {header.split(',')[j]} = "
                            f"{float(data[i, j])!r} is not finite")
    return data


def _rho_from_columns(data: np.ndarray) -> np.ndarray:
    # reinterpret the eight re/im columns as complex: re + 1j*im would flip
    # -0.0 to +0.0 and break the bit-exact round trip
    return data[:, 1:9].copy().view(complex).reshape(-1, 2, 2)


def check_states(rho: np.ndarray, path: str | Path) -> np.ndarray:
    """Return the states read from ``path`` if each is a density matrix to
    within 1e-8, a runtime tolerance loose enough for propagated states;
    otherwise raise ConfigInvalid naming the first bad row of the file."""
    bad = validate_rho(rho, tol_herm=1e-8, tol_trace=1e-8, tol_psd=1e-8)
    if bad is not None:
        raise ConfigInvalid(f"row {bad[0] + 2} of {path}: {bad[1]}") from bad[1]
    return rho


def read_series_csv(path: str | Path) -> TimeSeries:
    """Read a CSV in the schema above back into a TimeSeries; its states are
    checked with check_states.

    Values re-read from a file written by write_series_csv compare equal to
    the originals bit for bit.
    """
    data = _read_table(path, (CSV_HEADER,))
    return TimeSeries(t=data[:, 0], rho=check_states(_rho_from_columns(data), path),
                      purity=data[:, 9], c_l1=data[:, 10], c_frob=data[:, 11])


def read_states_csv(path: str | Path) -> tuple[np.ndarray, np.ndarray]:
    """Read (t, rho) rows from a CSV whose header is either the full schema
    or its first nine columns (t plus the eight rho components).

    Returns (times, matrices) without validating the states; callers check
    them, e.g. with check_states.
    """
    data = _read_table(path, (CSV_HEADER, ",".join(CSV_FIELDS[:9])))
    return data[:, 0], _rho_from_columns(data)


def read_sampled_drive(path: str | Path) -> Sampled:
    """Load a sampled drive from a JSON file of {"samples": [...]} records."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or UTF-8, a 4300+ digit int
        raise ConfigInvalid(f"cannot read drive file {path}: {exc}") from exc
    if not isinstance(doc, dict) or set(doc) != {"samples"}:
        raise ConfigInvalid('drive file must be an object with the single key "samples"')
    return sampled_from_records(doc["samples"])


def json_number(v, where: str) -> float:
    """v as a float if it is a JSON number (an int or float, not a bool)
    that fits a double; otherwise ConfigInvalid naming the field ``where``."""
    if isinstance(v, bool) or not isinstance(v, (int, float)):
        raise ConfigInvalid(f"{where} must be a number, got {v!r}")
    try:
        return float(v)
    except OverflowError:
        raise ConfigInvalid(f"{where} must fit a double, got an integer of "
                            f"{v.bit_length()} bits") from None


_DRIVE_KEYS = frozenset(DRIVE_FIELDS)
_NUMBER_TYPES = frozenset((int, float))
_drive_values = itemgetter(*DRIVE_FIELDS)
_DRIVE_DTYPE = np.dtype((float, len(DRIVE_FIELDS)))


def _drive_rows(records: list) -> list[list[float]]:
    """The rows of every record, checked and converted field by field;
    ConfigInvalid names the first defect of the lowest-indexed bad record."""
    rows = []
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ConfigInvalid(f"samples[{i}] must be an object")
        unknown = set(rec) - _DRIVE_KEYS
        if unknown:
            raise ConfigInvalid(f"samples[{i}] has unknown keys {sorted(unknown)}")
        missing = _DRIVE_KEYS - set(rec)
        if missing:
            raise ConfigInvalid(f"samples[{i}] is missing keys {sorted(missing)}")
        rows.append([json_number(rec[k], f"samples[{i}].{k}") for k in DRIVE_FIELDS])
    return rows


def sampled_from_records(records: list) -> Sampled:
    """Build a Sampled drive from a list of {t, h00_re, ..., h11_im} objects.

    Records of plain dicts, ints and floats pass a quick check and are
    converted in one numpy call; any others, and an int beyond the doubles,
    go through _drive_rows, which names the first defect."""
    if not isinstance(records, list) or not records:
        raise ConfigInvalid('"samples" must be a non-empty array')
    v = None
    if all(type(rec) is dict and rec.keys() == _DRIVE_KEYS
           and _NUMBER_TYPES.issuperset(map(type, _drive_values(rec))) for rec in records):
        with suppress(OverflowError):
            v = np.fromiter(map(_drive_values, records), _DRIVE_DTYPE, len(records))
    if v is None:
        v = np.array(_drive_rows(records))
    try:  # times is a copy, so the (n, 9) table is freed on return
        return Sampled(times=v[:, 0].copy(),
                       matrices=(v[:, 1::2] + 1j * v[:, 2::2]).reshape(-1, 2, 2))
    except BadParam as exc:
        raise ConfigInvalid(f"invalid sampled drive: {exc}") from exc
