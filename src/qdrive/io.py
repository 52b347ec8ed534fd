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
import os
from array import array
from contextlib import contextmanager, suppress
from operator import itemgetter
from pathlib import Path
from typing import Callable, TextIO

import numpy as np

from .core import TOL_RUNTIME, Scan, TimeSeries, scan_rho
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


def _json_record(slots: list[str]) -> str:
    # one record as json.dumps(records, indent=1) lays it out
    return " {\n" + ",\n".join(f'  "{k}": {v}' for k, v in zip(CSV_FIELDS, slots)) + "\n }"


# fmt -> (float conversion, row template from its 12 field slots, row
# separator, head, tail, text of an empty series); %.17g is fmt17, %r is
# json's float repr
_LAYOUTS = {
    "csv": ("%.17g", ",".join, "\n", CSV_HEADER + "\n", "\n", CSV_HEADER + "\n"),
    "json": ("%r", _json_record, ",\n", "[\n", "\n]\n", "[]\n"),
}
_SIGN = np.int64(-2**63)  # the sign bit of a double viewed as int64


def _format_block(block: np.ndarray, conv: str,
                  template: Callable[[list[str]], str]) -> list[str]:
    """The rows of an (m, 12) block of the table, each value formatted with
    ``conv``.  A column whose bits are constant over the block is formatted
    once, into the row template.  Where rho10 = conj(rho01) bit for bit, a row
    reuses rho01's text: rho10_re takes it as it is, and rho10_im takes
    rho01_im's text with its leading minus toggled, which is exact for finite
    doubles, 0 and -0 included.  A row that breaks the pair formats its own."""
    bits = block.view(np.int64)
    const = (bits == bits[0]).all(axis=0)
    # columns 3 and 4 hold rho01's re and im, 5 and 6 rho10's
    pair = {5: bits[:, 5] == bits[:, 3], 6: bits[:, 6] == bits[:, 4] ^ _SIGN}
    first = block[0].tolist()
    slots, columns, text = [], [], {}
    for j, column in enumerate(block.T):
        if const[j]:
            slots.append(conv % first[j])
            continue
        if j in (3, 4) and not const[j + 2] and pair[j + 2].any():
            strings = text[j] = [conv % v for v in column.tolist()]
        elif j in (5, 6) and j - 2 in text:
            strings = text[3][:] if j == 5 else [s[1:] if s[0] == "-" else "-" + s for s in text[4]]
            for i in np.flatnonzero(~pair[j]).tolist():
                strings[i] = conv % column[i].item()
        else:
            slots.append(conv)
            columns.append(column.tolist())
            continue
        slots.append("%s")
        columns.append(strings)
    row = template(slots)
    return [row % r for r in zip(*columns)] if columns else [row] * len(block)


def write_series(series: TimeSeries, out: TextIO, fmt: str) -> None:
    """Write the series to the text stream ``out`` in format "csv" or "json",
    4096 rows at a time: the whole text is never held in memory."""
    conv, template, sep, head, tail, empty = _LAYOUTS[fmt]
    n = len(series)
    # (n, 2, 2) complex viewed as (n, 8) floats: re/im of rho00, 01, 10, 11
    parts = np.ascontiguousarray(series.rho).reshape(n, 4).view(float)
    table = np.column_stack([series.t, parts, series.purity, series.c_l1, series.c_frob])
    out.write(head if n else empty)
    for start in range(0, n, 4096):
        block = _format_block(table[start:start + 4096], conv, template)
        out.write((sep if start else "") + sep.join(block))
    out.write(tail if n else "")


@contextmanager
def open_output(path: str | Path, encoding: str = "ascii", mode: str = "w"):
    """Open ``path`` for writing text with LF newlines; ConfigInvalid names
    the file if it cannot be opened or written."""
    try:
        with open(path, mode, encoding=encoding, newline="") as f:
            yield f
    except OSError as exc:
        raise ConfigInvalid(f"cannot write output file {path}: {exc}") from exc


def probe_output(path: str | Path) -> None:
    """Raise open_output's ConfigInvalid now if ``path`` cannot be opened for
    writing.  An existing file keeps its bytes, a new one is removed again,
    and a named pipe is left alone: closing it would end its reader's input."""
    existed = os.path.lexists(path)
    if existed and Path(path).is_fifo():
        return
    with open_output(path, mode="a"):
        pass
    if not existed:
        os.remove(path)


def write_series_csv(series: TimeSeries, path: str | Path) -> None:
    with open_output(path) as f:
        write_series(series, f, "csv")


def write_series_json(series: TimeSeries, path: str | Path) -> None:
    with open_output(path) as f:
        write_series(series, f, "json")


# the bytes of a body that np.loadtxt and float() parse alike: digits, signs,
# points, exponents, the letters of inf, nan and infinity, commas and newlines
_NUMERIC = b"0123456789+-.eE,\n\r" + b"infatyINFATY"


def _loadtxt_body(f: TextIO, ncols: int) -> np.ndarray | None:
    """The rows of ``f`` from its position on, parsed by np.loadtxt, if the
    text holds only _NUMERIC characters and loadtxt reads it as an
    (n, ncols) table; otherwise None, with ``f`` at any position."""
    start, empty = f.tell(), True
    for chunk in iter(lambda: f.read(1 << 16), ""):
        if chunk.encode().translate(None, _NUMERIC):
            return None
        empty = empty and not chunk.strip("\n")
    if empty:  # loadtxt would warn of no data
        return np.empty((0, ncols))
    f.seek(start)
    try:
        data = np.loadtxt(f, delimiter=",", comments=None, dtype=float, ndmin=2)
    except ValueError:  # a bad field or a row of another length
        return None
    return data if data.shape[1] == ncols else None


def _read_rows(f: TextIO, path: str | Path, ncols: int) -> np.ndarray:
    """The rows of ``f`` from its position on, field by field; ConfigInvalid
    names the row and its defect.  Blank lines are skipped and not counted."""
    values = array("d")
    lines = filter(None, (ln.rstrip("\n") for ln in f))
    for row, ln in enumerate(lines, 2):  # the header is row 1
        parts = ln.split(",")
        if len(parts) != ncols:
            raise ConfigInvalid(f"row {row} of {path} has {len(parts)} fields, "
                                f"expected {ncols}")
        try:
            values.extend(map(float, parts))
        except ValueError as exc:
            raise ConfigInvalid(f"row {row} of {path}: {exc}") from exc
    return np.frombuffer(values).reshape(-1, ncols)


def _read_table(path: str | Path, headers: tuple[str, ...]) -> np.ndarray:
    """Parse a CSV whose header is one of ``headers`` into an (n, ncols) array
    of finite floats whose first column, t, strictly increases; blank lines
    are skipped and not counted.  The body is parsed by np.loadtxt when it
    holds only characters that loadtxt and float() read alike, and field by
    field otherwise or when loadtxt rejects it, so ConfigInvalid names the
    file and row of any defect."""
    try:
        with open(path, encoding="ascii") as f:
            header = ""
            while not header and (ln := f.readline()):
                header = ln.rstrip("\n")
            if header not in headers:
                expected = " or ".join(repr(h) for h in headers)
                got = f", got {header!r}" if len(headers) == 1 else ""
                raise ConfigInvalid(f"CSV header mismatch in {path}: expected {expected}{got}")
            ncols = header.count(",") + 1
            body = f.tell()
            data = _loadtxt_body(f, ncols)
            if data is None:
                f.seek(body)
                data = _read_rows(f, path, ncols)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigInvalid(f"cannot read CSV file {path}: {exc}") from exc
    bad = np.argwhere(~np.isfinite(data))
    if len(bad):
        i, j = bad[0]
        raise ConfigInvalid(f"row {i + 2} of {path}: {header.split(',')[j]} = "
                            f"{float(data[i, j])!r} is not finite")
    stuck = np.flatnonzero(data[1:, 0] <= data[:-1, 0])
    if len(stuck):
        i = int(stuck[0]) + 1
        raise ConfigInvalid(f"row {i + 2} of {path}: t = {float(data[i, 0])!r} does not "
                            f"exceed the previous row's t = {float(data[i - 1, 0])!r}")
    return data


def _rho_from_columns(data: np.ndarray) -> np.ndarray:
    # reinterpret the eight re/im columns as complex: re + 1j*im would flip
    # -0.0 to +0.0 and break the bit-exact round trip
    return data[:, 1:9].copy().view(complex).reshape(-1, 2, 2)


def check_states(rho: np.ndarray, path: str | Path) -> Scan:
    """Return the scan of the states read from ``path`` if each is a density
    matrix to within TOL_RUNTIME, a tolerance loose enough for propagated
    states; otherwise raise ConfigInvalid naming the first bad row of the file."""
    scan = scan_rho(rho, TOL_RUNTIME)
    if scan.bad is not None:
        raise ConfigInvalid(f"row {scan.bad[0] + 2} of {path}: {scan.bad[1]}") from scan.bad[1]
    return scan


def read_series_csv(path: str | Path) -> TimeSeries:
    """Read a CSV in the schema above back into a TimeSeries; its states are
    checked with check_states.

    Values re-read from a file written by write_series_csv compare equal to
    the originals bit for bit.
    """
    data = _read_table(path, (CSV_HEADER,))
    check_states(rho := _rho_from_columns(data), path)
    return TimeSeries(t=data[:, 0], rho=rho, purity=data[:, 9], c_l1=data[:, 10], c_frob=data[:, 11])


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
