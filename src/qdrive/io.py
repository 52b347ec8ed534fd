"""Flat-file serialization of time series and sampled drives.

CSV schema (fixed header, LF newlines, each float as '%.17g' formats it, with
17 significant digits, so a round trip reproduces every double bit-exactly;
the text comes from an exact numpy kernel, _fmt17_words):

    t,rho00_re,rho00_im,rho01_re,rho01_im,rho10_re,rho10_im,rho11_re,rho11_im,purity,c_l1,c_frobenius

JSON output is laid out as json.dumps(records, indent=1) of per-sample
records, same fields, each number the kernel's text but repr's for integral
|v| < 1e17 (_json_words): JSON values read back bit for bit, JSON bytes are
no contract.  One block writer, _blocks, writes both formats 1024 rows at a
time (_BLOCK_ROWS), each number in a field after the format's constant text.
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
from typing import Callable, Iterator, TextIO

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


# The exact %.17g kernel.  A value of decimal exponent k (|x| in [10^k,
# 10^(k+1))) in [-4, 16] prints in fixed point, and its 17 digits are N =
# |x| 10^(16-k) rounded half to even.  Dekker's two-product (Dekker 1971)
# gives that product exactly as hi + lo: 10^(16-k) <= 1e20 is an exact
# double, and hi >= 1e16 > 2^53 is an even integer, so N = hi + rint(lo).
# A field is 24 bytes, three little-endian uint64 words: byte 0 the sign,
# bytes 1-5 "0." and -k-1 zeros if k < 0, the digits from byte 6 with the
# point inserted after digit k if k >= 0, and 0 bytes that the join drops.
_POW10 = np.cumprod(np.r_[1.0, np.full(20, 10.0)])  # 10^p, p = 0..20, exact
_LOW = np.cumsum(np.r_[np.uint64(0), 0xFF << 8 * np.arange(8, dtype=np.uint64)])  # low c bytes
# _KEEP[:, c]: the three words of a field's mask of its bytes before byte c
_KEEP = _LOW[np.clip(np.arange(26) - 8 * np.arange(3)[:, None], 0, 8)]
# _PREFIX[k + 4]: bytes 1-5 of a field of exponent k, "0." and -k-1 zeros if k < 0
_PREFIX = np.r_[0x2E3000 | (0x303030 & _LOW[3::-1]) << 24, np.zeros(17, np.uint64)]


def _split(v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Dekker's split: v = hi + lo exactly, each of at most 26 significant bits."""
    c = v * 134217729.0  # 2^27 + 1
    hi = c - (c - v)
    return hi, v - hi


def _scaled(a: np.ndarray, k: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """a 10^(16-k) as hi + lo exactly, hi the rounded product."""
    s = _POW10.take(16 - k)
    (ah, al), (sh, sl) = _split(a), _split(s)
    hi = a * s
    return hi, ((ah * sh - hi) + ah * sl + al * sh) + al * sl


def _fmt17_words(x: np.ndarray) -> np.ndarray:
    """'%.17g' % v of each value of the 1-D array ``x`` as a field (above), in
    a (3, n) array of words.  Python formats the values outside the kernel's
    range: nonzero |v| < 1e-4, |v| >= 1e17, inf and nan."""
    a = np.abs(x)
    zero = a == 0
    fast = ((a >= 1e-4) & (a < 1e17)) | zero
    b = np.where(fast & ~zero, a, 1.0)
    k = np.clip(np.floor(np.log10(b)), -4, 16).astype(np.int64)
    hi, lo = _scaled(b, k)
    # log10 may be one off near a power of ten; the exact product decides
    up = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    down = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    if up.any() or down.any():
        k += up.astype(np.int64) - down
        hi, lo = _scaled(b, k)
    # N < 10^17: no double in range is within half a unit of digit 17 below 10^(k+1)
    n = np.where(zero, 0, hi.astype(np.int64) + np.rint(lo).astype(np.int64)).astype(np.uint64)
    q = n // 10**8
    d0 = q // 10**8
    # digits 1-16 as two words of eight, one digit a byte, the first lowest:
    # each word's lanes split 4 + 4, 2 + 2 and 1 + 1 by multiply and shift
    v = np.stack([q - d0 * 10**8, n - q * 10**8])
    q = v // 10**4
    v = q | (v - q * 10**4) << 32
    q = (v * 5243 >> 19) & 0x0000007F0000007F
    v = q | (v - q * 100) << 16
    q = (v * 103 >> 10) & 0x000F000F000F000F
    v = q | (v - q * 10) << 8
    # the last nonzero digit from the top set bit of each word's nonzero bytes
    e = np.frexp(((v + 0x7F7F7F7F7F7F7F7F) & 0x8080808080808080).astype(float))[1]
    last = np.where(e[1] > 0, 8 + e[1] // 8, e[0] // 8)
    v |= 0x3030303030303030
    words = np.stack([np.signbit(x) * np.uint64(45) | _PREFIX.take(k + 4) | (d0 + 48) << 48
                      | v[0] << 56, v[0] >> 8 | v[1] << 56, v[1] >> 8])
    words &= _KEEP.take(7 + np.maximum(last, k), axis=1)  # no trailing zeros
    # where k >= 0 and a nonzero digit follows digit k, the bytes from 7 + k
    # on move up by one, and the point takes byte 7 + k
    i = np.flatnonzero((k >= 0) & (last > k))
    keep, w = _KEEP.take(7 + k[i], axis=1), words[:, i]
    moved = w & ~keep
    w = w & keep | moved << 8 | (_KEEP.take(8 + k[i], axis=1) ^ keep) & 0x2E2E2E2E2E2E2E2E
    w[1:] |= moved[:-1] >> 56
    words[:, i] = w
    if not fast.all():
        words[:, ~fast] = _text_words("%.17g".__mod__, x[~fast])
    return words


def _text_words(text: Callable[[float], str], x: np.ndarray) -> np.ndarray:
    """text(|v|) of each value of the 1-D array ``x`` as a field (above), with
    "-" in byte 0 where v is negative and not nan, in a (3, n) array of words;
    its users are the kernel's '%.17g' fallback and _json_words' repr.
    text is called once per distinct |v|: +-v, +-0 and every nan share a call,
    which pays for JSON's integral values (+-0 and 1 fill whole columns).
    Unsigned repr and '%.17g' text of a double is at most 23 characters,
    1.7976931348623157e+308 or 2.2250738585072014e-308, so "S23" cuts none."""
    fields = np.empty((len(x), 24), np.uint8)
    fields[:, 0] = (np.signbit(x) & ~np.isnan(x)) * ord("-")
    magnitudes, inverse = np.unique(np.abs(x), return_inverse=True)
    texts = np.array(list(map(text, magnitudes.tolist())), "S23")
    fields[:, 1:] = texts.view(np.uint8).reshape(-1, 23)[inverse]
    return fields.view("<u8").T


def _json_words(x: np.ndarray) -> np.ndarray:
    """JSON's text of each value of the 1-D array ``x`` as fields (above), in
    a (3, n) array of words: the kernel's, but repr's for integral |v| < 1e17,
    which '%.17g' prints with no point, so json would read an int and -0 as 0."""
    words = _fmt17_words(x)
    i = np.flatnonzero((np.abs(x) < 1e17) & (np.trunc(x) == x))
    if len(i):
        words[:, i] = _text_words(repr, x[i])
    return words


def _row_words(prefixes: list[str]) -> np.ndarray:
    """The words of a row's fields: each field's prefix, zero-padded to whole
    words, then three zero words for its number."""
    width = -(-max(map(len, prefixes)) // 8) * 8 + 24
    return np.array(prefixes, f"S{width}").view("<u8").reshape(len(prefixes), -1)


# A row's first prefix closes the row before it: "\n" in CSV, which ends the
# header, and in JSON "\n }," and the next record's "{", as
# json.dumps(records, indent=1) lays them out; write_series cuts the
# "\n },\n" from the first row's
_CSV = _fmt17_words, _row_words(["\n"] + [","] * 11)
_JSON = _json_words, _row_words([("\n },\n {" if j == 0 else ",") + f'\n  "{k}": '
                                 for j, k in enumerate(CSV_FIELDS)])


# Rows per block.  Each block pays a fixed cost (about 40 numpy calls in
# _fmt17_words, and np.unique in _json_words' repr route) and is held whole
# while it is formatted: at 1024 rows a 16385-row series is written about a
# fifth faster than at 256, with a traced peak of about 4 MB instead of 2.
_BLOCK_ROWS = 1024


def _blocks(table: np.ndarray, number_words: Callable[[np.ndarray], np.ndarray],
            row: np.ndarray) -> Iterator[str]:
    """The text of an (n, 12) table, _BLOCK_ROWS (1024) rows to a string,
    each block built in one reused buffer of ``row``'s words, the numbers'
    words from one number_words call per block."""
    buffer = np.tile(row, (min(len(table), _BLOCK_ROWS), 1, 1))
    for start in range(0, len(table), _BLOCK_ROWS):
        block = table[start:start + _BLOCK_ROWS]
        buffer[:len(block), :, -3:] = number_words(block.ravel()).T.reshape(*block.shape, 3)
        text = buffer[:len(block)].view(np.uint8)
        yield text[text != 0].tobytes().decode("ascii")


def write_series(series: TimeSeries, out: TextIO, fmt: str) -> None:
    """Write the series to the text stream ``out`` in format "csv" or "json"
    (else BadParam), never holding the whole text: both go 1024 rows at a
    time through _blocks, every value of a block in one formatter call, CSV's
    from _fmt17_words and JSON's from _json_words."""
    if fmt not in ("csv", "json"):
        raise BadParam(f'format must be "csv" or "json", got {fmt!r}')
    n = len(series)
    # (n, 2, 2) complex viewed as (n, 8) floats: re/im of rho00, 01, 10, 11
    parts = np.ascontiguousarray(series.rho).reshape(n, 4).view(float)
    table = np.column_stack([series.t, parts, series.purity, series.c_l1, series.c_frob])
    if fmt == "csv":
        out.write(CSV_HEADER)
        out.writelines(_blocks(table, *_CSV))
        out.write("\n")
    elif n:
        blocks = _blocks(table, *_JSON)
        out.write("[\n" + next(blocks)[len("\n },\n"):])
        out.writelines(blocks)
        out.write("\n }\n]\n")
    else:
        out.write("[]\n")


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
