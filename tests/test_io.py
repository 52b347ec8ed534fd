"""Series writers and readers, and the sampled-drive loader.

The block writer gives the same bytes as the one-shot reference writers
below, its CSV kernel gives the text of '%.17g' % v for any double, CSV
and JSON round trips keep any finite double bit for bit, the
table reader gives the same bits and messages as the per-field reference
reader below, and the readers reject non-finite values and rows that are
not density matrices.
The drive loader gives the same bits and messages as the per-record
reference loop below."""
import io
import json
import re
import sys
import tempfile
import tracemalloc
from collections import OrderedDict
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdrive import ConfigInvalid, Sampled, TimeSeries
from qdrive.coherence import build_series
from qdrive.errors import BadParam
from qdrive.io import (
    CSV_FIELDS,
    CSV_HEADER,
    DRIVE_FIELDS,
    _CSV,
    _JSON,
    _blocks,
    _read_table,
    _text_words,
    fmt17,
    read_sampled_drive,
    read_series_csv,
    read_states_csv,
    sampled_from_records,
    write_series,
    write_series_csv,
    write_series_json,
)
from qdrive.rabi import RabiParams, rabi_rho

MAX = sys.float_info.max
SUBNORMAL = 5e-324
EDGE_ROW = [-0.0, SUBNORMAL, -SUBNORMAL, MAX, -MAX, np.nextafter(MAX, 0), 1e-310, 0.0,
            -1e-300, 1.0 / 3.0, 0.1]

finite = st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True)


@st.composite
def series(draw) -> TimeSeries:
    t = sorted(draw(st.lists(finite, max_size=12, unique=True)))
    cols = draw(arrays(float, (len(t), 11), elements=finite))
    rho = np.empty((len(t), 2, 2), dtype=complex)
    rho.reshape(len(t), 4).view(float)[:] = cols[:, :8]
    return TimeSeries(t=np.array(t, dtype=float), rho=rho, purity=cols[:, 8],
                      c_l1=cols[:, 9], c_frob=cols[:, 10])


@st.composite
def valid_series(draw) -> TimeSeries:
    """Like series(), but each rho is a density matrix, as read_series_csv
    requires; its components still include signed zeros and subnormals."""
    s = draw(series())
    n = len(s)
    small = st.floats(-1e-9, 1e-9, allow_subnormal=True)
    off = arrays(float, (n, 2), elements=st.floats(-0.35, 0.35, allow_subnormal=True))
    re, im = draw(off).T
    # |rho01|^2 <= p (1 - p) for every u in [-1, 1]
    p = 0.5 + draw(arrays(float, n, elements=st.floats(-1.0, 1.0))) * np.sqrt(
        0.25 - (re * re + im * im))
    cols = np.column_stack([p, draw(arrays(float, n, elements=small)), re, im, re, -im,
                            1.0 - p, draw(arrays(float, n, elements=small))])
    rho = np.ascontiguousarray(cols).view(complex).reshape(n, 2, 2)
    return TimeSeries(t=s.t, rho=rho, purity=s.purity, c_l1=s.c_l1, c_frob=s.c_frob)


def _valid_edge_series() -> TimeSeries:
    rho_cols = np.array([[1.0, -0.0, -0.0, SUBNORMAL, -0.0, -SUBNORMAL, 0.0, 1e-310],
                         [1.0 / 3.0, -1e-300, 0.1, -1e-310, 0.1, 1e-310, 2.0 / 3.0, -0.0]])
    other = np.array([EDGE_ROW[8:], [MAX, -MAX, np.nextafter(MAX, 0)]])
    return TimeSeries(t=np.array([-MAX, -0.0]), rho=rho_cols.view(complex).reshape(2, 2, 2),
                      purity=other[:, 0], c_l1=other[:, 1], c_frob=other[:, 2])


def _edge_series() -> TimeSeries:
    cols = np.array([EDGE_ROW, EDGE_ROW[::-1]])
    rho = np.ascontiguousarray(cols[:, :8]).view(complex).reshape(2, 2, 2)
    return TimeSeries(t=np.array([-MAX, -0.0]), rho=rho, purity=cols[:, 8],
                      c_l1=cols[:, 9], c_frob=cols[:, 10])


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _table(s: TimeSeries) -> np.ndarray:
    """The series as an (n, 12) float table in CSV_FIELDS order."""
    parts = np.ascontiguousarray(s.rho).reshape(len(s), 4).view(float)
    return np.column_stack([s.t, parts, s.purity, s.c_l1, s.c_frob])


# reference writers: the whole text at once, one row or record per sample
def reference_csv(s: TimeSeries) -> str:
    row = ",".join(["%.17g"] * len(CSV_FIELDS))
    return "\n".join([CSV_HEADER, *(row % tuple(r) for r in _table(s).tolist())]) + "\n"


def json_text(v: float) -> str:
    """The JSON writer's text of a value: '%.17g', but repr for integral
    |v| < 1e17, which '%.17g' prints with no point."""
    return repr(v) if abs(v) < 1e17 and v.is_integer() else "%.17g" % v


def reference_json(s: TimeSeries) -> str:
    """json.dumps(records, indent=1), each number's text replaced by json_text's."""
    text = json.dumps([dict(zip(CSV_FIELDS, r)) for r in _table(s).tolist()], indent=1)
    return re.sub(r'(?<=": )[^,\n]+', lambda m: json_text(float(m[0])), text) + "\n"


REFERENCES = {"csv": reference_csv, "json": reference_json}
FILE_WRITERS = {"csv": write_series_csv, "json": write_series_json}


def _text(s: TimeSeries, fmt: str) -> str:
    out = io.StringIO()
    write_series(s, out, fmt)
    return out.getvalue()


def _json_values(text: str, n: int) -> np.ndarray:
    """The (n, 12) table json.loads reads from a JSON series, after checking
    that each record holds CSV_FIELDS in order and each value is a float."""
    records = json.loads(text)
    assert [list(rec) for rec in records] == [list(CSV_FIELDS)] * n
    values = [rec[k] for rec in records for k in CSV_FIELDS]
    assert all(type(v) is float for v in values)
    return np.array(values, dtype=float).reshape(n, len(CSV_FIELDS))


def _check_writers(s: TimeSeries, directory: Path) -> None:
    """Both writers, to a stream and to a file, give the reference bytes."""
    for fmt, reference in REFERENCES.items():
        expected = reference(s)
        assert _text(s, fmt) == expected, fmt
        path = directory / f"series.{fmt}"
        FILE_WRITERS[fmt](s, path)
        assert path.read_bytes() == expected.encode("ascii"), fmt


@settings(max_examples=100, deadline=None)
@given(st.one_of(series(), valid_series()))
@example(_edge_series())
@example(_valid_edge_series())
def test_writers_match_reference(s):
    with tempfile.TemporaryDirectory() as d:
        _check_writers(s, Path(d))
    assert _same_bits(_json_values(_text(s, "json"), len(s)), _table(s))


# doubles at the edges of the JSON number rule: signed zeros, integral values
# through 2^53 and in [1e16, 1e17), 1e-4 and the double below it, subnormals,
# and values of at least 1e17
json_values = st.one_of(
    st.sampled_from([0.0, 1e-4, float(np.nextafter(1e-4, 0)), 2.0**53, 1e16, 1e17, MAX]),
    st.integers(0, 2**53).map(float), st.integers(10**16, 10**17 - 1).map(float),
    st.floats(0.0, sys.float_info.min, exclude_max=True, allow_subnormal=True),
    st.floats(1e17, MAX), finite,
    ).flatmap(lambda v: st.sampled_from([v, -v]))


@settings(max_examples=300, deadline=None)
@given(st.lists(json_values, min_size=1, max_size=40))
def test_json_numbers_read_back_as_the_written_floats(values):
    """Every value json.loads reads from the JSON writer's text is a float
    with the bits written, and the CSV text of the series reads back the
    same bits."""
    n = len(values)
    cols = np.resize(np.array(values), (n, 11))
    rho = np.ascontiguousarray(cols[:, :8]).view(complex).reshape(n, 2, 2)
    s = TimeSeries(t=np.arange(n, dtype=float), rho=rho, purity=cols[:, 8], c_l1=cols[:, 9],
                   c_frob=cols[:, 10])
    from_json = _json_values(_text(s, "json"), n)
    assert _same_bits(from_json, _table(s))
    rows = _text(s, "csv").split("\n")[1:-1]
    from_csv = np.array([[float(v) for v in row.split(",")] for row in rows])
    assert _same_bits(from_csv, from_json)


@pytest.mark.parametrize("n", [0, 1, 4095, 4096, 4097, 8193])
def test_writers_match_reference_across_blocks(n, tmp_path):
    # values from the edge row and random doubles of every magnitude
    rng = np.random.default_rng(n)
    pool = np.concatenate([EDGE_ROW, rng.standard_normal(64) * 10.0 ** rng.integers(-320, 308, 64)])
    cols = rng.choice(pool, (n, 11))
    rho = np.ascontiguousarray(cols[:, :8]).view(complex).reshape(n, 2, 2)
    s = TimeSeries(t=np.linspace(-1e300, 1e300, n), rho=rho, purity=cols[:, 8], c_l1=cols[:, 9],
                   c_frob=cols[:, 10])
    _check_writers(s, tmp_path)


@pytest.mark.parametrize("n", [4097, 8193])
def test_writers_match_reference_on_hermitian_blocks(n, tmp_path):
    """Blocks where rho10 = conj(rho01) bit for bit and columns that are
    constant over a block write the reference's bytes.  Block 0 is Hermitian, with +-0.0 in rho01_im and one -0.0
    in an otherwise +0.0 rho00_im column; block 1 (when n = 8193) is not,
    by one sign bit of a zero; the last block is a single row."""
    rng = np.random.default_rng(n)
    re01 = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)
    im01 = rng.choice([0.0, -0.0, 1.0 / 3.0, -0.1, SUBNORMAL, -MAX], n)
    cols = np.zeros((n, 8))
    cols[:, 0], cols[:, 6] = rng.random(n), 0.7
    cols[:, 2], cols[:, 3], cols[:, 4], cols[:, 5] = re01, im01, re01, -im01
    cols[17, 1] = -0.0
    if n > 8192:
        cols[5000, 3], cols[5000, 5] = 0.0, 0.0  # Hermitian in value, not in bits
    rho = cols.view(complex).reshape(n, 2, 2)
    s = TimeSeries(t=np.arange(n, dtype=float), rho=rho, purity=np.ones(n),
                   c_l1=np.abs(re01), c_frob=np.full(n, -0.0))
    _check_writers(s, tmp_path)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_each_distinct_magnitude_is_formatted_once(fmt, tmp_path):
    """_text_words calls its text once per distinct |v|: +-v and +-0 share
    a call, and nan is one call and prints unsigned.  The series starts as
    propagate stores |0><0|, with rho10_im = +0.0 where conj(rho01_im) is
    -0.0, and _blocks hands each block to the formatter in one call."""
    text = {"csv": "%.17g".__mod__, "json": repr}[fmt]
    x = np.array([0.5, -0.5, 0.0, -0.0, np.nan, -np.nan, -1e-300, 1e-300, 0.5, -np.inf, np.inf])
    calls = []
    words = _text_words(lambda v: calls.append(v) or text(v), x)
    assert sorted(map(repr, calls)) == ["0.0", "0.5", "1e-300", "inf", "nan"]
    fields = np.ascontiguousarray(words.T).view(np.uint8)
    assert [f.tobytes().replace(b"\0", b"").decode() for f in fields] == [
        text(0.5), "-" + text(0.5), text(0.0), "-" + text(0.0), "nan", "nan",
        "-" + text(1e-300), text(1e-300), text(0.5), "-inf", "inf"]

    n = 64
    rng = np.random.default_rng(5)
    cols = np.zeros((n, 8))
    cols[:, 0] = rng.random(n)
    cols[:, 6] = 1.0 - cols[:, 0]
    cols[:, 2], cols[:, 3] = rng.standard_normal(n), rng.standard_normal(n)
    cols[:, 4], cols[:, 5] = cols[:, 2], -cols[:, 3]
    cols[0, 2:6] = 0.0
    rho = cols.view(complex).reshape(n, 2, 2)
    s = TimeSeries(t=np.arange(n, dtype=float), rho=rho, purity=np.ones(n),
                   c_l1=rng.random(n), c_frob=np.ones(n))
    _check_writers(s, tmp_path)
    number_words, row = {"csv": _CSV, "json": _JSON}[fmt]
    sizes = []
    "".join(_blocks(_table(s), lambda x: sizes.append(len(x)) or number_words(x), row))
    assert sizes == [n * len(CSV_FIELDS)]


@pytest.mark.parametrize("fmt", ["CSV", "Json", "xml", ""])
def test_write_series_rejects_an_unknown_format(fmt):
    out = io.StringIO()
    with pytest.raises(BadParam, match=f"got {fmt!r}"):
        write_series(_edge_series(), out, fmt)
    assert out.getvalue() == ""


# Values the CSV kernel must print exactly as '%.17g' % v: near every power
# of ten (where log10 may be one off and the rounded digits may carry into
# the next power), exact ties at the 18th digit (odd m / 2^j whose decimal
# expansion has 18 significant digits, so its last is a 5), doubles nearest
# a 17-digit decimal followed by a 5, integers up to 1e17, signed zeros.
POWERS = np.array([float(f"1e{e}") for e in range(-8, 19)])
NEAR_POWERS = (POWERS.view(np.int64)[:, None] + np.arange(-40, 41)).view(float).ravel()
ties = st.integers(3, 25).flatmap(lambda j: st.builds(
    lambda h: (2 * h + 1) / 2**j,  # exact: m < 2^53
    st.integers(-(-10**17 // 5**j) // 2, (10**18 // 5**j - 1) // 2)))
near_ties = st.builds(lambda d, e: float(f"{d}5e{e}"), st.integers(10**16, 10**17 - 1),
                      st.integers(-24, 2))
kernel_values = st.one_of(
    st.floats(allow_subnormal=True), st.sampled_from(NEAR_POWERS.tolist()), ties, near_ties,
    st.integers(0, 10**17).map(float), st.sampled_from([0.0, 1e-4, 1e17]),
    ).flatmap(lambda v: st.sampled_from([v, -v]))


def _reference_rows(table: np.ndarray) -> list[str]:
    return [",".join("%.17g" % v for v in row) for row in table.tolist()]


def _check_csv_blocks(table: np.ndarray) -> None:
    lines = "".join(_blocks(table, *_CSV)).split("\n")
    assert lines.pop(0) == ""  # each row opens with the newline that ends the one before
    for got, row, expected in zip(lines, table.tolist(), _reference_rows(table), strict=True):
        assert got == expected, row


@st.composite
def kernel_tables(draw) -> np.ndarray:
    """(m, 12) tables of kernel_values where magnitudes repeat across rows
    and columns: constant columns, rho10 = conj(rho01) bit for bit in some
    rows only, +-0.0 and values Python formats in rho01's place."""
    m = draw(st.integers(1, 40))
    pool = np.array(draw(st.lists(kernel_values, min_size=1, max_size=24)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    table = rng.choice(pool, (m, 12))
    for j in draw(st.sets(st.integers(0, 11))):  # constant columns
        table[:, j] = table[0, j]
    for re, im in draw(st.lists(st.tuples(kernel_values, st.sampled_from(
            [0.0, -0.0, 5e-324, -1e-300, 1e300, -np.inf, np.nan, 0.5])), max_size=m)):
        i = draw(st.integers(0, m - 1))
        table[i, 3], table[i, 4] = re, im
    paired = draw(arrays(bool, m))
    table[paired, 5] = table[paired, 3]
    table[paired, 6] = -table[paired, 4]
    return table


@settings(max_examples=300, deadline=None)
@given(kernel_tables())
def test_csv_blocks_match_percent_17g(table):
    _check_csv_blocks(table)


@settings(max_examples=200, deadline=None)
@given(st.lists(kernel_values, min_size=1, max_size=600))
def test_csv_kernel_matches_percent_17g(values):
    # each value 12 times, in several columns
    _check_csv_blocks(np.resize(np.array(values), (len(values), 12)))


def test_csv_kernel_near_powers_of_ten():
    values = np.concatenate([NEAR_POWERS, -NEAR_POWERS, [0.0, -0.0]])
    _check_csv_blocks(np.column_stack([values] + [values[::-1]] * 11))


@pytest.mark.parametrize("n", [0, 1, 1025])
def test_csv_writer_matches_reference_on_kernel_values(n, tmp_path):
    """A series of values near powers of ten, in no block, one or five, with
    a Hermitian pair in its odd rows only, writes the reference bytes."""
    rng = np.random.default_rng(n)
    cols = rng.choice(NEAR_POWERS, (n, 11)) * rng.choice([1.0, -1.0], (n, 11))
    cols[1::2, 4], cols[1::2, 5] = cols[1::2, 2], -cols[1::2, 3]
    rho = np.ascontiguousarray(cols[:, :8]).view(complex).reshape(n, 2, 2)
    s = TimeSeries(t=np.arange(n, dtype=float), rho=rho, purity=cols[:, 8], c_l1=cols[:, 9],
                   c_frob=np.full(n, 0.5))
    _check_writers(s, tmp_path)


@pytest.mark.parametrize("fmt, bound_mb", [("csv", 8.0), ("json", 8.0)])
def test_writer_peak_memory(fmt, bound_mb, tmp_path):
    """Writing a 16385-row trajectory holds about one block of text: the peak
    traced allocation is about 2 MB in either format, where building the
    whole text took about 10 MB (CSV) and 52 MB (JSON)."""
    t = np.linspace(0.0, 40.0, 16385)
    s = build_series(t, rabi_rho(RabiParams(e_g=-0.1, e_e=1.2, omega0=-0.9,
                                            coupling=0.3 - 0.4j), t))
    tracemalloc.start()
    try:
        FILE_WRITERS[fmt](s, tmp_path / "series")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound_mb * 1e6


@settings(max_examples=200, deadline=None)
@given(valid_series())
@example(_valid_edge_series())
def test_series_csv_round_trip(s):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "series.csv"
        write_series_csv(s, path)
        back = read_series_csv(path)
    for name in ("t", "rho", "purity", "c_l1", "c_frob"):
        assert _same_bits(np.ascontiguousarray(getattr(s, name)), getattr(back, name)), name


@settings(max_examples=100, deadline=None)
@given(series())
@example(_edge_series())
def test_states_only_csv_round_trip(s):
    # the nine-column header: t plus the eight rho components
    lines = _text(s, "csv").split("\n")
    text = "\n".join(",".join(ln.split(",")[:9]) for ln in lines)
    assert lines[0].split(",")[:9] == list(CSV_FIELDS[:9])
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "states.csv"
        path.write_text(text, encoding="ascii")
        t, rho = read_states_csv(path)
    assert _same_bits(np.ascontiguousarray(s.t), t)
    assert _same_bits(np.ascontiguousarray(s.rho), rho)


def test_series_csv_rejects_a_corrupted_row(tmp_path):
    t = np.linspace(0.0, 1.0, 6)
    rho = np.tile(np.array([[0.5, 0.5j], [-0.5j, 0.5]]), (6, 1, 1))
    path = tmp_path / "series.csv"
    write_series_csv(TimeSeries(t=t, rho=rho, purity=np.ones(6), c_l1=np.ones(6),
                                c_frob=np.ones(6)), path)
    assert np.array_equal(read_series_csv(path).rho, rho)
    lines = path.read_text().split("\n")
    fields = lines[4].split(",")  # the fourth sample, file row 5
    fields[1] = "0.9"  # rho00: trace 1.4
    lines[4] = ",".join(fields)
    path.write_text("\n".join(lines))
    with pytest.raises(ConfigInvalid, match=r"^row 5 of .*series\.csv: \|trace - 1\| = 4\.000e-01"):
        read_series_csv(path)


@pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
@pytest.mark.parametrize("reader", [read_series_csv, read_states_csv])
def test_readers_reject_non_finite_values(reader, value, tmp_path):
    row = ["0.5", "0", "0", "0", "0", "0", "0", "0.5", "0", "0.5", "0", "0.70710678118654757"]
    bad = ["1", *row[1:10], value, row[11]]  # c_l1, which check_states never looks at
    path = tmp_path / "series.csv"
    path.write_text("\n".join([CSV_HEADER, ",".join(row), ",".join(bad)]) + "\n")
    with pytest.raises(ConfigInvalid, match=rf"^row 3 of .*series\.csv: c_l1 = {value} is not finite$"):
        reader(path)


@pytest.mark.parametrize("times, message", [
    ([0, 2, 1, 3], "row 4 of {}: t = 1.0 does not exceed the previous row's t = 2.0"),
    ([0, 1, 1, 3], "row 4 of {}: t = 1.0 does not exceed the previous row's t = 1.0"),
], ids=["swapped", "repeated"])
@pytest.mark.parametrize("reader", [read_series_csv, read_states_csv])
def test_readers_reject_unsorted_times(reader, times, message, tmp_path):
    row = "0.5,0,0,0,0,0,0.5,0,0.5,0,0.70710678118654757"
    path = tmp_path / "series.csv"
    path.write_text("\n".join([CSV_HEADER, *(f"{t},{row}" for t in times)]) + "\n")
    with pytest.raises(ConfigInvalid) as err:
        reader(path)
    assert str(err.value) == message.format(path)


def test_reader_peak_memory(tmp_path):
    """Reading a 16385-row trajectory streams its lines into one buffer of
    doubles: the peak traced allocation is about 2.6 MB, where holding the
    whole text and its lines took about 8.8 MB."""
    t = np.linspace(0.0, 40.0, 16385)
    s = build_series(t, rabi_rho(RabiParams(e_g=-0.1, e_e=1.2, omega0=-0.9,
                                            coupling=0.3 - 0.4j), t))
    path = tmp_path / "series.csv"
    write_series_csv(s, path)
    tracemalloc.start()
    try:
        back_t, back_rho = read_states_csv(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8.0 * 1e6
    assert _same_bits(back_t, s.t) and _same_bits(back_rho, s.rho)


def _blank_lined_csv(path: Path, n: int) -> list[str]:
    """Write n valid rows with blank lines after the header and among the
    rows (CRLF line ends on some); return the non-blank lines."""
    lines = [CSV_HEADER] + [f"{i},0.5,0,0,0,0,0,0.5,0,0.5,0,0.70710678118654757"
                            for i in range(n)]
    text = ""
    for i, ln in enumerate(lines):
        text += ln + ("\r\n" if i % 7 == 3 else "\n") + ("\n" if i % 1000 == 1 else "")
    path.write_bytes(text.encode("ascii"))
    return lines


def test_reader_skips_blank_lines(tmp_path):
    path = tmp_path / "series.csv"
    _blank_lined_csv(path, 9000)
    back = read_series_csv(path)
    assert _same_bits(back.t, np.arange(9000.0))


@pytest.mark.parametrize("row", [3, 4098, 9001])
@pytest.mark.parametrize("defect, message", [
    (lambda ln: ln.rsplit(",", 1)[0], "has 11 fields, expected 12"),
    (lambda ln: ln.replace("0.5", "x", 1), ": could not convert string to float: 'x'"),
    (lambda ln: ln.replace("0.5", "nan", 1), ": rho00_re = nan is not finite"),
])
def test_reader_names_the_row(row, defect, message, tmp_path):
    # row counts the non-blank lines of the file, the header being row 1
    path = tmp_path / "series.csv"
    lines = _blank_lined_csv(path, 9000)
    lines[row - 1] = defect(lines[row - 1])
    path.write_text("\n\n".join(lines), encoding="ascii")
    with pytest.raises(ConfigInvalid) as err:
        read_series_csv(path)
    assert str(err.value) == f"row {row} of {path}" + (" " if "fields" in message else "") + message


# reference table reader: one float() per field of every non-blank line
def reference_table(path: Path, headers: tuple[str, ...]) -> np.ndarray:
    with open(path, encoding="ascii") as f:
        lines = [ln for ln in (raw.rstrip("\n") for raw in f) if ln]
    header = lines[0] if lines else ""
    if header not in headers:
        expected = " or ".join(repr(h) for h in headers)
        got = f", got {header!r}" if len(headers) == 1 else ""
        raise ConfigInvalid(f"CSV header mismatch in {path}: expected {expected}{got}")
    ncols = header.count(",") + 1
    rows = []
    for row, ln in enumerate(lines[1:], 2):
        parts = ln.split(",")
        if len(parts) != ncols:
            raise ConfigInvalid(f"row {row} of {path} has {len(parts)} fields, expected {ncols}")
        try:
            rows.append([float(p) for p in parts])
        except ValueError as exc:
            raise ConfigInvalid(f"row {row} of {path}: {exc}") from exc
    data = np.array(rows, dtype=float).reshape(-1, ncols)
    for i, j in np.ndindex(data.shape):
        if not np.isfinite(v := float(data[i, j])):
            raise ConfigInvalid(f"row {i + 2} of {path}: {header.split(',')[j]} = {v!r} "
                                "is not finite")
    for i in range(1, len(data)):
        if not data[i, 0] > data[i - 1, 0]:
            raise ConfigInvalid(f"row {i + 2} of {path}: t = {float(data[i, 0])!r} does not "
                                f"exceed the previous row's t = {float(data[i - 1, 0])!r}")
    return data


STATES_HEADER = ",".join(CSV_FIELDS[:9])
TABLE_HEADERS = (CSV_HEADER, STATES_HEADER)
# what float() and np.loadtxt may read differently: underscores, whitespace
# numpy strips (\x1c-\x1f) or float() strips, comment and quote characters
ODD = ["_", " ", "\t", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f", "#", '"']
SPELLINGS = ["inf", "-inf", "+INF", "nan", "-nan", "NaN", "Infinity", "-infinity", "iNfInItY",
             "infinit", "nana"]
field = st.one_of(
    finite.map(repr), finite.map(fmt17), st.sampled_from(SPELLINGS),
    st.text(st.sampled_from(list("0123456789+-.eE") + ODD), max_size=6),
    st.builds(lambda a, odd, b: a + odd + b, st.sampled_from(["1", "0.5", "-2e3", ""]),
              st.sampled_from(ODD), st.sampled_from(["0", "5", ""])))


@st.composite
def csv_texts(draw) -> str:
    """A header and rows of mostly the header's field count, on LF, CRLF or
    CR line ends, with blank lines anywhere."""
    header = draw(st.sampled_from(TABLE_HEADERS + ("t,rho00_re", "")))
    ncols = header.count(",") + 1
    plain = draw(st.booleans())  # only numbers of the header's count: the fast path
    rows = draw(st.lists(st.lists(finite.map(fmt17) if plain else field,
                                  min_size=ncols if plain else ncols - 1,
                                  max_size=ncols if plain else ncols + 1), max_size=6))
    lines = [header, *(",".join(r) for r in rows)]
    ends = st.sampled_from(["\n", "\n", "\r\n", "\r", "\n\n", "\r\n\r\n"])
    return "".join(ln + draw(ends) for ln in lines)[:None if draw(st.booleans()) else -1]


def _outcome(read, path: Path):
    try:
        return read(path, TABLE_HEADERS)
    except ConfigInvalid as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(csv_texts())
@example(STATES_HEADER + "\n" + ",".join(["1_0"] * 9) + "\n")
@example(STATES_HEADER + "\r\n\r\n" + ",".join([" 1\x1c"] * 9) + "\r\n")
@example(STATES_HEADER + "\n" + ",".join(["\x1f1"] * 9) + "\n")
@example("\n\n" + STATES_HEADER + "\n\n")
@example(STATES_HEADER + "\n" + ",".join(["-nan"] * 9))
@example(STATES_HEADER + "\n" + ",".join(["1e999"] + ["0"] * 8) + "\n")
@example(STATES_HEADER + ("\n" + ",".join(["0"] * 9)) * 2 + "\n")
def test_table_reader_matches_reference(text):
    with tempfile.TemporaryDirectory() as d:
        path = Path(d) / "table.csv"
        path.write_bytes(text.encode("ascii"))
        got, expected = _outcome(_read_table, path), _outcome(reference_table, path)
    assert type(got) is type(expected)
    if isinstance(expected, str):
        assert got == expected
    else:
        assert _same_bits(np.ascontiguousarray(got), expected)


# reference drive loader: one Python check and conversion per record
def reference_sampled(records: list) -> Sampled:
    if not isinstance(records, list) or not records:
        raise ConfigInvalid('"samples" must be a non-empty array')
    times = np.empty(len(records))
    mats = np.empty((len(records), 2, 2), dtype=complex)
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            raise ConfigInvalid(f"samples[{i}] must be an object")
        unknown = set(rec) - set(DRIVE_FIELDS)
        if unknown:
            raise ConfigInvalid(f"samples[{i}] has unknown keys {sorted(unknown)}")
        missing = set(DRIVE_FIELDS) - set(rec)
        if missing:
            raise ConfigInvalid(f"samples[{i}] is missing keys {sorted(missing)}")
        vals = {}
        for k in DRIVE_FIELDS:
            v = rec[k]
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                raise ConfigInvalid(f"samples[{i}].{k} must be a number, got {v!r}")
            vals[k] = float(v)
        times[i] = vals["t"]
        mats[i, 0, 0] = vals["h00_re"] + 1j * vals["h00_im"]
        mats[i, 0, 1] = vals["h01_re"] + 1j * vals["h01_im"]
        mats[i, 1, 0] = vals["h10_re"] + 1j * vals["h10_im"]
        mats[i, 1, 1] = vals["h11_re"] + 1j * vals["h11_im"]
    try:
        return Sampled(times=times, matrices=mats)
    except BadParam as exc:
        raise ConfigInvalid(f"invalid sampled drive: {exc}") from exc


# JSON numbers: doubles of every size, ints beyond int64 (rounded to a
# double), floats with integer values and both zeros
numbers = st.one_of(finite, st.integers(-2**64, 2**64), st.integers(-2**1023, 2**1023),
                    st.integers(-2**60, 2**60).map(float), st.sampled_from([0, 0.0, -0.0]))
zeros = st.sampled_from([0, 0.0, -0.0])


class FloatLike(float):
    pass


@st.composite
def drive_records(draw) -> list:
    """Records of a valid (Hermitian, increasing) drive, keys in any order;
    some are a dict subclass or hold a float subclass, which the loader
    accepts too."""
    times = sorted(draw(st.lists(numbers, min_size=1, max_size=12, unique_by=float)), key=float)
    records = []
    for t in times:
        re01, im01 = draw(numbers), draw(numbers)
        rec = {"t": t, "h00_re": draw(numbers), "h00_im": draw(zeros), "h01_re": re01,
               "h01_im": im01, "h10_re": re01, "h10_im": -im01, "h11_re": draw(numbers),
               "h11_im": draw(zeros)}
        rec = {k: rec[k] for k in draw(st.permutations(DRIVE_FIELDS))}
        kind = draw(st.sampled_from(["dict"] * 8 + ["subclass", "float-like"]))
        if kind == "subclass":
            rec = OrderedDict(rec)
        elif kind == "float-like":
            rec["h11_re"] = FloatLike(rec["h11_re"])
        records.append(rec)
    return records


@settings(max_examples=200, deadline=None)
@given(drive_records())
@example([dict(zip(DRIVE_FIELDS, [-MAX, -0.0, -0.0, MAX, SUBNORMAL, MAX, -SUBNORMAL, -0.0, 0])),
          dict(zip(DRIVE_FIELDS, [MAX, 2**1023, 0, -0.0, 2**64 + 1, -0.0, -2**64 - 1, 3.0, -0.0]))])
def test_drive_loader_matches_reference(records):
    drive, expected = sampled_from_records(records), reference_sampled(records)
    assert _same_bits(np.ascontiguousarray(drive.times), expected.times)
    assert _same_bits(np.ascontiguousarray(drive.matrices), expected.matrices)


REC = dict.fromkeys(DRIVE_FIELDS, 0.0)
HUGE = 10**400  # an int no double holds


@pytest.mark.parametrize("records, message", [
    ({"t": 0.0}, '"samples" must be a non-empty array'),
    ([], '"samples" must be a non-empty array'),
    ([REC, [0.0] * 9], "samples[1] must be an object"),
    ([dict(REC, t=1.0, x=1, a=2)], "samples[0] has unknown keys ['a', 'x']"),
    ([{k: 0.0 for k in DRIVE_FIELDS[:3]}], "samples[0] is missing keys "
     "['h01_im', 'h01_re', 'h10_im', 'h10_re', 'h11_im', 'h11_re']"),
    ([REC, dict(REC, h01_re=True)], "samples[1].h01_re must be a number, got True"),
    ([dict(REC, h10_im="1.0")], "samples[0].h10_im must be a number, got '1.0'"),
    ([dict(REC, t=None)], "samples[0].t must be a number, got None"),
    ([dict(REC, h11_im=HUGE)], "samples[0].h11_im must fit a double, got an integer of 1329 bits"),
    # the first bad field in DRIVE_FIELDS order, in the lowest-indexed bad record
    ([REC, dict(REC, h11_im="x", t=None), dict(REC, h00_re=None)],
     "samples[1].t must be a number, got None"),
    ([REC, dict(REC, t=HUGE), 3, dict(REC, x=1)],
     "samples[1].t must fit a double, got an integer of 1329 bits"),
    ([REC, dict(REC, t=1.0), dict(REC, x=1), dict(REC, t=HUGE)],
     "samples[2] has unknown keys ['x']"),
    ([REC, dict(REC, t=-1.0)], "invalid sampled drive: sample times must be strictly increasing"),
], ids=["non-list", "empty", "non-object", "unknown-key", "missing-key", "bool", "string", "null",
        "huge-int", "first-field", "lowest-index", "lowest-index-quick", "drive-check"])
def test_drive_loader_messages(records, message):
    with pytest.raises(ConfigInvalid) as err:
        sampled_from_records(records)
    assert str(err.value) == message
    if "must fit a double" not in message:  # the reference loop overflows there
        with pytest.raises(ConfigInvalid) as err:
            reference_sampled(records)
        assert str(err.value) == message


@pytest.mark.parametrize("data", [b"1" + b"0" * 5000, b'{"samples": [}', b'"\xff"'],
                         ids=["5001-digit-int", "bad-json", "bad-utf8"])
def test_unreadable_drive_file(data, tmp_path):
    # the long int and the bad byte raise ValueErrors that are no JSONDecodeError
    path = tmp_path / "drive.json"
    path.write_bytes(data)
    with pytest.raises(ConfigInvalid, match=rf"^cannot read drive file {re.escape(str(path))}: "):
        read_sampled_drive(path)
