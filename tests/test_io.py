"""Series writers and readers.

The block writer gives the same bytes as the one-shot reference writers
below, CSV and JSON round trips keep any finite double bit for bit, and the
readers reject non-finite values and rows that are not density matrices."""
import io
import json
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdrive import ConfigInvalid, TimeSeries
from qdrive.coherence import build_series
from qdrive.io import (
    CSV_FIELDS,
    CSV_HEADER,
    read_series_csv,
    read_states_csv,
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


def reference_json(s: TimeSeries) -> str:
    return json.dumps([dict(zip(CSV_FIELDS, r)) for r in _table(s).tolist()], indent=1) + "\n"


REFERENCES = {"csv": reference_csv, "json": reference_json}
FILE_WRITERS = {"csv": write_series_csv, "json": write_series_json}


def _text(s: TimeSeries, fmt: str) -> str:
    out = io.StringIO()
    write_series(s, out, fmt)
    return out.getvalue()


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
    # JSON floats are shortest reprs, so JSON round-trips bit for bit too
    records = json.loads(_text(s, "json"))
    back = np.array([[rec[k] for k in CSV_FIELDS] for rec in records], dtype=float)
    assert _same_bits(back.reshape(len(s), len(CSV_FIELDS)), _table(s))


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


@pytest.mark.parametrize("fmt, bound_mb", [("csv", 8.0), ("json", 16.0)])
def test_writer_peak_memory(fmt, bound_mb, tmp_path):
    """Writing a 16385-row trajectory holds about one 4096-row block of text:
    the peak traced allocation is about 5 MB (CSV) and 7 MB (JSON), where
    building the whole text took about 10 MB and 52 MB."""
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
