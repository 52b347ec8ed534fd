"""CSV round trip: any finite doubles survive write and re-read bit for bit;
read_series_csv also rejects rows that are not density matrices."""
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qdrive import ConfigInvalid, TimeSeries
from qdrive.io import CSV_FIELDS, read_series_csv, read_states_csv, series_csv_text, write_series_csv

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
    lines = series_csv_text(s).split("\n")
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
