"""The one-pass batch check scan_rho against the four passes it replaced:
the validation verdict (same index, error type and message) and the purity,
l1 and Frobenius columns (equal bit for bit, signed zeros and NaN included),
over random batches of valid, broken and non-finite states."""
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from qdrive import (BadParam, DensityMatrix, DiscriminantNegative, InvariantDrift, NotHermitian,
                    NotPositive, QdriveError, TraceNotOne, build_series)
from qdrive.core import TOL, TOL_RUNTIME, scan_rho


# ---- the reference: the validation pass, purities, l1_columns and frobenius_columns
# as they were before scan_rho fused them, squares taken as products

def cabs(z):
    return np.hypot(z.real, z.imag)


def reference_validate(rho, tol=TOL, drift=False):
    m = np.asarray(rho, dtype=complex).reshape(-1, 2, 2)
    r00, r11 = m[:, 0, 0].real, m[:, 1, 1].real
    with np.errstate(invalid="ignore", over="ignore"):
        herm = np.maximum(cabs(m[:, 1, 0] - np.conj(m[:, 0, 1])),
                          np.maximum(np.abs(m[:, 0, 0].imag), np.abs(m[:, 1, 1].imag)))
        tr_err = np.abs(r00 + r11 - 1.0)
        tr_drift = cabs(m[:, 0, 0] + m[:, 1, 1] - 1.0)
        d, a01 = (r00 - r11) / 2.0, cabs(m[:, 0, 1])
        disc = np.sqrt(d * d + a01 * a01)
        lam_min = (r00 + r11) / 2.0 - disc
    drifted = (tr_drift > tol) | (herm > tol) if drift else np.zeros(len(m), dtype=bool)
    finite = np.isfinite(m).all(axis=(1, 2))
    failing = drifted | ~finite | (herm > tol) | (tr_err > tol) | (lam_min < -tol)
    if not failing.any():
        return None
    i = int(np.argmax(failing))
    if drifted[i]:
        error = InvariantDrift(
            f"trace drift {tr_drift[i]:.3e}, Hermiticity drift {herm[i]:.3e} (limit {tol:g})")
    elif not finite[i]:
        error = BadParam(f"density-matrix entry must be finite, got {m[i].tolist()!r}")
    elif herm[i] > tol:
        error = NotHermitian(f"Hermiticity violation {herm[i]:.3e} exceeds {tol:.1e}")
    elif tr_err[i] > tol:
        error = TraceNotOne(f"|trace - 1| = {tr_err[i]:.3e} exceeds {tol:.1e}")
    else:
        error = NotPositive(f"smallest eigenvalue {lam_min[i]:.3e} below -{tol:.1e}")
    return i, error


def reference_purities(rho):
    r00, r11, a01 = rho[..., 0, 0].real, rho[..., 1, 1].real, cabs(rho[..., 0, 1])
    return r00 * r00 + r11 * r11 + 2.0 * (a01 * a01)


def reference_l1(rho):
    return cabs(rho[..., 0, 1]) + cabs(rho[..., 1, 0])


def reference_frobenius(rho, tol=TOL):
    a01 = cabs(rho[..., 0, 1])
    radicand = np.asarray(1.0 + 4.0 * (a01 * a01) - 4.0 * rho[..., 0, 0].real * rho[..., 1, 1].real)
    floor = -(tol * (2.0 + tol) + 4.0 * math.ulp(1.0))
    bad = radicand < floor
    if bad.any():
        raise DiscriminantNegative(
            f"coherence radicand {radicand[bad][0]:.3e} below {floor:.3e} (tolerance {tol:g})")
    return np.sqrt(np.clip(radicand, 0.0, 1.0))


# ---- batches

SPECIAL = (np.nan, np.inf, -np.inf, 0.0, -0.0, 1.0, 0.5, -0.5, 1e308, -1e-300)
parts = st.one_of(st.floats(-2.0, 2.0), st.sampled_from(SPECIAL))


@st.composite
def valid_states(draw):
    """A density matrix from a Bloch vector of length <= 1, rounded as built."""
    x, y, z = (draw(st.floats(-1.0, 1.0)) for _ in range(3))
    norm = max(1.0, math.hypot(x, y, z))
    x, y, z = x / norm, y / norm, z / norm
    return np.array([[(1 + z) / 2, (x - 1j * y) / 2], [(x + 1j * y) / 2, (1 - z) / 2]])


def push(draw, m, size, kinds=("trace", "offdiag", "imagdiag", "psd", "special", "raw")):
    """m pushed by ``size`` past one invariant: trace, Hermiticity (off-diagonal
    or an imaginary diagonal), positivity, or one entry set to a special value."""
    kind = draw(st.sampled_from(kinds))
    if kind == "trace":
        m = m + size * np.eye(2)
    elif kind == "offdiag":
        m[1, 0] += size * draw(st.sampled_from([1.0, -1.0, 1j, -1j]))
    elif kind == "imagdiag":
        k = draw(st.integers(0, 1))
        m[k, k] += 1j * size
    elif kind == "psd":  # |rho01| past sqrt(rho00 rho11), or at size when that is negative
        phase = np.exp(1j * np.angle(m[0, 1]))
        r = math.sqrt(max(m[0, 0].real * m[1, 1].real, 0.0)) + size
        m[0, 1], m[1, 0] = r * phase, r * np.conj(phase)
    elif kind == "special":
        flat = m.reshape(4)
        k, value = draw(st.integers(0, 3)), draw(st.sampled_from(SPECIAL))
        flat[k] = complex(value, flat[k].imag) if draw(st.booleans()) else complex(flat[k].real, value)
    else:
        m = np.array([[complex(draw(parts), draw(parts)) for _ in range(2)] for _ in range(2)])
    return m


@st.composite
def broken_states(draw):
    """A valid state pushed past a tolerance."""
    size = draw(st.sampled_from([1e-13, 3e-12, 1e-9, 2e-8, 1e-3, 0.3]))
    return push(draw, draw(valid_states()), size)


@st.composite
def edge_states(draw, tol=TOL):
    """A valid state pushed up to four times, each push of either sign and at
    most 1.2 tol in size, toward the tol edges of trace, Hermiticity and
    positivity: a scan at tol accepts some of them and rejects others."""
    m = draw(valid_states())
    for _ in range(draw(st.integers(1, 4))):
        m = push(draw, m, draw(st.floats(-1.2 * tol, 1.2 * tol)),
                 ("trace", "offdiag", "imagdiag", "psd"))
    return m


batches = st.lists(st.one_of(valid_states(), broken_states()), min_size=0, max_size=8).map(
    lambda ms: np.array(ms, dtype=complex).reshape(-1, 2, 2))

TOLERANCES = [(TOL, False), (TOL_RUNTIME, False), (TOL_RUNTIME, True)]


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


def verdict(bad):
    return None if bad is None else (bad[0], type(bad[1]), str(bad[1]))


def outcome(f):
    """f()'s value, or the type and message of the QdriveError it raised."""
    try:
        return f()
    except QdriveError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("tols", TOLERANCES, ids=["default", "relaxed", "relaxed-drift"])
@settings(max_examples=300, deadline=None)
@given(rho=batches)
def test_scan_matches_the_four_passes(tols, rho):
    scan = scan_rho(rho, *tols)
    assert verdict(scan.bad) == verdict(reference_validate(rho, *tols))
    with np.errstate(all="ignore"):
        assert same_bits(scan.purity, reference_purities(rho))
        assert same_bits(scan.c_l1, reference_l1(rho))
        frob, expected = outcome(lambda: scan.c_frob), outcome(lambda: reference_frobenius(rho, tols[0]))
    if isinstance(expected, np.ndarray):
        assert same_bits(frob, expected)
    else:
        assert frob == expected


@pytest.mark.parametrize("tols", TOLERANCES, ids=["default", "relaxed", "relaxed-drift"])
@settings(max_examples=150, deadline=None)
@given(ms=st.lists(st.one_of(valid_states(), broken_states()), min_size=1, max_size=4))
def test_single_matrices_match(tols, ms):
    """(2, 2) inputs, the form DensityMatrix checks, behave like one-row batches."""
    for m in ms:
        assert verdict(scan_rho(m, *tols).bad) == verdict(reference_validate(m, *tols))


def test_each_failure_kind_is_named():
    ground = np.diag([1.0, 0.0]).astype(complex)
    cases = [
        (np.diag([0.6, 0.6]), TraceNotOne),
        (np.array([[0.5, 0.2], [0.3, 0.5]]), NotHermitian),
        (np.diag([0.5 + 1e-6j, 0.5]), NotHermitian),
        (np.array([[0.5, 0.6], [0.6, 0.5]]), NotPositive),
        (np.array([[np.nan, 0], [0, 1]]), BadParam),
        (np.array([[1, -np.inf], [0, 0]]), BadParam),
    ]
    for m, kind in cases:
        batch = np.array([ground, ground, m], dtype=complex)
        i, error = scan_rho(batch).bad
        assert (i, type(error)) == (2, kind)
        assert verdict(scan_rho(batch).bad) == verdict(reference_validate(batch))
    drifted = np.array([ground, ground + 2e-8 * np.eye(2)])
    assert type(scan_rho(drifted, TOL_RUNTIME, drift=True).bad[1]) is InvariantDrift
    assert type(scan_rho(drifted, TOL_RUNTIME).bad[1]) is TraceNotOne


@settings(max_examples=500, deadline=None)
@given(m=edge_states())
@example(m=np.diag([0.5 + 4.999e-13 + 1e-12j] * 2))  # drift 2.236e-12, radicand / 4 = -5.0e-13
# diag(1, 0) pushed in trace by -1.2e-12, then in positivity by 1e-12: the psd
# push meets rho00 rho11 < 0
@example(m=np.array([[1.0 - 1.2e-12, 1e-12], [1e-12, -1.2e-12]], dtype=complex))
def test_accepted_states_pass_the_runtime_checks(m):
    """What a state DensityMatrix accepts (every invariant within TOL) always
    satisfies: its drift is at most hypot(TOL, 2 TOL), inside TOL_RUNTIME, and
    its eigenvalue radicand is at least -TOL (2 + TOL)/4 before rounding."""
    try:
        DensityMatrix(m)
    except QdriveError:
        return
    assert scan_rho(m, TOL_RUNTIME, drift=True).bad is None
    scan = scan_rho(m)
    assert scan.radicand.item() / 4 >= -1e-12
    assert 0.0 <= scan.c_frob.item() <= 1.0


@settings(max_examples=500, deadline=None)
@given(m=edge_states(TOL_RUNTIME))
@example(m=np.diag([0.500000004] * 2).astype(complex))  # radicand -1.6e-8
@example(m=np.diag([0.5 + 5e-9] * 2).astype(complex))  # trace 1 + 1e-8, radicand -2.0e-8
def test_states_accepted_at_the_runtime_tolerance_have_a_frobenius_coherence(m):
    """A state within TOL_RUNTIME of unit trace has a Frobenius radicand of
    at least -TOL_RUNTIME (2 + TOL_RUNTIME) before rounding, which c_frob
    clamps to 0 rather than raising."""
    scan = scan_rho(m, TOL_RUNTIME)
    if scan.bad is None:
        assert 0.0 <= scan.c_frob.item() <= 1.0


def test_negative_zero_columns_and_empty_batch():
    m = np.array([[1.0, complex(-0.0, -0.0)], [complex(-0.0, 0.0), -0.0]])
    scan = scan_rho(m)
    assert scan.bad is None
    assert same_bits(scan.purity, [reference_purities(m)])
    assert same_bits(scan.c_frob, [reference_frobenius(m)])
    empty = scan_rho(np.empty((0, 2, 2), dtype=complex))
    assert empty.bad is None and empty.purity.shape == empty.c_l1.shape == (0,)


def test_frobenius_radicand_error_is_raised_by_build_series_only():
    # 1 - 4 rho00 rho11 = -2e-8: within what the 1e-8 trace tolerance admits,
    # far below what the 1e-12 one does, where the state fails the trace check
    m = np.diag([0.5 + 5e-9, 0.5 + 5e-9]).astype(complex)[None]
    assert scan_rho(m, TOL_RUNTIME).c_frob.tolist() == [0.0]
    scan = scan_rho(m)
    assert type(scan.bad[1]) is TraceNotOne
    with pytest.raises(DiscriminantNegative,
                       match=r"coherence radicand -2.000e-08 below -2.001e-12 \(tolerance 1e-12\)"):
        scan.c_frob
    with pytest.raises(DiscriminantNegative):
        build_series([0.0], m, scan)


def test_build_series_uses_a_given_scan():
    rho = np.array([np.diag([1.0, 0.0]), np.full((2, 2), 0.5)], dtype=complex)
    s = build_series([0.0, 1.0], rho)
    assert s.purity.tolist() == [1.0, 1.0] and s.c_l1.tolist() == [0.0, 1.0]
    given_scan = build_series([0.0, 1.0], rho, scan_rho(rho))
    for name in ("purity", "c_l1", "c_frob"):
        assert same_bits(getattr(s, name), getattr(given_scan, name))
