"""Coherence measures for qubit density matrices.

Two measures, both taken in the fixed computational basis:

* l1 norm: sum of off-diagonal magnitudes, |rho01| + |rho10|.  Basis
  dependent; 0 for diagonal states, 1 for the maximally coherent pure state.
* Frobenius norm: normalized distance from the maximally mixed state,
  C_F = sqrt(1 + 4|rho01|^2 - 4 rho00 rho11).  Basis independent; equals 1
  for every pure qubit state and 0 for diag(1/2, 1/2).

For the square-pulse drive the l1 measure has the closed form

    C_l1(t) = (2 f0 / (1 + f0^2)) sqrt(sin^2(eps0 tau) (1 + f0^2 cos^2(eps0 tau)))

which peaks at 2 f0/(1+f0^2) when f0 <= 1 and reaches exactly 1 (twice per
half-period) when f0 >= 1, while the Frobenius measure stays constant at 1.
"""
from __future__ import annotations

from math import sqrt
from typing import Callable

import numpy as np

from .core import Scan, TimeSeries, scan_rho
from .pulse import PulseParams, reduced_time


def l1_columns(rho: np.ndarray) -> np.ndarray:
    """|rho01| + |rho10| of each matrix in a (..., 2, 2) array, each |z| as libm hypot."""
    r01, r10 = rho[..., 0, 1], rho[..., 1, 0]
    return np.hypot(r01.real, r01.imag) + np.hypot(r10.real, r10.imag)


def l1_pulse_closed_form(p: PulseParams, t: np.ndarray | float) -> np.ndarray | float:
    """Closed-form l1 coherence of the square-pulse solution at time(s) t:
    a float for scalar t, an array of t's shape otherwise."""
    tau, _ = reduced_time(p, t)
    f0 = p.f0
    arg = p.eps0 * tau
    sin, cos = np.sin(arg), np.cos(arg)
    c = 2.0 * f0 / (1.0 + f0 * f0) * np.sqrt(sin * sin * (1.0 + f0 * f0 * (cos * cos)))
    return c if np.ndim(t) else float(c)


def build_series(t: np.ndarray, rho: np.ndarray, scan: Scan | None = None) -> TimeSeries:
    """Assemble a TimeSeries from an (n, 2, 2) array of validated states, with
    the purity and both coherence columns of ``scan`` (scan_rho(rho) if None)."""
    rho = np.asarray(rho, dtype=complex)
    scan = scan_rho(rho) if scan is None else scan
    return TimeSeries(t=np.asarray(t, dtype=float), rho=rho, purity=scan.purity,
                      c_l1=scan.c_l1, c_frob=scan.c_frob)


def _fminbound(f: Callable[[float], float], a: float, b: float, xatol: float) -> float:
    """Minimum value of f on [a, b] by Brent's bounded minimiser (Brent 1973,
    *Algorithms for Minimization Without Derivatives*, ch. 5): parabolic
    interpolation with a golden-section fallback.

    Statement for statement the reference ``fminbound`` implementation
    (500 evaluations at most, no display or status), numpy scalar operations
    included, so the returned f value equals the reference's bit for bit;
    tests/test_coherence.py compares the two.
    """
    maxfun = 500
    sqrt_eps = sqrt(2.2e-16)
    golden_mean = 0.5 * (3.0 - sqrt(5.0))
    fulc = a + golden_mean * (b - a)
    nfc, xf = fulc, fulc
    rat = e = 0.0
    x = xf
    fx = f(x)
    num = 1

    ffulc = fnfc = fx
    xm = 0.5 * (a + b)
    tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
    tol2 = 2.0 * tol1

    while (np.abs(xf - xm) > (tol2 - 0.5 * (b - a))):
        golden = 1
        # parabolic fit through the three best points
        if np.abs(e) > tol1:
            golden = 0
            r = (xf - nfc) * (fx - ffulc)
            q = (xf - fulc) * (fx - fnfc)
            p = (xf - fulc) * q - (xf - nfc) * r
            q = 2.0 * (q - r)
            if q > 0.0:
                p = -p
            q = np.abs(q)
            r = e
            e = rat

            # accept the parabola only inside the bracket and shrinking
            if ((np.abs(p) < np.abs(0.5 * q * r)) and (p > q * (a - xf))
                    and (p < q * (b - xf))):
                rat = (p + 0.0) / q
                x = xf + rat
                if ((x - a) < tol2) or ((b - x) < tol2):
                    si = np.sign(xm - xf) + ((xm - xf) == 0)
                    rat = tol1 * si
            else:
                golden = 1

        if golden:  # golden-section step into the larger segment
            if xf >= xm:
                e = a - xf
            else:
                e = b - xf
            rat = golden_mean * e

        si = np.sign(rat) + (rat == 0)
        x = xf + si * np.maximum(np.abs(rat), tol1)
        fu = f(x)
        num += 1

        if fu <= fx:
            if x >= xf:
                a = xf
            else:
                b = xf
            fulc, ffulc = nfc, fnfc
            nfc, fnfc = xf, fx
            xf, fx = x, fu
        else:
            if x < xf:
                a = x
            else:
                b = x
            if (fu <= fnfc) or (nfc == xf):
                fulc, ffulc = nfc, fnfc
                nfc, fnfc = x, fu
            elif (fu <= ffulc) or (fulc == xf) or (fulc == nfc):
                fulc, ffulc = x, fu

        xm = 0.5 * (a + b)
        tol1 = sqrt_eps * np.abs(xf) + xatol / 3.0
        tol2 = 2.0 * tol1

        if num >= maxfun:
            break

    return fx


def refine_max(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
               samples: int = 4096, *, scan: np.ndarray | None = None) -> float:
    """Maximum of a smooth scalar function on [lo, hi]: dense scan plus a
    bounded local polish around the best grid point.

    ``fn`` must accept both an array of times (the scan calls it once on
    the whole grid) and a single float (the polish).  A caller that already
    holds ``fn``'s values on ``linspace(lo, hi, samples + 1)`` passes them
    as ``scan`` and the scan call is skipped.  The scan guards against the
    polish settling in a secondary lobe; the polish removes the O(grid^2)
    bias of the bare scan.
    """
    ts = np.linspace(lo, hi, samples + 1)
    vals = np.asarray(fn(ts) if scan is None else scan, dtype=float)
    i = int(np.argmax(vals))
    a, b = ts[max(i - 1, 0)], ts[min(i + 1, samples)]
    if a == b:
        return float(vals[i])
    fx = _fminbound(lambda t: -fn(t), a, b, xatol=1e-14)
    return float(max(vals[i], -fx))
