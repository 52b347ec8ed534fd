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
``refine_max`` finds such a peak (the sweep's ``max_c_l1``) by a grid scan
and a resampling polish around the best grid point.
"""
from __future__ import annotations

from math import isfinite
from typing import Callable

import numpy as np

from .core import Scan, TimeSeries, scan_rho
from .errors import BadParam
from .pulse import PulseParams, reduced_time

#: Polish points per step of refine_max: each step shrinks its span by ZOOM / 2.
ZOOM = 128


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


def refine_max(fn: Callable[[np.ndarray], np.ndarray], lo: float, hi: float,
               samples: int = 4096, *, scan: np.ndarray | None = None) -> float:
    """Maximum of a smooth scalar function on [lo, hi]: a dense scan, then a
    polish that resamples around the best point found so far.

    ``fn`` maps an array of times to their values.  The scan calls it once on
    ``linspace(lo, hi, samples + 1)``, unless the caller passes those values
    as ``scan``.  From the best node ``t`` and the grid spacing ``h``, each
    polish step calls it once on ``ZOOM + 1`` points over ``[t - h, t + h]``
    (clipped to [lo, hi]), moves ``t`` to the best and takes their spacing as
    ``h``, until ``h <= 1e-9 (hi - lo)``: a smooth peak is then missed by less
    than 1e-18 of its curvature times (hi - lo)^2.  The scan keeps the polish
    out of secondary lobes; the result, the largest value seen, is never below
    the grid maximum.  A nan value, of ``fn`` or in ``scan``, raises BadParam
    naming its t.
    """
    if not isinstance(samples, (int, np.integer)) or samples < 1:
        raise BadParam(f"samples must be an integer >= 1, got {samples!r}")
    if not (isfinite(lo) and isfinite(hi - lo) and hi >= lo):
        raise BadParam(f"lo = {lo!r}, hi = {hi!r}: lo, hi and hi - lo must be finite and lo <= hi")
    pts, h = np.linspace(lo, hi, samples + 1), (hi - lo) / samples
    vals = np.asarray(fn(pts) if scan is None else scan, dtype=float)
    if vals.shape != pts.shape:
        raise BadParam(f"scan must hold {samples + 1} values, got shape {vals.shape}")
    best, offsets = -np.inf, np.linspace(-1.0, 1.0, ZOOM + 1)
    while True:
        nan = np.isnan(vals)  # np.argmax would pick a nan
        if nan.any():
            raise BadParam(f"the value at t = {float(pts[nan.argmax()])!r} is nan")
        i = int(np.argmax(vals))
        t, best = pts[i], max(best, vals[i])
        if h <= 1e-9 * (hi - lo):
            return float(best)
        pts = np.clip(t + h * offsets, lo, hi)
        vals, h = np.asarray(fn(pts), dtype=float), 2.0 * h / ZOOM
