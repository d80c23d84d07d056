"""Monotone piecewise-cubic Hermite interpolation (PCHIP).

The slopes at the knots follow Fritsch & Butland: a weighted harmonic mean
of the neighbouring secants inside (zero where they change sign or one is
zero), and a one-sided three-point formula at each end, clamped so the
interpolant keeps the shape of the data.  These are the rules of SciPy's
``PchipInterpolator``, so the two agree to rounding.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationError


def _edge_slope(h0, h1, m0, m1):
    # three-point one-sided slope; zero if it points against the first
    # secant, at most 3x that secant if the data turn at the second knot
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


class MonotoneCubic:
    """Monotone cubic through (x, y); NaN outside [x[0], x[-1]].

    Raises :class:`IntegrationError` unless x is strictly increasing.
    Immutable after construction; safe for concurrent evaluation.
    """

    def __init__(self, x, y):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.size < 2:
            raise IntegrationError(
                f"interpolation needs two or more matching 1-d knots, got {x.shape}, {y.shape}")
        h = np.diff(x)
        if not np.all(h > 0.0):
            i = int(np.argmin(h > 0.0))
            raise IntegrationError(
                f"interpolation knots not strictly increasing at index {i}: "
                f"{x[i]!r} then {x[i + 1]!r}")
        m = np.diff(y) / h
        d = np.full_like(y, m[0])
        if x.size > 2:
            w1 = 2.0 * h[1:] + h[:-1]
            w2 = h[1:] + 2.0 * h[:-1]
            flat = (np.sign(m[1:]) != np.sign(m[:-1])) | (m[1:] == 0.0) | (m[:-1] == 0.0)
            with np.errstate(divide="ignore", invalid="ignore"):
                whmean = (w1 / m[:-1] + w2 / m[1:]) / (w1 + w2)
                d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
            d[0] = _edge_slope(h[0], h[1], m[0], m[1])
            d[-1] = _edge_slope(h[-1], h[-2], m[-1], m[-2])
        t = (d[:-1] + d[1:] - 2.0 * m) / h
        self._x = x
        self._inner = x[1:-1]
        # per-interval power coefficients of s = x - x_i, highest first
        self._c = np.stack([t / h, (m - d[:-1]) / h - t, d[:-1], y[:-1]])

    def __call__(self, xq):
        xq = np.asarray(xq, dtype=float)
        i = np.searchsorted(self._inner, xq, side="right")
        s = xq - self._x[i]
        c3, c2, c1, c0 = self._c[:, i]
        out = ((c3 * s + c2) * s + c1) * s + c0
        return np.where((xq >= self._x[0]) & (xq <= self._x[-1]), out, np.nan)
