"""Piecewise-cubic Hermite interpolation on given slopes.

Each interval's cubic matches the values and the slopes the caller gives at
its two knots; nothing is estimated.  The solve knows the exact slopes of
the curves it interpolates (the ODE's right-hand side for the boundary, the
closed-form A' for the value coefficient), so between knots the error is
the cubic's O(h^4) alone.
"""

from __future__ import annotations

import numpy as np

from .errors import IntegrationError


class CubicHermite:
    """Cubic Hermite through (x, y) with slopes dydx; NaN outside [x[0], x[-1]].

    Raises :class:`IntegrationError` unless x is strictly increasing.
    Immutable after construction; safe for concurrent evaluation.
    """

    def __init__(self, x, y, dydx):
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        d = np.asarray(dydx, dtype=float)
        if x.ndim != 1 or x.shape != y.shape or x.shape != d.shape or x.size < 2:
            raise IntegrationError(
                f"interpolation needs two or more matching 1-d knots, got "
                f"{x.shape}, {y.shape}, {d.shape}")
        h = np.diff(x)
        if not np.all(h > 0.0):
            i = int(np.argmin(h > 0.0))
            raise IntegrationError(
                f"interpolation knots not strictly increasing at index {i}: "
                f"{x[i]!r} then {x[i + 1]!r}")
        m = np.diff(y) / h
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
