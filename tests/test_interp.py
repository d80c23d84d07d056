import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

from solarinvest import IntegrationError
from solarinvest.interp import CubicHermite


def knots(rng, n):
    x = np.cumsum(rng.uniform(0.01, 1.0, n))
    return x, rng.normal(size=n), rng.normal(size=n)


class TestMonotoneCubic:
    """``CubicHermite``, the interpolant that replaced the monotone cubic."""

    @pytest.mark.parametrize("n", [2, 3, 4, 17])
    def test_matches_scipy_cubic_hermite(self, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            x, y, d = knots(rng, n)
            xq = np.concatenate([np.linspace(x[0] - 0.5, x[-1] + 0.5, 301), x])
            want = CubicHermiteSpline(x, y, d, extrapolate=False)(xq)
            got = CubicHermite(x, y, d)(xq)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            inside = ~np.isnan(want)
            assert np.all(np.abs(got[inside] - want[inside])
                          <= 1e-14 * np.maximum(1.0, np.abs(want[inside])))

    def test_passes_through_knots_and_is_nan_outside(self):
        x, y, d = knots(np.random.default_rng(0), 9)
        itp = CubicHermite(x, y, d)
        np.testing.assert_allclose(itp(x), y, rtol=1e-15, atol=1e-15)
        for q in (x[0] - 1e-9, x[-1] + 1e-9, np.nan):
            assert np.isnan(itp(q))

    def test_reproduces_cubics(self):
        # a cubic with its own slopes at the knots is its own interpolant
        x = np.cumsum(np.random.default_rng(2).uniform(0.1, 1.0, 12))
        xq = np.linspace(x[0], x[-1], 501)
        itp = CubicHermite(x, 2.0 * x**3 - x**2 + 3.0, 6.0 * x**2 - 2.0 * x)
        np.testing.assert_allclose(itp(xq), 2.0 * xq**3 - xq**2 + 3.0, rtol=1e-13)

    @pytest.mark.parametrize("x", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0], [0.0, np.nan, 1.0]])
    def test_knots_must_strictly_increase(self, x):
        with pytest.raises(IntegrationError):
            CubicHermite(x, np.arange(len(x), dtype=float), np.ones(len(x)))

    def test_slopes_must_match_knots(self):
        with pytest.raises(IntegrationError):
            CubicHermite([0.0, 1.0, 2.0], [0.0, 1.0, 2.0], [1.0, 1.0])
