import numpy as np
import pytest
from scipy.interpolate import PchipInterpolator

from solarinvest import IntegrationError
from solarinvest.interp import MonotoneCubic


def knots(rng, n, kind):
    x = np.cumsum(rng.uniform(0.01, 1.0, n))
    if kind == "increasing":
        y = np.cumsum(rng.uniform(0.0, 1.0, n))
    elif kind == "plateau":
        y = np.cumsum(rng.uniform(0.0, 1.0, n))
        y[n // 2:] = y[n // 2]
    else:
        y = rng.normal(size=n)
    return x, y


class TestMonotoneCubic:
    @pytest.mark.parametrize("kind", ["increasing", "plateau", "wiggly"])
    @pytest.mark.parametrize("n", [2, 3, 4, 17])
    def test_matches_scipy_pchip(self, kind, n):
        rng = np.random.default_rng(n)
        for _ in range(10):
            x, y = knots(rng, n, kind)
            xq = np.concatenate([np.linspace(x[0] - 0.5, x[-1] + 0.5, 301), x])
            want = PchipInterpolator(x, y, extrapolate=False)(xq)
            got = MonotoneCubic(x, y)(xq)
            assert np.array_equal(np.isnan(got), np.isnan(want))
            inside = ~np.isnan(want)
            assert np.all(np.abs(got[inside] - want[inside])
                          <= 1e-14 * np.maximum(1.0, np.abs(want[inside])))

    def test_passes_through_knots_and_is_nan_outside(self):
        x, y = knots(np.random.default_rng(0), 9, "increasing")
        itp = MonotoneCubic(x, y)
        np.testing.assert_allclose(itp(x), y, rtol=1e-15, atol=1e-15)
        for q in (x[0] - 1e-9, x[-1] + 1e-9, np.nan):
            assert np.isnan(itp(q))

    def test_monotone_data_give_monotone_curve(self):
        x, y = knots(np.random.default_rng(1), 30, "plateau")
        vals = MonotoneCubic(x, y)(np.linspace(x[0], x[-1], 5001))
        assert np.all(np.diff(vals) >= -1e-14)

    @pytest.mark.parametrize("x", [[0.0, 1.0, 1.0, 2.0], [0.0, 2.0, 1.0], [0.0, np.nan, 1.0]])
    def test_knots_must_strictly_increase(self, x):
        with pytest.raises(IntegrationError):
            MonotoneCubic(x, np.arange(len(x), dtype=float))

    def test_subnormal_secants_raise_no_warning(self):
        # a decaying tail that underflows into the subnormal range: the harmonic
        # mean's w / m overflows, and the slope falls back to 0 as in SciPy
        x = np.linspace(0.0, 0.5, 6)
        y = np.array([1.8e-307, 1.4e-308, 1.0e-309, 6.9e-311, 3.5e-312, 1.3e-319])
        itp = MonotoneCubic(x, y)
        xq = np.linspace(0.0, 0.5, 101)
        vals = itp(xq)
        assert np.isfinite(vals).all()
        assert np.all(np.diff(vals) <= 0.0)
        assert np.array_equal(itp(x), y)
