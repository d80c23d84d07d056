import math

import numpy as np
import pytest

from solarinvest import (DomainError, FreeBoundary, FundamentalSolution, NumericalError,
                         ValueFunction, integrate_boundary, params_from_dict, r_partials,
                         r_value)
from solarinvest import value
from solarinvest.interp import CubicHermite

from conftest import central_diff, fuzz_draw, rel_err
from oracles import (a_alt, a_prime, a_prime_fit_form, d_tilde_forms, f_tilde_at,
                     growth_ratio, hjb_residual_two_pass, install_region_pde_closed_form,
                     partials_two_lookup, psi_derivs)


def interior_ys(params, n=10, lo=0.05, hi=0.95):
    return np.linspace(lo * params.y_bar, hi * params.y_bar, n)


class TestCoefficient:
    def test_vanishes_at_capacity(self, base):
        params, _, _, vf = base
        assert abs(vf.a(params.y_bar)) < 1e-8 * abs(vf.a(0.0))

    def test_positive_and_strictly_decreasing(self, base):
        params, _, fb, vf = base
        vals = vf.a_grid
        assert np.all(vals[:-1] > 0.0)
        assert np.all(np.diff(vals) < 0.0)

    def test_two_representations_agree(self, base):
        # smooth-fit form with explicit R-terms vs the Rtilde/Q0 form
        params, _, fb, vf = base
        for y in fb.ys[::100]:
            a_main = vf._a_pair(float(y), f_tilde_at(fb, float(y)))[0]
            # absolute floor handles the zero at y_bar, where both forms vanish
            assert abs(a_main - a_alt(vf, float(y))) < 1e-9 * (1.0 + abs(a_main))

    def test_derivative_matches_finite_difference(self, base):
        params, _, _, vf = base
        for y in interior_ys(params, 7, 0.1, 0.9):
            fd = central_diff(vf.a, float(y), 1e-5)
            assert rel_err(a_prime(vf, float(y)), fd) < 1e-5

    def test_derivative_matches_fit_form(self, base):
        params, _, _, vf = base
        for y in interior_ys(params):
            assert rel_err(a_prime(vf, float(y)), a_prime_fit_form(vf, float(y))) < 1e-7

    def test_derivative_negative(self, base):
        params, _, _, vf = base
        for y in interior_ys(params):
            assert a_prime(vf, float(y)) < 0.0

    def test_interpolant_slopes_are_the_closed_form(self, base, monkeypatch):
        # A is built on the closed-form A'(y_i) at the nodes, bit for bit
        params, fs, fb, vf = base
        built = []

        class Recorded(CubicHermite):
            def __init__(self, x, y, dydx):
                built.append((x, y, dydx))
                super().__init__(x, y, dydx)

        monkeypatch.setattr(value, "CubicHermite", Recorded)
        rebuilt = ValueFunction(params, fs, fb)
        [(x, y, slopes)] = built
        assert x is fb.ys and y is rebuilt.a_grid
        want = [vf._a_pair(yi, ft)[1] for yi, ft in zip(fb.ys.tolist(), fb.f_tilde.tolist())]
        assert np.array(slopes).tobytes() == np.array(want).tobytes()

    def test_midpoints_match_a_finer_solve(self, solved):
        # A between the 2000-step nodes against the odd nodes of a
        # 4000-step build, below the top 5% of [0, y_bar] where A -> 0
        for mu, (params, fs, fb, vf) in solved.items():
            fine = ValueFunction(params, fs, integrate_boundary(params, fs, n_steps=4000))
            ys, a_mid = fine.fb.ys[1::2], fine.a_grid[1::2]
            keep = ys <= 0.95 * params.y_bar
            got = np.array([vf.a(y) for y in ys[keep].tolist()])
            assert np.max(np.abs(got - a_mid[keep]) / a_mid[keep]) < 4e-12, mu


class TestValue:
    def test_equals_no_install_payoff_at_capacity(self, base):
        params, _, _, vf = base
        for x in np.linspace(-3.0, 4.0, 15):
            assert rel_err(vf.w(float(x), params.y_bar),
                           r_value(params, float(x), params.y_bar)) < 1e-10

    def test_continuous_across_boundary(self, base):
        params, _, fb, vf = base
        for y in interior_ys(params):
            f_y = fb.f(float(y))
            eps = 1e-7 * (1.0 + abs(f_y))
            left = vf.w(f_y - eps, float(y))
            right = vf.w(f_y + eps, float(y))
            assert abs(left - right) < 1e-6 * (1.0 + abs(left))

    def test_dominates_no_install_payoff(self, base):
        params, _, fb, vf = base
        for x in np.linspace(fb.x0 - 2.0, fb.x_bar + 1.0, 12):
            for y in interior_ys(params, 6):
                assert vf.w(float(x), float(y)) >= r_value(params, float(x), float(y)) - 1e-9

    def test_increasing_in_price(self, base):
        params, _, fb, vf = base
        for y in interior_ys(params, 5):
            vals = [vf.w(float(x), float(y))
                    for x in np.linspace(fb.x0 - 2.0, fb.x_bar + 1.0, 25)]
            assert all(a < b + 1e-12 for a, b in zip(vals, vals[1:]))

    def test_linear_in_price_at_capacity(self, base):
        params, _, _, vf = base
        xs = np.linspace(-5.0, 5.0, 11)
        vals = np.array([vf.w(float(x), params.y_bar) for x in xs])
        second = np.diff(vals, 2)
        assert np.max(np.abs(second)) < 1e-9

    def test_domain_error(self, base):
        params, _, _, vf = base
        with pytest.raises(DomainError):
            vf.w(1.0, params.y_bar + 1.0)

    @pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf, pytest.param("1", id="str"),
                                   pytest.param(10**400, id="int_beyond_float64")])
    def test_non_finite_price_refused(self, base, x):
        # every query classifies the state first: NaN used to read as waiting,
        # and inf gave w = inf and a NaN HJB term; a str escaped as TypeError
        # and an int beyond float64 as OverflowError.  A str is not a real
        # number, the rest are not finite
        _, _, fb, vf = base
        match = "must be a real number" if isinstance(x, str) else "must be finite"
        for query in (fb.region, fb.lump_target, vf.w, vf.partials, vf.hjb_residual):
            with pytest.raises(DomainError, match=match):
                query(x, 1.0)

    def test_non_real_state_refused(self, base):
        # each used to escape as TypeError where the state is compared
        params, fs, fb, vf = base
        for query, args in ((vf.w, (1.0, "1")), (vf.a, ("1",)), (fb.f, ("1",)),
                            (fb.f_inverse, ("1",)), (r_value, (params, 1.0, "a"))):
            with pytest.raises(DomainError, match="must be a real number"):
                query(*args)

    def test_psi_of_int_beyond_float64_refused(self, base):
        # used to escape as OverflowError from mu - x; refused as w refuses it
        _, fs, _, _ = base
        with pytest.raises(DomainError, match="must be finite"):
            fs.psi(10**400)

    def test_hjb_residual_at_capacity_refused(self, base):
        params, _, _, vf = base
        with pytest.raises(DomainError, match="defined for y < y_bar"):
            vf.hjb_residual(1.0, params.y_bar)

    def test_lump_never_below_capacity_just_above_boundary(self, solved):
        # right above F(y) the interpolated inverse can fall below y; w and
        # its partials must then read the waiting side at y_hit >= y
        for mu, (params, fs, fb, vf) in solved.items():
            for y in np.linspace(0.0, params.y_bar, 300)[:-1]:
                y = float(y)
                x = math.nextafter(fb.f(y), math.inf)
                y_hit = fb.lump_target(x, y)
                assert y_hit == max(fb.f_inverse(x), y), (mu, y)
                d = psi_derivs(fs, x + params.beta * y_hit, 2)
                a_val = vf.a(y_hit)
                waiting = a_val * d[0] + r_value(params, x, y_hit)
                assert vf.w(x, y) == pytest.approx(
                    waiting - params.c * (y_hit - y), rel=1e-14, abs=1e-14), (mu, y)
                w_x, w_xx, w_y = vf.partials(x, y)
                assert w_x == pytest.approx(a_val * d[1] + r_partials(params, x, y_hit)[2],
                                            rel=1e-14, abs=1e-14)
                assert w_xx == pytest.approx(a_val * d[2], rel=1e-14, abs=1e-14)
                assert abs(w_y - params.c) < 1e-7 * (1.0 + params.c)


class TestPartials:
    def test_install_gradient_exact_in_install_regions(self, base):
        params, _, fb, vf = base
        y = 1.0
        for x in (0.5 * (fb.f(y) + fb.x_bar), fb.x_bar + 0.7):
            assert vf.partials(x, y)[2] == params.c

    def test_capacity_region_forms(self, base):
        params, _, fb, vf = base
        y = 2.0
        x = fb.x_bar + 0.5
        w_x, w_xx, w_y = vf.partials(x, y)
        assert w_x == pytest.approx(params.y_bar / (params.rho + params.kappa), rel=1e-12)
        assert w_xx == 0.0
        assert w_y == params.c

    def test_match_finite_differences_in_each_region(self, base):
        params, _, fb, vf = base
        y = 1.5
        f_y = fb.f(y)
        # second differences in the lump-to-boundary region see the C^1 kinks
        # of the interpolated inverse boundary, hence the looser tolerance
        points = [(f_y - 0.4, 1e-4), (0.5 * (f_y + fb.x_bar), 5e-3), (fb.x_bar + 0.5, 1e-4)]
        for x, tol_xx in points:
            h = 1e-5 * (1.0 + abs(x))
            w_x, w_xx, w_y = vf.partials(x, y)
            fd_x = central_diff(lambda t: vf.w(t, y), x, h)
            fd_xx = (vf.w(x + h, y) - 2.0 * vf.w(x, y) + vf.w(x - h, y)) / h**2
            fd_y = central_diff(lambda t: vf.w(x, t), y, 1e-5)
            assert abs(w_x - fd_x) < 1e-5 * (1.0 + abs(w_x))
            assert abs(w_xx - fd_xx) < tol_xx * (1.0 + abs(w_xx))
            assert abs(w_y - fd_y) < 1e-5 * (1.0 + abs(w_y))

    def test_price_slope_continuous_across_boundary(self, base):
        # probe offset small enough that the genuine smooth variation
        # 2 eps |w_xx| stays far below the continuity tolerance
        params, _, fb, vf = base
        for y in interior_ys(params):
            f_y = fb.f(float(y))
            eps = 1e-9 * (1.0 + abs(f_y))
            left = vf.partials(f_y - eps, float(y))
            right = vf.partials(f_y + eps, float(y))
            for l_val, r_val_ in zip(left, right):
                assert abs(l_val - r_val_) < 1e-6 * (1.0 + abs(l_val))

    def test_smooth_across_capacity_threshold(self, base):
        params, _, fb, vf = base
        y = 1.0
        eps = 1e-9 * (1.0 + abs(fb.x_bar))
        left = vf.partials(fb.x_bar - eps, y)
        right = vf.partials(fb.x_bar + eps, y)
        for l_val, r_val_ in zip(left, right):
            assert abs(l_val - r_val_) < 1e-6 * (1.0 + abs(l_val))
        assert abs(vf.w(fb.x_bar - eps, y) - vf.w(fb.x_bar + eps, y)) < 1e-6 * (
            1.0 + abs(vf.w(fb.x_bar, y)))


class TestVariationalInequality:
    def test_waiting_region_pattern(self, base):
        params, _, fb, vf = base
        for y in interior_ys(params, 8):
            x = fb.f(float(y)) - 0.5
            pde, grad = vf.hjb_residual(x, float(y))
            assert abs(pde) < 1e-6 * (1.0 + abs(vf.w(x, float(y))))
            assert grad < 0.0

    def test_install_region_pattern(self, base):
        params, _, fb, vf = base
        for y in interior_ys(params, 8, hi=0.9):
            for x in (0.5 * (fb.f(float(y)) + fb.x_bar), fb.x_bar + 0.8):
                pde, grad = vf.hjb_residual(x, float(y))
                assert abs(grad) < 1e-8
                assert pde <= 1e-8 * (1.0 + abs(vf.w(x, float(y))))

    def test_capacity_region_closed_form(self, base):
        params, _, fb, vf = base
        for y in interior_ys(params, 6, hi=0.9):
            for x in (fb.x_bar + 0.3, fb.x_bar + 2.0):
                pde, _ = vf.hjb_residual(x, float(y))
                closed = install_region_pde_closed_form(params, x, float(y))
                assert abs(pde - closed) < 1e-9 * (1.0 + abs(closed))

    def test_gap_function_negative_on_boundary_range(self, base):
        params, _, fb, vf = base
        for x in np.linspace(fb.x0, fb.x_bar, 25):
            # c rho + kappa beta w_x(x, Finv(x)) - x; the lump takes (x, 0) there
            w_x = vf.partials(float(x), 0.0)[0]
            assert params.c * params.rho + params.kappa * params.beta * w_x - float(x) < 0.0

    def test_smooth_fit_pair_on_boundary(self, base):
        # the install gradient and its price slope both vanish on the boundary
        params, fs, fb, vf = base
        for y in interior_ys(params):
            f_y = fb.f(float(y))
            assert abs(vf.partials(f_y, float(y))[2] - params.c) < 1e-7 * (1.0 + params.c)
            d = psi_derivs(fs, f_y + params.beta * float(y), 2)
            s_x = (a_prime(vf, float(y)) * d[1] + params.beta * vf.a(float(y)) * d[2]
                   + 1.0 / (params.rho + params.kappa))
            assert abs(s_x) < 1e-7 * (1.0 + abs(d[1]))


class TestOneLookup:
    """``partials`` and ``hjb_residual`` read their state once, F(y)
    included, and equal the routes that read it twice."""

    def test_equals_two_pass_route(self, solved):
        # the benchmark's query states: x in [F(0) - 1.5, x_bar + 1],
        # y in [0, 0.95 y_bar]; exact equality, not a tolerance
        rng = np.random.default_rng(18)
        for mu, (params, _, fb, vf) in solved.items():
            regions = set()
            for u, v in rng.random((400, 2)):
                x = float(fb.x0 - 1.5 + (fb.x_bar + 2.5 - fb.x0) * u)
                y = float(0.95 * params.y_bar * v)
                regions.add(fb.region(x, y).value)
                assert vf.partials(x, y) == partials_two_lookup(vf, x, y), (mu, x, y)
                assert vf.hjb_residual(x, y) == hjb_residual_two_pass(vf, x, y), (mu, x, y)
            assert regions == {"W", "I1", "I2"}, mu
            # at capacity the classification reads F(y) as well, and A'(y)
            # takes Ftilde(y) from it; just below y_bar the residual is defined
            for y in (params.y_bar, math.nextafter(params.y_bar, 0.0)):
                for x in np.linspace(fb.x0 - 1.5, fb.x_bar + 1.0, 9).tolist():
                    assert vf.partials(x, y) == partials_two_lookup(vf, x, y), (mu, x, y)
                    if y < params.y_bar:
                        assert (vf.hjb_residual(x, y)
                                == hjb_residual_two_pass(vf, x, y)), (mu, x, y)

    def test_cold_table_equals_warm(self, solved, fresh_cells):
        # built and queried on an emptied cell cache, each read builds the
        # cells it needs: test_equals_two_pass_route's states, bit for bit
        rng = np.random.default_rng(18)
        for mu, (params, _, fb, vf) in solved.items():
            fresh_cells()
            cold = ValueFunction(params, FundamentalSolution(params), fb)
            assert cold.a_grid.tobytes() == vf.a_grid.tobytes(), mu
            for u, v in rng.random((400, 2)):
                x = float(fb.x0 - 1.5 + (fb.x_bar + 2.5 - fb.x0) * u)
                y = float(0.95 * params.y_bar * v)
                for method in ("w", "partials", "hjb_residual"):
                    got = getattr(cold, method)(x, y)
                    assert got == getattr(vf, method)(x, y), (mu, method, x, y)

    def test_one_lookup_per_call(self, base, monkeypatch):
        # each psi point is one cell read: log_psi_ratios where the
        # ratios are needed, psi where psi alone is
        params, fs, fb, vf = base
        calls = []

        def counted(cls, name):
            method = getattr(cls, name)

            def wrapper(self, *args):
                calls.append(name)
                return method(self, *args)
            monkeypatch.setattr(cls, name, wrapper)

        counted(FreeBoundary, "f")
        counted(FundamentalSolution, "log_psi_ratios")
        counted(FundamentalSolution, "psi")
        counted(ValueFunction, "a")
        y = 1.5
        f_y = fb.f(y)
        lookup = ["a", "f", "log_psi_ratios"]
        for x, region, per_call in [
                # in W, A'(y) reads the ratios at Ftilde(y) too
                (f_y - 0.5, "W", (lookup + ["log_psi_ratios"], ["a", "f", "psi"])),
                (0.5 * (f_y + fb.x_bar), "I1", (lookup, ["a", "f", "psi"])),
                (fb.x_bar + 0.5, "I2", ([], []))]:
            assert fb.region(x, y).value == region
            for method, expected in ((vf.partials, per_call[0]), (vf.hjb_residual, per_call[0]),
                                     (vf.w, per_call[1])):
                calls.clear()
                method(x, y)
                assert sorted(calls) == sorted(expected), (region, method.__name__)
        # at capacity too the classification reads F(y) once, and A'(y) reuses it
        calls.clear()
        vf.partials(f_y - 0.5, params.y_bar)
        assert sorted(calls) == ["a", "f", "log_psi_ratios", "log_psi_ratios"]
        # a build reads each grid node once
        calls.clear()
        ValueFunction(params, fs, fb)
        assert calls == ["log_psi_ratios"] * fb.ys.size


class TestGrowth:
    def test_sublinear_ratio_stable(self, base):
        _, _, _, vf = base
        narrow = growth_ratio(vf, np.linspace(-50.0, 50.0, 41))
        wide = growth_ratio(vf, np.linspace(-100.0, 100.0, 81))
        assert math.isfinite(wide)
        assert wide <= 2.0 * narrow


class TestCrossRepresentations:
    def test_normalized_denominator_three_ways(self, base):
        params, _, fb, vf = base
        for y in np.linspace(0.0, params.y_bar, 50):
            via_d, via_coeffs, via_linear = d_tilde_forms(vf, float(y))
            scale = max(abs(via_linear), 1e-12)
            assert abs(via_coeffs - via_linear) < 1e-7 * scale
            assert abs(via_d - via_linear) < 1e-7 * scale

    def test_summary_export_shape(self, base):
        params, _, fb, vf = base
        payload = vf.summary_dict()
        assert set(payload) == {"params", "x_tilde", "x0", "x_bar", "y_star", "grid"}
        assert len(payload["grid"]) == len(fb.ys)
        assert payload["grid"][0]["y"] == 0.0
        assert payload["grid"][-1]["A"] == pytest.approx(0.0, abs=1e-10)


class TestAcrossRegimes:
    def test_value_function_consistent_in_all_three_regimes(self, solved):
        for mu, (params, _, fb, vf) in solved.items():
            y = 0.3 * params.y_bar
            f_y = fb.f(y)
            pde_w, grad_w = vf.hjb_residual(f_y - 0.4, y)
            assert abs(pde_w) < 1e-6 * (1.0 + abs(vf.w(f_y - 0.4, y)))
            assert grad_w < 0.0
            pde_i, grad_i = vf.hjb_residual(fb.x_bar + 0.4, y)
            assert abs(grad_i) < 1e-8
            assert pde_i <= 1e-8 * (1.0 + abs(vf.w(fb.x_bar + 0.4, y)))


class TestFarBelowTheMean:
    @pytest.mark.parametrize("x", [-1e6, -1e7])
    def test_waiting_pattern_where_psi_third_ratio_rounds_negative(self, solved, x):
        # far below the mean psi^(k)/psi falls like (mu - x)^-k, and the
        # recurrence step to psi'''/psi is the difference of two terms of
        # about 6e-7 (6e-8 at -1e7) that agree beyond float64, so it rounds
        # to either sign; w and its partials read psi up to psi'' only
        params, _, fb, vf = solved[0.2]
        y = 1.0
        assert fb.region(x, y).value == "W"
        w = vf.w(x, y)
        w_x, w_xx, w_y = vf.partials(x, y)
        pde, grad = vf.hjb_residual(x, y)
        assert all(map(math.isfinite, (w, w_x, w_xx, w_y, pde, grad)))
        assert abs(pde) <= 1e-6 * (1.0 + abs(w))
        assert grad < 0.0


class TestFuzzDraw24:
    """Fuzz draw 24 (kappa 1.77, rho 0.107, y_bar 8.86): psi(Ftilde) nears
    1e150 on the upper grid, and a coarse grid misplaces the steep F there."""

    def test_partials_finite_where_raw_derivatives_overflow(self):
        # A' from psi'' psi - psi'^2 of raw derivatives overflowed to w_y = nan
        # at this waiting state; the ratio form reads psi^(k)/psi instead
        params = params_from_dict(fuzz_draw(24))
        fs = FundamentalSolution(params)
        fb = integrate_boundary(params, fs, n_steps=2000)
        vf = ValueFunction(params, fs, fb)
        x, y = 20.158, 7.355
        assert fb.region(x, y).value == "W"
        w_x, w_xx, w_y = vf.partials(x, y)
        assert all(map(math.isfinite, (w_x, w_xx, w_y)))
        assert 0.0 < w_y < params.c
        assert a_prime(vf, y) < 0.0

    def test_sign_flipped_coefficient_is_refused(self):
        # at 400 steps A turns negative on the top of the grid, first at
        # y = 6.80 of y_bar = 8.86; A > 0 below y_bar is a theorem
        params = params_from_dict(fuzz_draw(24))
        fs = FundamentalSolution(params)
        fb = integrate_boundary(params, fs, n_steps=400)
        with pytest.raises(NumericalError, match=r"at y=6\.80\d* .*400-step grid; "
                                                 r"a finer --steps may help"):
            ValueFunction(params, fs, fb)
