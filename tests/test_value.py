import math

import numpy as np
import pytest

from solarinvest import DomainError, r_partials, r_value

from conftest import central_diff, rel_err
from oracles import (a_alt, a_prime_fit_form, d_tilde_forms, growth_ratio,
                     install_region_pde_closed_form)


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
            a_main = vf._a_closed_form(float(y), fb.f_tilde_at(float(y)))
            # absolute floor handles the zero at y_bar, where both forms vanish
            assert abs(a_main - a_alt(vf, float(y))) < 1e-9 * (1.0 + abs(a_main))

    def test_derivative_matches_finite_difference(self, base):
        params, _, _, vf = base
        for y in interior_ys(params, 7, 0.1, 0.9):
            fd = central_diff(vf.a, float(y), 1e-5)
            assert rel_err(vf.a_prime(float(y)), fd) < 1e-5

    def test_derivative_matches_fit_form(self, base):
        params, _, _, vf = base
        for y in interior_ys(params):
            assert rel_err(vf.a_prime(float(y)), a_prime_fit_form(vf, float(y))) < 1e-7

    def test_derivative_negative(self, base):
        params, _, _, vf = base
        for y in interior_ys(params):
            assert vf.a_prime(float(y)) < 0.0


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

    def test_lump_never_below_capacity_just_above_boundary(self, solved):
        # right above F(y) the interpolated inverse can fall below y; w and
        # its partials must then read the waiting side at y_hit >= y
        for mu, (params, fs, fb, vf) in solved.items():
            for y in np.linspace(0.0, params.y_bar, 300)[:-1]:
                y = float(y)
                x = math.nextafter(fb.f(y), math.inf)
                y_hit = fb.lump_target(x, y)
                assert y_hit == max(fb.f_inverse(x), y), (mu, y)
                d = fs.psi_derivs(x + params.beta * y_hit, 2)
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
            d = fs.psi_derivs(f_y + params.beta * float(y), 2)
            s_x = (vf.a_prime(float(y)) * d[1] + params.beta * vf.a(float(y)) * d[2]
                   + 1.0 / (params.rho + params.kappa))
            assert abs(s_x) < 1e-7 * (1.0 + abs(d[1]))


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
