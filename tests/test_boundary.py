import math
import tracemalloc
from dataclasses import replace

import mpmath
import numpy as np
import pytest

from solarinvest import (DomainError, FundamentalSolution, IntegrationError,
                         NumericalError, Regime, Region, classify_regime,
                         integrate_boundary, ode_rhs, params_from_dict, r_tilde,
                         solve_x_tilde, table_preset, y_star)
from solarinvest import boundary, fundamental
from solarinvest.boundary import _n_d_evaluator, export_grid_csv
from solarinvest.cli import sweep_boundaries

from conftest import CRITERION_7_SWEEPS, fuzz_draw, rel_err
from oracles import h_func

# regression baselines, self-generated at 2000 RK4 steps and cross-checked
# against an independent bisection of H and a 400-step solve
BASELINES = {
    0.2: {"x_tilde": 3.768355513274, "f0": 1.208589025505, "y_star": -2.378717411035},
    1.4: {"x_tilde": 2.365159228914, "f0": 0.939552865900, "y_star": 2.421282588965},
    2.25: {"x_tilde": 1.974471605720, "f0": 0.866736735136, "y_star": 5.821282588965},
}


def bisect_root(f, lo, hi, tol=1e-12):
    f_lo = f(lo)
    assert f_lo * f(hi) < 0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if f_lo * f(mid) <= 0:
            hi = mid
        else:
            lo = mid
            f_lo = f(lo)
    return 0.5 * (lo + hi)


class TestAnchor:
    def test_root_residual_small(self, solved):
        for mu, (params, fs, fb, _) in solved.items():
            xt = fb.x_tilde
            scale = (abs(fs.psi_derivs(xt, 1)[1] * (params.c - r_tilde(params, xt, params.y_bar)))
                     + fs.psi(xt) / (params.rho + params.kappa))
            assert abs(h_func(params, fs, xt)) < 1e-10 * scale

    def test_against_independent_bisection(self, solved):
        params, fs, fb, _ = solved[0.2]
        root = bisect_root(lambda x: h_func(params, fs, x), params.mu - 10.0, params.mu + 10.0)
        assert abs(root - fb.x_tilde) < 5e-12
        assert rel_err(fb.x_tilde, BASELINES[0.2]["x_tilde"]) < 1e-9

    def test_against_mpmath_root(self, solved):
        # root of H/psi' at 40 digits, with psi/psi' = D_{-s0}(z) /
        # (scale s0 D_{-s0-1}(z)), z = (mu - x) scale, scale = sqrt(2 kappa)/sigma
        for mu, (params, fs, fb, _) in solved.items():
            with mpmath.workdps(40):
                kappa, mu_, sigma, rho, c, beta, y_bar = (mpmath.mpf(v) for v in (
                    params.kappa, params.mu, params.sigma, params.rho, params.c,
                    params.beta, params.y_bar))
                s0, scale = rho / kappa, mpmath.sqrt(2 * kappa) / sigma

                def h(x):
                    z = (mu_ - x) * scale
                    ratio = mpmath.pcfd(-s0, z) / (scale * s0 * mpmath.pcfd(-s0 - 1, z))
                    r = (mu_ * kappa + rho * x - beta * (rho + 2 * kappa) * y_bar) / (
                        rho * (rho + kappa))
                    return c - r + ratio / (rho + kappa)

                root = float(mpmath.findroot(h, mpmath.mpf(BASELINES[mu]["x_tilde"])))
            assert abs(fb.x_tilde - root) <= 2e-15, mu

    def test_regression_baselines(self, solved):
        for mu, (params, fs, fb, _) in solved.items():
            assert rel_err(fb.x_tilde, BASELINES[mu]["x_tilde"]) < 1e-9
            assert rel_err(fb.x0, BASELINES[mu]["f0"]) < 1e-8

    def test_sign_pattern_unique_root(self, base):
        params, fs, fb, _ = base
        xt = fb.x_tilde
        for x in np.linspace(xt - 4.0, xt + 4.0, 100):
            if abs(x - xt) < 1e-3:
                continue
            h = h_func(params, fs, float(x))
            assert h > 0 if x < xt else h < 0

    def test_boundary_exceeds_cost_floor_at_capacity(self, solved):
        for mu, (params, fs, fb, _) in solved.items():
            floor = params.c * params.rho + params.kappa * params.beta * params.y_bar / (params.rho + params.kappa)
            assert fb.x_bar > floor

    def test_anchor_reads_only_panels_the_path_needs(self, monkeypatch):
        # Newton's iterates from mu and the RK4 path read the panel pair
        # (log I_s0 and ratio) of each of two cells; an anchor search that
        # evaluated H far from the root would build panels on more cells.
        # An empty table: earlier solves with this s0 may have filled it
        monkeypatch.setattr(fundamental, "_PANEL_TABLES", {})
        params = table_preset(1.4)
        fs = FundamentalSolution(params)
        integrate_boundary(params, fs, n_steps=800)
        assert 2 * len(fs._cells) < 10

    def test_solve_builds_no_s0_plus_one_panel(self, monkeypatch):
        # a cell's pair takes one quadrature call at s0 and one at s0+1 over
        # its 20 nodes; the s0+1 values go into the ratio panel, and no
        # other order is ever integrated on the solve path (of a solve that
        # starts on an empty table, so that it builds every pair it reads)
        monkeypatch.setattr(fundamental, "_PANEL_TABLES", {})
        calls = []
        quad = fundamental.log_weighted_integral

        def counted(s, z, *args, **kwargs):
            calls.append((s, np.size(z)))
            return quad(s, z, *args, **kwargs)

        monkeypatch.setattr(fundamental, "log_weighted_integral", counted)
        params = table_preset(1.4)
        fs = FundamentalSolution(params)
        integrate_boundary(params, fs, n_steps=800)
        orders = [s for s, _ in calls]
        assert set(orders) == {fs._s0, fs._s0 + 1}
        assert orders.count(fs._s0) == orders.count(fs._s0 + 1)
        assert all(n == 20 for _, n in calls)

    def test_anchor_increasing_in_capacity_bound(self):
        roots = []
        for y_bar in (2.0, 5.0):
            params = replace(table_preset(1.4), y_bar=y_bar)
            fs = FundamentalSolution(params)
            roots.append(solve_x_tilde(params, fs))
        assert roots[1] > roots[0]


class TestOdeRightHandSide:
    def test_slope_exceeds_impact_at_anchor(self, base):
        params, fs, fb, _ = base
        assert ode_rhs(params, fs, params.y_bar, fb.x_tilde) > params.beta

    def test_denominator_identity_at_anchor(self, base):
        # at the anchor, D collapses to Q0 psi psi'' / psi'; the evaluator returns
        # D / psi^3, the same identity in the derivatives divided by psi
        params, fs, fb, _ = base
        xt = fb.x_tilde
        _, d_val = _n_d_evaluator(params, fs)(params.y_bar, xt)
        d = fs.psi_derivs(xt, 2) / fs.psi(xt)
        q0 = d[0] * d[2] - d[1] ** 2
        assert rel_err(d_val, q0 * d[2] / (d[0] * d[1])) < 1e-9

    def test_numerator_dominates_where_denominator_nonnegative(self, base):
        params, fs, _, _ = base
        for y in np.linspace(0.0, params.y_bar, 6):
            for z in np.linspace(params.mu - 2.0, params.mu + 3.0, 11):
                n_val, d_val = _n_d_evaluator(params, fs)(float(y), float(z))
                if d_val >= 0.0:
                    assert n_val > d_val


class TestIntegration:
    def test_anchor_boundary_condition_exact(self, solved):
        for mu, (params, _, fb, _) in solved.items():
            assert fb.f_tilde[-1] == fb.x_tilde

    def test_monotonicity_and_floor_invariants(self, solved):
        for mu, (params, fs, fb, _) in solved.items():
            slopes = np.diff(fb.f_tilde) / np.diff(fb.ys)
            assert np.all(slopes >= params.beta)
            floor = params.c * params.rho + params.kappa * params.beta * fb.ys / (params.rho + params.kappa)
            assert np.all(fb.f_grid > floor)
            assert np.all(np.diff(fb.f_grid) > 0.0)

    def test_denominator_positive_along_solution(self, base):
        # re-evaluates D at every accepted node, independently of the
        # integrator's own per-step check
        params, fs, fb, _ = base
        for y, z in zip(fb.ys, fb.f_tilde):
            _, d_val = _n_d_evaluator(params, fs)(float(y), float(z))
            assert d_val > 0.0

    def test_self_convergence_order(self, base):
        # coarse grids keep the truncation error above the rounding floor
        params, fs, _, _ = base
        f0 = {}
        for n in (100, 200, 400):
            f0[n] = integrate_boundary(params, fs, n_steps=n).x0
        order = math.log2(abs((f0[100] - f0[200]) / (f0[200] - f0[400])))
        assert order >= 3.0
        assert abs(f0[200] - f0[400]) < 1e-6

    def test_four_evaluations_per_step(self, monkeypatch):
        # k2, k3, k4 and the D check per step; the D check's pair is the
        # next step's k1, and the anchor's k1 is the one extra
        calls = []
        evaluator = boundary._n_d_evaluator

        def counted_evaluator(params, fs):
            n_d = evaluator(params, fs)

            def counted(y, z):
                calls.append((y, z))
                return n_d(y, z)
            return counted

        monkeypatch.setattr(boundary, "_n_d_evaluator", counted_evaluator)
        params = table_preset(1.4)
        n_steps = 150
        integrate_boundary(params, FundamentalSolution(params), n_steps=n_steps)
        assert len(calls) == 4 * n_steps + 1

    def test_too_coarse_rejected(self, base):
        params, fs, _, _ = base
        with pytest.raises(DomainError):
            integrate_boundary(params, fs, n_steps=50)

    @pytest.mark.parametrize("n_steps,reason", [
        (800.0, "must be an integer"), ("800", "must be an integer"),
        (True, "must be an integer"), (np.float64(800), "must be an integer"),
        (100_000_000_000, "physical memory"), (2**80, "physical memory")])
    def test_bad_step_count_is_typed_before_any_allocation(self, base, n_steps, reason):
        # a float, a string or a bool is no step count, and a grid beyond
        # physical memory would be allocated under overcommit and then page
        params, fs, _, _ = base
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match=rf"^n_steps=.*{reason}"):
                integrate_boundary(params, fs, n_steps=n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_numpy_integer_step_count_solves_the_same_grid(self, base):
        params, fs, fb, _ = base
        solved = integrate_boundary(params, fs, n_steps=np.int64(2000))
        assert solved.f_tilde.tobytes() == fb.f_tilde.tobytes()

    def test_waiting_case_boundary_above_mean(self, solved):
        params, _, fb, _ = solved[0.2]
        assert fb.x0 > params.mu


def constant_panel(panel, c0):
    """A panel shaped like ``panel`` (coefficients highest first, flat or
    grouped) whose one nonzero coefficient is the last, c_0 = c0."""
    coeffs = np.zeros(np.shape(panel))
    coeffs.flat[-1] = c0

    def as_tuples(v):
        return tuple(as_tuples(e) for e in v) if isinstance(v, list) else v
    return as_tuples(coeffs.tolist())


class TestTypedFailures:
    """Every raise on the RK4 path, each by its class and message prefix."""

    def test_denominator_turns_nonpositive(self):
        params = params_from_dict(fuzz_draw(4))
        with pytest.raises(IntegrationError, match=r"^D <= 0 \(-"):
            integrate_boundary(params, FundamentalSolution(params), n_steps=400)

    def test_slope_falls_below_impact(self):
        params = params_from_dict(fuzz_draw(14))
        with pytest.raises(IntegrationError, match=r"^Ftilde' = \S+ fell below beta = "):
            integrate_boundary(params, FundamentalSolution(params), n_steps=400)

    def test_singular_at_a_root_of_the_denominator(self, base):
        # at y_bar, D/psi^3 changes sign between mu + 1.5 and mu + 2 while
        # N/psi^3 stays near 1.4; bisect D's root in z to the last float
        params, fs, _, _ = base
        y = params.y_bar

        def d_at(z):
            return _n_d_evaluator(params, fs)(y, z)[1]

        lo, hi = params.mu + 1.5, params.mu + 2.0
        assert d_at(lo) > 0.0 > d_at(hi)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if d_at(mid) > 0.0:
                lo = mid
            else:
                hi = mid
        root = min((lo, hi), key=lambda z: abs(d_at(z)))
        with pytest.raises(IntegrationError, match=r"^boundary ODE singular: D/psi\^3\("):
            ode_rhs(params, fs, y, root)

    @pytest.mark.parametrize("c0,k", [(40.0, 2), (-40.0, 3)])
    def test_recurrence_loses_positivity(self, monkeypatch, c0, k):
        # a constant ratio panel g = c0: left of mu the drift term of the
        # recurrence is negative, so a large psi'/psi = scale e^c0 turns
        # psi''/psi negative, and a tiny one leaves psi'''/psi negative
        monkeypatch.setattr(fundamental, "_PANEL_TABLES", {})
        params = table_preset(1.4)
        fs = FundamentalSolution(params)
        x = params.mu - 0.3
        fs.psi_ratios(x)
        table = fundamental._PANEL_TABLES[params.rho / params.kappa]
        for j, (log_panel, ratio_panel) in table.items():
            table[j] = (log_panel, constant_panel(ratio_panel, c0))
        with pytest.raises(NumericalError,
                           match=rf"^derivative recurrence lost positivity at k={k}, x="):
            fs.psi_ratios(x)


def reference_rk4(params, fs, x_tilde, n_steps):
    """Classical RK4 for Ftilde' = beta N/D from (y_bar, x_tilde), written
    from the module docstring's N and D divided by psi^3, with no checks."""
    p = params

    def rhs(y, z):
        r1, r2, r3 = fs.psi_ratios(z)
        q0 = r2 - r1 * r1
        q1 = r1 * r3 - r2 * r2
        q0_prime = r3 - r1 * r2
        rt = ((p.mu * p.kappa + p.rho * z - p.beta * (p.rho + 2.0 * p.kappa) * y)
              / (p.rho * (p.rho + p.kappa)))
        crt = (p.rho + p.kappa) * (p.c - rt)
        n_val = q0 * ((p.rho + 2.0 * p.kappa) / p.rho * r1 + crt * r2 + r1)
        d_val = crt * q1 + q0_prime
        return p.beta * n_val / d_val

    h = p.y_bar / n_steps
    ys = np.linspace(0.0, p.y_bar, n_steps + 1).tolist()
    z = x_tilde
    zs = [z]
    for i in range(n_steps, 0, -1):
        y = ys[i]
        k1 = rhs(y, z)
        k2 = rhs(y - 0.5 * h, z - 0.5 * h * k1)
        k3 = rhs(y - 0.5 * h, z - 0.5 * h * k2)
        k4 = rhs(y - h, z - h * k3)
        z = z - h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        zs.append(z)
    return np.array(zs[::-1])


class TestReferenceRK4:
    """integrate_boundary is plain RK4 on the documented N/D, bit for bit."""

    def test_presets(self, solved):
        for mu, (params, fs, fb, _) in solved.items():
            ref = reference_rk4(params, fs, fb.x_tilde, 2000)
            assert ref.tobytes() == fb.f_tilde.tobytes(), mu

    def test_criterion_7_sweeps(self):
        base = table_preset(0.2)
        for name, values in CRITERION_7_SWEEPS.items():
            for v, fb in sweep_boundaries(base, name, values, 800):
                fs = FundamentalSolution(fb.params)
                ref = reference_rk4(fb.params, fs, fb.x_tilde, 800)
                assert ref.tobytes() == fb.f_tilde.tobytes(), (name, v)


class TestBoundaryQueries:
    def test_inverse_roundtrip_on_grid(self, base):
        _, _, fb, _ = base
        for y, f_val in list(zip(fb.ys, fb.f_grid))[::50]:
            assert abs(fb.f_inverse(float(f_val)) - y) < 1e-8

    def test_forward_roundtrip_off_grid(self, base):
        _, _, fb, _ = base
        for x in np.linspace(fb.x0, fb.x_bar, 37):
            assert abs(fb.f(fb.f_inverse(float(x))) - x) < 1e-7

    def test_inverse_domain_error(self, base):
        _, _, fb, _ = base
        with pytest.raises(DomainError):
            fb.f_inverse(fb.x0 - 0.1)
        with pytest.raises(DomainError):
            fb.f_inverse(fb.x_bar + 0.1)

    def test_clamped_inverse_lipschitz(self, base):
        params, fs, fb, _ = base
        xs = np.linspace(fb.x0, fb.x_bar, 4001)
        ys = np.array([fb.f_inverse(float(x)) for x in xs])
        quotients = np.abs(np.diff(ys) / np.diff(xs))
        slopes = np.array([ode_rhs(params, fs, float(y), float(z))
                           for y, z in zip(fb.ys, fb.f_tilde)])
        lip = 1.0 / np.min(slopes - params.beta)
        assert np.isfinite(quotients).all()
        assert quotients.max() <= lip * 1.001
        assert rel_err(quotients.max(), lip) < 0.05

    def test_region_classification(self, base):
        params, _, fb, _ = base
        y = 1.0
        f_y = fb.f(y)
        assert fb.region(f_y - 1e-6, y) is Region.W
        assert fb.region(f_y, y) is Region.I1
        assert fb.region(fb.x_bar + 1e-6, y) is Region.I2
        # monotone in x: W, then I1, then I2
        labels = [fb.region(float(x), y) for x in np.linspace(f_y - 1.0, fb.x_bar + 1.0, 30)]
        order = {Region.W: 0, Region.I1: 1, Region.I2: 2}
        codes = [order[r] for r in labels]
        assert codes == sorted(codes)

    def test_region_at_capacity_is_waiting(self, base):
        params, _, fb, _ = base
        for x in (-1.0, fb.x_bar + 2.0):
            assert fb.region(x, params.y_bar) is Region.W

    def test_region_domain_error(self, base):
        params, _, fb, _ = base
        with pytest.raises(DomainError):
            fb.region(1.0, params.y_bar + 0.5)


class TestCriticalCapacity:
    def test_closed_form_oracle(self, solved):
        # psi(mu)/psi'(mu) has an exact Gamma representation, making y*
        # computable without quadrature
        for mu, (params, fs, _, _) in solved.items():
            s = params.rho / params.kappa
            scale = math.sqrt(2.0 * params.kappa) / params.sigma
            ratio = math.gamma(s / 2.0) / (scale * math.sqrt(2.0) * math.gamma((s + 1.0) / 2.0))
            expected = (((params.mu - params.rho * params.c) * (params.rho + params.kappa)
                         - params.rho * ratio)
                        / (params.beta * (params.rho + 2.0 * params.kappa)))
            assert rel_err(y_star(params, fs), expected) < 1e-10
            assert abs(y_star(params, fs) - BASELINES[mu]["y_star"]) < 1e-8

    def test_decreasing_in_cost(self):
        vals = []
        for c in (0.3, 0.8):
            params = replace(table_preset(1.4), c=c)
            vals.append(y_star(params, FundamentalSolution(params)))
        assert vals[1] < vals[0]

    def test_capacity_at_critical_level_puts_anchor_at_mean(self):
        params = table_preset(1.4)
        fs = FundamentalSolution(params)
        crit = y_star(params, fs)
        tuned = replace(params, y_bar=crit)
        fs2 = FundamentalSolution(tuned)
        xt = solve_x_tilde(tuned, fs2)
        assert abs(xt - tuned.mu) < 1e-8
        fb = integrate_boundary(tuned, fs2, n_steps=500)
        assert abs(fb.x_bar - (tuned.mu - tuned.beta * tuned.y_bar)) < 1e-8


class TestRegimes:
    def test_three_cases(self, solved):
        expected = {
            0.2: Regime.NO_INTERSECTION,
            1.4: Regime.INTERSECTS_BOUNDARY,
            2.25: Regime.INTERSECTS_UPPER_BOUND,
        }
        for mu, (params, fs, fb, _) in solved.items():
            assert classify_regime(params, fb, fs) is expected[mu]

    def test_geometric_consistency(self, solved):
        for mu, (params, fs, fb, _) in solved.items():
            regime = classify_regime(params, fb, fs)
            ys = y_star(params, fs)
            if regime is Regime.NO_INTERSECTION:
                assert fb.x0 > params.mu
            elif regime is Regime.INTERSECTS_BOUNDARY:
                assert fb.x0 <= params.mu and params.y_bar >= ys
            else:
                assert params.y_bar <= ys


class TestExport:
    def test_csv_format_and_determinism(self, base, tmp_path):
        _, _, fb, _ = base
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_grid_csv(fb, p1)
        export_grid_csv(fb, p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "y,F_tilde,F"
        assert len(lines) == len(fb.ys) + 1
        y, ft, f = (float(v) for v in lines[-1].split(","))
        assert y == fb.params.y_bar
        assert rel_err(ft, fb.x_tilde) < 1e-11
