import gc
import math
import os
import subprocess
import sys
import weakref
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

import solarinvest
from solarinvest import (DomainError, FundamentalSolution, ModelParams,
                         NumericalError, integrate_boundary, table_preset)
from solarinvest import fundamental
from solarinvest.fundamental import log_weighted_integral

from conftest import central_diff, rel_err
from oracles import cylinder_d, phi, phi_deriv, psi_deriv_direct, psi_derivs, q, ratio


def d_minus_one(z):
    # closed form: D_{-1}(z) = e^{z^2/4} sqrt(pi/2) erfc(z/sqrt(2))
    return math.exp(z * z / 4.0) * math.sqrt(math.pi / 2.0) * math.erfc(z / math.sqrt(2.0))


def qaws_integral(s, z):
    # independent adaptive quadrature with the algebraic endpoint weight
    t_max = max(0.0, -z) + 13.0
    val, err = integrate.quad(lambda t: math.exp(-0.5 * t * t - z * t), 0.0, t_max,
                              weight="alg", wvar=(s - 1.0, 0.0),
                              limit=500, epsabs=0.0, epsrel=5e-14)
    return val


class TestCylinderD:
    def test_order_minus_one_at_zero(self):
        # derived by hand from the erfc closed form: sqrt(pi/2) * erfc(0)
        assert rel_err(cylinder_d(-1.0, 0.0), 1.2533141373155001) < 1e-12

    @pytest.mark.parametrize("z", [-2.0, -1.0, 1.0, 2.0])
    def test_order_minus_one_closed_form(self, z):
        assert rel_err(cylinder_d(-1.0, z), d_minus_one(z)) < 1e-10

    def test_order_minus_one_grid(self):
        for z in np.linspace(-3.0, 3.0, 25):
            assert rel_err(cylinder_d(-1.0, float(z)), d_minus_one(float(z))) < 1e-10

    def test_order_minus_half_at_zero(self):
        # derived: D_a(0) = 2^{s/2-1} Gamma(s/2) / Gamma(s), s = -a = 1/2
        frozen = 1.2162802142575204
        assert rel_err(cylinder_d(-0.5, 0.0), frozen) < 1e-12
        gamma_form = 2.0 ** (-0.75) * math.gamma(0.25) / math.gamma(0.5)
        assert rel_err(frozen, gamma_form) < 1e-15

    @pytest.mark.parametrize("s,z", [(0.5, 0.7), (0.5, -2.3), (1.5, 3.1), (2.5, -4.0)])
    def test_against_independent_quadrature(self, s, z):
        log_val, _, _ = log_weighted_integral(s, z)
        assert rel_err(math.exp(log_val), qaws_integral(s, z)) < 1e-11

    @pytest.mark.parametrize("alpha", [0.0, 0.5, 2.0])
    def test_nonnegative_order_rejected(self, alpha):
        with pytest.raises(DomainError):
            cylinder_d(alpha, 0.0)

    def test_positive(self):
        for alpha in (-0.3, -1.2, -2.5):
            for z in (-4.0, 0.0, 4.0):
                assert cylinder_d(alpha, z) > 0.0

    def test_unresolvable_order_reports_achieved_tolerance(self):
        with pytest.raises(NumericalError) as exc:
            cylinder_d(-0.01, 0.0)
        assert exc.value.achieved is not None


@pytest.fixture(scope="module")
def fs():
    return FundamentalSolution(table_preset(0.2))


@pytest.fixture(scope="module")
def params():
    return table_preset(0.2)


def ode_residual(params, fs, x, k=0, y_shift=0.0):
    # generator residual evaluated with quadrature-only derivatives, so the
    # check is independent of the recurrence route
    z = x + params.beta * y_shift
    d0 = psi_deriv_direct(fs, k, z)
    d1 = psi_deriv_direct(fs, k + 1, z)
    d2 = psi_deriv_direct(fs, k + 2, z)
    return (0.5 * params.sigma**2 * d2
            + params.kappa * ((params.mu - params.beta * y_shift) - x) * d1
            - (params.rho + k * params.kappa) * d0), d0


class TestPsiPhi:
    def test_psi_ode_residual(self, params, fs):
        for x in (params.mu - 2.0, params.mu, params.mu + 2.0):
            res, scale = ode_residual(params, fs, x)
            assert abs(res) < 1e-8 * (1.0 + abs(scale))

    def test_phi_ode_residual(self, params, fs):
        for x in (params.mu - 2.0, params.mu, params.mu + 2.0):
            res = (0.5 * params.sigma**2 * phi_deriv(fs, 2, x)
                   + params.kappa * (params.mu - x) * phi_deriv(fs, 1, x)
                   - params.rho * phi(fs, x))
            assert abs(res) < 1e-8 * (1.0 + phi(fs, x))

    def test_psi_strictly_increasing(self, params, fs):
        assert fs.psi(params.mu + 1.0) > fs.psi(params.mu) > fs.psi(params.mu - 1.0)

    def test_phi_strictly_decreasing_positive(self, params, fs):
        vals = [phi(fs, x) for x in np.linspace(params.mu - 2, params.mu + 2, 9)]
        assert all(v > 0 for v in vals)
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_shifted_generator_solution(self, params, fs):
        # u(x) = psi(x + beta*y) solves the generator equation with the
        # capacity-lowered mean mu - beta*y
        for y in (1.0, 3.0, 5.0):
            for x in (params.mu - 1.0, params.mu + 0.5):
                res, scale = ode_residual(params, fs, x, y_shift=y)
                assert abs(res) < 1e-8 * (1.0 + abs(scale))

    def test_positive_everywhere_sampled(self, params, fs):
        for x in np.linspace(params.mu - 8, params.mu + 8, 17):
            assert fs.psi(float(x)) > 0.0
            assert phi(fs, float(x)) > 0.0


class TestDerivatives:
    def test_first_derivative_matches_finite_difference(self, params, fs):
        for x in np.linspace(params.mu - 2, params.mu + 2, 5):
            fd = central_diff(fs.psi, float(x), 1e-5)
            assert rel_err(fs.psi_derivs(float(x), 1)[1], fd) < 1e-5

    def test_second_derivative_matches_finite_difference(self, params, fs):
        for x in np.linspace(params.mu - 1, params.mu + 1, 5):
            fd = central_diff(lambda t: fs.psi_derivs(t, 1)[1], float(x), 1e-5)
            assert rel_err(fs.psi_derivs(float(x), 2)[2], fd) < 1e-4

    def test_recurrence_agrees_with_direct_quadrature(self, params, fs):
        for x in np.linspace(params.mu - 3, params.mu + 3, 7):
            derivs = psi_derivs(fs, float(x), 4)
            for k in (2, 3, 4):
                assert rel_err(derivs[k], psi_deriv_direct(fs, k, float(x))) < 1e-10

    def test_all_orders_positive(self, params, fs):
        for k in range(5):
            for x in np.linspace(params.mu - 3, params.mu + 3, 9):
                assert psi_derivs(fs, float(x), k)[k] > 0.0

    def test_generalized_residual(self, params, fs):
        for k in (0, 1, 2):
            for x in np.linspace(params.mu - 2, params.mu + 2, 5):
                res, scale = ode_residual(params, fs, float(x), k=k)
                assert abs(res) < 1e-8 * (1.0 + abs(scale))

    def test_order_beyond_three_rejected(self, fs):
        # the solve and the value layer read psi up to psi'''
        with pytest.raises(DomainError, match="k_max=4"):
            fs.psi_derivs(0.0, 4)


class TestDeterminants:
    def test_q0_positive_at_mean(self, params, fs):
        assert q(fs, 0, params.mu) > 0.0

    def test_q_positive_on_grid(self, params, fs):
        for k in (0, 1, 2):
            for x in np.linspace(params.mu - 3, params.mu + 3, 20):
                assert q(fs, k, float(x)) > 0.0

    def test_ratio_strictly_increasing(self, params, fs):
        for k in (0, 1, 2):
            xs = np.linspace(params.mu - 3, params.mu + 3, 20)
            vals = [ratio(fs, k, float(x)) for x in xs]
            assert all(a < b for a, b in zip(vals, vals[1:]))


class TestEqualRatesClosedForm:
    def test_psi_reduces_to_erfc_form(self):
        # with rho = kappa the cylinder order is -1 and psi has an erfc
        # closed form: psi(x) = I_1(z)/Gamma(1), z = (mu - x) sqrt(2k)/sigma
        from dataclasses import replace
        p = replace(table_preset(0.2), rho=table_preset(0.2).kappa)
        fs1 = FundamentalSolution(p)
        scale = math.sqrt(2.0 * p.kappa) / p.sigma
        for x in np.linspace(p.mu - 3.0, p.mu + 3.0, 13):
            z = (p.mu - float(x)) * scale
            closed = math.exp(z * z / 2.0) * math.sqrt(math.pi / 2.0) * math.erfc(z / math.sqrt(2.0))
            assert rel_err(fs1.psi(float(x)), closed) < 1e-10


class TestEvaluatorBehavior:
    def test_repeated_queries_identical(self, fs):
        assert fs.psi(1.234567) == fs.psi(1.234567)

    def test_concurrent_reads(self, params):
        fresh = FundamentalSolution(params)
        xs = list(np.linspace(params.mu - 2, params.mu + 2, 40))
        with ThreadPoolExecutor(max_workers=8) as pool:
            first = list(pool.map(fresh.psi, xs))
            second = list(pool.map(fresh.psi, xs))
        assert first == second


def unit_scale_solution(s0):
    # sqrt(2 kappa)/sigma = 1 and mu = 0 make z = -x exactly, so the grid
    # below lands on panel edges without rounding
    return FundamentalSolution(ModelParams(kappa=0.5, mu=0.0, sigma=1.0, rho=0.5 * s0,
                                           c=0.3, beta=0.15, y_bar=5.0))


def mp_log_psi_deriv(s0, k, z):
    # log psi^(k) = log I_{s0+k}(z) - lgamma(s0) at unit scale, with
    # I_s(z) = Gamma(s) e^{z^2/4} D_{-s}(z)
    with mpmath.workdps(30):
        s, z = mpmath.mpf(s0) + k, mpmath.mpf(z)
        return float(mpmath.loggamma(s) + z * z / 4 + mpmath.log(mpmath.pcfd(-s, z))
                     - mpmath.loggamma(s0))


class TestChebyshevPanels:
    Z_GRID = (-7.3, -3.0, -3.0 - 1e-12, -1.0, -0.5, 0.0, -1e-12, 0.37,
              1.0 - 1e-12, 1.0, 2.999999, 5.0, 6.8)

    @pytest.mark.parametrize("s0", [0.06, 0.3, 1.0, 3.0])
    def test_against_mpmath_including_panel_edges(self, s0):
        fs = unit_scale_solution(s0)
        for z in self.Z_GRID:
            for k in (0, 1):
                exact = mp_log_psi_deriv(s0, k, z)
                got = fs.log_psi_deriv(k, -z)
                assert abs(got - exact) <= 1e-13 * max(1.0, abs(exact)), (s0, k, z)
            # the log I_s0 panel, which psi reads
            exact = mp_log_psi_deriv(s0, 0, z)
            assert abs(math.log(fs.psi(-z)) - exact) <= 1e-13 * max(1.0, abs(exact)), (s0, z)

    @pytest.mark.parametrize("s0", [0.06, 0.3, 1.0, 3.0])
    def test_ratio_panel_against_mpmath_including_panel_edges(self, s0):
        # unit scale: psi'/psi = exp(log psi' - log psi)
        fs = unit_scale_solution(s0)
        for z in self.Z_GRID:
            exact = math.exp(mp_log_psi_deriv(s0, 1, z) - mp_log_psi_deriv(s0, 0, z))
            assert rel_err(fs.psi_ratios(-z)[0], exact) <= 1e-13, (s0, z)

    def test_solve_quadrature_budget(self, monkeypatch):
        # quadrature nodes of an 800-step solve, bounded at 1.5x the measured
        # 200 (mu=0.2, five cells) and 80 (two cells) nodes, each solve on
        # an empty table (the three presets share s0 = 0.5)
        nodes = []
        quad = fundamental.log_weighted_integral

        def counted(s, z, *args, **kwargs):
            nodes.append(np.size(z))
            return quad(s, z, *args, **kwargs)

        monkeypatch.setattr(fundamental, "log_weighted_integral", counted)
        for mu, budget in ((0.2, 300), (1.4, 120), (2.25, 120)):
            nodes.clear()
            monkeypatch.setattr(fundamental, "_PANEL_TABLES", {})
            params = table_preset(mu)
            integrate_boundary(params, FundamentalSolution(params), n_steps=800)
            assert 0 < sum(nodes) <= budget, mu

    def test_solved_instance_is_not_a_reference_cycle(self):
        params = table_preset(1.4)
        gc.disable()
        try:
            fs = FundamentalSolution(params)
            integrate_boundary(params, fs, n_steps=200)
            ref = weakref.ref(fs)
            del fs
            assert ref() is None
        finally:
            gc.enable()

    def test_non_finite_argument_is_typed(self, fs):
        for x in (math.nan, math.inf, -math.inf):
            with pytest.raises(NumericalError):
                fs.psi(x)
            with pytest.raises(NumericalError):
                fs.psi_derivs(x, 3)

    def test_overflow_is_typed_and_names_the_point(self, params, fs):
        # log psi grows like z^2/2 for z << 0, past the float64 range near z = -38
        x = params.mu + 45.0 * params.sigma / math.sqrt(2.0 * params.kappa)
        with pytest.raises(NumericalError, match="log psi") as exc:
            fs.psi_derivs(x, 3)
        assert repr(x) in str(exc.value)


def solve_grids(params, n_steps):
    fb = integrate_boundary(params, FundamentalSolution(params), n_steps=n_steps)
    return fb.x_tilde, fb.f_tilde.tobytes()


class TestSharedPanelTable:
    # a cell's pair depends on s0 = rho/kappa and the cell index alone, so
    # every instance with one s0 reads and fills one module-level table

    @pytest.mark.parametrize("other", [dict(sigma=0.6), dict(mu=0.3)])
    def test_same_s0_builds_no_panel(self, monkeypatch, other):
        # the mu=0.2 preset visits cells -4..0; sigma=0.6 and mu=0.3 (same
        # s0 = 0.5) visit -3..0, so their solves find every pair built
        monkeypatch.setattr(fundamental, "_PANEL_TABLES", {})
        integrate_boundary(table_preset(0.2), FundamentalSolution(table_preset(0.2)),
                           n_steps=800)
        calls = []
        quad = fundamental.log_weighted_integral

        def counted(s, z, *args, **kwargs):
            calls.append(s)
            return quad(s, z, *args, **kwargs)

        monkeypatch.setattr(fundamental, "log_weighted_integral", counted)
        params = replace(table_preset(0.2), **other)
        warm = solve_grids(params, 800)
        assert calls == []
        monkeypatch.setattr(fundamental, "_PANEL_TABLES", {})
        assert solve_grids(params, 800) == warm
        assert calls

    def test_evicted_table_stays_valid(self, monkeypatch):
        monkeypatch.setattr(fundamental, "_PANEL_TABLES", {})
        cap = fundamental._PANEL_TABLE_CAP
        first = unit_scale_solution(0.3)
        xs = (-2.5, -0.4, 0.0, 1.7)
        before = [(first.psi(x), first.psi_ratios(x)) for x in xs]
        for i in range(cap):
            unit_scale_solution(0.31 + 0.01 * i)
        assert len(fundamental._PANEL_TABLES) == cap
        assert 0.3 not in fundamental._PANEL_TABLES
        assert [(first.psi(x), first.psi_ratios(x)) for x in xs] == before
        # a fresh instance binds a new table; x = 3.2 adds a cell to both
        fresh = unit_scale_solution(0.3)
        assert fresh._cells is not first._cells
        for x in (*xs, 3.2):
            assert (fresh.psi(x), fresh.psi_ratios(x)) == (first.psi(x), first.psi_ratios(x))
        assert len(fundamental._PANEL_TABLES) == cap

    def test_concurrent_solves_match_serial(self, monkeypatch):
        # eight threads bind, fill and read the tables of three s0 at once,
        # with thread switches forced often; the grids match a serial run
        base = table_preset(0.2)
        sets = [replace(base, rho=rho, sigma=sigma)
                for rho in (0.04, 0.045, 0.05) for sigma in (0.5, 0.6)]
        monkeypatch.setattr(fundamental, "_PANEL_TABLES", {})
        serial = [solve_grids(p, 200) for p in sets]
        monkeypatch.setattr(fundamental, "_PANEL_TABLES", {})
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(max_workers=8) as pool:
                futures = [pool.submit(solve_grids, p, 200) for p in sets * 3]
                threaded = [f.result(timeout=120) for f in futures]
        finally:
            sys.setswitchinterval(interval)
        assert threaded == serial * 3
        assert sorted(fundamental._PANEL_TABLES) == sorted({p.rho / p.kappa for p in sets})


class TestVectorisedQuadrature:
    @pytest.mark.parametrize("s", [0.06, 0.5, 1.5, 3.0])
    def test_array_equals_scalar_calls(self, s):
        for j in (-7, -3, -1, 0, 2, 5):
            zs = j + 0.5 * (1.0 + fundamental._CHEB_NODES)
            log_vals, achieved, level = log_weighted_integral(s, zs)
            scalar = [log_weighted_integral(s, float(z)) for z in zs]
            assert log_vals.tolist() == [v for v, _, _ in scalar]
            assert achieved == max(a for _, a, _ in scalar)
            assert level == max(m for _, _, m in scalar)

    def test_non_converging_node_reports_worst_achieved(self):
        # with four doublings the nodes with z <= -4 (interior peak) fail
        # and those with z >= -2 converge
        zs = np.linspace(-12.0, 6.0, 10)
        scalar = []
        for z in zs:
            try:
                log_weighted_integral(0.5, float(z), max_level=4)
            except NumericalError as exc:
                scalar.append(exc.achieved)
        assert 0 < len(scalar) < len(zs)
        with pytest.raises(NumericalError) as exc:
            log_weighted_integral(0.5, zs, max_level=4)
        assert exc.value.achieved == max(scalar)

    @pytest.mark.parametrize("s", [30.0, 50.0, 100.0, 200.0, 1000.0, 5e6])
    def test_large_order_matches_mpmath_or_raises(self, s):
        # t^{s-1} moves the integrand's peak toward the cutoff
        # T = max(0, -z) + 13, and past it for s >~ 170 at z = 0
        for z in (-5.0, 0.0, 5.0):
            try:
                got = log_weighted_integral(s, z)[0]
            except NumericalError:
                assert (s, z) != (50.0, 0.0)
                continue
            assert (s, z) not in ((100.0, 0.0), (1000.0, 0.0))
            exact = mp_log_psi_deriv(s, 0, z) + float(mpmath.loggamma(s))
            assert abs(got - exact) <= 1e-12 * max(1.0, abs(exact)), (s, z)


class TestPsiRatios:
    @pytest.mark.parametrize("mu", [0.2, 1.4, 2.25])
    def test_agrees_with_derivatives_over_psi(self, mu):
        p = table_preset(mu)
        fs = FundamentalSolution(p)
        half = 45.0 * p.sigma / math.sqrt(2.0 * p.kappa)
        checked = 0
        for x in np.linspace(p.mu - half, p.mu + half, 300):
            try:
                derivs = fs.psi_derivs(float(x), 3)
            except NumericalError:
                continue
            ratios = fs.psi_ratios(float(x))
            for k in (1, 2, 3):
                assert rel_err(ratios[k - 1], derivs[k] / derivs[0]) < 1e-12, (x, k)
            checked += 1
        assert checked > 200

    def test_finite_where_psi_overflows(self):
        p = table_preset(1.4)
        fs = FundamentalSolution(p)
        x = p.mu + 60.0 * p.sigma / math.sqrt(2.0 * p.kappa)  # z = -60
        with pytest.raises(NumericalError):
            fs.psi(x)
        ratios = fs.psi_ratios(x)
        assert all(math.isfinite(r) and r > 0.0 for r in ratios)


def test_package_import_does_not_load_scipy():
    src = str(Path(solarinvest.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    proc = subprocess.run(
        [sys.executable, "-c",
         "import solarinvest, sys; assert 'scipy' not in sys.modules, 'scipy loaded'"],
        env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
