import math
import tracemalloc
from dataclasses import replace
from functools import partial

import mpmath
import numpy as np
import pytest

from solarinvest import (DomainError, FundamentalSolution, IntegrationError,
                         NumericalError, Regime, Region, ValueFunction, classify_regime,
                         integrate_boundary, ode_rhs, params_from_dict, r_tilde,
                         r_value, solve_x_tilde, table_preset, y_star)
from solarinvest import boundary, fundamental
from solarinvest.cli import _write_csv, sweep_boundaries
from solarinvest.interp import CubicHermite
from solarinvest.model import at_capacity

from conftest import CRITERION_7_SWEEPS, fuzz_draw, rel_err
from oracles import (h_func, hjb_residual_two_pass, n_d_via_ratios3, partials_two_lookup,
                     psi_derivs, ratios3, rhs_via_ratios3)

# regression baselines, self-generated at 2000 RK4 steps and cross-checked
# against an independent bisection of H and a 400-step solve
BASELINES = {
    0.2: {"x_tilde": 3.768355513274, "f0": 1.208589025505, "y_star": -2.378717411035},
    1.4: {"x_tilde": 2.365159228914, "f0": 0.939552865900, "y_star": 2.421282588965},
    2.25: {"x_tilde": 1.974471605720, "f0": 0.866736735136, "y_star": 5.821282588965},
}


def record_floors(monkeypatch):
    """Patch ``math.floor`` to record every value it returns.  A solve's
    closure binds floor when it is built, so one built after the patch
    records the cell index of each of its evaluations, one floor each."""
    floors = []
    floor = math.floor

    def recorded(v):
        j = floor(v)
        floors.append(j)
        return j

    monkeypatch.setattr(math, "floor", recorded)
    return floors


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
            scale = (abs(psi_derivs(fs, xt, 1)[1] * (params.c - r_tilde(params, xt, params.y_bar)))
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

    def test_anchor_reads_only_panels_the_path_needs(self, monkeypatch, fresh_cells):
        # the solve builds the panel pair (log I_s0 and ratio) of exactly the
        # cells that Newton's iterates from mu and the RK4 evaluations span,
        # and the iterates add none to the path's cells (mu = 1.4 lies on
        # the path); an anchor search that evaluated H far from the root
        # would build panels on more cells.
        # An empty cache: earlier solves with this s0 may have filled it
        built = fresh_cells()
        params = table_preset(1.4)
        fs = FundamentalSolution(params)
        newton = []
        ratios = fs.log_psi_ratios

        def recorded_ratios(x):
            newton.append(x)
            return ratios(x)

        monkeypatch.setattr(fs, "log_psi_ratios", recorded_ratios)
        path = record_floors(monkeypatch)
        integrate_boundary(params, fs, n_steps=800)
        assert len(newton) > 1 and len(path) == 4 * 800 + 1
        path_cells = set(path)
        newton_cells = {int(np.floor((params.mu - x) * fs._cell_scale)) for x in newton}
        assert {s0 for s0, _ in built} == {fs._s0}
        assert {j for _, j in built} == path_cells >= newton_cells

    def test_solve_builds_no_s0_plus_one_panel(self, monkeypatch, fresh_cells):
        # a cell's pair takes one quadrature call at s0 and one at s0+1 over
        # its _PANEL_NODES nodes; the s0+1 values go into the ratio panel, and no
        # other order is ever integrated on the solve path (of a solve that
        # starts on an empty cache, so that it builds every pair it reads)
        fresh_cells()
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
        assert all(n == fundamental._PANEL_NODES for _, n in calls)

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
        # at the anchor (rho+kappa)(c - Rtilde) = -psi/psi', so D collapses
        # to Q0 psi psi'' / psi' and N to Q0 ((rho+2 kappa)/rho psi'^2
        # - psi psi'' + psi'^2) / psi'; in the derivatives divided by psi,
        # the right-hand side is beta times their quotient
        params, fs, fb, _ = base
        xt = fb.x_tilde
        d = psi_derivs(fs, xt, 2) / fs.psi(xt)
        q0 = d[0] * d[2] - d[1] ** 2
        d_val = q0 * d[2] / (d[0] * d[1])
        n_val = q0 * ((params.rho + 2.0 * params.kappa) / params.rho * d[1] ** 2
                      - d[0] * d[2] + d[1] ** 2) / (d[0] * d[1])
        assert rel_err(ode_rhs(params, fs, params.y_bar, xt),
                       params.beta * n_val / d_val) < 1e-9

    def test_numerator_dominates_where_denominator_nonnegative(self, base):
        # N > D wherever D >= 0, so the slope exceeds beta wherever D > 0
        params, fs, _, _ = base
        n_d = n_d_via_ratios3(params, fs)
        for y in np.linspace(0.0, params.y_bar, 6):
            for z in np.linspace(params.mu - 2.0, params.mu + 3.0, 11):
                n_val, d_val = n_d(float(y), float(z))
                if d_val >= 0.0:
                    assert n_val > d_val
                if d_val > 0.0:
                    assert ode_rhs(params, fs, float(y), float(z)) > params.beta


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
        n_d = n_d_via_ratios3(params, fs)
        for y, z in zip(fb.ys, fb.f_tilde):
            _, d_val = n_d(float(y), float(z))
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
        # next step's k1, and the anchor's k1 is the one extra.  Each
        # evaluation takes one floor; the anchor's Newton reads do not
        # count, as log_psi_ratios reads the floor bound at import
        params = table_preset(1.4)
        fs = FundamentalSolution(params)
        floors = record_floors(monkeypatch)
        n_steps = 150
        integrate_boundary(params, fs, n_steps=n_steps)
        assert len(floors) == 4 * n_steps + 1

    def test_solve_peak_within_node_bytes(self, base):
        # the per-node budget that sets max_steps(), and so the CLI's
        # --steps ceiling: grid lists, slopes, arrays and both cubics
        params, fs, _, _ = base
        n_steps = 20_000
        tracemalloc.start()
        try:
            integrate_boundary(params, fs, n_steps=n_steps)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= boundary._NODE_BYTES * (n_steps + 1)

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


def constant_cells(monkeypatch, log_c0=None, ratio_c0=None):
    """Patch ``fundamental._cell`` so that every cell's log panel, ratio
    panel or both read as ``constant_panel(panel, c0)``; a None keeps that
    panel as built."""
    cell = fundamental._cell

    def patched(s0, j):
        return tuple(panel if c0 is None else constant_panel(panel, c0)
                     for panel, c0 in zip(cell(s0, j), (log_c0, ratio_c0)))

    monkeypatch.setattr(fundamental, "_cell", patched)


def ratio_readers(params, fs):
    """The routes that read z's ratio panel: ``log_psi_ratios``, the oracle
    ``ratios3`` that carries it to psi'''/psi, and the solve's evaluation,
    through ``ode_rhs`` (at y = y_bar)."""
    return (fs.log_psi_ratios, partial(ratios3, fs),
            lambda z: ode_rhs(params, fs, params.y_bar, z))


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
            return n_d_via_ratios3(params, fs)(y, z)[1]

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
        # a constant ratio panel c0: left of mu the drift term of the
        # recurrence is negative, so a large psi'/psi = scale c0 turns
        # psi''/psi negative, and a negative one leaves psi''/psi positive
        # and psi'''/psi negative
        params = table_preset(1.4)
        fs = FundamentalSolution(params)
        x = params.mu - 0.3
        # a value function built before the patch, and a waiting state
        # whose psi point x + beta y is x
        vf = ValueFunction(params, fs, integrate_boundary(params, fs, n_steps=200))
        y = 0.5 * params.y_bar
        state = (x - params.beta * y, y)
        assert vf.fb.region(*state) is Region.W and state[0] + params.beta * y == x
        unpatched = (fs.psi(x), vf.w(*state))
        constant_cells(monkeypatch, ratio_c0=c0)
        # psi and w read the log panel alone and do not check psi''/psi
        assert (fs.psi(x), vf.w(*state)) == unpatched
        readers = ratio_readers(params, fs)
        if k == 3:
            # log_psi_ratios stops at psi''/psi, which is positive here
            assert fs.log_psi_ratios(x)[2] > 0.0
            readers = readers[1:]
        else:
            # partials reads psi''/psi at x and refuses it as the others do
            readers += (lambda _: vf.partials(*state),)
        # the solve's evaluation reads the same panel and raises the same
        messages = []
        for read in readers:
            with pytest.raises(NumericalError,
                               match=rf"^derivative recurrence lost positivity at k={k}, x="
                               ) as caught:
                read(x)
            messages.append(str(caught.value))
        assert len(set(messages)) == 1

    def test_psi_derivative_overflows_in_the_value_layer(self, monkeypatch):
        # constant panels put log psi at 709.5, where psi is finite, and
        # psi'/psi at 2, so psi' = psi r1 overflows; right of mu the drift
        # term keeps psi''/psi positive, so the k = 2 check passes
        params = table_preset(1.4)
        fs = FundamentalSolution(params)
        vf = ValueFunction(params, fs, integrate_boundary(params, fs, n_steps=200))
        # a waiting state near capacity, where A(y) < 1 keeps w = A psi + R finite
        y = 0.98 * params.y_bar
        state = (params.mu - 0.2, y)
        x = state[0] + params.beta * y
        assert vf.fb.region(*state) is Region.W and x > params.mu and vf.a(y) < 1.0
        constant_cells(monkeypatch, 709.5 + math.lgamma(params.rho / params.kappa),
                       2.0 / fs._scale)
        log_psi, r1, r2 = fs.log_psi_ratios(x)
        assert abs(log_psi - 709.5) < 1e-12 and r1 > 1.5 and r2 > 0.0
        assert math.isfinite(vf.w(*state))
        for method in (vf.partials, vf.hjb_residual):
            with pytest.raises(NumericalError, match=r"^psi\^\(1\)\(.*\) overflows float64: "
                                                     r"log psi\^\(1\) = "):
                method(*state)

    @pytest.mark.parametrize("offset", [1.5e308, -1.5e308, math.nan])
    def test_cell_coordinate_outside_float64(self, base, offset):
        # z = mu + offset: the cell coordinate overflows or is NaN, and the
        # ratio reads and the solve's evaluation refuse it alike
        params, fs, _, _ = base
        z = params.mu + offset
        messages = []
        for read in ratio_readers(params, fs):
            with pytest.raises(NumericalError, match=r"^psi'/psi requested at x=") as caught:
                read(z)
            messages.append(str(caught.value))
        assert len(set(messages)) == 1
        assert messages[0].endswith("outside the float64 range")


def rhs_outcomes(rhs, points):
    """Per (y, z): the slope's float.hex string, or the refusal's class and
    message."""
    out = []
    for y, z in points:
        try:
            out.append(rhs(y, z).hex())
        except (NumericalError, IntegrationError) as exc:
            out.append(f"{type(exc).__name__}: {exc}")
    return out


def n_d_grid(params, n_d):
    """(y, z) points on and off the solve path: a rectangle around mu
    that reaches D < 0, the two floats around each root of D it brackets
    (bisected to the last float), and z whose cell coordinate overflows."""
    ys = np.linspace(0.0, params.y_bar, 9).tolist()
    zs = np.linspace(params.mu - 3.0, params.mu + 4.0, 57).tolist()
    points = [(y, z) for y in ys for z in zs]
    for y in ys:
        d_vals = [n_d(y, z)[1] for z in zs]
        for lo, hi, d_lo, d_hi in zip(zs, zs[1:], d_vals, d_vals[1:]):
            if (d_lo > 0.0) != (d_hi > 0.0):
                for _ in range(80):
                    mid = 0.5 * (lo + hi)
                    if (n_d(y, mid)[1] > 0.0) == (d_lo > 0.0):
                        lo = mid
                    else:
                        hi = mid
                points += [(y, lo), (y, hi)]
    points += [(params.y_bar, params.mu + dz) for dz in (1.5e308, -1.5e308, math.nan)]
    return points


class TestEvaluatorOracle:
    """The solve's one evaluation route, ``ode_rhs``, equals ``psi_ratios``
    followed by the N/D arithmetic and the singular check in further
    frames, byte for byte, raises included."""

    def test_presets(self, solved):
        for mu, (params, fs, fb, _) in solved.items():
            n_d = n_d_via_ratios3(params, fs)
            points = n_d_grid(params, n_d)
            assert any(n_d(y, z)[1] < 0.0 for y, z in points[:-3]), mu
            points += list(zip(fb.ys.tolist()[::50], fb.f_tilde.tolist()[::50]))
            outcomes = rhs_outcomes(partial(ode_rhs, params, fs), points)
            assert outcomes == rhs_outcomes(rhs_via_ratios3(params, fs), points), mu
            assert any(o.startswith("IntegrationError: boundary ODE singular")
                       for o in outcomes), mu

    def test_empty_table(self, fresh_cells):
        # an s0 no other test reads, on an emptied cache: the solve's own
        # reads build the cells, and the oracle builds its own on a second
        # one (the points come from a third)
        params = replace(table_preset(1.4), rho=0.0437)
        fresh_cells()
        points = n_d_grid(params, n_d_via_ratios3(params, FundamentalSolution(params)))
        outcomes, tables = [], []
        for make in (partial(partial, ode_rhs), rhs_via_ratios3):
            built = fresh_cells()
            fs = FundamentalSolution(params)
            assert not built
            outcomes.append(rhs_outcomes(make(params, fs), points))
            tables.append({key: fundamental._cell(*key) for key in built})
        assert outcomes[0] == outcomes[1]
        assert tables[0] and tables[0] == tables[1]


def reference_rk4(params, fs, x_tilde, n_steps):
    """Classical RK4 for Ftilde' = beta N/D from (y_bar, x_tilde), written
    from the module docstring's N and D divided by psi^3, with no checks."""
    p = params

    def rhs(y, z):
        r1, r2, r3 = ratios3(fs, z)
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


class TestCellCache:
    def test_reference_rk4_on_an_emptied_table(self, fresh_cells):
        # an s0 no other test reads, on an emptied cache: the solve builds
        # each cell its path enters, and a stage that crosses a cell edge
        # unpacks the new cell's coefficients before its read
        built = fresh_cells()
        params = replace(table_preset(0.2), rho=0.0391)
        fs = FundamentalSolution(params)
        with pytest.MonkeyPatch.context() as patch:
            path = record_floors(patch)
            fb = integrate_boundary(params, fs, n_steps=800)
        assert len(set(path)) > 10
        assert {j for _, j in built} >= set(path)
        ref = reference_rk4(params, fs, fb.x_tilde, 800)
        assert ref.tobytes() == fb.f_tilde.tobytes()


class TestBoundaryQueries:
    def test_inverse_roundtrip_on_grid(self, base):
        _, _, fb, _ = base
        for y, f_val in list(zip(fb.ys, fb.f_grid))[::50]:
            assert abs(fb.f_inverse(float(f_val)) - y) < 1e-8

    def test_forward_roundtrip_off_grid(self, base):
        _, _, fb, _ = base
        for x in np.linspace(fb.x0, fb.x_bar, 37):
            assert abs(fb.f(fb.f_inverse(float(x))) - x) < 1e-7

    def test_cubics_read_the_odes_slopes(self, monkeypatch):
        # F is built on Ftilde' - beta = beta N/D - beta at each node, as the
        # solve evaluated it, and its inverse on the reciprocal, bit for bit
        built = []

        class Recorded(CubicHermite):
            def __init__(self, x, y, dydx):
                built.append((x, y, dydx))
                super().__init__(x, y, dydx)

        monkeypatch.setattr(boundary, "CubicHermite", Recorded)
        for mu in (0.2, 1.4, 2.25):
            params = table_preset(mu)
            fs = FundamentalSolution(params)
            fb = integrate_boundary(params, fs, n_steps=400)
            (x, y, f_slopes), (x_inv, y_inv, inv_slopes) = built
            built.clear()
            want = np.array([ode_rhs(params, fs, yi, zi)
                             for yi, zi in zip(fb.ys.tolist(), fb.f_tilde.tolist())]) - params.beta
            assert x is fb.ys and y is fb.f_grid, mu
            assert x_inv is fb.f_grid and y_inv is fb.ys, mu
            assert f_slopes.tobytes() == want.tobytes(), mu
            assert inv_slopes.tobytes() == (1.0 / want).tobytes(), mu

    def test_midpoints_match_a_finer_solve(self, solved):
        # between the 2000-step nodes, F and its inverse against the odd
        # nodes of a 4000-step solve: the nodes alone agree to about 1e-14
        for mu, (params, fs, fb, _) in solved.items():
            fine = integrate_boundary(params, fs, n_steps=4000)
            ys, f_mid = fine.ys[1::2], fine.f_grid[1::2]
            assert np.max(np.abs(fb.f_values(ys) - f_mid) / f_mid) < 1e-13, mu
            inv = np.array([fb.f_inverse(x) for x in f_mid.tolist()])
            assert np.max(np.abs(inv - ys)) < 1e-13 * params.y_bar, mu

    def test_equality_is_identity(self):
        # the fields hold arrays, whose == is elementwise
        params = table_preset(1.4)
        fb1, fb2 = (integrate_boundary(params, FundamentalSolution(params), n_steps=200)
                    for _ in range(2))
        assert fb1 == fb1 and fb1 != fb2
        assert len({fb1, fb2, fb1}) == 2

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

    def test_region_at_capacity_is_waiting(self, solved):
        for mu, (params, fs, fb, vf) in solved.items():
            for x in (-1.0, fb.x_bar + 2.0):
                assert fb.region(x, params.y_bar) is Region.W
            # inside at_capacity's band below y_bar, F(y) < x_bar, so states
            # with F(y) <= x < x_bar exist; nothing is left to install there
            y = params.y_bar * (1.0 - 5e-16)
            assert y < params.y_bar and at_capacity(params, y), mu
            assert fb.f(y) < fb.x_bar, mu
            for x in (fb.f(y), math.nextafter(fb.x_bar, -math.inf)):
                assert fb.region(x, y) is Region.W, (mu, x)
                assert fb.lump_target(x, y) == y, (mu, x)
                assert vf.partials(x, y) == partials_two_lookup(vf, x, y), (mu, x)
                assert vf.hjb_residual(x, y) == hjb_residual_two_pass(vf, x, y), (mu, x)
                assert vf.w(x, y) == (vf.a(y) * fs.psi(x + params.beta * y)
                                      + r_value(params, x, y)), (mu, x)

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
        _write_csv(p1, "y,F_tilde,F", zip(fb.ys, fb.f_tilde, fb.f_grid))
        _write_csv(p2, "y,F_tilde,F", zip(fb.ys, fb.f_tilde, fb.f_grid))
        assert p1.read_bytes() == p2.read_bytes()
        lines = p1.read_text().splitlines()
        assert lines[0] == "y,F_tilde,F"
        assert len(lines) == len(fb.ys) + 1
        y, ft, f = (float(v) for v in lines[-1].split(","))
        assert y == fb.params.y_bar
        assert rel_err(ft, fb.x_tilde) < 1e-11
