import json
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from solarinvest import (ConfigurationError, FixedThreshold, ImmediateFull,
                         NeverInstall, OptimalReflection, dominance_report,
                         estimate_value, estimate_value_many, initial_lump,
                         r_value, simulate_path, verification_states)
from solarinvest import simulate
from solarinvest.simulate import Policy, discount_tail_bound


@pytest.fixture(scope="module")
def setup(base):
    params, fs, fb, vf = base
    return params, fb, vf


class GradualAbove(Policy):
    """Custom rule overriding only ``target``: consulted at every step."""

    name = "gradual_above"

    def target(self, x_arr, y_arr):
        return y_arr + 0.5 * np.maximum(x_arr - 1.6, 0.0)


POLICIES = {
    "optimal": lambda params, fb: OptimalReflection(params, fb),
    "never_install": lambda params, fb: NeverInstall(),
    "immediate_full": lambda params, fb: ImmediateFull(),
    "fixed_threshold": lambda params, fb: FixedThreshold(1.8, params.y_bar),
    "custom_target": lambda params, fb: GradualAbove(),
}


class TestInitialLump:
    def test_waiting_state_no_lump(self, setup):
        _, fb, _ = setup
        y = 1.0
        assert initial_lump(fb, fb.f(y) - 0.2, y) == 0.0

    def test_high_price_fills_capacity(self, setup):
        params, fb, _ = setup
        y = 1.0
        assert initial_lump(fb, fb.x_bar + 0.3, y) == params.y_bar - y

    def test_intermediate_price_jumps_to_boundary(self, setup):
        _, fb, _ = setup
        y = 1.0
        x = 0.5 * (fb.f(y) + fb.x_bar)
        lump = initial_lump(fb, x, y)
        assert lump > 0.0
        assert abs(fb.f(y + lump) - x) < 1e-7

    def test_never_negative_just_above_boundary(self, solved):
        # the interpolated inverse of F dips below y right above F(y); the
        # optimal strategy never removes panels
        for mu, (params, _, fb, _) in solved.items():
            for y in np.linspace(0.0, params.y_bar, 300)[:-1]:
                x = math.nextafter(fb.f(float(y)), math.inf)
                assert initial_lump(fb, x, float(y)) >= 0.0, (mu, y)


class TestPaths:
    def test_never_install_keeps_capacity_constant(self, setup):
        params, fb, _ = setup
        rec = simulate_path(params, NeverInstall(), 1.0, 1.0, dt=0.01,
                            horizon=20.0, seed=7)
        assert np.all(rec.y == 1.0)
        assert rec.total_installed == 0.0
        assert math.isnan(rec.first_install_time)

    def test_optimal_path_respects_boundary(self, setup):
        params, fb, _ = setup
        pol = OptimalReflection(params, fb)
        rec = simulate_path(params, pol, fb.f(1.0) - 0.1, 1.0, dt=0.01,
                            horizon=60.0, seed=11)
        assert np.all(np.diff(rec.y) >= 0.0)
        assert np.all(rec.y <= params.y_bar + 1e-12)
        # post-projection states sit on or below the boundary while capacity
        # remains; pre-projection overshoot is one Euler step worth of noise
        interior = rec.y < params.y_bar * (1.0 - 1e-12)
        gaps = rec.x[interior] - fb.f_values(rec.y[interior])
        assert gaps.max() <= 6.0 * params.sigma * math.sqrt(0.01)
        assert rec.max_overshoot <= 6.0 * params.sigma * math.sqrt(0.01)

    def test_first_install_time_and_lump_recorded(self, setup):
        params, fb, _ = setup
        pol = OptimalReflection(params, fb)
        x = 0.5 * (fb.f(1.0) + fb.x_bar)
        rec = simulate_path(params, pol, x, 1.0, dt=0.01, horizon=5.0, seed=3)
        assert rec.first_install_time == 0.0
        assert rec.initial_lump > 0.0
        assert rec.total_installed >= rec.initial_lump

    def test_zero_volatility_follows_drift_oracle(self, setup):
        # with sigma ~ 0 the price relaxes to the line of means; closed-form
        # oracle m + (x - m) e^{-kappa t}
        params, fb, _ = setup
        quiet = replace(params, sigma=1e-8)
        y = 3.0
        x = fb.f(y) - 0.3
        m = params.mu - params.beta * y
        assert m < fb.f(y)  # drift target below the boundary: never installs
        rec = simulate_path(quiet, OptimalReflection(params, fb), x, y,
                            dt=0.01, horizon=40.0, seed=1)
        oracle = m + (x - m) * np.exp(-params.kappa * rec.t)
        assert np.max(np.abs(rec.x - oracle)) < 5e-3 * (1.0 + abs(x - m))
        assert rec.total_installed == 0.0

    def test_zero_volatility_crossing_installs(self, setup):
        params, fb, _ = setup
        quiet = replace(params, sigma=1e-8)
        # at zero capacity the drift target mu exceeds F(0), so the
        # deterministic path crosses the boundary and must install
        assert params.mu > fb.x0
        rec = simulate_path(quiet, OptimalReflection(params, fb), fb.x0 - 0.05,
                            0.0, dt=0.01, horizon=120.0, seed=1)
        assert rec.total_installed > 0.0
        assert not math.isnan(rec.first_install_time)

    def test_path_matches_estimator_stream(self, setup):
        params, fb, _ = setup
        pol = OptimalReflection(params, fb)
        res = estimate_value(params, pol, 1.2, 1.0, n_paths=3, dt=0.02,
                             horizon=10.0, seed=99, keep_payoffs=True)
        rec = simulate_path(params, pol, 1.2, 1.0, dt=0.02, horizon=10.0,
                            seed=99, path_index=1)
        # same stream, same decisions, same kernel
        assert rec.payoff == pytest.approx(res.payoffs[1], rel=1e-9)

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_path_equals_estimator_payoff_exactly(self, setup, name):
        params, fb, _ = setup
        pol = POLICIES[name](params, fb)
        settings = dict(dt=0.02, horizon=10.0, seed=5)
        for x, y in verification_states(fb, 1.0):
            res = estimate_value(params, pol, x, y, n_paths=20, keep_payoffs=True,
                                 **settings)
            for i in range(20):
                rec = simulate_path(params, pol, x, y, path_index=i, **settings)
                assert rec.payoff == res.payoffs[i]

    def test_batched_equals_standalone_exactly(self, setup):
        params, fb, _ = setup
        policies = [make(params, fb) for make in POLICIES.values()]
        states = verification_states(fb, 1.0)
        jobs = [(pol, x, y) for x, y in states for pol in policies]
        settings = dict(n_paths=30, dt=0.02, horizon=10.0, seed=8, keep_payoffs=True)
        batched = estimate_value_many(params, jobs, **settings)
        for (pol, x, y), res in zip(jobs, batched):
            alone = estimate_value(params, pol, x, y, **settings)
            assert np.array_equal(res.payoffs, alone.payoffs)
            assert res.mean_total_installed == alone.mean_total_installed

    def test_monotone_coupling_under_common_noise(self, setup):
        # with shared noise, the higher-capacity path has the lower price
        params, fb, _ = setup
        x, y = fb.f(1.0) + 0.2, 1.0
        rec_never = simulate_path(params, NeverInstall(), x, y, dt=0.01,
                                  horizon=30.0, seed=21)
        rec_opt = simulate_path(params, OptimalReflection(params, fb), x, y,
                                dt=0.01, horizon=30.0, seed=21)
        assert np.all(rec_opt.x <= rec_never.x + 1e-12)
        assert np.all(rec_opt.y >= rec_never.y)


class TestEstimator:
    def test_never_install_matches_closed_form(self, setup):
        params, fb, _ = setup
        x, y = 1.2, 1.0
        res = estimate_value(params, NeverInstall(), x, y, n_paths=2000,
                             dt=0.01, seed=5)
        tol = 3.0 * res.std_error + res.discount_tail_bound
        assert abs(res.estimate - r_value(params, x, y)) <= tol

    def test_deterministic_given_seed(self, setup):
        params, fb, _ = setup
        pol = OptimalReflection(params, fb)
        a = estimate_value(params, pol, 1.2, 1.0, n_paths=64, dt=0.05,
                           horizon=20.0, seed=17)
        b = estimate_value(params, pol, 1.2, 1.0, n_paths=64, dt=0.05,
                           horizon=20.0, seed=17)
        assert a.estimate == b.estimate and a.std_error == b.std_error

    def test_seed_changes_estimate(self, setup):
        params, fb, _ = setup
        a = estimate_value(params, NeverInstall(), 1.2, 1.0, n_paths=64,
                           dt=0.05, horizon=20.0, seed=17)
        b = estimate_value(params, NeverInstall(), 1.2, 1.0, n_paths=64,
                           dt=0.05, horizon=20.0, seed=18)
        assert a.estimate != b.estimate

    def test_standard_error_scales_with_paths(self, setup):
        params, fb, _ = setup
        ses = []
        for n in (1000, 4000, 16000):
            res = estimate_value(params, NeverInstall(), 1.2, 1.0, n_paths=n,
                                 dt=0.05, horizon=30.0, seed=9)
            ses.append(res.std_error)
        for lo, hi in zip(ses[1:], ses[:-1]):
            assert 1.6 <= hi / lo <= 2.4

    def test_antithetic_reduces_error_for_monotone_payoff(self, setup):
        params, fb, _ = setup
        plain = estimate_value(params, NeverInstall(), 1.2, 1.0, n_paths=4000,
                               dt=0.05, horizon=30.0, seed=13)
        anti = estimate_value(params, NeverInstall(), 1.2, 1.0, n_paths=4000,
                              dt=0.05, horizon=30.0, seed=13, antithetic=True)
        assert anti.std_error < plain.std_error
        assert abs(anti.estimate - plain.estimate) <= 4.0 * plain.std_error

    def test_tail_bound_covers_horizon_extension(self, setup):
        # per-path streams are prefix-stable, so the same paths continue
        params, fb, _ = setup
        short = estimate_value(params, NeverInstall(), 1.2, 1.0, n_paths=400,
                               dt=0.05, horizon=100.0, seed=23, keep_payoffs=True)
        long = estimate_value(params, NeverInstall(), 1.2, 1.0, n_paths=400,
                              dt=0.05, horizon=160.0, seed=23, keep_payoffs=True)
        diff = np.abs(long.payoffs - short.payoffs)
        assert diff.mean() <= discount_tail_bound(params, 1.2, 100.0)

    def test_overshoot_shrinks_with_dt(self, setup):
        params, fb, _ = setup
        pol = OptimalReflection(params, fb)
        x, y = fb.f(1.0) + 0.1, 1.0
        mean_over = {}
        for dt in (0.04, 0.01):
            overs = [simulate_path(params, pol, x, y, dt=dt, horizon=20.0,
                                   seed=31, path_index=i).max_overshoot
                     for i in range(60)]
            mean_over[dt] = np.mean(overs)
        ratio = mean_over[0.04] / mean_over[0.01]
        # sqrt(dt) scaling predicts 2
        assert 1.4 <= ratio <= 2.8

    def test_noise_chunk_released_before_next_draw(self, setup, monkeypatch):
        # three chunks of 1024 steps x 256 paths; holding one chunk while
        # the next is drawn would peak above two chunks' bytes
        params, _, _ = setup
        n_paths, chunk = 256, simulate._TIME_CHUNK
        monkeypatch.setattr(simulate, "_CHUNK_BUDGET", n_paths * chunk)
        dt = 0.01
        tracemalloc.start()
        try:
            estimate_value(params, NeverInstall(), 1.0, 0.0, n_paths=n_paths, dt=dt,
                           horizon=3 * chunk * dt, seed=5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * n_paths * chunk * 8

    def test_config_errors(self, setup):
        params, fb, _ = setup
        with pytest.raises(ConfigurationError):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=0, dt=0.01)
        with pytest.raises(ConfigurationError):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=10, dt=0.0)
        with pytest.raises(ConfigurationError):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=10,
                           dt=0.01, horizon=0.005)
        with pytest.raises(ConfigurationError):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=10,
                           dt=0.01, horizon=50.0, tail_tol=1e-6)

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range_rejected(self, setup, seed):
        params, fb, _ = setup
        with pytest.raises(ConfigurationError, match="seed"):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=4, dt=0.1,
                           horizon=1.0, seed=seed)
        with pytest.raises(ConfigurationError, match="seed"):
            simulate_path(params, NeverInstall(), 1.0, 1.0, dt=0.1, horizon=1.0,
                          seed=seed)

    def test_largest_seed_accepted(self, setup):
        params, fb, _ = setup
        res = estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=4, dt=0.1,
                             horizon=1.0, seed=2**128 - 1)
        assert math.isfinite(res.estimate)

    def test_negative_path_index_rejected(self, setup):
        params, fb, _ = setup
        with pytest.raises(ConfigurationError, match="path_index"):
            simulate_path(params, NeverInstall(), 1.0, 1.0, dt=0.1, horizon=1.0,
                          seed=0, path_index=-1)

    @pytest.mark.parametrize("horizon", [math.inf, math.nan])
    def test_non_finite_horizon_rejected(self, setup, horizon):
        params, fb, _ = setup
        with pytest.raises(ConfigurationError, match="horizon"):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=4, dt=0.1,
                           horizon=horizon)
        with pytest.raises(ConfigurationError, match="horizon"):
            simulate_path(params, NeverInstall(), 1.0, 1.0, dt=0.1,
                          horizon=horizon, seed=0)

    def test_empty_jobs_rejected(self, setup):
        params, fb, _ = setup
        with pytest.raises(ConfigurationError, match="jobs"):
            estimate_value_many(params, [], n_paths=4, dt=0.1, horizon=1.0,
                                tail_tol=1e-3)

    def test_fixed_threshold_policy(self, setup):
        params, fb, _ = setup
        pol = FixedThreshold(threshold=1.3, y_bar=params.y_bar)
        rec = simulate_path(params, pol, 1.5, 1.0, dt=0.01, horizon=5.0, seed=2)
        assert rec.initial_lump == params.y_bar - 1.0
        rec2 = simulate_path(params, pol, 0.2, 1.0, dt=0.01, horizon=5.0, seed=2)
        assert rec2.initial_lump == 0.0

    def test_immediate_full_policy(self, setup):
        params, fb, _ = setup
        rec = simulate_path(params, ImmediateFull(), 1.0, 1.0, dt=0.01,
                            horizon=5.0, seed=2)
        assert rec.initial_lump == params.y_bar - 1.0
        assert np.all(rec.y == params.y_bar)


class TestDominance:
    def test_optimal_dominates_baselines_with_common_noise(self, setup):
        params, fb, _ = setup
        x, y = fb.f(1.0) + 0.15, 1.0
        kwargs = dict(n_paths=800, dt=0.02, horizon=150.0, seed=41,
                      keep_payoffs=True)
        opt = estimate_value(params, OptimalReflection(params, fb), x, y, **kwargs)
        never = estimate_value(params, NeverInstall(), x, y, **kwargs)
        full = estimate_value(params, ImmediateFull(), x, y, **kwargs)
        for other in (never, full):
            diff = opt.payoffs - other.payoffs
            se = diff.std(ddof=1) / math.sqrt(len(diff))
            assert diff.mean() >= -3.0 * se

    def test_all_policies_coincide_at_capacity(self, setup):
        params, fb, _ = setup
        x = 1.0
        kwargs = dict(n_paths=400, dt=0.02, horizon=200.0, seed=43, keep_payoffs=True)
        results = [estimate_value(params, pol, x, params.y_bar, **kwargs)
                   for pol in (NeverInstall(), ImmediateFull(),
                               OptimalReflection(params, fb))]
        assert np.array_equal(results[0].payoffs, results[1].payoffs)
        assert np.allclose(results[0].payoffs, results[2].payoffs, rtol=1e-12)
        ref = r_value(params, x, params.y_bar)
        tol = 3.0 * results[0].std_error + results[0].discount_tail_bound
        assert abs(results[0].estimate - ref) <= tol

    def test_gap_over_never_install_grows_with_price(self, setup):
        # the analytic premium w - R = A psi grows in x inside the waiting
        # region; the estimated gap should follow suit across the boundary
        params, fb, _ = setup
        y = 1.0
        xs = [fb.f(y) + 0.1, fb.f(y) + 0.3]
        opt = OptimalReflection(params, fb)
        jobs = [(pol, x, y) for x in xs for pol in (opt, NeverInstall())]
        res = estimate_value_many(params, jobs, n_paths=1500, dt=0.02,
                                  horizon=150.0, seed=3, keep_payoffs=True)
        gaps = [float(np.mean(res[2 * i].payoffs - res[2 * i + 1].payoffs))
                for i in range(len(xs))]
        assert gaps[1] > gaps[0]

    def test_report_deterministic(self, setup):
        params, fb, vf = setup
        states = verification_states(fb)[:1]
        kwargs = dict(n_paths=50, dt=0.05, horizon=20.0, seed=43)
        rep1 = dominance_report(params, fb, vf, states, **kwargs)
        rep2 = dominance_report(params, fb, vf, states, **kwargs)
        assert json.dumps(rep1, sort_keys=True) == json.dumps(rep2, sort_keys=True)

    def test_report_structure(self, setup):
        params, fb, vf = setup
        states = verification_states(fb)
        assert len(states) == 3
        rep = dominance_report(params, fb, vf, states[:1], n_paths=40, dt=0.05,
                               horizon=20.0, seed=43)
        row = rep["states"][0]
        assert {"optimal", "never_install", "immediate_full"} <= set(row)
        assert len(rep["checks"]) == 4
        assert isinstance(rep["all_passed"], bool)
