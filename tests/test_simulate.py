import json
import math
import re
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from solarinvest import (ConfigurationError, FixedThreshold, ImmediateFull,
                         NeverInstall, OptimalReflection, SimulationError,
                         dominance_report, estimate_value, estimate_value_many,
                         r_value, simulate_path, verification_states)
from solarinvest import simulate
from solarinvest.model import at_capacity
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


class StartBelow(NeverInstall):
    """Asks to remove a unit of capacity at t = 0; the kernel keeps y."""

    name = "start_below"

    def start(self, x, y):
        return y - 1.0


class NanStart(NeverInstall):
    name = "nan_start"

    def start(self, x, y):
        return math.nan


class NanTarget(Policy):
    name = "nan_target"

    def target(self, x_arr, y_arr):
        return np.full_like(x_arr, math.nan)


class NanBoundary(Policy):
    """Fills capacity when consulted, but its boundary is NaN."""

    name = "nan_boundary"

    def target(self, x_arr, y_arr):
        return np.full_like(x_arr, 5.0)

    def boundary_at(self, y_arr):
        return math.nan


class NanAbove(Policy):
    """Installs a unit above 1.5 while capacity is below 2; its boundary is
    NaN from capacity 2 on."""

    name = "nan_above"

    def target(self, x_arr, y_arr):
        return y_arr + 1.0

    def boundary_at(self, y_arr):
        return np.where(y_arr < 2.0, 1.5, math.nan)


def no_streams(seed, indices):
    raise AssertionError("a generator was built")


def guard_count(monkeypatch, params, jobs, n_paths, **settings):
    """The bytes the run guard counts for a run, from its refusal with no memory."""
    with monkeypatch.context() as patch:
        patch.setattr(simulate, "physical_memory_bytes", lambda: 0)
        with pytest.raises(ConfigurationError) as refused:
            estimate_value_many(params, jobs, n_paths, **settings)
    return int(re.search(r"take (\d+) bytes", str(refused.value))[1])


def traced_peak(params, jobs, n_paths, **settings):
    """The traced peak of a run, in bytes."""
    tracemalloc.start()
    try:
        estimate_value_many(params, jobs, n_paths, **settings)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class StartBeyond(ImmediateFull):
    """Asks for far more than y_bar at t = 0; the kernel installs up to y_bar."""

    name = "start_beyond"

    def start(self, x, y):
        return 1e300


POLICIES = {
    "optimal": lambda params, fb: OptimalReflection(params, fb),
    "never_install": lambda params, fb: NeverInstall(),
    "immediate_full": lambda params, fb: ImmediateFull(),
    "fixed_threshold": lambda params, fb: FixedThreshold(1.8),
    "custom_target": lambda params, fb: GradualAbove(),
    "start_below": lambda params, fb: StartBelow(),
}


def kernel_lump(params, policy, x, y):
    """The t = 0 installation the path kernel reports for (x, y)."""
    return simulate_path(params, policy, x, y, dt=0.1, horizon=0.2, seed=0).initial_lump


class TestInitialLump:
    def test_waiting_state_no_lump(self, setup):
        params, fb, _ = setup
        y = 1.0
        assert kernel_lump(params, OptimalReflection(params, fb), fb.f(y) - 0.2, y) == 0.0

    def test_high_price_fills_capacity(self, setup):
        params, fb, _ = setup
        y = 1.0
        lump = kernel_lump(params, OptimalReflection(params, fb), fb.x_bar + 0.3, y)
        assert lump == params.y_bar - y

    def test_intermediate_price_jumps_to_boundary(self, setup):
        params, fb, _ = setup
        y = 1.0
        x = 0.5 * (fb.f(y) + fb.x_bar)
        lump = kernel_lump(params, OptimalReflection(params, fb), x, y)
        assert lump > 0.0
        assert abs(fb.f(y + lump) - x) < 1e-7

    def test_never_negative_just_above_boundary(self, solved):
        # the interpolated inverse of F dips below y right above F(y); the
        # optimal strategy never removes panels, so the kernel's clamp at
        # t = 0 has nothing to cut from its lump
        for mu, (params, _, fb, _) in solved.items():
            ys = [float(y) for y in np.linspace(0.0, params.y_bar, 300)[:-1]]
            xs = [math.nextafter(fb.f(y), math.inf) for y in ys]
            pol = OptimalReflection(params, fb)
            res = estimate_value_many(params, [(pol, x, y) for x, y in zip(xs, ys)],
                                      n_paths=1, dt=0.1, horizon=0.2)
            for x, y, r in zip(xs, ys, res):
                assert r.initial_lump >= 0.0, (mu, y)
                assert r.initial_lump == fb.lump_target(x, y) - y, (mu, y)

    def test_start_below_capacity_is_clamped_to_no_lump(self, setup):
        params, fb, _ = setup
        settings = dict(n_paths=50, dt=0.02, horizon=10.0, seed=4, keep_payoffs=True)
        for x, y in verification_states(fb):
            res = estimate_value(params, StartBelow(), x, y, **settings)
            ref = estimate_value(params, NeverInstall(), x, y, **settings)
            assert res.initial_lump == 0.0
            assert res.mean_total_installed == 0.0
            assert np.array_equal(res.payoffs, ref.payoffs)

    def test_start_beyond_cap_is_clamped_to_capacity(self, setup):
        params, fb, _ = setup
        settings = dict(n_paths=50, dt=0.02, horizon=10.0, seed=4, keep_payoffs=True)
        for x, y in verification_states(fb):
            res = estimate_value(params, StartBeyond(), x, y, **settings)
            ref = estimate_value(params, ImmediateFull(), x, y, **settings)
            assert res.initial_lump == params.y_bar - y
            assert np.array_equal(res.payoffs, ref.payoffs)


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

    def test_overshoot_is_excess_at_the_crossing_step(self, setup):
        # a fixed threshold fills capacity at the first step whose price is
        # above it; before that every excess is negative, after it the
        # threshold is +inf, so the overshoot is that step's excess
        params, fb, _ = setup
        th = 1.25
        rec = simulate_path(params, FixedThreshold(th), 1.2, 1.0, dt=0.01,
                            horizon=20.0, seed=6)
        k = int(np.argmax(rec.x > th))
        assert rec.x[k] > th and rec.first_install_time == rec.t[k]
        assert rec.max_overshoot == rec.x[k] - th
        lumped = simulate_path(params, FixedThreshold(th), 1.3, 1.0, dt=0.01,
                               horizon=20.0, seed=6)
        assert lumped.initial_lump == params.y_bar - 1.0 and lumped.max_overshoot == 0.0

    def test_path_matches_estimator_stream(self, setup):
        params, fb, _ = setup
        pol = OptimalReflection(params, fb)
        res = estimate_value(params, pol, 1.2, 1.0, n_paths=3, dt=0.02,
                             horizon=10.0, seed=99, keep_payoffs=True)
        rec = simulate_path(params, pol, 1.2, 1.0, dt=0.02, horizon=10.0,
                            seed=99, path_index=1)
        # same stream, same decisions, same float operations
        assert rec.payoff == res.payoffs[1]

    def test_scalar_target_is_broadcast(self, setup):
        # a target that returns one level for all paths: the kernel's
        # np.maximum broadcasts it, and the traced path reads it the same way
        params, fb, _ = setup

        class FlatTarget(Policy):
            name = "flat_target"

            def target(self, x_arr, y_arr):
                return 3.0

            def boundary_at(self, y_arr):
                return 1.5

        settings = dict(dt=0.02, horizon=10.0, seed=99)
        res = estimate_value(params, FlatTarget(), 1.45, 1.0, n_paths=4, keep_payoffs=True,
                             **settings)
        rec = simulate_path(params, FlatTarget(), 1.45, 1.0, path_index=3, **settings)
        assert rec.total_installed == 2.0
        assert rec.payoff == res.payoffs[3]

    @pytest.mark.parametrize("name", sorted(POLICIES))
    def test_path_equals_estimator_payoff_exactly(self, setup, name):
        params, fb, _ = setup
        pol = POLICIES[name](params, fb)
        settings = dict(dt=0.02, horizon=10.0, seed=5)
        for x, y in verification_states(fb):
            res = estimate_value(params, pol, x, y, n_paths=20, keep_payoffs=True,
                                 **settings)
            for i in range(20):
                rec = simulate_path(params, pol, x, y, path_index=i, **settings)
                assert rec.payoff == res.payoffs[i]

    def test_batched_equals_standalone_exactly(self, setup):
        params, fb, _ = setup
        policies = [make(params, fb) for make in POLICIES.values()]
        states = verification_states(fb)
        jobs = [(pol, x, y) for x, y in states for pol in policies]
        settings = dict(n_paths=30, dt=0.02, horizon=10.0, seed=8, keep_payoffs=True)
        batched = estimate_value_many(params, jobs, **settings)
        for (pol, x, y), res in zip(jobs, batched):
            alone = estimate_value(params, pol, x, y, **settings)
            assert np.array_equal(res.payoffs, alone.payoffs)
            assert res.mean_total_installed == alone.mean_total_installed

    def test_path_batches_change_no_value(self, setup, monkeypatch):
        # 20 paths in batches of 7: 7 + 7 + 6, against one batch of 20.
        # Paths 6 and 7 lie on either side of the first batch edge
        params, fb, _ = setup
        policies = (OptimalReflection(params, fb), NeverInstall(), ImmediateFull())
        jobs = [(pol, x, y) for x, y in verification_states(fb) for pol in policies]
        settings = dict(dt=0.01, horizon=20.0, seed=2024)
        run, batches = simulate._run, []

        def recorded(*args):  # each job's first install times, batch by batch
            out = run(*args)
            batches.append(out[2])
            return out

        monkeypatch.setattr(simulate, "_run", recorded)
        runs = []
        for batch in (simulate._PATH_BATCH, 7):
            monkeypatch.setattr(simulate, "_PATH_BATCH", batch)
            batches.clear()
            many = estimate_value_many(params, jobs, 20, keep_payoffs=True, **settings)
            firsts = np.hstack(batches)
            runs.append((np.stack([r.payoffs for r in many]).tobytes(),
                         repr([r.summary_dict() for r in many]), firsts.tobytes()))
        assert len(batches) == 3 and runs[1] == runs[0]
        assert (firsts > 0.0).any() and np.isnan(firsts).any()
        for i in (6, 7):
            for j, ((pol, x, y), res) in enumerate(zip(jobs, many)):
                rec = simulate_path(params, pol, x, y, path_index=i, **settings)
                assert np.float64(rec.payoff).tobytes() == res.payoffs[i].tobytes()
                assert np.float64(rec.first_install_time).tobytes() == firsts[j, i].tobytes()

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


def test_path_record_equality_is_identity(setup):
    # the fields hold arrays, whose == is elementwise
    params, _, _ = setup
    rec1, rec2 = (simulate_path(params, NeverInstall(), 1.0, 1.0, dt=0.1, horizon=1.0, seed=5)
                  for _ in range(2))
    assert rec1 == rec1 and rec1 != rec2
    assert len({rec1, rec2, rec1}) == 2


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
        # the budget of n_paths x chunk elements covers both live chunks (the
        # one stepped and the one drawn ahead), so each holds chunk / 2 steps
        # and the run is six chunks in two buffers; giving each chunk the
        # whole budget would peak above the bound
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
        params, fb, vf = setup
        with pytest.raises(ConfigurationError):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=0, dt=0.01)
        with pytest.raises(ConfigurationError):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=10, dt=0.0)
        with pytest.raises(ConfigurationError):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=10,
                           dt=0.01, horizon=0.005)
        # dominance_report forms its 2 sqrt(dt) allowance only after dt is checked
        with pytest.raises(ConfigurationError, match="dt must be positive"):
            dominance_report(params, fb, vf, verification_states(fb), n_paths=4,
                             dt=-0.1, horizon=1.0)

    @pytest.mark.parametrize("n_paths", [2.5, 4.0, True, np.float64(4.0), "4"])
    def test_non_integer_path_count_rejected(self, setup, n_paths):
        # 2.5 would run np.arange(2.5), 3 paths, and report n_paths=2.5;
        # dominance_report types n_paths before its n_paths < 2 check
        params, fb, vf = setup
        with pytest.raises(ConfigurationError, match=r"^n_paths=.* must be an integer"):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=n_paths, dt=0.1,
                           horizon=1.0)
        with pytest.raises(ConfigurationError, match=r"^n_paths=.* must be an integer"):
            dominance_report(params, fb, vf, verification_states(fb), n_paths=n_paths,
                             dt=0.1, horizon=1.0)

    def test_numpy_integer_path_count_accepted(self, setup):
        params, fb, _ = setup
        kwargs = dict(dt=0.1, horizon=1.0, seed=5, keep_payoffs=True)
        a = estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=np.int64(4), **kwargs)
        b = estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=4, **kwargs)
        assert a.payoffs.tobytes() == b.payoffs.tobytes()

    @pytest.mark.parametrize("seed", [-1, 2**128])
    def test_seed_out_of_range_rejected(self, setup, seed):
        params, fb, _ = setup
        with pytest.raises(ConfigurationError, match="seed"):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=4, dt=0.1,
                           horizon=1.0, seed=seed)
        with pytest.raises(ConfigurationError, match="seed"):
            simulate_path(params, NeverInstall(), 1.0, 1.0, dt=0.1, horizon=1.0,
                          seed=seed)

    @pytest.mark.parametrize("seed", [1.5, 1.9, 1.0, True, "3", None])
    def test_non_integer_seed_rejected(self, setup, seed):
        # a float or bool key would be truncated and share seed 1's streams
        params, fb, vf = setup
        match = r"^seed=" + re.escape(repr(seed)) + " must be an integer"
        kwargs = dict(dt=0.1, horizon=1.0, seed=seed)
        with pytest.raises(ConfigurationError, match=match):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=4, **kwargs)
        with pytest.raises(ConfigurationError, match=match):
            estimate_value_many(params, [(NeverInstall(), 1.0, 1.0)], 4, **kwargs)
        with pytest.raises(ConfigurationError, match=match):
            simulate_path(params, NeverInstall(), 1.0, 1.0, **kwargs)
        with pytest.raises(ConfigurationError, match=match):
            dominance_report(params, fb, vf, verification_states(fb), n_paths=4, **kwargs)

    @pytest.mark.parametrize("name,value", [
        ("dt", "0.1"), ("dt", True), ("dt", None), ("dt", 1j),
        ("horizon", "1.0"), ("horizon", False), ("horizon", [1.0])])
    def test_non_real_step_settings_rejected(self, setup, name, value):
        # a string used to escape from the comparisons as a bare TypeError,
        # and a bool would run as 0 or 1
        params, fb, vf = setup
        match = rf"^{name}=" + re.escape(repr(value)) + " must be a real number"
        kwargs = dict(dt=0.1, horizon=1.0, seed=0)
        kwargs[name] = value
        with pytest.raises(ConfigurationError, match=match):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=4, **kwargs)
        with pytest.raises(ConfigurationError, match=match):
            estimate_value_many(params, [(NeverInstall(), 1.0, 1.0)], 4, **kwargs)
        with pytest.raises(ConfigurationError, match=match):
            simulate_path(params, NeverInstall(), 1.0, 1.0, **kwargs)
        with pytest.raises(ConfigurationError, match=match):
            dominance_report(params, fb, vf, verification_states(fb), n_paths=4, **kwargs)

    def test_numpy_real_step_settings_accepted(self, setup):
        params, fb, _ = setup
        kwargs = dict(n_paths=4, seed=5, keep_payoffs=True)
        a = estimate_value(params, NeverInstall(), 1.0, 1.0, dt=np.float64(0.1),
                           horizon=np.float32(1.0), **kwargs)
        b = estimate_value(params, NeverInstall(), 1.0, 1.0, dt=0.1, horizon=1.0, **kwargs)
        assert a.payoffs.tobytes() == b.payoffs.tobytes()

    def test_numpy_integer_seed_accepted(self, setup):
        params, fb, _ = setup
        kwargs = dict(n_paths=4, dt=0.1, horizon=1.0, keep_payoffs=True)
        a = estimate_value(params, NeverInstall(), 1.0, 1.0, seed=np.uint64(5), **kwargs)
        b = estimate_value(params, NeverInstall(), 1.0, 1.0, seed=5, **kwargs)
        assert a.payoffs.tobytes() == b.payoffs.tobytes()

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

    @pytest.mark.parametrize("path_index", [2**192, 1.5, "1"])
    def test_path_index_outside_streams_rejected(self, setup, path_index):
        # path i owns the Philox counters [i 2**64, (i+1) 2**64) of 2**256
        params, fb, _ = setup
        with pytest.raises(ConfigurationError, match=re.escape(repr(path_index))):
            simulate_path(params, NeverInstall(), 1.0, 1.0, dt=0.1, horizon=1.0,
                          seed=0, path_index=path_index)

    @pytest.mark.parametrize("path_index", [True, False, np.bool_(True)])
    def test_bool_path_index_rejected(self, setup, monkeypatch, path_index):
        # as for n_paths and seed: True is not path 1
        params, fb, _ = setup
        monkeypatch.setattr(simulate, "_path_generators", no_streams)
        with pytest.raises(ConfigurationError, match=re.escape(f"path_index={path_index!r}")):
            simulate_path(params, NeverInstall(), 1.0, 1.0, dt=0.1, horizon=1.0,
                          seed=0, path_index=path_index)

    def test_last_path_index_accepted(self, setup):
        params, fb, _ = setup
        for path_index in (2**192 - 1, np.int64(3)):
            rec = simulate_path(params, NeverInstall(), 1.0, 1.0, dt=0.1, horizon=1.0,
                                seed=0, path_index=path_index)
            assert math.isfinite(rec.payoff)
        # a numpy integer runs that path, bit for bit
        three = simulate_path(params, NeverInstall(), 1.0, 1.0, dt=0.1, horizon=1.0,
                              seed=0, path_index=3)
        assert (rec.payoff, rec.x.tobytes()) == (three.payoff, three.x.tobytes())

    @pytest.mark.parametrize("x,y,bad", [(1.0, 7.5, "y"), (1.0, -1.0, "y"),
                                         (1.0, math.nan, "y"), (math.nan, 1.0, "x"),
                                         (math.inf, 1.0, "x"),
                                         pytest.param(10**400, 1.0, "x", id="int_beyond_float64")])
    def test_impossible_state_rejected_before_drawing(self, setup, monkeypatch, x, y, bad):
        params, fb, _ = setup
        assert params.y_bar == 5.0
        monkeypatch.setattr(simulate, "_path_generators", no_streams)
        value = x if bad == "x" else y
        if isinstance(value, int):  # beyond float64: refused without its digits
            value = "a number beyond the float64 range"
        pattern = rf"job 1 \(never_install\): {bad} .*got {value}"
        jobs = [(ImmediateFull(), 1.0, 1.0), (NeverInstall(), x, y)]
        with pytest.raises(ConfigurationError, match=pattern):
            estimate_value_many(params, jobs, n_paths=4, dt=0.1, horizon=1.0)
        with pytest.raises(ConfigurationError, match=rf"job 0 \(never_install\): {bad} "):
            estimate_value(params, NeverInstall(), x, y, n_paths=4, dt=0.1, horizon=1.0)
        with pytest.raises(ConfigurationError, match=rf"job 0 \(never_install\): {bad} "):
            simulate_path(params, NeverInstall(), x, y, dt=0.1, horizon=1.0, seed=0)

    def test_nan_start_rejected_before_drawing(self, setup, monkeypatch):
        # min/max pass NaN through the clamp
        params, fb, _ = setup
        monkeypatch.setattr(simulate, "_path_generators", no_streams)
        jobs = [(ImmediateFull(), 1.0, 1.0), (NanStart(), 1.2, 1.0)]
        with pytest.raises(ConfigurationError,
                           match=r"job 1 \(nan_start\): start\(1.2, 1.0\) returned NaN"):
            estimate_value_many(params, jobs, n_paths=4, dt=0.1, horizon=1.0)
        with pytest.raises(ConfigurationError, match=r"job 0 \(nan_start\): start"):
            simulate_path(params, NanStart(), 1.2, 1.0, dt=0.1, horizon=1.0, seed=0)

    @pytest.mark.parametrize("start,match", [
        (10**400, r"start\(1.2, 1.0\) must be finite"),
        ("1.0", r"start\(1.2, 1.0\)='1.0' must be a real number")],
        ids=["int_beyond_float64", "string"])
    def test_non_real_start_rejected_before_drawing(self, setup, monkeypatch, start, match):
        # an int beyond float64 used to escape as OverflowError, a string as TypeError
        params, fb, _ = setup
        monkeypatch.setattr(simulate, "_path_generators", no_streams)

        class BadStart(NeverInstall):
            name = "bad_start"

            def start(self, x, y):
                return start

        jobs = [(ImmediateFull(), 1.0, 1.0), (BadStart(), 1.2, 1.0)]
        with pytest.raises(ConfigurationError, match=r"^job 1 \(bad_start\): " + match):
            estimate_value_many(params, jobs, n_paths=4, dt=0.1, horizon=1.0)
        with pytest.raises(ConfigurationError, match=r"^job 0 \(bad_start\): " + match):
            simulate_path(params, BadStart(), 1.2, 1.0, dt=0.1, horizon=1.0, seed=0)

    def test_nan_target_names_job_and_capacity(self, setup):
        params, fb, _ = setup
        pattern = (r"job {} \(nan_target\): non-finite price state encountered; "
                   r"its capacity is NaN")
        # jobs 0 and 2 share a block, so job 1 steps as the last row
        never = NeverInstall()
        jobs = [(never, 1.0, 1.0), (NanTarget(), 1.0, 1.0), (never, 2.0, 1.0)]
        with pytest.raises(SimulationError, match=pattern.format(1)):
            estimate_value_many(params, jobs, n_paths=4, dt=0.1, horizon=1.0)
        with pytest.raises(SimulationError, match=pattern.format(0)):
            simulate_path(params, NanTarget(), 1.0, 1.0, dt=0.1, horizon=1.0, seed=0)

    def test_nan_threshold_rejected_before_drawing(self, setup, monkeypatch):
        # no price exceeds a NaN threshold, so the policy would never act
        params, fb, _ = setup
        monkeypatch.setattr(simulate, "_path_generators", no_streams)
        jobs = [(NeverInstall(), 1.0, 1.0), (NanBoundary(), 1.2, 1.0)]
        with pytest.raises(ConfigurationError,
                           match=r"job 1 \(nan_boundary\): boundary_at\(1.0\) returned NaN at t = 0"):
            estimate_value_many(params, jobs, n_paths=50, dt=0.1, horizon=20.0, seed=1)
        with pytest.raises(ConfigurationError, match=r"job 0 \(nan_boundary\): boundary_at"):
            simulate_path(params, NanBoundary(), 1.2, 1.0, dt=0.1, horizon=20.0, seed=1)
        # at capacity the threshold is +inf whatever boundary_at returns
        monkeypatch.undo()
        res = estimate_value(params, NanBoundary(), 1.2, params.y_bar, n_paths=4, dt=0.1,
                             horizon=1.0)
        assert res.fraction_installing == 0.0

    def test_nan_threshold_after_install_names_job(self, setup):
        params, fb, _ = setup
        pattern = r"job {} \(nan_above\): boundary_at\(2.0\) returned NaN after an installation"
        never = NeverInstall()
        jobs = [(never, 1.0, 1.0), (NanAbove(), 1.0, 1.0), (never, 2.0, 1.0)]
        with pytest.raises(SimulationError, match=pattern.format(1)):
            estimate_value_many(params, jobs, n_paths=50, dt=0.1, horizon=20.0, seed=1)
        with pytest.raises(SimulationError, match=pattern.format(0)):
            simulate_path(params, NanAbove(), 1.0, 1.0, dt=0.1, horizon=20.0, seed=1,
                          path_index=3)
        # a path that never reaches capacity 2 keeps a finite threshold
        res = estimate_value(params, NanAbove(), 1.0, 1.0, n_paths=1, dt=0.1, horizon=0.2)
        assert res.fraction_installing == 0.0

    def test_record_beyond_physical_memory_rejected(self, setup, monkeypatch):
        # 1e11 steps: 4 x (1e11 + 1) doubles of t, x, y and cum_cost; refused
        # before any allocation or draw, since under overcommit the
        # allocation succeeds
        params, fb, _ = setup
        monkeypatch.setattr(simulate, "_path_generators", no_streams)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=r"takes 3200000000032 bytes"):
                simulate_path(params, NeverInstall(), 1.0, 1.0, dt=1e-9, horizon=100.0,
                              seed=0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("name", ["never_install", "optimal"])
    def test_record_peak_within_guard(self, setup, monkeypatch, name):
        # the guard counts t, x, y and cum_cost, every array that grows with
        # the step count: with exactly that much physical memory the record
        # runs, and its traced peak adds only objects of fixed size (the
        # generator, array headers), not a chunk of draws; one byte less and
        # it is refused
        params, fb, _ = setup
        pol = POLICIES[name](params, fb)
        n_steps = 100_000
        counted = 4 * (n_steps + 1) * 8
        x, y = verification_states(fb)[0]
        settings = dict(dt=0.01, horizon=n_steps * 0.01, seed=2)
        simulate_path(params, pol, x, y, **settings)  # lazy imports and caches
        monkeypatch.setattr(simulate, "physical_memory_bytes", lambda: counted)
        tracemalloc.start()
        try:
            rec = simulate_path(params, pol, x, y, path_index=5, **settings)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(rec.t) == n_steps + 1
        assert peak <= counted + 16 * 1024
        monkeypatch.setattr(simulate, "physical_memory_bytes", lambda: counted - 1)
        with pytest.raises(ConfigurationError, match=rf"takes {counted} bytes"):
            simulate_path(params, pol, x, y, **settings)

    def test_run_beyond_physical_memory_rejected(self, setup, monkeypatch):
        # 10**13 paths of 10 steps: three result doubles per path, and one
        # batch of 4096 paths with 15 (job, path) arrays and one 10-step
        # noise chunk, (15 + 10) x 8 bytes per path, and the feed's 36 MiB;
        # refused before a result array, a batch or a draw is allocated.  A
        # numpy count of 2**60 paths is counted without wrapping around int64
        params, fb, _ = setup
        monkeypatch.setattr(simulate, "_path_generators", no_streams)
        monkeypatch.setattr(simulate, "physical_memory_bytes", lambda: 2**33)
        tracemalloc.start()
        try:
            with pytest.raises(ConfigurationError, match=r"take 240000038567936 bytes"):
                estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=10**13, dt=0.1,
                               horizon=1.0)
            with pytest.raises(ConfigurationError, match=r"take 27670116110602895360 bytes"):
                estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=np.int64(2**60),
                               dt=0.1, horizon=1.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_run_guard_counts_jobs_paths_and_chunks(self, setup, monkeypatch):
        # with exactly the counted bytes of physical memory the run goes
        # ahead; with one byte less it is refused before any draw.  A run
        # counts three result doubles per (job, path) and one batch: 15
        # (job, path) arrays and one 10-step noise chunk per path, and the
        # feed's fixed bound.  In batches of 16 paths, 40 and 80 paths count
        # the same batch, so only the results grow
        params, fb, _ = setup
        jobs = [(NeverInstall(), 1.0, 1.0), (ImmediateFull(), 1.0, 1.0)]
        for batch, n_paths in ((simulate._PATH_BATCH, 40), (16, 40), (16, 80)):
            monkeypatch.setattr(simulate, "_PATH_BATCH", batch)
            nb = min(batch, n_paths)
            counted = ((3 * len(jobs) * n_paths + (15 * len(jobs) + 10) * nb) * 8
                       + simulate._FEED_BYTES)
            monkeypatch.setattr(simulate, "physical_memory_bytes", lambda: counted)
            estimate_value_many(params, jobs, n_paths, dt=0.1, horizon=1.0)
            monkeypatch.setattr(simulate, "physical_memory_bytes", lambda: counted - 1)
            with monkeypatch.context() as patch:
                patch.setattr(simulate, "_path_generators", no_streams)
                with pytest.raises(ConfigurationError, match=rf"take {counted} bytes"):
                    estimate_value_many(params, jobs, n_paths, dt=0.1, horizon=1.0)

    def test_run_peak_within_guard(self, setup, monkeypatch):
        # the verify jobs, three policies from each of three states, and a
        # never-install job alone, on 20,000 paths: five batches, whose
        # traced peak, with the end-of-run checks and each job's statistics,
        # stays within the guard's count.  10 and 300 steps are one noise
        # chunk per batch; the verify jobs on 4,000 paths x 3,000 steps run
        # one batch in three chunks of 1,000 steps.  The largest chunk, 4096
        # steps at 976 paths, with eight drawing threads, each holding
        # scratch rows for a 122-path block of it
        params, fb, _ = setup
        policies = (OptimalReflection(params, fb), NeverInstall(), ImmediateFull())
        verify = [(pol, x, y) for x, y in verification_states(fb) for pol in policies]
        never = [(NeverInstall(), 1.0, 1.0)]
        cases = ((verify, 20_000, 10, None), (never, 20_000, 300, None),
                 (verify, 20_000, 300, None), (verify, 4_000, 3_000, None),
                 (never, 976, 4_100, 8))
        for jobs, n_paths, n_steps, workers in cases:
            if workers:
                monkeypatch.setattr(simulate, "_fill_workers", lambda: workers)
                assert simulate._chunk_size(n_paths, n_steps) == simulate._TIME_CHUNK
            settings = dict(dt=0.1, horizon=n_steps * 0.1)
            estimate_value_many(params, jobs, 50, **settings)  # lazy imports and caches
            counted = guard_count(monkeypatch, params, jobs, n_paths, **settings)
            peak = traced_peak(params, jobs, n_paths, **settings)
            assert peak <= counted, (len(jobs), n_paths, n_steps, workers)

    def test_run_memory_flat_in_path_count(self, setup, monkeypatch):
        # the verify jobs at 10 steps on 2,560 and 10,240 paths in batches of
        # 512, five and 20 batches: the traced peak grows by the three result
        # arrays of the 7,680 more paths (1.66 MB) and at most 256 kB
        # besides, and stays within the guard's count
        params, fb, _ = setup
        monkeypatch.setattr(simulate, "_PATH_BATCH", 512)
        policies = (OptimalReflection(params, fb), NeverInstall(), ImmediateFull())
        jobs = [(pol, x, y) for x, y in verification_states(fb) for pol in policies]
        settings = dict(dt=0.1, horizon=1.0)
        estimate_value_many(params, jobs, 50, **settings)  # lazy imports and caches
        peaks = []
        for n_paths in (2_560, 10_240):
            peaks.append(traced_peak(params, jobs, n_paths, **settings))
            assert peaks[-1] <= guard_count(monkeypatch, params, jobs, n_paths, **settings)
        assert peaks[1] - peaks[0] <= 3 * len(jobs) * 7_680 * 8 + 256 * 1024

    def test_step_count_bounded_by_stream(self, setup):
        # a path's stream owns 2**64 Philox counters; 2**64 - 2048 is the
        # largest double below 2**64
        params, fb, _ = setup
        assert simulate._check_mc_config(1, 1.0, 2.0**64 - 2048, 0)[-1] == 2**64 - 2048
        for horizon in (2.0**64, 1e300):
            with pytest.raises(ConfigurationError, match=r"fewer than 2\*\*64"):
                simulate._check_mc_config(1, 1.0, horizon, 0)
        with pytest.raises(ConfigurationError, match=r"2\*\*64"):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=10, dt=1e-300)
        with pytest.raises(ConfigurationError, match=r"2\*\*64"):
            simulate_path(params, NeverInstall(), 1.0, 1.0, dt=1e-300, horizon=100.0,
                          seed=0)

    # an int that float64 cannot hold, where math.isfinite raises OverflowError
    @pytest.mark.parametrize("horizon", [math.inf, math.nan,
                                         pytest.param(10**400, id="int_beyond_float64")])
    def test_non_finite_horizon_rejected(self, setup, horizon):
        params, fb, _ = setup
        with pytest.raises(ConfigurationError, match="horizon"):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=4, dt=0.1,
                           horizon=horizon)
        with pytest.raises(ConfigurationError, match="horizon"):
            simulate_path(params, NeverInstall(), 1.0, 1.0, dt=0.1,
                          horizon=horizon, seed=0)

    @pytest.mark.parametrize("dt,horizon", [(5e-324, 100.0), (0.01, 1e308)])
    def test_non_finite_step_count_rejected(self, setup, dt, horizon):
        params, fb, _ = setup
        pattern = re.escape(f"horizon {horizon} / dt {dt} = inf")
        with pytest.raises(ConfigurationError, match=pattern):
            estimate_value_many(params, [(NeverInstall(), 1.0, 1.0)], n_paths=4,
                                dt=dt, horizon=horizon)
        with pytest.raises(ConfigurationError, match=pattern):
            simulate_path(params, NeverInstall(), 1.0, 1.0, dt=dt,
                          horizon=horizon, seed=0)

    def test_empty_jobs_rejected(self, setup):
        params, fb, _ = setup
        with pytest.raises(ConfigurationError, match="jobs"):
            estimate_value_many(params, [], n_paths=4, dt=0.1, horizon=1.0)

    @pytest.mark.parametrize("jobs", [None, 3.0])
    def test_non_iterable_jobs_rejected(self, setup, jobs):
        params, fb, _ = setup
        with pytest.raises(ConfigurationError, match=r"must be an iterable of \(policy, x, y\)"):
            estimate_value_many(params, jobs, n_paths=4, dt=0.1, horizon=1.0)

    @pytest.mark.parametrize("job", [
        (NeverInstall(), 1.0), (NeverInstall(), 1.0, 1.0, 0.0), [NeverInstall(), 1.0, 1.0],
        NeverInstall(), (NeverInstall(), "1.0", 1.0), (NeverInstall(), 1.0, True),
        (NeverInstall(), None, 1.0), (NeverInstall(), 1.0, np.array([1.0]))])
    def test_malformed_job_rejected_by_index(self, setup, monkeypatch, job):
        # jobs may come as any iterable, listed once; a job that is not a
        # (policy, x, y) tuple with real x and y is named by its index
        # before any draw
        params, fb, _ = setup
        good = (NeverInstall(), 1.0, 1.0)
        settings = dict(n_paths=4, dt=0.1, horizon=1.0)
        [alone] = estimate_value_many(params, iter([good]), keep_payoffs=True, **settings)
        assert np.array_equal(alone.payoffs, estimate_value(params, *good, keep_payoffs=True,
                                                            **settings).payoffs)
        monkeypatch.setattr(simulate, "_path_generators", no_streams)
        with pytest.raises(ConfigurationError, match=r"^job 1\b"):
            estimate_value_many(params, iter([good, job]), **settings)

    @pytest.mark.parametrize("policy", [object(), "optimal", None])
    def test_non_policy_job_rejected(self, setup, monkeypatch, policy):
        # a job whose policy is not a Policy is named by its index before
        # any draw, by the estimator and by a traced path
        params, fb, _ = setup
        monkeypatch.setattr(simulate, "_path_generators", no_streams)
        for jobs, index in (([(policy, 1.0, 1.0)], 0),
                            ([(NeverInstall(), 1.0, 1.0), (policy, 1.0, 1.0)], 1)):
            with pytest.raises(ConfigurationError, match=rf"^job {index}: .* is not a Policy"):
                estimate_value_many(params, jobs, n_paths=4, dt=0.1, horizon=1.0)
        with pytest.raises(ConfigurationError, match=r"^job 0: .* is not a Policy"):
            simulate_path(params, policy, 1.0, 1.0, dt=0.1, horizon=1.0, seed=0)

    def test_reported_horizon_is_the_one_simulated(self, setup):
        # horizon 1.0 at dt 0.4 rounds to 2 steps: the run and a traced path
        # end at 0.8, and the tail bound covers the payoff beyond 0.8, which
        # is larger than the payoff beyond 1.0
        params, fb, vf = setup
        settings = dict(dt=0.4, horizon=1.0)
        res = estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=50, **settings)
        rec = simulate_path(params, NeverInstall(), 1.0, 1.0, seed=0, **settings)
        assert res.horizon == rec.t[-1] == 0.8
        assert res.discount_tail_bound == discount_tail_bound(params, 1.0, 0.8)
        assert res.discount_tail_bound > discount_tail_bound(params, 1.0, 1.0)
        report = dominance_report(params, fb, vf, verification_states(fb), n_paths=4,
                                  **settings)
        assert report["settings"]["horizon"] == 0.8

    def test_fixed_threshold_policy(self, setup):
        params, fb, _ = setup
        pol = FixedThreshold(threshold=1.3)
        rec = simulate_path(params, pol, 1.5, 1.0, dt=0.01, horizon=5.0, seed=2)
        assert rec.initial_lump == params.y_bar - 1.0
        rec2 = simulate_path(params, pol, 0.2, 1.0, dt=0.01, horizon=5.0, seed=2)
        assert rec2.initial_lump == 0.0

    @pytest.mark.parametrize("threshold", ["1.0", None, True])
    def test_fixed_threshold_not_real_rejected(self, threshold):
        # refused where it is built; a str used to escape as TypeError from
        # the first estimate
        with pytest.raises(ConfigurationError, match="threshold=.* must be a real number"):
            FixedThreshold(threshold)

    def test_immediate_full_policy(self, setup):
        params, fb, _ = setup
        rec = simulate_path(params, ImmediateFull(), 1.0, 1.0, dt=0.01,
                            horizon=5.0, seed=2)
        assert rec.initial_lump == params.y_bar - 1.0
        assert np.all(rec.y == params.y_bar)


class Exploding(Policy):
    """Consulted every step; its ``target`` fails on the fifth call."""

    name = "exploding"

    def __init__(self):
        self.calls = 0

    def target(self, x_arr, y_arr):
        self.calls += 1
        if self.calls == 5:
            raise RuntimeError("target failed")
        return y_arr


class TestNoiseFeed:
    def test_chunking_changes_no_value(self, setup, monkeypatch):
        # 4117 steps: a multiple of neither 7 nor the default chunk (4096)
        params, fb, _ = setup
        n_paths, n_steps = 64, 4117
        settings = dict(dt=0.01, horizon=n_steps * 0.01, seed=13)
        policies = [make(params, fb) for make in POLICIES.values()]
        jobs = [(pol, x, y) for x, y in verification_states(fb) for pol in policies]
        x0, y0 = verification_states(fb)[1]
        runs = []
        for chunk in (1, 7, None, n_steps):
            for nb in (n_paths, 1):
                if chunk == n_steps:
                    monkeypatch.setattr(simulate, "_TIME_CHUNK", n_steps)
                if chunk in (1, 7):
                    monkeypatch.setattr(simulate, "_CHUNK_BUDGET", 2 * nb * chunk)
                assert simulate._chunk_size(nb, n_steps) == (chunk or simulate._TIME_CHUNK)
                if nb == n_paths:
                    many = estimate_value_many(params, jobs, n_paths=n_paths,
                                               keep_payoffs=True, **settings)
                else:
                    rec = simulate_path(params, policies[0], x0, y0, path_index=3,
                                        **settings)
                monkeypatch.undo()
            runs.append((np.stack([r.payoffs for r in many]).tobytes(),
                         rec.x.tobytes(), rec.y.tobytes(), rec.payoff, rec.max_overshoot))
        assert all(run == runs[0] for run in runs[1:])

    def test_block_draw_allocates_no_buffer(self):
        # a block's second chunk and its shorter last chunk, drawn into the
        # thread's scratch rows: scaling the rows in place and copying them
        # transposed allocates nothing that grows with the block (a multiply
        # into a strided view took a 132 kB ufunc buffer per call at 2000
        # paths, and one of the last chunk's rows inside the scratch 130 kB)
        feed = simulate._NoiseFeed(5, range(2000), 5000, 0.1)
        out = np.empty((feed._chunk, 2000))
        feed._draw(out, 0)  # builds the block's generators and the thread's scratch
        assert feed._chunk == 2000
        for steps in (2000, 1000):
            first = out[:steps, :simulate._FILL_ROWS].copy()
            tracemalloc.start()
            try:
                feed._draw(out[:steps], 0)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 4096, steps
            assert not np.array_equal(out[:steps, :simulate._FILL_ROWS], first)

    def test_fill_threads_change_no_value(self, setup, monkeypatch):
        # the stepping thread drawing alone against 1 and 7 helpers on fewer
        # cores, with the interpreter switching threads as often as it can,
        # over 31 chunks of 97 steps
        params, fb, _ = setup
        pol = OptimalReflection(params, fb)
        settings = dict(n_paths=300, dt=0.01, horizon=30.0, seed=17, keep_payoffs=True)
        monkeypatch.setattr(simulate, "_CHUNK_BUDGET", 2 * 300 * 97)
        monkeypatch.setattr(simulate, "_fill_workers", lambda: 1)
        alone = estimate_value(params, pol, 1.2, 1.0, **settings)
        for workers in (2, 8):
            monkeypatch.setattr(simulate, "_fill_workers", lambda: workers)
            interval = sys.getswitchinterval()
            sys.setswitchinterval(1e-6)
            try:
                shared = estimate_value(params, pol, 1.2, 1.0, **settings)
            finally:
                sys.setswitchinterval(interval)
            assert np.array_equal(alone.payoffs, shared.payoffs), workers

    def test_block_width_changes_no_value(self, setup, monkeypatch):
        # blocks of 1, 16 and 128 paths and of the whole batch, drawn by the
        # stepping thread alone and with 1 and 7 helpers, with the
        # interpreter switching threads as often as it can, over 21 chunks
        # of 97 steps: each path's generator fills its own row whatever the
        # block, so the payoffs and a traced path are the same bit for bit
        params, fb, _ = setup
        n_paths, path_index = 200, 130
        pol = OptimalReflection(params, fb)
        settings = dict(dt=0.01, horizon=21 * 97 * 0.01, seed=23)
        rec = simulate_path(params, pol, 1.2, 1.0, path_index=path_index, **settings)
        monkeypatch.setattr(simulate, "_CHUNK_BUDGET", 2 * n_paths * 97)
        runs = []
        for width in (1, 16, 128, n_paths):
            monkeypatch.setattr(simulate, "_block_width", lambda nb, workers: width)
            for workers in (1, 2, 8):
                monkeypatch.setattr(simulate, "_fill_workers", lambda: workers)
                interval = sys.getswitchinterval()
                sys.setswitchinterval(1e-6)
                try:
                    res = estimate_value(params, pol, 1.2, 1.0, n_paths=n_paths,
                                         keep_payoffs=True, **settings)
                finally:
                    sys.setswitchinterval(interval)
                runs.append(res.payoffs.tobytes())
                assert res.payoffs[path_index] == rec.payoff, (width, workers)
        assert runs == [runs[0]] * len(runs)

    @pytest.mark.parametrize("workers", [2, 8])
    def test_each_stream_drawn_once_per_chunk(self, setup, monkeypatch, workers):
        # helpers and the stepping thread share every chunk's blocks, with
        # the interpreter switching threads as often as it can: each path's
        # stream fills one row per chunk, whichever thread draws it, since a
        # block drawn twice would shift that path's stream by a chunk
        params, fb, _ = setup
        n_paths, chunk, n_chunks = 300, 97, 31
        monkeypatch.setattr(simulate, "_CHUNK_BUDGET", 2 * n_paths * chunk)
        monkeypatch.setattr(simulate, "_fill_workers", lambda: workers)
        streams = simulate._path_generators
        draws = []  # path index per call: list.append loses no update between threads

        class Counted:
            def __init__(self, index, gen):
                self.index, self.gen = index, gen

            def standard_normal(self, out):
                draws.append(self.index)
                self.gen.standard_normal(out=out)

        def counted_streams(seed, indices):
            return [Counted(int(i), gen) for i, gen in zip(indices, streams(seed, indices))]

        monkeypatch.setattr(simulate, "_path_generators", counted_streams)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            estimate_value(params, OptimalReflection(params, fb), 1.2, 1.0, n_paths=n_paths,
                           dt=0.01, horizon=n_chunks * chunk * 0.01, seed=17)
        finally:
            sys.setswitchinterval(interval)
        assert np.bincount(draws).tolist() == [n_chunks] * n_paths

    def test_threads_stay_within_cpu_budget(self, setup, monkeypatch):
        # three usable CPUs: the stepping thread and two helpers, counted
        # from inside the run at every step
        params, fb, _ = setup
        monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: {0, 1, 2},
                            raising=False)
        assert simulate._fill_workers() == 3
        counts = []

        class Counting(Policy):
            name = "counting"

            def target(self, x_arr, y_arr):
                counts.append(threading.active_count())
                return y_arr

        before = threading.active_count()
        estimate_value(params, Counting(), 1.0, 1.0, n_paths=100, dt=0.01, horizon=30.0,
                       seed=3)
        assert len(counts) == 3000
        assert max(counts) - before == simulate._fill_workers() - 1
        assert threading.active_count() == before
        # a traced path draws on its own thread
        counts.clear()
        simulate_path(params, Counting(), 1.0, 1.0, dt=0.01, horizon=30.0, seed=3)
        assert len(counts) == 3000 and max(counts) == before

    def test_failed_fill_surfaces_and_leaves_no_thread(self, setup, monkeypatch):
        # only the helpers' generators fail, so the error must cross threads
        params, fb, _ = setup
        monkeypatch.setattr(simulate, "_fill_workers", lambda: 3)
        streams = simulate._path_generators

        def helper_streams_fail(seed, indices):
            if threading.current_thread() is not threading.main_thread():
                raise ValueError("stream refused")
            return streams(seed, indices)

        monkeypatch.setattr(simulate, "_path_generators", helper_streams_fail)
        before = threading.active_count()
        with pytest.raises(ValueError, match="stream refused"):
            estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=500, dt=0.01,
                           horizon=100.0, seed=3)
        assert threading.active_count() == before

    def test_no_fill_thread_outlives_the_run(self, setup):
        params, fb, _ = setup
        before = threading.active_count()
        # fails mid-chunk while the next chunk is being drawn
        with pytest.raises(RuntimeError, match="target failed"):
            estimate_value(params, Exploding(), 1.0, 1.0, n_paths=500, dt=0.01,
                           horizon=100.0, seed=3)
        assert threading.active_count() == before
        estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=500, dt=0.01,
                       horizon=100.0, seed=3)
        assert threading.active_count() == before

    def test_huge_step_count_is_chunked_lazily(self):
        with simulate._NoiseFeed(0, [0], 10**300, 1.0) as feed:
            first = next(iter(feed))
        assert first.shape == (1,) and np.isfinite(first).all()

    def test_fill_threads_follow_cpu_affinity(self, monkeypatch):
        # threads that draw, the stepping one included: helpers are one
        # fewer, counted live at every row while a feed is iterated
        monkeypatch.setattr(simulate.os, "cpu_count", lambda: 64)
        before = threading.active_count()
        for cpus, helpers in (({0, 5, 6}, 2), ({4}, 0)):
            monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: cpus,
                                raising=False)
            assert simulate._fill_workers() == helpers + 1
            with simulate._NoiseFeed(0, np.arange(100), 3000, 1.0) as feed:
                counts = [threading.active_count() for _ in feed]
            assert len(counts) == 3000
            assert max(counts) - before == helpers
            assert threading.active_count() == before
        monkeypatch.delattr(simulate.os, "sched_getaffinity", raising=False)
        assert simulate._fill_workers() == 8


def reference_mc(params, policy, x0, y0, dt, z):
    """One path of ``policy`` from (x0, y0) on Python floats, given the path's
    scaled draws ``z``: at each step the crossing, then the revenue, then the
    price update, in the kernel's order of operations.  Returns the payoff,
    the capacity installed, the first install time, the recorded x and y, and
    the overshoot: the largest excess of x over the threshold in effect
    before a step's crossing, taken over the whole path afterwards."""
    p = params

    def threshold(lvl):
        if at_capacity(p, lvl):
            return math.inf
        return float(np.reshape(policy.boundary_at(np.array([lvl])), -1)[0])

    lump = float(min(max(policy.start(x0, y0), y0), p.y_bar) - y0)
    x, y = x0, y0 + lump
    pay = -p.c * lump
    first = 0.0 if lump > 0.0 else math.nan
    disc_step = math.exp(-p.rho * dt)
    rev_weight = (1.0 - disc_step) / p.rho
    kdt = p.kappa * dt
    decay = 1.0 - kdt
    add = kdt * (p.mu - p.beta * y)
    thr = threshold(y)
    disc = 1.0
    xs, ys, thrs = [], [], []
    for step, dz in enumerate(z):
        thrs.append(thr)
        if x > thr:
            y_old = y
            lvl = max(float(policy.target(np.array([x]), np.array([y_old]))[0]), y_old)
            lvl = min(lvl, p.y_bar)
            dy = lvl - y_old
            pay -= (disc * p.c) * dy
            if dy > 0.0 and math.isnan(first):
                first = step * dt
            y = lvl
            add = kdt * (p.mu - p.beta * lvl)
            thr = threshold(lvl)
        xs.append(x)
        ys.append(y)
        pay += (x * y) * (disc * rev_weight)
        x = x * decay + add + dz
        disc *= disc_step
    over = float(np.max(np.array(xs) - np.array(thrs)))
    xs.append(x)
    ys.append(y)
    over = max(over, 0.0) if math.isfinite(over) else 0.0
    return pay, y - y0, first, np.array(xs), np.array(ys), over


def reference_draws(params, dt, n_steps, seed, path_index):
    gen = simulate._path_generators(seed, [path_index])[0]
    return (gen.standard_normal(n_steps) * (params.sigma * math.sqrt(dt))).tolist()


class TestReferenceMC:
    """The path kernel is the plain per-path Euler loop, bit for bit."""

    def test_verify_jobs(self, setup):
        params, fb, _ = setup
        policies = (OptimalReflection(params, fb), NeverInstall(), ImmediateFull())
        jobs = [(pol, x, y) for x, y in verification_states(fb) for pol in policies]
        n_paths, dt, n_steps, seed = 16, 0.01, 2000, 2024
        many = estimate_value_many(params, jobs, n_paths, dt, n_steps * dt, seed=seed,
                                   keep_payoffs=True)
        out = simulate._run(params, jobs, *simulate._check_jobs(params, jobs), dt, n_steps, seed,
                            np.arange(n_paths))
        ref = np.empty((3, len(jobs), n_paths))
        for i in range(n_paths):
            z = reference_draws(params, dt, n_steps, seed, i)
            for j, (pol, x, y) in enumerate(jobs):
                ref[:, j, i] = reference_mc(params, pol, x, y, dt, z)[:3]
        assert np.stack([r.payoffs for r in many]).tobytes() == ref[0].tobytes()
        payoffs, installed, first_install_time = out  # (job, path), in job order
        assert payoffs.tobytes() == ref[0].tobytes()
        assert installed.tobytes() == ref[1].tobytes()
        assert first_install_time.tobytes() == ref[2].tobytes()
        assert (ref[2] > 0.0).any() and np.isnan(ref[2]).any()

    def test_recorded_path(self, setup):
        # every policy from every verification state, over more steps than
        # one draw chunk holds
        params, fb, _ = setup
        dt, n_steps, seed, i = 0.01, simulate._TIME_CHUNK + 104, 2024, 17
        z = reference_draws(params, dt, n_steps, seed, i)
        filled = []
        for name, make in POLICIES.items():
            pol = make(params, fb)
            for x, y in verification_states(fb):
                rec = simulate_path(params, pol, x, y, dt, n_steps * dt, seed, path_index=i)
                pay, installed, first, xs, ys, over = reference_mc(params, pol, x, y, dt, z)
                assert rec.x.tobytes() == xs.tobytes() and rec.y.tobytes() == ys.tobytes()
                got = [rec.payoff, rec.total_installed, rec.first_install_time,
                       rec.max_overshoot]
                assert np.array(got).tobytes() == np.array(
                    [pay, installed, first, over]).tobytes(), name
                if rec.y[0] < params.y_bar == rec.y[-1]:
                    filled.append(name)
        # paths that cross into capacity after t = 0, where the threshold
        # turns +inf
        assert {"optimal", "fixed_threshold"} <= set(filled)
        assert simulate._chunk_size(1, n_steps) < n_steps


class CountingStart(NeverInstall):
    """Counts its ``start`` calls: how often a run judges its jobs."""

    name = "counting_start"

    def __init__(self):
        self.calls = 0

    def start(self, x, y):
        self.calls += 1
        return y


class TestAdmission:
    """A run is admitted once: its jobs judged once, in job order, and its
    settings used as the Python numbers checked."""

    def test_jobs_judged_once_per_run(self, setup, monkeypatch):
        # 20 paths in batches of 7 are three batches; each job's start is
        # read once, not once per batch
        params, fb, _ = setup
        monkeypatch.setattr(simulate, "_PATH_BATCH", 7)
        counting = CountingStart()
        estimate_value_many(params, [(counting, 1.0, 1.0), (counting, 2.0, 1.0)], 20,
                            dt=0.1, horizon=1.0)
        assert counting.calls == 2

    def test_numpy_step_used_as_its_float(self, setup):
        # a float32 dt used to reach the step constants raw, so kappa dt and
        # the price decay were rounded to float32
        params, fb, _ = setup
        x, y = verification_states(fb)[1]
        kwargs = dict(n_paths=8, horizon=2.0, seed=4, keep_payoffs=True)
        policy = OptimalReflection(params, fb)
        a = estimate_value(params, policy, x, y, dt=np.float32(0.1), **kwargs)
        b = estimate_value(params, policy, x, y, dt=float(np.float32(0.1)), **kwargs)
        assert a.payoffs.tobytes() == b.payoffs.tobytes()
        assert a.summary_dict() == b.summary_dict()

    def test_numpy_settings_reported_as_python_numbers(self, setup):
        params, fb, vf = setup
        res = estimate_value(params, NeverInstall(), 1.0, 1.0, n_paths=np.int64(4),
                             dt=np.float32(0.1), horizon=1.0, seed=np.uint64(3))
        json.dumps(res.summary_dict())
        rep = dominance_report(params, fb, vf, verification_states(fb), n_paths=np.int64(4),
                               dt=np.float32(0.5), horizon=5.0, seed=np.uint64(3))
        json.dumps(rep)
        assert rep["settings"]["seed"] == 3 and rep["settings"]["dt"] == 0.5

    def test_first_bad_job_named(self, setup, monkeypatch):
        # job 0's threshold at t = 0 is NaN and job 1's start is NaN: each
        # job is judged whole before the next, so job 0 is named
        params, fb, _ = setup
        monkeypatch.setattr(simulate, "_path_generators", no_streams)
        jobs = [(NanBoundary(), 1.2, 1.0), (NanStart(), 1.2, 1.0)]
        with pytest.raises(ConfigurationError,
                           match=r"^job 0 \(nan_boundary\): boundary_at\(1.0\) returned NaN"):
            estimate_value_many(params, jobs, n_paths=4, dt=0.1, horizon=1.0)

    def test_bad_job_refused_before_memory(self, setup, monkeypatch):
        params, fb, _ = setup
        monkeypatch.setattr(simulate, "physical_memory_bytes", lambda: 0)
        with pytest.raises(ConfigurationError, match=r"^job 0 \(nan_start\): start"):
            estimate_value_many(params, [(NanStart(), 1.2, 1.0)], n_paths=4, dt=0.1,
                                horizon=1.0)

    @pytest.mark.parametrize("call,match", [
        (lambda p: estimate_value(p, NeverInstall(), 1.0, 1.0, 4, 0.1, 1.0, seed=2**128),
         r"seed must lie in [0, 2**128), got " + str(2**128)),
        (lambda p: simulate_path(p, NeverInstall(), 1.0, 1.0, 0.1, 1.0, 0, path_index=-1),
         "path_index must lie in [0, 2**192), got -1"),
        (lambda p: estimate_value(p, NeverInstall(), 1.0, 1.0, 0, 0.1, 1.0),
         "n_paths must be >= 1, got 0"),
        (lambda p: estimate_value(p, NeverInstall(), 1.0, 1.0, 10**5000, 0.1, 1.0),
         "n_paths must be finite, got a number beyond the float64 range")],
        ids=["seed", "path_index", "n_paths", "n_paths_beyond_float64"])
    def test_range_refusal_names_setting_and_bound(self, setup, call, match):
        # a power-of-two bound reads 2**k, and an integer beyond float64 is
        # refused without its digits, which Python will not print past 4300
        params, fb, _ = setup
        with pytest.raises(ConfigurationError, match="^" + re.escape(match) + "$"):
            call(params)


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

    def test_report_refuses_one_path_before_drawing(self, setup, monkeypatch):
        # a paired standard error needs two paths; with one it is NaN
        params, fb, vf = setup

        def no_run(*args, **kwargs):
            raise AssertionError("drew paths")

        monkeypatch.setattr(simulate, "_run", no_run)
        for n_paths in (1, 0):
            with pytest.raises(ConfigurationError, match=r"n_paths must be >= 2"):
                dominance_report(params, fb, vf, verification_states(fb), n_paths=n_paths,
                                 dt=0.05, horizon=20.0)

    def test_report_reads_one_shot_states(self, setup):
        # the job list used to exhaust an iterator, so the report held no
        # state and no check, and all_passed read True
        params, fb, vf = setup
        kwargs = dict(n_paths=8, dt=0.1, horizon=5.0, seed=7)
        rep = dominance_report(params, fb, vf, (s for s in verification_states(fb)), **kwargs)
        assert len(rep["states"]) == 3 and len(rep["checks"]) == 12
        listed = dominance_report(params, fb, vf, verification_states(fb), **kwargs)
        assert json.dumps(rep, sort_keys=True) == json.dumps(listed, sort_keys=True)

    @pytest.mark.parametrize("states,match", [
        (None, "must be an iterable of"), (3.0, "must be an iterable of"),
        ([(1.0,)], "must be an iterable of"), ([(1.0, 1.0, 1.0)], "must be an iterable of"),
        ([1.0], "must be an iterable of"), ([], "at least one")],
        ids=["none", "float", "short_pair", "triple", "bare_float", "empty"])
    def test_report_refuses_bad_states_before_drawing(self, setup, monkeypatch, states, match):
        params, fb, vf = setup

        def no_run(*args, **kwargs):
            raise AssertionError("drew paths")

        monkeypatch.setattr(simulate, "_run", no_run)
        with pytest.raises(ConfigurationError, match=match):
            dominance_report(params, fb, vf, states, n_paths=4, dt=0.1, horizon=1.0)

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
