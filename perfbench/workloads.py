"""The four benchmark workloads: seeded inputs, set-up, timed operations, checks.

Each workload is one closed-loop caller: it issues the next operation only
after the previous one returned and was checked.  Inputs come only from the
workload seed; the program receives nothing else.  A workload object exposes

- ``setup(ops)``: work done before the first timed operation (its cost is
  ``setup_s``); results it produces are verified through ``ops.check``;
- ``run_unit(ops)``: one unit of timed work (one or more operations through
  ``ops.run``), followed by the correctness checks for what it returned;
- ``summary()``: workload-specific counts for the report.

Why these four:

- ``sweep`` spends ~90% of its time in ``fundamental`` quadrature under the
  RK4 boundary solve, and never touches ``simulate``;
- ``query`` exercises ``value`` with scattered ``psi`` evaluations that share
  nothing across queries;
- ``verify`` spends its time in ``simulate`` and none in quadrature outside
  set-up, so a quadrature change must leave it unmoved;
- ``fuzz`` is the only workload that reaches ``model`` validation and the
  failure paths of ``fundamental`` and ``boundary``.
"""

from __future__ import annotations

import math
import time
from collections import Counter
from dataclasses import dataclass

import numpy as np

PRESETS = (0.2, 1.4, 2.25)

# regression values of the preset solves (tests/test_boundary.py, BASELINES);
# copied, not imported, so the benchmark does not depend on the test suite
BASELINES = {
    0.2: {"x_tilde": 3.768355513274, "f0": 1.208589025505},
    1.4: {"x_tilde": 2.365159228914, "f0": 0.939552865900},
    2.25: {"x_tilde": 1.974471605720, "f0": 0.866736735136},
}

# criterion-7 parameter sweeps (tests/test_acceptance.py); the default seed
# uses these lists, other seeds draw 4 values inside the same ranges
SWEEPS = {
    "sigma": [0.5, 0.6, 0.7, 0.8],
    "mu": [0.2, 0.3, 0.4, 0.5],
    "beta": [0.15, 0.175, 0.2, 0.225],
    "kappa": [0.1, 0.15, 0.2, 0.25],
    "c": [0.3, 0.8, 1.3, 1.8],
    "rho": [0.035, 0.04, 0.045, 0.05],
    "y_bar": [0.5, 1.0, 2.0, 5.0],
}

# parameter box of the fuzz workload
FUZZ_BOX = {
    "kappa": (0.05, 2.0),
    "rho": (0.01, 0.2),
    "mu": (-1.0, 3.0),
    "sigma": (0.1, 1.5),
    "c": (0.0, 2.0),
    "beta": (0.02, 0.5),
    "y_bar": (0.5, 10.0),
}

DEFAULT_SEED = 0
CRITERION_6_SEED = 2024


@dataclass(frozen=True)
class Sizes:
    sweep_steps: int
    preset_steps: int
    fuzz_steps: int
    mc_paths: int
    mc_dt: float
    traces_per_round: int


FULL = Sizes(sweep_steps=800, preset_steps=2000, fuzz_steps=400,
             mc_paths=2000, mc_dt=0.01, traces_per_round=3)
# for the smoke test only: same code paths, a fraction of the work
TINY = Sizes(sweep_steps=200, preset_steps=200, fuzz_steps=100,
             mc_paths=200, mc_dt=0.05, traces_per_round=1)


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


def _preset_mismatch(fb, mu):
    """Reason string when a preset solve misses its regression values."""
    base = BASELINES[mu]
    if not (math.isfinite(fb.x_tilde) and math.isfinite(fb.x0)):
        return "non-finite"
    if _rel(fb.x_tilde, base["x_tilde"]) >= 1e-9:
        return "preset_x_tilde"
    if _rel(fb.x0, base["f0"]) >= 1e-8:
        return "preset_f0"
    return None


def _finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def _solve_presets(si, ops, sizes, mus, trace_cold):
    """Set-up solves of the presets with a warm ``ValueFunction`` each.

    With tracing on, also builds one on a fresh ``FundamentalSolution``
    (labelled ``setup.cold``) so the per-layer report has a cold build time.
    """
    solved = {}
    for mu in mus:
        params = si.model.table_preset(mu)
        fs = si.fundamental.FundamentalSolution(params)
        fb = si.boundary.integrate_boundary(params, fs, n_steps=sizes.preset_steps)
        vf = si.value.ValueFunction(params, fs, fb)
        ops.check(_preset_mismatch(fb, mu))
        ops.checkpoint()
        if trace_cold is not None:
            trace_cold.op = "setup.cold"
            si.value.ValueFunction(params, si.fundamental.FundamentalSolution(params), fb)
            trace_cold.op = "setup"
        solved[mu] = (params, fs, fb, vf)
    return solved


class Sweep:
    """Boundary solves through ``cli.sweep_boundaries``.

    Units cycle through the three presets (2000 steps, checked against the
    regression values) and then the seven criterion-7 sweeps in criterion
    order (4 values each at 800 steps, checked with ``sweep_verdict``).  The
    order is the same for every seed, so runs of equal length time the same
    mix of parameters.  Each solve is one operation: ``sweep_boundaries`` is
    called with one value.  Work is counted in RK4 steps, so throughput does
    not depend on how many 800-step solves fit beside the 2000-step ones.
    """

    REF_KIND = "interp"

    def __init__(self, si, rng, seed, sizes, tracer):
        self.si, self.sizes = si, sizes
        if seed == DEFAULT_SEED:
            self.values = {k: list(v) for k, v in SWEEPS.items()}
        else:
            # one value per stratum, so consecutive values stay >= 1/7 of
            # the range apart and the shift direction is resolvable
            self.values = {}
            for name, vals in SWEEPS.items():
                lo, hi = min(vals), max(vals)
                u = rng.random(4)
                self.values[name] = [lo + (hi - lo) * (i + 0.5 * u[i]) / 3.5
                                     for i in range(4)]
        self.units = [("preset", mu) for mu in PRESETS] + [("sweep", n) for n in SWEEPS]
        self.next_unit = 0

    def setup(self, ops):
        self.base = self.si.model.table_preset(0.2)
        self.presets = {mu: self.si.model.table_preset(mu) for mu in PRESETS}

    def run_unit(self, ops):
        kind, key = self.units[self.next_unit % len(self.units)]
        self.next_unit += 1
        cli = self.si.cli
        if kind == "preset":
            params = self.presets[key]
            out, exc = ops.run(lambda: cli.sweep_boundaries(
                params, "mu", [key], self.sizes.preset_steps), work=self.sizes.preset_steps)
            if exc is None:
                ops.check(_preset_mismatch(out[0][1], key))
            return
        solved = []
        for v in self.values[key]:
            out, exc = ops.run(lambda: cli.sweep_boundaries(
                self.base, key, [v], self.sizes.sweep_steps), work=self.sizes.sweep_steps)
            if exc is not None:
                return
            fb = out[0][1]
            if not _finite(fb.f_grid, fb.f_tilde):
                ops.check("non-finite")
                return
            solved.extend(out)
        verdict = cli.sweep_verdict(key, solved)
        ops.check(None if verdict["observed"] == cli.SWEEP_DIRECTIONS[key]
                  else f"sweep_verdict_{key}")

    def summary(self):
        return {}


class Query:
    """Fresh states against the three solved presets: w, partials, HJB residual.

    States are drawn uniformly over x in [F(0) - 1.5, x_bar + 1] and y in
    [0, 0.95 y_bar] of a uniformly chosen preset; continuous draws do not
    repeat.  Every answer is checked against the criterion-4 pattern of the
    variational inequality.
    """

    REF_KIND = "interp"

    BLOCK = 4096

    def __init__(self, si, rng, seed, sizes, tracer):
        self.si, self.rng, self.sizes, self.tracer = si, rng, sizes, tracer
        self.regions = Counter()
        self._block = []

    def setup(self, ops):
        solved = _solve_presets(self.si, ops, self.sizes, PRESETS, self.tracer)
        self.table = [solved[mu] for mu in PRESETS]

    def _refill(self):
        n = self.BLOCK
        k = self.rng.integers(len(self.table), size=n)
        u = self.rng.random((2, n))
        block = []
        for i in range(n):
            params, _, fb, vf = self.table[k[i]]
            lo, hi = fb.x0 - 1.5, fb.x_bar + 1.0
            block.append((vf, fb, float(lo + (hi - lo) * u[0, i]),
                          float(0.95 * params.y_bar * u[1, i])))
        block.reverse()
        self._block = block

    def run_unit(self, ops):
        if not self._block:
            self._refill()
        vf, fb, x, y = self._block.pop()
        out, exc = ops.run(lambda: (vf.w(x, y), vf.partials(x, y), vf.hjb_residual(x, y)))
        self.regions[fb.region(x, y).value] += 1
        if exc is not None:
            return
        w, (w_x, w_xx, w_y), (pde, grad) = out
        if not all(math.isfinite(v) for v in (w, w_x, w_xx, w_y, pde, grad)):
            ops.check("non-finite")
            return
        scale = 1.0 + abs(w)
        ok = (pde <= 1e-6 * scale and grad <= 1e-8
              and (abs(pde) <= 1e-6 * scale or abs(grad) <= 1e-8))
        ops.check(None if ok else "variational_inequality")

    def summary(self):
        total = sum(self.regions.values()) or 1
        return {f"share_{r}": self.regions[r] / total for r in ("W", "I1", "I2")}


class Verify:
    """Monte Carlo verification of the mu = 1.4 preset, one round per operation.

    A round runs ``estimate_value_many`` over ``verification_states(fb)`` x
    {optimal, never_install, immediate_full} under common random numbers,
    the optimal and never-install policies alone from the waiting-region
    state through ``estimate_value``, and a few ``simulate_path`` traces of
    the same seed.  Analytic values are computed in set-up, so no quadrature
    runs inside a round.
    """

    REF_KIND = "array"

    def __init__(self, si, rng, seed, sizes, tracer):
        self.si, self.rng, self.sizes, self.tracer = si, rng, sizes, tracer
        self.mc_seed = (CRITERION_6_SEED if seed == DEFAULT_SEED
                        else int(rng.integers(2**31)))
        self.timing = Counter()
        self.work = Counter()
        self._previous = None

    def setup(self, ops):
        si = self.si
        self.params, _, fb, vf = _solve_presets(si, ops, self.sizes, (1.4,),
                                                self.tracer)[1.4]
        self.states = si.simulate.verification_states(fb)
        self.w_vals = [vf.w(x, y) for x, y in self.states]
        self.r_vals = [si.model.r_value(self.params, x, y) for x, y in self.states]
        self.optimal = si.simulate.OptimalReflection(self.params, fb)
        self.never = si.simulate.NeverInstall()
        policies = (self.optimal, self.never, si.simulate.ImmediateFull())
        self.jobs = [(pol, x, y) for x, y in self.states for pol in policies]
        self.horizon = 10.0 / self.params.rho
        self.n_steps = int(round(self.horizon / self.sizes.mc_dt))

    def _round(self, ops, path_ids):
        sim, clock = self.si.simulate, time.perf_counter
        p, n, dt, seed = self.params, self.sizes.mc_paths, self.sizes.mc_dt, self.mc_seed
        x0, y0 = self.states[0]
        t0 = clock()
        many = sim.estimate_value_many(p, self.jobs, n, dt, seed=seed, keep_payoffs=True)
        self.timing["many_s"] += clock() - t0
        ops.checkpoint()
        opt = sim.estimate_value(p, self.optimal, x0, y0, n, dt, seed=seed,
                                 keep_payoffs=True)
        ops.checkpoint()
        never = sim.estimate_value(p, self.never, x0, y0, n, dt, seed=seed)
        ops.checkpoint()
        t0 = clock()
        recs = [sim.simulate_path(p, self.optimal, x0, y0, dt, self.horizon,
                                  seed=seed, path_index=int(i)) for i in path_ids]
        self.timing["trace_s"] += clock() - t0
        return many, opt, never, recs

    def run_unit(self, ops):
        path_ids = self.rng.choice(self.sizes.mc_paths, self.sizes.traces_per_round,
                                   replace=False)
        out, exc = ops.run(lambda: self._round(ops, path_ids))
        if exc is not None:
            return
        many, opt, never, recs = out
        self.work["many_steps"] += len(self.jobs) * self.sizes.mc_paths * self.n_steps
        self.work["trace_steps"] += len(recs) * self.n_steps
        ops.check(self._check(many, opt, never, recs, path_ids))

    def _check(self, many, opt, never, recs, path_ids):
        """First failing criterion-6 style check of one round, or None."""
        if not all(math.isfinite(r.estimate) for r in many):
            return "non-finite"
        allowance = 2.0 * math.sqrt(self.sizes.mc_dt)
        for i in range(len(self.states)):
            r_opt, r_never, r_full = many[3 * i:3 * i + 3]
            w_val, r_val = self.w_vals[i], self.r_vals[i]
            if abs(r_never.estimate - r_val) > 3.0 * r_never.std_error + r_never.discount_tail_bound:
                return "mc_never_install_band"
            if abs(r_opt.estimate - w_val) > (3.0 * r_opt.std_error
                                               + r_opt.discount_tail_bound + allowance):
                return "mc_optimal_band"
            for other in (r_never, r_full):
                diff = r_opt.payoffs - other.payoffs
                se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
                if float(np.mean(diff)) < -3.0 * se - 1e-9 * (1.0 + abs(w_val)):
                    return "mc_dominance"
        # a standalone job reproduces its stream inside the batched call
        if not np.array_equal(opt.payoffs, many[0].payoffs) or never.estimate != many[1].estimate:
            return "batched_vs_standalone"
        for i, rec in zip(path_ids, recs):
            if _rel(rec.payoff, opt.payoffs[i]) > 1e-9:
                return "path_vs_estimator"
        estimates = [r.estimate for r in many]
        if self._previous is not None and estimates != self._previous:
            return "not_deterministic"
        self._previous = estimates
        return None

    def summary(self):
        t = self.timing
        return {
            "mc_msteps_per_s": self.work["many_steps"] / t["many_s"] / 1e6 if t["many_s"] else 0.0,
            "trace_steps_per_s": self.work["trace_steps"] / t["trace_s"] if t["trace_s"] else 0.0,
        }


class Fuzz:
    """Seeded parameter sets from a wide box: validate, solve, build.

    Each attempt ends solved, as a typed ``SolarInvestError`` (not a
    failure), or as an untyped exception / non-finite result (a failure).
    """

    REF_KIND = "interp"

    def __init__(self, si, rng, seed, sizes, tracer):
        self.si, self.rng, self.sizes = si, rng, sizes
        self.outcomes = Counter()

    def setup(self, ops):
        pass

    def _attempt(self, data):
        si = self.si
        params = si.model.params_from_dict(data)
        fs = si.fundamental.FundamentalSolution(params)
        fb = si.boundary.integrate_boundary(params, fs, n_steps=self.sizes.fuzz_steps)
        return fb, si.value.ValueFunction(params, fs, fb)

    def run_unit(self, ops):
        data = {k: float(lo + (hi - lo) * self.rng.random())
                for k, (lo, hi) in FUZZ_BOX.items()}
        out, exc = ops.run(lambda: self._attempt(data), typed=self.si.errors.SolarInvestError)
        if isinstance(exc, self.si.errors.SolarInvestError):
            self.outcomes["typed." + type(exc).__name__] += 1
        elif exc is not None:
            self.outcomes["untyped." + type(exc).__name__] += 1
        elif not _finite(out[0].f_tilde, out[1].a_grid):
            self.outcomes["untyped.non_finite"] += 1
            ops.check("non-finite")
        else:
            self.outcomes["solved"] += 1

    def summary(self):
        total = sum(self.outcomes.values()) or 1
        untyped = sum(v for k, v in self.outcomes.items() if k.startswith("untyped."))
        out = {"fuzz_solved_frac": self.outcomes["solved"] / total,
               "fuzz_untyped_frac": untyped / total}
        out.update({f"fuzz.{k}": v for k, v in sorted(self.outcomes.items())})
        return out


WORKLOADS = {"sweep": Sweep, "query": Query, "verify": Verify, "fuzz": Fuzz}
