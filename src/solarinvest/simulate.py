"""Monte Carlo simulation of the controlled price under installation policies.

The price is stepped with Euler-Maruyama under the capacity-dependent drift
kappa((mu - beta*Y) - X); the optimal policy applies the lump

    Delta = (y_bar - y) 1{x >= x_bar} + (max(Finv(x), y) - y) 1{F(y) <= x < x_bar}

(``FreeBoundary.lump_target(x, y) - y``) at time 0- and afterwards projects
Y onto min(Fbar_inv(X), y_bar) whenever the price crosses the boundary (the
running-max construction of the reflected dynamics, discretized by
projection; the scheme converges as dt -> 0 with an O(sqrt(dt)) one-step
overshoot).

Revenue accrues as X_t * Y_t integrated against the exact per-step discount
int e^{-rho u} du; installation costs are charged at e^{-rho t} c dY, with the
initial lump undiscounted.  Paths draw from counter-based streams keyed by
(seed, path index), so runs are reproducible, prefix-stable under horizon
extension, and common random numbers across policies come from reusing the
seed.

One kernel steps every policy.  A policy supplies ``lump`` (the t=0
installation), ``target`` (the desired capacity given prices) and
``boundary_at`` (the price above which ``target`` is consulted: +inf never
acts after t=0, -inf consults it every step).  All (policy, x, y) jobs of a
call are stacked as rows of one (job, path) array and share the same float
operations, so a job's payoffs do not depend on what it runs beside, and a
recorded path (:func:`simulate_path`) reproduces its estimator payoff
exactly.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .boundary import FreeBoundary
from .errors import ConfigurationError, SimulationError
from .model import ModelParams, at_capacity, r_value
from .value import ValueFunction

_TIME_CHUNK = 1024
_CHUNK_BUDGET = 24_000_000  # noise elements buffered per chunk across paths


def _chunk_size(nb: int, n_steps: int) -> int:
    return max(_TIME_CHUNK, min(n_steps, _CHUNK_BUDGET // max(nb, 1)))


# -- policies ------------------------------------------------------------------


def initial_lump(fb: FreeBoundary, x: float, y: float) -> float:
    """Instantaneous installation prescribed by the optimal strategy at t=0."""
    return fb.lump_target(x, y) - y


class Policy:
    """Installation rule: an initial lump plus a per-step target level."""

    name = "abstract"

    def lump(self, params: ModelParams, x: float, y: float) -> float:
        return 0.0

    def target(self, x_arr: np.ndarray, y_arr: np.ndarray) -> np.ndarray:
        """Desired capacity level given current prices; clamped by the caller."""
        return y_arr

    def boundary_at(self, y_arr: np.ndarray):
        """Price above which ``target`` is consulted at capacity ``y_arr``:
        +inf never acts after t = 0, -inf consults it every step."""
        return -math.inf


class NeverInstall(Policy):
    name = "never_install"

    def boundary_at(self, y_arr):
        return math.inf


class ImmediateFull(Policy):
    """Install everything at t = 0 and never act again."""

    name = "immediate_full"

    def lump(self, params, x, y):
        return params.y_bar - y

    def boundary_at(self, y_arr):
        return math.inf


class OptimalReflection(Policy):
    """Lump to the boundary (or capacity) at t=0, then reflect along it.

    The per-step projection interpolates the solved boundary grid linearly
    (clamping below x0 to 0 and above x_bar to y_bar); the grid is dense
    enough that the scheme error is dominated by the Euler step.
    """

    name = "optimal"

    def __init__(self, params: ModelParams, fb: FreeBoundary):
        self._fb = fb
        self._x_knots = fb.f_grid
        self._y_knots = fb.ys

    def lump(self, params, x, y):
        return initial_lump(self._fb, x, y)

    def target(self, x_arr, y_arr):
        return np.interp(x_arr, self._x_knots, self._y_knots)

    def boundary_at(self, y_arr):
        return np.interp(y_arr, self._y_knots, self._x_knots)


class FixedThreshold(Policy):
    """Install the full remaining capacity the first time the price
    reaches ``threshold``."""

    name = "fixed_threshold"

    def __init__(self, threshold: float, y_bar: float):
        self.threshold = threshold
        self._y_bar = y_bar

    def lump(self, params, x, y):
        return params.y_bar - y if x >= self.threshold else 0.0

    def target(self, x_arr, y_arr):
        return np.where(x_arr >= self.threshold, self._y_bar, y_arr)

    def boundary_at(self, y_arr):
        return self.threshold


# -- results -------------------------------------------------------------------


@dataclass(frozen=True)
class SimulationResult:
    """Discounted-payoff estimate with its Monte Carlo error and install stats."""

    estimate: float
    std_error: float
    n_paths: int
    dt: float
    horizon: float
    discount_tail_bound: float
    initial_lump: float
    mean_total_installed: float
    fraction_installing: float
    mean_first_install_time: float
    payoffs: np.ndarray | None = field(default=None, repr=False, compare=False)

    def summary_dict(self) -> dict:
        return {
            "estimate": self.estimate,
            "std_error": self.std_error,
            "n_paths": self.n_paths,
            "dt": self.dt,
            "horizon": self.horizon,
            "discount_tail_bound": self.discount_tail_bound,
            "initial_lump": self.initial_lump,
            "mean_total_installed": self.mean_total_installed,
            "fraction_installing": self.fraction_installing,
            "mean_first_install_time": self.mean_first_install_time,
        }


@dataclass(frozen=True)
class PathRecord:
    """Single simulated path with the running state and cost trace."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    cum_cost: np.ndarray
    payoff: float
    initial_lump: float
    total_installed: float
    first_install_time: float
    max_overshoot: float


def discount_tail_bound(params: ModelParams, x: float, horizon: float) -> float:
    """Bound on the discounted payoff ignored beyond the horizon.

    Uses |X_t| <= max(|x|, |mu| + beta*y_bar) + sigma/sqrt(2 kappa) in
    expectation (stationary moments of the mean-reverting price) plus the
    worst-case remaining installation cost.
    """
    p = params
    x_scale = max(abs(x), abs(p.mu) + p.beta * p.y_bar) + p.sigma / math.sqrt(2.0 * p.kappa)
    return math.exp(-p.rho * horizon) * (p.y_bar * x_scale / p.rho + p.c * p.y_bar)


# -- path engine -----------------------------------------------------------------


def _path_generators(seed: int, indices) -> list[np.random.Generator]:
    # counter-based streams: path i owns the counter window [i 2^64, (i+1) 2^64)
    return [np.random.Generator(np.random.Philox(key=seed, counter=int(i) << 64))
            for i in indices]


class _NoiseFeed:
    """Chunked per-path draws; each path consumes one normal per step.

    Rows are filled concurrently (each path's generator writes its own slice,
    so the result does not depend on thread scheduling).
    """

    def __init__(self, seed, indices, antithetic):
        if antithetic:
            self._gens = _path_generators(seed, [int(i) // 2 for i in indices])
            self._signs = np.array([1.0 if int(i) % 2 == 0 else -1.0 for i in indices])
        else:
            self._gens = _path_generators(seed, indices)
            self._signs = None
        self._workers = min(8, os.cpu_count() or 1)

    def _fill(self, noise, lo, hi):
        for j in range(lo, hi):
            self._gens[j].standard_normal(out=noise[j])

    def draw(self, chunk, scale):
        nb = len(self._gens)
        noise = np.empty((nb, chunk))
        if self._workers > 1 and nb >= 64:
            block = -(-nb // self._workers)
            bounds = [(lo, min(lo + block, nb)) for lo in range(0, nb, block)]
            with ThreadPoolExecutor(max_workers=self._workers) as pool:
                list(pool.map(lambda b: self._fill(noise, *b), bounds))
        else:
            self._fill(noise, 0, nb)
        if self._signs is not None:
            noise *= self._signs[:, None]
        noise *= scale
        return noise


def _run(params, jobs, dt, n_steps, seed, indices, antithetic=False, record=False):
    """Advance every (policy, x, y) job through one shared noise stream.

    Jobs are stacked as rows of (job, path) arrays, ordered so that each
    policy object owns a contiguous block; every row sees the same draws
    (common random numbers) and the same float operations, so a job's
    payoffs are bit-identical whether it runs alone, in a batch, or recorded.
    ``thr`` caches the price above which a row's policy acts (+inf once
    capacity is exhausted), so crossing-free steps cost one comparison per
    block plus the price recursion.
    """
    p = params
    blocks = {}
    for i, (policy, _, _) in enumerate(jobs):
        blocks.setdefault(id(policy), (policy, []))[1].append(i)
    order = [i for _, ids in blocks.values() for i in ids]
    nb = len(indices)

    def rows(values):
        return np.repeat(np.array(values, dtype=float)[:, None], nb, axis=1)

    y_start = rows([jobs[i][2] for i in order])
    lumps = [float(jobs[i][0].lump(p, jobs[i][1], jobs[i][2])) for i in order]
    x = rows([jobs[i][1] for i in order])
    y = y_start + rows(lumps)
    pay = rows([-p.c * lump for lump in lumps])
    first = rows([0.0 if lump > 0.0 else math.nan for lump in lumps])
    disc_step = math.exp(-p.rho * dt)
    rev_weight = (1.0 - disc_step) / p.rho  # exact int of e^{-rho u} per step
    kdt = p.kappa * dt
    decay = 1.0 - kdt
    adds = kdt * (p.mu - p.beta * y)

    def threshold(policy, lvl):
        return np.where(at_capacity(p, lvl), math.inf, policy.boundary_at(lvl))

    thr = np.empty_like(x)
    active = []  # (policy, flat views of x, y, thr, adds, pay, first) per block
    lo = 0
    for policy, ids in blocks.values():
        hi = lo + len(ids)
        views = [a[lo:hi].reshape(-1) for a in (x, y, thr, adds, pay, first)]
        views[2][:] = threshold(policy, views[1])
        if (views[2] < math.inf).any():  # all +inf: the block never acts
            active.append((policy, *views))
        lo = hi
    tmp = np.empty_like(x)
    if record:
        x_rec = np.empty((n_steps + 1,) + x.shape)
        y_rec = np.empty_like(x_rec)
        overshoot = np.full_like(x, -math.inf)

    feed = _NoiseFeed(seed, indices, antithetic)
    sq = p.sigma * math.sqrt(dt)
    disc = 1.0
    step = 0
    chunk_cap = _chunk_size(nb, n_steps)
    while step < n_steps:
        chunk = min(chunk_cap, n_steps - step)
        noise = feed.draw(chunk, sq)
        for k in range(chunk):
            if record:
                np.subtract(x, thr, out=tmp)
                np.maximum(overshoot, tmp, out=overshoot)
            for policy, xb, yb, tb, ab, pb, firstb in active:
                idx = np.flatnonzero(xb > tb)
                if idx.size:
                    y_old = yb[idx]
                    lvl = np.maximum(policy.target(xb[idx], y_old), y_old)
                    np.minimum(lvl, p.y_bar, out=lvl)
                    dy = lvl - y_old
                    pb[idx] -= (disc * p.c) * dy
                    fresh = idx[(dy > 0.0) & np.isnan(firstb[idx])]
                    firstb[fresh] = step * dt
                    yb[idx] = lvl
                    ab[idx] = kdt * (p.mu - p.beta * lvl)
                    tb[idx] = threshold(policy, lvl)
            if record:
                x_rec[step] = x
                y_rec[step] = y
            np.multiply(x, y, out=tmp)
            tmp *= disc * rev_weight
            pay += tmp
            x *= decay
            x += adds
            x += noise[:, k]
            disc *= disc_step
            step += 1
        del noise  # free this chunk before the next draw allocates its successor
    if not np.isfinite(x).all():
        raise SimulationError("non-finite price state encountered")

    back = np.argsort(order)
    out = {"payoffs": pay[back], "lumps": [lumps[i] for i in back],
           "total_installed": (y - y_start)[back], "first_install_time": first[back]}
    if record:
        x_rec[n_steps] = x
        y_rec[n_steps] = y
        over = overshoot[back]
        out.update(x=x_rec[:, back], y=y_rec[:, back],
                   max_overshoot=np.where(np.isfinite(over), np.maximum(over, 0.0), 0.0))
    return out


def simulate_path(params: ModelParams, policy: Policy, x: float, y: float,
                  dt: float, horizon: float, seed: int, path_index: int = 0) -> PathRecord:
    """Simulate one path with full state recording.

    The path is path ``path_index`` of :func:`estimate_value` run with the
    same seed and step settings, payoff included bit for bit.  ``x`` and
    ``y`` are recorded after any installation at each step;
    ``max_overshoot`` is the largest pre-installation excess of the price
    over the policy's threshold (0 when the threshold is never finite).
    """
    _check_mc_config(1, dt, horizon, seed)
    if path_index < 0:
        raise ConfigurationError(f"path_index must be >= 0, got {path_index}")
    n_steps = int(round(horizon / dt))
    out = _run(params, [(policy, x, y)], dt, n_steps, seed, [path_index], record=True)
    y_path = out["y"][:, 0, 0]
    return PathRecord(
        t=np.linspace(0.0, n_steps * dt, n_steps + 1), x=out["x"][:, 0, 0],
        y=y_path, cum_cost=params.c * (y_path - y),
        payoff=float(out["payoffs"][0, 0]), initial_lump=out["lumps"][0],
        total_installed=float(out["total_installed"][0, 0]),
        first_install_time=float(out["first_install_time"][0, 0]),
        max_overshoot=float(out["max_overshoot"][0, 0]))


def _check_mc_config(n_paths, dt, horizon, seed):
    if n_paths < 1:
        raise ConfigurationError(f"n_paths must be >= 1, got {n_paths}")
    if not dt > 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if not math.isfinite(horizon):
        raise ConfigurationError(f"horizon must be finite, got {horizon}")
    if not horizon > dt:
        raise ConfigurationError(f"horizon {horizon} must exceed dt {dt}")
    if not 0 <= seed < 2**128:
        raise ConfigurationError(f"seed must lie in [0, 2**128), got {seed}")


def estimate_value(params: ModelParams, policy: Policy, x: float, y: float,
                   n_paths: int, dt: float, horizon: float | None = None,
                   seed: int = 0, antithetic: bool = False,
                   tail_tol: float | None = None,
                   keep_payoffs: bool = False) -> SimulationResult:
    """Mean discounted payoff of ``policy`` from (x, y), with standard error.

    ``horizon`` defaults to 10/rho (discount e^-10 beyond the cutoff); the
    analytic truncation bound is reported and checked against ``tail_tol``
    when given.  Deterministic for a fixed seed.
    """
    return estimate_value_many(params, [(policy, x, y)], n_paths, dt, horizon,
                               seed=seed, antithetic=antithetic,
                               tail_tol=tail_tol, keep_payoffs=keep_payoffs)[0]


def estimate_value_many(params: ModelParams, jobs, n_paths: int, dt: float,
                        horizon: float | None = None, seed: int = 0,
                        antithetic: bool = False, tail_tol: float | None = None,
                        keep_payoffs: bool = False) -> list[SimulationResult]:
    """Estimate several (policy, x, y) jobs over one shared noise stream.

    Each job's result is bit-identical to a standalone :func:`estimate_value`
    with the same seed, while the noise is generated only once; the shared
    draws are exactly the common-random-numbers coupling used by the
    dominance checks.
    """
    p = params
    if horizon is None:
        horizon = 10.0 / p.rho
    _check_mc_config(n_paths, dt, horizon, seed)
    if not jobs:
        raise ConfigurationError("jobs must hold at least one (policy, x, y)")
    if antithetic and n_paths % 2 != 0:
        raise ConfigurationError("antithetic estimation needs an even n_paths")
    tails = [discount_tail_bound(p, x, horizon) for _, x, _ in jobs]
    if tail_tol is not None and max(tails) > tail_tol:
        raise ConfigurationError(
            f"discount tail bound {max(tails):.3e} exceeds tolerance "
            f"{tail_tol:.3e}; extend the horizon beyond {horizon}")
    n_steps = int(round(horizon / dt))
    out = _run(params, jobs, dt, n_steps, seed, np.arange(n_paths), antithetic=antithetic)
    results = []
    for j, tail in enumerate(tails):
        pay = out["payoffs"][j]
        estimate = float(np.mean(pay))
        if antithetic:
            # mirrored pairs are dependent; the independent samples are pair means
            pair_means = pay.reshape(-1, 2).mean(axis=1)
            std_error = (float(np.std(pair_means, ddof=1) / math.sqrt(len(pair_means)))
                         if len(pair_means) > 1 else 0.0)
        else:
            std_error = (float(np.std(pay, ddof=1) / math.sqrt(n_paths))
                         if n_paths > 1 else 0.0)
        installed = out["total_installed"][j]
        first = out["first_install_time"][j]
        frac = float(np.mean(installed > 0.0))
        results.append(SimulationResult(
            estimate=estimate, std_error=std_error, n_paths=n_paths, dt=dt,
            horizon=horizon, discount_tail_bound=tail, initial_lump=out["lumps"][j],
            mean_total_installed=float(np.mean(installed)),
            fraction_installing=frac,
            mean_first_install_time=float(np.nanmean(first)) if frac > 0 else math.nan,
            payoffs=pay if keep_payoffs else None))
    return results


# -- verification report ----------------------------------------------------------


def verification_states(fb: FreeBoundary, y: float | None = None):
    """One state per region (wait / lump-to-boundary / lump-to-capacity)."""
    y = fb.params.y_bar / 5.0 if y is None else y
    f_y = fb.f(y)
    return [
        (f_y - 0.5, y),
        (0.5 * (f_y + fb.x_bar), y),
        (fb.x_bar + 0.5, y),
    ]


def dominance_report(params: ModelParams, fb: FreeBoundary, vf: ValueFunction,
                     states, n_paths: int, dt: float, horizon: float | None = None,
                     seed: int = 0) -> dict:
    """Analytic-vs-Monte-Carlo comparison across policies at the given states.

    The optimal policy is checked against the closed-form value within
    3 standard errors plus a dt-bias allowance 2 sqrt(dt); the
    never-install policy against the closed form of its payoff within
    3 standard errors plus the tail bound; and, under common random
    numbers, the optimal policy must dominate both baselines.
    """
    policies = {
        "optimal": OptimalReflection(params, fb),
        "never_install": NeverInstall(),
        "immediate_full": ImmediateFull(),
    }
    allowance = 2.0 * math.sqrt(dt)
    names = list(policies)
    jobs = [(policies[name], x, y) for x, y in states for name in names]
    all_results = estimate_value_many(params, jobs, n_paths, dt, horizon,
                                      seed=seed, keep_payoffs=True)
    rows = []
    checks = []
    for i, (x, y) in enumerate(states):
        region = fb.region(x, y).value
        w_val = vf.w(x, y)
        r_val = r_value(params, x, y)
        results = dict(zip(names, all_results[i * len(names):(i + 1) * len(names)]))
        opt = results["optimal"]
        never = results["never_install"]
        row = {
            "state": {"x": x, "y": y},
            "region": region,
            "analytic_w": w_val,
            "analytic_r": r_val,
        }
        for name, res in results.items():
            row[name] = res.summary_dict()
        gaps = {}
        for name in ("never_install", "immediate_full"):
            diff = opt.payoffs - results[name].payoffs
            se = float(np.std(diff, ddof=1) / math.sqrt(len(diff)))
            gaps[name] = {"mean": float(np.mean(diff)), "std_error": se}
        row["gap_optimal_minus"] = gaps
        rows.append(row)

        checks.append({
            "name": f"never_install matches closed form at ({x:.6g}, {y:.6g})",
            "passed": bool(abs(never.estimate - r_val)
                           <= 3.0 * never.std_error + never.discount_tail_bound),
            "gap": never.estimate - r_val,
            "tolerance": 3.0 * never.std_error + never.discount_tail_bound,
        })
        checks.append({
            "name": f"optimal matches analytic value at ({x:.6g}, {y:.6g})",
            "passed": bool(abs(opt.estimate - w_val)
                           <= 3.0 * opt.std_error + opt.discount_tail_bound + allowance),
            "gap": opt.estimate - w_val,
            "tolerance": 3.0 * opt.std_error + opt.discount_tail_bound + allowance,
        })
        for name, gap in gaps.items():
            checks.append({
                "name": f"optimal dominates {name} at ({x:.6g}, {y:.6g})",
                "passed": bool(gap["mean"] >= -3.0 * gap["std_error"]),
                "gap": gap["mean"],
                "tolerance": 3.0 * gap["std_error"],
            })
    return {
        "settings": {"n_paths": n_paths, "dt": dt,
                     "horizon": horizon if horizon is not None else 10.0 / params.rho,
                     "seed": seed, "dt_bias_allowance": allowance},
        "states": rows,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
