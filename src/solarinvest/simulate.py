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
seed.  The draws arrive time-major, one (steps, paths) chunk at a time.
While the kernel steps a chunk, one helper thread per further usable CPU
(none on one CPU, at most 7) draws blocks of paths of the next chunk, and
the kernel's own thread draws the blocks still left once it has stepped its
chunk, so no more threads than usable CPUs step or draw.  Any thread may
draw any block, since each path owns its stream; neither that nor how the
horizon is cut into chunks changes a value.

One kernel steps every policy.  A policy names capacity levels: ``start``
(the capacity right after t=0), ``target`` (the desired capacity given
prices) and ``boundary_at`` (the price above which ``target`` is consulted:
+inf never acts after t=0, -inf consults it every step).  The kernel clamps
every level it reads to [current capacity, y_bar], at t=0 as on every step,
so no policy removes capacity or installs beyond the cap.  All (policy, x, y)
jobs of a call are stacked as rows of one (job, path) array and share the
same float operations, so a job's payoffs do not depend on what it runs
beside, and a recorded path (:func:`simulate_path`) reproduces its estimator
payoff exactly.
"""

from __future__ import annotations

import math
import numbers
import os
import queue
import threading
from dataclasses import dataclass, field, fields

import numpy as np

from .boundary import FreeBoundary, physical_memory_bytes
from .errors import ConfigurationError, SimulationError
from .model import ModelParams, at_capacity, r_value
from .value import ValueFunction

_TIME_CHUNK = 4096  # most steps per chunk: the first chunk is drawn with the kernel idle
_MIN_CHUNK = 256  # fewest steps per chunk: each path's generator is called once per chunk
_CHUNK_BUDGET = 8_000_000  # noise elements buffered across the two live chunks
_FILL_ROWS = 16  # paths per block: drawn by one thread, stored by one transposed multiply


def _chunk_size(nb: int, n_steps: int) -> int:
    return min(n_steps, _TIME_CHUNK, max(_MIN_CHUNK, _CHUNK_BUDGET // (2 * nb)))


def _fill_workers() -> int:
    """Threads that draw noise, the stepping thread included: the CPUs this
    process may run on, at most 8."""
    if hasattr(os, "sched_getaffinity"):
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


# -- policies ------------------------------------------------------------------


class Policy:
    """Installation rule in capacity levels: a start level and a per-step
    target level, each clamped by the kernel to [current capacity, y_bar]."""

    name = "abstract"

    def start(self, x: float, y: float) -> float:
        """Capacity right after t = 0 from (x, y); clamped by the caller."""
        return y

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

    def start(self, x, y):
        return math.inf

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

    def start(self, x, y):
        return self._fb.lump_target(x, y)

    def target(self, x_arr, y_arr):
        return np.interp(x_arr, self._x_knots, self._y_knots)

    def boundary_at(self, y_arr):
        return np.interp(y_arr, self._y_knots, self._x_knots)


class FixedThreshold(Policy):
    """Install the full remaining capacity the first time the price
    reaches ``threshold``."""

    name = "fixed_threshold"

    def __init__(self, threshold: float):
        self.threshold = threshold

    def start(self, x, y):
        return math.inf if x >= self.threshold else y

    def target(self, x_arr, y_arr):
        return np.where(x_arr >= self.threshold, math.inf, y_arr)

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
        return {f.name: getattr(self, f.name) for f in fields(self) if f.name != "payoffs"}


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
    """Scaled per-path normal draws in time-major chunks, drawn one chunk ahead.

    A chunk has shape (steps, paths): row ``k`` holds every path's draw for
    one step, so the kernel adds a contiguous row per step.  Iterating the
    feed yields these rows in time order.  Each chunk is cut into blocks of
    ``_FILL_ROWS`` paths on a shared queue.  While the caller steps chunk k,
    ``_fill_workers() - 1`` helper threads (none on one CPU) take blocks of
    chunk k+1 from the queue; once the caller has stepped chunk k it draws
    the blocks still queued itself instead of waiting, so at most one thread
    per usable CPU steps or draws.  A block's generators are built by the
    thread that first draws it.  Each path's generator writes its own draws
    in stream order into a thread's scratch rows, which are scaled and stored
    transposed, so no value depends on the chunking or on which thread draws
    a block.  Two buffers alternate, and together they hold at most
    ``_CHUNK_BUDGET`` elements unless that would cut a chunk below
    ``_MIN_CHUNK`` steps.  Leaving the ``with`` block empties the queue, so
    each helper stops after the block in hand, and joins the helpers; a
    helper's exception is raised on the caller's thread.
    """

    def __init__(self, seed, indices, n_steps, scale):
        self._seed = seed
        self._indices = indices
        self._n_steps = n_steps
        self._scale = scale
        self._chunk = _chunk_size(len(indices), n_steps)
        self._gens = [None] * -(-len(indices) // _FILL_ROWS)  # per block, built lazily
        self._tasks = queue.SimpleQueue()  # (chunk buffer, block) to draw, None to stop
        self._done = queue.SimpleQueue()  # None or the exception, per block a helper drew
        self._helpers = []

    def __enter__(self):
        try:
            for _ in range(min(_fill_workers() - 1, len(self._gens))):
                thread = threading.Thread(target=self._help, daemon=True)
                thread.start()
                self._helpers.append(thread)
        except BaseException:  # a thread could not start: stop those that did
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc):
        while self._queued() is not None:  # each helper stops after its block in hand
            pass
        for _ in self._helpers:
            self._tasks.put(None)
        for thread in self._helpers:
            thread.join()

    def _scratch(self):
        return np.empty((min(_FILL_ROWS, len(self._indices)), self._chunk))

    def _draw(self, out, blk, scratch):
        lo = blk * _FILL_ROWS
        hi = min(lo + _FILL_ROWS, len(self._indices))
        gens = self._gens[blk]
        if gens is None:
            gens = self._gens[blk] = _path_generators(self._seed, self._indices[lo:hi])
        rows = scratch[:hi - lo, :len(out)]
        for gen, row in zip(gens, rows):
            gen.standard_normal(out=row)
        np.multiply(rows.T, self._scale, out=out[:, lo:hi])

    def _help(self):
        scratch = self._scratch()
        for task in iter(self._tasks.get, None):
            try:
                self._draw(*task, scratch)
            except BaseException as exc:  # raised again on the caller's thread
                self._done.put(exc)
            else:
                self._done.put(None)

    def _queued(self):
        """The next queued task, or None when the queue is empty."""
        try:
            return self._tasks.get_nowait()
        except queue.Empty:
            return None

    def _ready(self, out, scratch):
        """Draw the blocks of ``out`` no helper has taken, then wait for the rest."""
        left = len(self._gens)
        for task in iter(self._queued, None):  # one at a time: helpers take the others
            self._draw(*task, scratch)
            left -= 1
        for _ in range(left):
            exc = self._done.get()
            if exc is not None:
                raise exc
        return out

    def __iter__(self):
        nb, n_steps, chunk = len(self._indices), self._n_steps, self._chunk
        scratch = self._scratch()
        # both buffers in one allocation: at full size it is mapped fresh and
        # unmapped whole, so no pair of chunks is carved from a fragmented heap
        bufs = np.empty((min(2, -(-n_steps // chunk)), chunk, nb))

        def submit(k, start):  # chunk k reuses the buffer of chunk k - 2
            out = bufs[k % 2][:min(chunk, n_steps - start)]
            for blk in range(len(self._gens)):
                self._tasks.put((out, blk))
            return out

        pending = submit(0, 0)
        for k, start in enumerate(range(chunk, n_steps, chunk), 1):
            ready = self._ready(pending, scratch)
            pending = submit(k, start)  # the caller is done with chunk k - 2
            yield from ready
        yield from self._ready(pending, scratch)


def _threshold(params, policy, lvl):
    """Price above which ``policy`` acts at capacity ``lvl`` (+inf at capacity)."""
    return np.where(at_capacity(params, lvl), math.inf, policy.boundary_at(lvl))


def _run(params, jobs, dt, n_steps, seed, indices, record=False):
    """Advance every (policy, x, y) job through one shared noise stream.

    Jobs are stacked as rows of (job, path) arrays, ordered so that each
    policy object owns a contiguous block; every row sees the same draws
    (common random numbers) and the same float operations, so a job's
    payoffs are bit-identical whether it runs alone, in a batch, or recorded.
    ``thr`` caches the price above which a row's policy acts (+inf once
    capacity is exhausted), so crossing-free steps cost one comparison per
    block plus the price recursion.  A NaN threshold would switch its row
    off silently, since no price exceeds it: one at t = 0 is refused before
    any draw, and one set by a crossing, which no later step can replace,
    is refused after the last step.
    """
    p = params
    lumps = []
    for j, (policy, x0, y0) in enumerate(jobs):
        if not math.isfinite(x0):
            raise ConfigurationError(f"job {j} ({policy.name}): x must be finite, got {x0}")
        if not 0.0 <= y0 <= p.y_bar:
            raise ConfigurationError(
                f"job {j} ({policy.name}): y must lie in [0, y_bar = {p.y_bar}], got {y0}")
        lumps.append(float(min(max(policy.start(x0, y0), y0), p.y_bar) - y0))
        if math.isnan(lumps[-1]):  # the clamp passes NaN
            raise ConfigurationError(
                f"job {j} ({policy.name}): start({x0}, {y0}) returned NaN capacity")
    blocks = {}
    for i, (policy, _, _) in enumerate(jobs):
        blocks.setdefault(id(policy), (policy, []))[1].append(i)
    order = [i for _, ids in blocks.values() for i in ids]
    nb = len(indices)

    def rows(values):
        return np.repeat(np.array(values, dtype=float)[:, None], nb, axis=1)

    y_start = rows([jobs[i][2] for i in order])
    lump_rows = [lumps[i] for i in order]
    x = rows([jobs[i][1] for i in order])
    y = y_start + rows(lump_rows)
    pay = rows([-p.c * lump for lump in lump_rows])
    first = rows([0.0 if lump > 0.0 else math.nan for lump in lump_rows])
    disc_step = math.exp(-p.rho * dt)
    rev_weight = (1.0 - disc_step) / p.rho  # exact int of e^{-rho u} per step
    kdt = p.kappa * dt
    decay = 1.0 - kdt
    adds = kdt * (p.mu - p.beta * y)

    thr = np.empty_like(x)
    active = []  # (policy, flat views of x, y, thr, adds, pay, first) per block
    lo = 0
    for policy, ids in blocks.values():
        hi = lo + len(ids)
        views = [a[lo:hi].reshape(-1) for a in (x, y, thr, adds, pay, first)]
        views[2][:] = _threshold(p, policy, views[1])
        if (views[2] < math.inf).any():  # all +inf: the block never acts
            active.append((policy, *views))
        lo = hi
    back = np.argsort(order)  # row of each job

    def nan_threshold():
        """The first job whose threshold is NaN and its capacity there, or None."""
        bad = np.isnan(thr).any(axis=1)[back]
        if not bad.any():
            return None
        j = int(np.argmax(bad))
        row = back[j]
        return j, float(y[row][np.isnan(thr[row])][0])

    if bad := nan_threshold():
        j, lvl = bad
        raise ConfigurationError(
            f"job {j} ({jobs[j][0].name}): boundary_at({lvl}) returned NaN at t = 0")
    tmp = np.empty_like(x)
    if record:
        # under overcommit a record beyond physical memory is allocated
        # anyway and the loop then pages without end, so refuse it first
        rec_bytes = 2 * (n_steps + 1) * x.size * x.itemsize
        phys_bytes = physical_memory_bytes()
        if rec_bytes > phys_bytes:
            raise ConfigurationError(
                f"recording x and y at {n_steps + 1} times x {x.size} paths takes "
                f"{rec_bytes} bytes, more than the {phys_bytes} bytes of physical memory")
        x_rec = np.empty((n_steps + 1,) + x.shape)
        y_rec = np.empty_like(x_rec)

    disc = 1.0
    step = 0
    with _NoiseFeed(seed, indices, n_steps, p.sigma * math.sqrt(dt)) as feed:
        for z in feed:
            for policy, xb, yb, tb, ab, pb, firstb in active:
                idx = (xb > tb).nonzero()[0]
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
                    tb[idx] = _threshold(p, policy, lvl)
            if record:
                x_rec[step] = x
                y_rec[step] = y
            np.multiply(x, y, out=tmp)
            tmp *= disc * rev_weight
            pay += tmp
            x *= decay
            x += adds
            x += z
            disc *= disc_step
            step += 1
    finite = np.isfinite(x).all(axis=1)
    if not finite.all():
        j = int(np.argmin(finite[back]))
        nan_cap = "NaN" if np.isnan(y[back[j]]).any() else "not NaN"
        raise SimulationError(f"job {j} ({jobs[j][0].name}): non-finite price state "
                              f"encountered; its capacity is {nan_cap}")
    if bad := nan_threshold():
        j, lvl = bad
        raise SimulationError(
            f"job {j} ({jobs[j][0].name}): boundary_at({lvl}) returned NaN after an "
            "installation, so the policy stopped acting")
    out = {"payoffs": pay[back], "lumps": lumps,
           "total_installed": (y - y_start)[back], "first_install_time": first[back]}
    if record:
        x_rec[n_steps] = x
        y_rec[n_steps] = y
        out.update(x=x_rec[:, back], y=y_rec[:, back])
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
    n_steps = _check_mc_config(1, dt, horizon, seed)
    if not (isinstance(path_index, numbers.Integral) and 0 <= path_index < 2**192):
        raise ConfigurationError(
            f"path_index must be an integer in [0, 2**192), got {path_index!r}")
    out = _run(params, [(policy, x, y)], dt, n_steps, seed, [path_index], record=True)
    x_path, y_path, lump = out["x"][:, 0, 0], out["y"][:, 0, 0], out["lumps"][0]
    # step k installs from the capacity recorded at step k - 1 (after the lump at k = 0)
    y_before = np.concatenate(([y + lump], y_path[:n_steps - 1]))
    over = np.max(x_path[:n_steps] - _threshold(params, policy, y_before))
    return PathRecord(
        t=np.linspace(0.0, n_steps * dt, n_steps + 1), x=x_path,
        y=y_path, cum_cost=params.c * (y_path - y),
        payoff=float(out["payoffs"][0, 0]), initial_lump=lump,
        total_installed=float(out["total_installed"][0, 0]),
        first_install_time=float(out["first_install_time"][0, 0]),
        max_overshoot=float(np.maximum(over, 0.0)) if math.isfinite(over) else 0.0)


def _check_mc_config(n_paths, dt, horizon, seed) -> int:
    """Validate Monte Carlo settings; return the number of time steps."""
    if isinstance(n_paths, bool) or not isinstance(n_paths, numbers.Integral):
        raise ConfigurationError(f"n_paths={n_paths!r} must be an integer")
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
    ratio = horizon / dt
    if not ratio < 2.0**64:  # the Philox counters a path's stream owns
        raise ConfigurationError(
            f"horizon {horizon} / dt {dt} = {ratio} steps; a path's stream holds "
            "fewer than 2**64")
    return int(round(ratio))


def estimate_value(params: ModelParams, policy: Policy, x: float, y: float,
                   n_paths: int, dt: float, horizon: float | None = None,
                   seed: int = 0, keep_payoffs: bool = False) -> SimulationResult:
    """Mean discounted payoff of ``policy`` from (x, y), with standard error.

    ``horizon`` defaults to 10/rho (discount e^-10 beyond the cutoff); the
    analytic truncation bound is reported.  Deterministic for a fixed seed.
    """
    return estimate_value_many(params, [(policy, x, y)], n_paths, dt, horizon,
                               seed=seed, keep_payoffs=keep_payoffs)[0]


def estimate_value_many(params: ModelParams, jobs, n_paths: int, dt: float,
                        horizon: float | None = None, seed: int = 0,
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
    n_steps = _check_mc_config(n_paths, dt, horizon, seed)
    if not jobs:
        raise ConfigurationError("jobs must hold at least one (policy, x, y)")
    out = _run(params, jobs, dt, n_steps, seed, np.arange(n_paths))
    results = []
    for j, (_, x, _) in enumerate(jobs):
        pay = out["payoffs"][j]
        estimate = float(np.mean(pay))
        std_error = (float(np.std(pay, ddof=1) / math.sqrt(n_paths))
                     if n_paths > 1 else 0.0)
        installed = out["total_installed"][j]
        first = out["first_install_time"][j]
        frac = float(np.mean(installed > 0.0))
        results.append(SimulationResult(
            estimate=estimate, std_error=std_error, n_paths=n_paths, dt=dt,
            horizon=horizon, discount_tail_bound=discount_tail_bound(p, x, horizon),
            initial_lump=out["lumps"][j],
            mean_total_installed=float(np.mean(installed)),
            fraction_installing=frac,
            mean_first_install_time=float(np.nanmean(first)) if frac > 0 else math.nan,
            payoffs=pay if keep_payoffs else None))
    return results


# -- verification report ----------------------------------------------------------


def verification_states(fb: FreeBoundary):
    """One state per region (wait / lump-to-boundary / lump-to-capacity), at
    capacity y_bar / 5."""
    y = fb.params.y_bar / 5.0
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
    numbers, the optimal policy must dominate both baselines.  Those paired
    standard errors need two paths: fewer raise :class:`ConfigurationError`
    before anything is drawn.
    """
    if n_paths < 2:
        raise ConfigurationError(
            f"n_paths must be >= 2 for the paired standard errors, got {n_paths}")
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

        bands = [("never_install matches closed form", never.estimate - r_val,
                  3.0 * never.std_error + never.discount_tail_bound),
                 ("optimal matches analytic value", opt.estimate - w_val,
                  3.0 * opt.std_error + opt.discount_tail_bound + allowance)]
        for name, gap, tol in bands:
            checks.append({"name": f"{name} at ({x:.6g}, {y:.6g})",
                           "passed": bool(abs(gap) <= tol), "gap": gap, "tolerance": tol})
        for name, gap in gaps.items():
            tol = 3.0 * gap["std_error"]
            checks.append({"name": f"optimal dominates {name} at ({x:.6g}, {y:.6g})",
                           "passed": bool(gap["mean"] >= -tol), "gap": gap["mean"],
                           "tolerance": tol})
    return {
        "settings": {"n_paths": n_paths, "dt": dt, "horizon": all_results[0].horizon,
                     "seed": seed, "dt_bias_allowance": allowance},
        "states": rows,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
