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
seed.  A run steps its paths in batches of at most ``_PATH_BATCH``, one
after another, so what it holds besides its results does not grow with the
number of paths.  A batch's draws arrive time-major, one (steps, paths)
chunk at a time.  A chunk is cut into blocks of 128 paths, fewer when the
batch is too small to give each drawing thread a block, and each block is
a future on a pool of one helper thread per further usable CPU (no pool on
one CPU, at most 7).  While the kernel steps a chunk, the helpers draw
blocks of the next one; once it has stepped its chunk, the kernel's own
thread cancels the blocks no helper has started and draws them, so no more
threads than usable CPUs step or draw.  Any thread may draw any block,
since each path owns its stream; neither that, nor how wide the blocks
are, nor how the paths are batched or the horizon is cut into chunks
changes a value.

One kernel steps every policy.  A policy names capacity levels: ``start``
(the capacity right after t=0), ``target`` (the desired capacity given
prices) and ``boundary_at`` (the price above which ``target`` is consulted:
+inf never acts after t=0, -inf consults it every step).  The kernel clamps
every level it reads to [current capacity, y_bar], at t=0 as on every step,
so no policy removes capacity or installs beyond the cap.  All (policy, x, y)
jobs of a call are stacked as rows of one (job, path) array and share the
same float operations, so a job's payoffs do not depend on what it runs
beside.  A recorded path (:func:`simulate_path`) is one job on one path, so
it skips the arrays and the feed: it steps on Python floats, on its thread,
through the same path's draws, drawn in chunks sized for one path (how the
horizon is chunked changes no value).  It shares with the kernel one
function for the step constants and one for the installation step (the
clamp to [current capacity, y_bar] and the threshold read there), which
also installs at t=0, and so reproduces its estimator path bit for bit.

A run is admitted once, before anything is allocated or drawn: its
settings by :func:`_check_mc_config`, which types and range-checks each by
``model``'s one scalar rule (``check_real``, ``check_integer``) and returns
the Python numbers the run then computes and reports with, and its jobs
by :func:`_check_jobs`, once per run, each job judged whole in job order,
before the memory guard.  Both refuse with :class:`ConfigurationError`.
The kernel (:func:`_run`) only steps, and hands back its results in job
order, whatever order it steps its rows in.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import Future, ThreadPoolExecutor
from dataclasses import dataclass, field, fields

import numpy as np

from .boundary import FreeBoundary, physical_memory_bytes
from .errors import ConfigurationError, SimulationError
from .model import (ModelParams, at_capacity, check_integer, check_real, check_same_params,
                    r_value)
from .value import ValueFunction

_PATH_BATCH = 4096  # most paths per _run call: a run's working set does not grow with n_paths
_TIME_CHUNK = 4096  # most steps per chunk: the first chunk is drawn with the kernel idle
_CHUNK_BUDGET = 8_000_000  # noise elements buffered across the two live chunks
# at most _PATH_BATCH paths per feed: a chunk holds the whole run or at least 976 steps
_FILL_ROWS = 128  # most paths per block: drawn and scaled by one thread, one transposed copy
_BATCH_ARRAYS = 15  # (job, path) arrays of doubles: 7 stepped, 7 and a mask a crossing forms
# 8 threads' scratch rows, a full block at the largest chunk (32 MiB), and
# 4 MiB for a feed's generators (at most 4096 of 612 B) and futures
_FEED_BYTES = 8 * _FILL_ROWS * _TIME_CHUNK * 8 + (4 << 20)


def _chunk_size(nb: int, n_steps: int) -> int:
    return min(n_steps, _TIME_CHUNK, _CHUNK_BUDGET // (2 * nb))


def _fill_workers() -> int:
    """Threads that draw noise, the stepping thread included: the CPUs this
    process may run on, at most 8."""
    if hasattr(os, "sched_getaffinity"):
        return min(8, len(os.sched_getaffinity(0)))
    return min(8, os.cpu_count() or 1)


def _block_width(nb: int, workers: int) -> int:
    """Paths per noise block: ``_FILL_ROWS``, or fewer so that each of the
    ``workers`` drawing threads has a block of ``nb`` paths."""
    return min(_FILL_ROWS, -(-nb // workers))


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
        check_same_params(params, fb)
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
    reaches ``threshold``: a real number, stored as a float, or
    :class:`ConfigurationError`.  +inf never installs; a run refuses a NaN
    threshold at t = 0."""

    name = "fixed_threshold"

    def __init__(self, threshold: float):
        self.threshold = check_real("threshold", threshold, ConfigurationError)

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


@dataclass(frozen=True, eq=False)
class PathRecord:
    """Single simulated path with the running state and cost trace; equality
    and hashing are by identity, as the fields hold arrays."""

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
    ``_FILL_ROWS`` paths, or of fewer when the feed has too few paths to give
    each of the ``_fill_workers()`` drawing threads a block, and each block
    is a future on a pool of ``_fill_workers() - 1`` helper threads (no pool
    on one CPU).  Wide blocks keep the futures per chunk few, 16 at 2000
    paths, and the transposed copy of a full block writes 1 KB runs.  While
    the caller steps chunk k, the helpers draw blocks of chunk k+1; once the
    caller has stepped chunk k it cancels the blocks no helper has started
    and draws them itself, then waits for the rest, whose ``result`` raises
    a helper's exception on the caller's thread.  So at most one thread per
    usable CPU steps or draws, and each block is drawn once.  A block's
    generators are built by the thread that first draws it.  Each path's
    generator writes its own draws in stream order into the drawing
    thread's scratch rows, which are scaled and stored transposed, so no
    value depends on the chunking, on the block width or on which thread
    draws a block.  Two buffers alternate, and together they hold at most
    ``_CHUNK_BUDGET`` elements.  Leaving the ``with`` block cancels the
    blocks no helper has started and joins the helpers.
    """

    def __init__(self, seed, indices, n_steps, scale):
        self._seed = seed
        self._indices = indices
        self._n_steps = n_steps
        self._scale = scale
        self._chunk = _chunk_size(len(indices), n_steps)
        workers = _fill_workers()
        self._width = _block_width(len(indices), workers)
        self._gens = [None] * -(-len(indices) // self._width)  # per block, built lazily
        self._helpers = min(workers - 1, len(self._gens))
        self._local = threading.local()  # each drawing thread's scratch rows
        self._pool = None

    def __enter__(self):
        if self._helpers > 0:
            self._pool = ThreadPoolExecutor(self._helpers)
        return self

    def __exit__(self, *exc):
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)

    def _draw(self, out, blk):
        lo = blk * self._width
        hi = min(lo + self._width, len(self._indices))
        gens = self._gens[blk] or _path_generators(self._seed, self._indices[lo:hi])
        self._gens[blk] = gens
        scratch = getattr(self._local, "rows", None)
        if scratch is None:  # this thread's first block
            scratch = np.empty(self._width * self._chunk)
            self._local.rows = scratch
        # contiguous rows, also for a chunk shorter than the scratch: an
        # in-place multiply of a strided view allocates a ufunc buffer per call
        rows = scratch[:(hi - lo) * len(out)].reshape(hi - lo, len(out))
        for gen, row in zip(gens, rows):
            gen.standard_normal(out=row)
        rows *= self._scale
        out[:, lo:hi] = rows.T

    def _ready(self, out, futures):
        """Draw the blocks of ``out`` no helper has started, then wait for the rest."""
        for blk, future in enumerate(futures):
            if future.cancel():
                self._draw(out, blk)
        for future in futures:
            if not future.cancelled():
                future.result()
        return out

    def __iter__(self):
        nb, n_steps, chunk = len(self._indices), self._n_steps, self._chunk
        # both buffers in one allocation: at full size it is mapped fresh and
        # unmapped whole, so no pair of chunks is carved from a fragmented heap
        bufs = np.empty((min(2, -(-n_steps // chunk)), chunk, nb))

        def submit(k, start):  # chunk k reuses the buffer of chunk k - 2
            out = bufs[k % 2][:min(chunk, n_steps - start)]
            # without a pool each block is a bare future, which no helper starts
            return out, [self._pool.submit(self._draw, out, blk) if self._pool else Future()
                         for blk in range(len(self._gens))]

        pending = submit(0, 0)
        for k, start in enumerate(range(chunk, n_steps, chunk), 1):
            ready = self._ready(*pending)
            pending = submit(k, start)  # the caller is done with chunk k - 2
            yield from ready
        yield from self._ready(*pending)


def _step_constants(params, dt):
    """(discount per step, revenue weight, kappa dt, price decay, noise
    scale) of an Euler step of ``dt``; the revenue weight is the exact
    integral of e^{-rho u} over a step."""
    p = params
    disc_step = math.exp(-p.rho * dt)
    kdt = p.kappa * dt
    return disc_step, (1.0 - disc_step) / p.rho, kdt, 1.0 - kdt, p.sigma * math.sqrt(dt)


def _install(params, policy, y_old, requested):
    """The installation step: the capacity ``requested`` (broadcast to the
    array ``y_old``) clamped to [y_old, y_bar], and the price above which
    ``policy`` acts there (+inf at capacity).  A NaN request passes the
    clamp, and only a NaN request makes a NaN capacity."""
    lvl = np.maximum(requested, y_old)
    np.minimum(lvl, params.y_bar, out=lvl)
    return lvl, np.where(at_capacity(params, lvl), math.inf, policy.boundary_at(lvl))


def _check_jobs(params, jobs):
    """Refuse an impossible (policy, x, y) job before any draw; return each
    job's t = 0 installation and the threshold at the level it installs to.

    Each job is judged whole, in job order, before the next, so a refusal
    names the first bad job: its form, its state (typed by ``model``'s
    scalar rule, the price finite, the capacity in [0, y_bar]), its start
    (a real number that is not NaN; ``math.inf`` fills capacity), and the
    threshold at the level it installs to.  A NaN threshold would switch
    its job off silently, since no price exceeds it, so one at t = 0 is
    refused here.  ``start`` sees the state as the Python floats checked.
    """
    p = params
    lumps, thresholds = [], []
    for j, job in enumerate(jobs):
        if not (isinstance(job, tuple) and len(job) == 3):
            raise ConfigurationError(f"job {j}: {job!r} is not a (policy, x, y) tuple")
        policy, x0, y0 = job
        if not isinstance(policy, Policy):
            raise ConfigurationError(f"job {j}: policy {policy!r} is not a Policy")
        name = f"job {j} ({policy.name})"
        x0 = check_real(f"{name}: x", x0, ConfigurationError)
        y0 = check_real(f"{name}: y", y0, ConfigurationError)
        if not math.isfinite(x0):
            raise ConfigurationError(f"{name}: x must be finite, got {x0}")
        if not 0.0 <= y0 <= p.y_bar:
            raise ConfigurationError(f"{name}: y must lie in [0, y_bar = {p.y_bar}], got {y0}")
        start = check_real(f"{name}: start({x0}, {y0})", policy.start(x0, y0),
                           ConfigurationError)
        if math.isnan(start):
            raise ConfigurationError(f"{name}: start({x0}, {y0}) returned NaN capacity")
        lvl, thr = (a.item() for a in _install(p, policy, np.array([y0]), start))
        if math.isnan(thr):
            raise ConfigurationError(f"{name}: boundary_at({lvl}) returned NaN at t = 0")
        lumps.append(lvl - y0)
        thresholds.append(thr)
    return lumps, thresholds


def _check_end(jobs, x, y, thr):
    """Refuse a finished run, naming the first job whose price is not finite
    or whose threshold is NaN.  ``x``, ``y`` and ``thr`` hold one row per
    job, in job order (a (job, path) array, or a list of row views), and
    each test reduces a row to one value (min and max pass NaN).

    A NaN threshold set by a crossing is never replaced, since no later
    price exceeds it, so checking once after the last step finds it.
    """
    for j, row in enumerate(x):
        if not (math.isfinite(row.min()) and math.isfinite(row.max())):
            nan_cap = "NaN" if np.isnan(y[j]).any() else "not NaN"
            raise SimulationError(f"job {j} ({jobs[j][0].name}): non-finite price state "
                                  f"encountered; its capacity is {nan_cap}")
    for j, row in enumerate(thr):
        if math.isnan(row.max()):
            lvl = float(y[j][np.isnan(row)][0])
            raise SimulationError(
                f"job {j} ({jobs[j][0].name}): boundary_at({lvl}) returned NaN after an "
                "installation, so the policy stopped acting")


def _run(params, jobs, lumps, thresholds, dt, n_steps, seed, indices):
    """Advance every (policy, x, y) job through one shared noise stream;
    return its (payoffs, installed capacity, first install time) as
    (job, path) arrays, in job order, over the paths ``indices``.

    The jobs, their t = 0 ``lumps`` and ``thresholds`` and the settings
    come checked (:func:`_check_jobs`, :func:`_check_mc_config`): the
    kernel only steps.  Jobs are stacked as rows of (job, path) arrays,
    ordered so that each policy object owns a contiguous block; that order
    stays inside this function.  Every row sees the same draws (common
    random numbers) and the same float operations, so a job's payoffs are
    bit-identical whether it runs alone or in a batch.
    :func:`simulate_path` takes its step constants from
    :func:`_step_constants` and its installations from :func:`_install`, as
    this kernel does, so a traced path equals its row here bit for bit.
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

    def rows(values):  # one row per job, in block order
        return np.repeat(np.array(values, dtype=float)[order, None], nb, axis=1)

    # a (job, 1) column, not a state array: it broadcasts into y and into
    # the callers' installed capacity y - y_start
    y_start = np.array([y0 for _, _, y0 in jobs], dtype=float)[order, None]
    x = rows([x0 for _, x0, _ in jobs])
    y = y_start + rows(lumps)
    pay = rows([-p.c * lump for lump in lumps])
    first = rows([0.0 if lump > 0.0 else math.nan for lump in lumps])
    thr = rows(thresholds)
    disc_step, rev_weight, kdt, decay, scale = _step_constants(p, dt)
    adds = kdt * (p.mu - p.beta * y)

    active = []  # (policy, flat views of x, y, thr, adds, pay, first) per block
    lo = 0
    for policy, ids in blocks.values():
        hi = lo + len(ids)
        views = [a[lo:hi].reshape(-1) for a in (x, y, thr, adds, pay, first)]
        if (views[2] < math.inf).any():  # all +inf: the block never acts
            active.append((policy, *views))
        lo = hi
    back = np.argsort(order)  # row of each job
    tmp = np.empty_like(x)

    disc = 1.0
    step = 0
    with _NoiseFeed(seed, indices, n_steps, scale) as feed:
        for z in feed:
            for policy, xb, yb, tb, ab, pb, firstb in active:
                idx = (xb > tb).nonzero()[0]
                if idx.size:
                    y_old = yb[idx]
                    lvl, tb[idx] = _install(p, policy, y_old, policy.target(xb[idx], y_old))
                    dy = lvl - y_old
                    pb[idx] -= (disc * p.c) * dy
                    fresh = idx[(dy > 0.0) & np.isnan(firstb[idx])]
                    firstb[fresh] = step * dt
                    yb[idx] = lvl
                    ab[idx] = kdt * (p.mu - p.beta * lvl)
            np.multiply(x, y, out=tmp)
            tmp *= disc * rev_weight
            pay += tmp
            x *= decay
            x += adds
            x += z
            disc *= disc_step
            step += 1
    # each job's rows as views, in job order: no state array is copied to check them
    _check_end(jobs, *([a[r] for r in back] for a in (x, y, thr)))
    y -= y_start
    # reordered into three arrays the run is done with, unbuffered (every
    # row index is valid): copies would add to a peak the noise chunks
    # still hold
    return tuple(np.take(a, back, axis=0, out=spare, mode="clip")
                 for a, spare in ((pay, tmp), (y, x), (first, adds)))


def simulate_path(params: ModelParams, policy: Policy, x: float, y: float,
                  dt: float, horizon: float, seed: int, path_index: int = 0) -> PathRecord:
    """Simulate one path with full state recording.

    The path is path ``path_index`` of :func:`estimate_value` run with the
    same seed and step settings, payoff included bit for bit: it steps on
    Python floats through the same draws, drawn in chunks sized for one
    path (how the horizon is chunked changes no value), with the kernel's
    step constants (:func:`_step_constants`) and installation step
    (:func:`_install`), and starts no thread.  ``x``
    and ``y`` are recorded after any installation at each step;
    ``max_overshoot`` is the largest pre-installation excess of the price
    over the policy's threshold (0 when the threshold is never finite).
    """
    p = params
    _, dt, seed, n_steps = _check_mc_config(1, dt, horizon, seed)
    path_index = check_integer("path_index", path_index, ConfigurationError, 0, 2**192)
    (lump,), (thr,) = _check_jobs(p, [(policy, x, y)])
    x, y = float(x), float(y)  # as checked
    # the record is t, x, y and cum_cost; under overcommit one beyond
    # physical memory is allocated anyway and the loop then pages without
    # end, so refuse it first
    n_rec = n_steps + 1
    rec_bytes = 4 * n_rec * np.dtype(float).itemsize
    phys_bytes = physical_memory_bytes()
    if rec_bytes > phys_bytes:
        raise ConfigurationError(
            f"recording t, x, y and cum_cost at {n_rec} times takes {rec_bytes} "
            f"bytes, more than the {phys_bytes} bytes of physical memory")
    x_rec = np.empty(n_rec)
    y_rec = np.empty(n_rec)

    xt, yt = x, y + lump
    pay = -p.c * lump
    first = 0.0 if lump > 0.0 else math.nan
    disc_step, rev_weight, kdt, decay, scale = _step_constants(p, dt)
    add = kdt * (p.mu - p.beta * yt)
    disc = 1.0
    over = -math.inf  # an excess is NaN only on a path _check_end refuses
    gen = _path_generators(seed, [path_index])[0]
    chunk = _chunk_size(1, n_steps)
    for lo in range(0, n_steps, chunk):
        draws = gen.standard_normal(min(chunk, n_steps - lo)) * scale
        for step, dz in enumerate(draws.tolist(), lo):
            excess = xt - thr
            if excess > over:
                over = excess
            if xt > thr:
                y_arr = np.array([yt])
                lvl, thr = (a.item() for a in
                            _install(p, policy, y_arr, policy.target(np.array([xt]), y_arr)))
                dy = lvl - yt
                pay -= (disc * p.c) * dy
                if dy > 0.0 and math.isnan(first):
                    first = step * dt
                yt = lvl
                add = kdt * (p.mu - p.beta * lvl)
            x_rec[step] = xt
            y_rec[step] = yt
            pay += (xt * yt) * (disc * rev_weight)
            xt = xt * decay + add + dz
            disc *= disc_step
    del draws  # the chunk is not held while t and cum_cost are allocated
    x_rec[n_steps] = xt
    y_rec[n_steps] = yt
    _check_end([(policy, x, y)], x_rec[None, n_steps:], y_rec[None, n_steps:],
               np.array([[thr]]))
    t = np.linspace(0.0, n_steps * dt, n_rec)
    cum_cost = y_rec - y
    cum_cost *= p.c
    return PathRecord(
        t=t, x=x_rec, y=y_rec, cum_cost=cum_cost, payoff=pay, initial_lump=lump,
        total_installed=yt - y, first_install_time=first,
        max_overshoot=max(over, 0.0) if math.isfinite(over) else 0.0)


def _mean_se(values):
    """Mean of ``values`` and its standard error (0 for a single value)."""
    se = float(np.std(values, ddof=1) / math.sqrt(len(values))) if len(values) > 1 else 0.0
    return float(np.mean(values)), se


def _check_mc_config(n_paths, dt, horizon, seed):
    """Check Monte Carlo settings by ``model``'s scalar rule; return the
    checked ``(n_paths, dt, seed, n_steps)`` as Python numbers, which the
    caller computes and reports with."""
    n_paths = check_integer("n_paths", n_paths, ConfigurationError, 1)
    dt = check_real("dt", dt, ConfigurationError)
    horizon = check_real("horizon", horizon, ConfigurationError)
    if not dt > 0.0:
        raise ConfigurationError(f"dt must be positive, got {dt}")
    if not math.isfinite(horizon):
        raise ConfigurationError(f"horizon must be finite, got {horizon}")
    if not horizon > dt:
        raise ConfigurationError(f"horizon {horizon} must exceed dt {dt}")
    # Philox would truncate a float key, so 1.5 or True would share seed 1's streams
    seed = check_integer("seed", seed, ConfigurationError, 0, 2**128)
    ratio = horizon / dt
    if not ratio < 2.0**64:  # the Philox counters a path's stream owns
        raise ConfigurationError(
            f"horizon {horizon} / dt {dt} = {ratio} steps; a path's stream holds "
            "fewer than 2**64")
    return n_paths, dt, seed, int(round(ratio))


def _check_run_memory(jobs, n_paths: int, n_steps: int) -> None:
    """Refuse a run whose results and one path batch exceed physical memory.

    What grows with ``n_paths`` is the three (job, path) result arrays of
    doubles.  A batch of at most ``_PATH_BATCH`` paths holds
    ``_BATCH_ARRAYS`` (job, path) arrays, the one or two noise chunks its
    feed allocates, and at most ``_FEED_BYTES`` more in its feed.  Under
    overcommit a run beyond physical memory is allocated anyway and then
    pages without end, so it is refused before anything is allocated or
    drawn."""
    nb = min(n_paths, _PATH_BATCH)
    chunk = _chunk_size(nb, n_steps)
    batch = (_BATCH_ARRAYS * len(jobs) + min(2, -(-n_steps // chunk)) * chunk) * nb
    run_bytes = (3 * len(jobs) * n_paths + batch) * np.dtype(float).itemsize + _FEED_BYTES
    phys_bytes = physical_memory_bytes()
    if run_bytes > phys_bytes:
        raise ConfigurationError(
            f"{len(jobs)} job(s) on {n_paths} paths take {run_bytes} bytes of results, "
            f"state and noise, more than the {phys_bytes} bytes of physical memory")


def estimate_value(params: ModelParams, policy: Policy, x: float, y: float,
                   n_paths: int, dt: float, horizon: float | None = None,
                   seed: int = 0, keep_payoffs: bool = False) -> SimulationResult:
    """Mean discounted payoff of ``policy`` from (x, y), with standard error.

    ``horizon`` defaults to 10/rho (discount e^-10 beyond the cutoff).  The
    run takes ``round(horizon / dt)`` steps; the horizon reported, and the
    analytic truncation bound beyond it, are those of the steps taken.
    Deterministic for a fixed seed.
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
    n_paths, dt, seed, n_steps = _check_mc_config(n_paths, dt, horizon, seed)
    horizon = n_steps * dt  # the horizon simulated
    try:
        jobs = list(jobs)
    except TypeError:
        raise ConfigurationError(
            f"jobs={jobs!r} must be an iterable of (policy, x, y) tuples") from None
    if not jobs:
        raise ConfigurationError("jobs must hold at least one (policy, x, y)")
    lumps, thresholds = _check_jobs(p, jobs)  # once per run, before any batch
    _check_run_memory(jobs, n_paths, n_steps)
    pays, installed, firsts = (np.empty((len(jobs), n_paths)) for _ in range(3))
    for lo in range(0, n_paths, _PATH_BATCH):
        hi = min(lo + _PATH_BATCH, n_paths)
        pays[:, lo:hi], installed[:, lo:hi], firsts[:, lo:hi] = _run(
            p, jobs, lumps, thresholds, dt, n_steps, seed, range(lo, hi))
    results = []
    for (_, x, _), lump, pay, inst, first in zip(jobs, lumps, pays, installed, firsts):
        estimate, std_error = _mean_se(pay)
        frac = float(np.mean(inst > 0.0))
        results.append(SimulationResult(
            estimate=estimate, std_error=std_error, n_paths=n_paths, dt=dt,
            horizon=horizon, discount_tail_bound=discount_tail_bound(p, float(x), horizon),
            initial_lump=lump, mean_total_installed=float(np.mean(inst)),
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

    ``states`` is read once, so a one-shot iterator serves as well as a
    list.  Anything but an iterable of (x, y) pairs, and an empty one (no
    job to run), raise :class:`ConfigurationError` before anything is
    drawn.  Four checks per state: the optimal policy against the
    closed-form value within 3 standard errors plus a dt-bias allowance
    2 sqrt(dt); the never-install policy against the closed form of its
    payoff within 3 standard errors plus the tail bound; and, under common
    random numbers, the optimal policy must dominate each baseline within
    3 paired standard errors.  Those need two paths: fewer raise
    :class:`ConfigurationError` before anything is drawn.
    """
    check_same_params(params, fb, vf)
    n_paths = check_integer("n_paths", n_paths, ConfigurationError, 2)
    try:
        states = [(x, y) for x, y in states]
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"states={states!r} must be an iterable of (x, y) pairs") from None
    policies = (OptimalReflection(params, fb), NeverInstall(), ImmediateFull())
    jobs = [(policy, x, y) for x, y in states for policy in policies]
    all_results = estimate_value_many(params, jobs, n_paths, dt, horizon,
                                      seed=seed, keep_payoffs=True)
    # the settings as the run checked and used them: Python numbers
    dt, horizon, seed = all_results[0].dt, all_results[0].horizon, int(seed)
    allowance = 2.0 * math.sqrt(dt)
    rows = []
    checks = []
    for i, (x, y) in enumerate(states):
        region = fb.region(x, y).value
        w_val = vf.w(x, y)
        r_val = r_value(params, x, y)
        results = all_results[i * len(policies):(i + 1) * len(policies)]
        opt, never, _ = results
        row = {
            "state": {"x": x, "y": y},
            "region": region,
            "analytic_w": w_val,
            "analytic_r": r_val,
        }
        for policy, res in zip(policies, results):
            row[policy.name] = res.summary_dict()
        gaps = {}
        for policy, res in zip(policies[1:], results[1:]):
            mean, se = _mean_se(opt.payoffs - res.payoffs)
            gaps[policy.name] = {"mean": mean, "std_error": se}
        row["gap_optimal_minus"] = gaps
        rows.append(row)

        # (name, gap, tolerance, two-sided): a one-sided check fails only below -tolerance
        bands = [("never_install matches closed form", never.estimate - r_val,
                  3.0 * never.std_error + never.discount_tail_bound, True),
                 ("optimal matches analytic value", opt.estimate - w_val,
                  3.0 * opt.std_error + opt.discount_tail_bound + allowance, True)]
        bands += [(f"optimal dominates {name}", gap["mean"], 3.0 * gap["std_error"], False)
                  for name, gap in gaps.items()]
        for name, gap, tol, two_sided in bands:
            checks.append({"name": f"{name} at ({x:.6g}, {y:.6g})",
                           "passed": bool(abs(gap) <= tol if two_sided else gap >= -tol),
                           "gap": gap, "tolerance": tol})
    return {
        "settings": {"n_paths": n_paths, "dt": dt, "horizon": horizon,
                     "seed": seed, "dt_bias_allowance": allowance},
        "states": rows,
        "checks": checks,
        "all_passed": all(c["passed"] for c in checks),
    }
