"""Fundamental solutions of the mean-reverting generator equation.

The homogeneous equation  (1/2) sigma^2 u'' + kappa (mu - x) u' - rho u = 0
has a strictly increasing positive solution ``psi`` and a strictly decreasing
positive one ``phi``.  Both are built from the cylinder function of negative
order,

    D_a(x) = e^{-x^2/4} / Gamma(-a) * int_0^inf t^{-a-1} e^{-t^2/2 - x t} dt,

as  psi(x) = e^{kappa (x-mu)^2 / (2 sigma^2)} D_{-rho/kappa}(-(x-mu) sqrt(2 kappa)/sigma)
(and phi with the mirrored argument).  Writing s0 = rho/kappa and
z = (mu - x) sqrt(2 kappa)/sigma, the Gaussian prefactor cancels exactly
against the e^{-z^2/4} inside D, leaving

    psi(x)     = I_{s0}(z) / Gamma(s0),
    psi^(k)(x) = (sqrt(2 kappa)/sigma)^k I_{s0+k}(z) / Gamma(s0),

with I_s(z) = int_0^inf t^{s-1} e^{-t^2/2 - z t} dt.  The bare integral is
evaluated by deterministic tanh-sinh quadrature with level doubling,
accumulated in log space so that neither the t^{s-1} endpoint singularity
(s < 1) nor the interior peak e^{z^2/2} (z << 0) can overflow; its settings
are module constants.

``log I_s(z)`` is analytic in z, so :class:`FundamentalSolution` does not
call the quadrature per lookup: it interpolates on unit panels [j, j+1] in
z by Chebyshev polynomials through 20 first-kind nodes, which reproduce the
quadrature to rounding.  ``log_weighted_integral`` takes an array of z and
runs the level doubling on all of them at once, so one panel is one
vectorised quadrature call.

The solve reads psi itself and the ratios psi^(k)/psi, and
psi'/psi = (sqrt(2 kappa)/sigma) exp(log I_{s0+1} - log I_{s0}).  Each cell
therefore holds one panel pair: log I_{s0}, and the difference
g = log I_{s0+1} - log I_{s0} (Chebyshev interpolation is linear, so g has
its own panel), both built from the same two quadrature calls.  ``psi`` is
one Clenshaw pass over the first; ``psi_ratios`` forms psi^(k)/psi from one
pass over g, one exp and the generator recurrence, and stays finite where
psi itself overflows float64; ``psi_derivs`` is psi times those ratios.
A cell's pair depends on s0 and the cell index alone (z absorbs mu, sigma
and the kappa scale), so the pairs live in one module-level table per s0,
shared by every instance with that s0: a sensitivity sweep over sigma, mu,
beta, c or y_bar, or any process that solves repeatedly, builds each pair
once.  The 32 most recently bound s0 tables are kept.  The solve and the
value layer read psi up to its third derivative, so ``psi_derivs`` stops
there.  ``log_psi_deriv`` is one quadrature call with no panel; the other
reference routes the tests compare against (phi, direct derivatives of any
order, Q_k and Psi_k, D_a itself) are plain functions in ``tests/oracles.py``.

Every derivative of psi is again positive, increasing and convex, and the
determinant combinations

    Q_k = psi^(k) psi^(k+2) - (psi^(k+1))^2 > 0

are strictly positive with strictly increasing ratio
Psi_k = (psi^(k+1))^2 / (psi^(k) psi^(k+2)).
"""

from __future__ import annotations

import math
import threading

import numpy as np

from .errors import DomainError, NumericalError
from .model import ModelParams

_LOG2 = math.log(2.0)
_REL_TOL = 1e-12     # agreement of successive levels' logs that ends doubling
_UMAX = 6.2          # tanh-sinh transform truncation; covers s >= 0.05
_MAX_LEVEL = 9       # level m has step 0.5 / 2^m
_TAIL_PAD = 13.0     # upper cutoff T = max(0, -z) + pad; _check_cutoff refuses the
                     # (s, z) whose integrand T truncates
_PANEL_WIDTH = 1.0   # z-width of one Chebyshev panel of log I_s
_PANEL_NODES = 20    # nodes per panel; 16 leaves errors near 3e-14.  Must be even:
                     # the Clenshaw passes walk the coefficients in pairs
_Z_MAX = 1e150       # beyond this |z|, t^2/2 at t ~ |z| nears the float64 limit
_PANEL_TABLE_CAP = 32  # s0 tables kept: a solve over the fuzz box fills 4 cells at
                       # the median and 38 at most, of about 1.4 kB each

# s0 -> {j: cell pair}, least recently bound first; shared by every instance
# with that s0, since a cell's pair depends on (s0, j) alone
_PANEL_TABLES = {}
_PANEL_LOCK = threading.Lock()


def _logcosh(a):
    a = np.abs(a)
    return a + np.log1p(np.exp(-2.0 * a)) - _LOG2


def _build_tables():
    """Per-level tanh-sinh nodes on (0, 1); level m > 0 holds only new nodes.

    The map x(u) = 1/(1 + e^{-pi sinh u}) is evaluated through log x directly:
    the naive 0.5 (1 + tanh(...)) form loses the left tail to cancellation,
    which is fatal for integrands with an x^{s-1}, s < 1, singularity.
    """
    tables = []
    for m in range(_MAX_LEVEL + 1):
        h = 0.5 / 2**m
        js = np.arange(-int(_UMAX / h), int(_UMAX / h) + 1)
        if m > 0:
            js = js[js % 2 != 0]
        u = js * h
        v = 0.5 * math.pi * np.sinh(u)
        with np.errstate(over="ignore"):
            logx = np.where(
                v > 0,
                -np.log1p(np.exp(-2.0 * np.abs(v))),
                -2.0 * np.abs(v) - np.log1p(np.exp(-2.0 * np.abs(v))),
            )
        logw = math.log(0.25 * math.pi) + _logcosh(u) - 2.0 * _logcosh(v)
        keep = np.isfinite(logw) & (logx < 0.0)
        tables.append((logx[keep], logw[keep], h))
    return tables


_TABLES = _build_tables()


def _chebyshev_tables(n):
    """First-kind Chebyshev nodes on [-1, 1] and the inverse Vandermonde.

    ``inv @ values`` at the nodes gives the coefficients c_m of
    sum_m c_m T_m(u) interpolating the values (discrete orthogonality of
    T_m at these nodes makes the inverse explicit).
    """
    theta = math.pi * (np.arange(n) + 0.5) / n
    inv = (2.0 / n) * np.cos(np.outer(np.arange(n), theta))
    inv[0] *= 0.5
    return np.cos(theta), inv


_CHEB_NODES, _CHEB_INV = _chebyshev_tables(_PANEL_NODES)


def _check_cutoff(s: float, zs) -> None:
    """Raise :class:`NumericalError` unless, at every z, the cutoff
    T = max(0, -z) + _TAIL_PAD lies past the peak t* of the integrand
    t^{s-1} e^{-t^2/2 - z t} (s > 1) and the integrand at T is at most
    _REL_TOL times its value at t*.

    Both are needed: at large s the peak moves beyond T, where the drop
    alone says nothing.  Widening T is no cure either: at s = 1000 the
    level doubling then converges to a log that is 477 off.
    """
    # t* = max(0, -z) + e with e = 2(s-1)/(sqrt(z^2 + 4(s-1)) + |z|), the
    # root of t^2 + z t - (s-1) written without cancellation; a = 2 sqrt(s-1)
    # keeps the square inside float64 for any finite s
    a = 2.0 * math.sqrt(s - 1.0)
    e = 0.5 * a * (a / (np.hypot(zs, a) + np.abs(zs)))
    bad = e > _TAIL_PAD
    t_peak = np.maximum(0.0, -zs) + e
    if not bad.any():
        # log f(T) - log f(t*) with d = T - t* = _TAIL_PAD - e >= 0
        d = _TAIL_PAD - e
        drop = ((s - 1.0) * np.log1p(d / t_peak)
                - 0.5 * d * (_TAIL_PAD + e + 2.0 * np.maximum(zs, 0.0)))
        bad = drop > math.log(_REL_TOL)
    if bad.any():
        i = int(np.argmax(bad))
        raise NumericalError(
            f"I_s(z) with s={s}, z={zs[i]}: the cutoff T={max(0.0, -zs[i]) + _TAIL_PAD:.6g} "
            f"truncates the integrand, whose peak lies at t*={t_peak[i]:.6g}")


def log_weighted_integral(s: float, z, max_level: int = _MAX_LEVEL):
    """log of I_s(z) = int_0^inf t^{s-1} e^{-t^2/2 - z t} dt, s > 0.

    ``z`` is a float or a 1-d array.  Doubles the tanh-sinh level until two
    successive estimates agree to 1e-12 (difference of logs); the
    nodes of an array share each level's pass, and each keeps the estimate
    of the level at which it converged, so an array gives exactly the
    values of one call per node.  Returns (log_value, achieved, level),
    with the worst ``achieved`` and ``level`` over the nodes of an array.
    Raises :class:`NumericalError` if the doubling budget is exhausted at
    any node, if a z is not finite or beyond 1e150 in magnitude, where
    the integrand's exponent overflows float64, or if the cutoff would
    truncate the integrand (large s, see :func:`_check_cutoff`).
    """
    if s <= 0.0:
        raise DomainError(f"integral order s={s} must be positive")
    if s < 0.05:
        # below this the t^{s-1} mass hiding beyond the smallest float64
        # node (log t ~ -774) exceeds the target tolerance
        raise NumericalError(
            f"order s={s} too singular for the node range", achieved=math.exp(-700.0 * s))
    zs = np.atleast_1d(np.asarray(z, dtype=float))
    z_far = zs[np.argmax(np.abs(zs))]  # the first NaN, if any
    if not abs(z_far) <= _Z_MAX:
        raise NumericalError(f"I_s(z) with s={s} requested at z={z_far}, "
                             f"outside the float64 range |z| <= {_Z_MAX:g}")
    if s > 1.0:
        _check_cutoff(s, zs)
    log_t_max = np.log(np.maximum(0.0, -zs) + _TAIL_PAD)
    est = np.empty_like(zs)
    achieved = np.full_like(zs, math.inf)
    level = np.zeros(zs.shape, dtype=int)
    # rows still doubling: their index, z, log T and running log-sum-exp
    live = np.arange(zs.size)
    z_col = zs[:, None]
    run_max = np.full(zs.shape, -math.inf)
    run_sum = np.zeros(zs.shape)
    prev = None
    for m, (logx, logw, h) in enumerate(_TABLES[:max_level + 1]):
        logt = log_t_max[:, None] + logx
        t = np.exp(logt)
        expo = logw + (s - 1.0) * logt - 0.5 * t * t - z_col * t
        emax = expo.max(axis=1)
        grow = emax > run_max
        run_sum = np.where(grow, run_sum * np.exp(np.minimum(run_max - emax, 0.0)), run_sum)
        run_max = np.where(grow, emax, run_max)
        run_sum = run_sum + np.exp(expo - run_max[:, None]).sum(axis=1)
        cur = math.log(h) + log_t_max + run_max + np.log(run_sum)
        if prev is not None:
            gap = np.abs(cur - prev)
            achieved[live] = gap
            done = gap <= _REL_TOL
            est[live[done]] = cur[done]
            level[live[done]] = m
            if done.all():
                if np.ndim(z) == 0:
                    return float(est[0]), float(achieved[0]), int(level[0])
                return est, float(achieved.max()), int(level.max())
            keep = ~done
            live, z_col, log_t_max = live[keep], z_col[keep], log_t_max[keep]
            run_max, run_sum, cur = run_max[keep], run_sum[keep], cur[keep]
        prev = cur
    worst = live[np.argmax(achieved[live])]
    raise NumericalError(
        f"quadrature for I_s(z) with s={s}, z={zs[worst]} did not converge "
        f"within {max_level} level doublings", achieved=float(achieved[worst]))


def _coefficients(values) -> tuple:
    """Chebyshev coefficients of a panel's node values, highest first and in
    pairs, ((c_19, c_18), ..., (c_1, c_0)): the form the Clenshaw passes walk."""
    c = (_CHEB_INV @ values)[::-1].tolist()
    return tuple(zip(c[::2], c[1::2]))


def _cell_pair(s0: float, cells: dict, j: int) -> tuple:
    """Chebyshev coefficients of log I_{s0} and of log I_{s0+1} - log I_{s0}
    on [jW, (j+1)W], stored in ``cells`` (the table of s0) under j."""
    nodes = _PANEL_WIDTH * (j + 0.5 * (1.0 + _CHEB_NODES))
    values = log_weighted_integral(s0, nodes)[0]
    ratio = log_weighted_integral(s0 + 1, nodes)[0] - values
    pair = cells[j] = (_coefficients(values), _coefficients(ratio))
    return pair


# psi and psi_ratios each find z's cell j and position u in [-1, 1] inline
# (they run once per boundary-ODE evaluation), then run the Clenshaw
# recurrence b_k = 2u b_{k+1} - b_{k+2} + c_k two coefficients per turn, b1
# and b2 trading roles instead of repacking a tuple.  It ends with b1 = b_0
# and b2 = b_1, so the full-weight c_0 term gives b_0 - u b_1.

def _ratio_pass(mu: float, scale: float, drift_rate: float, rec0: float, rec1: float,
                s0: float, cells: dict):
    """``psi_ratios`` of one instance: a closure over its constants and its
    s0 table, never over the instance itself, so an instance that holds it
    is not a reference cycle."""
    get, floor, exp, isfinite = cells.get, math.floor, math.exp, math.isfinite

    def psi_ratios(x: float) -> tuple:
        """(psi'/psi, psi''/psi, psi'''/psi) at x, formed without psi itself:
        finite wherever the quadrature converges, also where psi overflows.

        One Clenshaw pass over the ratio panel of z's cell gives
        g = log I_{s0+1}(z) - log I_{s0}(z), and psi'/psi = (sqrt(2 kappa)/
        sigma) exp(g); two steps of the generator recurrence
        psi^(k+2) = -(2 kappa/sigma^2)(mu - x) psi^(k+1)
        + (2 (rho + k kappa)/sigma^2) psi^(k), divided by psi, give the
        other two.  Raises :class:`NumericalError` at a non-finite z or
        when a ratio comes out non-positive.
        """
        z = (mu - x) * scale
        if not isfinite(z):
            raise NumericalError(f"psi'/psi requested at non-finite z={z} (x={x})")
        zw = z / _PANEL_WIDTH
        j = floor(zw)
        u = 2.0 * (zw - j) - 1.0
        two_u = 2.0 * u
        b1 = b2 = 0.0
        for c_odd, c_even in (get(j) or _cell_pair(s0, cells, j))[1]:
            b2 = two_u * b1 - b2 + c_odd
            b1 = two_u * b2 - b1 + c_even
        r1 = scale * exp(b1 - u * b2)
        drift = drift_rate * (mu - x)
        r2 = drift * r1 + rec0
        if not r2 > 0.0:
            raise NumericalError(f"derivative recurrence lost positivity at k=2, x={x}")
        r3 = drift * r2 + rec1 * r1
        if not r3 > 0.0:
            raise NumericalError(f"derivative recurrence lost positivity at k=3, x={x}")
        return r1, r2, r3

    return psi_ratios


def _exp(log_value: float, name: str, x: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise NumericalError(
            f"{name}({x}) overflows float64: log {name} = {log_value:.6g}") from None


class FundamentalSolution:
    """Evaluator for psi, its first three derivatives and psi^(k)/psi.

    The solve reads psi in two ways, psi itself and psi^(k)/psi, and both
    come from one panel pair per unit cell [j, j+1] in z: the Chebyshev
    coefficients of log I_{s0} and of g = log I_{s0+1} - log I_{s0}.  A
    cell's pair is built on first use from one quadrature call per order
    over its 20 nodes and kept in the module's table for s0 = rho/kappa,
    which every instance with that s0 shares, so a boundary solve, which
    stays inside a few cells, builds at most a few pairs, and none once
    another solve with the same s0 has visited its cells.  ``psi_ratios``,
    which runs once per boundary-ODE evaluation, is built per instance as
    a closure over the constants it reads and the s0 table; it keeps no
    reference to the instance.  ``log_psi_deriv`` calls the quadrature
    directly and builds no panel, so it checks the interpolant against the
    function it interpolates.  Pairs are only ever added, and a pair's
    coefficients depend on (s0, j) alone, so concurrent reads are safe: two
    threads that build the same pair store identical values.  Only binding
    an instance to its table, which may evict the least recently bound
    one, takes a lock.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self._s0 = s0 = params.rho / params.kappa
        self._scale = scale = math.sqrt(2.0 * params.kappa) / params.sigma
        # the generator equation differentiated k times and divided by psi:
        # r_{k+2} = drift (mu - x) r_{k+1} + rec_k r_k, r_k = psi^(k)/psi,
        # rec_k = 2 (rho + k kappa)/sigma^2
        try:
            two_over_s2 = 2.0 / params.sigma**2
        except (OverflowError, ZeroDivisionError):  # sigma^2 outside float64
            two_over_s2 = 2.0 / params.sigma / params.sigma  # 0 or inf
        drift = -two_over_s2 * params.kappa
        rec0 = two_over_s2 * params.rho
        rec1 = two_over_s2 * (params.rho + params.kappa)
        for name, value in (("rho/kappa", s0), ("sqrt(2 kappa)/sigma", scale),
                            ("2 kappa/sigma^2", -drift), ("2 rho/sigma^2", rec0),
                            ("2 (rho+kappa)/sigma^2", rec1)):
            if not (math.isfinite(value) and value > 0.0):
                raise NumericalError(f"derived constant {name} = {value!r} is zero or not "
                                     f"finite (kappa={params.kappa}, rho={params.rho}, "
                                     f"sigma={params.sigma})")
        self._log_scale = math.log(scale)
        self._lgamma_s0 = math.lgamma(s0)
        # j -> (coefficients of log I_{s0}, of log I_{s0+1} - log I_{s0}), the
        # table of this s0 shared across instances; an evicted table stays
        # bound to the instances that hold it
        with _PANEL_LOCK:
            self._cells = _PANEL_TABLES[s0] = _PANEL_TABLES.pop(s0, {})
            if len(_PANEL_TABLES) > _PANEL_TABLE_CAP:
                del _PANEL_TABLES[next(iter(_PANEL_TABLES))]
        self.psi_ratios = _ratio_pass(params.mu, scale, drift, rec0, rec1,
                                      s0, self._cells)

    def psi(self, x: float) -> float:
        """Strictly increasing positive solution of the generator equation."""
        z = (self.params.mu - x) * self._scale
        if not math.isfinite(z):
            raise NumericalError(f"psi requested at non-finite z={z} (x={x})")
        zw = z / _PANEL_WIDTH
        j = math.floor(zw)
        u = 2.0 * (zw - j) - 1.0
        two_u = 2.0 * u
        b1 = b2 = 0.0
        for c_odd, c_even in (self._cells.get(j) or _cell_pair(self._s0, self._cells, j))[0]:
            b2 = two_u * b1 - b2 + c_odd
            b1 = two_u * b2 - b1 + c_even
        return _exp(b1 - u * b2 - self._lgamma_s0, "psi", x)

    def psi_derivs(self, x: float, k_max: int) -> np.ndarray:
        """psi^(0..k_max)(x), k_max <= 3: psi times (1, *psi_ratios(x))."""
        if not 0 <= k_max <= 3:
            raise DomainError(f"derivative order k_max={k_max} must lie in [0, 3]")
        ratios = (1.0, *self.psi_ratios(x))
        psi = self.psi(x)
        out = [psi * r for r in ratios[:k_max + 1]]
        if math.inf in out:
            k = out.index(math.inf)
            raise NumericalError(
                f"psi^({k})({x}) overflows float64: "
                f"log psi^({k}) = {math.log(psi) + math.log(ratios[k]):.6g}")
        return np.array(out)

    # perfbench/tracing.py patches this by name: it stays until ROADMAP item 5
    def log_psi_deriv(self, k: int, x: float) -> float:
        """log psi^(k)(x) from one quadrature call on the differentiated
        integral; builds no panel."""
        z = (self.params.mu - x) * self._scale
        return k * self._log_scale + log_weighted_integral(self._s0 + k, z)[0] - self._lgamma_s0
