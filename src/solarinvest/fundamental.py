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
call the quadrature per lookup: it interpolates on quarter-width panels
[j/4, (j+1)/4] in z through 10 first-kind Chebyshev nodes, which agree with
mpmath to 1e-13 for every admitted order s0 >= 0.05.  Each panel is stored
in the power basis of the cell coordinate u in [-1, 1] and read by one
straight-line Horner expression (on so short a cell the Chebyshev
coefficients decay fast, so the change of basis is well conditioned).
``log_weighted_integral`` takes an array of z and runs the level doubling
on all of them at once, so one panel is one vectorised quadrature call.

The solve reads psi itself and the ratios psi^(k)/psi, and
psi'/psi = (sqrt(2 kappa)/sigma) I_{s0+1}/I_{s0}.  Each cell therefore
holds one panel pair, both built from the same two quadrature calls:
log I_{s0}, kept as a log so that ``psi`` can name the log it cannot
exponentiate, and the ratio I_{s0+1}/I_{s0} itself, the exp of
log I_{s0+1} - log I_{s0} at the nodes, which is analytic like that log and
lies far inside float64 (about -z for z << 0, s0/z for z >> 0).  One read
of a point's cell gives log psi, psi'/psi with no exp, and psi''/psi by one
step of the generator recurrence.  ``log_psi_ratios`` returns all three and
refuses a non-positive psi''/psi; the ratios stay finite where psi
overflows float64.  ``psi`` is the exp of the first and does not check
psi''/psi, which far below the mean is a difference of nearly equal terms
that rounds to either sign.  The anchor root and the value layer read psi
up to its second derivative, one cell read per point.
The boundary ODE's right-hand side, run 4n + 1 times per n-step solve,
also reads psi'''/psi.  It is evaluated in the solve's one frame, the
closure ``FundamentalSolution.rk4_solver`` builds: the ratio read, its
recurrence and raises, one more recurrence step for psi'''/psi, then the
N/D arithmetic and the solve's checks inline.  So only this module knows
the panel layout.
A cell's pair depends on s0 and the cell index j alone (z absorbs mu,
sigma and the kappa scale), so the pairs live in one process-wide
``functools.lru_cache`` keyed by (s0, j), ``_cell``, which holds the
``_CELL_CAP`` most recently read cells: a sensitivity sweep over sigma, mu,
beta, c or y_bar, or any process that solves repeatedly, builds each pair
once.  ``log_psi_deriv``
is one quadrature call with no panel; the other reference routes the tests
compare against (phi, psi'''/psi and higher orders by the recurrence,
direct derivatives of any order, Q_k and Psi_k, D_a itself) are plain
functions in ``tests/oracles.py``.

Every derivative of psi is again positive, increasing and convex, and the
determinant combinations

    Q_k = psi^(k) psi^(k+2) - (psi^(k+1))^2 > 0

are strictly positive with strictly increasing ratio
Psi_k = (psi^(k+1))^2 / (psi^(k) psi^(k+2)).
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError, IntegrationError, NumericalError
from .model import ModelParams, check_real

_LOG2 = math.log(2.0)
_REL_TOL = 1e-12     # agreement of successive levels' logs that ends doubling
_UMAX = 6.2          # tanh-sinh transform truncation; covers s >= 0.05
_MAX_LEVEL = 9       # level m has step 0.5 / 2^m
_TAIL_PAD = 13.0     # upper cutoff T = max(0, -z) + pad; _check_cutoff refuses the
                     # (s, z) whose integrand T truncates
_PANEL_WIDTH = 0.25  # z-width of one Chebyshev panel pair
_PANEL_NODES = 10    # nodes per panel, and the coefficients the Horner reads unpack;
                     # the ratio panel's worst error is 9.2e-14 (s0 = 0.05, z = -2.5),
                     # 9 nodes leave 1.9e-12, and 8 on eighth-width cells 1.7e-13
_Z_MAX = 1e150       # beyond this |z|, t^2/2 at t ~ |z| nears the float64 limit
_SINGULAR_RATIO = 1e-12  # |D| below this times |N| counts as hitting D = 0 in a solve
_CELL_CAP = 1024     # (s0, j) cells kept, 0.9 kB each; distinct cells: 152 per sweep cycle,
                     # 24 per query run, 7 / 130 / 325 per 2000-step fuzz set (median/p90/max)


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


def _power_from_chebyshev(n):
    """The n x n matrix taking Chebyshev coefficients c_0..c_{n-1} to the
    power-basis coefficients of sum_m c_m T_m(u), highest power first,
    built from T_{m+1} = 2u T_m - T_{m-1}."""
    t = np.zeros((n, n))  # row m: coefficients of T_m, lowest power first
    t[0, 0] = t[1, 1] = 1.0
    for m in range(1, n - 1):
        t[m + 1, 1:] = 2.0 * t[m, :-1]
        t[m + 1] -= t[m - 1]
    return t.T[::-1].copy()


_CHEB_NODES, _CHEB_INV = _chebyshev_tables(_PANEL_NODES)
_POWER_FROM_CHEB = _power_from_chebyshev(_PANEL_NODES)


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


def log_weighted_integral(s: float, z):
    """log of I_s(z) = int_0^inf t^{s-1} e^{-t^2/2 - z t} dt, s > 0.

    ``z`` is a float or a 1-d array.  Doubles the tanh-sinh level until two
    successive estimates agree to 1e-12 (difference of logs); the
    nodes of an array share each level's pass, and each keeps the estimate
    of the level at which it converged, so an array gives exactly the
    values of one call per node.  Returns (log_value, achieved, level),
    with the worst ``achieved`` and ``level`` over the nodes of an array.
    Raises :class:`NumericalError` if the doubling budget, ``_MAX_LEVEL``
    as it reads at the call, is exhausted at any node, if a z is not
    finite or beyond 1e150 in magnitude, where the integrand's exponent
    overflows float64, or if the cutoff would truncate the integrand
    (large s, see :func:`_check_cutoff`).
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
    for m, (logx, logw, h) in enumerate(_TABLES[:_MAX_LEVEL + 1]):
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
        f"within {_MAX_LEVEL} level doublings", achieved=float(achieved[worst]))


def _coefficients(values) -> tuple:
    """Power-basis coefficients in u of the interpolant through a panel's
    node values, highest first: the flat tuple the Horner reads unpack.

    The values go to Chebyshev coefficients first and through the fixed
    change of basis second: within 7e-16 of a Clenshaw pass over the
    Chebyshev series, where one folded node-to-power matrix misses by up
    to 5e-12 at the panel edges."""
    return tuple((_POWER_FROM_CHEB @ (_CHEB_INV @ values)).tolist())


@functools.lru_cache(maxsize=_CELL_CAP)
def _cell(s0: float, j: int) -> tuple:
    """Panel coefficients of log I_{s0} and of I_{s0+1}/I_{s0} on
    [jW, (j+1)W], built once per process while cached.  It calls
    ``log_weighted_integral`` through the module global, which
    perfbench/tracing.py and the tests patch."""
    nodes = _PANEL_WIDTH * (j + 0.5 * (1.0 + _CHEB_NODES))
    values = log_weighted_integral(s0, nodes)[0]
    ratio = np.exp(log_weighted_integral(s0 + 1, nodes)[0] - values)
    return _coefficients(values), _coefficients(ratio)


# _read and the solve's RK4 closure are the two places that find z's cell j
# and position u in [-1, 1] (the closure per boundary-ODE evaluation); floor
# refuses a NaN or an infinite cell coordinate, so it is also the finiteness
# check.  Each then unpacks the cell's _PANEL_NODES coefficients (the closure
# only when the cell changes) and evaluates one Horner expression per panel,
# two float operations per coefficient and no loop.  _read reads floor bound
# here, the closure the one bound when it is built.
_floor = math.floor


def checked_exp(log_value: float, name: str, x: float) -> float:
    """exp(log_value), refused with :class:`NumericalError` naming
    ``name``(x) where it overflows float64."""
    try:
        return math.exp(log_value)
    except OverflowError:
        raise NumericalError(
            f"{name}({x}) overflows float64: log {name} = {log_value:.6g}") from None


class FundamentalSolution:
    """Evaluator for psi, log psi and the ratios psi'/psi, psi''/psi.

    All of them come from one panel pair per quarter-width cell
    [j/4, (j+1)/4] in z: the power-basis coefficients, in the cell
    coordinate, of log I_{s0} and of the ratio I_{s0+1}/I_{s0}, each read
    by one Horner expression, and one ``_read`` of a point reads both.  A
    cell's pair is built on first use from one quadrature call per order
    over its 10 nodes and kept in the module's cache under (s0, j), with
    s0 = rho/kappa, so a boundary solve, which stays inside a few cells,
    builds at most a few pairs, and none once another solve with the same
    s0 has visited its cells.  An instance holds no pairs.  ``rk4_solver``
    builds the one-frame RK4 closure of the solve for ``params`` over the
    instance's constants and the ODE constants, and keeps no reference to
    the instance.  ``log_psi_deriv`` calls the quadrature directly and
    builds no panel, so it checks the interpolant against the function it
    interpolates.  The cache is thread-safe, and a pair's coefficients
    depend on (s0, j) alone, so concurrent reads are safe: two threads that
    build the same pair at once build identical values.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self._mu = params.mu
        self._s0 = s0 = params.rho / params.kappa
        self._scale = scale = math.sqrt(2.0 * params.kappa) / params.sigma
        # the generator equation differentiated k times and divided by psi:
        # r_{k+2} = drift (mu - x) r_{k+1} + rec_k r_k, r_k = psi^(k)/psi,
        # rec_k = 2 (rho + k kappa)/sigma^2
        try:
            two_over_s2 = 2.0 / params.sigma**2
        except (OverflowError, ZeroDivisionError):  # sigma^2 outside float64
            two_over_s2 = 2.0 / params.sigma / params.sigma  # 0 or inf
        self._drift_rate = drift = -two_over_s2 * params.kappa
        self._rec0 = rec0 = two_over_s2 * params.rho
        self._rec1 = rec1 = two_over_s2 * (params.rho + params.kappa)
        for name, value in (("rho/kappa", s0), ("sqrt(2 kappa)/sigma", scale),
                            ("2 kappa/sigma^2", -drift), ("2 rho/sigma^2", rec0),
                            ("2 (rho+kappa)/sigma^2", rec1)):
            if not (math.isfinite(value) and value > 0.0):
                raise NumericalError(f"derived constant {name} = {value!r} is zero or not "
                                     f"finite (kappa={params.kappa}, rho={params.rho}, "
                                     f"sigma={params.sigma})")
        self._log_scale = math.log(scale)
        self._cell_scale = scale / _PANEL_WIDTH
        self._lgamma_s0 = math.lgamma(s0)

    def _read(self, x: float) -> tuple:
        """(log psi, psi'/psi, psi''/psi) at x from one read of z's cell:
        one Horner expression per panel, psi'/psi = (sqrt(2 kappa)/sigma)
        I_{s0+1}/I_{s0}, and one step of the generator recurrence divided
        by psi, psi''/psi = drift (mu - x) psi'/psi + rec_0, whose sign is
        not checked.  Raises :class:`DomainError` for an x that
        ``model.check_real`` refuses, and :class:`NumericalError` at a z
        whose cell lies outside the float64 range (NaN and +-inf included)."""
        d = self._mu - check_real("x", x, DomainError)
        zw = d * self._cell_scale
        try:
            j = _floor(zw)
        except (ValueError, OverflowError):
            raise NumericalError(f"psi'/psi requested at x={x}, whose cell in z lies "
                                 f"outside the float64 range") from None
        u = 2.0 * (zw - j) - 1.0
        log_panel, ratio_panel = _cell(self._s0, j)
        c9, c8, c7, c6, c5, c4, c3, c2, c1, c0 = log_panel
        log_psi = c0 + u * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * (c6 + u * (
            c7 + u * (c8 + u * c9))))))))
        c9, c8, c7, c6, c5, c4, c3, c2, c1, c0 = ratio_panel
        r1 = self._scale * (c0 + u * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * (
            c6 + u * (c7 + u * (c8 + u * c9)))))))))
        return log_psi - self._lgamma_s0, r1, self._drift_rate * d * r1 + self._rec0

    def psi(self, x: float) -> float:
        """Strictly increasing positive solution of the generator equation."""
        return checked_exp(self._read(x)[0], "psi", x)

    def log_psi_ratios(self, x: float) -> tuple:
        """(log psi, psi'/psi, psi''/psi) at x from one cell read; the
        ratios are finite wherever the quadrature converges, also where
        psi overflows.  Raises :class:`NumericalError` where ``psi`` does
        and where psi''/psi comes out non-positive."""
        read = self._read(x)
        if not read[2] > 0.0:
            raise NumericalError(f"derivative recurrence lost positivity at k=2, x={x}")
        return read

    def rk4_solver(self):
        """The boundary solve for this instance's ``params``: a closure over
        its constants and the ODE constants, which reads ``_cell``.
        Each evaluation is the ratio half of ``log_psi_ratios``, raises and
        messages included, the next recurrence step psi'''/psi = drift
        (mu - x) psi''/psi + rec_1 psi'/psi, refused unless positive, and
        the N/D arithmetic of ``boundary``, each expression as there, so it
        rounds exactly as they do.  A cell's coefficients are unpacked only
        when the cell changes: a pair depends on (s0, j) alone."""
        # the parenthesised subexpressions of Rtilde, N and D, each formed
        # once as the formulas in ``boundary`` evaluate it
        p = self.params
        c, rho, beta, mu_kappa = p.c, p.rho, p.beta, p.mu * p.kappa
        beta_rk2 = p.beta * (p.rho + 2.0 * p.kappa)
        rho_rk, rk = p.rho * (p.rho + p.kappa), p.rho + p.kappa
        rk2_over_rho = (p.rho + 2.0 * p.kappa) / p.rho
        mu, scale, drift_rate, rec0, rec1 = (self._mu, self._scale, self._drift_rate,
                                             self._rec0, self._rec1)
        s0, cell_scale, floor = self._s0, self._cell_scale, math.floor
        slope_floor = beta * (1.0 - 1e-9)

        def rk4(ys: list, zs: list, ks: list, h: float):
            """Fill ``zs[:-1]`` by RK4 steps of ``h`` backward from (ys[-1],
            zs[-1]), and ``ks`` with the slope beta N/D at every node; a
            one-node grid is one evaluation.  Stages 0 to 3 evaluate k1 to
            k4; stage 4 checks D > 0 at the new node, and its pair is that
            node's slope and the next step's k1.  Raises as
            ``integrate_boundary``."""
            i = len(ys) - 1
            y, z = y_e, z_e = ys[i], zs[i]
            half_h, sixth_h = 0.5 * h, h / 6.0
            stage, jc = 0, None
            while True:
                d = mu - z_e
                zw = d * cell_scale
                try:
                    j = floor(zw)
                except (ValueError, OverflowError):
                    raise NumericalError(f"psi'/psi requested at x={z_e}, whose cell in z "
                                         f"lies outside the float64 range") from None
                if j != jc:
                    c9, c8, c7, c6, c5, c4, c3, c2, c1, c0 = _cell(s0, j)[1]
                    jc = j
                u = 2.0 * (zw - j) - 1.0
                r1 = scale * (c0 + u * (c1 + u * (c2 + u * (c3 + u * (c4 + u * (c5 + u * (
                    c6 + u * (c7 + u * (c8 + u * c9)))))))))
                drift = drift_rate * d
                r2 = drift * r1 + rec0
                if not r2 > 0.0:
                    raise NumericalError(f"derivative recurrence lost positivity at k=2, x={z_e}")
                r3 = drift * r2 + rec1 * r1
                if not r3 > 0.0:
                    raise NumericalError(f"derivative recurrence lost positivity at k=3, x={z_e}")
                q0 = r2 - r1 * r1
                crt = rk * (c - (mu_kappa + rho * z_e - beta_rk2 * y_e) / rho_rk)
                n_val = q0 * (rk2_over_rho * r1 + crt * r2 + r1)
                d_val = crt * (r1 * r3 - r2 * r2) + (r3 - r1 * r2)
                if stage == 4:
                    if d_val <= 0.0:
                        raise IntegrationError(f"D <= 0 ({d_val:.3e}) at y = {y_e:.6g}")
                    i -= 1
                    zs[i] = z = z_e
                    y = y_e
                    stage = 0
                if abs(d_val) < _SINGULAR_RATIO * abs(n_val):
                    raise IntegrationError(f"boundary ODE singular: D/psi^3({y_e}, {z_e}) = "
                                           f"{d_val:.3e} with N/psi^3 = {n_val:.3e}")
                k = beta * n_val / d_val
                if stage == 0:
                    ks[i] = k
                    if not i:
                        return
                    k1, y_e, z_e = k, y - half_h, z - half_h * k
                elif stage == 1:
                    k2, z_e = k, z - half_h * k
                elif stage == 2:
                    k3, y_e, z_e = k, y - h, z - h * k
                else:
                    y_e, z_e = ys[i - 1], z - sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k)
                    slope = (z - z_e) / h
                    if slope < slope_floor:
                        raise IntegrationError(
                            f"Ftilde' = {slope:.6e} fell below beta = {beta} at y = {y_e:.6g}")
                stage += 1

        return rk4

    # perfbench/tracing.py patches this by name: it stays until ROADMAP item 5
    def log_psi_deriv(self, k: int, x: float) -> float:
        """log psi^(k)(x) from one quadrature call on the differentiated
        integral; builds no panel."""
        z = (self.params.mu - x) * self._scale
        return k * self._log_scale + log_weighted_integral(self._s0 + k, z)[0] - self._lgamma_s0
