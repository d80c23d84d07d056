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
call the quadrature per lookup: it interpolates ``log I_s`` on unit panels
[j, j+1] in z by a Chebyshev polynomial through 20 first-kind nodes, and
reproduces the quadrature to rounding.  ``log_weighted_integral`` takes an
array of z and runs the level doubling on all of them at once, so one panel
is one vectorised quadrature call.

The boundary ODE and the value function's coefficient need the
derivatives only relative to psi, and psi'/psi = (sqrt(2 kappa)/sigma)
exp(log I_{s0+1} - log I_{s0}).  Chebyshev interpolation is linear, so the
difference g = log I_{s0+1} - log I_{s0} has its own panel (a *ratio
panel*), built from the same two quadrature calls as the s0 panel of the
cell.  ``psi_ratios`` forms psi^(k)/psi from one Clenshaw pass over g, one
exp and the generator recurrence, and stays finite where psi itself
overflows float64; ``psi_over_dpsi`` reads the same pass, and
``psi_derivs`` takes psi and psi'/psi from one pass over the (log I_{s0},
g) pair.  No psi^(k)/psi comes from another route.

Every derivative of psi is again positive, increasing and convex, and the
determinant combinations

    Q_k = psi^(k) psi^(k+2) - (psi^(k+1))^2 > 0

are strictly positive with strictly increasing ratio
Psi_k = (psi^(k+1))^2 / (psi^(k) psi^(k+2)).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError
from .model import ModelParams

_LOG2 = math.log(2.0)
_REL_TOL = 1e-12     # agreement of successive levels' logs that ends doubling
_UMAX = 6.2          # tanh-sinh transform truncation; covers s >= 0.05
_MAX_LEVEL = 9       # level m has step 0.5 / 2^m
_TAIL_PAD = 13.0     # upper cutoff T = max(0, -z) + pad; tail < 1e-16 relative
_PANEL_WIDTH = 1.0   # z-width of one Chebyshev panel of log I_s
_PANEL_NODES = 20    # nodes per panel; 16 leaves errors near 3e-14
_Z_MAX = 1e150       # beyond this |z|, t^2/2 at t ~ |z| nears the float64 limit


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


def log_weighted_integral(s: float, z, max_level: int = _MAX_LEVEL):
    """log of I_s(z) = int_0^inf t^{s-1} e^{-t^2/2 - z t} dt, s > 0.

    ``z`` is a float or a 1-d array.  Doubles the tanh-sinh level until two
    successive estimates agree to 1e-12 (difference of logs); the
    nodes of an array share each level's pass, and each keeps the estimate
    of the level at which it converged, so an array gives exactly the
    values of one call per node.  Returns (log_value, achieved, level),
    with the worst ``achieved`` and ``level`` over the nodes of an array.
    Raises :class:`NumericalError` if the doubling budget is exhausted at
    any node, or if a z is not finite or beyond 1e150 in magnitude, where
    the integrand's exponent overflows float64.
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


def cylinder_d(alpha: float, x: float) -> float:
    """Cylinder function D_alpha(x), alpha < 0, by deterministic quadrature."""
    if alpha >= 0.0:
        raise DomainError(f"cylinder_d requires alpha < 0, got {alpha}")
    log_i, _, _ = log_weighted_integral(-alpha, x)
    return math.exp(-0.25 * x * x + log_i - math.lgamma(-alpha))


def _coefficients(values) -> tuple:
    """Chebyshev coefficients of a panel's node values, highest first."""
    return tuple((_CHEB_INV @ values)[::-1].tolist())


def _exp(log_value: float, name: str, x: float) -> float:
    try:
        return math.exp(log_value)
    except OverflowError:
        raise NumericalError(
            f"{name}({x}) overflows float64: log {name} = {log_value:.6g}") from None


class FundamentalSolution:
    """Evaluator for psi, phi, their derivatives of any order, and Q_k.

    Every value comes from ``log I_s(z)`` on Chebyshev panels: the panel of
    z (order s, unit cell [j, j+1]) is built on first use from one quadrature
    call over its 20 nodes and kept for the life of the instance, so a
    boundary solve, which stays inside a few cells, builds a few panels.
    A cell's log I_{s0} panel and its ratio panel are built together, from
    one quadrature call per order, so no cell runs the s0 quadrature twice.
    Panels are only ever added, and a panel's coefficients depend on
    (s, j) alone, so concurrent reads are safe:
    two threads that build the same panel store identical values.
    """

    def __init__(self, params: ModelParams):
        self.params = params
        self._s0 = params.rho / params.kappa
        self._scale = math.sqrt(2.0 * params.kappa) / params.sigma
        # the generator equation differentiated k times and divided by psi:
        # r_{k+2} = drift (mu - x) r_{k+1} + rec_k r_k, r_k = psi^(k)/psi,
        # rec_k = 2 (rho + k kappa)/sigma^2
        try:
            self._two_over_s2 = 2.0 / params.sigma**2
        except (OverflowError, ZeroDivisionError):  # sigma^2 outside float64
            self._two_over_s2 = 2.0 / params.sigma / params.sigma  # 0 or inf
        self._drift = -self._two_over_s2 * params.kappa
        self._rec0 = self._two_over_s2 * params.rho
        self._rec1 = self._two_over_s2 * (params.rho + params.kappa)
        for name, value in (("rho/kappa", self._s0), ("sqrt(2 kappa)/sigma", self._scale),
                            ("2 kappa/sigma^2", -self._drift), ("2 rho/sigma^2", self._rec0),
                            ("2 (rho+kappa)/sigma^2", self._rec1)):
            if not (math.isfinite(value) and value > 0.0):
                raise NumericalError(f"derived constant {name} = {value!r} is zero or not "
                                     f"finite (kappa={params.kappa}, rho={params.rho}, "
                                     f"sigma={params.sigma})")
        self._log_scale = math.log(self._scale)
        self._lgamma_s0 = math.lgamma(self._s0)
        self._panels = {}        # (s, j) -> coefficients of log I_s
        self._ratio_panels = {}  # j -> coefficients of log I_{s0+1} - log I_{s0}

    # -- raw integrals ------------------------------------------------------

    def _panel(self, s: float, j: int) -> tuple:
        """Chebyshev coefficients of log I_s on [jW, (j+1)W], highest first.
        The s0 panel is built with the cell's ratio panel."""
        nodes = _PANEL_WIDTH * (j + 0.5 * (1.0 + _CHEB_NODES))
        values = log_weighted_integral(s, nodes)[0]
        if s == self._s0:
            ratio = log_weighted_integral(self._s0 + 1, nodes)[0] - values
            self._ratio_panels[j] = _coefficients(ratio)
        coeffs = self._panels[(s, j)] = _coefficients(values)
        return coeffs

    def _ratio_panel(self, j: int) -> tuple:
        """Chebyshev coefficients of log I_{s0+1} - log I_{s0} on cell j."""
        self._panel(self._s0, j)
        return self._ratio_panels[j]

    @staticmethod
    def _cell(s: float, z: float):
        """Panel index j holding z, and z's position u in [-1, 1] inside it."""
        if not math.isfinite(z):
            raise NumericalError(f"I_s(z) requested at non-finite z={z} (s={s})")
        j = math.floor(z / _PANEL_WIDTH)
        return j, 2.0 * (z / _PANEL_WIDTH - j) - 1.0

    # Clenshaw recurrence on u in [-1, 1]: each loop ends with b1 = b_0 and
    # b2 = b_1, and the full-weight c_0 term gives b_0 - u b_1

    def _log_i(self, s: float, z: float) -> float:
        j, u = self._cell(s, z)
        two_u = 2.0 * u
        b1 = b2 = 0.0
        for c in self._panels.get((s, j)) or self._panel(s, j):
            b1, b2 = two_u * b1 - b2 + c, b1
        return b1 - u * b2

    def _z(self, x: float) -> float:
        return (self.params.mu - x) * self._scale

    def log_psi_deriv(self, k: int, x: float) -> float:
        """log psi^(k)(x) from the differentiated integral representation."""
        return k * self._log_scale + self._log_i(self._s0 + k, self._z(x)) - self._lgamma_s0

    # -- fundamental solutions ---------------------------------------------

    def psi(self, x: float) -> float:
        """Strictly increasing positive solution of the generator equation."""
        return _exp(self.log_psi_deriv(0, x), "psi", x)

    def phi(self, x: float) -> float:
        """Strictly decreasing positive solution of the generator equation."""
        return _exp(self._log_i(self._s0, -self._z(x)) - self._lgamma_s0, "phi", x)

    def phi_deriv(self, k: int, x: float) -> float:
        """k-th derivative of phi; alternates sign, |phi^(k)| > 0."""
        if k < 0:
            raise DomainError(f"derivative order k={k} must be >= 0")
        mag = _exp(k * self._log_scale
                   + self._log_i(self._s0 + k, -self._z(x)) - self._lgamma_s0,
                   f"|phi^({k})|", x)
        return mag if k % 2 == 0 else -mag

    def psi_deriv_direct(self, k: int, x: float) -> float:
        """psi^(k) straight from the integral; independent of the recurrence."""
        if k < 0:
            raise DomainError(f"derivative order k={k} must be >= 0")
        return _exp(self.log_psi_deriv(k, x), f"psi^({k})", x)

    def psi_ratios(self, x: float) -> tuple:
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
        z = (self.params.mu - x) * self._scale
        if not math.isfinite(z):
            raise NumericalError(f"psi'/psi requested at non-finite z={z} (x={x})")
        j = math.floor(z / _PANEL_WIDTH)
        u = 2.0 * (z / _PANEL_WIDTH - j) - 1.0
        two_u = 2.0 * u
        b1 = b2 = 0.0
        for c in self._ratio_panels.get(j) or self._ratio_panel(j):
            b1, b2 = two_u * b1 - b2 + c, b1
        r1 = self._scale * math.exp(b1 - u * b2)
        drift = self._drift * (self.params.mu - x)
        r2 = drift * r1 + self._rec0
        if not r2 > 0.0:
            raise NumericalError(f"derivative recurrence lost positivity at k=2, x={x}")
        r3 = drift * r2 + self._rec1 * r1
        if not r3 > 0.0:
            raise NumericalError(f"derivative recurrence lost positivity at k=3, x={x}")
        return r1, r2, r3

    def psi_derivs(self, x: float, k_max: int) -> np.ndarray:
        """psi^(0..k_max)(x).  One Clenshaw pass over the cell's (log I_{s0},
        ratio) panel pair gives psi and, as in :meth:`psi_ratios`, psi'/psi;
        the generator recurrence, carried to order k_max, gives the higher
        ratios, and each ratio times psi is a derivative."""
        s0 = self._s0
        j, u = self._cell(s0, self._z(x))
        two_u = 2.0 * u
        a1 = a2 = b1 = b2 = 0.0
        for ca, cb in zip(self._panels.get((s0, j)) or self._panel(s0, j),
                          self._ratio_panels.get(j) or self._ratio_panel(j)):
            a1, a2 = two_u * a1 - a2 + ca, a1
            b1, b2 = two_u * b1 - b2 + cb, b1
        log_psi = a1 - u * a2 - self._lgamma_s0
        ratios = [1.0, self._scale * math.exp(b1 - u * b2)]
        p, two_over_s2 = self.params, self._two_over_s2
        drift = self._drift * (p.mu - x)
        for k in range(k_max - 1):
            nxt = drift * ratios[k + 1] + two_over_s2 * (p.rho + k * p.kappa) * ratios[k]
            if not nxt > 0.0:
                raise NumericalError(
                    f"derivative recurrence lost positivity at k={k + 2}, x={x}")
            ratios.append(nxt)
        psi = _exp(log_psi, "psi", x)
        out = [psi * r for r in ratios[:k_max + 1]]
        if math.inf in out:
            k = out.index(math.inf)
            raise NumericalError(
                f"psi^({k})({x}) overflows float64: "
                f"log psi^({k}) = {log_psi + math.log(ratios[k]):.6g}")
        return np.array(out)

    def psi_deriv(self, k: int, x: float) -> float:
        """k-th derivative of psi (k = 0 is psi itself); strictly positive."""
        if k < 0:
            raise DomainError(f"derivative order k={k} must be >= 0")
        return float(self.psi_derivs(x, k)[k])

    def psi_over_dpsi(self, x: float) -> float:
        """psi(x)/psi'(x), the inverse of the first ratio; bounded for any x."""
        return 1.0 / self.psi_ratios(x)[0]

    # -- determinant combinations -------------------------------------------

    def q(self, k: int, x: float) -> float:
        """Q_k(x) = psi^(k) psi^(k+2) - (psi^(k+1))^2 > 0."""
        if k < 0:
            raise DomainError(f"order k={k} must be >= 0")
        d = self.psi_derivs(x, k + 2)
        return float(d[k] * d[k + 2] - d[k + 1] ** 2)

    def ratio(self, k: int, x: float) -> float:
        """Psi_k(x) = (psi^(k+1))^2 / (psi^(k) psi^(k+2)); strictly increasing."""
        d = self.psi_derivs(x, k + 2)
        return float(d[k + 1] ** 2 / (d[k] * d[k + 2]))
