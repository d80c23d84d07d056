"""Free boundary of the installation problem.

The installation threshold ``F`` (price above which installing is optimal,
as a function of installed power) is found in shifted coordinates
Ftilde(y) = F(y) + beta*y.  The anchor xtilde = Ftilde(y_bar) is the unique
root of

    H(x) = psi'(x) (c - Rtilde(x, y_bar)) + psi(x)/(rho + kappa),

with Rtilde(x, y) = (mu*kappa + rho*x - beta*(rho + 2 kappa)*y)/(rho (rho+kappa)).
From the anchor, Ftilde solves the first-order ODE

    Ftilde'(y) = beta * N(y, Ftilde(y)) / D(y, Ftilde(y)),

    N(y, z) = Q0(z) [ (rho+2 kappa)/rho * psi'(z)
                      + (rho+kappa)(c - Rtilde(z, y)) psi''(z) + psi'(z) ],
    D(y, z) = psi(z) [ (rho+kappa)(c - Rtilde(z, y)) Q1(z) + Q0'(z) ],

integrated backward from y_bar to 0 with fixed-step classical RK4 (fixed
steps keep regression baselines bit-stable).  N and D are both cubic in the
psi-derivatives, so they are evaluated divided by psi(z)^3, from the ratios
psi^(k)/psi: the quotient and the signs are unchanged, and neither can
overflow where psi does.  Along the exact solution Ftilde' >= beta and
D > 0, so both are monitored per step; the (N, D) pair of the D check at
the new node is reused as the next step's k1, so a step evaluates (N, D)
four times.  F is recovered as F(y) = Ftilde(y) - beta*y; its inverse is
interpolated from the swapped grid, monotone piecewise-cubic throughout.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrationError, SolverError
from .fundamental import FundamentalSolution
from .interp import MonotoneCubic
from .model import ModelParams, check_capacity

MIN_STEPS = 100           # coarsest RK4 grid accepted for the boundary ODE
_SINGULAR_RATIO = 1e-12   # |D| below this times |N| counts as hitting D = 0
_MAX_EXPANSIONS = 50
_MAX_ROOT_ITER = 100


class Regime(enum.Enum):
    """Position of the line of means mu - beta*y relative to the install region."""

    NO_INTERSECTION = "NoIntersection"
    INTERSECTS_BOUNDARY = "IntersectsBoundary"
    INTERSECTS_UPPER_BOUND = "IntersectsUpperBound"


class Region(enum.Enum):
    """State-space classification: wait, lump to the boundary, lump to capacity."""

    W = "W"
    I1 = "I1"
    I2 = "I2"


def r_tilde(params: ModelParams, x: float, y: float) -> float:
    """Capacity partial of the no-installation payoff in shifted coordinates."""
    return ((params.mu * params.kappa + params.rho * x
             - params.beta * (params.rho + 2.0 * params.kappa) * y)
            / (params.rho * (params.rho + params.kappa)))


def h_func(params: ModelParams, fs: FundamentalSolution, x: float) -> float:
    """Anchor function H; its unique root is Ftilde(y_bar)."""
    return (fs.psi_deriv(1, x) * (params.c - r_tilde(params, x, params.y_bar))
            + fs.psi(x) / (params.rho + params.kappa))


def _h_scaled(params: ModelParams, x, psi_over_dpsi):
    # H / psi': same root and sign pattern (psi' > 0), but bounded for large
    # |x| where the literal H overflows; used for bracketing and root finding.
    return (params.c - r_tilde(params, x, params.y_bar)
            + psi_over_dpsi / (params.rho + params.kappa))


def solve_x_tilde(params: ModelParams, fs: FundamentalSolution,
                  xtol: float = 1e-13) -> float:
    """Unique root of H, located by geometric bracket expansion + Brent.

    The bracket ends are each visited once, so H/psi' there comes straight
    from the quadrature (both ends in one call per order); Brent's iterates
    cluster around the root and read the Chebyshev panels.
    """
    half_width = 5.0 * params.sigma / math.sqrt(2.0 * params.kappa)

    def ends(width):
        xs = np.array([params.mu - width, params.mu + width])
        h = _h_scaled(params, xs, fs.psi_over_dpsi_quad(xs))
        return (*xs.tolist(), *h.tolist())

    lo, hi, f_lo, f_hi = ends(half_width)
    for _ in range(_MAX_EXPANSIONS):
        if f_lo * f_hi < 0.0 or f_lo == 0.0 or f_hi == 0.0:
            break
        half_width *= 2.0
        lo, hi, f_lo, f_hi = ends(half_width)
    else:
        raise SolverError(
            f"no sign change of H after {_MAX_EXPANSIONS} bracket expansions: "
            f"H/psi'({lo}) = {f_lo:.6e}, H/psi'({hi}) = {f_hi:.6e}")
    f = lambda x: _h_scaled(params, x, fs.psi_over_dpsi(x))
    return _brent(f, lo, hi, f_lo, f_hi, xtol, 4.0 * np.finfo(float).eps)


def _brent(f, x_pre, x_cur, f_pre, f_cur, xtol, rtol):
    """Brent's root finder on a sign-changing bracket: inverse quadratic or
    secant steps, falling back to bisection whenever a step would not shrink
    the bracket fast enough (Brent 1973, as in SciPy's ``brentq``)."""
    if f_pre == 0.0:
        return float(x_pre)
    x_blk = f_blk = s_pre = s_cur = 0.0
    for _ in range(_MAX_ROOT_ITER):
        if f_pre != 0.0 and f_cur != 0.0 and (f_pre < 0.0) != (f_cur < 0.0):
            x_blk, f_blk = x_pre, f_pre
            s_pre = s_cur = x_cur - x_pre
        if abs(f_blk) < abs(f_cur):
            x_pre, x_cur, x_blk = x_cur, x_blk, x_cur
            f_pre, f_cur, f_blk = f_cur, f_blk, f_cur
        delta = 0.5 * (xtol + rtol * abs(x_cur))
        s_bis = 0.5 * (x_blk - x_cur)
        if f_cur == 0.0 or abs(s_bis) < delta:
            return float(x_cur)
        s_try = math.inf
        if abs(s_pre) > delta and abs(f_cur) < abs(f_pre):
            if x_pre == x_blk:
                s_try = -f_cur * (x_cur - x_pre) / (f_cur - f_pre)
            else:
                d_pre = (f_pre - f_cur) / (x_pre - x_cur)
                d_blk = (f_blk - f_cur) / (x_blk - x_cur)
                s_try = (-f_cur * (f_blk * d_blk - f_pre * d_pre)
                         / (d_blk * d_pre * (f_blk - f_pre)))
        if 2.0 * abs(s_try) < min(abs(s_pre), 3.0 * abs(s_bis) - delta):
            s_pre, s_cur = s_cur, s_try
        else:
            s_pre = s_cur = s_bis
        x_pre, f_pre = x_cur, f_cur
        x_cur += s_cur if abs(s_cur) > delta else math.copysign(delta, s_bis)
        f_cur = f(x_cur)
    raise SolverError(f"root of H not resolved to {xtol} in {_MAX_ROOT_ITER} iterations")


def _n_d(params: ModelParams, fs: FundamentalSolution, y: float, z: float):
    """(N/psi^3, D/psi^3) at (y, z), from the ratios r_k = psi^(k)/psi(z):
    same quotient and signs as (N, D), and neither can overflow."""
    r1, r2, r3 = fs.psi_ratios(z)
    q0 = r2 - r1 * r1
    q1 = r1 * r3 - r2 * r2
    q0_prime = r3 - r1 * r2
    crt = (params.rho + params.kappa) * (params.c - r_tilde(params, z, y))
    n_val = q0 * ((params.rho + 2.0 * params.kappa) / params.rho * r1 + crt * r2 + r1)
    d_val = crt * q1 + q0_prime
    return n_val, d_val


def _slope(params: ModelParams, y: float, z: float, n_val: float, d_val: float) -> float:
    if abs(d_val) < _SINGULAR_RATIO * abs(n_val):
        raise IntegrationError(
            f"boundary ODE singular: D/psi^3({y}, {z}) = {d_val:.3e} "
            f"with N/psi^3 = {n_val:.3e}")
    return params.beta * n_val / d_val


def ode_rhs(params: ModelParams, fs: FundamentalSolution, y: float, z: float) -> float:
    """Right-hand side beta*N/D of the boundary ODE in shifted coordinates."""
    return _slope(params, y, z, *_n_d(params, fs, y, z))


@dataclass(frozen=True)
class FreeBoundary:
    """Grid representation of the installation threshold on [0, y_bar].

    ``ys`` ascend from 0 to y_bar; ``f_tilde`` is the shifted boundary,
    ``f_grid`` the boundary itself.  Queries interpolate monotone cubics.
    Immutable once built; safe for concurrent reads.
    """

    params: ModelParams
    ys: np.ndarray
    f_tilde: np.ndarray
    x_tilde: float
    x0: float
    x_bar: float
    f_grid: np.ndarray = field(repr=False)
    _f_itp: MonotoneCubic = field(repr=False)
    _finv_itp: MonotoneCubic = field(repr=False)

    def f(self, y: float) -> float:
        """Boundary price F(y); installing is optimal once x >= F(y)."""
        return float(self._f_itp(check_capacity(self.params, y)))

    def f_tilde_at(self, y: float) -> float:
        """Shifted boundary Ftilde(y) = F(y) + beta*y."""
        return self.f(y) + self.params.beta * y

    def f_values(self, y_arr) -> np.ndarray:
        """Vectorized boundary evaluation (clipped to the capacity range)."""
        return np.asarray(self._f_itp(np.clip(y_arr, 0.0, self.params.y_bar)))

    def f_inverse(self, x: float) -> float:
        """Capacity level at which price x sits exactly on the boundary."""
        eps = 1e-9 * (1.0 + abs(self.x_bar))
        if not self.x0 - eps <= x <= self.x_bar + eps:
            raise DomainError(
                f"f_inverse({x}) outside boundary range [{self.x0}, {self.x_bar}]")
        return float(self._finv_itp(min(max(x, self.x0), self.x_bar)))

    def f_bar_inverse(self, x) -> float | np.ndarray:
        """Inverse clamped to [0, y_bar]: 0 below x0, y_bar above x_bar."""
        clamped = np.clip(x, self.x0, self.x_bar)
        out = np.clip(self._finv_itp(clamped), 0.0, self.params.y_bar)
        return float(out) if np.isscalar(x) else out

    def region(self, x: float, y: float) -> Region:
        """Three-way state classification; at y = y_bar only waiting applies."""
        check_capacity(self.params, y)
        if y >= self.params.y_bar * (1.0 - 1e-15):
            return Region.W
        if x >= self.x_bar:
            return Region.I2
        if x >= self.f(y):
            return Region.I1
        return Region.W

    def lump_target(self, x: float, y: float) -> float:
        """Capacity right after the optimal installation at (x, y): y_bar
        from x_bar up, max(Finv(x), y) in I1 (the interpolated inverse may
        dip below y just above F(y)), y otherwise."""
        region = self.region(x, y)  # also rejects y outside [0, y_bar]
        if x >= self.x_bar:
            return self.params.y_bar
        if region is Region.I1:
            return max(self.f_inverse(x), y)
        return y


def integrate_boundary(params: ModelParams, fs: FundamentalSolution,
                       n_steps: int = 2000) -> FreeBoundary:
    """Solve the boundary ODE backward from (y_bar, xtilde) with RK4.

    Each accepted step checks the difference quotient against Ftilde' >= beta
    and D > 0 at the new point; a violation indicates a tolerance or
    special-function failure (the exact solution satisfies both) and raises
    :class:`IntegrationError` naming the offending y.  The (N, D) pair of
    that D check is the next step's k1, so a step costs four evaluations.
    """
    if n_steps < MIN_STEPS:
        raise DomainError(f"n_steps={n_steps} too coarse; need >= {MIN_STEPS}")
    x_tilde = solve_x_tilde(params, fs)
    h = params.y_bar / n_steps
    ys = np.linspace(0.0, params.y_bar, n_steps + 1)
    y_list = ys.tolist()
    zs = [math.nan] * n_steps + [x_tilde]
    z = x_tilde
    n_val, d_val = _n_d(params, fs, y_list[-1], z)
    for i in range(n_steps, 0, -1):
        y, y_new = y_list[i], y_list[i - 1]
        k1 = _slope(params, y, z, n_val, d_val)
        k2 = ode_rhs(params, fs, y - 0.5 * h, z - 0.5 * h * k1)
        k3 = ode_rhs(params, fs, y - 0.5 * h, z - 0.5 * h * k2)
        k4 = ode_rhs(params, fs, y - h, z - h * k3)
        z_new = z - h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        slope = (z - z_new) / h
        if slope < params.beta * (1.0 - 1e-9):
            raise IntegrationError(
                f"Ftilde' = {slope:.6e} fell below beta = {params.beta} at y = {y_new:.6g}")
        n_val, d_val = _n_d(params, fs, y_new, z_new)
        if d_val <= 0.0:
            raise IntegrationError(f"D <= 0 ({d_val:.3e}) at y = {y_new:.6g}")
        zs[i - 1] = z = z_new
    zs = np.array(zs)
    f_grid = zs - params.beta * ys
    f_itp = MonotoneCubic(ys, f_grid)
    finv_itp = MonotoneCubic(f_grid, ys)
    return FreeBoundary(
        params=params, ys=ys, f_tilde=zs, x_tilde=x_tilde,
        x0=float(f_grid[0]), x_bar=float(f_grid[-1]), f_grid=f_grid,
        _f_itp=f_itp, _finv_itp=finv_itp)


def y_star(params: ModelParams, fs: FundamentalSolution) -> float:
    """Critical capacity bound: line of means through the install-region corner."""
    return (((params.mu - params.rho * params.c) * (params.rho + params.kappa)
             - params.rho * fs.psi_over_dpsi(params.mu))
            / (params.beta * (params.rho + 2.0 * params.kappa)))


def classify_regime(params: ModelParams, fb: FreeBoundary,
                    fs: FundamentalSolution) -> Regime:
    """Match the line of means against the installation region (ties -> case 2)."""
    if fb.x0 > params.mu:
        return Regime.NO_INTERSECTION
    if params.y_bar >= y_star(params, fs):
        return Regime.INTERSECTS_BOUNDARY
    return Regime.INTERSECTS_UPPER_BOUND


def export_grid_csv(fb: FreeBoundary, path) -> None:
    """Write the grid as CSV with header y,F_tilde,F at 12 significant digits."""
    with open(path, "w", newline="") as fh:
        fh.write("y,F_tilde,F\n")
        for y, ft, fv in zip(fb.ys, fb.f_tilde, fb.f_grid):
            fh.write(f"{y:.12g},{ft:.12g},{fv:.12g}\n")
