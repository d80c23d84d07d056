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

A solve builds one (y, z) -> (N/psi^3, D/psi^3) closure.  It holds the
constants mu kappa, beta (rho + 2 kappa), rho (rho + kappa), rho + kappa
and (rho + 2 kappa)/rho, each formed once from the same parenthesised
subexpression the formulas above evaluate, so an evaluation rounds exactly
as they do; it calls ``fs.psi_ratios`` once and nothing else.  The RK4
stages run inline in the loop.  ``ode_rhs`` is a thin wrapper over the same
closure, so the N/D formula exists once.
"""

from __future__ import annotations

import enum
import math
import numbers
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, IntegrationError, SolverError
from .fundamental import FundamentalSolution
from .interp import MonotoneCubic
from .model import ModelParams, at_capacity, check_capacity

MIN_STEPS = 100           # coarsest RK4 grid accepted for the boundary ODE
_SINGULAR_RATIO = 1e-12   # |D| below this times |N| counts as hitting D = 0
_MAX_ROOT_ITER = 100
_ROOT_XTOL = 1e-13        # absolute tolerance of the anchor root
_ROOT_RTOL = 4.0 * np.finfo(float).eps  # relative tolerance of the anchor root
_NODE_BYTES = 256         # peak bytes a solve holds per grid node (193 traced)


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


def physical_memory_bytes() -> int:
    """Bytes of physical memory.  Under overcommit an array beyond this is
    allocated anyway and then pages without end, so callers refuse one first."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def max_steps() -> int:
    """Finest RK4 grid whose solve fits in physical memory."""
    return physical_memory_bytes() // _NODE_BYTES - 1


def r_tilde(params: ModelParams, x: float, y: float) -> float:
    """Capacity partial of the no-installation payoff in shifted coordinates."""
    return ((params.mu * params.kappa + params.rho * x
             - params.beta * (params.rho + 2.0 * params.kappa) * y)
            / (params.rho * (params.rho + params.kappa)))


def solve_x_tilde(params: ModelParams, fs: FundamentalSolution) -> float:
    """Unique root of H, by Newton's method on h = H/psi' from x = mu.

    h = c - Rtilde(x, y_bar) + (psi/psi')/(rho+kappa) has H's root and sign
    pattern (psi' > 0) and stays bounded where H overflows.  Its slope is
    h' = -1/((rho+kappa) Psi_0) with Psi_0 = psi'^2/(psi psi'') strictly
    increasing in (rho/(rho+kappa), 1), so h is strictly decreasing and
    convex: every Newton iterate after the first lies left of the root,
    and from there the iterates rise to it monotonically.  A step reads
    (psi'/psi, psi''/psi) from one ratio-panel pass.
    """
    rk = params.rho + params.kappa
    x = params.mu
    for _ in range(_MAX_ROOT_ITER):
        r1, r2, _ = fs.psi_ratios(x)
        h = params.c - r_tilde(params, x, params.y_bar) + 1.0 / (rk * r1)
        step = h * rk * r1 * r1 / r2
        if not math.isfinite(step):
            raise SolverError(f"Newton step for the root of H is {step} at x = {x}")
        x += step
        if abs(step) <= _ROOT_XTOL + _ROOT_RTOL * abs(x):
            return x
    raise SolverError(f"root of H not resolved to {_ROOT_XTOL} in {_MAX_ROOT_ITER} "
                      f"Newton steps; last step {step:.3e} at x = {x}")


def _n_d_evaluator(params: ModelParams, fs: FundamentalSolution):
    """(y, z) -> (N/psi^3, D/psi^3), from the ratios r_k = psi^(k)/psi(z):
    same quotient and signs as (N, D), and neither can overflow.  The
    constants are the parenthesised subexpressions of Rtilde, N and D,
    formed once, so every evaluation rounds as the expressions do."""
    psi_ratios = fs.psi_ratios
    c, rho = params.c, params.rho
    mu_kappa = params.mu * params.kappa
    beta_rk2 = params.beta * (params.rho + 2.0 * params.kappa)
    rho_rk = params.rho * (params.rho + params.kappa)
    rk = params.rho + params.kappa
    rk2_over_rho = (params.rho + 2.0 * params.kappa) / params.rho

    def n_d(y: float, z: float) -> tuple:
        r1, r2, r3 = psi_ratios(z)
        q0 = r2 - r1 * r1
        q1 = r1 * r3 - r2 * r2
        q0_prime = r3 - r1 * r2
        crt = rk * (c - (mu_kappa + rho * z - beta_rk2 * y) / rho_rk)
        return q0 * (rk2_over_rho * r1 + crt * r2 + r1), crt * q1 + q0_prime

    return n_d


def _raise_singular(y: float, z: float, n_val: float, d_val: float):
    raise IntegrationError(f"boundary ODE singular: D/psi^3({y}, {z}) = {d_val:.3e} "
                           f"with N/psi^3 = {n_val:.3e}")


# perfbench/tracing.py patches this by name: it stays until ROADMAP item 5
def ode_rhs(params: ModelParams, fs: FundamentalSolution, y: float, z: float) -> float:
    """Right-hand side beta*N/D of the boundary ODE in shifted coordinates."""
    n_val, d_val = _n_d_evaluator(params, fs)(y, z)
    if abs(d_val) < _SINGULAR_RATIO * abs(n_val):
        _raise_singular(y, z, n_val, d_val)
    return params.beta * n_val / d_val


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

    def region(self, x: float, y: float) -> Region:
        """Three-way state classification; at y = y_bar only waiting applies."""
        check_capacity(self.params, y)
        if at_capacity(self.params, y):
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
    Raises :class:`DomainError`, before allocating anything, unless
    ``n_steps`` is an integer (not a bool) from ``MIN_STEPS`` to
    :func:`max_steps`.
    """
    if isinstance(n_steps, bool) or not isinstance(n_steps, numbers.Integral):
        raise DomainError(f"n_steps={n_steps!r} must be an integer")
    n_steps = int(n_steps)  # a numpy integer would make h and every stage a numpy scalar
    if n_steps < MIN_STEPS:
        raise DomainError(f"n_steps={n_steps} too coarse; need >= {MIN_STEPS}")
    if n_steps > max_steps():
        raise DomainError(
            f"n_steps={n_steps} needs about {_NODE_BYTES * (n_steps + 1)} bytes, more than "
            f"the {physical_memory_bytes()} bytes of physical memory")
    x_tilde = solve_x_tilde(params, fs)
    h = params.y_bar / n_steps
    ys = np.linspace(0.0, params.y_bar, n_steps + 1)
    y_list = ys.tolist()
    zs = [math.nan] * n_steps + [x_tilde]
    z = x_tilde
    n_d = _n_d_evaluator(params, fs)
    beta = params.beta
    slope_floor = beta * (1.0 - 1e-9)
    half_h, sixth_h = 0.5 * h, h / 6.0
    n_val, d_val = n_d(y_list[-1], z)
    for i in range(n_steps, 0, -1):
        y, y_new = y_list[i], y_list[i - 1]
        if abs(d_val) < _SINGULAR_RATIO * abs(n_val):
            _raise_singular(y, z, n_val, d_val)
        k1 = beta * n_val / d_val
        y_mid = y - half_h
        z_mid = z - half_h * k1
        n_val, d_val = n_d(y_mid, z_mid)
        if abs(d_val) < _SINGULAR_RATIO * abs(n_val):
            _raise_singular(y_mid, z_mid, n_val, d_val)
        k2 = beta * n_val / d_val
        z_mid = z - half_h * k2
        n_val, d_val = n_d(y_mid, z_mid)
        if abs(d_val) < _SINGULAR_RATIO * abs(n_val):
            _raise_singular(y_mid, z_mid, n_val, d_val)
        k3 = beta * n_val / d_val
        y_end, z_end = y - h, z - h * k3
        n_val, d_val = n_d(y_end, z_end)
        if abs(d_val) < _SINGULAR_RATIO * abs(n_val):
            _raise_singular(y_end, z_end, n_val, d_val)
        k4 = beta * n_val / d_val
        z_new = z - sixth_h * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        slope = (z - z_new) / h
        if slope < slope_floor:
            raise IntegrationError(
                f"Ftilde' = {slope:.6e} fell below beta = {beta} at y = {y_new:.6g}")
        n_val, d_val = n_d(y_new, z_new)
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
             - params.rho * (1.0 / fs.psi_ratios(params.mu)[0]))
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
