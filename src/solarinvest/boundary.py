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
four times.  The solve keeps the slope k = beta N/D it evaluates at each
node: the node's stage-4 pair, which is the next step's k1.  F is recovered
as F(y) = Ftilde(y) - beta*y and interpolated by cubic Hermite on the exact
slopes F' = k - beta; its inverse on the swapped grid, on 1/(k - beta).
Both are built with the solve.

A solve runs in one frame: ``fs.rk4_solver()`` builds one closure, for the
parameters ``fs`` was built with, that runs every RK4 stage.  It forms the
constants mu kappa, beta (rho + 2 kappa), rho (rho + kappa), rho + kappa and
(rho + 2 kappa)/rho once, each from the same parenthesised subexpression
the formulas above evaluate, so an evaluation rounds exactly as they do.
Each evaluation reads psi'/psi and psi''/psi as ``fs.log_psi_ratios`` does,
takes psi'''/psi one recurrence step further and forms N and D inline, with
every check above, so the panel layout stays inside ``fundamental``.  ``ode_rhs`` runs the
same closure on a one-node grid, which is one evaluation and that node's
slope, so the N/D formula exists once; the anchor root and ``y_star`` read
``fs.log_psi_ratios``.  Each function here that takes ``params`` beside a
built ``fs`` or ``fb`` refuses one built for other parameters with
:class:`ConfigurationError` (``model.check_same_params``).
"""

from __future__ import annotations

import enum
import math
import os
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, SolverError
from .fundamental import FundamentalSolution
from .interp import CubicHermite
from .model import (ModelParams, at_capacity, check_capacity, check_integer, check_real,
                    check_same_params)

MIN_STEPS = 100           # coarsest RK4 grid accepted for the boundary ODE
_MAX_ROOT_ITER = 100
_ROOT_XTOL = 1e-13        # absolute tolerance of the anchor root
_ROOT_RTOL = 4.0 * np.finfo(float).eps  # relative tolerance of the anchor root
_NODE_BYTES = 256         # peak bytes a solve holds per grid node (176 traced)


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
    psi'/psi and psi''/psi from one cell read.
    """
    check_same_params(params, fs)
    rk = params.rho + params.kappa
    x = params.mu
    for _ in range(_MAX_ROOT_ITER):
        _, r1, r2 = fs.log_psi_ratios(x)
        h = params.c - r_tilde(params, x, params.y_bar) + 1.0 / (rk * r1)
        step = h * rk * r1 * r1 / r2
        if not math.isfinite(step):
            raise SolverError(f"Newton step for the root of H is {step} at x = {x}")
        x += step
        if abs(step) <= _ROOT_XTOL + _ROOT_RTOL * abs(x):
            return x
    raise SolverError(f"root of H not resolved to {_ROOT_XTOL} in {_MAX_ROOT_ITER} "
                      f"Newton steps; last step {step:.3e} at x = {x}")


# perfbench/tracing.py patches this by name: it stays until ROADMAP item 10
def ode_rhs(params: ModelParams, fs: FundamentalSolution, y: float, z: float) -> float:
    """Right-hand side beta*N/D of the boundary ODE in shifted coordinates:
    the slope the solve records on the one-node grid (y, z), which is one
    evaluation."""
    check_same_params(params, fs)
    ks = [math.nan]
    fs.rk4_solver()([y], [z], ks, 0.0)
    return ks[0]


@dataclass(frozen=True, eq=False)
class FreeBoundary:
    """Grid representation of the installation threshold on [0, y_bar].

    ``ys`` ascend from 0 to y_bar; ``f_tilde`` is the shifted boundary,
    ``f_grid`` the boundary itself.  ``f`` and ``f_inverse`` read cubic
    Hermites on the solve's exact slopes.  ``region`` and ``lump_target``
    share one classification, which reads F(y) through ``f`` wherever
    x < x_bar, capacity included; ``ValueFunction`` reuses that F(y) for
    A'(y) instead of reading it again.  Equality and hashing are by
    identity: the fields hold arrays.  Immutable; safe for concurrent reads.
    """

    params: ModelParams
    ys: np.ndarray
    f_tilde: np.ndarray
    x_tilde: float
    x0: float
    x_bar: float
    f_grid: np.ndarray = field(repr=False)
    _f_itp: CubicHermite = field(repr=False)
    _finv_itp: CubicHermite = field(repr=False)

    def f(self, y: float) -> float:
        """Boundary price F(y); installing is optimal once x >= F(y)."""
        return float(self._f_itp(check_capacity(self.params, y)))

    def f_values(self, y_arr) -> np.ndarray:
        """Vectorized boundary evaluation (clipped to the capacity range)."""
        return np.asarray(self._f_itp(np.clip(y_arr, 0.0, self.params.y_bar)))

    def f_inverse(self, x: float) -> float:
        """Capacity level at which price x sits exactly on the boundary;
        :class:`DomainError` outside the boundary's range and for an x that
        ``model.check_real`` refuses."""
        x = check_real("price x", x, DomainError)
        eps = 1e-9 * (1.0 + abs(self.x_bar))
        if not self.x0 - eps <= x <= self.x_bar + eps:
            raise DomainError(
                f"f_inverse({x}) outside boundary range [{self.x0}, {self.x_bar}]")
        return float(self._finv_itp(min(max(x, self.x0), self.x_bar)))

    def _classify(self, x: float, y: float):
        """(region, F(y)) at (x, y), F(y) as ``f`` reads it below x_bar and
        None from x_bar up; at capacity only waiting applies, also where
        x >= F(y).  A state that ``model.check_capacity`` refuses, and a
        price that ``model.check_real`` refuses or that is not finite, raise
        :class:`DomainError`."""
        check_capacity(self.params, y)
        if not math.isfinite(check_real("price x", x, DomainError)):
            raise DomainError(f"price x={x!r} must be finite")
        if x >= self.x_bar:
            return (Region.W if at_capacity(self.params, y) else Region.I2), None
        f_y = self.f(y)
        return (Region.I1 if x >= f_y and not at_capacity(self.params, y)
                else Region.W), f_y

    def region(self, x: float, y: float) -> Region:
        """Three-way state classification; at y = y_bar only waiting applies."""
        return self._classify(x, y)[0]

    def _lump(self, x: float, y: float):
        """(``lump_target(x, y)``, the F(y) its classification read or None)."""
        region, f_y = self._classify(x, y)  # also rejects y outside [0, y_bar]
        if x >= self.x_bar:
            return self.params.y_bar, f_y
        if region is Region.I1:
            return max(self.f_inverse(x), y), f_y
        return y, f_y

    def lump_target(self, x: float, y: float) -> float:
        """Capacity right after the optimal installation at (x, y): y_bar
        from x_bar up, max(Finv(x), y) in I1 (the interpolated inverse may
        dip below y just above F(y)), y otherwise."""
        return self._lump(x, y)[0]


def integrate_boundary(params: ModelParams, fs: FundamentalSolution,
                       n_steps: int = 2000) -> FreeBoundary:
    """Solve the boundary ODE backward from (y_bar, xtilde) with RK4.

    Each accepted step checks the difference quotient against Ftilde' >= beta
    and D > 0 at the new point; a violation indicates a tolerance or
    special-function failure (the exact solution satisfies both) and raises
    :class:`IntegrationError` naming the offending y.  The (N, D) pair of
    that D check is the node's slope and the next step's k1, so a step
    costs four evaluations.  F and its inverse are built here, on those
    slopes.
    Raises :class:`DomainError`, before allocating anything, unless
    ``n_steps`` is an integer (not a bool) from ``MIN_STEPS`` to
    :func:`max_steps`.
    """
    # an int: a numpy integer would make h and every stage a numpy scalar
    n_steps = check_integer("n_steps", n_steps, DomainError, MIN_STEPS)
    if n_steps > max_steps():
        raise DomainError(
            f"n_steps={n_steps} needs about {_NODE_BYTES * (n_steps + 1)} bytes, more than "
            f"the {physical_memory_bytes()} bytes of physical memory")
    x_tilde = solve_x_tilde(params, fs)
    ys = np.linspace(0.0, params.y_bar, n_steps + 1)
    zs = [math.nan] * n_steps + [x_tilde]
    ks = [math.nan] * (n_steps + 1)
    fs.rk4_solver()(ys.tolist(), zs, ks, params.y_bar / n_steps)
    zs = np.array(zs)
    f_grid = zs - params.beta * ys
    f_slopes = np.array(ks) - params.beta
    return FreeBoundary(
        params=params, ys=ys, f_tilde=zs, x_tilde=x_tilde,
        x0=float(f_grid[0]), x_bar=float(f_grid[-1]), f_grid=f_grid,
        _f_itp=CubicHermite(ys, f_grid, f_slopes),
        _finv_itp=CubicHermite(f_grid, ys, 1.0 / f_slopes))


def y_star(params: ModelParams, fs: FundamentalSolution) -> float:
    """Critical capacity bound: line of means through the install-region corner."""
    check_same_params(params, fs)
    return (((params.mu - params.rho * params.c) * (params.rho + params.kappa)
             - params.rho * (1.0 / fs.log_psi_ratios(params.mu)[1]))
            / (params.beta * (params.rho + 2.0 * params.kappa)))


def classify_regime(params: ModelParams, fb: FreeBoundary,
                    fs: FundamentalSolution) -> Regime:
    """Match the line of means against the installation region (ties -> case 2)."""
    check_same_params(params, fb, fs)
    if fb.x0 > params.mu:
        return Regime.NO_INTERSECTION
    if params.y_bar >= y_star(params, fs):
        return Regime.INTERSECTS_BOUNDARY
    return Regime.INTERSECTS_UPPER_BOUND
