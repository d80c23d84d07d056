"""Closed-form value function: the coefficient A, w and its partials.

On the waiting side of the boundary the value is R plus a homogeneous
correction A(y) psi(x + beta*y); the decreasing-solution coefficient is
forced to zero by the linear growth of the value in x.  Smooth fit across
the boundary pins the coefficient:

    A(y) = [ psi'(Ft) (c - Rtilde(Ft, y)) + psi(Ft)/(rho+kappa) ]
           / ( -beta * Q0(Ft) ),                Ft = Ftilde(y),

equivalently (after using the generator equation)

    A(y) = [ (rho+kappa)(c rho + kappa beta y/(rho+kappa) - F(y)) psi'(Ft)
             + sigma^2/2 psi''(Ft) ]
           / ( beta rho (rho+kappa) (psi'(Ft)^2 - psi''(Ft) psi(Ft)) ),

with A > 0 strictly decreasing and A(y_bar) = 0.  The assembled function

    w = A(y) psi(x + beta y) + R(x, y)                     (wait)
    w = waiting value at y_hit = max(Finv(x), y),
        minus c (y_hit - y)                                (lump to boundary)
    w = R(x, y_bar) - c (y_bar - y)                        (lump to capacity)

with y_hit = ``FreeBoundary.lump_target(x, y)`` (y when waiting), is C^{2,1},
solves the variational inequality
max{generator(w) - rho w + x y, w_y - c} = 0, and grows at most linearly.

A is sampled on the boundary grid from the closed form and interpolated with
the same monotone cubic family as F; the derivative formula

    A'(y) = [ psi''(Ft) (c - Rtilde(Ft, y)) + psi'(Ft)/(rho+kappa) ] / Q0(Ft)

is kept closed-form (not re-integrated); ``partials`` reads it.  The
tests check these closed forms against other representations of the same
quantities (A from its Rtilde/Q0 form, A' from the smooth-fit pair, the
normalized ODE denominator three ways, the PDE term on the lump-to-capacity
region and the linear growth bound); those routes live in
``tests/oracles.py``, not here.
"""

from __future__ import annotations

from dataclasses import asdict

import numpy as np

from .boundary import FreeBoundary, r_tilde, y_star
from .errors import DomainError
from .fundamental import FundamentalSolution
from .interp import MonotoneCubic
from .model import ModelParams, check_capacity, r_partials, r_value


class ValueFunction:
    """Piecewise value function over waiting and installation regions.

    Immutable after construction; safe for concurrent evaluation.
    """

    def __init__(self, params: ModelParams, fs: FundamentalSolution, fb: FreeBoundary):
        self.params = params
        self.fs = fs
        self.fb = fb
        self.a_grid = np.array([self._a_closed_form(y, ft)
                                for y, ft in zip(fb.ys, fb.f_tilde)])
        # the last node is A(y_bar) = 0 up to the anchor-root residual
        self._a_itp = MonotoneCubic(fb.ys, self.a_grid)

    # -- coefficient function -------------------------------------------------

    def _a_closed_form(self, y: float, f_tilde: float) -> float:
        # smooth-fit representation with the explicit R-terms, numerator and
        # denominator divided by psi(Ft) and psi(Ft)^2: the ratios stay finite
        # where the psi-derivatives themselves would overflow to inf/inf
        p = self.params
        f_val = f_tilde - p.beta * y
        r1, r2, _ = self.fs.psi_ratios(f_tilde)
        rk = p.rho + p.kappa
        num = (rk * (p.c * p.rho + p.kappa * p.beta * y / rk - f_val) * r1
               + 0.5 * p.sigma**2 * r2)
        den = r1 ** 2 - r2
        return num / den / (p.beta * p.rho * rk) / self.fs.psi(f_tilde)

    def a(self, y: float) -> float:
        """Coefficient A(y) >= 0, strictly decreasing, A(y_bar) = 0."""
        return float(self._a_itp(check_capacity(self.params, y)))

    def a_prime(self, y: float) -> float:
        """Closed-form A'(y) < 0 on [0, y_bar)."""
        p = self.params
        ft = self.fb.f_tilde_at(y)
        d = self.fs.psi_derivs(ft, 2)
        q0 = d[0] * d[2] - d[1] ** 2
        return (d[2] * (p.c - r_tilde(p, ft, y)) + d[1] / (p.rho + p.kappa)) / q0

    # -- value and derivatives -------------------------------------------------

    def w(self, x: float, y: float) -> float:
        """Value of optimally installing from state (x, y)."""
        p = self.params
        y_hit = self.fb.lump_target(x, y)
        # A(y_bar) = 0: from x_bar up, drop the psi term, which may overflow
        psi_term = (0.0 if x >= self.fb.x_bar
                    else self.a(y_hit) * self.fs.psi(x + p.beta * y_hit))
        return psi_term + r_value(p, x, y_hit) - p.c * (y_hit - y)

    def partials(self, x: float, y: float):
        """(w_x, w_xx, w_y) from the closed forms at the lump target."""
        p = self.params
        y_hit = self.fb.lump_target(x, y)
        r_y, _, r_x = r_partials(p, x, y_hit)
        if x >= self.fb.x_bar:
            return r_x, 0.0, p.c
        d = self.fs.psi_derivs(x + p.beta * y_hit, 2)
        a_val = self.a(y_hit)
        w_y = (p.c if y_hit > y
               else self.a_prime(y) * d[0] + p.beta * a_val * d[1] + r_y)
        return a_val * d[1] + r_x, a_val * d[2], w_y

    def hjb_residual(self, x: float, y: float):
        """(pde_term, gradient_term) of the variational inequality at (x, y)."""
        p = self.params
        if y >= p.y_bar:
            raise DomainError("HJB residual defined for y < y_bar")
        w_x, w_xx, w_y = self.partials(x, y)
        pde = (0.5 * p.sigma**2 * w_xx
               + p.kappa * ((p.mu - p.beta * y) - x) * w_x
               - p.rho * self.w(x, y) + x * y)
        return pde, w_y - p.c

    def summary_dict(self) -> dict:
        """JSON-ready export: constants plus the (y, F, A) grid."""
        return {
            "params": asdict(self.params),
            "x_tilde": self.fb.x_tilde,
            "x0": self.fb.x0,
            "x_bar": self.fb.x_bar,
            "y_star": y_star(self.params, self.fs),
            "grid": [
                {"y": float(y), "F": float(f), "A": float(a)}
                for y, f, a in zip(self.fb.ys, self.fb.f_grid, self.a_grid)
            ],
        }
