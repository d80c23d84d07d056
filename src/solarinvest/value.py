"""Closed-form candidate value function and its verification hooks.

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

is kept closed-form (not re-integrated) and doubles as a cross-check.
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

    def a_alt(self, y: float) -> float:
        """A(y) through the Rtilde/Q0 representation; cross-check route."""
        p = self.params
        ft = self.fb.f_tilde_at(y)
        d = self.fs.psi_derivs(ft, 2)
        q0 = d[0] * d[2] - d[1] ** 2
        num = d[1] * (p.c - r_tilde(p, ft, y)) + d[0] / (p.rho + p.kappa)
        return num / (-q0) / p.beta

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

    def a_prime_fit_form(self, y: float) -> float:
        """A' from the smooth-fit pair directly: -beta psi''/psi' A - 1/((rho+kappa) psi')."""
        p = self.params
        ft = self.fb.f_tilde_at(y)
        d = self.fs.psi_derivs(ft, 2)
        return -p.beta * d[2] / d[1] * self.a(y) - 1.0 / ((p.rho + p.kappa) * d[1])

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

    def install_region_pde_closed_form(self, x: float, y: float) -> float:
        """PDE term on the lump-to-capacity region: (y_bar - y)(kappa beta y_bar/(rho+kappa) + c rho - x)."""
        p = self.params
        return (p.y_bar - y) * (p.kappa * p.beta * p.y_bar / (p.rho + p.kappa)
                                + p.c * p.rho - x)

    def z_gap(self, x: float) -> float:
        """c rho + kappa beta w_x(x, Finv(x)) - x; negative on [x0, x_bar].
        (On that range the lump takes (x, 0) to (x, Finv(x)).)"""
        p = self.params
        return p.c * p.rho + p.kappa * p.beta * self.partials(x, 0.0)[0] - x

    def s_gap(self, x: float, y: float) -> float:
        """Installation-gradient gap w_y - c; zero with zero x-slope on the boundary."""
        return self.partials(x, y)[2] - self.params.c

    def growth_ratio(self, xs, ys=None) -> float:
        """max |w(x, y)| / (1 + |x|) over the given grids; finite and stable."""
        if ys is None:
            ys = self.fb.ys[:: max(1, len(self.fb.ys) // 20)]
        return max(abs(self.w(float(x), float(y))) / (1.0 + abs(float(x)))
                   for x in xs for y in ys)

    # -- cross-representation checks -------------------------------------------

    def d_tilde_forms(self, y: float):
        """Normalized denominator along the boundary, three ways.

        Returns (via_d, via_coeffs, via_linear): D/((rho+kappa) psi Q0), the
        -beta psi''' A - psi'' A' combination, and the linear form
        (2/sigma^2)(Ftilde - c rho - (rho+2 kappa) beta y/(rho+kappa)
        - kappa beta psi'(Ftilde) A).  All agree along the solved boundary.
        """
        p = self.params
        ft = self.fb.f_tilde_at(y)
        d = self.fs.psi_derivs(ft, 3)
        q0 = d[0] * d[2] - d[1] ** 2
        q1 = d[1] * d[3] - d[2] ** 2
        q0_prime = d[0] * d[3] - d[1] * d[2]
        rk = p.rho + p.kappa
        big_d = d[0] * (rk * (p.c - r_tilde(p, ft, y)) * q1 + q0_prime)
        via_d = big_d / (rk * d[0] * q0)
        a_val, ap_val = self.a(y), self.a_prime(y)
        via_coeffs = -p.beta * d[3] * a_val - d[2] * ap_val
        via_linear = (2.0 / p.sigma**2) * (
            ft - p.c * p.rho - (p.rho + 2.0 * p.kappa) * p.beta * y / rk
            - p.kappa * p.beta * d[1] * a_val)
        return via_d, via_coeffs, via_linear

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
