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

A is sampled on the boundary grid from the closed form, with its derivative

    A'(y) = [ psi''(Ft) (c - Rtilde(Ft, y)) + psi'(Ft)/(rho+kappa) ] / Q0(Ft),

and interpolated by cubic Hermite on those exact slopes, as F is on the
ODE's; ``partials`` reads A' in closed form (not re-integrated), so the
interpolated A and the A' it reads agree at the nodes.  One private method,
``_a_pair``, forms both, and the grid build and ``partials`` call it.  It
evaluates them from r_k = psi^(k)(Ft)/psi(Ft), k = 1, 2, and psi(Ft), read
by one ``log_psi_ratios`` call and exponentiated once, e.g.
A' = [r2 (c - Rtilde) + r1/(rho+kappa)] / (psi(Ft) (r2 - r1^2)), so neither
forms a product of raw derivatives that overflows where psi(Ft) is large.
``partials`` and ``hjb_residual`` share one private read of the state,
``_partials``: y_hit, A(y_hit) and psi^(0..2)(x + beta y_hit) from one
``log_psi_ratios`` call, so ``hjb_residual`` forms w from its A(y_hit) psi
instead of repeating the lookups through ``w``.  ``w`` reads psi alone,
through ``psi``: where psi and w are finite, psi'' can overflow and
psi''/psi round negative.  F(y) is read once too: the boundary's
classification reads it wherever x < x_bar, at capacity as well, and A'(y)
takes Ftilde(y) = F(y) + beta y from that value.
A grid node below y_bar with A <= 0 contradicts A > 0 and is refused with
:class:`NumericalError`; a grid too coarse where F is steep produces one.  The
tests check these closed forms against other representations of the same
quantities (A from its Rtilde/Q0 form, A' at its own read of F(y) and from
the smooth-fit pair, the normalized ODE denominator three ways, the PDE
term on the lump-to-capacity region and the linear growth bound); those
routes live in ``tests/oracles.py``, not here.
"""

from __future__ import annotations

import math
from dataclasses import asdict

import numpy as np

from .boundary import FreeBoundary, r_tilde, y_star
from .errors import DomainError, NumericalError
from .fundamental import FundamentalSolution, checked_exp
from .interp import CubicHermite
from .model import (ModelParams, check_capacity, check_real, check_same_params, r_partials,
                    r_value)


def _state(x, y):
    """(x, y) as the floats ``model``'s scalar rule returns, y first as the
    classification checks it: a public entry computes with these."""
    y = check_real("installed power y", y, DomainError)
    return check_real("price x", x, DomainError), y


class ValueFunction:
    """Piecewise value function over waiting and installation regions.

    Immutable after construction; safe for concurrent evaluation.
    """

    def __init__(self, params: ModelParams, fs: FundamentalSolution, fb: FreeBoundary):
        check_same_params(params, fs, fb)
        self.params = params
        self.fs = fs
        self.fb = fb
        # on Python floats, where a zero divisor or an overflow raises instead
        # of passing on as inf or NaN
        pairs = []
        for y, ft in zip(fb.ys.tolist(), fb.f_tilde.tolist()):
            try:
                pairs.append(self._a_pair(y, ft))
            except (ZeroDivisionError, OverflowError) as exc:
                raise NumericalError(
                    f"coefficient A(y) is not finite at y={y:.6g} (y_bar={params.y_bar}) "
                    f"on the {fb.ys.size - 1}-step grid: {exc}") from None
        a_list, slopes = zip(*pairs)
        self.a_grid = np.array(a_list)
        # A > 0 below y_bar is a theorem; a coarse grid that misplaces a steep
        # F near y_bar can flip its sign there, and clamping would hide that
        flipped = np.flatnonzero(~(self.a_grid[:-1] > 0.0))
        if flipped.size:
            raise NumericalError(
                f"coefficient A(y) = {self.a_grid[flipped[0]]:.6g} is not positive at "
                f"y={fb.ys[flipped[0]]:.6g} (y_bar={params.y_bar}) on the "
                f"{fb.ys.size - 1}-step grid; a finer --steps may help")
        # the last node is A(y_bar) = 0 up to the anchor-root residual
        self._a_itp = CubicHermite(fb.ys, self.a_grid, slopes)

    # -- coefficient function -------------------------------------------------

    def _a_pair(self, y: float, ft: float):
        """Closed-form (A(y), A'(y)) in ratio form (module docstring), given
        ft = Ftilde(y), from one ``log_psi_ratios`` read and one psi(ft):
        numerators and denominators divided by powers of psi(ft) stay
        finite where the psi-derivatives themselves would overflow."""
        p = self.params
        log_psi, r1, r2 = self.fs.log_psi_ratios(ft)
        psi = checked_exp(log_psi, "psi", ft)
        rk = p.rho + p.kappa
        num = (rk * (p.c * p.rho + p.kappa * p.beta * y / rk - (ft - p.beta * y)) * r1
               + 0.5 * p.sigma**2 * r2)
        a_val = num / (r1 ** 2 - r2) / (p.beta * p.rho * rk) / psi
        return a_val, (r2 * (p.c - r_tilde(p, ft, y)) + r1 / rk) / (psi * (r2 - r1 ** 2))

    def a(self, y: float) -> float:
        """Interpolated coefficient A(y).  The exact A is positive and
        strictly decreasing below y_bar, with A(y_bar) = 0; the grid nodes
        below y_bar are checked positive, but between the last nodes of a
        coarse grid the cubic can dip below 0 (ROADMAP item 3)."""
        return float(self._a_itp(check_capacity(self.params, y)))

    # -- value and derivatives -------------------------------------------------

    def w(self, x: float, y: float) -> float:
        """Value of optimally installing from state (x, y)."""
        p = self.params
        x, y = _state(x, y)
        y_hit = self.fb.lump_target(x, y)
        # A(y_bar) = 0: from x_bar up, drop the psi term, which may overflow
        psi_term = (0.0 if x >= self.fb.x_bar
                    else self.a(y_hit) * self.fs.psi(x + p.beta * y_hit))
        return psi_term + r_value(p, x, y_hit) - p.c * (y_hit - y)

    def _partials(self, x: float, y: float):
        """(y_hit, A(y_hit) psi(x + beta y_hit), (w_x, w_xx, w_y)) at (x, y)
        from one read of the state: the classification's y_hit and F(y),
        and psi^(0..2)(x + beta y_hit) from one ``log_psi_ratios`` call.
        From x_bar up A(y_bar) = 0 drops the psi term, which may overflow."""
        p = self.params
        y_hit, f_y = self.fb._lump(x, y)
        r_y, _, r_x = r_partials(p, x, y_hit)
        if x >= self.fb.x_bar:
            return y_hit, 0.0, (r_x, 0.0, p.c)
        xs = x + p.beta * y_hit
        log_psi, r1, r2 = self.fs.log_psi_ratios(xs)
        psi = checked_exp(log_psi, "psi", xs)
        d = (psi, psi * r1, psi * r2)
        if math.inf in d:
            k = d.index(math.inf)
            raise NumericalError(f"psi^({k})({xs}) overflows float64: log psi^({k}) = "
                                 f"{log_psi + math.log((r1, r2)[k - 1]):.6g}")
        a_val = self.a(y_hit)
        # Ftilde(y) from the F(y) the classification read
        w_y = (p.c if y_hit > y else
               self._a_pair(y, f_y + p.beta * y)[1] * psi + p.beta * a_val * d[1] + r_y)
        return y_hit, a_val * psi, (a_val * d[1] + r_x, a_val * d[2], w_y)

    def partials(self, x: float, y: float):
        """(w_x, w_xx, w_y) from the closed forms at the lump target."""
        return self._partials(*_state(x, y))[2]

    def hjb_residual(self, x: float, y: float):
        """(pde_term, gradient_term) of the variational inequality at (x, y)."""
        p = self.params
        x, y = _state(x, y)
        if check_capacity(p, y) >= p.y_bar:
            raise DomainError("HJB residual defined for y < y_bar")
        y_hit, psi_term, (w_x, w_xx, w_y) = self._partials(x, y)
        # ``w``'s value: psi_term is A(y_hit) psi as ``w`` forms it, bit for bit
        w = psi_term + r_value(p, x, y_hit) - p.c * (y_hit - y)
        pde = (0.5 * p.sigma**2 * w_xx
               + p.kappa * ((p.mu - p.beta * y) - x) * w_x
               - p.rho * w + x * y)
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
