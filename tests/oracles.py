"""Reference routes the tests compare the solver against.

Each is a second representation of a quantity the package computes one way:
psi's derivatives straight from the integral and to any order, phi, the
determinant combinations Q_k and Psi_k, the cylinder function D_a, the
anchor function H, the coefficient A and its derivative through other
closed forms, the normalized ODE denominator three ways, the PDE term on the
lump-to-capacity region and the growth ratio of w.  None of them is on the
solve, value or simulation path, so they live here and not in the package.
"""

import math

import numpy as np

from solarinvest import DomainError, NumericalError, r_tilde
from solarinvest.fundamental import log_weighted_integral


def _exp(log_value, name, x):
    try:
        return math.exp(log_value)
    except OverflowError:
        raise NumericalError(
            f"{name}({x}) overflows float64: log {name} = {log_value:.6g}") from None


# -- fundamental solutions ----------------------------------------------------


def cylinder_d(alpha, x):
    """Cylinder function D_alpha(x), alpha < 0, by deterministic quadrature."""
    if alpha >= 0.0:
        raise DomainError(f"cylinder_d requires alpha < 0, got {alpha}")
    log_i, _, _ = log_weighted_integral(-alpha, x)
    return math.exp(-0.25 * x * x + log_i - math.lgamma(-alpha))


def psi_derivs(fs, x, k_max):
    """psi^(0..k_max)(x) for any order: ``fs.psi_derivs`` carried past order
    3 by the generator recurrence
    psi^(k+2) = -(2 kappa/sigma^2)(mu - x) psi^(k+1) + (2 (rho + k kappa)/sigma^2) psi^(k)."""
    p = fs.params
    ratios = [1.0, *fs.psi_ratios(x)]
    two_over_s2 = 2.0 / p.sigma**2
    drift = -two_over_s2 * p.kappa * (p.mu - x)
    for k in range(2, k_max - 1):
        nxt = drift * ratios[k + 1] + two_over_s2 * (p.rho + k * p.kappa) * ratios[k]
        if not nxt > 0.0:
            raise NumericalError(f"derivative recurrence lost positivity at k={k + 2}, x={x}")
        ratios.append(nxt)
    psi = fs.psi(x)
    return np.array([psi * r for r in ratios[:k_max + 1]])


def psi_deriv_direct(fs, k, x):
    """psi^(k) straight from the integral; independent of the recurrence
    and of the panels."""
    if k < 0:
        raise DomainError(f"derivative order k={k} must be >= 0")
    return _exp(fs.log_psi_deriv(k, x), f"psi^({k})", x)


def phi_deriv(fs, k, x):
    """k-th derivative of the decreasing solution phi, from the integral at
    the mirrored argument; alternates sign, |phi^(k)| > 0."""
    if k < 0:
        raise DomainError(f"derivative order k={k} must be >= 0")
    p = fs.params
    s0 = p.rho / p.kappa
    scale = math.sqrt(2.0 * p.kappa) / p.sigma
    z = (p.mu - x) * scale
    mag = _exp(k * math.log(scale) + log_weighted_integral(s0 + k, -z)[0] - math.lgamma(s0),
               f"|phi^({k})|", x)
    return mag if k % 2 == 0 else -mag


def phi(fs, x):
    """Strictly decreasing positive solution of the generator equation."""
    return phi_deriv(fs, 0, x)


def q(fs, k, x):
    """Q_k(x) = psi^(k) psi^(k+2) - (psi^(k+1))^2 > 0."""
    if k < 0:
        raise DomainError(f"order k={k} must be >= 0")
    d = psi_derivs(fs, x, k + 2)
    return float(d[k] * d[k + 2] - d[k + 1] ** 2)


def ratio(fs, k, x):
    """Psi_k(x) = (psi^(k+1))^2 / (psi^(k) psi^(k+2)); strictly increasing."""
    d = psi_derivs(fs, x, k + 2)
    return float(d[k + 1] ** 2 / (d[k] * d[k + 2]))


# -- boundary -----------------------------------------------------------------


def h_func(params, fs, x):
    """Anchor function H; its unique root is Ftilde(y_bar)."""
    return (fs.psi_derivs(x, 1)[1] * (params.c - r_tilde(params, x, params.y_bar))
            + fs.psi(x) / (params.rho + params.kappa))


# -- value function -----------------------------------------------------------


def a_alt(vf, y):
    """A(y) through the Rtilde/Q0 representation."""
    p = vf.params
    ft = vf.fb.f_tilde_at(y)
    d = vf.fs.psi_derivs(ft, 2)
    q0 = d[0] * d[2] - d[1] ** 2
    num = d[1] * (p.c - r_tilde(p, ft, y)) + d[0] / (p.rho + p.kappa)
    return num / (-q0) / p.beta


def a_prime_fit_form(vf, y):
    """A' from the smooth-fit pair directly: -beta psi''/psi' A - 1/((rho+kappa) psi')."""
    p = vf.params
    ft = vf.fb.f_tilde_at(y)
    d = vf.fs.psi_derivs(ft, 2)
    return -p.beta * d[2] / d[1] * vf.a(y) - 1.0 / ((p.rho + p.kappa) * d[1])


def install_region_pde_closed_form(params, x, y):
    """PDE term on the lump-to-capacity region:
    (y_bar - y)(kappa beta y_bar/(rho+kappa) + c rho - x)."""
    p = params
    return (p.y_bar - y) * (p.kappa * p.beta * p.y_bar / (p.rho + p.kappa)
                            + p.c * p.rho - x)


def growth_ratio(vf, xs):
    """max |w(x, y)| / (1 + |x|) over the prices ``xs`` and about 20
    capacities of the boundary grid; finite and stable."""
    ys = vf.fb.ys[:: max(1, len(vf.fb.ys) // 20)]
    return max(abs(vf.w(float(x), float(y))) / (1.0 + abs(float(x)))
               for x in xs for y in ys)


def d_tilde_forms(vf, y):
    """Normalized denominator along the boundary, three ways.

    Returns (via_d, via_coeffs, via_linear): D/((rho+kappa) psi Q0), the
    -beta psi''' A - psi'' A' combination, and the linear form
    (2/sigma^2)(Ftilde - c rho - (rho+2 kappa) beta y/(rho+kappa)
    - kappa beta psi'(Ftilde) A).  All agree along the solved boundary.
    """
    p = vf.params
    ft = vf.fb.f_tilde_at(y)
    d = vf.fs.psi_derivs(ft, 3)
    q0 = d[0] * d[2] - d[1] ** 2
    q1 = d[1] * d[3] - d[2] ** 2
    q0_prime = d[0] * d[3] - d[1] * d[2]
    rk = p.rho + p.kappa
    big_d = d[0] * (rk * (p.c - r_tilde(p, ft, y)) * q1 + q0_prime)
    via_d = big_d / (rk * d[0] * q0)
    a_val, ap_val = vf.a(y), vf.a_prime(y)
    via_coeffs = -p.beta * d[3] * a_val - d[2] * ap_val
    via_linear = (2.0 / p.sigma**2) * (
        ft - p.c * p.rho - (p.rho + 2.0 * p.kappa) * p.beta * y / rk
        - p.kappa * p.beta * d[1] * a_val)
    return via_d, via_coeffs, via_linear
