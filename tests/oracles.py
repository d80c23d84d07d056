"""Reference routes the tests compare the solver against.

Each is a second representation of a quantity the package computes one way:
a panel's Chebyshev series by Clenshaw, psi's derivatives straight from the
integral and to any order, phi, the determinant combinations Q_k and Psi_k,
the cylinder function D_a, the anchor function H, the shifted boundary
Ftilde(y) at its own read of F(y), the coefficient A and its derivative
through other closed forms and at that read of F(y), the
normalized ODE denominator three ways, the PDE term on the lump-to-capacity
region, the growth ratio of w, the partials with a second F(y) read for
A'(y), the HJB residual from separate partials and ``w`` calls, psi'''/psi
by the solve's recurrence step after a ``log_psi_ratios`` call, and the
boundary ODE's N/D pair from those three ratios followed by the N/D
arithmetic in a second frame, and its right-hand side beta*N/D with the
singular check in a third.
None of them is on the solve, value or simulation path, so they live here
and not in the package.
"""

import math

import numpy as np

from solarinvest import DomainError, IntegrationError, NumericalError, r_partials, r_tilde
from solarinvest.fundamental import _SINGULAR_RATIO, checked_exp, log_weighted_integral


# -- fundamental solutions ----------------------------------------------------


def clenshaw(coefficients, u):
    """sum_m c_m T_m(u) for Chebyshev coefficients c_0 first, by the
    Clenshaw recurrence: the reference for the panels' power-basis reads."""
    b1 = b2 = 0.0
    for c in coefficients[:0:-1]:
        b1, b2 = 2.0 * u * b1 - b2 + c, b1
    return u * b1 - b2 + coefficients[0]


def cylinder_d(alpha, x):
    """Cylinder function D_alpha(x), alpha < 0, by deterministic quadrature."""
    if alpha >= 0.0:
        raise DomainError(f"cylinder_d requires alpha < 0, got {alpha}")
    log_i, _, _ = log_weighted_integral(-alpha, x)
    return math.exp(-0.25 * x * x + log_i - math.lgamma(-alpha))


def ratios3(fs, x):
    """(psi'/psi, psi''/psi, psi'''/psi) at x: ``fs.log_psi_ratios`` and the
    recurrence step to order 3 with the boundary solve's expression,
    refused with the solve's message where it is not positive."""
    _, r1, r2 = fs.log_psi_ratios(x)
    drift = fs._drift_rate * (fs._mu - x)
    r3 = drift * r2 + fs._rec1 * r1
    if not r3 > 0.0:
        raise NumericalError(f"derivative recurrence lost positivity at k=3, x={x}")
    return r1, r2, r3


def psi_derivs(fs, x, k_max):
    """psi^(0..k_max)(x) for any order: ``fs.psi`` times the ratios of
    ``fs.log_psi_ratios``, carried past order 2 by the generator recurrence
    psi^(k+2) = -(2 kappa/sigma^2)(mu - x) psi^(k+1) + (2 (rho + k kappa)/sigma^2) psi^(k),
    refused with :class:`NumericalError` where an order overflows float64."""
    p = fs.params
    ratios = [1.0, *fs.log_psi_ratios(x)[1:]]
    two_over_s2 = 2.0 / p.sigma**2
    drift = -two_over_s2 * p.kappa * (p.mu - x)
    for k in range(1, k_max - 1):
        nxt = drift * ratios[k + 1] + two_over_s2 * (p.rho + k * p.kappa) * ratios[k]
        if not nxt > 0.0:
            raise NumericalError(f"derivative recurrence lost positivity at k={k + 2}, x={x}")
        ratios.append(nxt)
    psi = fs.psi(x)
    out = [psi * r for r in ratios[:k_max + 1]]
    if math.inf in out:
        raise NumericalError(f"psi^({out.index(math.inf)})({x}) overflows float64")
    return np.array(out)


def psi_deriv_direct(fs, k, x):
    """psi^(k) straight from the integral; independent of the recurrence
    and of the panels."""
    if k < 0:
        raise DomainError(f"derivative order k={k} must be >= 0")
    return checked_exp(fs.log_psi_deriv(k, x), f"psi^({k})", x)


def phi_deriv(fs, k, x):
    """k-th derivative of the decreasing solution phi, from the integral at
    the mirrored argument; alternates sign, |phi^(k)| > 0."""
    if k < 0:
        raise DomainError(f"derivative order k={k} must be >= 0")
    p = fs.params
    s0 = p.rho / p.kappa
    scale = math.sqrt(2.0 * p.kappa) / p.sigma
    z = (p.mu - x) * scale
    mag = checked_exp(k * math.log(scale) + log_weighted_integral(s0 + k, -z)[0]
                      - math.lgamma(s0), f"|phi^({k})|", x)
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
    return (psi_derivs(fs, x, 1)[1] * (params.c - r_tilde(params, x, params.y_bar))
            + fs.psi(x) / (params.rho + params.kappa))


# -- value function -----------------------------------------------------------


def f_tilde_at(fb, y):
    """Shifted boundary Ftilde(y) = F(y) + beta*y at its own read of F(y)."""
    return fb.f(y) + fb.params.beta * y


def a_alt(vf, y):
    """A(y) through the Rtilde/Q0 representation."""
    p = vf.params
    ft = f_tilde_at(vf.fb, y)
    d = psi_derivs(vf.fs, ft, 2)
    q0 = d[0] * d[2] - d[1] ** 2
    num = d[1] * (p.c - r_tilde(p, ft, y)) + d[0] / (p.rho + p.kappa)
    return num / (-q0) / p.beta


def a_prime_fit_form(vf, y):
    """A' from the smooth-fit pair directly: -beta psi''/psi' A - 1/((rho+kappa) psi')."""
    p = vf.params
    ft = f_tilde_at(vf.fb, y)
    d = psi_derivs(vf.fs, ft, 2)
    return -p.beta * d[2] / d[1] * vf.a(y) - 1.0 / ((p.rho + p.kappa) * d[1])


def install_region_pde_closed_form(params, x, y):
    """PDE term on the lump-to-capacity region:
    (y_bar - y)(kappa beta y_bar/(rho+kappa) + c rho - x)."""
    p = params
    return (p.y_bar - y) * (p.kappa * p.beta * p.y_bar / (p.rho + p.kappa)
                            + p.c * p.rho - x)


def a_prime(vf, y):
    """Closed-form A'(y) at its own read of Ftilde(y)."""
    return vf._a_pair(y, f_tilde_at(vf.fb, y))[1]


def partials_two_lookup(vf, x, y):
    """(w_x, w_xx, w_y) through the public ``lump_target`` and ``a`` and
    through ``a_prime``: F(y) is read once to classify the state and again
    for A'(y)."""
    p = vf.params
    y_hit = vf.fb.lump_target(x, y)
    r_y, _, r_x = r_partials(p, x, y_hit)
    if x >= vf.fb.x_bar:
        return r_x, 0.0, p.c
    d = psi_derivs(vf.fs, x + p.beta * y_hit, 2)
    a_val = vf.a(y_hit)
    w_y = p.c if y_hit > y else a_prime(vf, y) * d[0] + p.beta * a_val * d[1] + r_y
    return a_val * d[1] + r_x, a_val * d[2], w_y


def hjb_residual_two_pass(vf, x, y):
    """(pde_term, gradient_term) from ``partials_two_lookup`` and then ``w``,
    each doing its own lump-target, A and psi lookups."""
    p = vf.params
    if y >= p.y_bar:
        raise DomainError("HJB residual defined for y < y_bar")
    w_x, w_xx, w_y = partials_two_lookup(vf, x, y)
    pde = (0.5 * p.sigma**2 * w_xx
           + p.kappa * ((p.mu - p.beta * y) - x) * w_x
           - p.rho * vf.w(x, y) + x * y)
    return pde, w_y - p.c


def n_d_via_ratios3(params, fs):
    """(y, z) -> (N/psi^3, D/psi^3) as two frames: ``ratios3(fs, z)``,
    then the N/D arithmetic over the constants ``fs.rk4_solver`` forms,
    each expression parenthesised as there."""
    c, rho = params.c, params.rho
    mu_kappa = params.mu * params.kappa
    beta_rk2 = params.beta * (params.rho + 2.0 * params.kappa)
    rho_rk = params.rho * (params.rho + params.kappa)
    rk = params.rho + params.kappa
    rk2_over_rho = (params.rho + 2.0 * params.kappa) / params.rho

    def n_d(y, z):
        r1, r2, r3 = ratios3(fs, z)
        q0 = r2 - r1 * r1
        q1 = r1 * r3 - r2 * r2
        q0_prime = r3 - r1 * r2
        crt = rk * (c - (mu_kappa + rho * z - beta_rk2 * y) / rho_rk)
        return q0 * (rk2_over_rho * r1 + crt * r2 + r1), crt * q1 + q0_prime

    return n_d


def rhs_via_ratios3(params, fs):
    """(y, z) -> beta*N/D from ``n_d_via_ratios3``, refused as the solve
    refuses it where |D| < _SINGULAR_RATIO |N|, with the solve's message."""
    n_d = n_d_via_ratios3(params, fs)

    def rhs(y, z):
        n_val, d_val = n_d(y, z)
        if abs(d_val) < _SINGULAR_RATIO * abs(n_val):
            raise IntegrationError(f"boundary ODE singular: D/psi^3({y}, {z}) = "
                                   f"{d_val:.3e} with N/psi^3 = {n_val:.3e}")
        return params.beta * n_val / d_val

    return rhs


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
    ft = f_tilde_at(vf.fb, y)
    d = psi_derivs(vf.fs, ft, 3)
    q0 = d[0] * d[2] - d[1] ** 2
    q1 = d[1] * d[3] - d[2] ** 2
    q0_prime = d[0] * d[3] - d[1] * d[2]
    rk = p.rho + p.kappa
    big_d = d[0] * (rk * (p.c - r_tilde(p, ft, y)) * q1 + q0_prime)
    via_d = big_d / (rk * d[0] * q0)
    a_val, ap_val = vf.a(y), a_prime(vf, y)
    via_coeffs = -p.beta * d[3] * a_val - d[2] * ap_val
    via_linear = (2.0 / p.sigma**2) * (
        ft - p.c * p.rho - (p.rho + 2.0 * p.kappa) * p.beta * y / rk
        - p.kappa * p.beta * d[1] * a_val)
    return via_d, via_coeffs, via_linear
