"""Model parameters, controlled dynamics coefficients, and the no-installation payoff.

The electricity price follows a mean-reverting diffusion whose long-run level
is permanently lowered by ``beta`` per unit of installed power ``y``:

    dX_t = kappa * ((mu - beta * Y_t) - X_t) dt + sigma dW_t.

Capacity can only be increased, at proportional cost ``c``, up to ``y_bar``,
and profits are discounted at rate ``rho``.  The expected discounted profit of
never installing anything admits the closed form

    R(x, y) = x*y/(rho+kappa) + mu*kappa*y/(rho*(rho+kappa))
              - kappa*beta*y^2/(rho*(rho+kappa)),

which is linear in the price and concave quadratic in capacity.

A :class:`ModelParams` checks itself when it is built: every field a finite
float within its bounds, and the production factor ``alpha`` folded into the
effective cost c/alpha, so every parameter set in use is valid and
normalised.

Every other scalar a public call takes (a price, a capacity, a step count,
a Monte Carlo setting) is typed by one rule, :func:`check_real` or
:func:`check_integer`: a real number (an integer) that is not a ``bool``
and, if real, that float64 can hold, refused with the caller's error type
otherwise.  NaN and +-inf pass, for the caller's own finiteness test.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, fields

from .errors import ConfigurationError, DomainError, ValidationError

# Baseline parameter set used throughout the numerical study; the long-run
# mean mu is the interesting knob (0.2 / 1.4 / 2.25 produce the three regimes).
TABLE_PRESET = {
    "kappa": 0.10,
    "mu": 0.20,
    "sigma": 0.50,
    "rho": 0.05,
    "c": 0.30,
    "beta": 0.15,
    "y_bar": 5.0,
    "alpha": 1.0,
}

# largest finite float, as a Python float: a numpy one would itself raise
# OverflowError when compared with an int beyond float64
_FLOAT_MAX = sys.float_info.max


@dataclass(frozen=True)
class ModelParams:
    """Economic and dynamical constants, checked and normalised at
    construction.

    kappa : mean-reversion speed (1/time), > 0
    mu    : long-run price level
    sigma : price volatility, > 0
    rho   : discount rate, > 0
    c     : unit installation cost, >= 0
    beta  : permanent price impact per unit of installed power, > 0
    y_bar : maximum installable power, > 0
    alpha : production proportionality (power -> revenue), > 0; folded into
            the cost at construction, which stores c/alpha and alpha = 1.

    Every field must be a finite real number (``bool`` is not one, nor an
    integer beyond the float64 range) and is stored as a float.  The
    effective cost c/alpha must be finite too; the control problem is
    invariant under this rescaling, so every constructor (a direct call,
    :func:`params_from_dict`, :func:`table_preset`, ``dataclasses.replace``)
    yields the same normalised set.  Raises :class:`ValidationError` naming
    the first offending field in declaration order.
    """

    kappa: float
    mu: float
    sigma: float
    rho: float
    c: float
    beta: float
    y_bar: float
    alpha: float = 1.0

    def __post_init__(self):
        for f in fields(self):
            name, value = f.name, getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValidationError(name, f"not a number: {value!r}")
            # also NaN, and an int beyond float64 (as JSON reads a long
            # literal), on which float() and math.isfinite raise
            if not -_FLOAT_MAX <= value <= _FLOAT_MAX:
                raise ValidationError(name, "must be finite")
            value = float(value)
            # mu is free, c >= 0 and every other field > 0
            if name != "mu" and (value < 0.0 or value == 0.0 and name != "c"):
                bound = ">=" if name == "c" else ">"
                raise ValidationError(name, f"must be {bound} 0, got {value}")
            object.__setattr__(self, name, value)
        c = self.c / self.alpha
        if not math.isfinite(c):
            raise ValidationError("c", f"c/alpha = {self.c}/{self.alpha} overflows float64")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "alpha", 1.0)


def params_from_dict(data: dict) -> ModelParams:
    """Build parameters from a flat mapping (missing alpha -> 1); anything
    but a dict (a JSON object) raises :class:`ValidationError` for
    ``<root>``, an unknown or missing key one for that key."""
    if not isinstance(data, dict):
        raise ValidationError("<root>", f"must be a JSON object, got {type(data).__name__}")
    names = {f.name for f in fields(ModelParams)}
    unknown = set(data) - names
    if unknown:
        raise ValidationError(sorted(unknown, key=str)[0], "unknown parameter")
    missing = names - {"alpha"} - set(data)
    if missing:
        raise ValidationError(sorted(missing)[0], "missing required parameter")
    return ModelParams(**data)


def params_from_json(path) -> ModelParams:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return params_from_dict(data)


def table_preset(mu: float = 0.2) -> ModelParams:
    """Baseline preset with the requested long-run mean."""
    data = dict(TABLE_PRESET)
    data["mu"] = mu
    return params_from_dict(data)


def check_same_params(params: ModelParams, *built) -> None:
    """Raise :class:`ConfigurationError` unless each object in ``built`` (a
    solution, boundary or value function) was built for parameters equal to
    ``params``; mixing two sets gives wrong numbers, not an error."""
    for obj in built:
        if obj.params != params:
            raise ConfigurationError(
                f"{type(obj).__name__} was built for {obj.params}, not for {params}")


def check_real(name: str, value, error) -> float:
    """``value`` as a float; ``error`` naming ``name`` unless it is a real
    number, not a ``bool``, that float64 can hold.  NaN and +-inf pass."""
    if type(value) is float:  # the query path: no ABC check
        return value
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise error(f"{name}={value!r} must be a real number")
    try:
        return float(value)
    except OverflowError:  # an int beyond float64, where math.isfinite raises too
        raise error(f"{name} must be finite, got {value}") from None


def check_integer(name: str, value, error) -> int:
    """``value`` as an int; ``error`` naming ``name`` unless it is an
    integer, not a ``bool``."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise error(f"{name}={value!r} must be an integer")
    return int(value)


def check_capacity(params: ModelParams, y: float) -> float:
    """y as a float clamped to [0, y_bar]; DomainError for a y that
    :func:`check_real` refuses, NaN, or one beyond a 1e-12 relative slack."""
    y = check_real("installed power y", y, DomainError)
    y_bar = params.y_bar  # one attribute read and no min(): a query checks ~10 capacities
    if not 0.0 <= y <= y_bar * (1.0 + 1e-12):
        raise DomainError(f"installed power y={y} outside [0, {y_bar}]")
    return y_bar if y > y_bar else y


def at_capacity(params: ModelParams, y):
    """Whether capacity ``y`` (a float or an array) is exhausted: within
    1e-15 relative of y_bar, where nothing is left to install."""
    return y >= params.y_bar * (1.0 - 1e-15)


def r_value(params: ModelParams, x: float, y: float) -> float:
    """Expected discounted profit of the never-install strategy from (x, y);
    the price may be NaN or infinite."""
    check_real("price x", x, DomainError)
    check_capacity(params, y)
    rk = params.rho + params.kappa
    return (
        x * y / rk
        + params.mu * params.kappa * y / (params.rho * rk)
        - params.kappa * params.beta * y * y / (params.rho * rk)
    )


def r_partials(params: ModelParams, x: float, y: float):
    """Closed-form partials (R_y, R_xy, R_x) of the no-installation payoff;
    the arguments are checked as by :func:`r_value`."""
    check_real("price x", x, DomainError)
    check_capacity(params, y)
    rk = params.rho + params.kappa
    r_y = (
        x / rk
        + params.mu * params.kappa / (params.rho * rk)
        - 2.0 * params.kappa * params.beta * y / (params.rho * rk)
    )
    return r_y, 1.0 / rk, y / rk
