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
"""

from __future__ import annotations

import json
import math
import numbers
from dataclasses import dataclass

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

PARAM_FIELDS = ("kappa", "mu", "sigma", "rho", "c", "beta", "y_bar", "alpha")


@dataclass(frozen=True)
class ModelParams:
    """Economic and dynamical constants.

    kappa : mean-reversion speed (1/time), > 0
    mu    : long-run price level
    sigma : price volatility, > 0
    rho   : discount rate, > 0
    c     : unit installation cost, >= 0
    beta  : permanent price impact per unit of installed power, > 0
    y_bar : maximum installable power, > 0
    alpha : production proportionality (power -> revenue), > 0; rescaled away
            by :func:`validate`, which folds it into an effective cost c/alpha.
    """

    kappa: float
    mu: float
    sigma: float
    rho: float
    c: float
    beta: float
    y_bar: float
    alpha: float = 1.0


def validate(params: ModelParams) -> ModelParams:
    """Check parameter constraints and normalize the production factor.

    Every field must be a finite real number (``bool`` is not one, nor an
    integer beyond the float64 range).  Returns a new parameter set of
    floats with the cost rescaled to c/alpha, which must be finite too, and
    alpha set to 1; the control problem is invariant under this rescaling.
    Raises :class:`ValidationError` naming the first offending field.
    """
    strict_positive = ("kappa", "sigma", "rho", "beta", "y_bar", "alpha")
    values = {}
    for name in PARAM_FIELDS:
        value = getattr(params, name)
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValidationError(name, f"not a number: {value!r}")
        try:
            value = float(value)
        except OverflowError:  # an int beyond float64, as JSON reads a long literal
            value = math.inf
        if not math.isfinite(value):
            raise ValidationError(name, "must be finite")
        if name in strict_positive and value <= 0.0:
            raise ValidationError(name, f"must be > 0, got {value}")
        values[name] = value
    if values["c"] < 0.0:
        raise ValidationError("c", f"must be >= 0, got {values['c']}")
    c = values["c"] / values["alpha"]
    if not math.isfinite(c):
        raise ValidationError("c", f"c/alpha = {values['c']}/{values['alpha']} overflows float64")
    return ModelParams(**{**values, "c": c, "alpha": 1.0})


def params_from_dict(data: dict) -> ModelParams:
    """Build validated parameters from a flat mapping (missing alpha -> 1);
    anything but a dict (a JSON object) raises :class:`ValidationError`
    for ``<root>``."""
    if not isinstance(data, dict):
        raise ValidationError("<root>", f"must be a JSON object, got {type(data).__name__}")
    unknown = set(data) - set(PARAM_FIELDS)
    if unknown:
        raise ValidationError(sorted(unknown)[0], "unknown parameter")
    missing = set(PARAM_FIELDS) - {"alpha"} - set(data)
    if missing:
        raise ValidationError(sorted(missing)[0], "missing required parameter")
    return validate(ModelParams(**data))


def params_from_json(path) -> ModelParams:
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    return params_from_dict(data)


def table_preset(mu: float = 0.2) -> ModelParams:
    """Validated baseline preset with the requested long-run mean."""
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


def check_capacity(params: ModelParams, y: float) -> float:
    """y clamped to [0, y_bar]; DomainError beyond a 1e-12 relative slack."""
    if not 0.0 <= y <= params.y_bar * (1.0 + 1e-12):
        raise DomainError(f"installed power y={y} outside [0, {params.y_bar}]")
    return min(y, params.y_bar)


def at_capacity(params: ModelParams, y):
    """Whether capacity ``y`` (a float or an array) is exhausted: within
    1e-15 relative of y_bar, where nothing is left to install."""
    return y >= params.y_bar * (1.0 - 1e-15)


def r_value(params: ModelParams, x: float, y: float) -> float:
    """Expected discounted profit of the never-install strategy from (x, y)."""
    check_capacity(params, y)
    rk = params.rho + params.kappa
    return (
        x * y / rk
        + params.mu * params.kappa * y / (params.rho * rk)
        - params.kappa * params.beta * y * y / (params.rho * rk)
    )


def r_partials(params: ModelParams, x: float, y: float):
    """Closed-form partials (R_y, R_xy, R_x) of the no-installation payoff."""
    rk = params.rho + params.kappa
    r_y = (
        x / rk
        + params.mu * params.kappa / (params.rho * rk)
        - 2.0 * params.kappa * params.beta * y / (params.rho * rk)
    )
    return r_y, 1.0 / rk, y / rk
