"""Optimal irreversible solar-capacity installation under price impact.

Solves a two-dimensional singular control problem in closed form: a
mean-reverting electricity price whose long-run level falls with installed
capacity, an installation threshold solving a first-order ODE, the piecewise
value function it induces, and a Monte Carlo harness that verifies the
analytic solution pathwise.
"""

from .boundary import (FreeBoundary, Regime, Region, classify_regime,
                       integrate_boundary, ode_rhs, r_tilde, solve_x_tilde, y_star)
from .errors import (ConfigurationError, DomainError, IntegrationError,
                     NumericalError, SimulationError, SolarInvestError,
                     SolverError, ValidationError)
from .fundamental import FundamentalSolution
from .model import (ModelParams, params_from_dict, params_from_json, r_partials,
                    r_value, table_preset)
from .simulate import (FixedThreshold, ImmediateFull, NeverInstall,
                       OptimalReflection, PathRecord, SimulationResult,
                       dominance_report, estimate_value, estimate_value_many,
                       simulate_path, verification_states)
from .value import ValueFunction

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError", "DomainError", "FixedThreshold", "FreeBoundary",
    "FundamentalSolution", "ImmediateFull", "IntegrationError", "ModelParams",
    "NeverInstall", "NumericalError", "OptimalReflection", "PathRecord",
    "Regime", "Region", "SimulationError", "SimulationResult",
    "SolarInvestError", "SolverError", "ValidationError",
    "ValueFunction", "classify_regime",
    "dominance_report", "estimate_value", "estimate_value_many",
    "integrate_boundary", "ode_rhs", "params_from_dict",
    "params_from_json", "r_partials", "r_tilde", "r_value",
    "simulate_path", "solve_x_tilde", "table_preset",
    "verification_states", "y_star",
]
