"""Exception hierarchy used across the package."""


class SolarInvestError(Exception):
    """Base class for all package errors."""


class ValidationError(SolarInvestError):
    """A model parameter violates its constraints; names the offending field."""

    def __init__(self, field, message):
        self.field = field
        super().__init__(f"{field}: {message}")


class DomainError(SolarInvestError):
    """An argument lies outside the mathematical domain of an operation."""


class NumericalError(SolarInvestError):
    """A numerical procedure failed to reach its tolerance.

    Carries ``achieved`` (the tolerance actually reached) when available.
    """

    def __init__(self, message, achieved=None):
        self.achieved = achieved
        if achieved is not None:
            message = f"{message} (achieved tolerance {achieved:.3e})"
        super().__init__(message)


class SolverError(SolarInvestError):
    """Root finding failed (the anchor's Newton iteration did not converge)."""


class IntegrationError(SolarInvestError):
    """The boundary ODE integration violated an invariant or hit a singularity."""


class SimulationError(SolarInvestError):
    """A simulated path produced a non-finite state."""


class ConfigurationError(SolarInvestError):
    """A run configuration is inconsistent (for example, horizon too short)."""
