"""Exception types shared across the package."""


class InputDomainError(ValueError):
    """An argument is outside the domain an operation is defined on."""


class EvaluationError(ValueError):
    """A user-supplied function returned a non-finite or undefined value."""


class IllPosedError(ValueError):
    """A problem instance has no stable solution (e.g. vanishing spectral gap)."""

    def __init__(self, message: str, detail=None):
        super().__init__(message)
        self.detail = detail


class ConfigError(ValueError):
    """A scenario or quadrature configuration is invalid."""
