"""Exception types shared across the package."""


class ParameterError(ValueError):
    """A construction parameter is outside its documented range."""


class ContractError(ValueError):
    """Arguments violate a documented precondition (mismatched domain, wrong field type, ...)."""


class DomainError(ValueError):
    """A point lies outside the domain where the operation is defined."""


class ResolutionError(RuntimeError):
    """A grid is too coarse for the requested stencil or the noise budget."""


class NotInCollarError(RuntimeError):
    """No boundary hitting time exists within the searched window."""


class DegenerateInputError(ValueError):
    """An input is identically zero where a nonzero denominator is required."""


class ConditioningError(RuntimeError):
    """A matrix factorization failed; reports the offending truncation."""

    def __init__(self, message, truncation=None):
        super().__init__(message)
        self.truncation = truncation
