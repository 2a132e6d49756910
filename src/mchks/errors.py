"""Exception and warning types shared across the package."""


class DomainError(ValueError):
    """Argument outside the proper domain of a singular potential."""


class ConvergenceError(RuntimeError):
    """An iterative scalar or linear solve failed to reach tolerance."""


class MeanError(ValueError):
    """Operand violates a zero-mean precondition."""


class NewtonDivergence(RuntimeError):
    """Newton iteration for the implicit phase-field step did not converge."""

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class NonFiniteField(RuntimeError):
    """A field picked up NaN or Inf values during time stepping."""


class RangeError(ValueError):
    """Parameter outside the validity range of a formula, such as the
    positive apoptosis rate ``diagnostics.mass_corridor`` needs."""


class GridMismatch(ValueError):
    """Two runs being compared do not share a grid or parameter set."""


class ParseError(ValueError):
    """Config text could not be parsed."""

    def __init__(self, line, key, message):
        super().__init__(f"line {line}: {key!r}: {message}")
        self.line = line
        self.key = key


class ValidationError(ValueError):
    """Config parsed but violates a model constraint."""


class InitialDataError(ValidationError):
    """Initial data violate an admissibility requirement.

    ``constraint`` is a short machine-readable name for the violated
    requirement, e.g. ``"c0-range"``.
    """

    def __init__(self, constraint, message):
        super().__init__(f"{constraint}: {message}")
        self.constraint = constraint


class BoundsViolation(UserWarning):
    """Data outside the bounds an advisory hypothesis declares, such as a
    mobility outside its declared bounds (diagnostic, non-fatal)."""
