"""Exception types shared across the package.

The CLI maps these onto exit codes: ValidationError (and subclasses) exit
with 1, ConsistencyError and ConvergenceError with 2.
"""

__all__ = ["ValidationError", "CutoffTooSmallError", "ConsistencyError", "ConvergenceError"]


class ValidationError(ValueError):
    """Malformed input: geometry, drive, config or argument contract violated."""


class CutoffTooSmallError(ValidationError):
    """Harmonic cutoff left too much spectral weight outside the window."""

    def __init__(self, message: str, tail_mass: float):
        super().__init__(message)
        self.tail_mass = tail_mass


class ConsistencyError(RuntimeError):
    """A verification cross-check failed: results disagree beyond tolerance."""


class ConvergenceError(RuntimeError):
    """An iterative numerical scheme exhausted its budget without converging."""
