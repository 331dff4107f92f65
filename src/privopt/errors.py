"""Exception hierarchy shared across the package."""

__all__ = [
    "PrivoptError",
    "ValidationError",
    "DomainError",
    "UsageError",
    "NumericError",
    "ClosedFormInapplicableError",
]


class PrivoptError(Exception):
    """Base class for all package errors."""


class ValidationError(PrivoptError, ValueError):
    """A scenario or input file violates a declared invariant.

    Carries the offending field name so callers can report it.
    """

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(f"{field}: {message}")


class DomainError(PrivoptError, ValueError):
    """An operation was called with an argument outside its domain."""


class UsageError(PrivoptError, RuntimeError):
    """An operation was called in a regime or state it does not support."""


class NumericError(PrivoptError, RuntimeError):
    """A numeric procedure failed to converge; never returned silently."""


class ClosedFormInapplicableError(PrivoptError):
    """The secure-provider closed form does not apply (nu >= 1 + theta)."""
