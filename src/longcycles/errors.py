"""Exception types shared across the package."""


class NotSeparatedError(ValueError):
    """A permutation mixes elements from different blocks."""


class NoSuchPartError(ValueError):
    """A partition has no part of the requested size."""


class DomainError(ValueError):
    """Arguments are outside the domain where a formula is defined."""


class DimensionMismatchError(DomainError):
    """Paired arguments have incompatible lengths."""


class ResourceLimitError(RuntimeError):
    """An enumeration request exceeds the configured size guard."""


class ExactnessError(ArithmeticError):
    """An internally computed quantity failed an exact-integrality check.

    Raised instead of ever rounding: every count in this package is an exact
    integer, so a non-integer intermediate means a bug, not a tolerance issue.
    """
