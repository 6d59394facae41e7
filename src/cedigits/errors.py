"""Exception types shared across the package."""


class SequenceExhaustedError(Exception):
    """Raised when a finite sequence has no further members to serve."""


class CapExceededError(Exception):
    """Raised when a query would exceed a configured resource cap.

    Counting queries never degrade to approximations; a query past the
    counting cap fails with this error instead.
    """


class UndefinedStatisticError(ValueError):
    """Raised when the iterated-logarithm statistic is requested at a
    position where it is not defined (prefix length below 16)."""
