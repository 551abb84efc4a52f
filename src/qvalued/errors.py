"""Exception types shared by all qvalued modules, and the one check of a count."""

import numbers


class QValuedError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(QValuedError, ValueError):
    """An argument violates a documented precondition (shape, range, structure)."""


class NotInBallError(QValuedError):
    """A sheet of the perturbed tuple lies in no site ball of the admissible cover."""


class FrameConstructionError(QValuedError):
    """The angle-separated frame failed its direct verification.

    Carries the worst offending (direction, axis) pair in ``worst``.
    """

    def __init__(self, message, worst=None):
        super().__init__(message)
        self.worst = worst


class InvalidStepError(QValuedError):
    """A finite-difference step produced a non-diffeomorphic domain map."""


class NumericalFailureError(QValuedError):
    """A numerical routine produced non-finite values or violated a certified bound."""


def _is_count(value, least: int) -> bool:
    """Whether value is a whole number of at least ``least``; bool reads as a flag."""
    return not isinstance(value, bool) and isinstance(value, numbers.Integral) and value >= least
