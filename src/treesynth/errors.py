"""Exception hierarchy shared across the package.

The CLI maps these onto exit codes by class: ArgumentError and its
subclass SizeGuardError exit with 2, ConvergenceError with 4, and every
other error (DataError, its subclass InfeasibleError, NumericalError)
with 3.
"""

from __future__ import annotations


class TreesynthError(Exception):
    """Base class for all package errors."""


class ArgumentError(TreesynthError, ValueError):
    """Caller passed an invalid argument."""


class SizeGuardError(ArgumentError):
    """A brute-force oracle was asked to exceed its size guard."""


class DataError(TreesynthError, ValueError):
    """Input data is malformed or inconsistent."""


class InfeasibleError(DataError):
    """The requested problem has no feasible solution."""


class NumericalError(TreesynthError, ArithmeticError):
    """A numerically degenerate matrix was encountered."""


class ConvergenceError(TreesynthError, RuntimeError):
    """An iterative solver failed to reach its tolerance.

    Carries the best iterate found so far in ``best`` when available.
    """

    def __init__(self, message: str, best=None):
        super().__init__(message)
        self.best = best
