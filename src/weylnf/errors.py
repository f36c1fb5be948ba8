"""Exception hierarchy shared across the package.

Every error carries an ``exit_code`` so the command line driver can map
failures onto its documented exit statuses.
"""

from __future__ import annotations


class WeylnfError(Exception):
    """Base class for all package errors."""

    exit_code = 1


class ParseError(WeylnfError):
    """Syntax error in an operator expression, with source location."""

    exit_code = 2

    def __init__(self, message: str, line: int = 1, col: int = 1):
        super().__init__(f"{message} (line {line}, col {col})")
        self.line = line
        self.col = col


class UsageError(WeylnfError):
    """A command line that the argument parser rejects."""

    exit_code = 2


class PreconditionError(WeylnfError):
    """An operation was called on inputs that violate its contract."""

    exit_code = 3


class ContextMismatchError(PreconditionError):
    """Mixed cyclotomic orders in a single arithmetic expression."""


class DivisionByZeroError(PreconditionError):
    """Inversion of the zero scalar."""


class UndefinedOrderError(PreconditionError):
    """ord() of an operator with no nonzero component in its window."""


class TruncationError(WeylnfError):
    """A result would need data outside the exactness window.

    ``required`` describes what extra depth or x-degree would be needed.
    """

    exit_code = 4

    def __init__(self, message: str, required: dict | None = None):
        super().__init__(message)
        self.required = dict(required or {})


class NotAnHcpError(WeylnfError):
    """A homogeneous component failed the fit within the given bounds.

    This is evidence that the bounds (or the window) are too small, not a
    disproof of representability.
    """

    exit_code = 4


class PropertyViolation(WeylnfError):
    """A verified identity or suite check failed."""

    exit_code = 5
