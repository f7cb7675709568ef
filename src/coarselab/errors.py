"""Shared exception types.

Every error that carries a witness (a point, a ball, a pair of pieces)
stores it on the exception so callers and the CLI can report it.
"""

from __future__ import annotations


class CoarselabError(Exception):
    """Base class for all library errors."""


class SchemaError(CoarselabError):
    """A manifest or artifact file does not match its expected schema."""


class SizeCapError(CoarselabError):
    """A construction would exceed its configured size cap."""


class EmptySpaceError(CoarselabError):
    """A window too small to contain a single point."""


class PreconditionError(CoarselabError):
    """An operation's stated precondition failed; ``witness`` says where."""

    def __init__(self, message: str, witness=None):
        super().__init__(message)
        self.witness = witness


class UnsupportedError(CoarselabError, ValueError):
    """A parameter the code cannot honour; rejected before any work.  A
    ``ValueError`` too, as Python reports a bad argument value."""


class DomainError(CoarselabError):
    """A map is undefined on: some required point."""


class ArityError(CoarselabError):
    """Mismatched colour counts or factor counts."""


class DataError(CoarselabError):
    """Not enough (untruncated) data to run an estimator."""


class TruncationError(CoarselabError):
    """All radii hit the window boundary; enlarge the window."""


class AssignmentError(CoarselabError):
    """A point could not be assigned to any tile (numeric gap)."""

    def __init__(self, message: str, point=None):
        super().__init__(message)
        self.point = point


class NumericError(CoarselabError):
    """A numeric solve failed to converge."""
