"""Exception hierarchy.

``ValidationError`` messages always name the invariant that failed, so the
CLI can surface them verbatim.
"""


class MrtestError(Exception):
    """Base class for all package errors."""


class ValidationError(MrtestError, ValueError):
    """An input violates a stated invariant (shape, range, ordering...)."""


class InvalidObservableError(ValidationError):
    """Observable is not dichotomic (its square is not the identity)."""


class InputFormatError(MrtestError, ValueError):
    """A model/moments/sweep file is malformed or names unknown quantities."""
