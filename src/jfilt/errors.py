"""Shared exception types.

ValidationError covers malformed input: bad words, bad graphs, mismatched
alphabets or levels.  PreconditionError covers structurally valid input that
violates a documented precondition of an operation.  InvariantError is a
result failing a check the mathematics guarantees: a bug, not bad input.
The ``jfilt`` command maps the three to exit codes 2, 3 and 4.
"""


class ValidationError(ValueError):
    pass


class PreconditionError(ValueError):
    pass


class InvariantError(RuntimeError):
    pass


class NotOrientable(Exception):
    """Raised when a unitrivalent graph admits no source-free orientation."""
