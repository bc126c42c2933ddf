"""Shared exception types.

ValidationError covers malformed input: bad words, bad graphs, mismatched
alphabets or levels.  PreconditionError covers structurally valid input that
violates a documented precondition of an operation.  InvariantError is a
result failing a check the mathematics guarantees: a bug, not bad input.
The ``jfilt`` command maps the three to exit codes 2, 3 and 4.
``payload_fields`` is the one check of a JSON document's fields that every
reader makes, and ``excerpt`` the one way a refusal quotes the input.
"""


class ValidationError(ValueError):
    pass


class PreconditionError(ValueError):
    pass


class InvariantError(RuntimeError):
    pass


class NotOrientable(Exception):
    """Raised when a unitrivalent graph admits no source-free orientation."""


# Most characters of the input a refusal quotes.
_EXCERPT = 40


def excerpt(value) -> str:
    """The repr of a value that a refusal quotes.  A repr longer than
    ``_EXCERPT`` characters is cut there and followed by the length (a
    string's own, else the repr's), so that the refusal stays one short line."""
    text = repr(value)
    if len(text) <= _EXCERPT:
        return text
    return "%s... (%d characters)" % (text[:_EXCERPT], len(value) if isinstance(value, str) else len(text))


# The JSON name of each field type a reader asks for.
_JSON_TYPES = {int: "an integer", list: "a list", dict: "an object"}


def payload_fields(data, what: str, **kinds) -> list:
    """The values of the named fields of the JSON object ``data``, in the
    order given, each checked against its type; a bool is not an integer.
    Refusals read "bad <what> payload: ..."."""
    if not isinstance(data, dict):
        raise ValidationError("bad %s payload: expected a JSON object" % (what,))
    values = []
    for name, kind in kinds.items():
        if name not in data:
            raise ValidationError("bad %s payload: missing field %r" % (what, name))
        value = data[name]
        if not isinstance(value, kind) or isinstance(value, bool):
            raise ValidationError("bad %s payload: %s must be %s" % (what, name, _JSON_TYPES[kind]))
        values.append(value)
    return values
