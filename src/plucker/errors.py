"""Shared exception types, the base of the value types, and the integer checks."""

import operator


class ParameterError(ValueError):
    """Arguments violate a documented precondition."""


class EmptyIntervalError(ParameterError):
    """Interval endpoints are not comparable in the componentwise order."""


class ShapeError(ParameterError):
    """Matrix does not match the required banded shape."""


class DecompositionError(ArithmeticError):
    """Unpivoted triangular factorization hit a vanishing leading minor.

    ``index`` is the 1-based size of the offending leading principal minor.
    """

    def __init__(self, index: int, message: str | None = None):
        self.index = index
        super().__init__(message or f"leading principal minor {index} is zero")


class EvaluationError(ArithmeticError):
    """Expression evaluation required the inverse of a zero value."""


class BudgetError(RuntimeError):
    """Requested enumeration exceeds the configured size guard."""


class ConfigError(ValueError):
    """Sweep configuration is invalid."""


class ParseError(ValueError):
    """Malformed text input."""

    def __init__(self, message: str, line: int | None = None, column: int | None = None):
        self.line = line
        self.column = column
        where = ""
        if line is not None:
            where = f" (line {line}" + (f", column {column}" if column is not None else "") + ")"
        super().__init__(message + where)


class Immutable:
    """Base of the value types.  No attribute is written or deleted after
    ``__init__``, which sets the slots with ``object.__setattr__`` or the
    slot's own descriptor; so a copy is the value itself.  Not picklable:
    unpickling would write the slots through ``__setattr__``."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


def as_int(value) -> int:
    """``value`` as an int if it is one (``operator.index``), so that no float,
    Fraction or string is rounded or parsed on the way; else a ParameterError."""
    try:
        return operator.index(value)
    except TypeError:
        raise ParameterError(f"{value!r} is not an integer") from None


def ascii_int(text: str, signed: bool = False) -> int:
    """``text`` as an int if it is ASCII digits, after one ``-`` if ``signed``, else a
    ParseError: ``int()`` alone would also take "+1", "1_0", spaces and other scripts' digits."""
    digits = text[1:] if signed and text.startswith("-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ParseError(f"{text!r} is not {'an' if signed else 'a nonnegative'} integer")
    return int(text)
