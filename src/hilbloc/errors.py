"""Exception taxonomy shared across the engine: bad input is a UsageError
(exit 2), a tangent weight that specializes to zero a PoleError (exit 1).
A leaf module, so every module, ``toric`` too, takes ``check_int`` here."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for everything this package raises on purpose."""


class UsageError(EngineError):
    """Malformed input: bad degrees, unknown bundle ids, bad expressions."""


class ComputationError(EngineError):
    """A computation that started from valid input could not finish."""


class PoleError(ComputationError):
    """A localization denominator specialized to zero; retry with a fresh pair."""


class ParseError(UsageError):
    """Expression syntax error; carries a 1-based column."""

    def __init__(self, message: str, column: int):
        super().__init__(f"{message} (column {column})")
        self.column = column


def check_int(value, name: str) -> None:
    """Refuse a value that is not an int.  A bool is refused too: it would
    key its own cache lines."""
    if type(value) is not int:
        raise UsageError(f"{name} must be an integer, got {value!r}")
