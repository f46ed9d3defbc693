"""Exception taxonomy shared across the engine."""

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
