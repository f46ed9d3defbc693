"""The base of the engine's value classes.

A value class names its fields in ``_fields``, in ``__init__`` order, and
takes its ``repr`` and pickling from ``Value``; a frozen one also takes
``Frozen``'s refusal of every assignment, so its ``__init__`` stores each
field with ``set_field``.  Each class writes out its own ``__init__``,
``__eq__`` and (when frozen) ``__hash__``: generic ones that read
``_fields`` at every call took 1.4-1.9 times as long on CPython 3.11.  An
instance equals only an instance of its own class, and a frozen one hashes
as the tuple of its compared fields.  ``__eq__`` compares field by field
with ``and``, which builds no tuples, except where a field holds value
objects or fractions: a tuple comparison skips a field identical on both
sides (the one cached surface, say) without calling its ``__eq__``.  The
standard library's class generator would import ``inspect``, ``ast`` and
``dis`` and pass every method it writes through ``exec``: about 1 MB and
15-20 ms of each fresh process.
"""

from __future__ import annotations

__all__ = ["Value", "Frozen", "set_field"]

# stores a field past ``Frozen.__setattr__``
set_field = object.__setattr__


class Value:
    """``repr`` as ``Name(field=value, ...)`` and pickling by ``__init__``."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), tuple(getattr(self, name) for name in self._fields)


class Frozen(Value):
    """A value whose fields cannot be assigned or deleted."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
