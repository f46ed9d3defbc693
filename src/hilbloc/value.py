"""The base of the engine's value classes.

A value class names its fields in ``_fields``, in ``__init__`` order, and
takes its ``repr``, pickling and ``__eq__`` from ``Value``; a frozen one
also takes ``Frozen``'s ``__hash__`` and its refusal of every assignment,
so its ``__init__`` stores each field with ``set_field``.  An instance
equals only an instance of its own class, a mutable value is unhashable,
and a frozen one hashes as the tuple of its fields.

Each class writes out its own ``__init__``: ``Weight`` alone is built about
8000 times in a pass of the benchmark's ambient_grid, and one generic
initializer that read ``_fields`` took about twice as long per call.
``__eq__`` and ``__hash__`` are generic: a pass of any benchmark workload
calls them at most a few hundred times, so their cost per call does not
show.  The standard library's class generator would import ``inspect``,
``ast`` and ``dis`` and pass every method it writes through ``exec``: about
1 MB and 15-20 ms of each fresh process.
"""

from __future__ import annotations

__all__ = ["Value", "Frozen", "set_field"]

# stores a field past ``Frozen.__setattr__``
set_field = object.__setattr__


class Value:
    """``repr`` as ``Name(field=value, ...)``, pickling by ``__init__`` and
    equality field by field with an instance of the same class."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __repr__(self) -> str:
        shown = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({shown})"

    def __reduce__(self):
        return type(self), self._values()


class Frozen(Value):
    """A value whose fields cannot be assigned or deleted, hashed as the
    tuple of its fields."""

    __slots__ = ()

    def __hash__(self) -> int:
        return hash(self._values())

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
