"""The base of the engine's value classes.

A value class names its fields in ``_fields`` and takes its ``repr``,
pickling and ``__eq__`` from ``Value``; a frozen one also takes
``Frozen``'s ``__hash__`` and its refusal of every assignment, so its
fields are stored with ``set_field``.  An instance equals only an instance
of its own class, a mutable value is unhashable, and a frozen one hashes
as the tuple of its fields.

A class that only stores its fields takes ``Value``'s ``__init__``, which
binds them in ``_fields`` order, by position or by name.  One that checks
or derives a field, has a default, or is built in an inner loop writes its
own: ``Weight`` is built about 10700 times in a pass of the benchmark's
ambient_grid, where the generic loop over ``_fields`` would show.  The
standard library's class generator would import ``inspect``, ``ast`` and
``dis`` and pass every method it writes through ``exec``: about 1 MB and
15-20 ms of each fresh process.
"""

from __future__ import annotations

__all__ = ["Value", "Frozen", "set_field"]

# stores a field past ``Frozen.__setattr__``
set_field = object.__setattr__


class Value:
    """``__init__``, ``repr`` as ``Name(field=value, ...)``, pickling and
    equality field by field, equal only to an instance of the same class."""

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if kwargs or len(args) != len(fields):
            bound = dict(zip(fields, args), **kwargs)
            if len(args) + len(kwargs) != len(fields) or bound.keys() != set(fields):
                raise TypeError(f"{type(self).__qualname__} takes the fields {fields}; "
                                f"got {len(args)} by position and {sorted(kwargs)} by name")
            args = [bound[name] for name in fields]
        for name, value in zip(fields, args):
            set_field(self, name, value)

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
