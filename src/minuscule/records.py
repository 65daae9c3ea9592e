"""Plain record classes, built without ``dataclasses``.

A record class lists its fields, in constructor order, as its
``__slots__`` and writes its own ``__init__``, so its signature and its
validation stay in view.  Two records are equal when they have the same
class and equal field tuples; the tuple is read in C by one
``operator.attrgetter`` per class.  A frozen record also hashes that tuple
and refuses assignment with ``AttributeError``.  The repr has the form
``Name(field=value, ...)``, and a record pickles and copies through its
constructor.

Each field's slot is a member descriptor, and a record class binds the
``__set__`` of each once, in ``__slots__`` order, as ``_setters``.  They
set a slot past a refusing ``__setattr__``: ``_fill`` sets every field
through them, and the unchecked ``_trusted`` constructors of the hot
records bind them to module names and call them directly, in about half
the time that ``object.__setattr__`` by name takes.  A validating
constructor checks and normalises its arguments first and calls
``_fill`` once they pass, so no record ever holds unchecked input.
"""
from __future__ import annotations

import operator


class Record:
    """A mutable record: field equality, no hash."""

    __slots__ = ()
    __hash__ = None

    def __init_subclass__(cls):
        names = cls.__slots__
        if names:
            get = operator.attrgetter(*names)
            cls._key = get if len(names) > 1 else staticmethod(lambda r: (get(r),))
            cls._setters = tuple(getattr(cls, name).__set__ for name in names)

    def _fill(self, *values):
        """Set the fields in ``__slots__`` order, past any refusing ``__setattr__``."""
        for put, value in zip(self._setters, values):
            put(self, value)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key(self) == self._key(other)
        return NotImplemented

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._key(self)


class FrozenRecord(Record):
    """An immutable record: it hashes its field tuple and refuses assignment."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key(self))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")
