"""Immutable value records.

A record's fields are the names annotated in its own class body, in order.
Records compare equal when they are of the same class and their fields
agree, hash as the tuple of their fields, print as ``Name(field=value, ...)``,
refuse assignment and deletion, and pickle and copy by calling the class on
their fields.

Each subclass writes its own ``__init__``, which checks the arguments and
then stores the fields past the frozen ``__setattr__``: through
``self.__dict__``, which builds fastest, or, in the records made and read in
bulk (F2Vec, F2Mat, Word and the group families), with
``object.__setattr__``.  That keeps CPython's compact attribute layout, with
no dict per instance, so those are smaller and read and hash faster.
"""

from __future__ import annotations


class Record:
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._fields)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        parts = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({', '.join(parts)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return self.__class__, self._values()
