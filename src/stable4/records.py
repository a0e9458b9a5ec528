"""Immutable value records.

A record's fields are the names annotated in its own class body, in order.
Records compare equal when they are of the same class and their fields
agree, hash as the tuple of their fields, print as ``Name(field=value, ...)``,
refuse assignment and deletion, and pickle and copy by calling the class on
their fields.  No record writes its own ``__eq__`` or ``__hash__``: Record
gives every subclass both, and ``__reduce__``, reading the fields through one
C-level ``operator.attrgetter`` per class.

Each subclass writes its own ``__init__``, which checks the arguments and
then stores the fields past the frozen ``__setattr__``.  Record itself has
empty ``__slots__``, so a subclass that declares its own has no instance
dict.  The records made in bulk, F2Vec, F2Mat and Word, do: a closure
builds one F2Mat per product and an orbit one F2Vec per state, and their
private builders store each field through its slot descriptor's
``__set__``, bound once as a module global, which builds an object faster
than ``object.__setattr__`` into a per-instance layout.  The other records
store through ``self.__dict__``, or, in the group families,
``object.__setattr__``.

A record that declares a ``_hash`` slot keeps its hash there: the first
``hash`` computes the field-tuple hash and stores it, later ones return it.
The value is the same, the slot is no field, so equality, repr, pickles and
copies ignore it, and no builder fills it.  Only ``Word`` declares it: a
Fox derivative over a free group keys its terms, and a group-ring sum or
product its results, by words of up to hundreds of letters, and hashes each
word several times.  An ``F2Vec`` or ``F2Mat`` is hashed about once, in a
closure or an orbit, so a stored hash would cost it a miss and save nothing.
"""

from __future__ import annotations

from operator import attrgetter


class Record:
    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(cls.__annotations__)
        # The methods close over the getter, as CPython 3.11 does not specialize
        # reading a class attribute off an instance.  Given one name,
        # attrgetter returns the bare value, so it is wrapped in a 1-tuple.
        get = attrgetter(*cls._fields)
        if len(cls._fields) > 1:
            values = get
            field_hash = lambda self: hash(get(self))
        else:
            values = lambda record: (get(record),)
            field_hash = lambda self: hash((get(self),))
        if "_hash" in cls.__dict__.get("__slots__", ()):
            set_hash = cls._hash.__set__

            def __hash__(self):
                # An unset slot raises, so no builder has to fill it.
                try:
                    return self._hash
                except AttributeError:
                    value = field_hash(self)
                    set_hash(self, value)
                    return value

            cls.__hash__ = __hash__
        else:
            cls.__hash__ = field_hash

        def __eq__(self, other):
            if other.__class__ is self.__class__:
                return get(self) == get(other)
            return NotImplemented

        cls.__eq__ = __eq__
        cls.__reduce__ = lambda self: (self.__class__, values(self))

    def __repr__(self) -> str:
        parts = (f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({', '.join(parts)})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")
