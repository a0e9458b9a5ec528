"""Error types shared across the library.

The CLI maps these onto its exit codes: InputError -> 1 (usage),
DomainError -> 2 (mathematically invalid request), CapExceeded -> 3.
Loaders of JSON input test integers with `is_int`, so that neither a bool
nor a float nor a string slips through as a number; `as_int` refuses such a
value as input.  Constructors read their sequence arguments through
`as_tuple`, so that a number given for one is refused as input.  Loops
that unpack pairs read them into a tuple first and call `check_pairs` on
that tuple only once they have failed, so that the pairs are checked once
on the way that succeeds, and all of them, one-shot iterators included,
on the way that fails.
"""


class InputError(ValueError):
    """Malformed input: unparseable words, bad JSON shapes, unknown names."""


class DomainError(ValueError):
    """Valid syntax but an invalid request: family mismatches, divisibility
    violations, degenerate forms, and the like."""


class CapExceeded(RuntimeError):
    """An exact enumeration grew past its configured cap."""


def is_int(value) -> bool:
    """True for an int that is not a bool (JSON true/false load as bools)."""
    return isinstance(value, int) and not isinstance(value, bool)


def as_int(value, what: str) -> int:
    """value itself when it is an int and not a bool; InputError naming
    value otherwise, e.g. "signature 1.5 is not an integer"."""
    if not is_int(value):
        raise InputError(f"{what} {value!r} is not an integer")
    return value


def as_tuple(value, what: str) -> tuple:
    """The items of value as a tuple; InputError naming value when it is
    not iterable, e.g. "relators 3 are not a sequence"."""
    try:
        return tuple(value)
    except TypeError:
        raise InputError(f"{what} {value!r} are not a sequence") from None


def check_pairs(value, what: str, item: str) -> None:
    """Refuse value as input when it is not iterable or holds an item that
    is not a pair, naming value or the item, e.g. "word letters 5 are not a
    sequence" or "letter (0,) is not a pair".  For the error path of a loop
    over value that unpacked pairs and failed: value is read again, so it
    should be the tuple the loop read, not a one-shot iterator."""
    for x in as_tuple(value, what):
        try:
            _, _ = x
        except (TypeError, ValueError):
            raise InputError(f"{item} {x!r} is not a pair") from None
