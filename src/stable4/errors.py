"""Error types shared across the library.

The CLI maps these onto its exit codes: InputError -> 1 (usage),
DomainError -> 2 (mathematically invalid request), CapExceeded -> 3.
Loaders of JSON input test integers with `is_int`, so that neither a bool
nor a float nor a string slips through as a number.
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
