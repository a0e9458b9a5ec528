"""Hermitian forms over the group ring and their parity and signature.

A form on Ipi^eps + Zpi^k is stored through its unique extension to a
hermitian matrix over Zpi (the pairing on the augmentation ideal extends
uniquely to the whole group ring, and restricting the first slot recovers
it).  At most one augmentation-ideal summand is supported, which matches
every module shape that arises here.

Matrices are stored by their nonzeros, and the checks cost what is distinct
in a form: the hermitian check compares each pair of mirror entries once
and inverts each distinct group element once, and the integer signature
eliminates each distinct connected component once, so a model plus k
copies of E8 pays for one E8.
"""

from __future__ import annotations

import enum
from collections.abc import Mapping, Sequence
from itertools import compress

from .errors import DomainError, InputError, is_int
from .groupring import (
    RingElem,
    augmentation,
    conjugate_matcher,
    in_image_one_plus_T,
    ring_elem_reader,
    ring_elem_writer,
)
from .records import Record
from .words import GroupFamily, family_from_json, family_to_json


class Parity(enum.Enum):
    EVEN = "even"
    ODD = "odd"


class RingMatrix:
    """Square matrix over one family's group ring, stored by its nonzeros.

    Row i is a dict {column: RingElem} holding the nonzero entries of row i
    only, in increasing column order, and `entry` returns a shared zero
    everywhere else, so the methods below cost the number of nonzeros, not
    n^2.  Row dicts are never changed after construction, which lets a
    direct sum share its operand's rows.
    """

    __slots__ = ("family", "_rows", "_zero")

    def __init__(self, family: GroupFamily, entries: Sequence[Sequence[RingElem]]):
        dense = [tuple(row) for row in entries]
        n = len(dense)
        rows = []
        for row in dense:
            if len(row) != n:
                raise DomainError("matrix must be square")
            for x in row:
                if not isinstance(x, RingElem) or (
                    x.family is not family and x.family != family
                ):
                    raise DomainError("entries must be ring elements of the family")
            rows.append({j: x for j, x in enumerate(row) if not x.is_zero})
        self.family = family
        self._rows = tuple(rows)
        self._zero = RingElem.zero(family)

    @classmethod
    def _trusted(cls, family: GroupFamily, rows: tuple[dict, ...]) -> "RingMatrix":
        """A matrix from row dicts known to hold only nonzero ring elements of
        the family, at increasing columns below len(rows); no checks."""
        m = cls.__new__(cls)
        m.family = family
        m._rows = rows
        m._zero = RingElem.zero(family)
        return m

    @classmethod
    def from_int_rows(cls, family: GroupFamily, rows: Sequence[Sequence[int]]):
        n = len(rows)
        if any(len(row) != n for row in rows):
            raise DomainError("matrix must be square")
        return cls._trusted(family, tuple(
            {j: RingElem.integer(family, v) for j, v in enumerate(row) if v}
            for row in rows
        ))

    @property
    def size(self) -> int:
        return len(self._rows)

    def entry(self, i: int, j: int) -> RingElem:
        n = len(self._rows)
        if not (0 <= i < n and 0 <= j < n):
            raise IndexError(f"entry ({i}, {j}) out of range for size {n}")
        return self._rows[i].get(j, self._zero)

    def is_hermitian(self) -> bool:
        """Each stored (i, j) equals conj of (j, i).  A stored entry is
        nonzero, so an absent mirror (a zero) fails it."""
        return self._asymmetry() is None

    def _asymmetry(self) -> tuple[int, int, RingElem, RingElem] | None:
        """The first stored entry (i, j) in row-major order whose mirror
        (j, i) is not its conjugate, as (i, j, x_ij, x_ji) with the zero
        element for an absent mirror; None when the matrix is hermitian.

        Each pair is compared once, at j >= i, through one conjugate
        matcher, so every distinct group element is inverted once per call
        and no ring element is built.  At j < i only the presence of the
        mirror is checked: a stored mirror was compared on row j, and conj
        is an involution.
        """
        rows = self._rows
        matches = conjugate_matcher(self.family)
        for i, row in enumerate(rows):
            for j, x in row.items():
                mirror = rows[j].get(i)
                if mirror is None:
                    return i, j, x, self._zero
                if j >= i and not matches(x, mirror):
                    return i, j, x, mirror
        return None

    def direct_sum(self, other: "RingMatrix") -> "RingMatrix":
        if self.family != other.family:
            raise DomainError("family mismatch in direct sum")
        n = self.size
        shifted = tuple({j + n: x for j, x in row.items()} for row in other._rows)
        return RingMatrix._trusted(self.family, self._rows + shifted)

    def negate(self) -> "RingMatrix":
        return RingMatrix._trusted(
            self.family, tuple({j: -x for j, x in row.items()} for row in self._rows)
        )

    def _int_rows(self, integer: bool) -> list[dict[int, int]]:
        """Rows of {column: int} nonzeros: each entry's coefficient on the
        identity when integer is set (its support must be the identity),
        else its augmentation, with zero augmentations dropped."""
        identity = self.family.identity()
        out = []
        for row in self._rows:
            ints = {}
            for j, x in row.items():
                if integer:
                    v = x.coefficient(identity)
                    if not v or len(x) != 1:
                        raise DomainError("matrix entry has non-identity support")
                else:
                    v = augmentation(x)
                if v:
                    ints[j] = v
            out.append(ints)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingMatrix):
            return NotImplemented
        return self.family == other.family and self._rows == other._rows

    def __repr__(self) -> str:
        n = self.size
        rows = "; ".join(
            ", ".join(self.entry(i, j).to_text() for j in range(n)) for i in range(n)
        )
        return f"<RingMatrix [{rows}]>"


class AugmentedForm(Record):
    """Hermitian form on Ipi^epsilon + Zpi^(size - epsilon).

    epsilon is 1 when the leading summand is the augmentation ideal; the
    stored matrix is the unique extension of the form to free modules.
    """

    epsilon: int
    matrix: RingMatrix

    def __init__(self, epsilon: int, matrix: RingMatrix) -> None:
        if epsilon not in (0, 1):
            raise DomainError("epsilon must be 0 or 1")
        if matrix.size < epsilon:
            raise DomainError("matrix too small for the Ipi summand")
        if not matrix.is_hermitian():
            i, j, x, mirror = matrix._asymmetry()
            mirror_text = "zero" if mirror.is_zero else mirror.to_text()
            raise DomainError(f"matrix is not hermitian: entry ({i}, {j}) is "
                              f"{x.to_text()} but entry ({j}, {i}) is {mirror_text}, "
                              f"not its conjugate")
        self.__dict__.update(epsilon=epsilon, matrix=matrix)

    @property
    def family(self) -> GroupFamily:
        return self.matrix.family


def direct_sum(a: AugmentedForm, b: AugmentedForm) -> AugmentedForm:
    """Block sum; the operand carrying the Ipi summand ends up leading."""
    if a.epsilon and b.epsilon:
        raise DomainError("at most one Ipi summand per form")
    if b.epsilon:
        a, b = b, a
    return AugmentedForm(a.epsilon, a.matrix.direct_sum(b.matrix))


def hyperbolic_matrix(family: GroupFamily) -> RingMatrix:
    return RingMatrix.from_int_rows(family, [[0, 1], [1, 0]])


def restrict_to_Ipi(a: AugmentedForm) -> RingElem:
    """The ring element whose right-multiplication gives the Ipi pairing.

    The pairing on the ideal is (beta, beta') -> beta * alpha * conj(beta')
    where alpha is the corner entry of the unique extension.
    """
    if a.epsilon != 1:
        raise DomainError("form has no Ipi summand")
    return a.matrix.entry(0, 0)


def parity(a: AugmentedForm) -> Parity:
    """Even/odd parity of a form that admits a quadratic refinement.

    With an Ipi summand present the parity is decided by its corner alone:
    the form is even iff the corner element is of the shape p + conj(p).  On
    a purely free module the form is even iff every diagonal entry is; the
    witness q copies the strict upper triangle and halves the diagonal.
    """
    if a.epsilon == 1:
        corner_even = in_image_one_plus_T(restrict_to_Ipi(a))
        return Parity.EVEN if corner_even else Parity.ODD
    for i in range(a.matrix.size):
        if not in_image_one_plus_T(a.matrix.entry(i, i)):
            return Parity.ODD
    return Parity.EVEN


# ---------------------------------------------------------------------------
# Integer signatures, exactly


def ldlt_signature(rows: Sequence[Sequence[int]] | Sequence[Mapping[int, int]],
                   *, _trusted: bool = False) -> int:
    """Signature of a symmetric integer matrix by fraction-free elimination.

    Row i is either a dense list of n integers or a dict {column: integer}
    of its nonzeros (absent columns are zeros); dense rows are converted
    once, and everything after that scans nonzeros only.  The indices split
    into the connected components of the nonzero pattern.  Listing them
    component by component is a permutation congruence to the block sum of
    the principal submatrices on the components, so the signature is the
    sum of theirs, and each component is eliminated alone.  A component
    whose rows, in breadth-first order and shifted to start at column 0,
    repeat an earlier one's is the same matrix and takes its signature
    without elimination, so a sum of k E8 blocks costs one 8 x 8
    elimination; nothing is kept across calls.  A DomainError names the row,
    entry or pair at fault when the input is not square, holds an entry
    that is not an int, or is not symmetric.

    `signature_int` and `augmentation_signature` pass _trusted=True with the
    rows `RingMatrix._int_rows` has just built: dicts of nonzero ints at int
    columns, which no one else holds.  Those rows are read and consumed as
    they are, without the per-entry int check and the copy; the square
    check (each row's least and greatest column) and the symmetry check
    stay, since a bare RingMatrix need not be symmetric.
    """
    n = len(rows)
    if _trusted:
        for i, row in enumerate(rows):
            if row and (min(row) < 0 or max(row) >= n):
                raise _column_error(n, i, next(j for j in row if not 0 <= j < n))
        sparse = rows
    else:
        sparse = _checked_int_rows(rows)
    mismatch = min(((j, i) if j < i else (i, j)
                    for i, row in enumerate(sparse) for j, v in row.items()
                    if sparse[j].get(i) != v), default=None)
    if mismatch is not None:
        i, j = mismatch
        raise DomainError(f"matrix must be symmetric: entry ({i}, {j}) is "
                          f"{sparse[i].get(j, 0)} but entry ({j}, {i}) is "
                          f"{sparse[j].get(i, 0)}")
    seen: set[int] = set()
    signatures: dict[tuple, int] = {}
    signature = 0
    for start in range(n):
        if start in seen:
            continue
        seen.add(start)
        component = [start]
        for i in component:  # breadth-first: the list grows while it is read
            found = [j for j in sparse[i] if j not in seen]
            seen.update(found)
            component += found
        # The rows in BFS order, columns shifted by start, fix the BFS order
        # itself and so the principal submatrix: equal keys, equal signatures.
        key = tuple(tuple((j - start, v) for j, v in sparse[i].items()) for i in component)
        part = signatures.get(key)
        if part is None:
            part = signatures[key] = _bareiss_signature({i: sparse[i] for i in component})
        signature += part
    return signature


def _column_error(n: int, i: int, j) -> DomainError:
    return DomainError(f"matrix must be square: dimension {n}, but row {i} has an "
                       f"entry in column {j!r}")


def _checked_int_rows(rows) -> list[dict[int, int]]:
    """Copies of the rows as dicts of their nonzeros, after checking that
    they are square and hold only ints."""
    n = len(rows)
    sparse = []
    for i, row in enumerate(rows):
        if isinstance(row, Mapping):
            for j, v in row.items():
                if not (is_int(j) and 0 <= j < n):
                    raise _column_error(n, i, j)
            items = row.items()
        else:
            if len(row) != n:
                raise DomainError(f"matrix must be square: dimension {n}, but row {i} "
                                  f"has length {len(row)}")
            items = enumerate(row)
        nonzeros = {}
        for j, v in items:
            if not is_int(v):
                raise DomainError(f"matrix entry ({i}, {j}) is {v!r}, not an integer")
            if v:
                nonzeros[j] = v
        sparse.append(nonzeros)
    return sparse


def _bareiss_signature(rows: dict[int, dict[int, int]]) -> int:
    """Signature of one symmetric component, eliminated fraction-free.

    rows maps each index to its row of nonzeros, and is consumed.  Bareiss's
    symmetric elimination: pivoting on a nonzero diagonal entry d replaces
    every remaining a_rc by (d a_rc - a_rp a_pc) // prev, where prev is the
    previous pivot (1 at the start).  The division is exact, because by
    Sylvester's identity every entry at every stage is a minor of the
    matrix, and the pivots are its leading principal minors in pivot order.
    The LDL^T diagonal entry of a pivot is d / prev, so it adds +1 when d
    and prev have the same sign and -1 when not.  When the active diagonal
    is zero but some a_ij is not, adding row and column j to row and column
    i is a unimodular congruence on the active indices; the stage entries
    stay minors (of the congruent matrix), and a_ii becomes 2 a_ij, which is
    pivoted next.  An all-zero active block adds nothing.
    """
    signature = 0
    prev = 1
    while rows:
        p = next((i for i, row in rows.items() if i in row), None)
        if p is None:
            p = next((i for i, row in rows.items() if row), None)
            if p is None:
                break
            row = rows[p]
            j = next(iter(row))
            other, b = rows[j], row[j]
            for c in set(row).union(other):
                if c == p:
                    continue
                v = row.get(c, 0) + other.get(c, 0)
                if v:
                    row[c] = rows[c][p] = v
                else:
                    del row[c], rows[c][p]
            row[p] = 2 * b
        pivot_row = rows.pop(p)
        d = pivot_row.pop(p)
        signature += 1 if (d > 0) == (prev > 0) else -1
        for r, row in rows.items():
            f = row.pop(p, 0)
            if f:
                new = {c: d * v for c, v in row.items()}
                for c, v in pivot_row.items():
                    new[c] = new.get(c, 0) - f * v
                rows[r] = {c: v // prev for c, v in new.items() if v}
            elif d != prev:
                rows[r] = {c: d * v // prev for c, v in row.items()}
        prev = d
    return signature


def signature_int(a: AugmentedForm | RingMatrix) -> int:
    """Signature of an integer form (all entries supported on the identity)."""
    matrix = a.matrix if isinstance(a, AugmentedForm) else a
    return ldlt_signature(matrix._int_rows(integer=True), _trusted=True)


def augmentation_signature(a: AugmentedForm) -> int:
    """Signature of the integer shadow obtained by augmenting entrywise."""
    return ldlt_signature(a.matrix._int_rows(integer=False), _trusted=True)


_E8_CHAIN = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (4, 7)]


def e8_block(family: GroupFamily) -> RingMatrix:
    """The rank-8 even unimodular positive definite form, E8.

    Cartan-matrix convention: 2 on the diagonal, -1 on the edges of the E8
    diagram (a chain of seven nodes with the eighth attached to the fifth).
    """
    rows = [[0] * 8 for _ in range(8)]
    for i in range(8):
        rows[i][i] = 2
    for i, j in _E8_CHAIN:
        rows[i][j] = rows[j][i] = -1
    return RingMatrix.from_int_rows(family, rows)


def identity_block(family: GroupFamily, size: int, sign: int = 1) -> RingMatrix:
    return RingMatrix._trusted(family, tuple(
        {i: RingElem.integer(family, sign)} if sign else {} for i in range(size)
    ))


# ---------------------------------------------------------------------------
# JSON format: {"epsilon": 0|1, "family": tag, "entries": row-major terms}


def form_to_json(a: AugmentedForm):
    """Dense row-major entries.  Every zero entry is one shared empty list:
    n^2 fresh lists would cost more in garbage collection than the rest.
    The cost is one n^2 list plus one step per nonzero, with each distinct
    entry object formatted once (the k E8 copies of a direct sum share one
    term list) and each distinct group element formatted once."""
    n = a.matrix.size
    dump = ring_elem_writer(a.family)
    entries: list = [[]] * (n * n)
    for i, row in enumerate(a.matrix._rows):
        for j, x in row.items():
            entries[i * n + j] = dump(x)
    return {
        "epsilon": a.epsilon,
        "family": family_to_json(a.family),
        "size": n,
        "entries": entries,
    }


def form_from_json(obj) -> AugmentedForm:
    """Load a form; refuses non-hermitian input.  An empty term list is a
    zero entry and builds no ring element.  The cost is one C-level scan
    per row for the entries that are not [], plus one load per distinct
    one-term entry and the terms of every other entry, with each distinct
    word text parsed and reduced once; the first bad entry in row-major
    order sets the error."""
    try:
        epsilon = obj["epsilon"]
        family = family_from_json(obj["family"])
        flat = list(obj["entries"])
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad form JSON: {exc}") from None
    if not is_int(epsilon):
        raise InputError(f"form epsilon {epsilon!r} is not an integer")
    n = obj.get("size")
    if n is None:
        n = int(round(len(flat) ** 0.5))
        if n * n != len(flat):
            raise InputError(f"entry list length {len(flat)} is not a perfect square")
    elif not is_int(n) or n < 0:
        raise InputError(f"form size {n!r} is not a non-negative integer")
    elif n * n != len(flat):
        raise InputError(f"form size {n} needs {n * n} entries, got {len(flat)}")
    load = ring_elem_reader(family)
    columns = range(n)
    rows = []
    for i in columns:
        row = flat[i * n:i * n + n]
        nonzero = list(compress(columns, row))
        if len(nonzero) + row.count([]) != n:
            # A falsy entry that is not [] is no term list: load the entries
            # before it, whose errors come first, and then it, which fails.
            first = next(j for j, x in enumerate(row) if not x and x != [])
            nonzero = [j for j in nonzero if j < first] + [first]
        stored = {}
        for j in nonzero:
            x = load(row[j])
            if not x.is_zero:
                stored[j] = x
        rows.append(stored)
    return AugmentedForm(epsilon, RingMatrix._trusted(family, tuple(rows)))
