"""Linear algebra over GF(2): packed bit vectors and matrices, quadratic
forms with the Arf invariant, symplectic bases, matrix-group closure and
orbit enumeration under generator sets.

Vectors pack coordinate i into bit i of an int; a matrix stores one mask per
row and acts on column vectors.  Every public constructor checks that the
dimension and each mask are ints (not bools), that a vector's mask is below
2^d, and that a d x d matrix has d rows, each a mask below 2^d; the rows are
stored as a tuple.  A product of two such matrices XORs rows of the right
factor, so it stays below 2^d and is built as the private `F2Mat._trusted`
builds a matrix: a new object whose slots are filled through the slot
setters bound once below, without running `__init__` and so without that
check again; `_trusted_matrices` builds a list of them in one call.
Vectors derived from valid ones (`apply`, `^`, the states `orbits`
returns) are built the same way by `F2Vec._trusted`.  Up to d = 8
(PRODUCT_TABLE_DIM) row i of A @ B is one lookup, T_B[A.rows[i]], in the
table of all 2^d subset XORs of B's rows; T_B is built the first time B is
a right factor and its bound `__getitem__` is kept on B outside its fields,
so equality, hash, repr, pickle and copy do not see it, and a product maps
it over A's rows with no lookup on the table.  Above d = 8 each row is
combined bit by bit and no table is built.  `group_closure` multiplies on
the right, so only its generators carry a table.  It deduplicates
products on their `rows` tuples, which hash and compare in C, so no
record hash or equality runs per product, and it builds the returned set
of matrices once, at the end, after dropping the row set.

Enumerations are bounded by caps, so a group or state space too large fails
at once.  `configured_cap` is the one reader of the STABLE4_CAP environment
variable: each bound calls it with its own default where the bound is
enforced (2^20 states in `orbits` and `orbit_of`, 10^6 closure elements
in `group_closure`).

Orbits are searched on int states.  `orbits` first tabulates each
generator on all 2^d vectors (k * 2^d entries for k generators), which
also decides its invertibility; `orbit_of` steps each state through the
generator's columns, builds no table, and counts its states to the cap.
`_orbit_witnesses` applies a fully listed group to one start vector at a
time, each image bit read from the parity table `_PARITY`, and stops once
every vector of its domain has been reached (over a subset, only when the
group has more than 2^d elements).
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence

from .errors import CapExceeded, DomainError, InputError, as_int, as_tuple, is_int
from .records import Record

ORBIT_DIM_CAP = 20
CLOSURE_CAP = 10**6
PRODUCT_TABLE_DIM = 8
# _PARITY[x] = popcount(x) & 1 for every mask x of up to 8 bits
_PARITY = [x.bit_count() & 1 for x in range(1 << 8)]

_new_object = object.__new__


def configured_cap(default: int = CLOSURE_CAP) -> int:
    """The enumeration cap: STABLE4_CAP when it is set (an integer >= 1),
    else the caller's default.  Every bound reads its cap here."""
    raw = os.environ.get("STABLE4_CAP")
    if raw is None:
        return default
    try:
        cap = int(raw)
    except ValueError:
        raise InputError(f"STABLE4_CAP={raw!r} is not an integer") from None
    if cap < 1:
        raise InputError(f"STABLE4_CAP={raw!r} is below 1")
    return cap


class F2Vec(Record):
    """Vector over GF(2); coordinate i lives in bit i."""

    __slots__ = ("dim", "bits")
    dim: int
    bits: int

    def __init__(self, dim: int, bits: int) -> None:
        as_int(dim, "vector dimension")
        if not is_int(bits):
            raise InputError(f"vector bits {bits!r} are not an integer")
        if dim < 0 or bits < 0 or bits >> dim:
            raise InputError(f"bits {bits:#x} out of range for dim {dim}")
        _set_vec_dim(self, dim)
        _set_vec_bits(self, bits)

    @classmethod
    def _trusted(cls, dim: int, bits: int) -> "F2Vec":
        """A vector whose bits are known to be an int below 2^dim; no checks."""
        v = _new_object(cls)
        _set_vec_dim(v, dim)
        _set_vec_bits(v, bits)
        return v

    @classmethod
    def zero(cls, dim: int) -> "F2Vec":
        return cls(dim, 0)

    @classmethod
    def basis(cls, dim: int, i: int) -> "F2Vec":
        if not is_int(i) or i < 0:
            raise InputError(f"basis index {i!r} is not a non-negative integer")
        return cls(dim, 1 << i)

    @classmethod
    def from_bits(cls, text: str) -> "F2Vec":
        """Parse a bit-string like "101"; leftmost character is coordinate 0."""
        if not isinstance(text, str) or not text or not all(ch in "01" for ch in text):
            raise InputError(f"bad bit-string {text!r}")
        bits = 0
        for i, ch in enumerate(text):
            if ch == "1":
                bits |= 1 << i
        return cls(len(text), bits)

    def to_bits(self) -> str:
        # A guard bit at position dim keeps the leading zeros (and makes dim
        # 0 print ""); reversing puts coordinate 0 first and drops the guard.
        return format(self.bits | 1 << self.dim, "b")[:0:-1]

    def coords(self) -> tuple[int, ...]:
        return tuple(self.bits >> i & 1 for i in range(self.dim))

    def bit(self, i: int) -> int:
        return self.bits >> i & 1

    @property
    def is_zero(self) -> bool:
        return self.bits == 0

    def __xor__(self, other: "F2Vec") -> "F2Vec":
        if self.dim != other.dim:
            raise DomainError(f"dimension mismatch: vectors of dimension {self.dim} "
                              f"and {other.dim}")
        return F2Vec._trusted(self.dim, self.bits ^ other.bits)

    def dot(self, other: "F2Vec") -> int:
        if self.dim != other.dim:
            raise DomainError(f"dimension mismatch: vectors of dimension {self.dim} "
                              f"and {other.dim}")
        return (self.bits & other.bits).bit_count() & 1

    def __repr__(self) -> str:
        return f"F2Vec({self.to_bits()!r})"


class F2Mat(Record):
    """Square matrix over GF(2); rows[i] is the bitmask of row i.

    The `_product_table` slot is not a field: `__matmul__` fills it on a
    right factor with the lookup of its product table, and equality, hash,
    repr, pickle and copy do not see it."""

    __slots__ = ("dim", "rows", "_product_table")
    dim: int
    rows: tuple[int, ...]

    def __init__(self, dim: int, rows: Sequence[int]) -> None:
        as_int(dim, "matrix dimension")
        rows = as_tuple(rows, "matrix rows")
        if len(rows) != dim:
            raise InputError(f"matrix of dimension {dim} needs {dim} rows, got {len(rows)}")
        for i, r in enumerate(rows):
            if not is_int(r):
                raise InputError(f"matrix row {i} is {r!r}, not an integer")
            if r >> dim:
                raise InputError(f"matrix row {i} bits {r:#x} out of range for dim {dim}")
        _set_mat_dim(self, dim)
        _set_mat_rows(self, rows)

    @classmethod
    def _trusted(cls, dim: int, rows: tuple[int, ...]) -> "F2Mat":
        """A matrix whose rows are known to be a tuple of d masks below 2^d;
        no checks."""
        m = _new_object(cls)
        _set_mat_dim(m, dim)
        _set_mat_rows(m, rows)
        return m

    @classmethod
    def identity(cls, dim: int) -> "F2Mat":
        return cls(dim, tuple(1 << i for i in range(dim)))

    @classmethod
    def from_rows(cls, rows: Sequence) -> "F2Mat":
        """Rows given as bit-strings ("110") or sequences of the ints 0 and 1
        (not floats or bools), each as long as the number of rows."""
        masks = []
        for index, row in enumerate(rows):
            if not isinstance(row, (str, list, tuple)):
                raise InputError(f"matrix row {index} is {row!r}, not a bit-string or list")
            if len(row) != len(rows):
                raise InputError(
                    f"matrix row {index} has length {len(row)}, expected {len(rows)}"
                )
            if isinstance(row, str):
                masks.append(F2Vec.from_bits(row).bits)
            else:
                mask = 0
                for i, v in enumerate(row):
                    if not is_int(v) or v not in (0, 1):
                        raise InputError(f"matrix entry {v!r} is not a bit")
                    mask |= v << i
                masks.append(mask)
        return cls(len(masks), tuple(masks))

    def to_rows(self) -> list[str]:
        return [F2Vec._trusted(self.dim, r).to_bits() for r in self.rows]

    def entry(self, i: int, j: int) -> int:
        if not (0 <= i < self.dim and 0 <= j < self.dim):
            raise IndexError(f"entry ({i}, {j}) out of range for size {self.dim}")
        return self.rows[i] >> j & 1

    def apply(self, v: F2Vec) -> F2Vec:
        """Column-vector action (Mv)_i = <row_i, v>."""
        if v.dim != self.dim:
            raise DomainError(f"dimension mismatch: a matrix of dimension {self.dim} "
                              f"applied to a vector of dimension {v.dim}")
        bits = 0
        for i, row in enumerate(self.rows):
            bits |= ((row & v.bits).bit_count() & 1) << i
        return F2Vec._trusted(self.dim, bits)

    def __matmul__(self, other: "F2Mat") -> "F2Mat":
        """Row i of the product is the XOR of other.rows[j] over the set bits
        j of self.rows[i]: other.combine(self.rows[i]).

        Up to dimension PRODUCT_TABLE_DIM that XOR is looked up in the table
        of all 2^d subset XORs of other's rows, built the first time other
        is a right factor.  The table's bound `__getitem__` is kept on other
        outside the fields, so a product maps it over self's rows with no
        attribute lookup on the table.  The product is built here, as
        `_trusted` builds one, to save that call."""
        dim = self.dim
        if dim != other.dim:
            raise DomainError(f"dimension mismatch: product of matrices of dimension "
                              f"{dim} and {other.dim}")
        if dim > PRODUCT_TABLE_DIM:
            return F2Mat._trusted(dim, tuple(map(other.combine, self.rows)))
        try:
            lookup = other._product_table
        except AttributeError:
            lookup = _image_table(other.rows).__getitem__
            _set_product_table(other, lookup)
        product = _new_object(F2Mat)
        _set_mat_dim(product, dim)
        _set_mat_rows(product, tuple(map(lookup, self.rows)))
        return product

    def combine(self, mask: int) -> int:
        """XOR of rows[j] over the set bits j of mask: the row vector mask
        times this matrix, i.e. this matrix's transpose applied to mask."""
        rows = self.rows
        acc = 0
        while mask:
            low = mask & -mask
            acc ^= rows[low.bit_length() - 1]
            mask ^= low
        return acc

    def transpose(self) -> "F2Mat":
        """Row j of the transpose is column j, the image of basis vector j."""
        rows = [0] * self.dim
        for i, row in enumerate(self.rows):
            while row:
                low = row & -row
                rows[low.bit_length() - 1] |= 1 << i
                row ^= low
        return F2Mat._trusted(self.dim, tuple(rows))

    def is_invertible(self) -> bool:
        try:
            self.inverse()
        except DomainError:
            return False
        return True

    def inverse(self) -> "F2Mat":
        n = self.dim
        work = [self.rows[i] | (1 << (n + i)) for i in range(n)]
        rank = 0
        for col in range(n):
            pivot = next((r for r in range(rank, n) if work[r] >> col & 1), None)
            if pivot is None:
                raise DomainError("matrix is not invertible")
            work[rank], work[pivot] = work[pivot], work[rank]
            for r in range(n):
                if r != rank and work[r] >> col & 1:
                    work[r] ^= work[rank]
            rank += 1
        mask = (1 << n) - 1
        return F2Mat(n, tuple((w >> n) & mask for w in work))

    def __repr__(self) -> str:
        return f"F2Mat({self.to_rows()!r})"


# The slot setters, bound once: the constructors, the `_trusted` builders,
# `_trusted_matrices` and `F2Mat.__matmul__` store fields with them, past the
# frozen `Record.__setattr__`.
_set_vec_dim = F2Vec.dim.__set__
_set_vec_bits = F2Vec.bits.__set__
_set_mat_dim = F2Mat.dim.__set__
_set_mat_rows = F2Mat.rows.__set__
_set_product_table = F2Mat._product_table.__set__


def _trusted_matrices(dim: int, row_tuples: Sequence[tuple[int, ...]]) -> list[F2Mat]:
    """`F2Mat._trusted(dim, rows)` for each of the row tuples, in order,
    with the slot setters called inline."""
    matrices = []
    for rows in row_tuples:
        m = _new_object(F2Mat)
        _set_mat_dim(m, dim)
        _set_mat_rows(m, rows)
        matrices.append(m)
    return matrices


# ---------------------------------------------------------------------------
# Quadratic forms over GF(2)


class QuadraticFormF2(Record):
    """A quadratic refinement q of a nondegenerate alternating form.

    Stored data: the bilinear matrix and the values of q on the standard
    basis; q(x + y) = q(x) + q(y) + b(x, y) determines q everywhere.
    """

    bilinear: F2Mat
    values: F2Vec

    def __init__(self, bilinear: F2Mat, values: F2Vec) -> None:
        b = bilinear
        if not isinstance(b, F2Mat):
            raise InputError(f"bilinear part {b!r} is not an F2 matrix")
        if not isinstance(values, F2Vec):
            raise InputError(f"values {values!r} are not an F2 vector")
        if values.dim != b.dim:
            raise InputError("value vector dimension must match the bilinear form")
        if any(b.entry(i, i) for i in range(b.dim)):
            raise DomainError("bilinear part must be alternating (zero diagonal)")
        if b != b.transpose():
            raise DomainError("bilinear part must be symmetric over GF(2)")
        if not b.is_invertible():
            raise DomainError("bilinear part must be nondegenerate")
        self.__dict__.update(bilinear=bilinear, values=values)

    @property
    def dim(self) -> int:
        return self.bilinear.dim

    def evaluate(self, v: F2Vec) -> int:
        """q(v), expanded from the basis values and the cross terms."""
        support = [i for i in range(self.dim) if v.bit(i)]
        total = sum(self.values.bit(i) for i in support)
        for a in range(len(support)):
            for b in range(a + 1, len(support)):
                total += self.bilinear.entry(support[a], support[b])
        return total & 1

    def direct_sum(self, other: "QuadraticFormF2") -> "QuadraticFormF2":
        n, m = self.dim, other.dim
        rows = [r for r in self.bilinear.rows] + [r << n for r in other.bilinear.rows]
        values = self.values.bits | other.values.bits << n
        return QuadraticFormF2(F2Mat(n + m, tuple(rows)), F2Vec(n + m, values))


def symplectic_basis(bilinear: F2Mat) -> list[F2Vec]:
    """A basis a1, b1, ..., ag, bg in which the form is hyperbolic pairs.

    Greedy pairing: take any remaining vector a, find b with <a, b> = 1
    (nondegeneracy provides one), then project the rest onto the orthogonal
    complement of the pair via u -> u + <u,b> a + <u,a> b.
    """
    n = bilinear.dim
    if any(bilinear.entry(i, i) for i in range(n)) or bilinear != bilinear.transpose():
        raise DomainError("form must be alternating")
    if not bilinear.is_invertible():
        raise DomainError("form is degenerate")

    def pair(u: F2Vec, v: F2Vec) -> int:
        return bilinear.apply(v).dot(u)

    remaining = [F2Vec.basis(n, i) for i in range(n)]
    basis: list[F2Vec] = []
    while remaining:
        a = remaining[0]
        b = next((u for u in remaining[1:] if pair(a, u)), None)
        if b is None:
            raise DomainError("form is degenerate on the remaining subspace")
        basis += [a, b]
        reduced = []
        for u in remaining:
            if u in (a, b):
                continue
            u2 = u
            if pair(u, b):
                u2 = u2 ^ a
            if pair(u2, a):
                u2 = u2 ^ b
            reduced.append(u2)
        remaining = reduced
    return basis


def arf(q: QuadraticFormF2) -> int:
    """Arf invariant: sum q(a_i) q(b_i) over a symplectic basis."""
    basis = symplectic_basis(q.bilinear)
    total = 0
    for i in range(0, len(basis), 2):
        total += q.evaluate(basis[i]) * q.evaluate(basis[i + 1])
    return total & 1


# ---------------------------------------------------------------------------
# Orbits and closures


def orbits(
    d: int,
    generators: Sequence[F2Mat],
    subset: Callable[[F2Vec], bool] | None = None,
) -> list[list[F2Vec]]:
    """Partition of the (subset of the) 2^d vectors into group orbits.

    The orbit of v lists every vector reachable from v by generator
    applications; each orbit is sorted coordinate-lexicographically and the
    orbits are sorted by their minimal representatives.

    The search runs on int states through one image table per generator,
    t[v] = (g v).bits, so it holds k * 2^d table entries for k generators.
    A generator is invertible iff its table is a permutation.  The subset
    predicate is evaluated once per vector; every state the search reaches
    is checked to lie in the subset, so every edge out of a subset vector
    lands in it, and a violation names the generator and the edge.

    Raises CapExceeded before building anything when 2^d exceeds the cap
    (2^20 states by default, overridable through STABLE4_CAP).
    """
    _check_orbit_dim(d)
    steps = []
    for k, g in enumerate(generators):
        if g.dim != d:
            raise DomainError(f"generator {k} has dimension {g.dim}, expected {d}")
        table = _image_table(g.transpose().rows)
        # A linear map is a permutation iff its kernel is {0}.
        if table.count(0) != 1:
            raise DomainError(f"generator {k} is not invertible")
        steps.append(table.__getitem__)

    inside = None
    if subset is not None:
        inside = [subset(F2Vec._trusted(d, bits)) for bits in range(1 << d)]
    # rank[v] is the bit reversal of v, i.e. the position of v in the
    # coordinate-lexicographic order; being an involution, rank also lists
    # the vectors in that order.
    rank = _image_table([1 << (d - 1 - j) for j in range(d)])
    seen: set[int] = set()
    parts: list[list[F2Vec]] = []
    vector = F2Vec._trusted  # each state is below 2^d
    for start in rank:
        if start in seen or inside is not None and not inside[start]:
            continue
        orbit = _walk(start, steps, seen, inside, d)
        orbit.sort(key=rank.__getitem__)
        parts.append([vector(d, bits) for bits in orbit])
    return parts


def _check_orbit_dim(d: int) -> None:
    """Refuse a d that is not an int, a negative d, and 2^d states over the
    orbit cap."""
    as_int(d, "orbit dimension")
    if d < 0:
        raise InputError(f"orbit dimension {d} is negative")
    cap = configured_cap(1 << ORBIT_DIM_CAP)
    if 1 << d > cap:
        raise CapExceeded(f"2^{d} states exceed the orbit cap {cap}")


def _orbit_witnesses(
    d: int,
    group: Sequence[F2Mat],
    subset: Callable[[F2Vec], bool] | None = None,
) -> list[F2Mat]:
    """Elements of a fully listed group G with G's orbits on the (subset
    of the) 2^d vectors: after the orbit cap check, each orbit starts at
    its least vector v, and of the elements applied to v the first to
    reach each new vector is kept.  They carry v across all of G v, so
    they generate a subgroup with the same orbits; |G v| - 1 are kept.

    Bit i of g v is the parity of rows[i] & v, read from `_PARITY` (up to
    d = 8; above, from such a table of the 2^d masks built per call), so an
    image costs d lookups and no popcount, and nothing is built per start.
    The pass stops as soon as it has seen every nonzero vector of the
    domain: the elements it skips reach no new vector there, so for a
    subset that G maps into itself (as Stab(w) maps ker<w,->) the list is
    the one a full pass keeps.  Knowing when the subset is all seen takes
    one subset call per vector up front, which a G of at most 2^d elements
    does not repay: such a pass asks the subset at each start instead, as
    a full pass does, and does not stop early.  A vector reached outside
    the subset turns the stop off, so the full pass's list, leaking witness
    included, goes to `orbits`, which refuses it; a subset that G leaves
    only through elements past the stop is not seen here."""
    _check_orbit_dim(d)
    size = 1 << d
    # left counts the nonzero vectors of the domain not yet seen
    if subset is None:
        inside, left = None, size - 1
    elif len(group) > size:
        inside = [subset(F2Vec._trusted(d, x)) for x in range(size)]
        left = inside.count(True) - inside[0]
    else:
        inside, left = None, -1  # asked at each start; never 0
    seen = [False] * size
    seen[0] = True  # 0 is fixed: its orbit needs no witness
    parity = _PARITY if d <= 8 else [x.bit_count() & 1 for x in range(size)]
    witnesses = []
    for start in range(1, size):
        if seen[start]:
            continue
        if inside is not None:
            if not inside[start]:
                continue
        elif subset is not None and not subset(F2Vec._trusted(d, start)):
            continue
        seen[start] = True
        left -= 1
        for g in group:
            image = 0
            for i, row in enumerate(g.rows):
                image |= parity[row & start] << i
            if not seen[image]:
                seen[image] = True
                witnesses.append(g)
                if inside is not None and not inside[image]:
                    left = -1  # the subset is not closed: never stop
                left -= 1
                if not left:
                    return witnesses
    return witnesses


def orbit_of(v: F2Vec, generators: Sequence[F2Mat]) -> set[int]:
    """Bitmask set of the single orbit through v.

    Each generator steps a state by combining its columns, so no 2^d table
    is built; a state past the orbit cap (2^20) raises CapExceeded."""
    cap = configured_cap(1 << ORBIT_DIM_CAP)
    steps = []
    for k, g in enumerate(generators):
        if g.dim != v.dim:
            raise DomainError(f"generator {k} has dimension {g.dim}, expected {v.dim}")
        steps.append(g.transpose().combine)
    reached: set[int] = set()
    _walk(v.bits, steps, reached, d=v.dim, cap=cap)
    return reached


def _image_table(columns: Sequence[int]) -> list[int]:
    """t[v] = XOR of the columns at the set bits of v, for all v below
    2^len(columns), built by doubling over the columns."""
    table = [0]
    for c in columns:
        table += [x ^ c for x in table]
    return table


def _walk(
    start: int,
    steps: Sequence[Callable[[int], int]],
    reached: set[int],
    inside: Sequence[bool] | None = None,
    d: int = 0,
    cap: int | None = None,
) -> list[int]:
    """The states reachable from start, in breadth-first order, added to
    reached.  With inside, each newly reached state must lie in it; with
    cap, there may be at most cap states."""
    reached.add(start)
    states = [start]
    for u in states:
        for k, step in enumerate(steps):
            w = step(u)
            if w not in reached:
                if inside is not None and not inside[w]:
                    raise DomainError(
                        f"subset is not closed under generator {k}: "
                        f"{F2Vec(d, u).to_bits()} -> {F2Vec(d, w).to_bits()}"
                    )
                if cap is not None and len(states) >= cap:
                    raise CapExceeded(f"orbit in dimension {d} reached {cap + 1} "
                                      f"states, over the orbit cap {cap}")
                reached.add(w)
                states.append(w)
    return states


def group_closure(generators: Sequence[F2Mat]) -> set[F2Mat]:
    """The matrix group generated by the given invertible matrices.

    Each element found is multiplied on the right by every generator, so
    the search costs |G| * k products for k generators, and only the
    generators, as right factors, get a product table (see `__matmul__`).

    Raises CapExceeded once the closure grows past the cap, 10^6 or
    STABLE4_CAP when it is set (no argument takes a cap), naming the
    generator count and the dimension: the family is then too large for
    exact stabilizer computations.
    """
    cap = configured_cap()
    if not generators:
        raise DomainError("need at least one generator (use the identity)")
    dim = generators[0].dim
    for k, g in enumerate(generators):
        if g.dim != dim:
            raise DomainError(f"generator {k} has dimension {g.dim}, expected {dim} "
                              "(that of generator 0)")
        if not g.is_invertible():
            raise DomainError(f"generator {k} is not invertible")
    # The element list is the breadth-first queue.  Products are kept apart
    # by their row tuples, which hash and compare in C; add, then compare
    # sizes: one hash per product.  size is len(elements), kept in a local.
    identity = F2Mat.identity(dim)
    elements = [identity]
    seen = {identity.rows}
    size = 1
    for m in elements:
        for g in generators:
            nxt = m @ g
            seen.add(nxt.rows)
            if len(seen) > size:
                if size >= cap:
                    raise closure_cap_exceeded(len(generators), dim, cap)
                size += 1
                elements.append(nxt)
    # Drop the row set before the result set is built, so the two are
    # never held at once.
    del seen
    return set(elements)


def closure_cap_exceeded(k: int, dim: int, cap: int) -> CapExceeded:
    """The error for a closure of k generators in dimension dim that has
    more than cap elements; raised by `group_closure` and by callers that
    keep a closure and check it against the cap again."""
    return CapExceeded(f"group closure of {k} generator{'s' * (k != 1)} "
                       f"in dimension {dim} exceeded cap {cap}")


# ---------------------------------------------------------------------------
# JSON formats


def f2mat_to_json(m: F2Mat) -> list[str]:
    return m.to_rows()


def f2mat_from_json(obj) -> F2Mat:
    if not isinstance(obj, list) or not obj:
        raise InputError("F2 matrix JSON must be a nonempty list of row strings")
    return F2Mat.from_rows(obj)


def quadratic_form_to_json(q: QuadraticFormF2):
    return {"bilinear": f2mat_to_json(q.bilinear), "values": q.values.to_bits()}


def quadratic_form_from_json(obj) -> QuadraticFormF2:
    try:
        bilinear = f2mat_from_json(obj["bilinear"])
        values = F2Vec.from_bits(obj["values"])
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad quadratic form JSON: {exc}") from None
    return QuadraticFormF2(bilinear, values)
