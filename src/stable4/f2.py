"""Linear algebra over GF(2): packed bit vectors and matrices, quadratic
forms with the Arf invariant, symplectic bases, matrix-group closure and
orbit enumeration under generator sets.

Vectors pack coordinate i into bit i of an int; a matrix stores one mask per
row and acts on column vectors.  Every public constructor checks that a d x d
matrix has d rows, each a mask below 2^d.  A product of two such matrices
XORs rows of the right factor, so it stays below 2^d and is built by the
private `F2Mat._trusted`, which stores the fields without running
`__init__` and so without that check again.  Enumerations are bounded by
the caps below, so a group or state space too large fails at once.
"""

from __future__ import annotations

import os
from collections.abc import Callable, Sequence

from .errors import CapExceeded, DomainError, InputError
from .records import Record

ORBIT_DIM_CAP = 20
CLOSURE_CAP = 10**6


def configured_cap(default: int = CLOSURE_CAP) -> int:
    """Enumeration cap, overridable via the STABLE4_CAP environment variable
    (an integer >= 1)."""
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

    dim: int
    bits: int

    def __init__(self, dim: int, bits: int) -> None:
        if dim < 0 or bits < 0 or bits >> dim:
            raise InputError(f"bits {bits:#x} out of range for dim {dim}")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "bits", bits)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.dim == other.dim and self.bits == other.bits
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dim, self.bits))

    @classmethod
    def zero(cls, dim: int) -> "F2Vec":
        return cls(dim, 0)

    @classmethod
    def basis(cls, dim: int, i: int) -> "F2Vec":
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
        return "".join("1" if self.bits >> i & 1 else "0" for i in range(self.dim))

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
        return F2Vec(self.dim, self.bits ^ other.bits)

    def dot(self, other: "F2Vec") -> int:
        if self.dim != other.dim:
            raise DomainError(f"dimension mismatch: vectors of dimension {self.dim} "
                              f"and {other.dim}")
        return (self.bits & other.bits).bit_count() & 1

    def __repr__(self) -> str:
        return f"F2Vec({self.to_bits()!r})"


class F2Mat(Record):
    """Square matrix over GF(2); rows[i] is the bitmask of row i."""

    dim: int
    rows: tuple[int, ...]

    def __init__(self, dim: int, rows: tuple[int, ...]) -> None:
        if len(rows) != dim or any(r >> dim for r in rows):
            raise InputError("matrix rows inconsistent with dimension")
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "rows", rows)

    @classmethod
    def _trusted(cls, dim: int, rows: tuple[int, ...]) -> "F2Mat":
        """A matrix whose rows are known to be d masks below 2^d; no checks."""
        m = object.__new__(cls)
        object.__setattr__(m, "dim", dim)
        object.__setattr__(m, "rows", rows)
        return m

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self.dim == other.dim and self.rows == other.rows
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.dim, self.rows))

    @classmethod
    def identity(cls, dim: int) -> "F2Mat":
        return cls(dim, tuple(1 << i for i in range(dim)))

    @classmethod
    def from_rows(cls, rows: Sequence) -> "F2Mat":
        """Rows given as bit-strings ("110") or 0/1 sequences, each as long as
        the number of rows."""
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
                    if v not in (0, 1):
                        raise InputError(f"matrix entry {v!r} is not a bit")
                    mask |= v << i
                masks.append(mask)
        return cls(len(masks), tuple(masks))

    def to_rows(self) -> list[str]:
        return [F2Vec(self.dim, r).to_bits() for r in self.rows]

    def entry(self, i: int, j: int) -> int:
        return self.rows[i] >> j & 1

    def apply(self, v: F2Vec) -> F2Vec:
        """Column-vector action (Mv)_i = <row_i, v>."""
        if v.dim != self.dim:
            raise DomainError(f"dimension mismatch: a matrix of dimension {self.dim} "
                              f"applied to a vector of dimension {v.dim}")
        bits = 0
        for i, row in enumerate(self.rows):
            bits |= ((row & v.bits).bit_count() & 1) << i
        return F2Vec(self.dim, bits)

    def __matmul__(self, other: "F2Mat") -> "F2Mat":
        """Row i of the product is the XOR of other.rows[j] over the set bits
        j of self.rows[i]."""
        if self.dim != other.dim:
            raise DomainError(f"dimension mismatch: product of matrices of dimension "
                              f"{self.dim} and {other.dim}")
        return F2Mat._trusted(self.dim, tuple(map(other.combine, self.rows)))

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
        rows = [0] * self.dim
        for i, r in enumerate(self.rows):
            for j in range(self.dim):
                rows[j] |= (r >> j & 1) << i
        return F2Mat(self.dim, tuple(rows))

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


def _vec_key(v: F2Vec):
    return v.coords()


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

    def pairing(self, u: F2Vec, v: F2Vec) -> int:
        return self.bilinear.apply(v).dot(u)

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


def standard_symplectic(genus: int) -> F2Mat:
    """Block-diagonal pairing with blocks [[0,1],[1,0]], dimension 2*genus."""
    dim = 2 * genus
    rows = []
    for i in range(genus):
        rows.append(1 << (2 * i + 1))
        rows.append(1 << (2 * i))
    return F2Mat(dim, tuple(rows))


# ---------------------------------------------------------------------------
# Orbits and closures


def orbits(
    d: int,
    generators: Sequence[F2Mat],
    subset: Callable[[F2Vec], bool] | None = None,
    max_states: int | None = None,
) -> list[list[F2Vec]]:
    """Partition of the (subset of the) 2^d vectors into group orbits.

    The orbit of v lists every vector reachable from v by generator
    applications; each orbit is sorted coordinate-lexicographically and the
    orbits are sorted by their minimal representatives.  A subset predicate
    must be stable under every generator; this is validated.
    """
    if d < 0:
        raise InputError(f"orbit dimension {d} is negative")
    cap = max_states if max_states is not None else 1 << ORBIT_DIM_CAP
    if 1 << d > cap:
        raise CapExceeded(f"2^{d} states exceed the orbit cap {cap}")
    for k, g in enumerate(generators):
        if g.dim != d:
            raise DomainError(f"generator {k} has dimension {g.dim}, expected {d}")
        if not g.is_invertible():
            raise DomainError("orbit generators must be invertible")

    domain = [F2Vec(d, bits) for bits in range(1 << d)]
    if subset is not None:
        domain = [v for v in domain if subset(v)]
        for v in domain:
            for g in generators:
                if not subset(g.apply(v)):
                    raise DomainError("subset is not closed under the action")

    seen: set[int] = set()
    parts: list[list[F2Vec]] = []
    for start in domain:
        if start.bits in seen:
            continue
        orbit = orbit_of(start, generators)
        seen |= orbit
        parts.append(sorted((F2Vec(d, bits) for bits in orbit), key=_vec_key))
    parts.sort(key=lambda orb: _vec_key(orb[0]))
    return parts


def orbit_of(v: F2Vec, generators: Sequence[F2Mat]) -> set[int]:
    """Bitmask set of the single orbit through v."""
    frontier = [v]
    reached = {v.bits}
    while frontier:
        u = frontier.pop()
        for g in generators:
            w = g.apply(u)
            if w.bits not in reached:
                reached.add(w.bits)
                frontier.append(w)
    return reached


def group_closure(generators: Sequence[F2Mat], cap: int | None = None) -> set[F2Mat]:
    """The matrix group generated by the given invertible matrices.

    Raises CapExceeded once the closure grows past the cap (default 10^6,
    overridable through STABLE4_CAP): the family is then too large for exact
    stabilizer computations.
    """
    if cap is None:
        cap = configured_cap()
    if not generators:
        raise DomainError("need at least one generator (use the identity)")
    dim = generators[0].dim
    for k, g in enumerate(generators):
        if g.dim != dim:
            raise DomainError(f"generator {k} has dimension {g.dim}, expected {dim} "
                              "(that of generator 0)")
        if not g.is_invertible():
            raise DomainError("closure generators must be invertible")
    closure: set[F2Mat] = {F2Mat.identity(dim)}
    frontier = list(closure)
    while frontier:
        m = frontier.pop()
        for g in generators:
            nxt = g @ m
            if nxt not in closure:
                if len(closure) >= cap:
                    raise CapExceeded(f"group closure exceeded cap {cap}")
                closure.add(nxt)
                frontier.append(nxt)
    return closure


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
