"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: brute-force searches, exhaustive
counts, and a faithful matrix representation.  None of it shares code paths
with the package.
"""

from __future__ import annotations

import dataclasses
import itertools
from fractions import Fraction

from stable4.classify import ClassEntry
from stable4.errors import DomainError
from stable4.f2 import F2Mat, F2Vec
from stable4.forms import AugmentedForm, RingMatrix
from stable4.groupring import RingElem, augmentation
from stable4.models import HAN1, fox_jacobian, hom_bits_to_h2
from stable4.words import family_from_json, family_to_json, parse_word


# ---------------------------------------------------------------------------
# Group ring: bounded search for p with x = p + conj(p)


def one_plus_T_oracle(x: RingElem) -> bool:
    """Brute-force decision of x in im(1 + T).

    Searches every p supported on supp(x) united with its inverses, with
    coefficients bounded by max |x_g|.  Any solution can be trimmed to that
    support and bound (independent {g, g^-1} pairs), so the bounded search
    is complete.
    """
    fam = x.family
    support = sorted(
        {g for s in x.support() for g in (s, fam.invert(s))}, key=fam.sort_key
    )
    if not support:
        return x.is_zero
    bound = max(abs(x.coefficient(g)) for g in x.support())
    coeff_range = range(-bound, bound + 1)
    for coeffs in itertools.product(coeff_range, repeat=len(support)):
        p = RingElem(fam, dict(zip(support, coeffs)))
        if p + p.conjugate() == x:
            return True
    return False


# ---------------------------------------------------------------------------
# Group ring: the product by one generic multiply per term pair


def ring_product_pairwise(x, y) -> RingElem:
    """x * y, where either factor may be an int scalar, summed over every
    pair of terms with the family's ``multiply`` and merged by the checked
    RingElem constructor."""
    if isinstance(x, int):
        x = RingElem.integer(y.family, x)
    if isinstance(y, int):
        y = RingElem.integer(x.family, y)
    fam = x.family
    return RingElem(fam, [(fam.multiply(g, h), c * d)
                          for g, c in x.items() for h, d in y.items()])


# ---------------------------------------------------------------------------
# Arf: democratic counting, and the standard symplectic pairing


def standard_symplectic(genus: int) -> F2Mat:
    """Block-diagonal pairing with blocks [[0,1],[1,0]], dimension 2*genus."""
    dim = 2 * genus
    rows = []
    for i in range(genus):
        rows.append(1 << (2 * i + 1))
        rows.append(1 << (2 * i))
    return F2Mat(dim, tuple(rows))


def democratic_arf(q) -> int:
    """Arf = 0 iff q takes value 0 on a strict majority of vectors."""
    dim = q.dim
    zeros = sum(
        1 for bits in range(1 << dim) if q.evaluate(F2Vec(dim, bits)) == 0
    )
    ones = (1 << dim) - zeros
    assert zeros != ones, "a nondegenerate quadratic form cannot be balanced"
    return 0 if zeros > ones else 1


# ---------------------------------------------------------------------------
# F2 vectors


def joined_to_bits(v: F2Vec) -> str:
    """F2Vec.to_bits as first written: one generator step per coordinate."""
    return "".join("1" if v.bits >> i & 1 else "0" for i in range(v.dim))


# ---------------------------------------------------------------------------
# F2 matrices: independent closure via a product-table fixed point


def entrywise_product(a: F2Mat, b: F2Mat) -> F2Mat:
    """(ab)_ij = sum_k a_ik b_kj mod 2, read through entry(); never `@`."""
    n = a.dim
    assert b.dim == n
    rows = tuple(
        sum(
            (sum(a.entry(i, k) * b.entry(k, j) for k in range(n)) & 1) << j
            for j in range(n)
        )
        for i in range(n)
    )
    return F2Mat(n, rows)


def fixed_point_closure(generators, cap: int | None = None) -> set[F2Mat] | None:
    """Products of pairs until nothing new appears; with cap, None as soon
    as more than cap elements are found."""
    current = set(generators) | {F2Mat.identity(generators[0].dim)}
    while True:
        extra = {entrywise_product(a, b) for a in current for b in current} - current
        if not extra:
            return current
        current |= extra
        if cap is not None and len(current) > cap:
            return None


def all_invertible(dim: int) -> list[F2Mat]:
    mats = []
    for rows in itertools.product(range(1 << dim), repeat=dim):
        m = F2Mat(dim, rows)
        if m.is_invertible():
            mats.append(m)
    return mats


def naive_orbits(d: int, generators, subset=None):
    """Orbits of F2^d (or of the vectors subset accepts) under the
    generators, by union-find over entrywise matrix-vector products.

    Vectors are coordinate tuples, so sorting them is the coordinate-
    lexicographic order; the result lists each orbit sorted and the orbits
    sorted by their first vector, as F2Vecs.  None when some generator
    carries a subset vector outside the subset.
    """

    def act(g, v):
        return tuple(sum(g.entry(i, j) * v[j] for j in range(d)) % 2 for i in range(d))

    def to_vec(v):
        return F2Vec(d, sum(c << i for i, c in enumerate(v)))

    domain = [v for v in itertools.product((0, 1), repeat=d)
              if subset is None or subset(to_vec(v))]
    parent = {v: v for v in domain}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for v in domain:
        for g in generators:
            u = act(g, v)
            if u not in parent:
                return None
            parent[find(u)] = find(v)
    parts: dict = {}
    for v in domain:
        parts.setdefault(find(v), []).append(v)
    ordered = sorted(sorted(part) for part in parts.values())
    return [[to_vec(v) for v in part] for part in ordered]


def spin_state_generators(family) -> list[F2Mat]:
    """The automorphism action on the spin states (phi, eps) of a family,
    as matrices on F2^(d+1) written entry by entry: eps is coordinate 0 and
    phi coordinates 1..d.  The H^1 basis vector e_k is the transvection
    (phi, eps) -> (phi + eps e_k, eps), adding coordinate 0 to coordinate
    k + 1; an Out-generator rho is diag(1, rho)."""
    n = family.d + 1

    def matrix(entry):
        return F2Mat.from_rows([[entry(i, j) for j in range(n)] for i in range(n)])

    generators = [matrix(lambda i, j, k=k: int(i == j or (i, j) == (k + 1, 0)))
                  for k in range(family.d)]
    generators += [matrix(lambda i, j, rho=rho: int(i == j) if 0 in (i, j)
                          else rho.entry(i - 1, j - 1))
                   for rho in family.out_generators]
    return generators


def checked_pair_generators(family) -> list[F2Mat]:
    """Each Out-generator rho as diag(rho^-T, rho) on (w, tau) pairs, w in
    bits 0..d-1 and tau in bits d..2d-1, built through the checking
    constructor from the transposed inverse."""
    d = family.d
    return [F2Mat(2 * d, rho.inverse().transpose().rows + tuple(row << d for row in rho.rows))
            for rho in family.out_generators]


def spin_state_table_oracle(family) -> list[ClassEntry]:
    """The classes of a spin table, read off the `naive_orbits` of the
    `spin_state_generators` on F2^(d+1), in that order: an orbit of eps = 0
    states is the orbit of their phis, an orbit of eps = 1 states is an odd
    class."""
    classes = []
    for orbit in naive_orbits(family.d + 1, spin_state_generators(family)):
        if orbit[0].bit(0):
            classes.append(ClassEntry("odd"))
        else:
            phis = tuple(F2Vec(family.d, v.bits >> 1) for v in orbit)
            classes.append(ClassEntry("orbit", representative=phis[0], orbit=phis))
    return classes


def stabilizer_orbits(closure, w: F2Vec, smooth: bool):
    """Orbits of ker<w,-> (smooth) or of F2^d under {rho in closure :
    rho^T w = w}, by a breadth-first search from each unseen vector, with
    every product read entry by entry.

    Listed as `naive_orbits` lists them: each orbit sorted by coordinate
    tuples, the orbits by their first vector, as F2Vecs.
    """
    d = w.dim
    w_coords = tuple(w.bits >> i & 1 for i in range(d))

    def act(g, v, transpose=False):
        entry = (lambda i, j: g.entry(j, i)) if transpose else g.entry
        return tuple(sum(entry(i, j) * v[j] for j in range(d)) % 2 for i in range(d))

    stab = [g for g in closure if act(g, w_coords, transpose=True) == w_coords]
    domain = [v for v in itertools.product((0, 1), repeat=d)
              if not smooth or sum(a * b for a, b in zip(v, w_coords)) % 2 == 0]
    seen: set = set()
    parts = []
    for v in domain:
        if v in seen:
            continue
        seen.add(v)
        orbit = [v]
        for u in orbit:  # the list grows into a breadth-first queue
            for g in stab:
                image = act(g, u)
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)
        parts.append(sorted(orbit))
    parts.sort()
    return [[F2Vec(d, sum(c << i for i, c in enumerate(v))) for v in part] for part in parts]


def stabilizer_rows_loop(closure_rows, w: F2Vec) -> list[F2Mat]:
    """Stab(w) as `classify.stabilizer_of_w` filtered it with one row loop
    per element: the matrices of the row tuples whose rows picked by the
    bits of w XOR to w, in the order of the list."""
    d, bits = w.dim, w.bits
    picked = [j for j in range(d) if bits >> j & 1]
    stab = []
    for rows in closure_rows:
        acc = 0
        for j in picked:
            acc ^= rows[j]
        if acc == bits:
            stab.append(F2Mat._trusted(d, rows))
    return stab


def orbit_witnesses_full_pass(d: int, group, subset=None) -> list[F2Mat]:
    """The witnesses `f2._orbit_witnesses` picked with one popcount per row
    and no early stop (less its orbit cap check): each orbit starts at its
    least vector v, every element of the list is applied to v, and the
    first to reach each new vector is kept."""
    seen = [False] * (1 << d)
    seen[0] = True  # 0 is fixed: its orbit needs no witness
    witnesses = []
    for start in range(1, 1 << d):
        if seen[start] or subset is not None and not subset(F2Vec._trusted(d, start)):
            continue
        seen[start] = True
        for g in group:
            image = 0
            for i, row in enumerate(g.rows):
                image |= ((row & start).bit_count() & 1) << i
            if not seen[image]:
                seen[image] = True
                witnesses.append(g)
    return witnesses


# ---------------------------------------------------------------------------
# Integer symmetric matrices


def bareiss_det(rows) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(rows)
    m = [list(map(int, r)) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def leading_minors_positive(rows) -> bool:
    """Sylvester's criterion for positive definiteness."""
    n = len(rows)
    for k in range(1, n + 1):
        sub = [row[:k] for row in rows[:k]]
        if bareiss_det(sub) <= 0:
            return False
    return True


def eigen_free_signature(diag, transform) -> tuple[list[list[int]], int]:
    """A symmetric matrix g^T D g with known signature sum(sign(d))."""
    n = len(diag)
    g = transform
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            rows[i][j] = sum(g[k][i] * diag[k] * g[k][j] for k in range(n))
    expected = sum((d > 0) - (d < 0) for d in diag)
    return rows, expected


def dense_ldlt_signature(rows) -> int:
    """Signature by symmetric Fraction pivoting over the whole matrix at once.

    The reference for ``forms.ldlt_signature``, which eliminates each
    connected component of the nonzero pattern separately and fraction-free
    on ints; this is the routine as it stood before either change, so the
    two share no arithmetic.  A nonzero diagonal pivot contributes its sign;
    a vanishing active diagonal takes a 2x2 pivot [[0,b],[b,0]], which
    contributes zero, through its Schur complement.
    """
    n = len(rows)
    s = [[Fraction(v) for v in row] for row in rows]
    for i in range(n):
        assert len(rows[i]) == n and all(s[i][j] == s[j][i] for j in range(n))
    active = list(range(n))
    signature = 0
    while active:
        pivot = max(
            (i for i in active if s[i][i]),
            key=lambda i: abs(s[i][i]),
            default=None,
        )
        if pivot is not None:
            d = s[pivot][pivot]
            signature += 1 if d > 0 else -1
            active.remove(pivot)
            for r in active:
                if not s[r][pivot]:
                    continue
                factor = s[r][pivot] / d
                for c in active:
                    s[r][c] -= factor * s[pivot][c]
            for r in active:
                s[r][pivot] = s[pivot][r] = Fraction(0)
            continue
        block = next(
            ((p, q) for p in active for q in active if p < q and s[p][q]),
            None,
        )
        if block is None:
            break  # remaining block is zero: degenerate part, signature 0
        p, q = block
        b = s[p][q]
        active.remove(p)
        active.remove(q)
        for r in active:
            for c in active:
                s[r][c] -= (s[r][p] * s[q][c] + s[r][q] * s[p][c]) / b
    return signature


# ---------------------------------------------------------------------------
# Group-ring matrices held densely: the RingMatrix methods as they were
# before rows became sparse, on lists of rows of RingElems, zeros included.


def dense_is_hermitian(rows) -> bool:
    return all(
        rows[i][j] == rows[j][i].conjugate()
        for i in range(len(rows)) for j in range(i + 1)
    )


def dense_hermitian_error(rows) -> str | None:
    """The message AugmentedForm gives for rows, or None when they are
    hermitian: the first nonzero (i, j) in row-major order that is not the
    conjugate of (j, i), with both entries."""
    for i, row in enumerate(rows):
        for j, x in enumerate(row):
            mirror = rows[j][i]
            if not x.is_zero and x != mirror.conjugate():
                mirror_text = "zero" if mirror.is_zero else mirror.to_text()
                return (f"matrix is not hermitian: entry ({i}, {j}) is {x.to_text()} "
                        f"but entry ({j}, {i}) is {mirror_text}, not its conjugate")
    return None


def dense_direct_sum(family, a, b):
    zero = RingElem.zero(family)
    n, m = len(a), len(b)
    return ([list(row) + [zero] * m for row in a]
            + [[zero] * n + list(row) for row in b])


def dense_negate(rows):
    return [[-x for x in row] for row in rows]


def dense_view(m) -> list[list[RingElem]]:
    """Every entry of a RingMatrix, zeros included, row by row."""
    return [[m.entry(i, j) for j in range(m.size)] for i in range(m.size)]


def dense_augmentation_rows(rows) -> list[list[int]]:
    return [[augmentation(x) for x in row] for row in rows]


def dense_integer_rows(family, rows) -> list[list[int]]:
    identity = family.identity()
    out = []
    for row in rows:
        ints = []
        for x in row:
            if any(g != identity for g in x.support()):
                raise DomainError("matrix entry has non-identity support")
            ints.append(x.coefficient(identity))
        out.append(ints)
    return out


def dense_terms_to_json(x: RingElem) -> list:
    """One element's terms in canonical order, each word formatted afresh."""
    return [{"coeff": c, "word": x.family.element_str(g)} for g, c in x.items()]


def dense_terms_from_json(terms, family) -> RingElem:
    """Every term parsed and reduced on its own, merged by the checked
    RingElem constructor."""
    return RingElem(family, [
        (family.reduce_word(parse_word(t["word"], family.generators)), t["coeff"])
        for t in terms
    ])


def dense_form_to_json(epsilon: int, family, rows):
    n = len(rows)
    return {
        "epsilon": epsilon,
        "family": family_to_json(family),
        "size": n,
        "entries": [dense_terms_to_json(rows[i][j]) for i in range(n) for j in range(n)],
    }


def dense_form_from_json(obj):
    """(epsilon, family, rows) with a ring element parsed for every entry."""
    family = family_from_json(obj["family"])
    n, flat = obj["size"], obj["entries"]
    rows = [[dense_terms_from_json(flat[i * n + j], family) for j in range(n)]
            for i in range(n)]
    return int(obj["epsilon"]), family, rows


def dense_model_P(pres, family, gamma):
    """model_P as it was built before its rows were: the (2n+2)^2 grid of
    zeros filled in, one conjugate per product, and the grid handed to the
    checked RingMatrix constructor.  gamma is a sequence of 0/1 bits."""
    jac = fox_jacobian(pres, family)
    bits = tuple(gamma)
    n = family.rank
    zero = RingElem.zero(family)
    size = 2 * n + 2
    m = [[zero for _ in range(size)] for _ in range(size)]

    # indices after the recorded permutation: 0 = Ipi, 1 = Zpi,
    # 2..n+1 = first free block (v), n+2..2n+1 = Fox block (w)
    V = lambda i: 2 + i
    W = lambda i: 2 + n + i

    one = RingElem.one(family)
    one_minus_g = [one - RingElem.group(family, family.generator_element(j)) for j in range(n)]
    m[0][0] = RingElem.integer(family, 2)
    m[0][1] = m[1][0] = one
    for i in range(n):
        m[0][V(i)] = one_minus_g[i].conjugate()
        m[V(i)][0] = one_minus_g[i]
        for j in range(n):
            m[V(i)][V(j)] = one_minus_g[i] * one_minus_g[j].conjugate()
        m[V(i)][W(i)] = m[W(i)][V(i)] = one
    for i in range(n):
        for j in range(n):
            total = zero
            for k in range(n):
                if bits[k]:
                    total = total + jac[i][k] * jac[j][k].conjugate()
            m[W(i)][W(j)] = total

    form = AugmentedForm(1, RingMatrix(family, m))
    tau = hom_bits_to_h2(family, bits)
    return HAN1(
        w=F2Vec.zero(tau.dim),
        signature=0,
        form=form,
        tau=tau,
        notes=f"P(gamma={''.join(map(str, bits))}) over {family.generators}",
    )


# ---------------------------------------------------------------------------
# Nil groups: a faithful matrix representation

# a, x, y map to the elementary unitriangular matrices E13(1), E12(1),
# E23(z); then a is central, x and y commute with a, and the commutator
# [x, y] equals a^z, exactly the defining relations.


def _mat_mul(a, b):
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(3)) for j in range(3))
        for i in range(3)
    )


def _unitriangular(u, v, w):
    return ((1, u, w), (0, 1, v), (0, 0, 1))


def nil_word_matrix(word, z: int):
    """Evaluate a word over (a, x, y) in the representation above."""
    gens = {
        0: _unitriangular(0, 0, 1),   # a
        1: _unitriangular(1, 0, 0),   # x
        2: _unitriangular(0, z, 0),   # y
    }
    inv = {
        0: _unitriangular(0, 0, -1),
        1: _unitriangular(-1, 0, 0),
        2: _unitriangular(0, -z, 0),
    }
    out = _unitriangular(0, 0, 0)
    for gen, exp in word.letters:
        step = gens[gen] if exp > 0 else inv[gen]
        for _ in range(abs(exp)):
            out = _mat_mul(out, step)
    return out


def nil_normal_matrix(element, z: int):
    k, i, j = element
    # a^k x^i y^j = E13(k) E12(i) E23(jz)
    return _mat_mul(
        _mat_mul(_unitriangular(0, 0, k), _unitriangular(i, 0, 0)),
        _unitriangular(0, j * z, 0),
    )


# ---------------------------------------------------------------------------
# Out(pi)-images entered by hand: GL_2(F2), GL_3(F2), and for even z the
# GL_2(F2) generators padded by the torsion coordinate plus the transvections
# adding that coordinate to x and y


def hand_gl2_generators() -> tuple[F2Mat, ...]:
    return (F2Mat.from_rows(["01", "10"]), F2Mat.from_rows(["11", "01"]))


def hand_gl3_generators() -> tuple[F2Mat, ...]:
    # a transposition, the 3-cycle, and one transvection generate GL_3(F2)
    return (
        F2Mat.from_rows(["010", "100", "001"]),
        F2Mat.from_rows(["001", "100", "010"]),
        F2Mat.from_rows(["110", "010", "001"]),
    )


def hand_nil_generators(z: int) -> tuple[F2Mat, ...]:
    if z % 2:
        return hand_gl2_generators()
    pad = lambda m: F2Mat.from_rows([row + "0" for row in m.to_rows()] + ["001"])
    return tuple(pad(m) for m in hand_gl2_generators()) + (
        F2Mat.from_rows(["101", "010", "001"]),
        F2Mat.from_rows(["100", "011", "001"]),
    )


# ---------------------------------------------------------------------------
# Fox calculus: one generic multiply per letter and per unit of exponent
#
# The prefix walk that fox_derivative and reduce_word used before the
# families had kernels: one generic multiply by a generator power per step.
# The result goes through the checked RingElem constructor.


def fox_derivative_stepwise(w, gen: int, family) -> RingElem:
    terms: dict = {}
    prefix = family.identity()
    for idx, exp in w.letters:
        if idx == gen:
            step = family.generator_element(idx, 1 if exp > 0 else -1)
            # D(g^k) = sum of the partial prefixes, signed
            cursor = prefix if exp > 0 else family.multiply(prefix, step)
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                terms[cursor] = terms.get(cursor, 0) + sign
                cursor = family.multiply(cursor, step)
        prefix = family.multiply(prefix, family.generator_element(idx, exp))
    return RingElem(family, terms)


def reduce_word_stepwise(w, family):
    out = family.identity()
    for gen, exp in w.letters:
        out = family.multiply(out, family.generator_element(gen, exp))
    return out


# ---------------------------------------------------------------------------
# Frozen dataclass twins of the value records


def _twin(name: str, *fields):
    """A frozen dataclass with the given fields; a field given as a pair
    (name, default) has that default."""
    spec = [
        (f, object) if isinstance(f, str)
        else (f[0], object, dataclasses.field(default=f[1]))
        for f in fields
    ]
    return dataclasses.make_dataclass(name, spec, frozen=True)


# record class name -> the dataclass it replaced, field for field
RECORD_TWINS = {
    twin.__name__: twin
    for twin in (
        _twin("F2Vec", "dim", "bits"),
        _twin("F2Mat", "dim", "rows"),
        _twin("QuadraticFormF2", "bilinear", "values"),
        _twin("Word", ("letters", ())),
        _twin("FreeFamily", "generators"),
        _twin("ZnFamily", "n"),
        _twin("NilFamily", "z"),
        _twin("Presentation", "generators", "relators"),
        _twin("AugmentedForm", "epsilon", "matrix"),
        _twin("HAN1", "w", "signature", "form", ("tau", None), ("notes", "")),
        _twin("FamilyData", "name", "d", "out_generators"),
        _twin("ClassEntry", "kind", ("representative", None), ("orbit", ())),
        _twin("ClassificationTable", "w", "category", "signature_stride",
              "classes", "ks_rule", ("family_name", "")),
        _twin("InvariantTuple", "w", "signature", "parity", ("tau", None)),
    )
}


def twin_of(record):
    """The dataclass twin holding the same field values as record."""
    twin = RECORD_TWINS[type(record).__name__]
    return twin(*(getattr(record, f.name) for f in dataclasses.fields(twin)))

