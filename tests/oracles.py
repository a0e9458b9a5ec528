"""Independent reference implementations used to cross-check the library.

Everything here is deliberately naive: brute-force searches, exhaustive
counts, and a faithful matrix representation.  None of it shares code paths
with the package.
"""

from __future__ import annotations

import itertools
from fractions import Fraction

from stable4.f2 import F2Mat, F2Vec
from stable4.groupring import RingElem


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
# Arf: democratic counting


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
# F2 matrices: independent closure via a product-table fixed point


def fixed_point_closure(generators) -> set[F2Mat]:
    current = set(generators) | {F2Mat.identity(generators[0].dim)}
    while True:
        extra = {a @ b for a in current for b in current} - current
        if not extra:
            return current
        current |= extra


def all_invertible(dim: int) -> list[F2Mat]:
    mats = []
    for rows in itertools.product(range(1 << dim), repeat=dim):
        m = F2Mat(dim, rows)
        if m.is_invertible():
            mats.append(m)
    return mats


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

    The reference for ``forms.ldlt_signature``, which pivots each connected
    component of the nonzero pattern separately; this is the routine as it
    stood before that split.  A nonzero diagonal pivot contributes its sign;
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
