import copy
import itertools
import os
import pickle
import random
import re
import tracemalloc
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (
    all_invertible,
    democratic_arf,
    entrywise_product,
    fixed_point_closure,
    joined_to_bits,
    naive_orbits,
    standard_symplectic,
)
from stable4.errors import CapExceeded, DomainError, InputError
from stable4.f2 import (
    PRODUCT_TABLE_DIM,
    F2Mat,
    F2Vec,
    QuadraticFormF2,
    _columns,
    _combine,
    _image_table,
    arf,
    configured_cap,
    f2mat_from_json,
    f2mat_to_json,
    group_closure,
    orbit_of,
    orbits,
    quadratic_form_from_json,
    quadratic_form_to_json,
    symplectic_basis,
)

GL2 = (F2Mat.from_rows(["01", "10"]), F2Mat.from_rows(["11", "01"]))
GL3 = (
    F2Mat.from_rows(["010", "100", "001"]),
    F2Mat.from_rows(["001", "100", "010"]),
    F2Mat.from_rows(["110", "010", "001"]),
)
# A 4-cycle of the basis and one transvection generate GL_4(F2).
GL4 = (
    F2Mat.from_rows(["0100", "0010", "0001", "1000"]),
    F2Mat.from_rows(["1100", "0100", "0010", "0001"]),
)


# ---------------------------------------------------------------------------
# vectors and matrices


def test_vec_bits_round_trip():
    v = F2Vec.from_bits("101")
    assert v.coords() == (1, 0, 1)
    assert v.to_bits() == "101"
    assert v.bit(0) == 1 and v.bit(1) == 0


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 40).flatmap(
    lambda dim: st.tuples(st.just(dim), st.integers(0, (1 << dim) - 1))))
@example((0, 0))
def test_vec_to_bits_matches_the_joined_oracle(case):
    v = F2Vec(*case)
    assert v.to_bits() == joined_to_bits(v)
    if not v.dim:
        assert v.to_bits() == ""
    if v.dim:  # from_bits refuses the empty string
        assert F2Vec.from_bits(v.to_bits()) == v


def test_vec_dot_and_xor():
    a = F2Vec.from_bits("110")
    b = F2Vec.from_bits("011")
    assert a.dot(b) == 1
    assert (a ^ b).to_bits() == "101"


def test_vec_rejects_bad_strings():
    with pytest.raises(InputError):
        F2Vec.from_bits("10a")
    with pytest.raises(InputError):
        F2Vec.from_bits("")


@pytest.mark.parametrize("value", [[1, 0], ["1", "0"], 101, None])
def test_vec_rejects_non_strings(value):
    with pytest.raises(InputError, match="bad bit-string"):
        F2Vec.from_bits(value)


def test_matrix_apply():
    m = F2Mat.from_rows(["110", "011", "001"])
    v = F2Vec.from_bits("100")
    assert m.apply(v).to_bits() == "100"
    assert m.apply(F2Vec.from_bits("010")).to_bits() == "110"


def test_matrix_product_against_composition():
    rng = random.Random(7)
    for _ in range(50):
        a = F2Mat(3, tuple(rng.randrange(8) for _ in range(3)))
        b = F2Mat(3, tuple(rng.randrange(8) for _ in range(3)))
        v = F2Vec(3, rng.randrange(8))
        assert (a @ b).apply(v) == a.apply(b.apply(v))


@st.composite
def matrix_pairs(draw):
    d = draw(st.integers(0, 6))
    row = st.integers(0, (1 << d) - 1)
    a = F2Mat(d, tuple(draw(st.lists(row, min_size=d, max_size=d))))
    b = F2Mat(d, tuple(draw(st.lists(row, min_size=d, max_size=d))))
    return a, b


@settings(max_examples=300, deadline=None)
@given(matrix_pairs())
def test_product_matches_entrywise_oracle(pair):
    a, b = pair
    product = a @ b
    assert product == entrywise_product(a, b)
    rebuilt = F2Mat(a.dim, product.rows)
    assert product == rebuilt and hash(product) == hash(rebuilt)
    assert all(0 <= r < 1 << a.dim for r in product.rows)


@st.composite
def product_cases(draw):
    """Two d x d left factors and a right factor that is invertible,
    singular (one row the XOR of others) or arbitrary, for d on both sides
    of PRODUCT_TABLE_DIM."""
    d = draw(st.integers(0, 12))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def rows():
        return [rng.randrange(1 << d) for _ in range(d)]

    kind = draw(st.sampled_from(("invertible", "singular", "any")))
    if kind == "invertible":
        b = _random_invertible(rng, d)
    elif kind == "singular" and d:
        # row i becomes the XOR of a random set of the other rows
        b_rows, i = rows(), rng.randrange(d)
        b_rows[i] = 0
        b_rows[i] = F2Mat(d, tuple(b_rows)).combine(rng.randrange(1 << d))
        b = F2Mat(d, tuple(b_rows))
        assert not b.is_invertible()
    else:
        b = F2Mat(d, tuple(rows()))
    return F2Mat(d, tuple(rows())), F2Mat(d, tuple(rows())), b


@settings(max_examples=300, deadline=None)
@given(product_cases())
def test_product_matches_the_row_definition(case):
    """Row i of A @ B is B.combine(A.rows[i]), before and after B has served
    as a right factor (and so, up to PRODUCT_TABLE_DIM, carries its table)."""
    a, a2, b = case
    for left in (a, a2, a, b):
        want = F2Mat(b.dim, tuple(b.combine(r) for r in left.rows))
        assert left @ b == want
    table = getattr(b, "_product_table", None)
    assert (table is None) == (b.dim > PRODUCT_TABLE_DIM)


def test_product_table_is_invisible():
    b = F2Mat.from_rows(["110", "011", "001"])
    assert F2Mat.identity(3) @ b == b
    assert getattr(b, "_product_table", None) is not None
    fresh = F2Mat(3, b.rows)
    assert b == fresh and fresh == b
    assert hash(b) == hash(fresh) and repr(b) == repr(fresh)
    assert pickle.dumps(b) == pickle.dumps(fresh)
    for clone in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b), copy.copy(b)):
        assert clone == fresh and hash(clone) == hash(fresh) and repr(clone) == repr(fresh)
        assert not hasattr(clone, "_product_table")
    # The table's slot is written only by the product, never through the record.
    with pytest.raises(AttributeError, match="cannot assign to field '_product_table'"):
        b._product_table = None
    with pytest.raises(AttributeError, match="cannot delete field '_product_table'"):
        del b._product_table


def test_product_dimension_mismatch():
    with pytest.raises(DomainError):
        F2Mat.identity(2) @ F2Mat.identity(3)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: F2Vec.zero(2) ^ F2Vec.zero(3), "vectors of dimension 2 and 3"),
        (lambda: F2Vec.zero(3).dot(F2Vec.zero(2)), "vectors of dimension 3 and 2"),
        (lambda: F2Mat.identity(2).apply(F2Vec.zero(3)),
         "matrix of dimension 2 applied to a vector of dimension 3"),
        (lambda: F2Mat.identity(2) @ F2Mat.identity(3), "matrices of dimension 2 and 3"),
        (lambda: orbits(3, [F2Mat.identity(3), F2Mat.identity(2)]),
         "generator 1 has dimension 2, expected 3"),
        (lambda: group_closure([F2Mat.identity(3), F2Mat.identity(2)]),
         r"generator 1 has dimension 2, expected 3 \(that of generator 0\)"),
    ],
)
def test_dimension_errors_name_both_dimensions(call, message):
    with pytest.raises(DomainError, match=message):
        call()


def test_orbits_rejects_a_negative_dimension():
    with pytest.raises(InputError, match="orbit dimension -1 is negative"):
        orbits(-1, [])


@pytest.mark.parametrize(
    "rows, index, length",
    [(["01", "1"], 1, 1), (["0", "10"], 0, 1), ([[0, 1], [1]], 1, 1),
     ([[0, 1, 1], [1, 0]], 0, 3), (["101", "010", "0011"], 2, 4)],
)
def test_from_rows_rejects_ragged_rows(rows, index, length):
    with pytest.raises(InputError, match=f"row {index} has length {length}, expected {len(rows)}"):
        F2Mat.from_rows(rows)


def test_from_rows_rejects_rows_that_are_not_sequences():
    with pytest.raises(InputError, match="row 0"):
        F2Mat.from_rows([5])


def test_matrix_inverse():
    for m in GL3:
        assert (m @ m.inverse()) == F2Mat.identity(3)
    with pytest.raises(DomainError):
        F2Mat.from_rows(["11", "11"]).inverse()


def test_inverse_rows_pass_the_checking_constructor():
    rng = random.Random(7)
    for d in range(1, 9):
        m = _random_invertible(rng, d)
        inverse = m.inverse()
        assert F2Mat(d, inverse.rows) == inverse
        assert m @ inverse == F2Mat.identity(d) == inverse @ m


def test_transpose_involution():
    m = F2Mat.from_rows(["110", "011", "001"])
    assert m.transpose().transpose() == m


# ---------------------------------------------------------------------------
# quadratic forms and Arf


def test_quadratic_form_validation():
    with pytest.raises(DomainError):  # diagonal not zero
        QuadraticFormF2(F2Mat.from_rows(["11", "10"]), F2Vec.zero(2))
    with pytest.raises(DomainError):  # degenerate
        QuadraticFormF2(F2Mat.from_rows(["00", "00"]), F2Vec.zero(2))


def test_arf_genus_one():
    b = standard_symplectic(1)
    assert arf(QuadraticFormF2(b, F2Vec.from_bits("00"))) == 0
    assert arf(QuadraticFormF2(b, F2Vec.from_bits("11"))) == 1


def test_arf_genus_two_all_ones():
    b = standard_symplectic(2)
    assert arf(QuadraticFormF2(b, F2Vec.from_bits("1111"))) == 0


def _all_quadratic_forms(dim):
    for rows in itertools.product(range(1 << dim), repeat=dim):
        try:
            b = F2Mat(dim, rows)
            for bits in range(1 << dim):
                yield QuadraticFormF2(b, F2Vec(dim, bits))
        except (DomainError, InputError):
            continue


def test_arf_matches_democratic_count_exhaustively():
    total = 0
    for dim in (2, 4):
        for q in _all_quadratic_forms(dim):
            assert arf(q) == democratic_arf(q)
            total += 1
    assert total > 100


def test_arf_additive_exhaustively():
    b = standard_symplectic(1)
    small = [QuadraticFormF2(b, F2Vec(2, bits)) for bits in range(4)]
    for q1 in small:
        for q2 in small:
            assert arf(q1.direct_sum(q2)) == (arf(q1) + arf(q2)) % 2


def test_symplectic_basis_standard():
    basis = symplectic_basis(standard_symplectic(1))
    assert [v.to_bits() for v in basis] == ["10", "01"]


def test_symplectic_basis_revalidates():
    # a permuted 4-dimensional symplectic form
    b = F2Mat.from_rows(["0001", "0010", "0100", "1000"])
    basis = symplectic_basis(b)
    assert len(basis) == 4

    def pair(u, v):
        return b.apply(v).dot(u)

    for i in range(0, 4, 2):
        assert pair(basis[i], basis[i + 1]) == 1
    assert pair(basis[0], basis[2]) == 0
    assert pair(basis[0], basis[3]) == 0
    assert pair(basis[1], basis[2]) == 0
    # output must be a basis: the span has full dimension
    span = {0}
    for v in basis:
        span |= {s ^ v.bits for s in span}
    assert len(span) == 16


def test_symplectic_basis_rejects_degenerate():
    with pytest.raises(DomainError):
        symplectic_basis(F2Mat.from_rows(["00", "00"]))


# ---------------------------------------------------------------------------
# orbits


def test_orbits_gl3_two_orbits():
    parts = orbits(3, list(GL3))
    assert len(parts) == 2
    assert [v.to_bits() for v in parts[0]] == ["000"]
    assert len(parts[1]) == 7


def test_orbits_identity_only():
    parts = orbits(2, [F2Mat.identity(2)])
    assert len(parts) == 4


def test_orbits_partition_domain():
    parts = orbits(3, list(GL2_padded()))
    seen = [v.to_bits() for orb in parts for v in orb]
    assert sorted(seen) == sorted(F2Vec(3, b).to_bits() for b in range(8))
    assert len(seen) == len(set(seen))


def GL2_padded():
    return [F2Mat.from_rows([r + "0" for r in m.to_rows()] + ["001"]) for m in GL2]


def test_orbits_invariant_under_generator_shuffles():
    rng = random.Random(3)
    base = orbits(3, list(GL3))
    for _ in range(5):
        gens = list(GL3) + [rng.choice(GL3)]
        rng.shuffle(gens)
        assert orbits(3, gens) == base


def test_orbits_invariant_under_generating_set_change():
    # replace the generators by the whole closure: same orbits
    closure = sorted(group_closure(list(GL2)), key=lambda m: m.rows)
    assert orbits(2, list(GL2)) == orbits(2, closure)


def test_orbit_membership_consistency():
    parts = orbits(3, list(GL3))
    lookup = {}
    for i, orb in enumerate(parts):
        for v in orb:
            lookup[v.bits] = i
    for g in GL3:
        for bits in range(8):
            v = F2Vec(3, bits)
            assert lookup[v.bits] == lookup[g.apply(v).bits]


def test_orbits_subset_validation():
    w = F2Vec.from_bits("100")
    kernel = lambda v: w.dot(v) == 0
    parts = orbits(3, [F2Mat.identity(3)], subset=kernel)
    assert sum(len(p) for p in parts) == 4
    bad = lambda v: v.to_bits() in ("000", "100")  # not GL3-stable
    # GL3[0] swaps the first two coordinates.
    with pytest.raises(DomainError,
                       match="subset is not closed under generator 0: 100 -> 010"):
        orbits(3, list(GL3), subset=bad)
    # The leaking generator is named by its place, past equal generators.
    identity = F2Mat.identity(3)
    with pytest.raises(DomainError,
                       match="subset is not closed under generator 2: 100 -> 010"):
        orbits(3, [identity, F2Mat.identity(3), GL3[0], GL3[0]], subset=bad)


def test_orbits_rejects_singular_generator():
    with pytest.raises(DomainError, match="generator 1 is not invertible"):
        orbits(2, [F2Mat.identity(2), F2Mat.from_rows(["10", "10"])])


def _random_matrix(rng, d, singular):
    """A random d x d matrix that is singular or invertible, as asked."""
    while True:
        m = F2Mat(d, tuple(rng.randrange(1 << d) for _ in range(d)))
        if m.is_invertible() != singular:
            return m


@pytest.mark.parametrize("d", range(1, 9))
def test_row_built_steps_match_the_transpose(d):
    """The image table `orbits` builds from a generator's rows, and the
    column step of `orbit_of`, against the transpose and against `apply`,
    on singular and invertible matrices."""
    rng = random.Random(d)
    for singular in (True, False) * 3:
        g = _random_matrix(rng, d, singular)
        table = _image_table(_columns(g.rows))
        assert table == _image_table(g.transpose().rows)
        assert table == [g.apply(F2Vec(d, bits)).bits for bits in range(1 << d)]
        assert (table.count(0) == 1) != singular
        columns = _columns(g.rows)
        assert [_combine(columns, bits) for bits in range(1 << d)] == table


@pytest.mark.parametrize("k", range(3))
def test_orbits_singular_refusal_names_the_generator(k):
    rng = random.Random(k)
    for d in range(1, 7):
        gens = [_random_matrix(rng, d, singular=False) for _ in range(3)]
        gens[k] = _random_matrix(rng, d, singular=True)
        with pytest.raises(DomainError, match=f"^generator {k} is not invertible$"):
            orbits(d, gens)


@pytest.mark.parametrize("call", [
    lambda gens: orbits(2, gens),
    lambda gens: orbit_of(F2Vec.from_bits("10"), gens),
    lambda gens: group_closure(gens),
], ids=["orbits", "orbit_of", "group_closure"])
@pytest.mark.parametrize("k, bad", [(0, (1, 2)), (1, "01"), (1, None), (2, [[1, 0], [0, 1]])])
def test_orbit_and_closure_calls_refuse_a_generator_that_is_no_matrix(call, k, bad):
    gens = [F2Mat.identity(2), F2Mat.from_rows(["01", "10"]), F2Mat.identity(2)]
    gens[k] = bad
    message = f"generator {k} is {bad!r}, not an F2 matrix"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        call(gens)


@pytest.mark.parametrize("start", [2, "10", (1, 0), None, F2Mat.identity(2)])
def test_orbit_of_refuses_a_start_that_is_no_vector(start):
    message = f"orbit start {start!r} is not an F2 vector"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        orbit_of(start, list(GL2))


def test_orbits_dimension_cap():
    with pytest.raises(CapExceeded):
        orbits(21, [F2Mat.identity(21)])


def test_orbits_honour_the_env_cap(monkeypatch):
    monkeypatch.setenv("STABLE4_CAP", "8")
    with pytest.raises(CapExceeded, match=r"^2\^4 states exceed the orbit cap 8$"):
        orbits(4, [F2Mat.identity(4)])
    assert len(orbits(3, [F2Mat.identity(3)])) == 8
    # orbit_of counts the states it reaches: GL_3(F2) moves 100 through all
    # 7 nonzero vectors.
    v = F2Vec.from_bits("100")
    monkeypatch.setenv("STABLE4_CAP", "7")
    assert len(orbit_of(v, list(GL3))) == 7
    monkeypatch.setenv("STABLE4_CAP", "6")
    message = "orbit in dimension 3 reached 7 states, over the orbit cap 6"
    with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
        orbit_of(v, list(GL3))


def _random_invertible(rng, d, w=0):
    """A random invertible d x d matrix; with w, one whose transpose fixes w
    (so it preserves ker<w,->): the row at the lowest bit of w is chosen so
    that the rows picked by w sum to w."""
    while True:
        rows = [rng.randrange(1 << d) for _ in range(d)]
        if w:
            low = (w & -w).bit_length() - 1
            rows[low] = 0
            rows[low] = w ^ F2Mat(d, tuple(rows)).combine(w)
        m = F2Mat(d, tuple(rows))
        if m.is_invertible():
            return m


def _check_orbits_against_oracle(d, gens, subset=None):
    want = naive_orbits(d, gens, subset)
    if want is None:
        with pytest.raises(DomainError, match="subset is not closed under generator"):
            orbits(d, gens, subset=subset)
        return
    got = orbits(d, gens, subset=subset)
    assert got == want
    for part in got:
        bits = {v.bits for v in part}
        for v in part:
            assert orbit_of(v, gens) == bits


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 6), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_orbits_and_orbit_of_match_union_find_oracle(d, k, seed):
    rng = random.Random(seed)
    w = rng.randrange(1, 1 << d)
    kernel = lambda v: (v.bits & w).bit_count() % 2 == 0
    free = [_random_invertible(rng, d) for _ in range(k)]
    fixing_w = [_random_invertible(rng, d, w) for _ in range(k)]
    assert all(g.combine(w) == w for g in fixing_w)
    for gens in (free, fixing_w):
        # the kernel is closed under fixing_w; under free it may not be
        generator_sets = [gens]
        try:
            with mock.patch.dict(os.environ, {"STABLE4_CAP": "200"}):
                closure = group_closure(gens)
            generator_sets.append(sorted(closure, key=lambda m: m.rows))
        except CapExceeded:
            pass  # the whole group only where it is small
        for mats in generator_sets:
            for subset in (None, kernel):
                _check_orbits_against_oracle(d, mats, subset)


# ---------------------------------------------------------------------------
# closure


def test_closure_identity():
    assert group_closure([F2Mat.identity(2)]) == {F2Mat.identity(2)}


def test_closure_gl2_has_six_elements():
    assert len(group_closure(list(GL2))) == 6


def test_closure_matches_fixed_point_oracle():
    gens = [
        F2Mat.from_rows(["010", "100", "001"]),
        F2Mat.from_rows(["110", "010", "001"]),
    ]
    assert group_closure(gens) == fixed_point_closure(gens)


@pytest.mark.parametrize("seed", range(6))
def test_closure_matches_fixed_point_oracle_on_seeded_sets(seed):
    rng = random.Random(seed)
    d, k = 1 + seed % 3, 1 + seed % 2
    gens = [_random_invertible(rng, d) for _ in range(k)]
    assert group_closure(gens) == fixed_point_closure(gens)


def test_closure_gl3_order():
    closure = group_closure(list(GL3))
    assert len(closure) == 168
    assert closure == set(all_invertible(3))


def test_closure_gl4_order():
    assert len(group_closure(list(GL4))) == 20160


def test_closure_rejects_singular_generator():
    with pytest.raises(DomainError, match="generator 1 is not invertible"):
        group_closure([F2Mat.identity(2), F2Mat.from_rows(["10", "10"])])


def test_closure_cap(monkeypatch):
    monkeypatch.setenv("STABLE4_CAP", "3")
    with pytest.raises(CapExceeded, match=r"^group closure of 2 generators in "
                                          r"dimension 2 exceeded cap 3$"):
        group_closure(list(GL2))
    monkeypatch.setenv("STABLE4_CAP", "1")
    with pytest.raises(CapExceeded, match=r"^group closure of 1 generator in "
                                          r"dimension 2 exceeded cap 1$"):
        group_closure([GL2[0]])
    monkeypatch.setenv("STABLE4_CAP", "6")
    assert len(group_closure(list(GL2))) == 6
    monkeypatch.setenv("STABLE4_CAP", "167")
    with pytest.raises(CapExceeded, match=r"^group closure of 3 generators in "
                                          r"dimension 3 exceeded cap 167$"):
        group_closure(list(GL3))
    monkeypatch.setenv("STABLE4_CAP", "168")
    assert len(group_closure(list(GL3))) == 168


@pytest.mark.parametrize("gens, order", [(GL3, 168), (GL4, 20160)], ids=["GL3", "GL4"])
def test_closure_makes_one_product_per_element_and_generator(monkeypatch, gens, order):
    product = F2Mat.__dict__["__matmul__"]
    calls = 0

    def counting(a, b):
        nonlocal calls
        calls += 1
        return product(a, b)

    monkeypatch.setattr(F2Mat, "__matmul__", counting)
    closure = group_closure(list(gens))
    assert len(closure) == order
    assert calls == order * len(gens)


def test_closure_peak_memory_is_close_to_its_result():
    """The row set that deduplicates products is dropped before the result
    set is built, so the traced peak stays near what the call returns."""
    gens = list(GL4)
    tracemalloc.start()
    try:
        closure = group_closure(gens)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(closure) == 20160
    assert peak <= 1.25 * held


def test_closure_above_the_table_dimension_matches_the_oracle():
    """GL_3(F2) + I_6 at d = 9 multiplies row by row, with no product table.
    The entrywise oracle takes seconds at d = 9, so it runs on the 3 x 3
    blocks and its result is embedded."""
    pad = tuple(1 << i for i in range(3, 9))
    embed = lambda m: F2Mat(9, m.rows + pad)
    gens = [embed(g) for g in GL3]
    assert 9 > PRODUCT_TABLE_DIM
    closure = group_closure(gens)
    assert len(closure) == 168
    assert closure == {embed(m) for m in fixed_point_closure(list(GL3))}
    assert not any(hasattr(g, "_product_table") for g in gens)


def test_closure_in_high_dimension_builds_no_product_table():
    """A transposition of F2^40 generates a group of order 2; the closure
    must not tabulate 2^40 subset XORs."""
    d = 40
    swap = F2Mat(d, (2, 1) + tuple(1 << i for i in range(2, d)))
    tracemalloc.start()
    try:
        closure = group_closure([swap])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert closure == {F2Mat.identity(d), swap}
    assert peak < 1 << 20


def test_closure_env_cap(monkeypatch):
    monkeypatch.setenv("STABLE4_CAP", "2")
    with pytest.raises(CapExceeded):
        group_closure(list(GL3))
    monkeypatch.setenv("STABLE4_CAP", "1000")
    assert len(group_closure(list(GL3))) == 168


def test_configured_cap_sees_each_set_and_unset(monkeypatch):
    monkeypatch.delenv("STABLE4_CAP", raising=False)
    assert configured_cap() == 10**6
    assert configured_cap(1 << 20) == 1 << 20
    monkeypatch.setenv("STABLE4_CAP", "12")
    assert configured_cap() == configured_cap(1 << 20) == 12
    monkeypatch.setenv("STABLE4_CAP", "34")
    assert configured_cap() == 34
    monkeypatch.delenv("STABLE4_CAP")
    assert configured_cap(5) == 5
    os.environ["STABLE4_CAP"] = "56"
    try:
        assert configured_cap() == 56
    finally:
        del os.environ["STABLE4_CAP"]
    assert configured_cap() == 10**6


@pytest.mark.parametrize("raw, message", [
    ("abc", "STABLE4_CAP='abc' is not an integer"),
    ("0", "STABLE4_CAP='0' is below 1"),
    ("", "STABLE4_CAP='' is not an integer"),
])
def test_configured_cap_keeps_its_refusals(monkeypatch, raw, message):
    monkeypatch.setenv("STABLE4_CAP", raw)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        configured_cap()


@pytest.mark.parametrize("raw", ["0", "-3"])
def test_env_cap_below_one_is_rejected(monkeypatch, raw):
    monkeypatch.setenv("STABLE4_CAP", raw)
    with pytest.raises(InputError, match=f"STABLE4_CAP='{raw}' is below 1"):
        group_closure(list(GL3))


# ---------------------------------------------------------------------------
# serialization


def test_matrix_json_round_trip():
    m = F2Mat.from_rows(["110", "011", "001"])
    assert f2mat_from_json(f2mat_to_json(m)) == m


def test_quadratic_form_json_round_trip():
    q = QuadraticFormF2(standard_symplectic(2), F2Vec.from_bits("1010"))
    assert quadratic_form_from_json(quadratic_form_to_json(q)) == q
