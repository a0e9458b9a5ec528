import functools
import json
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_word
from oracles import (
    bareiss_det,
    dense_augmentation_rows,
    dense_direct_sum,
    dense_form_from_json,
    dense_form_to_json,
    dense_hermitian_error,
    dense_integer_rows,
    dense_is_hermitian,
    dense_ldlt_signature,
    dense_negate,
    dense_view,
    eigen_free_signature,
    leading_minors_positive,
)
from stable4 import forms, groupring
from stable4.errors import DomainError, InputError, is_int
from stable4.f2 import F2Mat, F2Vec
from stable4.forms import (
    AugmentedForm,
    Parity,
    RingMatrix,
    augmentation_signature,
    direct_sum,
    e8_block,
    form_from_json,
    form_to_json,
    hyperbolic_matrix,
    identity_block,
    ldlt_signature,
    parity,
    restrict_to_Ipi,
    signature_int,
)
from stable4.groupring import RingElem
from stable4.models import realize_form
from stable4.words import FreeFamily, NilFamily, Word, ZnFamily, family_to_json, normalize

Z3 = ZnFamily(3)
G = (1, 0, 0)


def ring(n):
    return RingElem.integer(Z3, n)


def grp(g, c=1):
    return RingElem.group(Z3, g, c)


def random_matrix(rng, fam, size):
    def elem():
        terms = {}
        for _ in range(rng.randrange(3)):
            g = normalize(random_word(rng, fam.rank, 4), fam)
            c = rng.randint(-3, 3)
            if c:
                terms[g] = terms.get(g, 0) + c
        return RingElem(fam, terms)

    return RingMatrix(fam, [[elem() for _ in range(size)] for _ in range(size)])


def random_hermitian_form(rng, fam, size, epsilon=0):
    m = random_matrix(rng, fam, size)
    herm = RingMatrix(
        fam,
        [
            [
                m.entry(i, j) + m.entry(j, i).conjugate()
                for j in range(size)
            ]
            for i in range(size)
        ],
    )
    return AugmentedForm(epsilon, herm)


# ---------------------------------------------------------------------------
# hermitian checks


def test_integer_symmetric_is_hermitian():
    assert hyperbolic_matrix(Z3).is_hermitian()


def test_group_element_pair_is_hermitian():
    m = RingMatrix(Z3, [[ring(0), grp(G)], [grp(Z3.invert(G)), ring(0)]])
    assert m.is_hermitian()


def test_unconjugated_pair_is_not_hermitian():
    m = RingMatrix(Z3, [[ring(0), grp(G)], [grp(G), ring(0)]])
    assert not m.is_hermitian()


def test_non_square_rejected():
    with pytest.raises(DomainError):
        RingMatrix(Z3, [[ring(1), ring(0)]])


def test_augmented_form_rejects_non_hermitian():
    m = RingMatrix(Z3, [[ring(0), grp(G)], [grp(G), ring(0)]])
    with pytest.raises(DomainError):
        AugmentedForm(0, m)


# ---------------------------------------------------------------------------
# sums and stabilization


def test_direct_sum_blocks():
    a = AugmentedForm(1, RingMatrix.from_int_rows(Z3, [[1, 1], [1, 0]]))
    b = AugmentedForm(0, RingMatrix.from_int_rows(Z3, [[2]]))
    c = direct_sum(a, b)
    assert c.epsilon == 1
    assert c.matrix.size == 3
    assert c.matrix.entry(2, 2) == ring(2)
    # the Ipi summand leads even when it arrives second
    assert direct_sum(b, a).matrix.entry(0, 0) == ring(1)


def test_direct_sum_rejects_two_ideals():
    a = AugmentedForm(1, hyperbolic_matrix(Z3))
    with pytest.raises(DomainError):
        direct_sum(a, a)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Z3, NilFamily(2)]), st.integers(0, 2**32 - 1),
       st.lists(st.integers(0, 4), min_size=2, max_size=4), st.integers(-1, 3))
def test_direct_sums_of_checked_forms_are_hermitian_unchecked(fam, seed, sizes, ideal):
    """direct_sum no longer checks the sum; the sum of checked forms, one
    of them on Ipi + free (index ideal, none when -1), is hermitian, and
    the checked constructor takes it as it is."""
    rng = random.Random(seed)
    parts = [random_hermitian_form(rng, fam, size + (k == ideal), int(k == ideal))
             for k, size in enumerate(sizes)]
    total = functools.reduce(direct_sum, parts)
    assert total.matrix._asymmetry() is None
    assert AugmentedForm(total.epsilon, total.matrix) == total
    assert total.epsilon == int(0 <= ideal < len(parts))
    assert total.matrix.size == sum(p.matrix.size for p in parts)


def stabilize(a, k):
    """a plus k hyperbolic planes: what summing k copies of S^2 x S^2 does."""
    empty = RingMatrix.from_int_rows(a.family, [])
    planes = functools.reduce(RingMatrix.direct_sum, [hyperbolic_matrix(a.family)] * k, empty)
    return direct_sum(a, AugmentedForm(0, planes))


def test_stabilize_zero_times_is_identity():
    a = AugmentedForm(1, RingMatrix.from_int_rows(Z3, [[1, 1], [1, 0]]))
    assert stabilize(a, 0) == a


def test_stabilize_empty_form_gives_hyperbolic():
    a = stabilize(AugmentedForm(0, RingMatrix.from_int_rows(Z3, [])), 1)
    assert a.matrix == hyperbolic_matrix(Z3)


def test_stabilize_preserves_signature_and_parity(rng):
    a = AugmentedForm(0, e8_block(Z3))
    for k in range(5):
        s = stabilize(a, k)
        assert signature_int(s) == 8
        assert parity(s) == parity(a)


# ---------------------------------------------------------------------------
# the Ipi corner and parity


def test_restrict_round_trip():
    for alpha in (ring(0), ring(2), grp(G) + grp(Z3.invert(G))):
        m = RingMatrix(
            Z3, [[alpha, ring(1)], [ring(1), ring(0)]]
        )
        assert restrict_to_Ipi(AugmentedForm(1, m)) == alpha


def test_restrict_requires_ideal_summand():
    with pytest.raises(DomainError):
        restrict_to_Ipi(AugmentedForm(0, hyperbolic_matrix(Z3)))


def test_parity_odd_corner():
    a = AugmentedForm(1, RingMatrix.from_int_rows(Z3, [[1, 1], [1, 0]]))
    assert parity(a) == Parity.ODD


def test_parity_even_corner():
    a = AugmentedForm(1, RingMatrix.from_int_rows(Z3, [[2, 1], [1, 0]]))
    assert parity(a) == Parity.EVEN


def test_parity_hyperbolic_free():
    assert parity(AugmentedForm(0, hyperbolic_matrix(Z3))) == Parity.EVEN


def test_parity_free_odd_diagonal():
    assert parity(AugmentedForm(0, identity_block(Z3, 2))) == Parity.ODD


def test_parity_of_direct_sum_needs_both_even(rng):
    for _ in range(40):
        a = random_hermitian_form(rng, Z3, rng.randrange(1, 3), epsilon=1)
        b = random_hermitian_form(rng, Z3, rng.randrange(1, 3), epsilon=0)
        both_even = parity(a) == Parity.EVEN and parity(b) == Parity.EVEN
        assert (parity(direct_sum(a, b)) == Parity.EVEN) == both_even


def test_parity_inverts_each_distinct_diagonal_element_once(monkeypatch):
    x = grp(G) + grp(Z3.invert(G)) + ring(2)
    y = grp((0, 1, 0), 2) + grp((0, -1, 0), 2) + ring(4)
    zero = ring(0)
    diagonal = [x, x, y, x, y]
    m = RingMatrix(Z3, [[diagonal[i] if i == j else zero for j in range(5)]
                        for i in range(5)])
    form = AugmentedForm(0, m)
    inverted = []
    invert = ZnFamily.invert

    def counted(self, g):
        inverted.append(g)
        return invert(self, g)

    monkeypatch.setattr(ZnFamily, "invert", counted)
    assert parity(form) == Parity.EVEN
    distinct = {g for entry in diagonal for g in entry.support()}
    assert len(distinct) == 5
    assert sorted(inverted) == sorted(distinct)


# ---------------------------------------------------------------------------
# signatures


def test_signature_hyperbolic_zero():
    assert signature_int(AugmentedForm(0, hyperbolic_matrix(Z3))) == 0


def test_signature_diagonal():
    m = identity_block(Z3, 3).direct_sum(identity_block(Z3, 2, -1))
    assert signature_int(AugmentedForm(0, m)) == 1


def test_e8_is_positive_definite_hence_signature_eight():
    rows = dense_integer_rows(Z3, dense_view(e8_block(Z3)))
    assert leading_minors_positive(rows)  # Sylvester: definite, so sig = rank
    assert signature_int(AugmentedForm(0, e8_block(Z3))) == 8


def test_e8_is_even_and_unimodular():
    block = e8_block(Z3)
    assert parity(AugmentedForm(0, block)) == Parity.EVEN
    assert bareiss_det(dense_integer_rows(Z3, dense_view(block))) == 1


def test_signature_additive():
    a = e8_block(Z3).direct_sum(e8_block(Z3))
    assert signature_int(AugmentedForm(0, a)) == 16
    b = e8_block(Z3).direct_sum(identity_block(Z3, 2, -1))
    assert signature_int(AugmentedForm(0, b)) == 6


def test_signature_zero_diagonal_pivots():
    assert ldlt_signature([[0, 3], [3, 0]]) == 0
    assert ldlt_signature([[0, 1, 0], [1, 0, 0], [0, 0, 5]]) == 1
    assert ldlt_signature([[0, 0], [0, 0]]) == 0


def test_signature_against_congruence_oracle():
    rng = random.Random(11)
    for _ in range(60):
        n = rng.randrange(1, 6)
        diag = [rng.choice((-3, -1, 0, 1, 2, 5)) for _ in range(n)]
        g = [[0] * n for _ in range(n)]
        for i in range(n):
            g[i][i] = 1
            for j in range(i + 1, n):
                g[i][j] = rng.randint(-2, 2)
        rows, expected = eigen_free_signature(diag, g)
        assert ldlt_signature(rows) == expected


def block_sum(blocks):
    n = sum(len(b) for b in blocks)
    rows = [[0] * n for _ in range(n)]
    offset = 0
    for b in blocks:
        for i, row in enumerate(b):
            rows[offset + i][offset:offset + len(row)] = row
        offset += len(b)
    return rows


@st.composite
def permuted_block_sums(draw):
    """A permuted block sum of small symmetric pieces and its signature."""
    pieces = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(("congruence", "hyperbolic", "zero")))
        if kind == "congruence":
            n = draw(st.integers(1, 4))
            diag = draw(st.lists(st.sampled_from((-3, -1, 0, 1, 2, 5)),
                                 min_size=n, max_size=n))
            g = [[1 if i == j else draw(st.integers(-2, 2)) if i < j else 0
                  for j in range(n)] for i in range(n)]
            pieces.append(eigen_free_signature(diag, g))
        elif kind == "hyperbolic":
            b = draw(st.sampled_from((-3, -1, 1, 2)))
            pieces.append(([[0, b], [b, 0]], 0))
        else:
            n = draw(st.integers(1, 3))
            pieces.append(([[0] * n for _ in range(n)], 0))
    full = block_sum([rows for rows, _ in pieces])
    n = len(full)
    perm = draw(st.permutations(range(n)))
    permuted = [[full[perm[i]][perm[j]] for j in range(n)] for i in range(n)]
    return permuted, sum(sig for _, sig in pieces)


@settings(max_examples=200, deadline=None)
@given(permuted_block_sums())
def test_split_signature_matches_blocks_and_dense_reference(case):
    rows, expected = case
    assert ldlt_signature(rows) == expected == dense_ldlt_signature(rows)


def test_signature_messages_name_the_offending_entries():
    with pytest.raises(DomainError, match=r"dimension 3, but row 1 has length 2"):
        ldlt_signature([[1, 0, 0], [0, 1], [0, 0, 1]])
    with pytest.raises(DomainError,
                       match=r"entry \(0, 2\) is 4 but entry \(2, 0\) is -4"):
        ldlt_signature([[1, 0, 4], [0, 1, 7], [-4, 7, 1]])
    # The same asymmetric pair, given as {column: int} rows.
    with pytest.raises(DomainError,
                       match=r"entry \(0, 2\) is 4 but entry \(2, 0\) is -4"):
        ldlt_signature([{0: 1, 2: 4}, {1: 1, 2: 7}, {0: -4, 1: 7, 2: 1}])
    # An absent partner reads as 0, whichever side of the diagonal it is on.
    with pytest.raises(DomainError,
                       match=r"entry \(0, 2\) is 0 but entry \(2, 0\) is 5"):
        ldlt_signature([{0: 1}, {1: 1}, {0: 5, 2: 1}])
    with pytest.raises(DomainError,
                       match=r"entry \(0, 2\) is 5 but entry \(2, 0\) is 0"):
        ldlt_signature([{0: 1, 2: 5}, {1: 1}, {2: 1}])
    # The first asymmetric pair in row-major order is named, for both layouts.
    dense = [[0, 2, 0, 0], [2, 0, 3, 0], [0, 0, 0, 0], [1, 0, 0, 0]]
    for rows in (dense, sparse_rows(dense)):
        with pytest.raises(DomainError,
                           match=r"entry \(0, 3\) is 0 but entry \(3, 0\) is 1"):
            ldlt_signature(rows)
    with pytest.raises(DomainError,
                       match=r"dimension 2, but row 1 has an entry in column 2"):
        ldlt_signature([{0: 1}, {2: 1}])
    with pytest.raises(DomainError,
                       match=r"dimension 2, but row 0 has an entry in column -1"):
        ldlt_signature([{-1: 1}, {}])
    for rows, entry in (([[0.5]], r"\(0, 0\) is 0\.5"), ([[True]], r"\(0, 0\) is True"),
                        ([{0: 0.5}], r"\(0, 0\) is 0\.5"), ([{0: True}], r"\(0, 0\) is True"),
                        ([[1, 0], [0, 2.0]], r"\(1, 1\) is 2\.0")):
        with pytest.raises(DomainError, match=rf"entry {entry}, not an integer"):
            ldlt_signature(rows)


@st.composite
def sparse_symmetric_rows(draw):
    """A random symmetric integer matrix, mostly zeros, as dense rows."""
    n = draw(st.integers(0, 12))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if draw(st.integers(0, 3)) == 0:
                rows[i][j] = rows[j][i] = draw(st.integers(-4, 4))
    return rows


@settings(max_examples=200, deadline=None)
@given(sparse_symmetric_rows())
def test_trusted_int_rows_give_the_checked_signature(rows):
    """The entry `signature_int` and `augmentation_signature` use, which
    reads the rows `RingMatrix._int_rows` built without re-checking or
    copying them, agrees with the public, checked one."""
    expected = ldlt_signature(rows)
    assert ldlt_signature(sparse_rows(rows), _trusted=True) == expected
    matrix = RingMatrix.from_int_rows(Z3, rows)
    assert signature_int(matrix) == expected
    assert augmentation_signature(AugmentedForm(0, matrix)) == expected


def test_trusted_int_rows_keep_the_square_and_symmetry_checks():
    with pytest.raises(DomainError, match=r"^matrix must be square: dimension 2, but "
                                          r"row 1 has an entry in column 2$"):
        ldlt_signature([{0: 1}, {0: 3, 2: 1}], _trusted=True)
    with pytest.raises(DomainError, match=r"dimension 2, but row 0 has an entry in column -1"):
        ldlt_signature([{-1: 1}, {}], _trusted=True)
    # A bare RingMatrix need not be symmetric; signature_int still refuses it.
    with pytest.raises(DomainError,
                       match=r"^matrix must be symmetric: entry \(0, 1\) is 1 but "
                             r"entry \(1, 0\) is 2$"):
        signature_int(RingMatrix.from_int_rows(Z3, [[0, 1], [2, 0]]))


def test_signature_rejects_group_entries():
    m = RingMatrix(Z3, [[grp(G) + grp(Z3.invert(G))]])
    with pytest.raises(DomainError):
        signature_int(AugmentedForm(0, m))


def test_signature_rejects_asymmetric():
    with pytest.raises(DomainError):
        ldlt_signature([[0, 1], [2, 0]])


def test_augmentation_signature():
    # [[2, g], [g^-1, 0]] augments entrywise to [[2, 1], [1, 0]]
    m = RingMatrix(
        Z3,
        [
            [ring(2), grp(G)],
            [grp(Z3.invert(G)), ring(0)],
        ],
    )
    a = AugmentedForm(1, m)
    assert augmentation_signature(a) == 0
    assert ldlt_signature(dense_augmentation_rows(dense_view(m))) == 0


def sparse_rows(rows):
    return [{j: v for j, v in enumerate(row) if v} for row in rows]


@st.composite
def symmetric_matrices(draw):
    """A symmetric integer matrix with n <= 10 and entries in -6..6.

    Three kinds: a random one (half the time with a zero diagonal); a
    low-rank sum of d v v^T; and u u^T with the sign of the entries on a
    random matching of the indices flipped.  Every entry of the last kind
    is +-u_r u_c, so after any first pivot the active diagonal is zero and
    the elimination has to take the congruence, possibly again later.
    """
    n = draw(st.integers(0, 10))
    kind = draw(st.sampled_from(("random", "low rank", "hyperbolic")))
    rows = [[0] * n for _ in range(n)]
    if kind == "random":
        zero_diagonal = draw(st.booleans())
        for i in range(n):
            for j in range(i + zero_diagonal, n):
                if draw(st.booleans()):
                    rows[i][j] = rows[j][i] = draw(st.integers(-6, 6))
    elif kind == "low rank":
        for _ in range(draw(st.integers(1, 3))):
            d = draw(st.sampled_from((-2, -1, 1, 2)))
            v = draw(st.lists(st.integers(-1, 1), min_size=n, max_size=n))
            for i in range(n):
                for j in range(n):
                    rows[i][j] += d * v[i] * v[j]
    else:
        u = draw(st.lists(st.sampled_from((-2, -1, 1, 2)), min_size=n, max_size=n))
        for i in range(n):
            for j in range(n):
                rows[i][j] = u[i] * u[j]
        perm = draw(st.permutations(range(n)))
        for k in range(draw(st.integers(0, n // 2))):
            q, s = perm[2 * k], perm[2 * k + 1]
            rows[q][s] = rows[s][q] = -u[q] * u[s]
    return rows


@settings(max_examples=400, deadline=None)
@given(symmetric_matrices())
def test_dense_and_sparse_rows_match_the_fraction_oracle(rows):
    expected = dense_ldlt_signature(rows)
    assert ldlt_signature(rows) == expected
    assert ldlt_signature(sparse_rows(rows)) == expected


@st.composite
def repeated_block_sums(draw):
    """Block sums of copies of one symmetric block and its near relatives:
    the block with one entry pair changed, with the sign of one entry pair
    flipped, negated, or listed in another row order."""
    base = draw(symmetric_matrices().filter(lambda rows: 0 < len(rows) <= 6))
    n = len(base)
    blocks = []
    for kind in draw(st.lists(st.sampled_from(
            ("copy", "entry", "sign", "negated", "reordered")), min_size=1, max_size=6)):
        block = [list(row) for row in base]
        i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        if kind == "entry":
            block[i][j] = block[j][i] = block[i][j] + draw(st.sampled_from((-1, 1)))
        elif kind == "sign":
            block[i][j] = block[j][i] = -block[i][j]
        elif kind == "negated":
            block = [[-v for v in row] for row in block]
        elif kind == "reordered":
            perm = draw(st.permutations(range(n)))
            block = [[base[perm[r]][perm[c]] for c in range(n)] for r in range(n)]
        blocks.append(block)
    return blocks


@settings(max_examples=300, deadline=None)
@given(repeated_block_sums())
def test_repeated_components_match_the_fraction_oracle(blocks):
    """Components whose keys agree share one elimination; near relatives of
    a block must not, and the sum is still the oracle's signature."""
    rows = block_sum(blocks)
    expected = dense_ldlt_signature(rows)
    assert expected == sum(map(dense_ldlt_signature, blocks))
    assert ldlt_signature(rows) == expected
    assert ldlt_signature(sparse_rows(rows)) == expected


def test_each_distinct_component_is_eliminated_once(monkeypatch):
    """k copies of E8 cost one elimination per call; a negated copy is a
    distinct component, and nothing is kept from one call to the next."""
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return bareiss(rows)

    bareiss = forms._bareiss_signature
    monkeypatch.setattr(forms, "_bareiss_signature", counted)
    e8 = e8_block(Z3)
    for k in (1, 2, 5):
        calls.clear()
        stack = functools.reduce(RingMatrix.direct_sum, [e8] * k)
        assert signature_int(stack) == 8 * k
        assert calls == [8]
        assert signature_int(stack) == 8 * k
        assert calls == [8, 8]
    calls.clear()
    mixed = functools.reduce(RingMatrix.direct_sum, [e8, e8.negate(), e8, e8.negate()])
    assert signature_int(mixed) == 0
    assert calls == [8, 8]


# ---------------------------------------------------------------------------
# serialization


def test_form_json_round_trip(rng):
    for fam in (Z3, NilFamily(2)):
        for _ in range(25):
            a = random_hermitian_form(rng, fam, rng.randrange(1, 4),
                                      epsilon=rng.randrange(2))
            assert form_from_json(form_to_json(a)) == a


@pytest.mark.parametrize(
    "value, expected",
    [(0, True), (-3, True), (2**70, True), (True, False), (False, False), (1.0, False),
     ("1", False), (None, False)],
)
def test_is_int_accepts_only_ints_that_are_not_bools(value, expected):
    assert is_int(value) is expected


def test_form_loader_rejects_non_hermitian():
    blob = {
        "epsilon": 0,
        "family": {"zn": 3},
        "size": 2,
        "entries": [
            [],
            [{"coeff": 1, "word": "g1"}],
            [{"coeff": 1, "word": "g1"}],
            [],
        ],
    }
    with pytest.raises(DomainError):
        form_from_json(blob)


def test_form_loader_rejects_bad_shapes():
    with pytest.raises(InputError):
        form_from_json({"epsilon": 0, "family": {"zn": 3}, "entries": [[], [], []]})


def one_term(word, coeff=1):
    return [{"coeff": coeff, "word": word}]


def z3_blob(entries, epsilon=0):
    n = int(round(len(entries) ** 0.5))
    return {"epsilon": epsilon, "family": {"zn": 3}, "size": n, "entries": entries}


def test_form_loader_merges_spellings_and_drops_cancelled_terms():
    entries = [[] for _ in range(9)]
    entries[0] = [{"coeff": 1, "word": "g1 g1^-1"}, {"coeff": 2, "word": "1"}]
    entries[1] = [{"coeff": 1, "word": "g1"}, {"coeff": -1, "word": "g2 g1 g2^-1"}]
    entries[4] = [{"coeff": 0, "word": "g2"}, {"coeff": 1, "word": "g3^-1 g3"}]
    entries[5] = one_term("g2 g2")
    entries[7] = one_term("g2^-2")
    a = form_from_json(z3_blob(entries))
    assert a.matrix == RingMatrix(Z3, [
        [ring(3), ring(0), ring(0)],
        [ring(0), ring(1), grp((0, 2, 0))],
        [ring(0), grp((0, -2, 0)), ring(0)],
    ])
    assert a.matrix._rows[0] == {0: ring(3)}  # the cancelled (0, 1) is not stored
    assert form_to_json(a)["entries"][:2] == [one_term("1", 3), []]


def bad_entries(bad5, bad9):
    entries = [one_term("1") if i % 5 == 0 else [] for i in range(16)]
    entries[5], entries[9] = bad5, bad9
    return entries


BAD_WORD = ([{"coeff": 1, "word": "q"}], "unknown generator 'q'")
BAD_COEFF = ([{"coeff": 1.5, "word": "1"}], "coefficient 1.5 is not an integer")
NOT_A_LIST = (0, "ring element JSON must be a list of terms")


@pytest.mark.parametrize("first, second", [
    (BAD_WORD, BAD_COEFF), (BAD_COEFF, BAD_WORD), (NOT_A_LIST, BAD_WORD),
    (BAD_WORD, NOT_A_LIST),
])
def test_form_loader_reports_the_first_bad_entry(first, second):
    with pytest.raises(InputError, match=f"^{re.escape(first[1])}$"):
        form_from_json(z3_blob(bad_entries(first[0], second[0])))


@pytest.mark.parametrize("entry", [0, "", None, {}, False, 0.0, ()])
def test_form_loader_refuses_falsy_entries_that_are_not_lists(entry):
    entries = [one_term("1"), [], [], one_term("1")]
    entries[2] = entry
    with pytest.raises(InputError, match="^ring element JSON must be a list of terms$"):
        form_from_json(z3_blob(entries))


def test_form_loader_refuses_a_list_valued_word():
    entries = [one_term("g1 g1^-1"), [], [], one_term(["g1"])]
    with pytest.raises(InputError, match=re.escape("word ['g1'] is not a string")):
        form_from_json(z3_blob(entries))


def test_form_loader_refuses_non_hermitian_spellings():
    """(0, 1) is 2 g1 spelled twice; its mirror must be 2 g1^-1.  A refusal
    names the pair and both entries."""
    twice = [{"coeff": 1, "word": "g1"}, {"coeff": 1, "word": "g2 g1 g2^-1"}]
    for mirror, mirror_text in (
        ([{"coeff": 2, "word": "g1^-1"}], None),
        ([{"coeff": 1, "word": "g1^-1"}, {"coeff": 1, "word": "g1^-1 g3 g3^-1"}], None),
        ([{"coeff": 1, "word": "g1^-1"}], "g1^-1"),
        ([{"coeff": 2, "word": "g1"}], "2*g1"),
        ([{"coeff": 2, "word": "g1^-1"}, {"coeff": 1, "word": "g2"}], "2*g1^-1 + g2"),
        ([], "zero"),
    ):
        blob = z3_blob([[], twice, mirror, []])
        if mirror_text is None:
            assert form_from_json(blob).matrix.entry(1, 0) == grp((-1, 0, 0), 2)
        else:
            message = (f"matrix is not hermitian: entry (0, 1) is 2*g1 but entry (1, 0) "
                       f"is {mirror_text}, not its conjugate")
            with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
                form_from_json(blob)


# ---------------------------------------------------------------------------
# sparse rows against the dense oracle


@st.composite
def dense_rows(draw, family, size):
    """size x size RingElems over family, each zero with probability ~1/2;
    a nonzero draw may still cancel to zero.  When integer is drawn every
    entry lies on the identity, so dense_integer_rows has an answer."""
    integer = draw(st.booleans())
    letter = st.tuples(st.integers(0, family.rank - 1), st.sampled_from((-2, -1, 1, 2)))
    term = st.tuples(
        st.just(()) if integer else st.lists(letter, max_size=3),
        st.integers(-3, 3),
    )
    rows = []
    for _ in range(size):
        row = []
        for _ in range(size):
            terms = draw(st.lists(term, max_size=2)) if draw(st.booleans()) else []
            row.append(RingElem(family, [(normalize(Word(tuple(w)), family), c)
                                         for w, c in terms]))
        rows.append(row)
    if draw(st.booleans()):  # hermitian half the time, zero pattern kept symmetric
        rows = [[rows[i][j] + rows[j][i].conjugate() for j in range(size)]
                for i in range(size)]
    return rows


@st.composite
def matrix_pairs(draw):
    family = draw(st.sampled_from((Z3, NilFamily(2))))
    a = draw(dense_rows(family, draw(st.integers(0, 5))))
    b = draw(dense_rows(family, draw(st.integers(0, 3))))
    return family, a, b


@settings(max_examples=150, deadline=None)
@given(matrix_pairs(), st.integers(0, 1))
def test_sparse_rows_match_the_dense_oracle(case, epsilon):
    family, a, b = case
    m, other = RingMatrix(family, a), RingMatrix(family, b)
    assert dense_view(m) == a
    assert m.is_hermitian() == dense_is_hermitian(a)
    assert dense_view(m.negate()) == dense_negate(a)
    assert dense_view(m.direct_sum(other)) == dense_direct_sum(family, a, b)
    assert (m == other) == (a == b)
    nonzeros = lambda rows: [{j: v for j, v in enumerate(row) if v} for row in rows]
    assert m._int_rows(integer=False) == nonzeros(dense_augmentation_rows(a))
    try:
        expected = dense_integer_rows(family, a)
    except DomainError:
        with pytest.raises(DomainError, match="^matrix entry has non-identity support$"):
            signature_int(m)
    else:
        assert m._int_rows(integer=True) == nonzeros(expected)
    if not m.is_hermitian() or m.size < epsilon:
        return
    blob = form_to_json(AugmentedForm(epsilon, m))
    assert json.dumps(blob) == json.dumps(dense_form_to_json(epsilon, family, a))
    back = form_from_json(json.loads(json.dumps(blob)))
    assert (back.epsilon, back.family, dense_view(back.matrix)) == dense_form_from_json(blob)
    assert back.matrix == m


def invert_text(text):
    """The inverse of a word, spelled token by token: reversed, exponents
    negated.  A non-reduced spelling stays non-reduced."""
    tokens = []
    for token in reversed(text.split()):
        name, _, exp = token.partition("^")
        e = -int(exp or 1)
        tokens.append("1" if name == "1" else name if e == 1 else f"{name}^{e}")
    return " ".join(tokens) or "1"


@st.composite
def pooled_form_blobs(draw):
    """Dense form JSON whose terms reuse a few word texts (closed under
    inverse spelling, often non-reduced).  Mirrors spell conj(x_ij) through
    the inverse texts, diagonals hold x + conj(x), and one extra term
    sometimes breaks the symmetry."""
    family = draw(st.sampled_from((Z3, NilFamily(2), FreeFamily(("x", "y")))))
    token = st.just("1") | st.builds(
        lambda g, e: g if e == 1 else f"{g}^{e}",
        st.sampled_from(family.generators), st.sampled_from((-2, -1, 1, 2)))
    base = draw(st.lists(st.lists(token, max_size=4).map(" ".join), min_size=1, max_size=3))
    pool = [w or "1" for w in base] + [invert_text(w) for w in base]
    term = st.tuples(st.integers(-2, 2), st.sampled_from(pool))

    def json_terms(pairs):
        return [{"coeff": c, "word": w} for c, w in pairs]

    n = draw(st.integers(1, 5))
    entries = [[] for _ in range(n * n)]
    for i in range(n):
        for j in range(i, n):
            pairs = draw(st.lists(term, max_size=3)) if draw(st.booleans()) else []
            mirror = [(c, invert_text(w)) for c, w in reversed(pairs)]
            if i == j:
                entries[i * n + i] = json_terms(pairs + mirror)
            else:
                entries[i * n + j], entries[j * n + i] = json_terms(pairs), json_terms(mirror)
    if draw(st.booleans()):
        k = draw(st.integers(0, n * n - 1))
        entries[k] = entries[k] + json_terms([draw(term)])
    return {"epsilon": draw(st.integers(0, 1)), "family": family_to_json(family),
            "size": n, "entries": entries}


@settings(max_examples=300, deadline=None)
@given(pooled_form_blobs())
def test_pooled_word_forms_load_like_the_dense_oracle(blob):
    """Each word text is parsed once per load and shared by the entries that
    use it; the loaded form must still be the one the dense oracle parses
    entry by entry, and writing it must round-trip byte for byte."""
    epsilon, family, rows = dense_form_from_json(blob)
    if not dense_is_hermitian(rows):
        message = dense_hermitian_error(rows)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            form_from_json(blob)
        return
    a = form_from_json(blob)
    assert (a.epsilon, a.family, dense_view(a.matrix)) == (epsilon, family, rows)
    text = json.dumps(form_to_json(a))
    assert text == json.dumps(dense_form_to_json(epsilon, family, rows))
    assert json.dumps(form_to_json(form_from_json(json.loads(text)))) == text


@st.composite
def repeated_entry_blobs(draw):
    """Dense form JSON built mostly from a few one-term entries, each used
    at many positions: some with coefficient 0 (a zero entry, not stored),
    some multi-term, and terms that sometimes carry extra keys.  A mirror
    spells the conjugate through the inverse text; one entry is sometimes
    changed to break the symmetry."""
    family = draw(st.sampled_from((Z3, NilFamily(2), FreeFamily(("x", "y")))))
    token = st.builds(lambda g, e: g if e == 1 else f"{g}^{e}",
                      st.sampled_from(family.generators), st.sampled_from((-1, 1, 2)))
    words = draw(st.lists(st.lists(token, max_size=3).map(" ".join), min_size=1,
                          max_size=3))
    pairs = [(c, w or "1") for c in draw(st.lists(st.integers(-2, 2), min_size=1,
                                                     max_size=3)) for w in words]

    def json_terms(terms):
        out = [{"coeff": c, "word": w} for c, w in terms]
        for term in out:
            if draw(st.integers(0, 5)) == 0:
                term["note"] = "extra"
        return out

    n = draw(st.integers(1, 8))
    entries = [[] for _ in range(n * n)]
    for i in range(n):
        for j in range(i, n):
            kind = draw(st.integers(0, 4))
            if kind == 0:
                continue
            terms = [draw(st.sampled_from(pairs))]
            if kind == 4:
                terms.append(draw(st.sampled_from(pairs)))
            mirror = [(c, invert_text(w)) for c, w in reversed(terms)]
            if i == j:
                entries[i * n + i] = json_terms(terms + mirror)
            else:
                entries[i * n + j], entries[j * n + i] = json_terms(terms), json_terms(mirror)
    if draw(st.booleans()):
        k = draw(st.integers(0, n * n - 1))
        entries[k] = json_terms([draw(st.sampled_from(pairs))])
    return {"epsilon": draw(st.integers(0, 1)), "family": family_to_json(family),
            "size": n, "entries": entries}


@settings(max_examples=300, deadline=None)
@given(repeated_entry_blobs())
def test_repeated_entries_load_like_the_dense_oracle(blob):
    """Equal one-term entries share one loaded element; the form must still
    be the one the dense oracle builds entry by entry, or fail with the
    oracle's hermitian error."""
    epsilon, family, rows = dense_form_from_json(blob)
    if not dense_is_hermitian(rows):
        message = dense_hermitian_error(rows)
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            form_from_json(blob)
        return
    a = form_from_json(blob)
    assert (a.epsilon, a.family, dense_view(a.matrix)) == (epsilon, family, rows)
    assert all(not x.is_zero for row in a.matrix._rows for x in row.values())


@pytest.mark.parametrize("coeff, shown", [(True, "True"), (1.0, "1.0")])
def test_a_cached_entry_does_not_admit_an_equal_coefficient_of_another_type(coeff, shown):
    """(1, "1") is loaded first; True and 1.0 equal 1 and hash alike, and
    must still be refused."""
    entries = [one_term("1"), [], [], one_term("1", coeff)]
    with pytest.raises(InputError, match=f"^coefficient {shown} is not an integer$"):
        form_from_json(z3_blob(entries))


@pytest.mark.parametrize("first, second", [(NOT_A_LIST, BAD_WORD), (BAD_WORD, NOT_A_LIST)])
def test_the_first_bad_entry_of_a_row_sets_the_error(first, second):
    """Both bad entries sit in row 1, after a cached entry in row 0."""
    entries = [one_term("1") if i % 4 == 0 else [] for i in range(9)]
    entries[4], entries[5] = first[0], second[0]
    with pytest.raises(InputError, match=f"^{re.escape(first[1])}$"):
        form_from_json(z3_blob(entries))


def test_a_form_load_indexes_the_generators_once(monkeypatch):
    """Every distinct word is parsed against one generator index per load,
    not one per word."""
    calls = []
    index = groupring._generator_index
    monkeypatch.setattr(groupring, "_generator_index",
                        lambda names: calls.append(len(names)) or index(names))
    n = 5
    entries = [[] for _ in range(n * n)]
    for k in range(n):
        entries[k * n + k] = one_term(f"g{k % 3 + 1}^{k + 1} g{k % 3 + 1}^{-k - 1}", 2)
    assert form_from_json(z3_blob(entries)).matrix == RingMatrix.from_int_rows(
        Z3, [[2 if i == j else 0 for j in range(n)] for i in range(n)])
    assert calls == [3]


def assert_written_like_the_dense_oracle(a):
    dump = lambda blob: json.dumps(blob, indent=2, sort_keys=True)
    blob = form_to_json(a)
    text = dump(blob)
    assert text == dump(dense_form_to_json(a.epsilon, a.family, dense_view(a.matrix)))
    assert form_from_json(json.loads(text)) == a
    return blob


@pytest.mark.parametrize("family, w", [(Z3, "100"), (NilFamily(2), "010")])
@pytest.mark.parametrize("copies", [0, 1, -1, 16, -16])
def test_realized_forms_with_e8_copies_write_like_the_dense_oracle(family, w, copies):
    h = realize_form(family, F2Vec.from_bits(w), 8 * copies, Parity.EVEN, F2Vec.zero(3))
    blob = assert_written_like_the_dense_oracle(h.form)
    if abs(copies) > 1:  # the shared E8 blocks share their term lists
        n = h.form.matrix.size
        last, before = n - 8, n - 16
        assert blob["entries"][last * n + last] is blob["entries"][before * n + before]


def test_an_entry_object_at_many_positions_is_written_once():
    x = grp(G) + grp(Z3.invert(G)) + ring(3)
    y = grp((1, 2, 0), -2)
    y_bar = y.conjugate()
    n = 6
    rows = tuple({j: (x if i == j else y if i < j else y_bar) for j in range(n)}
                 for i in range(n))
    blob = assert_written_like_the_dense_oracle(AugmentedForm(0, RingMatrix._trusted(Z3, rows)))
    entries = blob["entries"]
    assert len({id(entries[i * n + j]) for i in range(n) for j in range(n)}) == 3


def signature_or_error(compute):
    try:
        return compute()
    except DomainError as exc:
        return str(exc)


@st.composite
def ring_matrices(draw):
    family = draw(st.sampled_from((Z3, NilFamily(2))))
    return RingMatrix(family, draw(dense_rows(family, draw(st.integers(0, 8)))))


@settings(max_examples=200, deadline=None)
@given(ring_matrices())
def test_ring_signatures_match_the_dense_integer_shadows(m):
    """signature_int and augmentation_signature read the sparse rows; the
    dense shadows give the same signature, or the same error."""
    assert signature_or_error(lambda: signature_int(m)) == signature_or_error(
        lambda: ldlt_signature(dense_integer_rows(m.family, dense_view(m))))
    if m.is_hermitian():
        assert augmentation_signature(AugmentedForm(0, m)) == ldlt_signature(
            dense_augmentation_rows(dense_view(m)))


def test_an_entry_without_its_mirror_is_not_hermitian():
    x = grp(G)
    zero = ring(0)
    for rows in ([[zero, x], [zero, zero]],
                 [[zero, zero], [x, zero]],
                 [[ring(1), zero, zero], [zero, zero, x], [zero, zero, ring(2)]]):
        assert not dense_is_hermitian(rows)
        assert not RingMatrix(Z3, rows).is_hermitian()
        blob = dense_form_to_json(0, Z3, rows)
        with pytest.raises(DomainError, match=f"^{re.escape(dense_hermitian_error(rows))}$"):
            form_from_json(blob)


@st.composite
def near_hermitian_rows(draw):
    """A hermitian matrix over z3, nil:2 or a free group, and often one
    defect: a mirror removed, a mirror equal to its entry instead of to the
    entry's conjugate, or one term added to one entry.  Entries hold up to
    three terms, and the identity (the one self-inverse element of these
    torsion-free groups) is drawn often."""
    family = draw(st.sampled_from((Z3, NilFamily(2), FreeFamily(("x", "y")))))
    letter = st.tuples(st.integers(0, family.rank - 1), st.sampled_from((-2, -1, 1)))
    word = st.just(()) | st.lists(letter, min_size=1, max_size=3)
    terms = st.lists(st.tuples(word, st.integers(-2, 2)), min_size=1, max_size=3)
    element = terms.map(lambda ts: RingElem(
        family, [(family.reduce_word(Word(tuple(w))), c) for w, c in ts]))
    n = draw(st.integers(1, 5))
    zero = RingElem.zero(family)
    rows = [[zero] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if draw(st.booleans()):
                x = draw(element)
                if i == j:
                    x = x + x.conjugate()
                rows[i][j], rows[j][i] = x, x.conjugate()
    i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
    defect = draw(st.sampled_from((None, "missing mirror", "unconjugated mirror", "extra term")))
    if defect == "missing mirror":
        rows[i][j] = rows[i][j] if not rows[i][j].is_zero else draw(element)
        rows[j][i] = zero if i != j else rows[i][j]
    elif defect == "unconjugated mirror":
        rows[i][j] = rows[j][i] = draw(element)
    elif defect == "extra term":
        rows[i][j] = rows[i][j] + draw(element)
    return family, rows


@settings(max_examples=400, deadline=None)
@given(near_hermitian_rows())
def test_hermitian_check_matches_the_dense_oracle(case):
    """is_hermitian compares each pair once through a conjugate matcher; it
    must agree with the entry-by-entry oracle, and a refusal must name the
    first stored entry whose mirror differs."""
    family, rows = case
    m = RingMatrix(family, rows)
    assert m.is_hermitian() == dense_is_hermitian(rows)
    message = dense_hermitian_error(rows)
    assert (message is None) == dense_is_hermitian(rows)
    if message is None:
        assert m._asymmetry() is None
        AugmentedForm(0, m)
    else:
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            AugmentedForm(0, m)


def test_zero_entries_are_dropped_from_the_rows():
    m = RingMatrix(Z3, [[ring(0), grp(G) - grp(G)], [ring(0), ring(0)]])
    zero = RingMatrix.from_int_rows(Z3, [[0, 0], [0, 0]])
    assert m == zero
    assert form_to_json(AugmentedForm(0, zero))["entries"] == [[], [], [], []]


def test_entry_rejects_a_column_out_of_range():
    cases = [(hyperbolic_matrix(Z3), 2, 0, 2), (e8_block(Z3), 8, -1, 7), (e8_block(Z3), 8, 8, 0),
             (F2Mat.identity(3), 3, -1, 2), (F2Mat.identity(3), 3, 0, 3),
             (F2Mat.identity(3), 3, 3, 0)]
    for matrix, size, i, j in cases:
        message = f"entry ({i}, {j}) out of range for size {size}"
        with pytest.raises(IndexError, match=f"^{re.escape(message)}$"):
            matrix.entry(i, j)


def test_identity_blocks_match_their_integer_rows():
    for sign in (-1, 0, 2):
        rows = [[sign, 0, 0], [0, sign, 0], [0, 0, sign]]
        assert identity_block(Z3, 3, sign) == RingMatrix.from_int_rows(Z3, rows)
        assert identity_block(Z3, 3, sign) == RingMatrix(
            Z3, [[RingElem.integer(Z3, v) for v in row] for row in rows])
        block = identity_block(Z3, 3, sign)
        assert len({id(x) for row in block._rows for x in row.values()}) == (sign != 0)


E8_CARTAN = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


@pytest.mark.parametrize("fam", [Z3, NilFamily(3)], ids=repr)
def test_e8_blocks_match_their_integer_rows_and_share_two_entries(fam):
    for sign in (1, -1):
        block = e8_block(fam, sign)
        expected = RingMatrix.from_int_rows(fam, [[sign * v for v in row] for row in E8_CARTAN])
        assert block == expected and block.family == fam
        assert [list(row) for row in block._rows] == [list(row) for row in expected._rows]
        assert len({id(x) for row in block._rows for x in row.values()}) == 2
    assert e8_block(fam, -1) == e8_block(fam).negate()
