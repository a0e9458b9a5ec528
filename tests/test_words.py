import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_word
from oracles import (
    fox_derivative_stepwise,
    nil_normal_matrix,
    nil_word_matrix,
    reduce_word_stepwise,
)
from stable4.errors import CapExceeded, DomainError, InputError
from stable4.groupring import RingElem
from stable4.words import (
    FreeFamily,
    NilFamily,
    Presentation,
    Word,
    ZnFamily,
    family_from_json,
    fox_derivative,
    normalize,
    parse_word,
    presentation_from_json,
    presentation_to_json,
    word_to_str,
)

FREE2 = FreeFamily(("x", "y"))
FREE3 = FreeFamily(("x", "y", "z"))


# ---------------------------------------------------------------------------
# parsing and free reduction


def test_parse_commutator():
    w = parse_word("x y x^-1 y^-1", ("x", "y"))
    assert w.letters == ((0, 1), (1, 1), (0, -1), (1, -1))


def test_parse_cancellation():
    assert parse_word("x x^-1", ("x", "y")).is_identity


def test_parse_merges_exponents():
    assert parse_word("x^2 x^3", ("x",)).letters == ((0, 5),)


def test_parse_identity_token():
    assert parse_word("1", ("x",)).is_identity
    assert parse_word("", ("x",)).is_identity


@pytest.mark.parametrize(
    "text", ["q", "x^", "x^1.5", "x^0", "x^one"]
)
def test_parse_rejects_bad_tokens(text):
    with pytest.raises(InputError):
        parse_word(text, ("x", "y"))


def test_word_constructor_reduces():
    w = Word(((0, 1), (1, 2), (1, -2), (0, 3)))
    assert w.letters == ((0, 4),)


def test_round_trip_print_parse(rng):
    gens = ("x", "y", "z")
    for _ in range(300):
        w = random_word(rng, 3, 12)
        assert parse_word(word_to_str(w, gens), gens) == w


# ---------------------------------------------------------------------------
# products cancel at the seam

LETTERS = st.tuples(st.integers(0, 2), st.sampled_from([-3, -2, -1, 1, 2, 3]))
WORDS = st.lists(LETTERS, max_size=8).map(lambda ls: Word(tuple(ls)))


@st.composite
def seam_pairs(draw):
    """(a, b) with b built to cancel k letters of a at the seam.

    The innermost cancelled letter gets its exponent shifted by `delta`, so
    the seam cancels fully (delta = 0), merges two letters, or cancels
    partially and then merges; the tail decides what follows.
    """
    a = draw(WORDS)
    k = draw(st.integers(0, len(a.letters)))
    delta = draw(st.integers(-2, 2))
    mirror = [(g, -e) for g, e in reversed(a.letters[len(a.letters) - k:])]
    if mirror:
        g, e = mirror[-1]
        mirror[-1] = (g, e + delta)
    tail = draw(st.lists(LETTERS, max_size=4))
    return a, Word(tuple(mirror + tail))


def _is_reduced(w: Word) -> bool:
    pairs = zip(w.letters, w.letters[1:])
    return (all(e and g >= 0 for g, e in w.letters)
            and all(g != h for (g, _), (h, _) in pairs))


@settings(max_examples=300, deadline=None)
@given(seam_pairs())
def test_product_equals_reducing_the_concatenation(pair):
    a, b = pair
    ab = a * b
    assert ab == Word(a.letters + b.letters)
    assert _is_reduced(ab)


@settings(max_examples=200, deadline=None)
@given(WORDS)
def test_word_times_its_inverse_is_empty(w):
    inv = w.inverse()
    assert inv == Word(inv.letters) and _is_reduced(inv)
    assert (w * inv).is_identity and (inv * w).is_identity
    assert w * Word() == w == Word() * w


@settings(max_examples=200, deadline=None)
@given(seam_pairs(), WORDS)
def test_products_are_associative(pair, c):
    a, b = pair
    assert (a * b) * c == a * (b * c)
    assert (a * b) * b.inverse() == a


def test_free_generator_element_matches_the_constructor():
    for index, exp in ((0, 1), (2, -3), (1, 0)):
        assert FREE3.generator_element(index, exp) == Word(((index, exp),))
    with pytest.raises(InputError):
        FREE3.generator_element(-1, 1)


# ---------------------------------------------------------------------------
# normal forms


def test_nil_normalize_yx():
    fam = NilFamily(2)
    assert normalize(parse_word("y x", fam.generators), fam) == (-2, 1, 1)


def test_nil_relators_normalize_to_identity():
    for z in (1, 2, 3, 5):
        fam = NilFamily(z)
        for text in ("a x a^-1 x^-1", "a y a^-1 y^-1",
                     f"x y x^-1 y^-1 a^-{z}"):
            assert normalize(parse_word(text, fam.generators), fam) == (0, 0, 0)


def test_zn_normalize_abelianizes():
    fam = ZnFamily(3)
    w = parse_word("g1 g2 g1^-1", fam.generators)
    assert normalize(w, fam) == (0, 1, 0)


def test_normalize_refuses_free_family():
    with pytest.raises(DomainError):
        normalize(parse_word("x", ("x", "y")), FREE2)


def test_normalize_arity_mismatch():
    fam = ZnFamily(2)
    with pytest.raises(DomainError):
        normalize(Word(((5, 1),)), fam)


def test_normalize_is_multiplicative(rng):
    for fam in (ZnFamily(3), NilFamily(2), NilFamily(3)):
        for _ in range(200):
            u = random_word(rng, fam.rank, 8)
            v = random_word(rng, fam.rank, 8)
            lhs = normalize(u * v, fam)
            rhs = fam.multiply(normalize(u, fam), normalize(v, fam))
            assert lhs == rhs
            assert normalize(u * u.inverse(), fam) == fam.identity()


def test_nil_normalize_against_matrix_representation(rng):
    # a, x, y embed as unitriangular integer matrices; the embedding is
    # faithful, so a word and its claimed normal form must evaluate equally.
    for z in (1, 2, 3, 4):
        fam = NilFamily(z)
        for _ in range(150):
            w = random_word(rng, 3, 10)
            nf = normalize(w, fam)
            assert nil_word_matrix(w, z) == nil_normal_matrix(nf, z)


def test_nil_multiplication_associative_exhaustive():
    grid = [-3, 0, 1, 3]
    for z in (1, 2, 3):
        fam = NilFamily(z)
        elems = list(itertools.product(grid, repeat=3))
        for p in elems:
            for q in elems:
                for r in elems:
                    assert fam.multiply(fam.multiply(p, q), r) == fam.multiply(
                        p, fam.multiply(q, r)
                    )


def test_nil_inverse_law(rng):
    for z in (1, 2, 4):
        fam = NilFamily(z)
        for _ in range(100):
            g = normalize(random_word(rng, 3, 8), fam)
            assert fam.multiply(g, fam.invert(g)) == (0, 0, 0)
            assert fam.multiply(fam.invert(g), g) == (0, 0, 0)


# ---------------------------------------------------------------------------
# Fox derivatives


def test_fox_of_generator_is_delta():
    one = RingElem.one(FREE2)
    zero = RingElem.zero(FREE2)
    x = parse_word("x", FREE2.generators)
    assert fox_derivative(x, "x", FREE2) == one
    assert fox_derivative(x, "y", FREE2) == zero


def test_fox_of_identity_is_zero():
    assert fox_derivative(Word(), "x", FREE2).is_zero


def test_fox_commutator():
    w = parse_word("x y x^-1 y^-1", FREE2.generators)
    expect_x = RingElem.one(FREE2) - RingElem.group(
        FREE2, parse_word("x y x^-1", FREE2.generators)
    )
    expect_y = RingElem.group(
        FREE2, parse_word("x", FREE2.generators)
    ) - RingElem.group(FREE2, w)
    assert fox_derivative(w, "x", FREE2) == expect_x
    assert fox_derivative(w, "y", FREE2) == expect_y


def test_fox_negative_power_is_geometric_sum():
    w = parse_word("x^-3", FREE2.generators)
    expected = RingElem(
        FREE2,
        {
            parse_word("x^-1", FREE2.generators): -1,
            parse_word("x^-2", FREE2.generators): -1,
            parse_word("x^-3", FREE2.generators): -1,
        },
    )
    assert fox_derivative(w, "x", FREE2) == expected


def test_fox_positive_power():
    w = parse_word("x^3", FREE2.generators)
    expected = RingElem(
        FREE2,
        {
            Word(): 1,
            parse_word("x", FREE2.generators): 1,
            parse_word("x^2", FREE2.generators): 1,
        },
    )
    assert fox_derivative(w, "x", FREE2) == expected


def test_fox_normalizes_through_the_family():
    fam = NilFamily(2)
    w = parse_word("x a x^-1 a^-1", fam.generators)
    # x a x^-1 collapses to a in the quotient
    assert fox_derivative(w, "x", fam) == RingElem.one(fam) - RingElem.group(
        fam, (1, 0, 0)
    )


def test_fox_unknown_generator():
    with pytest.raises(InputError):
        fox_derivative(Word(), "q", FREE2)


def test_fox_drops_cancelled_terms():
    fam = ZnFamily(2)
    w = parse_word("g1 g2 g1 g2^-1 g1^-2", fam.generators)
    # +1 from the first g1 and -1 from the last step of g1^-2 cancel.
    d = fox_derivative(w, "g1", fam)
    assert d == RingElem(fam, {(1, 1): 1, (1, 0): -1})
    assert 0 not in d._terms.values()


def test_fox_refuses_expansions_over_the_cap(monkeypatch):
    monkeypatch.setenv("STABLE4_CAP", "5")
    w = parse_word("x^3 y x^-3", FREE2.generators)
    with pytest.raises(CapExceeded, match="expands 6 letters of x, over the cap 5"):
        fox_derivative(w, "x", FREE2)
    assert len(fox_derivative(w, "y", FREE2)) == 1
    monkeypatch.setenv("STABLE4_CAP", "6")
    assert len(fox_derivative(w, "x", FREE2)) == 6


def _fundamental_identity_holds(w: Word) -> bool:
    total = RingElem.zero(FREE3)
    one = RingElem.one(FREE3)
    for j in range(3):
        gj = RingElem.group(FREE3, FREE3.generator_element(j))
        total = total + fox_derivative(w, j, FREE3) * (gj - one)
    return total == RingElem.group(FREE3, w) - one


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 2), st.sampled_from([-2, -1, 1, 2])),
        max_size=8,
    )
)
def test_fox_fundamental_identity(letters):
    assert _fundamental_identity_holds(Word(tuple(letters)))


# ---------------------------------------------------------------------------
# presentations


def test_presentation_validates_relators():
    with pytest.raises(InputError):
        Presentation(("x",), (Word(((3, 1),)),))


def test_presentation_rejects_duplicates():
    with pytest.raises(InputError):
        Presentation(("x", "x"), ())


def test_presentation_json_round_trip():
    fam = NilFamily(2)
    pres = Presentation(
        fam.generators,
        tuple(
            parse_word(t, fam.generators)
            for t in ("x a x^-1 a^-1", "y a y^-1 a^-1", "x y x^-1 y^-1 a^-2")
        ),
    )
    blob = presentation_to_json(pres, fam)
    back, back_fam = presentation_from_json(blob)
    assert back == pres
    assert back_fam == fam


def test_presentation_json_zn():
    blob = {
        "generators": ["g1", "g2"],
        "relators": ["g1 g2 g1^-1 g2^-1"],
        "family": "zn",
    }
    pres, fam = presentation_from_json(blob)
    assert fam == ZnFamily(2)
    assert len(pres.relators) == 1


def test_presentation_json_bad_family():
    with pytest.raises(InputError):
        presentation_from_json(
            {"generators": ["x"], "relators": [], "family": {"na": 1}}
        )


@pytest.mark.parametrize(
    "tag, name",
    [({"nil": "abc"}, "nil"), ({"nil": "2"}, "nil"), ({"nil": 2.0}, "nil"),
     ({"nil": False}, "nil"), ({"zn": "3"}, "zn"), ({"zn": True}, "zn"),
     ({"free": 5}, "free"), ({"free": "abc"}, "free"), ({"free": ["x", 1]}, "free"),
     ({"free": {"x": 1}}, "free")],
)
def test_family_tag_values_are_checked(tag, name):
    with pytest.raises(InputError, match=f'family tag "{name}" needs'):
        family_from_json(tag)


def test_family_tags_accept_their_types():
    assert family_from_json({"nil": 2}) == NilFamily(2)
    assert family_from_json({"zn": 3}) == ZnFamily(3)
    assert family_from_json({"free": ["x", "y"]}) == FREE2
    with pytest.raises(InputError, match="unrecognised family tag"):
        family_from_json({"nil": 2, "zn": 3})


def test_fox_fundamental_identity_in_quotients(rng):
    # the identity sum_j D_j(w)(g_j - 1) = w - 1 descends along the
    # normal-form quotient map
    for fam in (ZnFamily(3), NilFamily(2), NilFamily(3)):
        one = RingElem.one(fam)
        for _ in range(100):
            w = random_word(rng, fam.rank, 10)
            total = RingElem.zero(fam)
            for j in range(fam.rank):
                gj = RingElem.group(fam, fam.generator_element(j))
                total = total + fox_derivative(w, j, fam) * (gj - one)
            assert total == RingElem.group(fam, normalize(w, fam)) - one


# ---------------------------------------------------------------------------
# closed-form steps: shift and the prefix walks built on it

SHIFT_FAMILIES = (
    [ZnFamily(n) for n in range(1, 5)] + [NilFamily(z) for z in range(1, 9)] + [FREE3]
)
QUOTIENTS = [f for f in SHIFT_FAMILIES if not isinstance(f, FreeFamily)]


def _letters(rank, max_exp, max_size):
    exps = st.integers(-max_exp, max_exp).filter(bool)
    return st.lists(st.tuples(st.integers(0, rank - 1), exps), max_size=max_size)


@st.composite
def family_elements(draw):
    fam = draw(st.sampled_from(SHIFT_FAMILIES))
    if isinstance(fam, FreeFamily):
        g = Word(tuple(draw(_letters(fam.rank, 3, 6))))
    else:
        g = tuple(draw(st.lists(st.integers(-40, 40), min_size=len(fam.identity()),
                                max_size=len(fam.identity()))))
    return fam, g


@settings(max_examples=300, deadline=None)
@given(family_elements(), st.data())
def test_shift_is_the_product_with_a_generator_power(pair, data):
    fam, g = pair
    index = data.draw(st.integers(0, fam.rank - 1))
    exp = data.draw(st.integers(-50, 50))
    assert fam.shift(g, index, exp) == fam.multiply(g, fam.generator_element(index, exp))


@pytest.mark.parametrize("fam", [ZnFamily(3), NilFamily(2)])
@pytest.mark.parametrize("index", [-1, 3, 7])
def test_shift_rejects_an_index_out_of_range(fam, index):
    with pytest.raises(IndexError, match=f"generator index {index} out of range"):
        fam.shift(fam.identity(), index, 1)


@pytest.mark.parametrize("fam", [ZnFamily(3), NilFamily(2)])
@pytest.mark.parametrize("index", [-1, 3, 7])
def test_generator_element_rejects_an_index_out_of_range(fam, index):
    with pytest.raises(IndexError, match=f"generator index {index} out of range"):
        fam.generator_element(index, 2)


@pytest.mark.parametrize("exp", [-3, 1, 2])
def test_generator_element_is_a_unit_vector_power(exp):
    for index in range(3):
        unit = tuple(exp if k == index else 0 for k in range(3))
        assert ZnFamily(3).generator_element(index, exp) == unit
        assert NilFamily(2).generator_element(index, exp) == unit
    assert ZnFamily(3).generator_element(1, 2) == (0, 2, 0)
    assert NilFamily(5).generator_element(1, exp) == (0, exp, 0)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(SHIFT_FAMILIES), st.data())
def test_fox_derivative_matches_the_stepwise_walk(fam, data):
    w = Word(tuple(data.draw(_letters(fam.rank, 9, 12))))
    gen = data.draw(st.integers(0, fam.rank - 1))
    assert fox_derivative(w, gen, fam) == fox_derivative_stepwise(w, gen, fam)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(QUOTIENTS), st.data())
def test_fox_fundamental_identity_with_closed_form_steps(fam, data):
    # sum_j D_j(w)(g_j - 1) = w - 1, with w evaluated by one generic
    # multiply per letter rather than by reduce_word
    w = Word(tuple(data.draw(_letters(fam.rank, 9, 12))))
    one = RingElem.one(fam)
    total = RingElem.zero(fam)
    for j in range(fam.rank):
        gj = RingElem.group(fam, fam.generator_element(j))
        total = total + fox_derivative(w, j, fam) * (gj - one)
    assert total == RingElem.group(fam, reduce_word_stepwise(w, fam)) - one
    assert fam.reduce_word(w) == reduce_word_stepwise(w, fam)
