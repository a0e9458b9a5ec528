import itertools
import operator
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_word
from oracles import one_plus_T_oracle, ring_product_pairwise
from stable4.errors import DomainError, InputError
from stable4.groupring import (
    RingElem,
    augmentation,
    in_image_one_plus_T,
    ring_elem_from_json,
    ring_elem_to_json,
)
from stable4.words import FreeFamily, NilFamily, Word, ZnFamily, fox_derivative, normalize

Z3 = ZnFamily(3)
G = (1, 0, 0)  # the element g1


def one_minus(fam, g):
    return RingElem.one(fam) - RingElem.group(fam, g)


def random_elem(rng, fam, max_terms=4, bound=4):
    terms = {}
    for _ in range(rng.randrange(max_terms + 1)):
        g = normalize(random_word(rng, fam.rank, 6), fam)
        c = rng.randint(-bound, bound)
        if c:
            terms[g] = c
    return RingElem(fam, terms)


# ---------------------------------------------------------------------------
# ring arithmetic


def test_one_minus_g_times_conjugate():
    x = one_minus(Z3, G) * one_minus(Z3, G).conjugate()
    expected = RingElem(Z3, {Z3.identity(): 2, G: -1, Z3.invert(G): -1})
    assert x == expected


def test_additive_inverse():
    x = RingElem(Z3, {G: 3, (0, 1, 0): -2})
    assert (x + (-x)).is_zero


def test_unit():
    x = RingElem(Z3, {G: 5})
    assert RingElem.one(Z3) * x == x
    assert x * RingElem.one(Z3) == x


def test_zero_coefficients_dropped():
    x = RingElem(Z3, [(G, 2), (G, -2), ((0, 0, 1), 1)])
    assert x.support() == {(0, 0, 1)}


def test_family_mismatch_raises():
    with pytest.raises(DomainError):
        RingElem.one(Z3) + RingElem.one(ZnFamily(2))
    with pytest.raises(DomainError):
        RingElem.one(Z3) * RingElem.one(NilFamily(2))


def test_scalar_multiplication():
    x = RingElem(Z3, {G: 2})
    assert 3 * x == RingElem(Z3, {G: 6})
    assert x * -1 == -x


@pytest.mark.parametrize("op, other", [
    (operator.add, 1), (operator.add, 2.5), (operator.add, "a"), (operator.add, None),
    (operator.sub, 1), (operator.sub, 2.5), (operator.sub, "a"), (operator.sub, None),
    (operator.mul, 2.5), (operator.mul, "a"), (operator.mul, None), (operator.mul, [1]),
], ids=lambda v: v.__name__ if callable(v) else repr(v))
def test_arithmetic_with_a_foreign_operand_is_a_type_error(op, other):
    x = RingElem(Z3, {G: 2})
    with pytest.raises(TypeError):
        op(x, other)
    with pytest.raises(TypeError):
        op(other, x)


# ---------------------------------------------------------------------------
# involution


def test_involution_definition():
    x = RingElem(Z3, {Z3.identity(): 2, G: 3})
    assert x.conjugate() == RingElem(Z3, {Z3.identity(): 2, Z3.invert(G): 3})


def test_involution_on_free_family():
    from stable4.words import FreeFamily, parse_word

    fam = FreeFamily(("x", "y"))
    w = parse_word("x y^-2", fam.generators)
    x = RingElem.group(fam, w, 3)
    assert x.conjugate() == RingElem.group(fam, w.inverse(), 3)


def test_involution_is_involutive(rng):
    for _ in range(100):
        x = random_elem(rng, Z3)
        assert x.conjugate().conjugate() == x


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_involution_antihomomorphism(data):
    fam = NilFamily(2)
    def draw_elem():
        pairs = data.draw(
            st.lists(
                st.tuples(
                    st.tuples(
                        st.integers(-2, 2), st.integers(-2, 2), st.integers(-2, 2)
                    ),
                    st.integers(-3, 3),
                ),
                max_size=4,
            )
        )
        return RingElem(fam, pairs)

    x, y = draw_elem(), draw_elem()
    assert (x * y).conjugate() == y.conjugate() * x.conjugate()


def _assert_normal(x):
    assert 0 not in x._terms.values()
    assert x == RingElem(x.family, x._terms)


FAMILIES = (Z3, NilFamily(2), FreeFamily(("x", "y", "z")))


@st.composite
def elem_pairs(draw):
    """Two elements over a few small supports, so sums and products cancel."""
    fam = draw(st.sampled_from(FAMILIES))
    letters = st.tuples(st.integers(0, 2), st.sampled_from([-1, 1]))
    support = [fam.reduce_word(Word(tuple(ls)))
               for ls in draw(st.lists(st.lists(letters, max_size=3), min_size=1, max_size=3))]
    def elem():
        terms = draw(st.lists(st.tuples(st.sampled_from(support), st.integers(-2, 2)),
                              max_size=4))
        return RingElem(fam, terms)
    x = elem()
    return x, draw(st.sampled_from([elem(), x, -x]))


@settings(max_examples=200, deadline=None)
@given(elem_pairs(), st.integers(-2, 2))
def test_ring_results_hold_no_zero_coefficient(pair, n):
    x, y = pair
    for result in (x + y, x - y, -x, x * y, x * n, n * x, x * 0, x.conjugate()):
        _assert_normal(result)
    assert (x * 0).is_zero and (x - x).is_zero


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)),
                       st.integers(-2, 2), max_size=8))
def test_from_dict_owns_its_dict_and_drops_zeros(data):
    fam = NilFamily(2)
    given_terms = dict(data)
    x = RingElem._from_dict(fam, data)
    _assert_normal(x)
    assert x == RingElem(fam, given_terms)
    # the fresh dict is kept as it is unless it holds a zero to drop
    assert (x._terms is data) == (0 not in given_terms.values())
    assert data == given_terms


@settings(max_examples=100, deadline=None)
@given(st.sampled_from(FAMILIES),
       st.lists(st.tuples(st.integers(0, 2), st.sampled_from([-2, -1, 1, 2])), max_size=10),
       st.integers(0, 2))
def test_fox_results_hold_no_zero_coefficient(fam, letters, gen):
    _assert_normal(fox_derivative(Word(tuple(letters)), gen, fam))


# ---------------------------------------------------------------------------
# the product against one generic multiply per term pair

PRODUCT_FAMILIES = (
    [ZnFamily(n) for n in range(1, 5)] + [NilFamily(z) for z in range(1, 9)]
    + [FreeFamily(("x", "y", "z"))]
)
PRODUCT_SHAPES = ("small support", "large support", "identity left", "identity right",
                  "cancelling", "scalar left", "scalar right")


def _distinct_elements(rng, fam, count):
    """count distinct elements of fam, the identity first."""
    seen = {fam.identity(): None}
    exps = [e for e in range(-9, 10) if e]
    while len(seen) < count:
        letters = [(rng.randrange(fam.rank), rng.choice(exps))
                   for _ in range(rng.randrange(1, 9))]
        seen.setdefault(fam.reduce_word(Word(tuple(letters))))
    return list(seen)


@st.composite
def product_operands(draw):
    """x and y over one family, either possibly an int scalar.  Small
    supports of four elements, the identity among them, make the term pairs
    collide and cancel; large ones hold 60 terms."""
    fam = draw(st.sampled_from(PRODUCT_FAMILIES))
    shape = draw(st.sampled_from(PRODUCT_SHAPES))
    rng = random.Random(draw(st.integers(0, 2**32)))
    pool = _distinct_elements(rng, fam, 60 if shape == "large support" else 4)

    def elem():
        if shape == "large support":
            return RingElem(fam, [(g, rng.choice((-3, -2, -1, 1, 2, 3))) for g in pool])
        return RingElem(fam, [(rng.choice(pool), rng.randint(-2, 2))
                              for _ in range(rng.randrange(7))])

    x, y = elem(), elem()
    if shape == "identity left":
        x = RingElem.one(fam)
    elif shape == "identity right":
        y = RingElem.one(fam)
    elif shape == "cancelling":
        # x (1 + g) = u (1 - g)(1 + g) = u (1 - g^2): the g terms cancel
        g = RingElem.group(fam, pool[1])
        x, y = ring_product_pairwise(x, RingElem.one(fam) - g), RingElem.one(fam) + g
    elif shape == "scalar left":
        x = rng.randint(-3, 3)
    elif shape == "scalar right":
        y = rng.randint(-3, 3)
    return x, y


@settings(max_examples=300, deadline=None)
@given(product_operands())
def test_product_matches_one_multiply_per_term_pair(operands):
    x, y = operands
    product = x * y
    assert product == ring_product_pairwise(x, y)
    _assert_normal(product)


def test_sum_keeps_every_term_of_both_operands():
    small = RingElem(Z3, {G: 2, (0, 1, 0): -1})
    large = RingElem(Z3, {G: -2, (0, 0, 1): 1, (0, 0, 2): 1})
    expected = RingElem(Z3, {(0, 1, 0): -1, (0, 0, 1): 1, (0, 0, 2): 1})
    assert small + large == large + small == expected
    assert small._terms == {G: 2, (0, 1, 0): -1}
    assert large._terms == {G: -2, (0, 0, 1): 1, (0, 0, 2): 1}


# ---------------------------------------------------------------------------
# augmentation


def test_augmentation_of_ideal_generators():
    assert augmentation(one_minus(Z3, G)) == 0
    two_minus = RingElem.integer(Z3, 2) - RingElem.group(Z3, G) \
        - RingElem.group(Z3, Z3.invert(G))
    assert augmentation(two_minus) == 0


def test_augmentation_and_phi():
    x = RingElem(Z3, {Z3.identity(): 3, G: 1})
    assert augmentation(x) == 4


def test_augmentation_multiplicative(rng):
    for _ in range(100):
        x = random_elem(rng, Z3)
        y = random_elem(rng, Z3)
        assert augmentation(x * y) == augmentation(x) * augmentation(y)
        assert augmentation(x.conjugate()) == augmentation(x)


# ---------------------------------------------------------------------------
# the image of 1 + T


def test_one_not_in_image():
    assert not in_image_one_plus_T(RingElem.one(Z3))


def test_two_in_image():
    assert in_image_one_plus_T(RingElem.integer(Z3, 2))


def test_g_plus_g_inverse_in_image():
    x = RingElem(Z3, {G: 1, Z3.invert(G): 1})
    assert in_image_one_plus_T(x)


def test_three_plus_pair_not_in_image():
    x = RingElem(Z3, {Z3.identity(): 3, G: 1, Z3.invert(G): 1})
    assert not in_image_one_plus_T(x)


def test_norm_elements_in_image(rng):
    for fam in (Z3, NilFamily(2)):
        for _ in range(150):
            p = random_elem(rng, fam, max_terms=5, bound=4)
            assert in_image_one_plus_T(p + p.conjugate())


def test_coset_stability(rng):
    for _ in range(150):
        x = random_elem(rng, Z3)
        x = x + x.conjugate()
        q = random_elem(rng, Z3)
        assert in_image_one_plus_T(x + q + q.conjugate())


def _symmetric_supports():
    """All inverse-closed supports of size <= 3 built from a small window."""
    window = sorted(
        (v for v in itertools.product((-1, 0, 1), repeat=3)),
    )
    nontrivial = [v for v in window if v != (0, 0, 0)]
    pairs = []
    seen = set()
    for g in nontrivial:
        if g in seen:
            continue
        seen.add(g)
        seen.add(Z3.invert(g))
        pairs.append((g, Z3.invert(g)))
    e = Z3.identity()
    yield (e,)
    for g, gi in pairs:
        yield (g, gi)
        yield (e, g, gi)


def test_criterion_matches_brute_force_oracle():
    checked = 0
    for support in _symmetric_supports():
        e = Z3.identity()
        if support == (e,):
            choices = [((c,),) for c in range(-3, 4) if c]
            for (coeffs,) in choices:
                x = RingElem(Z3, {e: coeffs[0]})
                assert in_image_one_plus_T(x) == one_plus_T_oracle(x)
                checked += 1
        elif len(support) == 2:
            g, gi = support
            for c in range(-3, 4):
                if not c:
                    continue
                x = RingElem(Z3, {g: c, gi: c})
                assert in_image_one_plus_T(x) == one_plus_T_oracle(x)
                checked += 1
        else:
            _, g, gi = support
            for c0 in range(-3, 4):
                for c in range(-3, 4):
                    if not c0 or not c:
                        continue
                    x = RingElem(Z3, {e: c0, g: c, gi: c})
                    assert in_image_one_plus_T(x) == one_plus_T_oracle(x)
                    checked += 1
    assert checked > 400


def test_asymmetric_is_never_in_image(rng):
    x = RingElem(Z3, {G: 1})
    assert not in_image_one_plus_T(x)


# ---------------------------------------------------------------------------
# serialization


def test_json_round_trip(rng):
    for fam in (Z3, NilFamily(3)):
        for _ in range(50):
            x = random_elem(rng, fam)
            assert ring_elem_from_json(ring_elem_to_json(x), fam) == x


def test_json_normalizes_on_load():
    blob = [
        {"coeff": 1, "word": "g1 g1^-1 g2"},
        {"coeff": 2, "word": "g2"},
    ]
    x = ring_elem_from_json(blob, Z3)
    assert x == RingElem(Z3, {(0, 1, 0): 3})


@pytest.mark.parametrize("coeff", [2.5, 2.0, True, False, "2", None, [2]])
def test_json_coefficients_must_be_integers(coeff):
    with pytest.raises(InputError, match=re.escape(f"coefficient {coeff!r} is not an integer")):
        ring_elem_from_json([{"coeff": coeff, "word": "1"}], Z3)


FREE_XY = FreeFamily(("x", "y"))


def terms(*pairs):
    return [{"coeff": c, "word": w} for c, w in pairs]


def test_json_spellings_of_one_element_merge():
    x = ring_elem_from_json(terms((2, "x x^-1"), (3, "1"), (1, "y^-1 y")), FREE_XY)
    assert x == RingElem.integer(FREE_XY, 6)
    assert len(x) == 1


def test_json_terms_that_cancel_drop_out():
    assert ring_elem_from_json(terms((1, "x"), (-1, "x")), FREE_XY).is_zero
    x = ring_elem_from_json(terms((1, "x"), (2, "y"), (-1, "y y^-1 x")), FREE_XY)
    assert x == RingElem.group(FREE_XY, Word(((1, 1),)), 2)
    assert x.support() == {Word(((1, 1),))}


def test_json_zero_coefficients_are_dropped():
    x = ring_elem_from_json(terms((0, "x"), (1, "y"), (0, "1")), FREE_XY)
    assert x.support() == {Word(((1, 1),))}
    assert ring_elem_from_json(terms((0, "x"), (0, "x")), FREE_XY).is_zero


@pytest.mark.parametrize("obj", [0, "", None, {}, False, 5, "x", {"coeff": 1, "word": "x"}])
def test_json_element_must_be_a_list(obj):
    with pytest.raises(InputError, match="^ring element JSON must be a list of terms$"):
        ring_elem_from_json(obj, FREE_XY)


@pytest.mark.parametrize("word", [["x"], [], {"x": 1}, 1, None])
def test_json_word_must_be_a_string(word):
    """A word that cannot key a dict (a list) gives the same error as any
    other non-string, before or after a string word was read."""
    message = f"word {word!r} is not a string"
    for blob in (terms((1, word)), terms((1, "x"), (1, word))):
        with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
            ring_elem_from_json(blob, FREE_XY)


def test_json_first_bad_term_sets_the_error():
    blob = terms((1, "x"), (1, "z"), (1.5, "x"))
    with pytest.raises(InputError, match="^unknown generator 'z'$"):
        ring_elem_from_json(blob, FREE_XY)
    blob = terms((1, "x"), (1.5, "z"))
    with pytest.raises(InputError, match="^coefficient 1.5 is not an integer$"):
        ring_elem_from_json(blob, FREE_XY)
    with pytest.raises(InputError, match="^bad ring element term: 'word'$"):
        ring_elem_from_json([{"coeff": 1, "word": "x"}, {"coeff": 1}], FREE_XY)


def test_to_text():
    x = RingElem.integer(Z3, 2) - RingElem.group(Z3, G) \
        - RingElem.group(Z3, Z3.invert(G))
    assert x.to_text() == "- g1^-1 + 2 - g1"
