import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import dense_augmentation_rows, dense_integer_rows, dense_view
from stable4.errors import CapExceeded, DomainError, InputError
from stable4.f2 import F2Vec
from stable4.forms import (
    AugmentedForm,
    Parity,
    RingMatrix,
    augmentation_signature,
    hyperbolic_matrix,
    parity,
    restrict_to_Ipi,
)
from stable4.groupring import RingElem
from stable4.models import (
    HAN1,
    INFINITY,
    TAU_UNKNOWN,
    builtin_presentation,
    check_invariants,
    fox_jacobian,
    h2_dimension,
    h2_to_hom_bits,
    han1_from_json,
    han1_to_json,
    hom_bits_to_h2,
    model_M_sigma,
    model_N_almost_spin,
    model_P,
    realize_form,
    w_from_json,
)
from stable4.words import NilFamily, Presentation, ZnFamily, parse_word

Z3 = ZnFamily(3)
NIL2 = NilFamily(2)
NIL3 = NilFamily(3)


def all_h2_vectors(family):
    d = h2_dimension(family)
    return [F2Vec(d, bits) for bits in range(1 << d)]


# ---------------------------------------------------------------------------
# H_2 coordinates


def test_h2_dimensions():
    assert h2_dimension(Z3) == 3
    assert h2_dimension(NIL3) == 2
    assert h2_dimension(NIL2) == 3


def test_h2_coordinates_round_trip():
    for fam in (Z3, NIL2, NIL3):
        for v in all_h2_vectors(fam):
            bits = h2_to_hom_bits(fam, v)
            assert hom_bits_to_h2(fam, bits) == v


def test_h2_rejects_torsion_violation():
    # gamma(a) must vanish when z is odd: a maps into 3-torsion of H_1.  The
    # same relator check as model_P refuses it.
    message = "relator x y x^-1 y^-1 a^-3 has odd gamma-weight"
    with pytest.raises(DomainError, match=re.escape(message)):
        hom_bits_to_h2(NIL3, (1, 0, 0))


# ---------------------------------------------------------------------------
# M_sigma


def test_m0_is_exactly_hyperbolic():
    h = model_M_sigma(NIL2, 0)
    assert h.form.matrix == hyperbolic_matrix(NIL2)
    assert h.form.epsilon == 1
    assert h.signature == 0
    assert parity(h.form) == Parity.EVEN
    assert h.tau == F2Vec.zero(3)


def test_m1_form_and_parity():
    h = model_M_sigma(Z3, 1, F2Vec.from_bits("010"))
    assert dense_integer_rows(Z3, dense_view(h.form.matrix)) == [[1, 1], [1, 0]]
    assert parity(h.form) == Parity.ODD
    assert h.tau is None


def test_m_sigma_rejects_nonzero_gamma_at_sigma_zero():
    with pytest.raises(DomainError):
        model_M_sigma(Z3, 0, F2Vec.from_bits("100"))


def test_m_sigma_any_gamma_at_sigma_one():
    for gamma in all_h2_vectors(NIL2):
        h = model_M_sigma(NIL2, 1, gamma)
        assert parity(h.form) == Parity.ODD and h.tau is None


# ---------------------------------------------------------------------------
# the P models


def test_p_fox_block_single_generator_weight():
    # gamma supported on x alone; first relator x a x^-1 a^-1
    h = model_P(builtin_presentation(NIL2), NIL2, "010")
    n = 3
    fox_entry = h.form.matrix.entry(2 + n, 2 + n)
    a = RingElem.group(NIL2, (1, 0, 0))
    expected = RingElem.integer(NIL2, 2) - a - a.conjugate()
    assert fox_entry == expected


def test_p_corner_and_couplings():
    h = model_P(builtin_presentation(Z3), Z3, "000")
    m = h.form.matrix
    n = 3
    assert m.size == 2 * n + 2
    assert restrict_to_Ipi(h.form) == RingElem.integer(Z3, 2)
    assert m.entry(0, 1) == RingElem.one(Z3)
    one = RingElem.one(Z3)
    for j in range(n):
        g = RingElem.group(Z3, Z3.generator_element(j))
        assert m.entry(0, 2 + j) == (one - g).conjugate()
        assert m.entry(2 + j, 0) == one - g
        assert m.entry(2 + j, 2 + n + j) == one
        # zero gamma kills the Fox block
        for k in range(n):
            assert m.entry(2 + n + j, 2 + n + k).is_zero


def test_p_even_and_hermitian_for_all_gamma():
    for fam in (Z3, NIL2, NIL3):
        pres = builtin_presentation(fam)
        for v in all_h2_vectors(fam):
            h = model_P(pres, fam, h2_to_hom_bits(fam, v))
            assert h.form.matrix.is_hermitian()
            assert parity(h.form) == Parity.EVEN
            assert h.tau == v
            assert h.signature == 0


def test_p_rejects_non_square_presentation():
    pres = Presentation(("x", "y"), (parse_word("x y x^-1 y^-1", ("x", "y")),))
    with pytest.raises(DomainError):
        model_P(pres, NilFamily(1), (0, 0))


def test_p_rejects_non_homomorphism():
    # z odd forces gamma(a) = 0
    message = "gamma does not define a homomorphism: relator x y x^-1 y^-1 a^-3"
    with pytest.raises(DomainError, match=re.escape(message)):
        model_P(builtin_presentation(NIL3), NIL3, "100")


def test_p_rejects_arity_mismatch():
    from stable4.errors import InputError

    with pytest.raises(InputError):
        model_P(builtin_presentation(NIL2), NIL2, "01")


@pytest.mark.parametrize("gamma", [
    "1a1", "0.5", "x", "\u0660\u0661\u0661", "01", "0101", (1.7, 0, 0), (True, False, False),
    (0, 2, 0), {"a": 0, "x": 1, "y": 0}, None, 5,
])
def test_p_gamma_is_bits_one_per_generator(gamma):
    """Only a 0/1 string or a sequence of 0/1 ints (not bools) is a gamma;
    anything else is refused with the value and the family's rank."""
    message = f"gamma {gamma!r} is not 3 bits, one per generator of the rank-3 family"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        model_P(builtin_presentation(NIL2), NIL2, gamma)


def test_p_gamma_as_a_sequence_of_ints():
    pres = builtin_presentation(NIL2)
    assert model_P(pres, NIL2, (0, 1, 1)) == model_P(pres, NIL2, "011")
    assert model_P(pres, NIL2, [1, 0, 1]).tau == F2Vec.from_bits("011")


def test_fox_jacobian_shape():
    jac = fox_jacobian(builtin_presentation(Z3), Z3)
    assert len(jac) == 3 and len(jac[0]) == 3


# ---------------------------------------------------------------------------
# N models


def test_n_is_the_hyperbolic_model():
    w = F2Vec.from_bits("100")
    h = model_N_almost_spin(NIL2, w)
    assert h.form.matrix == model_M_sigma(NIL2, 0).form.matrix
    assert parity(h.form) == Parity.EVEN
    assert h.signature == 0
    assert h.w == w
    assert h.tau == F2Vec.zero(3)


def test_n_rejects_zero_w():
    with pytest.raises(DomainError):
        model_N_almost_spin(NIL2, F2Vec.zero(3))


def test_n_refuses_infinity():
    with pytest.raises(DomainError, match="model N needs a nonzero w other than infinity"):
        model_N_almost_spin(Z3, INFINITY)


@pytest.mark.parametrize("call, message", [
    (lambda: realize_form(Z3, F2Vec.from_bits("10"), 0), "w has dimension 2, the family needs 3"),
    (lambda: realize_form(Z3, F2Vec.zero(3), 0, Parity.EVEN, F2Vec.from_bits("10")),
     "tau has dimension 2, but w has dimension 3"),
    (lambda: model_N_almost_spin(Z3, F2Vec.from_bits("10")),
     "w has dimension 2, the family needs 3"),
    (lambda: model_M_sigma(Z3, 1, F2Vec.from_bits("1001")),
     "gamma has dimension 4, the family needs 3"),
    (lambda: h2_to_hom_bits(NIL3, F2Vec.from_bits("100")),
     "H_2 vector has dimension 3, the family needs 2"),
    (lambda: realize_form(Z3, "100", 0), "w must be an F2 vector or INFINITY"),
    (lambda: h2_to_hom_bits(Z3, INFINITY), "H_2 vector must be an F2 vector"),
], ids=["realize w", "realize tau", "N w", "M gamma", "h2 vector", "realize str w",
        "h2 infinity"])
def test_dimension_errors_name_both_dimensions(call, message):
    with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
        call()


# ---------------------------------------------------------------------------
# shared invariants of all models


def _zero_signature_models():
    yield model_M_sigma(Z3, 0)
    yield model_M_sigma(Z3, 1)
    yield model_M_sigma(NIL2, 1, F2Vec.from_bits("011"))
    yield model_N_almost_spin(Z3, F2Vec.from_bits("110"))
    for fam in (Z3, NIL2, NIL3):
        pres = builtin_presentation(fam)
        for v in all_h2_vectors(fam):
            yield model_P(pres, fam, h2_to_hom_bits(fam, v))


def test_all_models_hermitian():
    for h in _zero_signature_models():
        assert h.form.matrix.is_hermitian()


def test_all_zero_signature_models_have_zero_integer_shadow_signature():
    for h in _zero_signature_models():
        assert augmentation_signature(h.form) == 0


# ---------------------------------------------------------------------------
# HAN1 validation


def test_han1_rejects_tau_on_odd_form():
    m1 = RingMatrix_int([[1, 1], [1, 0]])
    with pytest.raises(DomainError):
        HAN1(w=F2Vec.zero(3), signature=0, form=m1, tau=F2Vec.zero(3))


def RingMatrix_int(rows):
    return AugmentedForm(1, RingMatrix.from_int_rows(Z3, rows))


def test_han1_rejects_bad_signature():
    with pytest.raises(DomainError):
        HAN1(w=F2Vec.zero(3), signature=4, form=RingMatrix_int([[0, 1], [1, 0]]))


def test_han1_infinity_allows_any_signature():
    h = HAN1(w=INFINITY, signature=5, form=RingMatrix_int([[0, 1], [1, 0]]))
    assert h.signature == 5


@pytest.mark.parametrize("tau", [None, "000", "100"])
def test_han1_refuses_an_odd_almost_spin_form(tau):
    odd = RingMatrix_int([[1, 1], [1, 0]])
    tau = None if tau is None else F2Vec.from_bits(tau)
    with pytest.raises(DomainError, match="^almost-spin intersection forms are even$"):
        HAN1(w=F2Vec.from_bits("100"), signature=8, form=odd, tau=tau)
    # nor does such a record come back from JSON
    spin = HAN1(w=F2Vec.zero(3), signature=8, form=odd)
    obj = dict(han1_to_json(spin), w="100")
    with pytest.raises(DomainError, match="^almost-spin intersection forms are even$"):
        han1_from_json(obj)


@pytest.mark.parametrize("w, tau, calls", [
    ("000", None, 0), ("000", "000", 1), ("100", None, 1), ("100", "000", 1),
    ("infinity", None, 0),
])
def test_han1_computes_the_parity_at_most_once(monkeypatch, w, tau, calls):
    import stable4.models as models

    seen = []
    monkeypatch.setattr(models, "parity", lambda form: seen.append(form) or parity(form))
    form = RingMatrix_int([[0, 1], [1, 0]])
    HAN1(w=w_from_json(w), signature=8, form=form,
         tau=None if tau is None else F2Vec.from_bits(tau))
    assert len(seen) == calls


def test_han1_refuses_a_signature_that_is_not_an_integer():
    form = RingMatrix_int([[0, 1], [1, 0]])
    with pytest.raises(InputError, match=r"^signature 2\.5 is not an integer$"):
        HAN1(w=INFINITY, signature=2.5, form=form)


def _rule_error(w, signature, form, tau):
    """What check_invariants says of the model's tuple, with TAU_UNKNOWN
    standing for the tau of an even form that has none."""
    p, t = None, tau
    if w is not INFINITY:
        p = parity(form)
        if p is Parity.EVEN and tau is None:
            t = TAU_UNKNOWN
    try:
        check_invariants(w, signature, p, t, "topological")
    except (DomainError, InputError) as exc:
        return type(exc), str(exc)
    return None


@st.composite
def han1_cases(draw):
    family = draw(st.sampled_from((Z3, NIL2)))  # both have d = 3
    corner = draw(st.sampled_from((0, 1, 2, 3)))  # the parity of the form
    form = AugmentedForm(1, RingMatrix.from_int_rows(family, [[corner, 1], [1, 0]]))
    vec = st.integers(0, 7).map(lambda bits: F2Vec(3, bits))
    w = draw(st.just(INFINITY) | vec)
    tau = draw(st.none() | vec | st.integers(0, 3).map(lambda bits: F2Vec(2, bits)))
    signature = draw(st.integers(-24, 24) | st.sampled_from((2.5, 8.0, True)))
    return w, signature, form, tau


@settings(max_examples=300, deadline=None)
@given(han1_cases())
def test_han1_refuses_exactly_what_the_rule_refuses(case):
    w, signature, form, tau = case
    expected = _rule_error(w, signature, form, tau)
    try:
        HAN1(w=w, signature=signature, form=form, tau=tau)
    except (DomainError, InputError) as exc:
        assert (type(exc), str(exc)) == expected
    else:
        assert expected is None


# ---------------------------------------------------------------------------
# realization


def test_realize_totally_non_spin_signature_zero():
    h = realize_form(Z3, INFINITY, 0)
    rows = dense_integer_rows(Z3, dense_view(h.form.matrix))
    assert rows[2][2] == 1 and rows[3][3] == -1
    assert h.form.matrix.size == 4


def test_realize_odd_spin_with_e8():
    h = realize_form(Z3, F2Vec.zero(3), 8, Parity.ODD, category="topological")
    assert h.form.matrix.size == 2 + 8
    assert parity(h.form) == Parity.ODD
    assert signature_int_of_shadow(h) == 8


def signature_int_of_shadow(h):
    from stable4.forms import ldlt_signature

    return ldlt_signature(dense_augmentation_rows(dense_view(h.form.matrix)))


def test_realize_even_spin_plain_p():
    tau = F2Vec.from_bits("110")
    h = realize_form(Z3, F2Vec.zero(3), 0, Parity.EVEN, tau)
    assert h.tau == tau
    assert parity(h.form) == Parity.EVEN
    assert h.form.matrix.size == 8


def test_realize_negative_signatures():
    h = realize_form(Z3, F2Vec.zero(3), -16, Parity.ODD, category="smooth")
    assert signature_int_of_shadow(h) == -16


def test_realize_validation():
    with pytest.raises(DomainError):
        realize_form(Z3, F2Vec.zero(3), 8, Parity.ODD, category="smooth")
    with pytest.raises(DomainError):
        realize_form(Z3, F2Vec.zero(3), 4, Parity.ODD)
    with pytest.raises(DomainError):
        realize_form(Z3, F2Vec.from_bits("100"), 8, Parity.EVEN,
                     tau=F2Vec.from_bits("010"))
    with pytest.raises(DomainError):
        realize_form(Z3, F2Vec.from_bits("100"), 8, Parity.ODD)
    with pytest.raises(DomainError):
        realize_form(Z3, F2Vec.zero(3), 8, Parity.EVEN)  # tau missing


def test_realize_takes_top_for_topological():
    for w, parity in ((F2Vec.zero(3), Parity.ODD), (F2Vec.from_bits("100"), None),
                      (INFINITY, None)):
        assert (realize_form(Z3, w, 8, parity, category="top")
                == realize_form(Z3, w, 8, parity, category="topological"))
    with pytest.raises(InputError, match="^unknown category 'TOP'$"):
        realize_form(Z3, INFINITY, 0, category="TOP")


@pytest.mark.parametrize("parity, tau", [
    (Parity.ODD, None), (Parity.EVEN, None), (None, F2Vec.zero(3)),
], ids=["odd", "even", "tau"])
def test_realize_refuses_parity_or_tau_for_totally_non_spin(parity, tau):
    with pytest.raises(DomainError, match="^totally non-spin tuples carry only a signature$"):
        realize_form(Z3, INFINITY, 3, parity, tau)


@pytest.mark.parametrize("w", [INFINITY, F2Vec.zero(3), F2Vec.from_bits("100")],
                         ids=["infinity", "spin", "almost-spin"])
@pytest.mark.parametrize("signature", [2.5, 8.0, True, "8", None])
def test_realize_refuses_a_signature_that_is_not_an_int(w, signature):
    parity = Parity.ODD if w == F2Vec.zero(3) else None
    message = f"signature {signature!r} is not an integer"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        realize_form(Z3, w, signature, parity)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        check_invariants(w, signature, parity, None, "topological", 3)


@pytest.mark.parametrize("w", [INFINITY, F2Vec.zero(3), F2Vec.from_bits("100")],
                         ids=["infinity", "spin", "almost-spin"])
@pytest.mark.parametrize("parity", ["odd", "even", "Odd", 1, True, Parity])
def test_realize_refuses_a_parity_that_is_not_a_parity(w, parity):
    """A string is not read as a parity: "odd" used to pass as even."""
    message = f"parity {parity!r} is not a Parity or None"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        realize_form(Z3, w, 8, parity, F2Vec.zero(3))
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        check_invariants(w, 8, parity, F2Vec.zero(3), "topological", 3)


def test_realize_refuses_a_form_over_the_cap(monkeypatch):
    # M_1 + 8 E8 has rank 66, so 4356 entries
    monkeypatch.setenv("STABLE4_CAP", "4355")
    with pytest.raises(CapExceeded, match="rank-66 form has 4356 entries, over the cap 4355"):
        realize_form(Z3, F2Vec.zero(3), 64, Parity.ODD)
    with pytest.raises(CapExceeded, match="cap 4355"):
        realize_form(Z3, INFINITY, 64)
    with pytest.raises(CapExceeded, match="cap 4355"):
        realize_form(Z3, F2Vec.from_bits("100"), -64)
    monkeypatch.setenv("STABLE4_CAP", "4356")
    assert realize_form(Z3, F2Vec.zero(3), 64, Parity.ODD).form.matrix.size == 66


# ---------------------------------------------------------------------------
# serialization


def test_han1_json_round_trip():
    pres = builtin_presentation(NIL2)
    for h in (
        model_M_sigma(NIL2, 1, F2Vec.from_bits("101")),
        model_P(pres, NIL2, "110"),
        model_N_almost_spin(NIL2, F2Vec.from_bits("010")),
        realize_form(NIL2, INFINITY, 3),
    ):
        blob = han1_to_json(h)
        back = han1_from_json(blob)
        assert back.w == h.w
        assert back.signature == h.signature
        assert back.tau == h.tau
        assert back.form == h.form


@pytest.mark.parametrize("signature", [8.0, True, "8", None])
def test_han1_json_signature_must_be_an_integer(signature):
    blob = han1_to_json(model_M_sigma(NIL2, 1))
    blob["signature"] = signature
    message = f"signature {signature!r} is not an integer"
    with pytest.raises(InputError, match=re.escape(message)):
        han1_from_json(blob)


@pytest.mark.parametrize("notes", [None, [1, 2], 3, 2.5])
def test_han1_json_notes_must_be_a_string(notes):
    blob = han1_to_json(model_M_sigma(NIL2, 1))
    blob["notes"] = notes
    message = f"notes {notes!r} is not a string"
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        han1_from_json(blob)


def test_han1_json_without_notes_loads_empty_notes():
    blob = han1_to_json(model_M_sigma(NIL2, 1))
    del blob["notes"]
    assert han1_from_json(blob).notes == ""


def test_w_json():
    assert w_from_json("infinity") is INFINITY
    assert w_from_json("011") == F2Vec.from_bits("011")


def test_h2_dimension_rejects_unsupported_families():
    from stable4.models import h2_dimension
    from stable4.words import FreeFamily

    with pytest.raises(DomainError):
        h2_dimension(ZnFamily(2))
    with pytest.raises(DomainError):
        h2_dimension(FreeFamily(("x",)))
