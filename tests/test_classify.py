import copy
import random
import re

import pytest

from oracles import (
    fixed_point_closure,
    hand_gl3_generators,
    hand_nil_generators,
    nil_word_matrix,
)
from stable4.errors import CapExceeded, DomainError, InputError
from stable4.f2 import F2Mat, F2Vec, group_closure
from stable4.forms import Parity
from stable4.classify import (
    TAU_UNKNOWN,
    BordismClassSpin,
    InvariantTuple,
    classify,
    decide_stable_equiv,
    family_custom,
    family_data_from_json,
    family_data_to_json,
    family_nil,
    family_z3,
    invariant_tuple_from_json,
    invariant_tuple_to_json,
    invariants_of,
    ks,
    spin_generators,
    stabilizer_of_w,
    table_to_json,
    table_to_text,
)
from stable4.models import (
    INFINITY,
    BuiltinFamily,
    builtin_family,
    builtin_presentation,
    h2_to_hom_bits,
    hom_bits_to_h2,
    model_M_sigma,
    model_N_almost_spin,
    model_P,
)
from stable4.words import NilFamily, Word, ZnFamily, parse_word


def spin_w(family):
    return F2Vec.zero(family.d)


# ---------------------------------------------------------------------------
# family data


def test_z3_action_is_full_gl3():
    fam = family_z3()
    assert fam.d == 3
    assert len(group_closure(fam.out_generators)) == 168


def test_nil_odd_action_is_gl2():
    fam = family_nil(3)
    assert fam.d == 2
    assert len(group_closure(fam.out_generators)) == 6


def test_nil_even_action_is_the_parabolic():
    fam = family_nil(2)
    assert fam.d == 3
    closure = group_closure(fam.out_generators)
    # GL_2 on the first coordinates extended by translations by the torsion
    # coordinate: order 6 * 4
    assert len(closure) == 24
    assert closure == fixed_point_closure(list(fam.out_generators))
    # every element fixes the torsion coordinate of the H_2 side
    for m in closure:
        assert m.apply(F2Vec.from_bits("001")).bit(2) == 1
        for bits in range(8):
            v = F2Vec(3, bits)
            assert m.apply(v).bit(2) == v.bit(2)


def test_family_nil_rejects_nonpositive():
    with pytest.raises(DomainError):
        family_nil(0)


def test_family_custom_validates_generators():
    with pytest.raises(DomainError):
        family_custom("bad", 2, [F2Mat.from_rows(["10", "10"])])


# ---------------------------------------------------------------------------
# the family records: Out-images derived from automorphisms


BUILTIN = [(ZnFamily(3), family_z3(), hand_gl3_generators(), 3)] + [
    (NilFamily(z), family_nil(z), hand_nil_generators(z), 2 if z % 2 else 4)
    for z in range(1, 9)
]
BUILTIN_IDS = ["z3"] + [f"nil{z}" for z in range(1, 9)]


@pytest.mark.parametrize("ring, data, hand, count", BUILTIN, ids=BUILTIN_IDS)
def test_derived_action_generates_the_hand_entered_group(ring, data, hand, count):
    assert group_closure(data.out_generators) == group_closure(hand)
    assert (data.d, len(data.out_generators)) == (hand[0].dim, count)


@pytest.mark.parametrize("z", [2, 4, 6, 8])
def test_transposed_action_is_another_group_for_even_z(z):
    # the pullback convention matters: row k holds the exponent sums in the
    # image of coordinate generator k
    transposed = [m.transpose() for m in family_nil(z).out_generators]
    assert group_closure(transposed) != group_closure(hand_nil_generators(z))


def _substituted(rel, image):
    """The relator with each generator spelled out as its image word."""
    letters = []
    for gen, exp in rel.letters:
        piece = image[gen] if exp > 0 else image[gen].inverse()
        letters += piece.letters * abs(exp)
    return Word(letters)


@pytest.mark.parametrize("z", range(1, 9))
def test_nil_images_satisfy_the_relators_in_the_matrix_representation(z):
    record = builtin_family(NilFamily(z))
    identity = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert len(record.images) == 4
    for image in record.images:
        for rel in record.presentation.relators:
            assert nil_word_matrix(_substituted(rel, image), z) == identity


def test_z3_images_satisfy_the_relators():
    record = builtin_family(ZnFamily(3))
    for image in record.images:
        for rel in record.presentation.relators:
            sums = [0, 0, 0]
            for g, e in _substituted(rel, image).letters:
                sums[g] += e
            assert sums == [0, 0, 0]


def test_an_image_that_breaks_a_relator_is_refused():
    nil2 = NilFamily(2)
    record = builtin_family(nil2)
    bad = tuple(parse_word(t, nil2.generators) for t in ("a", "x^2", "y"))
    with pytest.raises(DomainError, match="does not send the relator x y x"):
        BuiltinFamily("nil:2", nil2, record.presentation, record.coords, (bad,))


def test_record_drops_identity_and_repeated_images():
    nil1 = NilFamily(1)
    record = builtin_family(nil1)
    # x -> x a and y -> y a act trivially on (x, y) when z is odd
    assert len(record.images) == 4 and len(record.out_generators()) == 2
    twice = BuiltinFamily("nil:1", nil1, record.presentation, record.coords,
                          record.images[:1] * 2)
    assert len(twice.out_generators()) == 1


@pytest.mark.parametrize("ring", [b[0] for b in BUILTIN], ids=BUILTIN_IDS)
def test_h2_coordinates_round_trip_through_the_record(ring):
    d = len(builtin_family(ring).coords)
    for bits in range(1 << d):
        v = F2Vec(d, bits)
        assert hom_bits_to_h2(ring, h2_to_hom_bits(ring, v)) == v


def test_builtin_family_refuses_other_rings():
    with pytest.raises(DomainError, match="no built-in H_2 data"):
        builtin_family(ZnFamily(4))


# ---------------------------------------------------------------------------
# the action


def spin_state(eps, phi):
    """The F2^(d+1) vector of the spin state (phi, eps), eps in coordinate 0."""
    return F2Vec(phi.dim + 1, eps | phi.bits << 1)


def test_act_spin_eps_zero_fixes_phi():
    fam = family_z3()
    c = spin_state(0, F2Vec.from_bits("101"))
    for m in spin_generators(fam)[: fam.d]:  # the H^1 basis vectors
        assert m.apply(c) == c


def test_act_spin_eps_one_translates():
    fam = family_z3()
    phi = F2Vec.from_bits("110")
    out = spin_state(1, phi)
    for j in (0, 1):
        out = spin_generators(fam)[j].apply(out)
    assert out == spin_state(1, F2Vec.zero(3))


def test_act_spin_identity_matrix_fixes():
    fam = family_custom("id", 3, [F2Mat.identity(3)])
    assert spin_generators(fam)[-1] == F2Mat.identity(4)


def test_act_spin_out_element():
    fam = family_z3()
    lift = spin_generators(fam)[fam.d]  # swaps the first two phi coordinates
    for eps in (0, 1):
        c = spin_state(eps, F2Vec.from_bits("100"))
        assert lift.apply(c) == spin_state(eps, F2Vec.from_bits("010"))


def test_act_spin_dimension_mismatch():
    fam = family_nil(3)
    with pytest.raises(DomainError):
        spin_generators(fam)[0].apply(spin_state(0, F2Vec.zero(3)))


def test_spin_tables_honour_the_cap():
    # 2^21 spin states exceed the 2^20 default before any is built
    fam = family_custom("big", 20, [F2Mat.identity(20)])
    with pytest.raises(CapExceeded):
        classify(fam, F2Vec.zero(20), "smooth")
    with pytest.raises(CapExceeded):
        classify(family_z3(), spin_w(family_z3()), "smooth", cap=8)
    assert len(classify(family_z3(), spin_w(family_z3()), "smooth", cap=16).classes) == 3


def test_sentinels_survive_deepcopy():
    t = InvariantTuple(F2Vec.zero(3), 0, Parity.EVEN, TAU_UNKNOWN)
    copied = copy.deepcopy((t, INFINITY))
    assert copied[0].tau is TAU_UNKNOWN and copied[1] is INFINITY
    assert (repr(INFINITY), repr(TAU_UNKNOWN)) == ("infinity", "tau-unknown")


def test_bordism_class_validation():
    BordismClassSpin(16, F2Vec.zero(3), 0).validate("smooth")
    with pytest.raises(DomainError):
        BordismClassSpin(8, F2Vec.zero(3), 0).validate("smooth")
    BordismClassSpin(8, F2Vec.zero(3), 0).validate("topological")
    with pytest.raises(DomainError):
        BordismClassSpin(4, F2Vec.zero(3), 0).validate("topological")


# ---------------------------------------------------------------------------
# classification tables


@pytest.mark.parametrize("z,count", [(1, 3), (2, 4), (3, 3), (4, 4), (5, 3), (6, 4)])
def test_nil_spin_class_counts(z, count):
    fam = family_nil(z)
    table = classify(fam, spin_w(fam), "smooth")
    assert len(table.classes) == count
    assert table.signature_stride == 16


def test_z3_spin_classes():
    fam = family_z3()
    table = classify(fam, spin_w(fam), "smooth")
    assert len(table.classes) == 3
    kinds = [e.kind for e in table.classes]
    assert kinds.count("odd") == 1
    orbit_sizes = sorted(len(e.orbit) for e in table.classes if e.kind == "orbit")
    assert orbit_sizes == [1, 7]


def test_spin_strides():
    for fam in (family_z3(), family_nil(2), family_nil(3)):
        assert classify(fam, spin_w(fam), "smooth").signature_stride == 16
        assert classify(fam, spin_w(fam), "topological").signature_stride == 8
        assert classify(fam, spin_w(fam), "topological").ks_rule == "sigma/8"
        assert classify(fam, spin_w(fam), "smooth").ks_rule == "none"


def test_totally_non_spin_tables():
    fam = family_z3()
    smooth = classify(fam, INFINITY, "smooth")
    assert smooth.signature_stride == 1
    assert len(smooth.classes) == 1
    assert smooth.ks_rule == "none"
    top = classify(fam, INFINITY, "topological")
    assert top.ks_rule == "independent-bit"
    assert top.signature_stride == 1


def test_almost_spin_smooth_reps_lie_in_kernel():
    for fam, w in [
        (family_z3(), F2Vec.from_bits("101")),
        (family_nil(2), F2Vec.from_bits("001")),
        (family_nil(3), F2Vec.from_bits("10")),
    ]:
        table = classify(fam, w, "smooth")
        assert table.signature_stride == 8
        for entry in table.classes:
            assert entry.kind == "orbit"
            for v in entry.orbit:
                assert w.dot(v) == 0


def test_almost_spin_topological_covers_everything():
    fam = family_nil(2)
    w = F2Vec.from_bits("001")
    table = classify(fam, w, "topological")
    assert table.ks_rule == "sigma/8 + <w,->"
    covered = sorted(
        v.to_bits() for entry in table.classes for v in entry.orbit
    )
    assert covered == sorted(F2Vec(3, b).to_bits() for b in range(8))


def test_classify_rejects_bad_w():
    fam = family_z3()
    with pytest.raises(DomainError):
        classify(fam, F2Vec.zero(2), "smooth")


def test_stabilizer_of_w():
    fam = family_z3()
    w = F2Vec.from_bits("100")
    stab = stabilizer_of_w(fam, w)
    for m in stab:
        assert m.transpose().apply(w) == w
    # |GL_3(F2)| / (number of nonzero functionals) = 168 / 7
    assert len(stab) == 24


def _seeded_d4_family(seed):
    rng = random.Random(seed)
    gens = []
    while len(gens) < 1 + seed % 2:
        m = F2Mat(4, tuple(rng.randrange(16) for _ in range(4)))
        if m.is_invertible():
            gens.append(m)
    return family_custom(f"d4-seed{seed}", 4, gens)


@pytest.mark.parametrize(
    "fam",
    [family_z3(), family_nil(2), family_nil(4)] + [_seeded_d4_family(s) for s in (1, 2, 3)],
    ids=lambda fam: fam.name,
)
def test_stabilizer_matches_the_transpose_filter(fam):
    closure = group_closure(fam.out_generators)
    for bits in range(1, 1 << fam.d):
        w = F2Vec(fam.d, bits)
        old = sorted((m for m in closure if m.transpose().apply(w) == w), key=lambda m: m.rows)
        assert stabilizer_of_w(fam, w) == old


def _count_classes_brute_force(fam, rng):
    """Independent orbit count of the (phi, eps) states with shuffled,
    duplicated generator lists and a plain union-find."""
    actions = [("m", F2Vec(fam.d, 1 << i)) for i in range(fam.d)]
    actions += [("rho", m) for m in fam.out_generators]
    actions += [rng.choice(actions) for _ in range(3)]
    rng.shuffle(actions)
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x, y):
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry

    states = [(bits, eps) for bits in range(1 << fam.d) for eps in (0, 1)]
    for s in states:
        parent[s] = s
    for bits, eps in states:
        phi = F2Vec(fam.d, bits)
        for kind, a in actions:
            if kind == "m":
                image = (phi ^ a).bits if eps else bits
            else:
                image = a.apply(phi).bits
            union((bits, eps), (image, eps))
    return len({find(s) for s in states})


def test_class_count_matches_randomized_brute_force():
    rng = random.Random(99)
    for fam in (family_z3(), family_nil(2), family_nil(3), family_nil(4)):
        expected = _count_classes_brute_force(fam, rng)
        table = classify(fam, spin_w(fam), "smooth")
        assert len(table.classes) == expected


def test_exactly_one_odd_class():
    # for eps = 1 the H^1 translations act transitively on phi
    for fam in (family_z3(), family_nil(2), family_nil(5)):
        table = classify(fam, spin_w(fam), "topological")
        assert sum(1 for e in table.classes if e.kind == "odd") == 1


# ---------------------------------------------------------------------------
# Kirby-Siebenmann


def test_ks_spin_rochlin():
    w0 = F2Vec.zero(3)
    assert ks(w0, 8) == 1
    assert ks(w0, 16) == 0
    assert ks(w0, 0) == 0
    assert ks(w0, -8) == 1


def test_ks_spin_divisibility():
    with pytest.raises(DomainError):
        ks(F2Vec.zero(3), 12)


def test_ks_almost_spin():
    w = F2Vec.from_bits("100")
    assert ks(w, 8, h2_class=F2Vec.from_bits("100")) == 0
    assert ks(w, 8, h2_class=F2Vec.from_bits("010")) == 1
    with pytest.raises(DomainError):
        ks(w, 8)


def test_ks_totally_non_spin_free_bit():
    assert ks(INFINITY, 5, free_bit=1) == 1
    assert ks(INFINITY, 5, free_bit=0) == 0
    with pytest.raises(DomainError):
        ks(INFINITY, 5)


def test_ks_smooth_rejected():
    with pytest.raises(DomainError):
        ks(F2Vec.zero(3), 8, category="smooth")


# ---------------------------------------------------------------------------
# invariant extraction


def test_invariants_of_models():
    z3 = ZnFamily(3)
    m1 = invariants_of(model_M_sigma(z3, 1, F2Vec.from_bits("110")))
    assert m1.parity == Parity.ODD and m1.tau is None and m1.signature == 0
    assert m1.w == F2Vec.zero(3)

    nil2 = NilFamily(2)
    p = invariants_of(model_P(builtin_presentation(nil2), nil2, "110"))
    assert p.parity == Parity.EVEN
    assert p.tau == F2Vec.from_bits("101")  # (x, y, a) coordinates

    n = invariants_of(model_N_almost_spin(nil2, F2Vec.from_bits("010")))
    assert n.w == F2Vec.from_bits("010")
    assert n.parity == Parity.EVEN and n.tau == F2Vec.zero(3)


def test_invariants_of_flags_unknown_tau():
    from stable4.forms import RingMatrix, AugmentedForm
    from stable4.models import HAN1

    z3 = ZnFamily(3)
    # an even form with no tau provenance
    form = AugmentedForm(1, RingMatrix.from_int_rows(z3, [[2, 1], [1, 0]]))
    h = HAN1(w=F2Vec.zero(3), signature=0, form=form)
    t = invariants_of(h)
    assert t.tau is TAU_UNKNOWN
    with pytest.raises(DomainError):
        decide_stable_equiv(t, t, "topological", family_z3())


# ---------------------------------------------------------------------------
# the equivalence decision


def even(sig, tau, d=3):
    return InvariantTuple(F2Vec.zero(d), sig, Parity.EVEN, F2Vec.from_bits(tau))


def odd(sig, d=3):
    return InvariantTuple(F2Vec.zero(d), sig, Parity.ODD, None)


def test_decide_z3_spec_cases():
    fam = family_z3()
    assert decide_stable_equiv(even(0, "100"), even(0, "010"), "smooth", fam)
    assert not decide_stable_equiv(even(0, "000"), even(0, "100"), "smooth", fam)
    assert decide_stable_equiv(odd(0), odd(0), "smooth", fam)


def test_decide_signature_gates():
    fam = family_z3()
    assert not decide_stable_equiv(odd(0), odd(16), "smooth", fam)
    assert not decide_stable_equiv(even(0, "000"), odd(0), "smooth", fam)


def test_decide_validation():
    fam = family_z3()
    with pytest.raises(DomainError):  # smooth spin needs 16 | sigma
        decide_stable_equiv(odd(8), odd(8), "smooth", fam)
    assert decide_stable_equiv(odd(8), odd(8), "topological", fam)
    with pytest.raises(DomainError):  # even without tau
        decide_stable_equiv(
            InvariantTuple(F2Vec.zero(3), 0, Parity.EVEN, None), odd(0),
            "smooth", fam,
        )
    with pytest.raises(DomainError):  # odd with tau
        decide_stable_equiv(
            InvariantTuple(F2Vec.zero(3), 0, Parity.ODD, F2Vec.zero(3)),
            odd(0), "smooth", fam,
        )


def test_decide_works_for_almost_spin():
    fam = family_nil(2)
    w = F2Vec.from_bits("001")
    a = InvariantTuple(w, 0, Parity.EVEN, F2Vec.from_bits("100"))
    b = InvariantTuple(w, 0, Parity.EVEN, F2Vec.from_bits("010"))
    c = InvariantTuple(w, 0, Parity.EVEN, F2Vec.from_bits("000"))
    assert decide_stable_equiv(a, b, "smooth", fam)
    assert not decide_stable_equiv(a, c, "smooth", fam)
    # different w-types never compare equal
    other = InvariantTuple(F2Vec.from_bits("010"), 0, Parity.EVEN,
                           F2Vec.from_bits("000"))
    assert not decide_stable_equiv(c, other, "smooth", fam)


def test_decide_totally_non_spin():
    fam = family_z3()
    a = InvariantTuple(INFINITY, 7, None, None)
    b = InvariantTuple(INFINITY, 7, None, None)
    c = InvariantTuple(INFINITY, -2, None, None)
    assert decide_stable_equiv(a, b, "smooth", fam)
    assert not decide_stable_equiv(a, c, "smooth", fam)
    assert not decide_stable_equiv(a, odd(0), "smooth", fam)


def _all_valid_spin_tuples(d, sigmas):
    for sig in sigmas:
        yield InvariantTuple(F2Vec.zero(d), sig, Parity.ODD, None)
        for bits in range(1 << d):
            yield InvariantTuple(
                F2Vec.zero(d), sig, Parity.EVEN, F2Vec(d, bits)
            )


@pytest.mark.parametrize(
    "fam", [family_z3(), family_nil(2), family_nil(3)], ids=["z3", "nil2", "nil3"]
)
def test_decide_is_an_equivalence_relation(fam):
    tuples = list(_all_valid_spin_tuples(fam.d, (-16, 0, 16)))
    related = {}
    for a in tuples:
        for b in tuples:
            related[(a, b)] = decide_stable_equiv(a, b, "smooth", fam)
    for a in tuples:
        assert related[(a, a)]
        for b in tuples:
            assert related[(a, b)] == related[(b, a)]
            for c in tuples:
                if related[(a, b)] and related[(b, c)]:
                    assert related[(a, c)]


# ---------------------------------------------------------------------------
# serialization


def test_family_json_round_trip():
    fam = family_nil(4)
    assert family_data_from_json(family_data_to_json(fam)).out_generators \
        == fam.out_generators


@pytest.mark.parametrize("d", ["3", True, 3.0, None])
def test_family_json_d_must_be_an_integer(d):
    blob = family_data_to_json(family_z3())
    blob["d"] = d
    message = f"bad family JSON: d {d!r} is not an integer"
    with pytest.raises(InputError, match=re.escape(message)):
        family_data_from_json(blob)


def test_table_json_and_text():
    fam = family_nil(3)
    table = classify(fam, spin_w(fam), "smooth")
    blob = table_to_json(table)
    assert blob["signature_stride"] == 16
    assert len(blob["classes"]) == 3
    text = table_to_text(table)
    assert "finite classes per signature: 3" in text


def test_invariant_tuple_json_round_trip():
    for t in (even(16, "101"), odd(0), InvariantTuple(INFINITY, 3, None, None)):
        assert invariant_tuple_from_json(invariant_tuple_to_json(t)) == t


def test_almost_spin_count_matches_independent_enumeration():
    """Recompute the almost-spin tables from scratch: stabilizer by
    filtering a fixed-point closure, orbits by union-find over shuffled
    element lists."""
    rng = random.Random(5)
    for fam, w in [
        (family_nil(2), F2Vec.from_bits("001")),
        (family_z3(), F2Vec.from_bits("110")),
    ]:
        closure = fixed_point_closure(list(fam.out_generators))
        stab = [m for m in closure if m.transpose().apply(w) == w]
        rng.shuffle(stab)
        for category, keep in (
            ("smooth", lambda bits: w.dot(F2Vec(fam.d, bits)) == 0),
            ("topological", lambda bits: True),
        ):
            domain = [bits for bits in range(1 << fam.d) if keep(bits)]
            parent = {b: b for b in domain}

            def find(x):
                while parent[x] != x:
                    parent[x] = parent[parent[x]]
                    x = parent[x]
                return x

            for bits in domain:
                for m in stab:
                    image = m.apply(F2Vec(fam.d, bits)).bits
                    ra, rb = find(bits), find(image)
                    if ra != rb:
                        parent[ra] = rb
            expected = len({find(b) for b in domain})
            table = classify(fam, w, category)
            assert len(table.classes) == expected


def test_topological_spin_classes_match_smooth():
    # only the signature stride differs between the categories
    for fam in (family_z3(), family_nil(2), family_nil(3)):
        smooth = classify(fam, spin_w(fam), "smooth")
        top = classify(fam, spin_w(fam), "topological")
        assert smooth.classes == top.classes
        assert (smooth.signature_stride, top.signature_stride) == (16, 8)


def test_table_text_other_wtypes():
    fam = family_nil(2)
    tns = table_to_text(classify(fam, INFINITY, "topological"))
    assert "signature-only" in tns and "1*Z" in tns
    almost = table_to_text(classify(fam, F2Vec.from_bits("001"), "smooth"))
    assert "8*Z" in almost


@pytest.mark.parametrize("signature", [16.0, 16.5, True, "16", None])
def test_invariant_tuple_signature_must_be_an_integer(signature):
    blob = {"w": "000", "signature": signature, "parity": "even", "tau": "101"}
    with pytest.raises(InputError, match=f"signature {signature!r} is not an integer"):
        invariant_tuple_from_json(blob)


def test_invariant_tuple_tau_must_be_a_bit_string():
    blob = {"w": "000", "signature": 16, "parity": "even", "tau": [1, 0, 1]}
    with pytest.raises(InputError, match="bad bit-string"):
        invariant_tuple_from_json(blob)
