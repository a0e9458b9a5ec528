import copy
import importlib
import pickle
import random
import re
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import random_word
from oracles import (
    fixed_point_closure,
    hand_gl3_generators,
    hand_nil_generators,
    naive_orbits,
    nil_word_matrix,
    orbit_witnesses_full_pass,
    spin_state_generators,
    spin_state_table_oracle,
    reduce_word_stepwise,
    stabilizer_orbits,
    stabilizer_rows_loop,
)
from stable4.errors import CapExceeded, DomainError, InputError
from stable4.f2 import F2Mat, F2Vec, _orbit_witnesses, group_closure, orbits
from stable4.forms import Parity
from stable4.classify import (
    TAU_UNKNOWN,
    FamilyData,
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
    spin_state_orbits,
    stabilizer_of_w,
    table_to_json,
    table_to_text,
)
from stable4.models import (
    INFINITY,
    BuiltinFamily,
    _image_of,
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


@pytest.mark.parametrize("ring", [b[0] for b in BUILTIN], ids=BUILTIN_IDS)
def test_image_of_is_the_stepwise_value_of_the_substituted_word(ring):
    # the relators go to the identity; generator powers (the one-letter
    # (g^e)^k case among them) and random words land elsewhere
    record = builtin_family(ring)
    rng = random.Random(f"image of {ring!r}")
    words = list(record.presentation.relators)
    words += [Word(((g, e),)) for g in range(ring.rank) for e in (-7, -1, 1, 5)]
    words += [random_word(rng, ring.rank, 12) for _ in range(20)]
    for image in record.images:
        for w in words:
            expected = reduce_word_stepwise(_substituted(w, image), ring)
            assert _image_of(ring, w, image) == expected


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
# the action on spin states, as the oracle builds it


def spin_state(eps, phi):
    """The F2^(d+1) vector of the spin state (phi, eps), eps in coordinate 0."""
    return F2Vec(phi.dim + 1, eps | phi.bits << 1)


def test_act_spin_eps_zero_fixes_phi():
    fam = family_z3()
    c = spin_state(0, F2Vec.from_bits("101"))
    for m in spin_state_generators(fam)[: fam.d]:  # the H^1 basis vectors
        assert m.apply(c) == c


def test_act_spin_eps_one_translates():
    fam = family_z3()
    phi = F2Vec.from_bits("110")
    out = spin_state(1, phi)
    for j in (0, 1):
        out = spin_state_generators(fam)[j].apply(out)
    assert out == spin_state(1, F2Vec.zero(3))


def test_act_spin_identity_matrix_fixes():
    fam = family_custom("id", 3, [F2Mat.identity(3)])
    assert spin_state_generators(fam)[-1] == F2Mat.identity(4)


def test_act_spin_out_element():
    fam = family_z3()
    lift = spin_state_generators(fam)[fam.d]  # swaps the first two phi coordinates
    for eps in (0, 1):
        c = spin_state(eps, F2Vec.from_bits("100"))
        assert lift.apply(c) == spin_state(eps, F2Vec.from_bits("010"))


def test_act_spin_dimension_mismatch():
    fam = family_nil(3)
    with pytest.raises(DomainError):
        spin_state_generators(fam)[0].apply(spin_state(0, F2Vec.zero(3)))


@pytest.mark.parametrize("fam", [family_z3(), family_nil(2), family_nil(3)],
                         ids=lambda f: f.name)
def test_spin_state_orbits_are_vectors_with_eps_in_bit_0(fam):
    """spin_state_orbits are the Out-orbits on H_2, the orbit entries of the
    classify table; in the oracle's action on F2^(d+1), eps in bit 0, the
    eps = 1 states are one orbit and the eps = 0 orbits carry these phis."""
    parts = spin_state_orbits(fam)
    assert parts == orbits(fam.d, fam.out_generators)
    table = classify(fam, spin_w(fam), "smooth")
    assert [e.orbit for e in table.classes if e.kind == "orbit"] == [
        tuple(orbit) for orbit in parts]
    states = naive_orbits(fam.d + 1, spin_state_generators(fam))
    odd = [orbit for orbit in states if orbit[0].bit(0)]
    assert [sorted(v.bits for v in orbit) for orbit in odd] == [
        list(range(1, 2 << fam.d, 2))]
    assert [[F2Vec(fam.d, v.bits >> 1) for v in orbit]
            for orbit in states if not orbit[0].bit(0)] == parts


def _random_family(rng, d, k):
    """A family of k random invertible F2^d generators."""
    gens = []
    while len(gens) < k:
        m = F2Mat(d, tuple(rng.randrange(1 << d) for _ in range(d)))
        if m.is_invertible():
            gens.append(m)
    return family_custom("random", d, gens)


@settings(max_examples=40, deadline=None)
@given(d=st.integers(0, 7), k=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
       category=st.sampled_from(["smooth", "topological"]))
def test_spin_tables_match_the_state_action_oracle(d, k, seed, category):
    """Every spin table against the classes the oracle reads off the
    orbits of the full (phi, eps) action, in order; one odd class, last."""
    fam = _random_family(random.Random(seed), d, k)
    classes = list(classify(fam, F2Vec.zero(d), category).classes)
    assert classes == spin_state_table_oracle(fam)
    assert [e.kind for e in classes].count("odd") == 1
    assert classes[-1].kind == "odd"


def test_spin_tables_honour_the_cap(monkeypatch):
    # 2^21 spin states exceed the 2^20 default before any is built
    fam = family_custom("big", 20, [F2Mat.identity(20)])
    with pytest.raises(CapExceeded):
        classify(fam, F2Vec.zero(20), "smooth")
    monkeypatch.setenv("STABLE4_CAP", "8")
    with pytest.raises(CapExceeded):
        classify(family_z3(), spin_w(family_z3()), "smooth")
    monkeypatch.setenv("STABLE4_CAP", "16")
    assert len(classify(family_z3(), spin_w(family_z3()), "smooth").classes) == 3


def test_sentinels_survive_deepcopy():
    t = InvariantTuple(F2Vec.zero(3), 0, Parity.EVEN, TAU_UNKNOWN)
    copied = copy.deepcopy((t, INFINITY))
    assert copied[0].tau is TAU_UNKNOWN and copied[1] is INFINITY
    assert (repr(INFINITY), repr(TAU_UNKNOWN)) == ("infinity", "tau-unknown")


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


# A 4-cycle of the basis and one transvection generate GL_4(F2).
GL4 = (
    F2Mat.from_rows(["0100", "0010", "0001", "1000"]),
    F2Mat.from_rows(["1100", "0100", "0010", "0001"]),
)


@pytest.mark.parametrize(
    "fam",
    [family_z3(), family_nil(2), family_nil(4)] + [_seeded_d4_family(s) for s in (1, 2, 3)]
    + [family_custom("gl4", 4, GL4)],
    ids=lambda fam: fam.name,
)
def test_stabilizer_matches_the_transpose_filter(fam):
    # The first call closes the group and keeps the closure; every later
    # call, the second for each w included, filters the kept one, in the
    # kept order.
    closure = group_closure(fam.out_generators)
    by_rows = lambda m: m.rows
    for bits in range(1, 1 << fam.d):
        w = F2Vec(fam.d, bits)
        old = sorted((m for m in closure if m.transpose().apply(w) == w), key=by_rows)
        first = stabilizer_of_w(fam, w)
        assert sorted(first, key=by_rows) == old
        assert stabilizer_of_w(fam, w) == first


def test_stabilizer_is_a_new_list_on_every_call():
    fam, w = family_z3(), F2Vec.from_bits("100")
    first = stabilizer_of_w(fam, w)
    want = list(first)
    first.clear()
    second = stabilizer_of_w(fam, w)
    assert second == want
    second.append(F2Mat.identity(3))
    assert stabilizer_of_w(fam, w) == want


def _count_calls(monkeypatch, name: str = "group_closure") -> list:
    """The argument tuples of every call classify makes to its binding name."""
    calls = []
    module = importlib.import_module("stable4.classify")
    original = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


def test_classify_and_decide_close_the_group_once(monkeypatch):
    # decide walks a pair orbit: no closure and no stabilizer, spin or not.
    # classify closes the group once per family.
    closures = _count_calls(monkeypatch)
    stabilizers = _count_calls(monkeypatch, "stabilizer_of_w")
    fam, w = family_nil(2), F2Vec.from_bits("100")
    a = InvariantTuple(w, 8, Parity.EVEN, F2Vec.from_bits("010"))
    b = InvariantTuple(w, 8, Parity.EVEN, F2Vec.from_bits("011"))
    spin = InvariantTuple(spin_w(fam), 8, Parity.EVEN, F2Vec.from_bits("010"))
    decide_stable_equiv(a, b, "topological", fam)
    decide_stable_equiv(spin, spin, "topological", fam)
    assert closures == [] and stabilizers == []
    classify(fam, w, "smooth")
    classify(fam, F2Vec.from_bits("010"), "topological")
    decide_stable_equiv(a, b, "topological", fam)
    assert len(closures) == 1 and len(stabilizers) == 2
    classify(family_nil(2), w, "smooth")
    assert len(closures) == 2


def test_kept_closure_honours_a_lowered_cap(monkeypatch):
    fam, w = family_z3(), F2Vec.from_bits("100")
    assert len(stabilizer_of_w(fam, w)) == 24
    message = "group closure of 3 generators in dimension 3 exceeded cap 167"
    monkeypatch.setenv("STABLE4_CAP", "167")
    for call in (lambda: group_closure(fam.out_generators),
                 lambda: stabilizer_of_w(fam, w),
                 lambda: classify(fam, w, "smooth")):
        with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
            call()
    monkeypatch.setenv("STABLE4_CAP", "168")
    assert len(stabilizer_of_w(fam, w)) == 24


def test_a_closure_over_the_cap_is_not_kept(monkeypatch):
    calls = _count_calls(monkeypatch)
    fam, w = family_z3(), F2Vec.from_bits("100")
    monkeypatch.setenv("STABLE4_CAP", "167")
    with pytest.raises(CapExceeded):
        stabilizer_of_w(fam, w)
    monkeypatch.delenv("STABLE4_CAP")
    assert len(stabilizer_of_w(fam, w)) == 24
    assert len(stabilizer_of_w(fam, w)) == 24
    assert len(calls) == 2


def test_kept_closure_is_invisible():
    fam = family_nil(2)
    stabilizer_of_w(fam, F2Vec.from_bits("100"))
    t = InvariantTuple(F2Vec.from_bits("100"), 8, Parity.EVEN, F2Vec.from_bits("010"))
    assert decide_stable_equiv(t, t, "topological", fam)
    assert decide_stable_equiv(t, t, "topological", fam)
    assert not hasattr(fam, "_pair_generators")
    assert getattr(fam, "_closure", None) is not None
    fresh = family_nil(2)
    assert fam == fresh and fresh == fam
    assert hash(fam) == hash(fresh) and repr(fam) == repr(fresh)
    assert pickle.dumps(fam) == pickle.dumps(fresh)
    for clone in (pickle.loads(pickle.dumps(fam)), copy.deepcopy(fam), copy.copy(fam)):
        assert clone == fresh and hash(clone) == hash(fresh) and repr(clone) == repr(fresh)
        assert not hasattr(clone, "_closure")
        assert not hasattr(clone, "_pair_generators")


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


@pytest.mark.parametrize("shape", ["odd", "spin-even", "almost-spin-even"])
def test_decide_refuses_a_w_of_another_dimension(shape):
    def tuple_of(d):
        w = F2Vec(d, 1 if shape == "almost-spin-even" else 0)
        if shape == "odd":
            return InvariantTuple(w, 0, Parity.ODD, None)
        return InvariantTuple(w, 0, Parity.EVEN, F2Vec(d, 2))

    fam, short, good = family_z3(), tuple_of(2), tuple_of(3)
    for a, b, label in ((short, short, "a"), (good, short, "b")):
        message = f"tuple {label}: w has dimension 2, the family needs 3"
        with pytest.raises(DomainError, match=f"^{re.escape(message)}$"):
            decide_stable_equiv(a, b, "topological", fam)
    assert decide_stable_equiv(good, good, "topological", fam)


def test_dimension_messages_name_both_dimensions():
    fam, w = family_z3(), F2Vec.from_bits("10")
    for call in (lambda: stabilizer_of_w(fam, w), lambda: classify(fam, w, "smooth")):
        with pytest.raises(DomainError, match="^w has dimension 2, the family needs 3$"):
            call()
    t = InvariantTuple(F2Vec.from_bits("100"), 0, Parity.EVEN, F2Vec.from_bits("10"))
    with pytest.raises(DomainError, match="^tau has dimension 2, but w has dimension 3$"):
        decide_stable_equiv(t, t, "topological", fam)


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


@settings(max_examples=60, deadline=None)
@given(d=st.integers(1, 4), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_decide_matches_closure_and_filter(d, k, seed):
    """decide, for every tau_b, against tau_b in {rho tau_a : rho^T w = w}
    over the fixed-point closure, on groups small enough for that oracle."""
    rng = random.Random(seed)
    fam = _random_family(rng, d, k)
    closure = fixed_point_closure(fam.out_generators, cap=64)
    assume(closure is not None)
    w, tau_a = F2Vec(d, rng.randrange(1 << d)), F2Vec(d, rng.randrange(1 << d))
    reached = {rho.apply(tau_a).bits for rho in closure if rho.transpose().apply(w) == w}
    a = InvariantTuple(w, 0, Parity.EVEN, tau_a)
    for bits in range(1 << d):
        b = InvariantTuple(w, 0, Parity.EVEN, F2Vec(d, bits))
        assert decide_stable_equiv(a, b, "topological", fam) == (bits in reached)


@pytest.mark.parametrize("tau, size", [("1000", 120), ("0100", 105)])
def test_decide_walks_one_pair_orbit_under_the_orbit_cap(monkeypatch, tau, size):
    # GL_4(F2) carries (w, tau) to every (w', tau') with w' and tau' nonzero
    # and <w', tau'> = <w, tau>: 15 * 8 pairs when that is 1, 15 * 7 when 0.
    fam = family_custom("gl4", 4, GL4)
    t = InvariantTuple(F2Vec.from_bits("1000"), 0, Parity.EVEN, F2Vec.from_bits(tau))
    for cap in (size, 119, size - 1):
        monkeypatch.setenv("STABLE4_CAP", str(cap))
        if cap >= size:
            assert decide_stable_equiv(t, t, "topological", fam)
            continue
        message = f"orbit in dimension 8 reached {cap + 1} states, over the orbit cap {cap}"
        with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
            decide_stable_equiv(t, t, "topological", fam)


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
    message = f"d {d!r} is not an integer"
    with pytest.raises(InputError, match=re.escape(f"bad family JSON: {message}")):
        family_data_from_json(blob)
    with pytest.raises(InputError, match=f"^{re.escape(message)}$"):
        FamilyData("x", d, ())


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


# A parabolic subgroup of GL_4(F2) of order 1344; 192 of its elements fix
# w = 0100.
PARABOLIC = tuple(F2Mat(4, rows) for rows in ((7, 14, 4, 2), (3, 6, 12, 4), (15, 14, 8, 2)))


@settings(max_examples=40, deadline=None)
@given(d=st.integers(1, 4), k=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
def test_almost_spin_tables_match_closure_and_filter(d, k, seed):
    """Every almost-spin table against the orbits of {rho : rho^T w = w}
    over the fixed-point closure, on groups small enough for that oracle."""
    rng = random.Random(seed)
    fam = _random_family(rng, d, k)
    closure = fixed_point_closure(fam.out_generators, cap=64)
    assume(closure is not None)
    for bits in range(1, 1 << d):
        w = F2Vec(d, bits)
        for category in ("smooth", "topological"):
            table = classify(fam, w, category)
            want = stabilizer_orbits(closure, w, smooth=category == "smooth")
            assert [list(entry.orbit) for entry in table.classes] == want
            assert [entry.representative for entry in table.classes] == [o[0] for o in want]


@pytest.mark.parametrize(
    "fam",
    [family_z3(), family_nil(2), family_custom("parabolic", 4, PARABOLIC),
     family_custom("gl4", 4, GL4)],
    ids=lambda fam: fam.name,
)
def test_orbit_witnesses_fix_w_and_reach_each_vector_once(fam):
    for bits in range(1, 1 << fam.d):
        w = F2Vec(fam.d, bits)
        stab = stabilizer_of_w(fam, w)
        for category in ("smooth", "topological"):
            subset = (lambda v: w.dot(v) == 0) if category == "smooth" else None
            witnesses = _orbit_witnesses(fam.d, stab, subset)
            assert all(m.transpose().apply(w) == w for m in witnesses)
            # one witness per vector past each orbit's start: at most
            # 2^d - (#orbits), fewer when smooth
            table = classify(fam, w, category)
            reached = sum(len(entry.orbit) for entry in table.classes)
            assert len(witnesses) == reached - len(table.classes)


def _small_group_family(rng, d, k):
    """k random generators of a group small enough to list: any invertible
    matrices up to d = 3 (inside GL_3(F2), 168 elements), else conjugates
    g P g^-1 of permutation matrices by one random invertible g (at most
    6! elements)."""
    if d <= 3:
        return _random_family(rng, d, k)
    g = _random_family(rng, d, 1).out_generators[0]
    g_inverse = g.inverse()
    generators = []
    for _ in range(k):
        perm = rng.sample(range(d), d)
        generators.append(g @ F2Mat(d, tuple(1 << p for p in perm)) @ g_inverse)
    return family_custom("small", d, generators)


@settings(max_examples=100, deadline=None)
@given(d=st.integers(1, 6), k=st.integers(0, 3), seed=st.integers(0, 2**32 - 1))
def test_stabilizer_and_witnesses_match_the_row_loop_oracles(d, k, seed):
    """For every nonzero w, Stab(w) is the row-loop filter's list of the
    kept closure, element for element and in order, and in both categories
    the witnesses are those of the full pass with one popcount per row."""
    fam = _small_group_family(random.Random(seed), d, k)
    for bits in range(1, 1 << d):
        w = F2Vec(d, bits)
        stab = stabilizer_of_w(fam, w)
        assert stab == stabilizer_rows_loop(fam._closure, w)
        for subset in (lambda v: w.dot(v) == 0, None):
            assert _orbit_witnesses(d, stab, subset) == orbit_witnesses_full_pass(d, stab, subset)


@pytest.mark.parametrize("generators", [hand_gl3_generators(), (F2Mat(3, (2, 1, 4)),)],
                         ids=["gl3", "swap"])
def test_a_subset_left_before_the_stop_is_refused_as_before(generators):
    """A vector reached outside the subset turns the early stop off (GL_3,
    168 elements), and a group of at most 2^d elements never stops early
    (the swap of the first two coordinates): either way the witnesses are
    the full pass's, and `orbits` refuses them with the message it gave the
    full pass's list."""
    bad = lambda v: v.to_bits() in ("000", "100")  # not GL3-stable
    group = sorted(group_closure(generators), key=lambda m: m.rows)
    witnesses = _orbit_witnesses(3, group, bad)
    assert witnesses == orbit_witnesses_full_pass(3, group, bad)
    with pytest.raises(DomainError, match="^subset is not closed under generator 0: 100 -> "):
        orbits(3, witnesses, subset=bad)


def test_a_parabolic_table_hands_orbits_at_most_15_generators(monkeypatch):
    calls = _count_calls(monkeypatch, "orbits")
    fam, w = family_custom("parabolic", 4, PARABOLIC), F2Vec.from_bits("0100")
    assert len(stabilizer_of_w(fam, w)) == 192
    for category in ("smooth", "topological"):
        classify(fam, w, category)
    assert len(calls) == 2
    assert all(len(generators) <= 15 for _, generators in calls)


def test_the_orbit_cap_is_checked_before_the_witness_pass(monkeypatch):
    monkeypatch.delenv("STABLE4_CAP", raising=False)
    fam = family_custom("id21", 21, [F2Mat.identity(21)])
    message = "2^21 states exceed the orbit cap 1048576"
    start = time.process_time()
    with pytest.raises(CapExceeded, match=f"^{re.escape(message)}$"):
        classify(fam, F2Vec(21, 1), "topological")
    assert time.process_time() - start < 1.0


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
