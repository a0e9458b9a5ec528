"""The value records behave as the frozen dataclasses they replaced.

Each record is checked against its twin in oracles.RECORD_TWINS, a frozen
dataclass with the same fields and defaults: equality, hash and repr agree,
equality with another class is NotImplemented, fields cannot be assigned or
deleted, and copies and pickles come back equal.
"""

import copy
import dataclasses
import pickle
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import RECORD_TWINS, all_invertible, standard_symplectic, twin_of
from stable4.classify import (
    TAU_UNKNOWN,
    ClassEntry,
    ClassificationTable,
    FamilyData,
    InvariantTuple,
    family_custom,
    family_data_from_json,
)
from stable4.errors import CapExceeded, DomainError, InputError
from stable4.f2 import F2Mat, F2Vec, QuadraticFormF2, orbits
from stable4.forms import AugmentedForm, Parity, RingMatrix, hyperbolic_matrix
from stable4.models import HAN1, INFINITY
from stable4.words import FreeFamily, NilFamily, Presentation, Word, ZnFamily

CLASSES = {
    cls.__name__: cls
    for cls in (
        F2Vec, F2Mat, QuadraticFormF2, Word, FreeFamily, ZnFamily, NilFamily,
        Presentation, AugmentedForm, HAN1, FamilyData,
        ClassEntry, ClassificationTable, InvariantTuple,
    )
}
OWN_REPR = {"F2Vec", "F2Mat"}
Z3 = ZnFamily(3)


def test_every_record_has_a_twin():
    assert set(CLASSES) == set(RECORD_TWINS)


# ---------------------------------------------------------------------------
# Constructor arguments, drawn per class


def vecs(dim=None):
    dims = st.integers(0, 4) if dim is None else st.just(dim)
    return dims.flatmap(lambda d: st.builds(F2Vec, st.just(d), st.integers(0, (1 << d) - 1)))


def matrix_args(d):
    return st.tuples(st.just(d), st.tuples(*[st.integers(0, (1 << d) - 1)] * d))


letters = st.lists(
    st.tuples(st.integers(0, 2), st.sampled_from((-2, -1, 1, 2))), max_size=5
).map(tuple)


@st.composite
def presentation_args(draw):
    gens = ("a", "b", "c")[: draw(st.integers(1, 3))]
    rel = st.lists(
        st.tuples(st.integers(0, len(gens) - 1), st.sampled_from((-1, 1, 2))), max_size=4
    ).map(lambda ls: Word(tuple(ls)))
    return gens, tuple(draw(st.lists(rel, max_size=3)))


@st.composite
def form_args(draw):
    n = draw(st.integers(1, 3))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(st.integers(-2, 2))
    return draw(st.integers(0, 1)), RingMatrix.from_int_rows(Z3, rows)


EVEN_FORMS = (
    AugmentedForm(1, hyperbolic_matrix(Z3)),
    AugmentedForm(1, RingMatrix.from_int_rows(Z3, [[2, 1], [1, 0]])),
)


@st.composite
def han1_args(draw):
    w = draw(st.sampled_from((INFINITY, F2Vec(3, 0), F2Vec(3, 6))))
    form = draw(st.sampled_from(EVEN_FORMS))
    notes = draw(st.sampled_from(("", "P + 1 E8")))
    if w is INFINITY:
        return w, draw(st.integers(-9, 9)), form, None, notes
    tau = draw(st.none() | vecs(3))
    return w, 8 * draw(st.integers(-2, 2)), form, tau, notes


INVERTIBLE = {d: all_invertible(d) for d in (1, 2, 3)}


@st.composite
def family_data_args(draw):
    d = draw(st.integers(1, 3))
    gens = draw(st.lists(st.sampled_from(INVERTIBLE[d]), max_size=2))
    name = draw(st.sampled_from(("z3", "nil:2")))
    return name, d, tuple(gens)


class_entries = st.builds(
    ClassEntry,
    st.sampled_from(("orbit", "odd", "signature-only")),
    st.none() | vecs(2),
    st.lists(vecs(2), max_size=3).map(tuple),
)
ws = st.just(INFINITY) | vecs(2)

ARGS = {
    "F2Vec": st.integers(0, 4).flatmap(
        lambda d: st.tuples(st.just(d), st.integers(0, (1 << d) - 1))),
    "F2Mat": st.integers(0, 3).flatmap(matrix_args),
    "QuadraticFormF2": st.integers(1, 2).flatmap(
        lambda g: st.tuples(st.just(standard_symplectic(g)), vecs(2 * g))),
    "Word": st.tuples(letters),
    "FreeFamily": st.tuples(
        st.lists(st.sampled_from(("a", "x", "y", "g1")), min_size=1, max_size=3,
                 unique=True).map(tuple)),
    "ZnFamily": st.tuples(st.integers(1, 4)),
    "NilFamily": st.tuples(st.integers(1, 4)),
    "Presentation": presentation_args(),
    "AugmentedForm": form_args(),
    "HAN1": han1_args(),
    "FamilyData": family_data_args(),
    "ClassEntry": st.tuples(
        st.sampled_from(("orbit", "odd")), st.none() | vecs(2),
        st.lists(vecs(2), max_size=3).map(tuple)),
    "ClassificationTable": st.tuples(
        ws, st.sampled_from(("smooth", "topological")), st.sampled_from((1, 8, 16)),
        st.lists(class_entries, min_size=1, max_size=3).map(tuple),
        st.sampled_from(("none", "sigma/8")), st.sampled_from(("", "z3"))),
    "InvariantTuple": st.tuples(
        ws, st.integers(-16, 16), st.sampled_from((None, Parity.EVEN, Parity.ODD)),
        st.sampled_from((None, TAU_UNKNOWN)) | vecs(2)),
}
NAMES = sorted(ARGS)


def field_names(name):
    return [f.name for f in dataclasses.fields(RECORD_TWINS[name])]


def hash_or_type_error(x):
    try:
        return hash(x)
    except TypeError:
        return TypeError


# ---------------------------------------------------------------------------
# Properties


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_equality_hash_and_repr_match_the_twin(name, data):
    cls = CLASSES[name]
    a, b = data.draw(ARGS[name]), data.draw(ARGS[name])
    ra, rb = cls(*a), cls(*b)
    ta, tb = twin_of(ra), twin_of(rb)
    assert ra == cls(*a)
    assert (ra == rb) == (ta == tb)
    assert (ra != rb) == (ta != tb)
    assert hash_or_type_error(ra) == hash_or_type_error(ta)
    if name in OWN_REPR:
        assert repr(ra) == f"{name}({(ra.to_rows() if name == 'F2Mat' else ra.to_bits())!r})"
    else:
        assert repr(ra) == repr(ta)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_equality_with_another_class_is_not_implemented(name, data):
    r = CLASSES[name](*data.draw(ARGS[name]))
    other_name = data.draw(st.sampled_from([n for n in NAMES if n != name]))
    other = CLASSES[other_name](*data.draw(ARGS[other_name]))
    for foreign in (twin_of(r), other):
        assert r.__eq__(foreign) is NotImplemented
        assert r != foreign
        assert not r == foreign


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_fields_cannot_be_assigned_or_deleted(name, data):
    r = CLASSES[name](*data.draw(ARGS[name]))
    before = twin_of(r)
    for field in field_names(name):
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(r, field, getattr(r, field))
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(r, field)
    with pytest.raises(AttributeError):
        r.extra = 1
    assert twin_of(r) == before


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_copy_deepcopy_and_pickle_round_trip(name, data):
    r = CLASSES[name](*data.draw(ARGS[name]))
    for clone in (copy.copy(r), copy.deepcopy(r), pickle.loads(pickle.dumps(r))):
        assert type(clone) is type(r)
        assert clone == r
        assert twin_of(clone) == twin_of(r)


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_keyword_construction_matches_positional(name, data):
    args = data.draw(ARGS[name])
    kwargs = dict(zip(field_names(name), args, strict=True))
    assert twin_of(CLASSES[name](**kwargs)) == twin_of(CLASSES[name](*args))


def test_defaults():
    assert Word() == Word(()) and Word().letters == ()
    # a family file may carry a "notes" entry, which is ignored
    fam = family_data_from_json({"name": "f", "d": 1, "out_generators": [["1"]],
                                 "notes": "n"})
    assert twin_of(fam) == RECORD_TWINS["FamilyData"]("f", 1, (F2Mat.identity(1),))
    w, form = F2Vec.zero(3), EVEN_FORMS[0]
    h = HAN1(w=w, signature=0, form=form)
    assert (h.tau, h.notes) == (None, "")
    assert h == HAN1(w, 0, form, None, "")
    entry = ClassEntry("odd")
    assert (entry.representative, entry.orbit) == (None, ())
    assert ClassificationTable(INFINITY, "smooth", 1, (entry,), "none").family_name == ""
    assert InvariantTuple(INFINITY, 3, None).tau is None


def test_hash_is_the_field_tuple_hash():
    """Sets and dicts of records iterate in the order they did as dataclasses.

    Record gives every record its equality and hash; none writes its own."""
    v = F2Vec(3, 5)
    m = F2Mat(2, (1, 2))
    assert hash(v) == hash((3, 5))
    assert hash(m) == hash((2, (1, 2)))
    assert hash(Word(((0, 1),))) == hash((((0, 1),),))
    assert hash(NilFamily(2)) == hash((2,))
    assert hash(FreeFamily(("x", "y"))) == hash((("x", "y"),))
    assert hash(ZnFamily(3)) == hash((3,))
    # Products are built past the constructors, and hash the same way.
    product = F2Mat(2, (2, 1)) @ m
    assert hash(product) == hash((2, product.rows)) == hash(F2Mat(2, (2, 1)))
    assert hash(Word(((0, 2),)) * Word(((1, 1),))) == hash((((0, 2), (1, 1)),))
    entry = ClassEntry("orbit", v, (v,))
    assert hash(entry) == hash(("orbit", v, (v,)))
    for cls in CLASSES.values():
        for method in (cls.__eq__, cls.__hash__, cls.__reduce__):
            assert method.__qualname__.startswith("Record.__init_subclass__"), cls


@pytest.mark.parametrize("n", [1, 3, 200])
def test_zn_names_are_built_once_outside_the_fields(n):
    fam = ZnFamily(n)
    assert fam.rank == n and "_names" not in vars(fam)
    assert fam.generators is fam.generators
    # Pickles and copies, even of a family whose names were read, build none.
    for clone in (pickle.loads(pickle.dumps(fam)), copy.deepcopy(fam), copy.copy(fam)):
        assert "_names" not in vars(clone)
    assert fam.generators == tuple(f"g{i + 1}" for i in range(n))
    assert ZnFamily._fields == ("n",)
    assert fam == ZnFamily(n) and fam != ZnFamily(n + 1)
    assert hash(fam) == hash((n,)) and repr(fam) == f"ZnFamily(n={n})"
    assert fam.__reduce__() == (ZnFamily, (n,))
    for clone in (pickle.loads(pickle.dumps(fam)), copy.deepcopy(fam), copy.copy(fam)):
        assert clone == fam and clone.generators == fam.generators


def test_zn_names_read_back_as_g1_to_gn():
    fam = ZnFamily(10**5)
    assert fam.gen_index("g1") == 0 and fam.gen_index("g100000") == 99999
    assert fam.generators == tuple(f"g{i}" for i in range(1, 10**5 + 1))
    assert fam.element_str(fam.shift(fam.identity(), 99999, -2)) == "g100000^-2"


SLOTTED = {
    F2Vec: (F2Vec(3, 5), ("dim", "bits")),
    F2Mat: (F2Mat(2, (1, 3)), ("dim", "rows", "_product_table")),
    Word: (Word(((0, 2), (1, -1))), ("letters",)),
}


@pytest.mark.parametrize("cls", list(SLOTTED), ids=lambda cls: cls.__name__)
def test_bulk_records_are_slotted(cls):
    record, slots = SLOTTED[cls]
    assert cls.__slots__ == slots
    assert not hasattr(record, "__dict__")
    for field in cls._fields:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{field}'"):
            setattr(record, field, getattr(record, field))
        with pytest.raises(AttributeError, match=f"cannot delete field '{field}'"):
            delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    with pytest.raises(AttributeError):
        object.__setattr__(record, "extra", 1)


def test_matrix_rows_are_stored_as_a_tuple():
    m = F2Mat(2, [1, 2])
    assert m.rows == (1, 2) and isinstance(m.rows, tuple)
    assert m == F2Mat(2, (1, 2)) and hash(m) == hash((2, (1, 2)))
    assert F2Mat(3, iter((1, 2, 4))) == F2Mat.identity(3)


def _checked(v):
    """v rebuilt through the checking constructor."""
    return F2Vec(v.dim, v.bits)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 4).flatmap(
    lambda d: st.tuples(matrix_args(d), st.integers(0, (1 << d) - 1),
                        st.integers(0, (1 << d) - 1))))
def test_trusted_vectors_equal_the_checked_ones(case):
    (d, rows), x, y = case
    m, u, v = F2Mat(d, rows), F2Vec(d, x), F2Vec(d, y)
    derived = [m.apply(u), u ^ v]
    derived += [w for orbit in orbits(d, [F2Mat.identity(d), m] if m.is_invertible()
                                      else [F2Mat.identity(d)]) for w in orbit]
    for w in derived:
        checked = _checked(w)
        assert type(w) is F2Vec and w == checked and checked == w
        assert hash(w) == hash(checked) == hash((w.dim, w.bits))
        assert repr(w) == repr(checked)
        assert pickle.dumps(w) == pickle.dumps(checked)


def test_family_data_stores_its_generators_as_a_tuple():
    fam = FamilyData("x", 2, [F2Mat.identity(2)])
    assert fam.out_generators == (F2Mat.identity(2),)
    assert fam == FamilyData("x", 2, (F2Mat.identity(2),))
    assert hash(fam) == hash(("x", 2, (F2Mat.identity(2),)))
    assert FamilyData("x", 2, iter([F2Mat.identity(2)])) == fam


# ---------------------------------------------------------------------------
# Validation messages


def _qf(rows, values):
    return QuadraticFormF2(F2Mat(len(rows), rows), F2Vec(len(rows), values))


ODD_FORM = AugmentedForm(1, RingMatrix.from_int_rows(Z3, [[1, 1], [1, 0]]))

VALIDATION = [
    (lambda: F2Vec(3, 8), InputError, "bits 0x8 out of range for dim 3"),
    (lambda: F2Vec(-1, 0), InputError, "bits 0x0 out of range for dim -1"),
    (lambda: F2Mat(2, (1,)), InputError, "matrix of dimension 2 needs 2 rows, got 1"),
    (lambda: F2Mat(2, (1, 4)), InputError, "matrix row 1 bits 0x4 out of range for dim 2"),
    (lambda: F2Vec(3, 1.0), InputError, "vector bits 1.0 are not an integer"),
    (lambda: F2Vec(3, True), InputError, "vector bits True are not an integer"),
    (lambda: F2Vec(True, 1), InputError, "vector dimension True is not an integer"),
    (lambda: F2Vec("3", 1), InputError, "vector dimension '3' is not an integer"),
    (lambda: F2Mat("2", (1, 2)), InputError, "matrix dimension '2' is not an integer"),
    (lambda: F2Mat(2.0, (1, 2)), InputError, "matrix dimension 2.0 is not an integer"),
    (lambda: F2Mat(2, (1.0, 2)), InputError, "matrix row 0 is 1.0, not an integer"),
    (lambda: F2Mat(2, (1, True)), InputError, "matrix row 1 is True, not an integer"),
    (lambda: F2Mat(2, 3), InputError, "matrix rows 3 are not a sequence"),
    (lambda: Word((("a", 1),)), InputError, "generator index 'a' is not an integer"),
    (lambda: Word(((True, 1),)), InputError, "generator index True is not an integer"),
    (lambda: Word(((0, 1.5),)), InputError, "exponent 1.5 is not an integer"),
    (lambda: Word(((0, 1), (1, False))), InputError, "exponent False is not an integer"),
    (lambda: QuadraticFormF2(standard_symplectic(1), F2Vec(3, 0)), InputError,
     "value vector dimension must match the bilinear form"),
    (lambda: _qf((1, 0), 0), DomainError,
     "bilinear part must be alternating (zero diagonal)"),
    (lambda: _qf((2, 0), 0), DomainError, "bilinear part must be symmetric over GF(2)"),
    (lambda: _qf((0, 0), 0), DomainError, "bilinear part must be nondegenerate"),
    (lambda: Word(((-1, 2),)), InputError, "negative generator index -1"),
    (lambda: ZnFamily(0), DomainError, "Zn family needs n >= 1"),
    (lambda: ZnFamily(10**8), CapExceeded, "Zn family rank 100000000 is over the cap 1000000"),
    (lambda: FreeFamily(("x", "x")), InputError, "duplicate generator 'x'"),
    (lambda: FreeFamily(("1", "x")), InputError, "bad generator name '1'"),
    (lambda: NilFamily(0), DomainError, "Nil family needs z >= 1"),
    (lambda: Presentation(("a", "a"), ()), InputError, "duplicate generator 'a'"),
    (lambda: Presentation(("a b",), ()), InputError, "bad generator name 'a b'"),
    (lambda: Presentation(("a",), (Word(((1, 1),)),)), InputError,
     "relator references an undeclared generator"),
    (lambda: AugmentedForm(2, hyperbolic_matrix(Z3)), DomainError,
     "epsilon must be 0 or 1"),
    (lambda: AugmentedForm(1, RingMatrix(Z3, [])), DomainError,
     "matrix too small for the Ipi summand"),
    (lambda: AugmentedForm(0, RingMatrix.from_int_rows(Z3, [[0, 1], [0, 0]])),
     DomainError,
     "matrix is not hermitian: entry (0, 1) is 1 but entry (1, 0) is zero, not its conjugate"),
    (lambda: HAN1("0", 0, ODD_FORM), DomainError, "w must be an F2 vector or INFINITY"),
    (lambda: HAN1(F2Vec(3, 0), 4, ODD_FORM), DomainError,
     "signature 4 is not divisible by 8, as topological signatures of w-type 000 are"),
    (lambda: HAN1(F2Vec(3, 0), 0, EVEN_FORMS[0], F2Vec(2, 0)), DomainError,
     "tau has dimension 2, but w has dimension 3"),
    (lambda: HAN1(F2Vec(3, 0), 0, ODD_FORM, F2Vec(3, 0)), DomainError,
     "odd tuples carry no tau"),
    (lambda: HAN1(F2Vec.from_bits("100"), 8, ODD_FORM), DomainError,
     "almost-spin intersection forms are even"),
    (lambda: HAN1(INFINITY, 1, ODD_FORM, F2Vec(3, 0)), DomainError,
     "totally non-spin tuples carry only a signature"),
    (lambda: FamilyData("f", 3, (F2Mat.identity(2),)), DomainError,
     "generator 0 has dimension 2, expected 3"),
    (lambda: FamilyData("f", 2, (F2Mat.identity(2), F2Mat(2, (1, 1)))), DomainError,
     "generator 1 is not invertible"),
    (lambda: FamilyData("f", -1, ()), DomainError, "d -1 is negative"),
    (lambda: FamilyData(7, 2, ()), InputError, "family name 7 is not a string"),
    (lambda: family_custom("p", 4, [(7, 14, 4, 2)]), InputError,
     "generator 0 is (7, 14, 4, 2), not an F2 matrix"),
    (lambda: ClassificationTable(INFINITY, "smooth", 1, (), "none"), DomainError,
     "a classification table cannot be empty"),
]


@pytest.mark.parametrize("build, error, message", VALIDATION,
                         ids=[message for _, _, message in VALIDATION])
def test_validation_messages(build, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        build()
