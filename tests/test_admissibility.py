"""One admissibility rule: realize_form, check_invariants and the tables agree.

For z3 and nil:1..4, every w (0, each nonzero vector, infinity), the three
category names, signatures -24..24 in steps of 4, parity None/even/odd and
tau None/each vector, the tuple is checked three ways:

* the classification table says whether it exists: the signature is a
  multiple of the table's stride, and (parity, tau) is the table's odd class
  or an even class whose tau lies in one of its orbits;
* ``check_invariants`` refuses exactly the tuples the table lacks, both as
  given and after realize_form's almost-spin defaults;
* ``realize_form`` refuses exactly where ``check_invariants`` does (after
  its almost-spin defaults: parity even, tau 0), plus the almost-spin
  targets with nonzero tau, which it documents as not constructed; what it
  builds has the target's invariants.
"""

import itertools

import pytest

from stable4.classify import InvariantTuple, builtin_data, classify, invariants_of
from stable4.errors import DomainError
from stable4.f2 import F2Vec
from stable4.forms import Parity
from stable4.models import INFINITY, check_invariants, h2_dimension, realize_form
from stable4.words import NilFamily, ZnFamily

FAMILIES = [ZnFamily(3)] + [NilFamily(z) for z in range(1, 5)]
CATEGORIES = ("smooth", "topological", "top")
SIGNATURES = range(-24, 25, 4)
PARITIES = (None, Parity.EVEN, Parity.ODD)


def _in_table(table, signature, parity, tau) -> bool:
    """Whether the classification table has a class with these invariants."""
    if signature % table.signature_stride:
        return False
    if table.w is INFINITY:
        return parity is None and tau is None
    if parity is Parity.ODD:
        return tau is None and any(e.kind == "odd" for e in table.classes)
    return parity is Parity.EVEN and any(
        e.kind == "orbit" and tau in e.orbit for e in table.classes)


def _refuses(call) -> bool:
    try:
        call()
    except DomainError:
        return True
    return False


@pytest.mark.parametrize("family", FAMILIES, ids=repr)
def test_realize_check_invariants_and_tables_agree(family):
    d = h2_dimension(family)
    vectors = [F2Vec(d, bits) for bits in range(1 << d)]
    built = 0
    for w, category in itertools.product(vectors + [INFINITY], CATEGORIES):
        almost_spin = w is not INFINITY and not w.is_zero
        table = classify(builtin_data(family), w, category)
        for target in itertools.product([w], SIGNATURES, PARITIES, [None] + vectors):
            _, signature, parity, tau = target
            if almost_spin:  # realize_form's defaults
                parity = Parity.EVEN if parity is None else parity
                tau = F2Vec.zero(d) if tau is None else tau
            for _, s, p, t in (target, (w, signature, parity, tau)):
                checked = not _refuses(lambda: check_invariants(w, s, p, t, category, d))
                assert checked == _in_table(table, s, p, t), ((w, s, p, t), category)
            exists = _in_table(table, signature, parity, tau)
            try:
                h = realize_form(family, *target, category=category)
            except DomainError:
                assert not exists or (almost_spin and not tau.is_zero), (target, category)
                continue
            assert exists, (target, category)
            assert invariants_of(h, category) == InvariantTuple(w, signature, parity, tau)
            assert signature % table.signature_stride == 0
            built += 1
    assert built > 0
