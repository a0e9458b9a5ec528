"""Stable classification invariants of closed oriented 4-manifolds whose
fundamental group is an aspherical 3-manifold group."""

from .classify import (
    ClassificationTable,
    FamilyData,
    InvariantTuple,
    classify,
    decide_stable_equiv,
    family_custom,
    family_nil,
    family_z3,
    invariants_of,
    ks,
)
from .errors import CapExceeded, DomainError, InputError
from .f2 import F2Mat, F2Vec, QuadraticFormF2, arf, group_closure, orbits, symplectic_basis
from .forms import (
    AugmentedForm,
    Parity,
    RingMatrix,
    direct_sum,
    e8_block,
    parity,
    restrict_to_Ipi,
    signature_int,
)
from .groupring import RingElem, augmentation, in_image_one_plus_T
from .models import (
    HAN1,
    INFINITY,
    model_M_sigma,
    model_N_almost_spin,
    model_P,
    realize_form,
)
from .words import (
    FreeFamily,
    NilFamily,
    Presentation,
    Word,
    ZnFamily,
    fox_derivative,
    normalize,
    parse_word,
)

__version__ = "0.1.0"
