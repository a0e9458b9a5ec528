"""Model intersection-form data for the classification.

Builds the invariant package of a 4-manifold (its w-type, signature,
equivariant intersection form on Ipi + free, and -- when defined -- the
order-one intersection class in H_2(Bpi; Z/2)) for the standard models:

* ``model_M_sigma``      -- surgery on X x S^1; extension matrix [[s,1],[1,0]].
* ``model_P``            -- surgery on a doubled twisted model; the even
                            representatives, with a Fox-derivative block
                            controlled by a homomorphism pi -> Z/2.
* ``model_N_almost_spin``-- the null-bordant circle-bundle surgery, hyperbolic.
* ``realize_form``       -- the complete realization list per w-type.

It also states, once, which (w, signature, parity, tau) exist in a category
(``check_invariants``, with ``signature_stride``, ``check_w`` and the category
names): realize_form, the classification tables, the pairwise decision and
the Kirby-Siebenmann invariant in ``classify`` all read the rule from here.

The H_2 coordinates identify H_2(Bpi;Z/2) with Hom(pi,Z/2).  Everything the
F2 side of a built-in family needs comes from one ``BuiltinFamily`` record per
family (``builtin_family``): its square presentation, the generators whose
values are the coordinates -- (g1, g2, g3) for Z^3; (x, y) for nil:z with z
odd and (x, y, a) with z even, the torsion coordinate last -- and automorphisms
given as generator images, whose pullbacks are the Out(pi)-image that
``classify.family_z3``/``family_nil`` use.
"""

from __future__ import annotations

import enum
import functools
from collections.abc import Sequence

from .errors import CapExceeded, DomainError, InputError, as_int, is_int
from .f2 import F2Mat, F2Vec, configured_cap
from .forms import (
    AugmentedForm,
    Parity,
    RingMatrix,
    e8_block,
    form_from_json,
    form_to_json,
    hyperbolic_matrix,
    identity_block,
    parity,
)
from .groupring import RingElem
from .records import Record
from .words import (
    GroupFamily,
    NilFamily,
    Presentation,
    Word,
    ZnFamily,
    check_fox_derivative,
    fox_derivative,
    parse_word,
    word_to_str,
)


class Sentinel(enum.Enum):
    """The marker values of the rule, kept by copy and pickle."""

    INFINITY = "infinity"  # the totally non-spin w-type
    TAU_UNKNOWN = "tau-unknown"  # an even form's tau with no model provenance

    def __repr__(self) -> str:
        return self.value


INFINITY, TAU_UNKNOWN = Sentinel.INFINITY, Sentinel.TAU_UNKNOWN


# ---------------------------------------------------------------------------
# Admissibility: which (w, signature, parity, tau) exist in a category

SMOOTH = "smooth"
TOPOLOGICAL = "topological"
_CATEGORIES = {SMOOTH: SMOOTH, TOPOLOGICAL: TOPOLOGICAL, "top": TOPOLOGICAL}


def normalize_category(category: str) -> str:
    try:
        return _CATEGORIES[category]
    except (KeyError, TypeError):
        raise InputError(f"unknown category {category!r}") from None


def signature_stride(w, category: str) -> int:
    """Signatures of the w-type come in multiples of this: 1 for totally
    non-spin, 16 for smooth spin (Rochlin), 8 otherwise."""
    if w is INFINITY:
        return 1
    return 16 if w.is_zero and normalize_category(category) == SMOOTH else 8


def check_w(w, d: int | None = None, name: str = "w"):
    """w itself if it is an F2 vector of dimension d (any dimension when d is
    None) or, under the name "w", INFINITY.  gamma, tau and H_2 vectors are
    checked here under their own names."""
    if w is INFINITY and name == "w":
        return w
    if not isinstance(w, F2Vec):
        raise DomainError(f"{name} must be an F2 vector" + " or INFINITY" * (name == "w"))
    if d is not None and w.dim != d:
        raise DomainError(f"{name} has dimension {w.dim}, the family needs {d}")
    return w


def check_invariants(w, signature: int, parity: Parity | None, tau, category: str,
                     d: int | None = None) -> None:
    """Refuse a (w, signature, parity, tau) that no manifold of the category
    has.

    w is INFINITY or an F2 vector of dimension d.  Totally non-spin types
    carry a signature only.  Otherwise the parity is given, the signature is
    a multiple of ``signature_stride``, almost-spin forms are even, odd forms
    carry no tau, and an even form carries a tau of w's dimension (or
    TAU_UNKNOWN) that pairs to zero with w in the smooth category.  A
    signature that is not an int (a bool is not one) and a parity that is
    neither None nor a Parity raise InputError.
    """
    as_int(signature, "signature")
    if parity is not None and not isinstance(parity, Parity):
        raise InputError(f"parity {parity!r} is not a Parity or None")
    category = normalize_category(category)
    if check_w(w, d) is INFINITY:  # any signature: the stride is 1
        if parity is not None or tau is not None:
            raise DomainError("totally non-spin tuples carry only a signature")
        return
    if parity is None:
        raise DomainError("spin-cover tuples need a parity")
    stride = signature_stride(w, category)
    if signature % stride:
        raise DomainError(f"signature {signature} is not divisible by {stride}, as "
                          f"{category} signatures of w-type {w.to_bits()} are")
    if parity is Parity.ODD:
        if not w.is_zero:
            raise DomainError("almost-spin intersection forms are even")
        if tau is not None:
            raise DomainError("odd tuples carry no tau")
    elif tau is not TAU_UNKNOWN:
        if not isinstance(tau, F2Vec):
            raise DomainError("even tuples need a tau class")
        if tau.dim != w.dim:
            raise DomainError(f"tau has dimension {tau.dim}, but w has dimension {w.dim}")
        if category == SMOOTH and w.dot(tau):
            raise DomainError("smooth almost-spin classes pair to zero with w; "
                              "this tuple is only realizable topologically")


def parity_and_tau(w, form: AugmentedForm, tau):
    """The (parity, tau) of a model with w-type w, as check_invariants reads
    them: (None, tau) for INFINITY; otherwise the parity of the form, with
    TAU_UNKNOWN for an even form that has no tau."""
    if w is INFINITY:
        return None, tau
    p = parity(form)
    return p, TAU_UNKNOWN if p is Parity.EVEN and tau is None else tau


class HAN1(Record):
    """Hermitian augmented normal 1-type: (family, w, signature, form, tau).

    ``w`` is an element of H^2(Bpi;Z/2) (zero meaning spin) or INFINITY for
    totally non-spin.  ``tau`` is present only when the form is even and the
    model provenance pins it down; it is always absent for odd forms.  An
    almost-spin (nonzero w) form is even.  ``check_invariants`` decides what
    is admissible, in the topological category, reading the parity and tau
    of ``parity_and_tau``; the parity is computed once unless w is INFINITY.
    """

    w: object
    signature: int
    form: AugmentedForm
    tau: F2Vec | None
    notes: str

    def __init__(self, w, signature: int, form: AugmentedForm,
                 tau: F2Vec | None = None, notes: str = "") -> None:
        if not isinstance(form, AugmentedForm):
            raise InputError(f"form {form!r} is not an AugmentedForm")
        check_invariants(w, signature, *parity_and_tau(check_w(w), form, tau), TOPOLOGICAL)
        self.__dict__.update(w=w, signature=signature, form=form, tau=tau, notes=notes)

    @property
    def family(self) -> GroupFamily:
        return self.form.family


# ---------------------------------------------------------------------------
# The built-in families: one record each


class BuiltinFamily(Record):
    """What the F2 side of a built-in ring family is derived from.

    ``name`` is the label FamilyData prints; ``presentation`` is square;
    ``coords`` are the generators whose Z/2 values are the H_2 coordinates
    (every homomorphism pi -> Z/2 kills the others).  Each of ``images`` is
    an automorphism, given by the generators' image words; the constructor
    checks that it sends every relator to the identity.
    """

    name: str
    ring: GroupFamily
    presentation: Presentation
    coords: tuple[int, ...]
    images: tuple[tuple[Word, ...], ...]

    def __init__(self, name, ring, presentation, coords, images) -> None:
        for k, image in enumerate(images):
            for rel in presentation.relators:
                if _image_of(ring, rel, image) != ring.identity():
                    raise DomainError(
                        f"automorphism {k} does not send the relator "
                        f"{word_to_str(rel, ring.generators)} to the identity"
                    )
        self.__dict__.update(name=name, ring=ring, presentation=presentation,
                             coords=coords, images=images)

    def out_generators(self) -> tuple[F2Mat, ...]:
        """The automorphisms pulled back to H_2, less the identity and repeats.

        Row k of the matrix of alpha holds, mod 2, the exponent sum of each
        coordinate generator in alpha(g_coords[k]); applied to the
        coordinates of gamma it gives those of gamma o alpha.
        """
        mats = [F2Mat.identity(len(self.coords))]
        for image in self.images:
            rows = tuple(
                sum((sum(e for g, e in image[k].letters if g == c) & 1) << i
                    for i, c in enumerate(self.coords))
                for k in self.coords
            )
            m = F2Mat(len(rows), rows)
            if m not in mats:
                mats.append(m)
        return tuple(mats[1:])


def _image_of(ring: GroupFamily, word: Word, image: Sequence[Word]):
    """Where the automorphism with these generator images sends the word."""
    letters: list = []
    for gen, exp in word.letters:
        piece, k = (image[gen] if exp > 0 else image[gen].inverse()).letters, abs(exp)
        # (g^e)^k is the one letter g^(ek), however large k is
        letters.extend(((piece[0][0], piece[0][1] * k),) if len(piece) == 1 else piece * k)
    return ring.evaluate(letters)


_Z3_RELATORS = ("g1 g2 g1^-1 g2^-1", "g1 g3 g1^-1 g3^-1", "g2 g3 g2^-1 g3^-1")
# a transposition, the 3-cycle and a transvection: GL_3(Z) -> GL_3(F2) is onto
_Z3_IMAGES = (("g2", "g1", "g3"), ("g2", "g3", "g1"), ("g1 g2", "g2", "g3"))
# swap x and y (inverting a), then multiply x by y, x by a and y by a
_NIL_IMAGES = (("a^-1", "y", "x"), ("a", "x y", "y"), ("a", "x a", "y"), ("a", "x", "y a"))


@functools.cache
def builtin_family(ring: GroupFamily) -> BuiltinFamily:
    """The record of z3 or nil:z: the one place that tells them apart."""
    if isinstance(ring, ZnFamily) and ring.n == 3:
        name, relators, coords, images = "z3", _Z3_RELATORS, (0, 1, 2), _Z3_IMAGES
    elif isinstance(ring, NilFamily):
        name, images = f"nil:{ring.z}", _NIL_IMAGES
        relators = ("x a x^-1 a^-1", "y a y^-1 a^-1", f"x y x^-1 y^-1 a^-{ring.z}")
        coords = (1, 2) if ring.z % 2 else (1, 2, 0)
    else:
        raise DomainError(f"no built-in H_2 data for family {ring!r}")
    parse = lambda texts: tuple(parse_word(t, ring.generators) for t in texts)
    pres = Presentation(ring.generators, parse(relators))
    return BuiltinFamily(name, ring, pres, coords, tuple(map(parse, images)))


def h2_dimension(family: GroupFamily) -> int:
    """dim H_2(Bpi; Z/2) for the built-in aspherical families."""
    return len(builtin_family(family).coords)


def _check_homomorphism(pres: Presentation, bits: Sequence[int]) -> None:
    """Bits on the generators define pi -> Z/2 iff each relator has even weight."""
    for rel in pres.relators:
        if sum(exp * bits[gen] for gen, exp in rel.letters) % 2:
            raise DomainError(
                "gamma does not define a homomorphism: relator "
                f"{word_to_str(rel, pres.generators)} has odd gamma-weight"
            )


def hom_bits_to_h2(family: GroupFamily, bits: Sequence[int]) -> F2Vec:
    """Coordinates of a homomorphism pi -> Z/2 given on the generators."""
    bits = _gamma_bits(family, bits)
    record = builtin_family(family)
    _check_homomorphism(record.presentation, bits)
    return F2Vec(len(record.coords), sum(bits[g] << i for i, g in enumerate(record.coords)))


def h2_to_hom_bits(family: GroupFamily, v: F2Vec) -> tuple[int, ...]:
    """Inverse of hom_bits_to_h2, in generator order."""
    coords = builtin_family(family).coords
    check_w(v, len(coords), "H_2 vector")
    return tuple(v.bit(coords.index(g)) if g in coords else 0
                 for g in range(family.rank))


def builtin_presentation(family: GroupFamily) -> Presentation:
    """The standard square presentation used by the surgery models."""
    return builtin_family(family).presentation


def fox_jacobian(pres: Presentation, family: GroupFamily) -> list[list[RingElem]]:
    """Matrix of Fox derivatives D_k R_i (rows: relators, columns: gens)."""
    _check_fox_jacobian(pres, family)
    return [
        [fox_derivative(rel, k, family) for k in range(family.rank)]
        for rel in pres.relators
    ]


def _check_fox_jacobian(pres: Presentation, family: GroupFamily) -> None:
    """Every refusal of `fox_jacobian(pres, family)`, in its order: the
    generators must be the family's, then each (relator, generator) pair
    is checked as `fox_derivative` checks it, expanding nothing."""
    if tuple(pres.generators) != family.generators:
        raise DomainError("presentation generators do not match the family")
    for rel in pres.relators:
        for k in range(family.rank):
            check_fox_derivative(rel, k, family)


# ---------------------------------------------------------------------------
# The models


def model_M_sigma(
    family: GroupFamily, sigma: int, gamma: F2Vec | None = None
) -> HAN1:
    """Surgery on X x S^1: the form extends to [[sigma, 1], [1, 0]].

    sigma = 0 is the null-bordant spin model (hyperbolic extension, tau = 0);
    sigma = 1 realizes the bordism classes (0, gamma, 1) and its form is odd,
    so no tau class exists.  The form does not depend on gamma, which is
    only checked: an H_2 vector, zero when sigma = 0.
    """
    d = h2_dimension(family)
    if not is_int(sigma) or sigma not in (0, 1):
        raise DomainError("sigma must be 0 or 1")
    if gamma is not None and not check_w(gamma, d, "gamma").is_zero and sigma == 0:
        raise DomainError("sigma = 0 only represents the zero bordism class")
    matrix = RingMatrix.from_int_rows(family, [[sigma, 1], [1, 0]])
    form = AugmentedForm(1, matrix)
    return HAN1(
        w=F2Vec.zero(d),
        signature=0,
        form=form,
        tau=F2Vec.zero(d) if sigma == 0 else None,
        notes=f"M_{sigma} over {family.generators}",
    )


def _gamma_bits(family: GroupFamily, gamma) -> tuple[int, ...]:
    """gamma as one bit per generator: a string of 0s and 1s, or a sequence
    of ints (not bools) that are 0 or 1."""
    if isinstance(gamma, str):
        bits = tuple("01".find(ch) for ch in gamma)  # -1 for any other character
    else:
        try:
            bits = tuple(gamma)
        except TypeError:
            bits = ()
    if len(bits) != family.rank or not all(is_int(b) and b in (0, 1) for b in bits):
        raise InputError(f"gamma {gamma!r} is not {family.rank} bits, one per "
                         f"generator of the rank-{family.rank} family")
    return bits


def model_P(
    pres: Presentation, family: GroupFamily, gamma
) -> HAN1:
    """The even spin models: surgery on a doubled twisted product.

    gamma assigns a bit to each generator and must define a homomorphism
    pi -> Z/2 (each relator must have even total gamma-weight).  The form
    lives on Ipi + Zpi^(2n+1); in the block order (Zpi, Ipi, Zpi^n, Zpi^n)
    of the construction it reads

        [ 0   1        0                    0        ]
        [ 1   2        (1 - g_j^-1)         0        ]
        [ 0   (1-g_i)  (1-g_i)(1-g_j^-1)    delta_ij ]
        [ 0   0        delta_ij             F_ij     ]

    with F_ij = sum_k gamma(g_k) (D_k R_i) conj(D_k R_j) the Fox block.
    Storage moves the Ipi slot to index 0 (permutation [1, 0, 2, ..., 2n+1])
    so that the leading summand is the augmentation ideal.

    The corner 2 = 1 + conj(1) makes the form even for every gamma, and the
    class of the model in H_2(Bpi;Z/2) is gamma itself.
    """
    if not pres.is_square:
        raise DomainError(
            f"need a square presentation, got {len(pres.generators)} "
            f"generators and {len(pres.relators)} relators"
        )
    # refuses generators other than the family's, and any Fox derivative
    # over the cap, whether or not gamma uses its column
    _check_fox_jacobian(pres, family)
    bits = _gamma_bits(family, gamma)
    _check_homomorphism(pres, bits)
    tau = hom_bits_to_h2(family, bits)  # refuses a family with no built-in H_2

    n = family.rank
    one, zero = RingElem.one(family), RingElem.zero(family)
    # each 1 - g_j, and each Fox derivative D_k R_i with gamma(g_k) = 1 (the
    # only columns the Fox block reads), and the conjugates of both, built once
    diff = [one - RingElem.group(family, family.generator_element(j)) for j in range(n)]
    diff_bar = [x.conjugate() for x in diff]
    fox = [[fox_derivative(rel, k, family) for k in range(n) if bits[k]]
           for rel in pres.relators]
    fox_bar = [[x.conjugate() for x in row] for row in fox]

    # rows after the recorded permutation, each holding its nonzeros in
    # increasing column order: 0 = Ipi, 1 = Zpi, 2..n+1 = first free block
    # (V), n+2..2n+1 = Fox block (W), whose zero sums are dropped
    V, W = 2, 2 + n
    rows = [{0: RingElem.integer(family, 2), 1: one, **{V + j: diff_bar[j] for j in range(n)}},
            {0: one}]
    rows += [{0: diff[i], **{V + j: diff[i] * diff_bar[j] for j in range(n)}, W + i: one}
             for i in range(n)]
    for i in range(n):
        row = {V + i: one}
        for j in range(n):
            total = sum((x * y for x, y in zip(fox[i], fox_bar[j])), zero)
            if not total.is_zero:
                row[W + j] = total
        rows.append(row)

    form = AugmentedForm(1, RingMatrix._trusted(family, tuple(rows)))
    notes = f"P(gamma={''.join(map(str, bits))}) over {family.generators}"
    return HAN1(w=F2Vec.zero(tau.dim), signature=0, form=form, tau=tau, notes=notes)


def model_N_almost_spin(family: GroupFamily, w: F2Vec) -> HAN1:
    """Null-bordant almost-spin model: hyperbolic extension, class zero."""
    d = h2_dimension(family)
    if check_w(w, d) is INFINITY or w.is_zero:
        raise DomainError(f"model N needs a nonzero w other than infinity, not "
                          f"{w_to_json(w)}; model_M_sigma and realize_form build those")
    form = AugmentedForm(1, hyperbolic_matrix(family))
    return HAN1(
        w=w,
        signature=0,
        form=form,
        tau=F2Vec.zero(d),
        notes=f"N(w={w.to_bits()}) over {family.generators}",
    )


def _plus_e8(base: HAN1, count: int) -> AugmentedForm:
    """The base form plus count copies of E8 (negated when count < 0); a
    sum of hermitian blocks, so it is not checked again."""
    matrix = base.form.matrix
    _check_rank(matrix.size + 8 * abs(count))
    if count:
        block = e8_block(base.family, -1 if count < 0 else 1)
        stack = functools.reduce(RingMatrix.direct_sum, [block] * abs(count))
        matrix = matrix.direct_sum(stack)
    return AugmentedForm._trusted(1, matrix)


def _check_rank(rank: int) -> None:
    """Refuse a target whose dense matrix would hold more entries than the cap."""
    cap = configured_cap()
    if rank * rank > cap:
        raise CapExceeded(
            f"realize_form: a rank-{rank} form has {rank * rank} entries, "
            f"over the cap {cap}"
        )


def realize_form(
    family: GroupFamily,
    w,
    signature: int,
    parity_target: Parity | None = None,
    tau: F2Vec | None = None,
    category: str = "topological",
) -> HAN1:
    """A model with prescribed (w, signature, parity, tau), per the
    realization list.

    * w = INFINITY: any signature; lambda_{M_0} + Id_m + (-Id_n), m, n >= 1.
    * w = 0, odd:  lambda_{M_1} + n E8 with 8n the signature.
    * w = 0, even: lambda_P(gamma) + n E8, gamma the homomorphism with
      class tau.
    * w nonzero:   lambda_N + n E8, even with tau = 0 (the defaults when
      parity or tau is None).  Only the signature part of the almost-spin
      classification has explicit matrices; nonzero tau targets are refused
      rather than guessed.

    Every other target is checked by ``check_invariants``.  The rank is
    computed before any matrix is built, and a target whose rank^2 entries
    exceed the cap (STABLE4_CAP, default 10^6) raises CapExceeded.

    Each base model checks its form when it is built; the block sums made
    from it are hermitian and are not checked again.
    """
    d = h2_dimension(family)
    if check_w(w, d) is not INFINITY and not w.is_zero:
        parity_target = Parity.EVEN if parity_target is None else parity_target
        tau = F2Vec.zero(d) if tau is None else tau
    check_invariants(w, signature, parity_target, tau, category, d)

    if w is INFINITY:
        m0 = model_M_sigma(family, 0)
        m = max(1, signature + 1)
        n = m - signature
        _check_rank(m0.form.matrix.size + m + n)
        blocks = identity_block(family, m).direct_sum(identity_block(family, n, -1))
        form = AugmentedForm._trusted(1, m0.form.matrix.direct_sum(blocks))
        tau, notes = None, f"M_0 + Id_{m} + (-Id_{n})"
    else:
        if w.is_zero and parity_target is Parity.ODD:
            base, label = model_M_sigma(family, 1), "M_1"
        elif w.is_zero:
            gamma = h2_to_hom_bits(family, tau)
            base = model_P(builtin_presentation(family), family, gamma)
            label = f"P(gamma={''.join(map(str, gamma))})"
        elif tau != F2Vec.zero(d):
            raise DomainError(
                "almost-spin realization beyond the signature part is not "
                "constructed: no explicit matrices exist for the H_2 part"
            )
        else:
            base, label = model_N_almost_spin(family, w), f"N(w={w.to_bits()})"
        n_e8 = signature // 8
        form, tau = _plus_e8(base, n_e8), base.tau
        notes = f"{label} + {n_e8} E8" + ("" if w.is_zero else " (signature part only)")
    return HAN1(w=w, signature=signature, form=form, tau=tau, notes=notes)


# ---------------------------------------------------------------------------
# JSON wrapper


def w_to_json(w) -> str:
    return "infinity" if w is INFINITY else w.to_bits()


def w_from_json(obj):
    if obj == "infinity":
        return INFINITY
    if isinstance(obj, str):
        return F2Vec.from_bits(obj)
    raise InputError(f"bad w value {obj!r}")


def han1_to_json(h: HAN1):
    p, _ = parity_and_tau(h.w, h.form, h.tau)
    return {
        "w": w_to_json(h.w),
        "signature": h.signature,
        "parity": None if p is None else p.value,
        "tau": None if h.tau is None else h.tau.to_bits(),
        "form": form_to_json(h.form),
        "notes": h.notes,
    }


def han1_from_json(obj) -> HAN1:
    """The HAN1 of a JSON object.  A missing key, or an object that is not
    a dict, is a bad HAN1; the w, form and tau loaders raise their own
    errors (a non-hermitian form is a DomainError)."""
    try:
        raw_w, signature, raw_form = obj["w"], obj["signature"], obj["form"]
        tau, notes = obj.get("tau"), obj.get("notes", "")
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad HAN1 JSON: {exc}") from None
    w, form = w_from_json(raw_w), form_from_json(raw_form)
    as_int(signature, "signature")
    if not isinstance(notes, str):
        raise InputError(f"notes {notes!r} is not a string")
    return HAN1(w, signature, form, None if tau is None else F2Vec.from_bits(tau), notes)
