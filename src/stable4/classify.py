"""Classification tables and the pairwise stable-equivalence decision.

The finite part of each table is computed from the group actions on the
bordism data, not copied from the statements.  A spin class is a pair
(phi, eps) up to

    m . (phi, eps) = (eps m + phi, eps)      for m in H^1(Bpi;Z/2), and
    rho . (phi, eps) = (rho phi, eps)        for rho in the Out(pi)-image;

the translations join every eps = 1 state into one class, the odd one, and
fix the eps = 0 states, so the spin case enumerates the Out-orbits on H_2
and appends the odd class.  The almost-spin case enumerates orbits of
ker<w,-> (smooth) or all of H_2 (topological) under the stabilizer of w
inside the closure of the Out-image.  The signature sits in a separate
16Z / 8Z / Z coordinate.
The enumerations are bounded by the caps of `f2.orbits` and
`f2.group_closure`, which read STABLE4_CAP themselves.  That closure is
computed once per `FamilyData` and kept on the instance outside its fields,
as the row tuples of its elements in the breadth-first order that
`group_closure` lists them in; every almost-spin table over the family
filters the kept closure in one pass, checking it against the cap again,
and hands `f2.orbits` one stabilizer element per vector reached, which have
the same orbits; the pass that picks them stops once every vector of the
domain is reached (when smooth, only over more than 2^d elements).  The
decision walks one orbit of (w, tau) pairs instead, under the
`f2.orbit_of` cap, over pair generators that `_pair_generators` builds on
each call, unchecked, from the checked Out-generators, and that are kept
nowhere.

Which (w, signature, parity, tau) exist in a category -- the strides, the
w and tau dimensions, the category names -- is stated once, in
`stable4.models` (`check_invariants`); the tables, the decision and KS read
it from there, and the names stay importable from this module.
"""

from __future__ import annotations

from collections.abc import Sequence

from .errors import DomainError, InputError, as_int, as_tuple, is_int
from .f2 import (
    F2Mat,
    F2Vec,
    _check_orbit_dim,
    _columns,
    _orbit_witnesses,
    _trusted_matrices,
    closure_cap_exceeded,
    configured_cap,
    f2mat_from_json,
    f2mat_to_json,
    group_closure,
    orbit_of,
    orbits,
)
from .forms import Parity
from .models import (
    HAN1,
    INFINITY,
    SMOOTH,
    TAU_UNKNOWN,
    TOPOLOGICAL,
    builtin_family,
    check_invariants,
    check_w,
    normalize_category,
    parity_and_tau,
    signature_stride,
    w_from_json,
    w_to_json,
)
from .records import Record
from .words import GroupFamily, NilFamily, ZnFamily


class FamilyData(Record):
    """The F2 side of an example group: dim H_2 and the Out(pi)-image.

    H^1(Bpi;Z/2) = Hom(pi,Z/2) acts through the same F2^d coordinates as
    H_2 (Poincare duality + Kronecker evaluation); an element m sends
    (phi, eps) to (eps m + phi, eps).  The generators are stored as a
    tuple, whatever sequence they come in, so the record hashes.
    """

    name: str
    d: int
    out_generators: tuple[F2Mat, ...]

    def __init__(self, name: str, d: int, out_generators: Sequence[F2Mat]) -> None:
        if not isinstance(name, str):
            raise InputError(f"family name {name!r} is not a string")
        as_int(d, "d")
        if d < 0:
            raise DomainError(f"d {d} is negative")
        out_generators = as_tuple(out_generators, "out_generators")
        for k, g in enumerate(out_generators):
            if not isinstance(g, F2Mat):
                raise InputError(f"generator {k} is {g!r}, not an F2 matrix")
            if g.dim != d:
                raise DomainError(f"generator {k} has dimension {g.dim}, "
                                  f"expected {d}")
            if not g.is_invertible():
                raise DomainError(f"generator {k} is not invertible")
        self.__dict__.update(name=name, d=d, out_generators=out_generators)


def builtin_data(ring: GroupFamily) -> FamilyData:
    """The F2 side of z3 or nil:z, derived from its record in models."""
    record = builtin_family(ring)
    return FamilyData(record.name, len(record.coords), record.out_generators())


def family_z3() -> FamilyData:
    """Z^3 = pi_1(T^3): d = 3 and the Out-image is all of GL_3(F2)."""
    return builtin_data(ZnFamily(3))


def family_nil(z: int) -> FamilyData:
    """Central extension of Z^2 by Z with parameter z >= 1: GL_2(F2) for odd
    z; for even z also the transvections adding the torsion coordinate
    (stored last) to x and y."""
    return builtin_data(NilFamily(z))


def family_custom(name: str, d: int, generators: Sequence[F2Mat]) -> FamilyData:
    return FamilyData(name=name, d=d, out_generators=generators)


# ---------------------------------------------------------------------------
# Action and orbits


def spin_state_orbits(family: FamilyData) -> list[list[F2Vec]]:
    """The Out-orbits on H_2 = F2^d, sorted as `orbits` sorts them: the
    classes of a spin table other than the odd one.

    An H^1 element m sends the spin state (phi, eps) to (phi + eps m, eps),
    so the states with eps = 1 form one orbit, the odd class, and on the
    eps = 0 states only the Out-image moves phi.  The cap still counts all
    2^(d+1) states (phi, eps), and is checked before anything is built.
    """
    _check_orbit_dim(family.d + 1)
    return orbits(family.d, family.out_generators)


def stabilizer_of_w(family: FamilyData, w: F2Vec) -> list[F2Mat]:
    """Elements of the Out-image whose induced H^2 action fixes w, in the
    breadth-first order `group_closure` lists the closure in, which the
    kept closure keeps; a new list on every call.

    w is the coefficient vector of the evaluation functional on H_2, so the
    condition on a matrix rho is rho^T w = w: the XOR of the rows of rho
    picked by the bits of w is w again.  For a w of one or two bits that is
    one comparison per element, rows[j] == w or rows[a] ^ rows[b] == w, in
    one comprehension; other w XOR their rows in a loop.  The closure of
    the Out-generators comes from `group_closure` once per family and is
    kept on the family, as its elements' row tuples, outside its fields,
    so equality, hash, repr, pickle and copy do not see it.  A kept closure
    is checked against the cap again on every call, with the message
    `group_closure` raises; a closure that raised is not kept.  A matrix is
    built only for each element kept, all of them by one
    `f2._trusted_matrices` call.
    """
    if check_w(w, family.d) is INFINITY:
        raise DomainError("a totally non-spin w has no stabilizer to compute")
    d, bits = family.d, w.bits
    try:
        closure = family._closure
    except AttributeError:
        generators = family.out_generators or (F2Mat.identity(d),)
        closure = [m.rows for m in group_closure(generators)]
        object.__setattr__(family, "_closure", closure)
    else:
        cap = configured_cap()
        if len(closure) > cap:
            raise closure_cap_exceeded(len(family.out_generators), d, cap)
    picked = [j for j in range(d) if bits >> j & 1]
    if len(picked) == 1:
        [j] = picked
        kept = [rows for rows in closure if rows[j] == bits]
    elif len(picked) == 2:
        a, b = picked
        kept = [rows for rows in closure if rows[a] ^ rows[b] == bits]
    else:
        kept = []
        for rows in closure:
            acc = 0
            for j in picked:
                acc ^= rows[j]
            if acc == bits:
                kept.append(rows)
    return _trusted_matrices(d, kept)


class ClassEntry(Record):
    """One finite class: an H_2 orbit, the odd class, or signature-only."""

    kind: str  # "orbit" | "odd" | "signature-only"
    representative: F2Vec | None
    orbit: tuple[F2Vec, ...]

    def __init__(
        self,
        kind: str,
        representative: F2Vec | None = None,
        orbit: tuple[F2Vec, ...] = (),
    ) -> None:
        self.__dict__.update(kind=kind, representative=representative, orbit=orbit)

    def label(self) -> str:
        if self.kind == "orbit":
            return self.representative.to_bits()
        return self.kind


class ClassificationTable(Record):
    w: object
    category: str
    signature_stride: int
    classes: tuple[ClassEntry, ...]
    ks_rule: str
    family_name: str

    def __init__(
        self,
        w,
        category: str,
        signature_stride: int,
        classes: tuple[ClassEntry, ...],
        ks_rule: str,
        family_name: str = "",
    ) -> None:
        if not classes:
            raise DomainError("a classification table cannot be empty")
        self.__dict__.update(
            w=w,
            category=category,
            signature_stride=signature_stride,
            classes=classes,
            ks_rule=ks_rule,
            family_name=family_name,
        )


def classify(family: FamilyData, w, category: str) -> ClassificationTable:
    """The stable classification table for one normal 1-type.

    Spin tables list the Out-orbits on H_2 of `spin_state_orbits`, then
    the odd class, last.  Almost-spin tables list the orbits of Stab(w),
    which `stabilizer_of_w` filters from the kept closure, on the kernel of
    evaluation (smooth) or on everything (topological).  `orbits` gets
    only the orbit witnesses: per orbit, the first element of Stab(w)
    carrying its least vector to each other vector.  They reach each whole
    Stab(w)-orbit from its start, so they generate a subgroup with exactly
    the same orbits, and there are at most 2^d - (#orbits) of them.  The
    witness pass stops once it has reached every vector of the domain,
    which Stab(w) maps into itself, so the elements it skips would add no
    witness (when smooth, only if Stab(w) has more than 2^d elements).
    Totally non-spin tables are signature-only.  Strides: 1 for totally
    non-spin, 16 for smooth spin, 8 otherwise.
    """
    category = normalize_category(category)
    stride = signature_stride(check_w(w, family.d), category)

    if w is INFINITY:
        classes = (ClassEntry("signature-only"),)
        ks_rule = "independent-bit"
    else:
        if w.is_zero:
            parts = spin_state_orbits(family)
            odd, ks_rule = (ClassEntry("odd"),), "sigma/8"
        else:  # almost spin
            stab = stabilizer_of_w(family, w)
            subset = None
            if category == SMOOTH:
                bits = w.bits
                subset = lambda v: not (v.bits & bits).bit_count() & 1  # <w, v> == 0
            parts = orbits(family.d, _orbit_witnesses(family.d, stab, subset), subset=subset)
            odd, ks_rule = (), "sigma/8 + <w,->"
        classes = (*[ClassEntry("orbit", orb[0], tuple(orb)) for orb in parts], *odd)
    return ClassificationTable(w, category, stride, classes,
                               ks_rule if category == TOPOLOGICAL else "none", family.name)


# ---------------------------------------------------------------------------
# Kirby-Siebenmann


def ks(
    w,
    sigma: int,
    category: str = TOPOLOGICAL,
    h2_class: F2Vec | None = None,
    free_bit: int | None = None,
) -> int:
    """Kirby-Siebenmann invariant of a topological stable class.

    Spin: sigma/8 mod 2 (Rochlin).  Almost spin: sigma/8 plus the evaluation
    of w on the H_2 class.  Totally non-spin: not determined by the other
    data; the caller-supplied free bit is passed through.  Otherwise
    (sigma, h2_class) is checked as the signature and tau of an even tuple.
    """
    if normalize_category(category) != TOPOLOGICAL:
        raise DomainError("the KS invariant lives in the topological category")
    if w is INFINITY:
        if not is_int(free_bit) or free_bit not in (0, 1):
            raise DomainError("totally non-spin KS is an independent bit; supply it")
        return free_bit
    if h2_class is None and not check_w(w).is_zero:
        raise DomainError("almost-spin KS needs the H_2 class of the manifold")
    h2_class = w if h2_class is None else h2_class  # w = 0 pairs to 0 with any class
    check_invariants(w, sigma, Parity.EVEN, h2_class, TOPOLOGICAL)
    return (sigma // 8 + w.dot(h2_class)) % 2


# ---------------------------------------------------------------------------
# Invariant tuples and the equivalence decision


class InvariantTuple(Record):
    """(w-type, signature, parity, tau): the data deciding stable equivalence.

    parity is None exactly for totally non-spin types.  tau is present iff
    the parity is even; the TAU_UNKNOWN sentinel marks an even form whose
    tau class has no model provenance, which decide_stable_equiv refuses.
    """

    w: object
    signature: int
    parity: Parity | None
    tau: object  # F2Vec | None | TAU_UNKNOWN

    def __init__(self, w, signature: int, parity: Parity | None, tau=None) -> None:
        self.__dict__.update(w=w, signature=signature, parity=parity, tau=tau)

    def describe(self) -> str:
        if self.w is INFINITY:
            return f"(w=infinity, sigma={self.signature})"
        tau = (
            "?" if self.tau is TAU_UNKNOWN
            else (self.tau.to_bits() if self.tau is not None else "-")
        )
        return (
            f"(w={w_to_json(self.w)}, sigma={self.signature}, "
            f"{self.parity.value}, tau={tau})"
        )


def invariants_of(h: HAN1, category: str = TOPOLOGICAL) -> InvariantTuple:
    """Extract the invariant tuple of a model, with the parity and tau of
    `models.parity_and_tau`, checked in the category.

    Even forms without tau provenance come back flagged TAU_UNKNOWN; such
    tuples cannot be fed to decide_stable_equiv.
    """
    tup = InvariantTuple(h.w, h.signature, *parity_and_tau(h.w, h.form, h.tau))
    check_invariants(tup.w, tup.signature, tup.parity, tup.tau, category)
    return tup


def decide_stable_equiv(
    a: InvariantTuple,
    b: InvariantTuple,
    category: str,
    family: FamilyData,
) -> bool:
    """Are two invariant tuples stably equivalent?

    Signatures and parities must agree; even classes additionally need b's
    tau in Stab(w) a.tau, Stab(w) being the Out-image elements fixing w.
    By orbit-stabilizer that holds iff (w, b.tau) lies in the orbit of
    (w, a.tau) under the Out-generators acting by (w, tau) -> (rho^-T w,
    rho tau): one `f2.orbit_of` walk under the orbit cap, with no closure,
    over the `_pair_generators`, built on each call and kept nowhere.
    Odd classes are decided by the signature alone.  Tuples with different
    w-types are never equivalent: w is compared literally, as a fixed
    identification, not up to Out(pi).  For nil:2, (w=100,
    tau=010) and (w=010, tau=100) are DISTINCT even though the swap lies in
    the Out-image.  A w whose dimension is not the family's is refused.
    """
    for label, t in (("a", a), ("b", b)):
        check_invariants(t.w, t.signature, t.parity, t.tau, category)
        if t.tau is TAU_UNKNOWN:
            raise DomainError("tau class unknown; cannot decide equivalence")
        try:
            check_w(t.w, family.d)
        except DomainError as exc:
            raise DomainError(f"tuple {label}: {exc}") from None
    if (a.w is INFINITY) != (b.w is INFINITY):
        return False
    if a.w is INFINITY:
        return a.signature == b.signature
    if a.w != b.w:
        return False
    if a.signature != b.signature or a.parity != b.parity:
        return False
    if a.parity is Parity.ODD:
        return True
    d = family.d
    reached = orbit_of(F2Vec._trusted(2 * d, a.w.bits | a.tau.bits << d),
                       _pair_generators(family))
    return a.w.bits | b.tau.bits << d in reached


def _pair_generators(family: FamilyData) -> list[F2Mat]:
    """Each Out-generator rho acting on (w, tau) pairs as diag(rho^-T, rho),
    w in bits 0..d-1 and tau in bits d..2d-1; a new list on every call.

    The rows of rho^-T are the columns of rho^-1, and the rows of rho
    shifted up by d stay below 2^(2d); both come from a checked invertible
    rho, so the matrices are built with `f2._trusted_matrices`."""
    d = family.d
    return _trusted_matrices(2 * d, [
        tuple(_columns(rho.inverse().rows)) + tuple([row << d for row in rho.rows])
        for rho in family.out_generators
    ])


# ---------------------------------------------------------------------------
# Serialization


def family_data_to_json(f: FamilyData):
    return {
        "name": f.name,
        "d": f.d,
        "out_generators": [f2mat_to_json(m) for m in f.out_generators],
    }


def family_data_from_json(obj) -> FamilyData:
    try:
        return FamilyData(
            name=obj["name"],
            d=obj["d"],
            out_generators=tuple(f2mat_from_json(m) for m in obj["out_generators"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad family JSON: {exc}") from None


def table_to_json(t: ClassificationTable):
    classes = []
    for entry in t.classes:
        item = {"kind": entry.kind}
        if entry.kind == "orbit":
            item["representative"] = entry.representative.to_bits()
            item["orbit"] = [v.to_bits() for v in entry.orbit]
        classes.append(item)
    return {
        "family": t.family_name,
        "w": w_to_json(t.w),
        "category": t.category,
        "signature_stride": t.signature_stride,
        "ks_rule": t.ks_rule,
        "classes": classes,
    }


def table_to_text(t: ClassificationTable) -> str:
    lines = [
        f"family {t.family_name}   w {w_to_json(t.w)}   category {t.category}",
        f"signatures: {t.signature_stride}*Z    ks: {t.ks_rule}",
        f"finite classes per signature: {len(t.classes)}",
    ]
    width = max(len(e.label()) for e in t.classes)
    for entry in t.classes:
        if entry.kind == "orbit":
            members = " ".join(v.to_bits() for v in entry.orbit)
            lines.append(f"  {entry.label():<{width}}  orbit {{ {members} }}")
        else:
            lines.append(f"  {entry.label():<{width}}")
    return "\n".join(lines)


def invariant_tuple_to_json(t: InvariantTuple):
    return {
        "w": w_to_json(t.w),
        "signature": t.signature,
        "parity": None if t.parity is None else t.parity.value,
        "tau": t.tau.to_bits() if isinstance(t.tau, F2Vec) else None,
    }


def invariant_tuple_from_json(obj) -> InvariantTuple:
    try:
        w = w_from_json(obj["w"])
        signature = obj["signature"]
        parity_raw = obj.get("parity")
        tau_raw = obj.get("tau")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"bad invariant tuple JSON: {exc}") from None
    as_int(signature, "signature")
    if parity_raw is None:
        par = None
    else:
        try:
            par = Parity(parity_raw)
        except ValueError:
            raise InputError(f"bad parity {parity_raw!r}") from None
    tau = None if tau_raw is None else F2Vec.from_bits(tau_raw)
    return InvariantTuple(w, signature, par, tau)
