"""Exact sparse arithmetic in Z[pi] with the oriented involution g -> g^-1.

Elements are finite integer combinations of group elements of one family,
stored as a map from canonical normal forms to nonzero coefficients.
Coefficients are Python ints, so Fox derivatives of long relators cannot
overflow.  The per-family helpers (``conjugate_matcher`` and the JSON
reader and writer) keep what they compute per distinct group element, so a
matrix pays for its distinct elements once rather than for every term.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping

from .errors import DomainError, InputError, as_int, as_tuple, check_pairs, is_int
from .words import GroupFamily, _generator_index, _parse_indexed


class RingElem:
    """Sparse element of the integral group ring of a family group."""

    __slots__ = ("family", "_terms")

    def __init__(self, family: GroupFamily, terms: Mapping | Iterable | None = None):
        """terms are a mapping or an iterable of (group element, int) pairs,
        read once; terms that are not an iterable of pairs, and a group
        element that is not hashable, are refused as input."""
        self.family = family
        data: dict = {}
        if terms:
            items = (terms.items() if isinstance(terms, Mapping)
                     else as_tuple(terms, "ring element terms"))
            try:
                for g, c in items:
                    if not is_int(c):
                        raise DomainError(f"coefficient {c!r} is not an integer")
                    if c:
                        try:
                            c += data.get(g, 0)
                        except TypeError:
                            raise InputError(f"group element {g!r} is not hashable") from None
                        if c:
                            data[g] = c
                        else:
                            del data[g]
            except (DomainError, InputError):
                raise
            except (TypeError, ValueError):
                check_pairs(items, "ring element terms", "term")
                raise
        self._terms = data

    @classmethod
    def _from_dict(cls, family: GroupFamily, data: dict) -> "RingElem":
        """Trusted: data maps normal forms to ints; only zeros are dropped.

        The result takes ownership of ``data``: every caller passes a dict
        it has just built and does not touch again, so it is kept as is, and
        copied only when it holds a zero to drop.  The callers that can
        still hand it zeros are ``__add__`` (sums that cancel), ``__mul__``
        by the int 0 or through a family's default ``add_right_translates``
        (the free family's), ``fox_derivative`` through the default or the
        Z^n ``fox_terms``, and the JSON reader (terms that cancel); the nil
        Fox walk and the nil and Z^n translates delete each zero sum.
        """
        x = cls.__new__(cls)
        x.family = family
        x._terms = {g: c for g, c in data.items() if c} if 0 in data.values() else data
        return x

    # -- constructors

    @classmethod
    def zero(cls, family: GroupFamily) -> "RingElem":
        return cls(family)

    @classmethod
    def integer(cls, family: GroupFamily, n: int) -> "RingElem":
        return cls(family, {family.identity(): n})

    @classmethod
    def one(cls, family: GroupFamily) -> "RingElem":
        return cls.integer(family, 1)

    @classmethod
    def group(cls, family: GroupFamily, element, coeff: int = 1) -> "RingElem":
        return cls(family, {element: coeff})

    # -- accessors

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def coefficient(self, g) -> int:
        return self._terms.get(g, 0)

    def support(self):
        return set(self._terms)

    def items(self):
        """Terms sorted by the family's canonical element order."""
        return sorted(self._terms.items(), key=lambda kv: self.family.sort_key(kv[0]))

    def __len__(self) -> int:
        return len(self._terms)

    # -- ring structure

    def _require_same_family(self, other: "RingElem") -> None:
        if self.family != other.family:
            raise DomainError(
                f"family mismatch: {self.family!r} vs {other.family!r}"
            )

    def __add__(self, other: "RingElem") -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        self._require_same_family(other)
        big, small = self._terms, other._terms
        if len(big) < len(small):
            big, small = small, big
        data = dict(big)
        get = data.get
        for g, c in small.items():
            data[g] = get(g, 0) + c
        return RingElem._from_dict(self.family, data)

    def __neg__(self) -> "RingElem":
        return RingElem._from_dict(self.family, {g: -c for g, c in self._terms.items()})

    def __sub__(self, other: "RingElem") -> "RingElem":
        if not isinstance(other, RingElem):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            if not is_int(other):  # a bool is no coefficient
                raise DomainError(f"coefficient {other!r} is not an integer")
            return RingElem._from_dict(
                self.family, {g: c * other for g, c in self._terms.items()}
            )
        if not isinstance(other, RingElem):
            return NotImplemented
        # The identity term of the right factor, which every g - 1 and
        # 1 +- x factor has, takes the left terms as they are, times its
        # coefficient.  Each other right-hand term d*h goes to the family's
        # kernel, which adds c*d at g*h for every left term c*g.
        self._require_same_family(other)
        fam = self.family
        one = fam.identity()
        left, right = self._terms, other._terms
        d = right.get(one)
        data = {g: c * d for g, c in left.items()} if d else {}
        translate = fam.add_right_translates
        for h, d in right.items():
            if h != one:
                translate(data, left, h, d)
        return RingElem._from_dict(fam, data)

    def __rmul__(self, other):
        if isinstance(other, int):
            return self * other
        return NotImplemented

    def conjugate(self) -> "RingElem":
        """The involution: sum c_g g  ->  sum c_g g^-1."""
        fam = self.family
        return RingElem._from_dict(fam, {fam.invert(g): c for g, c in self._terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, RingElem):
            return NotImplemented
        return self.family == other.family and self._terms == other._terms

    def __hash__(self):
        return hash((self.family, frozenset(self._terms.items())))

    def to_text(self) -> str:
        if not self._terms:
            return "0"
        parts = []
        for g, c in self.items():
            s = self.family.element_str(g)
            body = str(abs(c)) if s == "1" else (s if abs(c) == 1 else f"{abs(c)}*{s}")
            parts.append(("- " if c < 0 else ("+ " if parts else "")) + body)
        return " ".join(parts)

    def __repr__(self) -> str:
        return f"<RingElem {self.to_text()}>"


def augmentation(x: RingElem) -> int:
    """Coefficient sum; x lies in the augmentation ideal iff this is 0."""
    return sum(x._terms.values())


def in_image_one_plus_T(x: RingElem, *, _inverses: dict | None = None) -> bool:
    """Decide whether x = p + conj(p) for some p in the group ring.

    Closed-form criterion: the coefficients must be symmetric under g -> g^-1
    and even at every self-inverse element.  Sufficiency: a pair {g, g^-1}
    with g != g^-1 is hit by taking p_g := x_g and p at g^-1 zero, while a
    self-inverse g needs p_g = x_g / 2; necessity is immediate from
    (p + conj p)_g = p_g + p_{g^-1}.  Non-symmetric inputs simply return
    False.

    `forms.parity` passes one `_inverses` dict {g: g^-1} for all the
    diagonal entries of a form, so each distinct element is inverted once.
    """
    invert = x.family.invert
    inverses = {} if _inverses is None else _inverses
    coefficient = x._terms.get
    for g, c in x._terms.items():
        gi = inverses.get(g)
        if gi is None:
            gi = inverses[g] = invert(g)
        if coefficient(gi, 0) != c:
            return False
        if g == gi and c % 2:
            return False
    return True


def conjugate_matcher(family: GroupFamily):
    """A ``matches(x, y)`` deciding x == conj(y) for ring elements of family.

    It reads the two term dicts directly and builds no ring element: the
    sizes must agree, and each term c g of y must appear in x as c g^-1
    (inversion is a bijection, so that covers every term of x).  The
    matcher keeps the inverse of each group element it has seen, so a
    matrix checked through one matcher inverts each distinct element once:
    the cost is the terms of y plus one ``invert`` per distinct element.
    """
    invert = family.invert
    inverses: dict = {}

    def matches(x: RingElem, y: RingElem) -> bool:
        terms = x._terms
        if len(terms) != len(y._terms):
            return False
        for g, c in y._terms.items():
            gi = inverses.get(g)
            if gi is None:
                gi = inverses[g] = invert(g)
            if terms.get(gi) != c:
                return False
        return True

    return matches


# ---------------------------------------------------------------------------
# JSON format: a list of {"coeff": int, "word": word-string} terms


def ring_elem_writer(family: GroupFamily):
    """A ``dump(x)`` giving the JSON terms of ring elements of family.

    Terms come in the family's canonical element order.  The writer keeps
    the term list of each entry object it has written, and keeps that
    object alive so its id stays its own: an entry reached k times, as the
    k E8 copies a direct sum shares are, is formatted once, and equal
    entries share one output list.  It also keeps the text of each group
    element it has formatted, so a form written through one writer costs
    one dict per term of each distinct entry object plus one
    ``element_str`` per distinct element.
    """
    element_str = family.element_str
    sort_key = family.sort_key
    texts: dict = {}
    written: dict = {}

    def dump(x: RingElem) -> list:
        seen = written.get(id(x))
        if seen is not None:
            return seen[1]
        terms = x._terms
        items = terms.items()
        if len(terms) > 1:
            items = sorted(items, key=lambda kv: sort_key(kv[0]))
        out = []
        for g, c in items:
            text = texts.get(g)
            if text is None:
                text = texts[g] = element_str(g)
            out.append({"coeff": c, "word": text})
        written[id(x)] = (x, out)
        return out

    return dump


def ring_elem_reader(family: GroupFamily):
    """A ``load(obj)`` reading JSON term lists as ring elements of family.

    Every term must be a {"coeff": int, "word": word-string} object (a bool
    is not an int); terms on the same group element merge, and terms that
    cancel drop out.  The reader keeps the ring element of each one-term
    entry whose coefficient is an int and whose word is a str (by type, so
    a bool or float coefficient, equal to an int as a key, still goes
    through the checks), and equal one-term entries then share one
    element.  It keeps the group element of each word text it has parsed,
    against one generator index built per reader.  A form loaded through
    one reader so costs one load per distinct one-term entry, the terms of
    every other entry, and one ``parse_word`` and ``reduce_word`` per
    distinct word.  Errors are those of the first bad term.
    """
    index = _generator_index(family.generators)
    reduce_word = family.reduce_word
    elements: dict = {}
    one_terms: dict = {}

    def load_terms(obj) -> RingElem:
        if not isinstance(obj, list):
            raise InputError("ring element JSON must be a list of terms")
        data: dict = {}
        get = data.get
        for item in obj:
            try:
                coeff = item["coeff"]
                word_text = item["word"]
            except (KeyError, TypeError) as exc:
                raise InputError(f"bad ring element term: {exc}") from None
            as_int(coeff, "coefficient")
            try:
                g = elements[word_text]
            except (KeyError, TypeError):  # new text, or unhashable: parse it
                g = reduce_word(_parse_indexed(word_text, index))
                elements[word_text] = g
            data[g] = get(g, 0) + coeff
        return RingElem._from_dict(family, data)

    def load(obj) -> RingElem:
        if type(obj) is list and len(obj) == 1 and type(obj[0]) is dict:
            item = obj[0]
            coeff = item.get("coeff")
            word_text = item.get("word")
            if type(coeff) is int and type(word_text) is str:
                key = (coeff, word_text)
                x = one_terms.get(key)
                if x is None:
                    x = one_terms[key] = load_terms(obj)
                return x
        return load_terms(obj)

    return load


def ring_elem_to_json(x: RingElem):
    return ring_elem_writer(x.family)(x)


def ring_elem_from_json(obj, family: GroupFamily) -> RingElem:
    return ring_elem_reader(family)(obj)
