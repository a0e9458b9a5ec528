"""Reduced words in free groups, finite presentations, and Fox calculus.

Group elements are kept in canonical normal forms per *family*:

* ``FreeFamily`` -- elements are freely reduced words; no further relations.
* ``ZnFamily``   -- the free abelian group Z^n; elements are exponent vectors.
* ``NilFamily``  -- the central extension of Z^2 by Z with commutator
  [x, y] = a^z and a central, presented by
  < a, x, y | x a x^-1 a^-1,  y a y^-1 a^-1,  x y x^-1 y^-1 a^-z >.
  Elements are triples (k, i, j) standing for a^k x^i y^j; the product law
  (a^k1 x^i1 y^j1)(a^k2 x^i2 y^j2) = a^(k1+k2-z*j1*i2) x^(i1+i2) y^(j1+j2)
  is what the rewriting rule yx -> a^-z xy forces.

The word problem is only solved for these built-in families; that is all the
classification of the example groups needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError, InputError

Letter = tuple[int, int]  # (generator index, nonzero exponent)


def _free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent letters with the same generator index."""
    stack: list[list[int]] = []
    for gen, exp in letters:
        if exp == 0:
            continue
        if stack and stack[-1][0] == gen:
            stack[-1][1] += exp
            if stack[-1][1] == 0:
                stack.pop()
        else:
            stack.append([gen, exp])
    return tuple((g, e) for g, e in stack)


@dataclass(frozen=True)
class Word:
    """A freely reduced word; adjacent letters always have distinct indices.

    The constructor reduces, so ``Word(anything)`` is already in normal form.
    """

    letters: tuple[Letter, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "letters", _free_reduce(self.letters))
        for gen, _ in self.letters:
            if gen < 0:
                raise InputError(f"negative generator index {gen}")

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        """Total letter count, exponents unrolled."""
        return sum(abs(e) for _, e in self.letters)

    def max_index(self) -> int:
        return max((g for g, _ in self.letters), default=-1)

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((g, -e) for g, e in reversed(self.letters)))

    def __pow__(self, k: int) -> "Word":
        if k < 0:
            return self.inverse() ** (-k)
        out = Word()
        for _ in range(k):
            out = out * self
        return out


def parse_word(text: str, generators: Sequence[str]) -> Word:
    """Parse whitespace-separated tokens ``name`` or ``name^k`` into a Word.

    ``k`` must be a nonzero integer; the bare token ``1`` denotes the
    identity.  The result is freely reduced.
    """
    index = {name: i for i, name in enumerate(generators)}
    letters: list[Letter] = []
    for token in text.split():
        if token == "1":
            continue
        name, caret, raw_exp = token.partition("^")
        if caret and not raw_exp:
            raise InputError(f"malformed token {token!r}")
        if name not in index:
            raise InputError(f"unknown generator {name!r}")
        if caret:
            try:
                exp = int(raw_exp)
            except ValueError:
                raise InputError(f"malformed exponent in {token!r}") from None
            if exp == 0:
                raise InputError(f"zero exponent in {token!r}")
        else:
            exp = 1
        letters.append((index[name], exp))
    return Word(tuple(letters))


def word_to_str(w: Word, generators: Sequence[str]) -> str:
    """Inverse of parse_word; the identity prints as ``1``."""
    if w.is_identity:
        return "1"
    parts = []
    for gen, exp in w.letters:
        if gen >= len(generators):
            raise InputError(f"generator index {gen} out of range")
        name = generators[gen]
        parts.append(name if exp == 1 else f"{name}^{exp}")
    return " ".join(parts)


class GroupFamily:
    """Base class fixing the interface of a group with a normal form.

    Elements are opaque hashable values; the family supplies identity,
    multiplication, inversion and the quotient map from free words.
    """

    generators: tuple[str, ...]

    @property
    def rank(self) -> int:
        return len(self.generators)

    def gen_index(self, name: str) -> int:
        try:
            return self.generators.index(name)
        except ValueError:
            raise InputError(f"unknown generator {name!r}") from None

    def identity(self):
        raise NotImplementedError

    def multiply(self, a, b):
        raise NotImplementedError

    def invert(self, a):
        raise NotImplementedError

    def generator_element(self, index: int, exp: int = 1):
        raise NotImplementedError

    def sort_key(self, g):
        """Deterministic total order on elements, used for stable output."""
        raise NotImplementedError

    def element_word(self, g) -> Word:
        """A canonical word representing g (for printing and JSON)."""
        raise NotImplementedError

    def _check_arity(self, w: Word) -> None:
        if w.max_index() >= self.rank:
            raise DomainError(
                f"word uses generator index {w.max_index()}, "
                f"but family has rank {self.rank}"
            )

    def reduce_word(self, w: Word):
        """Quotient map: evaluate a free word in this group."""
        self._check_arity(w)
        out = self.identity()
        for gen, exp in w.letters:
            out = self.multiply(out, self.generator_element(gen, exp))
        return out

    def element_str(self, g) -> str:
        return word_to_str(self.element_word(g), self.generators)


@dataclass(frozen=True)
class FreeFamily(GroupFamily):
    """Free group on named generators; elements are the Words themselves."""

    generators: tuple[str, ...]

    def identity(self) -> Word:
        return Word()

    def multiply(self, a: Word, b: Word) -> Word:
        return a * b

    def invert(self, a: Word) -> Word:
        return a.inverse()

    def generator_element(self, index: int, exp: int = 1) -> Word:
        return Word(((index, exp),))

    def sort_key(self, g: Word):
        return (g.length(), g.letters)

    def element_word(self, g: Word) -> Word:
        return g

    def reduce_word(self, w: Word) -> Word:
        self._check_arity(w)
        return w


@dataclass(frozen=True)
class ZnFamily(GroupFamily):
    """Z^n with generators g1..gn; elements are exponent vectors."""

    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise DomainError("Zn family needs n >= 1")

    @property
    def generators(self) -> tuple[str, ...]:
        return tuple(f"g{i + 1}" for i in range(self.n))

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.n

    def multiply(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def invert(self, a):
        return tuple(-x for x in a)

    def generator_element(self, index: int, exp: int = 1):
        v = [0] * self.n
        v[index] = exp
        return tuple(v)

    def sort_key(self, g):
        return g

    def element_word(self, g) -> Word:
        return Word(tuple((i, e) for i, e in enumerate(g) if e))


@dataclass(frozen=True)
class NilFamily(GroupFamily):
    """Central extension of Z^2 by Z with extension parameter z >= 1.

    Normal form a^k x^i y^j stored as (k, i, j); rewriting pushes central
    a's left and sorts x before y via yx -> a^-z xy.
    """

    z: int

    def __post_init__(self) -> None:
        if self.z < 1:
            raise DomainError("Nil family needs z >= 1")

    @property
    def generators(self) -> tuple[str, ...]:
        return ("a", "x", "y")

    def identity(self) -> tuple[int, int, int]:
        return (0, 0, 0)

    def multiply(self, a, b):
        k1, i1, j1 = a
        k2, i2, j2 = b
        return (k1 + k2 - self.z * j1 * i2, i1 + i2, j1 + j2)

    def invert(self, a):
        k, i, j = a
        return (-k - self.z * i * j, -i, -j)

    def generator_element(self, index: int, exp: int = 1):
        v = [0, 0, 0]
        v[index] = exp
        return tuple(v)

    def sort_key(self, g):
        return g

    def element_word(self, g) -> Word:
        k, i, j = g
        return Word(tuple(p for p in ((0, k), (1, i), (2, j)) if p[1]))


def normalize(w: Word, family: GroupFamily):
    """Canonical normal form of a word in a built-in family.

    Raises DomainError for free families: there is nothing to normalize to,
    and formal Fox output over free groups stays at the word level.
    """
    if isinstance(family, FreeFamily):
        raise DomainError("free family has no normal form beyond free reduction")
    return family.reduce_word(w)


@dataclass(frozen=True)
class Presentation:
    """A finite presentation: generator names plus relator words."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self) -> None:
        seen = set()
        for name in self.generators:
            if not name.isidentifier():
                raise InputError(f"bad generator name {name!r}")
            if name in seen:
                raise InputError(f"duplicate generator {name!r}")
            seen.add(name)
        for rel in self.relators:
            if rel.max_index() >= len(self.generators):
                raise InputError("relator references an undeclared generator")

    @property
    def is_square(self) -> bool:
        return len(self.generators) == len(self.relators)

    def relator_strs(self) -> tuple[str, ...]:
        return tuple(word_to_str(r, self.generators) for r in self.relators)


def fox_derivative(w: Word, gen: int | str, family: GroupFamily):
    """Free differential of w with respect to one generator, in Z[family].

    Characterised by D(e) = 0, D_gi(gj) = delta_ij and the product rule
    D(uv) = D(u) + u D(v); in particular D_g(g^-1) = -g^-1 and powers expand
    into geometric sums.  Coefficients are pushed through the family's
    normal form, i.e. this is the composite Z F_n -> Z pi when the family is
    not free.

    Returns a groupring.RingElem over the family.
    """
    from .groupring import RingElem  # words is below groupring in the layering

    if isinstance(gen, str):
        gen = family.gen_index(gen)
    if gen < 0 or gen >= family.rank:
        raise InputError(f"generator index {gen} out of range")
    family._check_arity(w)

    terms: dict = {}
    prefix = family.identity()
    for idx, exp in w.letters:
        if idx == gen:
            step = family.generator_element(idx, 1 if exp > 0 else -1)
            # D(g^k) = sum of the partial prefixes, signed
            cursor = prefix if exp > 0 else family.multiply(prefix, step)
            sign = 1 if exp > 0 else -1
            for _ in range(abs(exp)):
                terms[cursor] = terms.get(cursor, 0) + sign
                cursor = family.multiply(cursor, step)
        prefix = family.multiply(prefix, family.generator_element(idx, exp))
    return RingElem(family, terms)


# ---------------------------------------------------------------------------
# JSON formats


def family_to_json(family: GroupFamily):
    if isinstance(family, FreeFamily):
        return {"free": list(family.generators)}
    if isinstance(family, ZnFamily):
        return {"zn": family.n}
    if isinstance(family, NilFamily):
        return {"nil": family.z}
    raise InputError(f"unknown family {family!r}")


def family_from_json(obj, generators: Sequence[str] | None = None) -> GroupFamily:
    """Read a family tag: "free", "zn", {"nil": z}, {"zn": n}, {"free": [...]}.

    The bare-string forms need a generator list for context (presentation
    files supply one).
    """
    if obj == "free":
        if generators is None:
            raise InputError('family "free" needs a generator list')
        return FreeFamily(tuple(generators))
    if obj == "zn":
        if generators is None:
            raise InputError('family "zn" needs a generator list')
        fam = ZnFamily(len(generators))
        if tuple(generators) != fam.generators:
            raise InputError("zn generators must be named g1..gn")
        return fam
    if isinstance(obj, dict):
        if set(obj) == {"nil"}:
            return NilFamily(int(obj["nil"]))
        if set(obj) == {"zn"}:
            return ZnFamily(int(obj["zn"]))
        if set(obj) == {"free"}:
            return FreeFamily(tuple(obj["free"]))
    raise InputError(f"unrecognised family tag {obj!r}")


def parse_family_spec(spec: str) -> GroupFamily:
    """Parse the CLI shorthand: z3, zn:N, nil:Z."""
    if spec == "z3":
        return ZnFamily(3)
    kind, sep, arg = spec.partition(":")
    if sep:
        try:
            value = int(arg)
        except ValueError:
            raise InputError(f"bad family spec {spec!r}") from None
        if kind == "zn":
            return ZnFamily(value)
        if kind == "nil":
            return NilFamily(value)
    raise InputError(f"bad family spec {spec!r}")


def presentation_to_json(pres: Presentation, family: GroupFamily):
    tag = family_to_json(family)
    if isinstance(family, ZnFamily):
        tag = "zn"
    elif isinstance(family, FreeFamily):
        tag = "free"
    return {
        "generators": list(pres.generators),
        "relators": list(pres.relator_strs()),
        "family": tag,
    }


def presentation_from_json(obj) -> tuple[Presentation, GroupFamily]:
    try:
        generators = tuple(str(g) for g in obj["generators"])
        relator_texts = list(obj["relators"])
        family_tag = obj.get("family", "free")
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad presentation JSON: {exc}") from None
    family = family_from_json(family_tag, generators)
    if not isinstance(family, FreeFamily) and generators != family.generators:
        raise InputError(
            f"presentation generators {generators} do not match the "
            f"family's {family.generators}"
        )
    relators = tuple(parse_word(t, generators) for t in relator_texts)
    return Presentation(generators, relators), family
