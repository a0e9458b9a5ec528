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

A family states its law once: a quotient in ``evaluate``, the element a
word's letters spell, and the free family in ``generator_element``; each
default reads one off the other.  The three hot loops over words and
group-ring terms are family kernels: ``evaluate`` for ``reduce_word``,
``fox_terms`` walks a word once for ``fox_derivative``, and
``add_right_translates`` adds one right-hand term's share of a group-ring
product.  Their defaults step with ``multiply`` by ``generator_element``;
the free family uses them, and they may leave a term whose sum is 0 for
``RingElem._from_dict`` to drop.  Z^n walks one mutable exponent list and
builds a tuple only for each element it emits; Nil keeps its prefix as
three ints, runs one Fox loop per differentiated generator, and writes each
term as one tuple; both inline their product law.  Nil's ``fox_terms`` and
both families' ``add_right_translates`` delete a term as soon as its sum
reaches 0, so on zero-free input the dict they hand on holds no zero and is
kept as it is.

Every ``Word`` holds a freely reduced tuple of letters with int, nonzero
exponents, no two adjacent letters on the same generator, and int generator
indices >= 0; the constructor checks the letters in the same pass that
reduces them.  Operations that start from reduced words keep that invariant
without re-deriving it: a product cancels only at the seam between its
factors, and an inverse reverses and negates.  Such results are built by the
private ``Word._trusted``, which fills the ``letters`` slot of a new object
through the slot setter bound once below, without reducing or checking.
"""

from __future__ import annotations

from operator import add, itemgetter, neg
from collections.abc import Iterable, Mapping, Sequence

from .errors import CapExceeded, DomainError, InputError, as_int, as_tuple, check_pairs, is_int
from .f2 import configured_cap
from .records import Record

Letter = tuple[int, int]  # (generator index, nonzero exponent)


def _free_reduce(letters: Iterable[Letter]) -> tuple[Letter, ...]:
    """Cancel adjacent letters with the same generator index, refusing
    letters that are not an iterable of pairs, and a letter whose index or
    exponent is not an int, or whose index is negative.  The letters are
    read once, into a tuple, so a refusal sees all of a one-shot iterator."""
    letters = as_tuple(letters, "word letters")
    stack: list[list[int]] = []
    try:
        for gen, exp in letters:
            if gen.__class__ is not int or exp.__class__ is not int or gen < 0:
                _check_letter(gen, exp)
            if exp == 0:
                continue
            if stack and stack[-1][0] == gen:
                stack[-1][1] += exp
                if stack[-1][1] == 0:
                    stack.pop()
            else:
                stack.append([gen, exp])
    except InputError:
        raise
    except (TypeError, ValueError):
        check_pairs(letters, "word letters", "letter")
        raise
    return tuple((g, e) for g, e in stack)


def _check_letter(gen, exp) -> None:
    """The error for a letter that `_free_reduce`'s exact-int test did not
    pass; an int subclass other than bool is let through."""
    as_int(gen, "generator index")
    as_int(exp, "exponent")
    if gen < 0:
        raise InputError(f"negative generator index {gen}")


class Word(Record):
    """A freely reduced word; adjacent letters always have distinct indices.

    The constructor reduces, so ``Word(anything)`` is already in normal form.
    Products and inverses of reduced words are built by ``_trusted``, which
    stores the letters as given, skipping the reduction and the checks.
    The ``_hash`` slot is no field: the first ``hash`` fills it (see
    ``records``), so a word keyed in several dicts walks its letters once.
    """

    __slots__ = ("letters", "_hash")
    letters: tuple[Letter, ...]

    def __init__(self, letters: Iterable[Letter] = ()) -> None:
        _set_letters(self, _free_reduce(letters))

    @classmethod
    def _trusted(cls, letters: tuple[Letter, ...]) -> "Word":
        """Wrap letters that are already reduced, with int indices >= 0."""
        w = object.__new__(cls)
        _set_letters(w, letters)
        return w

    @property
    def is_identity(self) -> bool:
        return not self.letters

    def length(self) -> int:
        """Total letter count, exponents unrolled."""
        return sum(abs(e) for _, e in self.letters)

    def max_index(self) -> int:
        return max(map(itemgetter(0), self.letters), default=-1)

    def __mul__(self, other: "Word") -> "Word":
        # Both factors are reduced, so only the seam can cancel: pairs on the
        # same generator annihilate until one merges or the indices differ.
        a, b = self.letters, other.letters
        i, j = len(a), 0
        while i and j < len(b) and a[i - 1][0] == b[j][0]:
            exp = a[i - 1][1] + b[j][1]
            if exp:
                return Word._trusted(a[: i - 1] + ((b[j][0], exp),) + b[j + 1 :])
            i -= 1
            j += 1
        return Word._trusted(a[:i] + b[j:])

    def inverse(self) -> "Word":
        return Word._trusted(tuple((g, -e) for g, e in reversed(self.letters)))


# Bound once: the constructor and `Word._trusted` store the letters with it,
# past the frozen `Record.__setattr__`.
_set_letters = Word.letters.__set__


def parse_word(text: str, generators: Sequence[str]) -> Word:
    """Parse whitespace-separated tokens ``name`` or ``name^k`` into a Word.

    ``k`` must be a nonzero integer; the bare token ``1`` denotes the
    identity.  The result is freely reduced.  Each call indexes all the
    generators; a caller parsing many words builds ``_generator_index``
    once and calls ``_parse_indexed``.
    """
    return _parse_indexed(text, _generator_index(generators))


def _generator_index(generators: Sequence[str]) -> dict[str, int]:
    return {name: i for i, name in enumerate(generators)}


def _parse_indexed(text: str, index: Mapping[str, int]) -> Word:
    """``parse_word`` against a prebuilt {name: index} map."""
    if not isinstance(text, str):
        raise InputError(f"word {text!r} is not a string")
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
    multiplication, inversion and the quotient map from free words.  A
    family defines ``evaluate`` or ``generator_element``: each default
    calls the other, so a family defining neither recurses.

    A family with a closed form may also override these kernels; each
    default is built on ``generator_element`` and ``multiply`` alone, so it
    is correct for any family:

    * ``evaluate(letters)`` -- the element the letters spell;
    * ``fox_terms(letters, gen)`` -- the term dict of a Fox derivative;
    * ``add_right_translates(data, left, h, d)`` -- one right-hand term's
      share of a group-ring product.
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
        """s_index^exp, the element ``evaluate`` spells from one letter,
        unless a family overrides it.  An index or exponent that is not an
        int (a bool or a float) is refused as input, and an index outside
        0..rank-1 raises IndexError."""
        as_int(index, "generator index")
        as_int(exp, "exponent")
        if not 0 <= index < self.rank:
            raise IndexError(f"generator index {index} out of range")
        return self.evaluate(((index, exp),))

    def fox_terms(self, letters: Sequence[Letter], gen: int) -> dict:
        """The terms of D_gen of the word with these letters, as a map from
        elements to int coefficients that may hold zeros.

        D(g^k) is the sum of the partial prefixes, signed: prefix g^t for
        0 <= t < k, and -prefix g^-t for 1 <= t <= |k| when k < 0.  The
        walk steps a prefix by multiplying it with ``generator_element``,
        one product per letter and per expanded term.
        """
        multiply, step = self.multiply, self.generator_element
        terms: dict = {}
        get = terms.get
        prefix = self.identity()
        for idx, exp in letters:
            if idx == gen:
                sign = 1 if exp > 0 else -1
                unit = step(idx, sign)
                cursor = prefix if exp > 0 else multiply(prefix, unit)
                for _ in range(abs(exp)):
                    terms[cursor] = get(cursor, 0) + sign
                    cursor = multiply(cursor, unit)
            prefix = multiply(prefix, step(idx, exp))
        return terms

    def evaluate(self, letters: Sequence[Letter]):
        """The element these letters spell, one ``multiply`` by
        ``generator_element`` per letter."""
        multiply, step = self.multiply, self.generator_element
        out = self.identity()
        for gen, exp in letters:
            out = multiply(out, step(gen, exp))
        return out

    def add_right_translates(self, data: dict, left: Mapping, h, d: int) -> None:
        """Add c*d at g*h to data for every term c*g of left: the share of
        the right-hand term d*h in the product left * right.  This default
        keeps a sum that reaches 0 in data."""
        multiply = self.multiply
        get = data.get
        for g, c in left.items():
            k = multiply(g, h)
            data[k] = get(k, 0) + c * d

    def sort_key(self, g):
        """Deterministic total order on elements, used for stable output;
        elements that are tuples of ints order as themselves."""
        return g

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
        """Quotient map: evaluate a free word in this group.  The quotient
        families override ``evaluate``, not this, so that a wrapper on
        ``GroupFamily.reduce_word`` sees each of their calls."""
        self._check_arity(w)
        return self.evaluate(w.letters)

    def element_str(self, g) -> str:
        return word_to_str(self.element_word(g), self.generators)


class FreeFamily(GroupFamily, Record):
    """Free group on distinct identifiers; elements are the Words themselves."""

    generators: tuple[str, ...]

    def __init__(self, generators: tuple[str, ...]) -> None:
        object.__setattr__(self, "generators", _generator_names(generators))

    def identity(self) -> Word:
        return Word()

    def multiply(self, a: Word, b: Word) -> Word:
        return a * b

    def invert(self, a: Word) -> Word:
        return a.inverse()

    def generator_element(self, index: int, exp: int = 1) -> Word:
        if (index.__class__ is int and 0 <= index < len(self.generators)
                and exp.__class__ is int and exp):
            return Word._trusted(((index, exp),))
        w = Word(((index, exp),))  # refuses a negative index and any non-int
        if index >= len(self.generators):
            raise IndexError(f"generator index {index} out of range")
        return w

    def sort_key(self, g: Word):
        return (g.length(), g.letters)

    def element_word(self, g: Word) -> Word:
        return g

    def reduce_word(self, w: Word) -> Word:
        self._check_arity(w)
        return w


class ZnFamily(GroupFamily, Record):
    """Z^n with generators g1..gn; elements are exponent vectors of length
    n, so n is at most ``configured_cap()``.  The rank is n.  The names are
    built on their first read and kept outside the fields, so a family that
    is made, pickled or copied and never named builds none of them."""

    n: int

    def __init__(self, n: int) -> None:
        as_int(n, "Zn family rank")
        if n < 1:
            raise DomainError("Zn family needs n >= 1")
        cap = configured_cap()
        if n > cap:
            raise CapExceeded(f"Zn family rank {n} is over the cap {cap}")
        object.__setattr__(self, "n", n)

    @property
    def generators(self) -> tuple[str, ...]:
        try:
            return self._names
        except AttributeError:
            names = tuple(f"g{i + 1}" for i in range(self.n))
            object.__setattr__(self, "_names", names)
            return names

    @property
    def rank(self) -> int:
        return self.n

    def identity(self) -> tuple[int, ...]:
        return (0,) * self.n

    def multiply(self, a, b):
        return tuple(map(add, a, b))

    def invert(self, a):
        return tuple(map(neg, a))

    def fox_terms(self, letters, gen):
        # one mutable prefix: a letter bumps one coordinate, and a tuple is
        # built only for each term emitted
        v = [0] * self.n
        terms: dict = {}
        get = terms.get
        for idx, exp in letters:
            if idx == gen:
                base = v[idx]
                sign, steps = (1, range(exp)) if exp > 0 else (-1, range(-1, exp - 1, -1))
                for t in steps:
                    v[idx] = base + t
                    g = tuple(v)
                    terms[g] = get(g, 0) + sign
                v[idx] = base + exp
            else:
                v[idx] += exp
        return terms

    def evaluate(self, letters):
        v = [0] * self.n
        for idx, exp in letters:
            v[idx] += exp
        return tuple(v)

    def add_right_translates(self, data, left, h, d):
        # a sum that reaches 0 is deleted, so zero-free data stays so
        get = data.get
        for g, c in left.items():
            k = tuple(map(add, g, h))
            c = get(k, 0) + c * d
            if c:
                data[k] = c
            else:
                del data[k]

    def element_word(self, g) -> Word:
        return Word(tuple((i, e) for i, e in enumerate(g) if e))


class NilFamily(GroupFamily, Record):
    """Central extension of Z^2 by Z with extension parameter z >= 1.

    Normal form a^k x^i y^j stored as (k, i, j); rewriting pushes central
    a's left and sorts x before y via yx -> a^-z xy.
    """

    z: int

    def __init__(self, z: int) -> None:
        as_int(z, "Nil family parameter")
        if z < 1:
            raise DomainError("Nil family needs z >= 1")
        object.__setattr__(self, "z", z)

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

    def evaluate(self, letters):
        # a^k x^i y^j as three ints; the a's that x-letters pick up past
        # the y's are summed as c and scaled by z once
        k = c = i = j = 0
        for idx, exp in letters:
            if idx == 0:
                k += exp
            elif idx == 1:
                c += j * exp
                i += exp
            elif idx == 2:
                j += exp
            else:
                raise IndexError(f"generator index {idx} out of range")
        return (k - self.z * c, i, j)

    def fox_terms(self, letters, gen):
        # One loop per differentiated generator, each carrying the prefix
        # a^k x^i y^j as three ints.  The terms prefix * gen^t of a letter
        # of gen are (k + t, i, j), (k - z*j*t, i + t, j) or (k, i, j + t);
        # a term whose sum reaches 0 is deleted at once.
        z = self.z
        terms: dict = {}
        get = terms.get
        k = i = j = 0
        if gen == 0:
            for idx, exp in letters:
                if idx == 0:
                    sign = 1 if exp > 0 else -1
                    for t in range(k, k + exp) if exp > 0 else range(k - 1, k + exp - 1, -1):
                        g = (t, i, j)
                        c = get(g, 0) + sign
                        if c:
                            terms[g] = c
                        else:
                            del terms[g]
                    k += exp
                elif idx == 1:
                    k -= z * j * exp
                    i += exp
                elif idx == 2:
                    j += exp
                else:
                    raise IndexError(f"generator index {idx} out of range")
        elif gen == 1:
            for idx, exp in letters:
                if idx == 1:
                    zj = z * j
                    sign = 1 if exp > 0 else -1
                    for t in range(exp) if exp > 0 else range(-1, exp - 1, -1):
                        g = (k - zj * t, i + t, j)
                        c = get(g, 0) + sign
                        if c:
                            terms[g] = c
                        else:
                            del terms[g]
                    k -= zj * exp
                    i += exp
                elif idx == 0:
                    k += exp
                elif idx == 2:
                    j += exp
                else:
                    raise IndexError(f"generator index {idx} out of range")
        elif gen == 2:
            for idx, exp in letters:
                if idx == 2:
                    sign = 1 if exp > 0 else -1
                    for t in range(j, j + exp) if exp > 0 else range(j - 1, j + exp - 1, -1):
                        g = (k, i, t)
                        c = get(g, 0) + sign
                        if c:
                            terms[g] = c
                        else:
                            del terms[g]
                    j += exp
                elif idx == 0:
                    k += exp
                elif idx == 1:
                    k -= z * j * exp
                    i += exp
                else:
                    raise IndexError(f"generator index {idx} out of range")
        return terms

    def add_right_translates(self, data, left, h, d):
        # (k1, i1, j1)(k2, i2, j2) = (k1 + k2 - z*j1*i2, i1 + i2, j1 + j2);
        # a sum that reaches 0 is deleted, so zero-free data stays so
        k2, i2, j2 = h
        zi = self.z * i2
        get = data.get
        for (k1, i1, j1), c in left.items():
            g = (k1 + k2 - zi * j1, i1 + i2, j1 + j2)
            c = get(g, 0) + c * d
            if c:
                data[g] = c
            else:
                del data[g]

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


def _generator_names(names: Sequence[str]) -> tuple[str, ...]:
    """The generator names as a tuple, checked to be distinct identifiers:
    parse_word splits a word at whitespace and looks each name up, so a
    name holding a space, or one used twice, could not be read back."""
    if isinstance(names, str):
        raise InputError(f"generator names {names!r} are one string, not a sequence of names")
    names = as_tuple(names, "generator names")
    seen = set()
    for name in names:
        if not isinstance(name, str):
            raise InputError(f"generator name {name!r} is not a string")
        if not name.isidentifier():
            raise InputError(f"bad generator name {name!r}")
        if name in seen:
            raise InputError(f"duplicate generator {name!r}")
        seen.add(name)
    return names


class Presentation(Record):
    """A finite presentation: generator names plus relator words, both
    stored as tuples, whatever sequences they come in, so the record hashes."""

    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __init__(self, generators: tuple[str, ...], relators: tuple[Word, ...]) -> None:
        generators = _generator_names(generators)
        relators = as_tuple(relators, "relators")
        for k, rel in enumerate(relators):
            if not isinstance(rel, Word):
                raise InputError(f"relator {k} is {rel!r}, not a Word")
            if rel.max_index() >= len(generators):
                raise InputError("relator references an undeclared generator")
        self.__dict__.update(generators=generators, relators=relators)

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

    The arguments and the expansion are first checked by
    ``check_fox_derivative``.  The walk itself is the family's ``fox_terms``
    kernel.  Returns a groupring.RingElem over the family.
    """
    from .groupring import RingElem  # words is below groupring in the layering

    gen = check_fox_derivative(w, gen, family)
    return RingElem._from_dict(family, family.fox_terms(w.letters, gen))


def check_fox_derivative(w: Word, gen: int | str, family: GroupFamily) -> int:
    """Every refusal of ``fox_derivative(w, gen, family)``, in its order,
    without expanding anything; returns gen as an index.

    Each letter g^k of the differentiated generator expands into |k| terms,
    so the sum of those |k| is checked against ``f2.configured_cap()``, read
    on each call, and CapExceeded is raised when it is over.
    """
    if isinstance(gen, str):
        gen = family.gen_index(gen)
    else:
        as_int(gen, "generator index")
    if gen < 0 or gen >= family.rank:
        raise InputError(f"generator index {gen} out of range")
    family._check_arity(w)
    expanded = sum(abs(exp) for idx, exp in w.letters if idx == gen)
    cap = configured_cap()
    if expanded > cap:
        name = family.generators[gen]
        raise CapExceeded(
            f"the Fox derivative in {name} expands {expanded} letters of {name}, "
            f"over the cap {cap}"
        )
    return gen


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
    if isinstance(obj, dict) and len(obj) == 1:
        [(tag, value)] = obj.items()
        if tag in ("nil", "zn"):
            if not is_int(value):
                raise InputError(f'family tag "{tag}" needs an integer, not {value!r}')
            return NilFamily(value) if tag == "nil" else ZnFamily(value)
        if tag == "free":
            if not isinstance(value, list) or not all(isinstance(g, str) for g in value):
                raise InputError(f'family tag "free" needs a list of names, not {value!r}')
            return FreeFamily(tuple(value))
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
        generators, relator_texts = obj["generators"], obj["relators"]
        family_tag = obj.get("family", "free")
    except (KeyError, TypeError) as exc:
        raise InputError(f"bad presentation JSON: {exc}") from None
    for field, value in (("generators", generators), ("relators", relator_texts)):
        if not isinstance(value, list) or not all(isinstance(t, str) for t in value):
            raise InputError(f'presentation field "{field}" needs a list of strings, '
                             f"not {value!r}")
    generators = tuple(generators)
    family = family_from_json(family_tag, generators)
    if not isinstance(family, FreeFamily) and generators != family.generators:
        raise InputError(
            f"presentation generators {generators} do not match the "
            f"family's {family.generators}"
        )
    relators = tuple(parse_word(t, generators) for t in relator_texts)
    return Presentation(generators, relators), family
