"""The four benchmark workloads: seeded inputs, operations and output checks.

A workload is a sequence of rounds.  Every round has the same composition
(the same number of operations of each kind and size), and the seed and the
round number choose the rest: families, w-types, signatures, words, order.
The benchmark measures whole rounds, so the mix of costs in a run does not
depend on the seed, while no two rounds repeat an input.

An operation has `run` (timed, calls stable4), `check` (untimed, returns
True when the output is right) and `canon` (untimed, canonical bytes of the
output for the pinned digest).  Checks use perfbench.f2ref, not stable4,
wherever the check recomputes something.
"""

from __future__ import annotations

import importlib
import json
import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO

import f2ref

cl = importlib.import_module("stable4.classify")
f2 = importlib.import_module("stable4.f2")
fo = importlib.import_module("stable4.forms")
gr = importlib.import_module("stable4.groupring")
mo = importlib.import_module("stable4.models")
wo = importlib.import_module("stable4.words")

# Out-image generators of the custom d=4 families, as row bitmasks.
# PARABOLIC generates the order-1344 stabilizer of e_1 in GL_4(F_2);
# GL4 generates all of GL_4(F_2), order 20160.  Each round conjugates them
# by a seeded invertible matrix, which keeps the order and the cost.
PARABOLIC = ((7, 14, 4, 2), (3, 6, 12, 4), (15, 14, 8, 2))
GL4 = ((10, 4, 12, 1), (6, 1, 2, 13))
GL3 = ((2, 1, 4), (4, 1, 2), (3, 2, 4))


class Op:
    __slots__ = ("kind", "run", "check", "canon")

    def __init__(self, kind, run, check, canon):
        self.kind, self.run, self.check, self.canon = kind, run, check, canon


def _dumps(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def _rows(family) -> list[tuple[int, ...]]:
    return [m.rows for m in family.out_generators]


def _random_nonzero(rng, d: int):
    return f2.F2Vec(d, rng.randrange(1, 1 << d))


def _random_word(rng, length: int, max_exp: int):
    """A freely reduced word of exactly `length` syllables on 3 generators."""
    exps = [e for e in range(-max_exp, max_exp + 1) if e]
    letters, last = [], -1
    for _ in range(length):
        gen = rng.choice([g for g in range(3) if g != last])
        letters.append((gen, rng.choice(exps)))
        last = gen
    return wo.Word(tuple(letters))


# ---------------------------------------------------------------------------
# tables: classification tables and the pairwise decision


def check_table(table, family, w, category) -> bool:
    """Orbits partition the domain and each one is a single orbit."""
    if w is mo.INFINITY:
        return (table.signature_stride == 1 and len(table.classes) == 1
                and table.classes[0].kind == "signature-only")
    d, smooth = family.d, category == cl.SMOOTH
    if w.bits == 0:
        gens = _rows(family)
        if [e.kind for e in table.classes].count("odd") != 1:
            return False
        stride, domain = (16 if smooth else 8), set(range(1 << d))
    else:
        gens = f2ref.stabilizer_generators(_rows(family), w.bits)
        stride = 8
        domain = {v for v in range(1 << d)
                  if not smooth or (v & w.bits).bit_count() % 2 == 0}
    if table.signature_stride != stride:
        return False
    covered: set[int] = set()
    for entry in table.classes:
        if entry.kind != "orbit":
            continue
        part = {v.bits for v in entry.orbit}
        if part & covered or f2ref.orbit(entry.orbit[0].bits, gens) != part:
            return False
        covered |= part
    return covered == domain


def expected_verdict(a, b, family) -> bool:
    if a.w is mo.INFINITY or b.w is mo.INFINITY:
        return a.w is b.w and a.signature == b.signature
    if a.w.bits != b.w.bits or a.signature != b.signature or a.parity != b.parity:
        return False
    if a.parity is fo.Parity.ODD:
        return True
    gens = _rows(family)
    if a.w.bits:
        gens = f2ref.stabilizer_generators(gens, a.w.bits)
    return b.tau.bits in f2ref.orbit(a.tau.bits, gens)


class Tables:
    """classify and decide_stable_equiv over z3, nil:1..8 and custom d=4."""

    def __init__(self, seed: int, outdir: str) -> None:
        self.seed = seed
        self.builtin = [cl.family_z3()] + [cl.family_nil(z) for z in range(1, 9)]
        self.nil_odd = [f for f in self.builtin if f.d == 2]
        self.d3 = [f for f in self.builtin if f.d == 3]

    def _custom(self, rng, name, base, r):
        g = f2ref.random_invertible(rng, 4)
        mats = [f2.F2Mat(4, rows) for rows in f2ref.conjugate_all(base, g)]
        return cl.family_custom(f"{name}-{self.seed}-{r}", 4, mats)

    def _classify(self, family, w, category) -> Op:
        return Op(
            "classify",
            lambda: cl.classify(family, w, category),
            lambda t: check_table(t, family, w, category),
            lambda t: _dumps(cl.table_to_json(t)),
        )

    def _decide(self, family, a, b, category) -> Op:
        return Op(
            "decide",
            lambda: cl.decide_stable_equiv(a, b, category, family),
            lambda v: v is expected_verdict(a, b, family),
            lambda v: _dumps([cl.invariant_tuple_to_json(a),
                              cl.invariant_tuple_to_json(b), v]),
        )

    def _spin_pair(self, rng, family, category):
        d, zero = family.d, f2.F2Vec.zero(family.d)
        stride = 16 if category == cl.SMOOTH else 8
        sigma = stride * rng.randrange(-4, 5)
        kind = rng.choice(("even", "even", "odd", "mixed"))
        even = lambda: cl.InvariantTuple(zero, sigma, fo.Parity.EVEN,
                                         f2.F2Vec(d, rng.randrange(1 << d)))
        odd = cl.InvariantTuple(zero, sigma, fo.Parity.ODD, None)
        if kind == "even":
            return even(), even()
        if kind == "odd":
            return odd, odd
        return even(), odd

    def _almost_spin_pair(self, rng, family):
        d = family.d
        w = _random_nonzero(rng, d)
        sigma = 8 * rng.randrange(-4, 5)
        tau = lambda: f2.F2Vec(d, rng.randrange(1 << d))
        return (cl.InvariantTuple(w, sigma, fo.Parity.EVEN, tau()),
                cl.InvariantTuple(w, sigma, fo.Parity.EVEN, tau()))

    def ops(self, r: int) -> list[Op]:
        """44 operations, in rising cost: 4 INFINITY tables, 4 spin
        decisions, 6 nil odd tables (any w), 3 z3 spin tables, 10 nil:even
        spin tables (~0.9 ms; p50 falls among them), 2 spin tables of the
        round's parabolic family, 2 nil:even and 2 z3 almost-spin tables,
        8 almost-spin tables and 2 almost-spin decisions over the parabolic
        family (order-1344 closure, ~80 ms; p90 falls among them) and one
        almost-spin table over GL_4(F_2) (~0.7 s)."""
        rng = random.Random(f"tables:{self.seed}:{r}")
        para = self._custom(rng, "parabolic", PARABOLIC, r)
        gl4 = self._custom(rng, "gl4", GL4, r)
        cat = lambda: rng.choice((cl.SMOOTH, cl.TOPOLOGICAL))
        zero = lambda f: f2.F2Vec.zero(f.d)
        z3, nil_even = self.d3[0], self.d3[1:]
        ops = []
        for _ in range(4):
            ops.append(self._classify(rng.choice(self.builtin + [para]), mo.INFINITY, cat()))
        for _ in range(4):
            f, c = rng.choice(self.builtin), cat()
            ops.append(self._decide(f, *self._spin_pair(rng, f, c), c))
        for _ in range(6):
            f = rng.choice(self.nil_odd)
            ops.append(self._classify(f, f2.F2Vec(2, rng.randrange(4)), cat()))
        ops += [self._classify(z3, zero(z3), cat()) for _ in range(3)]
        for _ in range(10):
            f = rng.choice(nil_even)
            ops.append(self._classify(f, zero(f), cat()))
        ops += [self._classify(para, zero(para), cat()) for _ in range(2)]
        for family in (nil_even, [z3]):
            for _ in range(2):
                ops.append(self._classify(rng.choice(family), _random_nonzero(rng, 3), cat()))
        for _ in range(8):
            ops.append(self._classify(para, _random_nonzero(rng, 4), cat()))
        for _ in range(2):
            ops.append(self._decide(para, *self._almost_spin_pair(rng, para), cl.TOPOLOGICAL))
        ops.append(self._classify(gl4, _random_nonzero(rng, 4), cat()))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# forms: realization round trips


TYPES = ("infinity", "odd", "even", "almost")
# Slots of one round in rising cost.  Each quantile falls inside a run of
# identical slots: p50 among the six (even, 16) targets, P(gamma) + 2 E8
# with many small group-ring entries; p90 among the three (odd, 128)
# targets, M_1 + 16 E8, where dense direct sums and the O(n^3) LDL^T rule.
SLOTS = ([("infinity", 0), ("odd", 0), ("almost", 0), ("almost", 8),
          ("infinity", 8), ("odd", 8), ("infinity", 16)]
         + [("even", 16)] * 6
         + [("almost", 48), ("odd", 48), ("infinity", 64)]
         + [("odd", 128)] * 3)


class Forms:
    """realize_form -> invariants_of -> signature -> JSON and back."""

    def __init__(self, seed: int, outdir: str) -> None:
        self.seed = seed
        self.families = [wo.ZnFamily(3)] + [wo.NilFamily(z) for z in range(1, 5)]

    def _target(self, rng, kind: str, size: int):
        family = rng.choice(self.families)
        d = mo.h2_dimension(family)
        sigma = size * rng.choice((1, -1))
        category = "topological"
        if kind != "infinity" and sigma % 16 == 0 and rng.random() < 0.5:
            category = "smooth"
        if kind == "infinity":
            return family, mo.INFINITY, sigma, None, None, category
        zero = f2.F2Vec.zero(d)
        if kind == "odd":
            return family, zero, sigma, fo.Parity.ODD, None, category
        if kind == "even":
            tau = f2.F2Vec(d, rng.randrange(1 << d))
            return family, zero, sigma, fo.Parity.EVEN, tau, category
        return family, _random_nonzero(rng, d), sigma, fo.Parity.EVEN, zero, category

    def _op(self, target) -> Op:
        family, w, sigma, parity, tau, category = target
        expected = cl.InvariantTuple(
            w, sigma, parity, None if parity is fo.Parity.ODD else tau)
        # P(gamma) carries group-ring entries, so its signature is read from
        # the augmented shadow; every other model is an integer form.
        integer = not (parity is fo.Parity.EVEN and w is not mo.INFINITY and w.bits == 0)

        def run():
            h = mo.realize_form(family, w, sigma, parity, tau, category=category)
            found = cl.invariants_of(h, category)
            if integer:
                signature = fo.signature_int(h.form)
            else:
                signature = fo.augmentation_signature(h.form)
            blob = mo.han1_to_json(h)
            return h, found, signature, blob, mo.han1_from_json(blob)

        def check(out):
            h, found, signature, _, back = out
            return (found == expected and signature == sigma
                    and back.w == h.w and back.signature == sigma
                    and back.tau == h.tau and back.form == h.form)

        return Op(f"realize:{sigma}", run, check,
                  lambda out: _dumps([cl.invariant_tuple_to_json(out[1]), out[2], out[3]]))

    def ops(self, r: int) -> list[Op]:
        """20 targets: 16 with |sigma| <= 64, three at 128 and one at 256.
        The type of the 256 target cycles with the round number, so every
        seed gets the same mix."""
        rng = random.Random(f"forms:{self.seed}:{r}")
        slots = SLOTS + [(TYPES[r % 4], 256)]
        ops = [self._op(self._target(rng, kind, size)) for kind, size in slots]
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# fox: Fox calculus, the P(gamma) models and large group-ring products


class Fox:
    """Fox derivatives checked by the fundamental identity, model_P, and
    products D_i * conj(D_j) of ~100-term elements."""

    def __init__(self, seed: int, outdir: str) -> None:
        self.seed = seed
        self.free = wo.FreeFamily(("x", "y", "z"))
        self.z3 = wo.ZnFamily(3)
        self.nil = [wo.NilFamily(z) for z in range(1, 9)]

    def _fox(self, family, word) -> Op:
        def run():
            derivs = [wo.fox_derivative(word, j, family) for j in range(3)]
            one = gr.RingElem.one(family)
            total = gr.RingElem.zero(family)
            for j, dj in enumerate(derivs):
                total = total + dj * (gr.RingElem.group(family, family.generator_element(j)) - one)
            return derivs, total, gr.RingElem.group(family, family.reduce_word(word)) - one

        return Op(
            f"fox:{type(family).__name__}:{len(word.letters)}",
            run,
            lambda out: out[1] == out[2],
            lambda out: _dumps([gr.ring_elem_to_json(x) for x in out[0]]),
        )

    def _model_p(self, rng, family) -> Op:
        odd_nil = isinstance(family, wo.NilFamily) and family.z % 2
        while True:
            bits = [rng.randrange(2) for _ in range(3)]
            if not (odd_nil and bits[0]):  # gamma(a) must vanish for odd z
                break
        gamma = "".join(map(str, bits))
        if isinstance(family, wo.ZnFamily):
            tau = gamma
        else:
            tau = gamma[1:] if odd_nil else gamma[1:] + gamma[0]
        pres = mo.builtin_presentation(family)

        def check(h):
            return (h.tau.bits == f2ref.bits_of(tau) and h.form.matrix.size == 8
                    and fo.parity(h.form) is fo.Parity.EVEN)

        return Op("model_P", lambda: mo.model_P(pres, family, gamma), check,
                  lambda h: _dumps(mo.han1_to_json(h)))

    def _product(self, rng, family) -> Op:
        word = _random_word(rng, 140, 3)
        i, j = rng.sample(range(3), 2)
        x = wo.fox_derivative(word, i, family)
        y = wo.fox_derivative(word, j, family)
        aug = gr.augmentation(x) * gr.augmentation(y)
        return Op("product", lambda: x * y.conjugate(),
                  lambda out: gr.augmentation(out) == aug,
                  lambda out: _dumps(gr.ring_elem_to_json(out)))

    def ops(self, r: int) -> list[Op]:
        """20 operations in four cost bands, so that each quantile falls
        inside a band of identical operations: 7 under ~20 ms (model_P,
        products, a 100-letter free word), 6 free words of 200 letters
        (~60 ms, p50), 4 at ~120 ms (300-letter free words, 8000-syllable
        z3 words) and 3 nil words of 20000 syllables (~280 ms, p90)."""
        rng = random.Random(f"fox:{self.seed}:{r}")
        nil = lambda: rng.choice(self.nil)
        ops = [self._model_p(rng, rng.choice([self.z3] + self.nil)) for _ in range(4)]
        ops += [self._product(rng, rng.choice((self.z3, nil()))) for _ in range(2)]
        for length in (100,) + (200,) * 6 + (300, 300):
            ops.append(self._fox(self.free, _random_word(rng, length, 1)))
        for _ in range(2):
            ops.append(self._fox(self.z3, _random_word(rng, 8000, 3)))
        for _ in range(3):
            ops.append(self._fox(nil(), _random_word(rng, 20000, 3)))
        rng.shuffle(ops)
        return ops


# ---------------------------------------------------------------------------
# cli: whole command-line runs


def _arf_bruteforce(rows, values: int) -> int:
    """The value q takes on the majority of vectors."""
    d = len(rows)
    ones = 0
    for v in range(1 << d):
        q = (values & v).bit_count()
        for i in range(d):
            if v >> i & 1:
                q += ((rows[i] >> (i + 1)) & (v >> (i + 1))).bit_count()
        ones += q & 1
    return int(ones > (1 << d) // 2)


class Cli:
    """Ten commands per round, each a fresh `python -m stable4.cli` process.

    With `inprocess` set (the traced run) the same commands go through
    stable4.cli.main in this process instead, so the wrappers see them.
    """

    def __init__(self, seed: int, outdir: str) -> None:
        self.seed = seed
        self.outdir = os.path.join(outdir, f"cli-{seed}")
        os.makedirs(self.outdir, exist_ok=True)
        self.inprocess = False
        self.stdout_bytes = 0
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        self.env = dict(os.environ, PYTHONPATH=os.path.join(self.root, "src"))
        self.specs = ["z3"] + [f"nil:{z}" for z in range(1, 9)]
        self.families = {s: cl.family_z3() if s == "z3" else cl.family_nil(int(s[4:]))
                         for s in self.specs}

    @property
    def spawns(self) -> bool:
        """Operations run in child processes, whose CPU time they cost."""
        return not self.inprocess

    def _file(self, r: int, name: str, obj) -> str:
        path = os.path.join(self.outdir, f"r{r}-{name}.json")
        with open(path, "w") as fh:
            json.dump(obj, fh)
        return path

    def _run(self, argv):
        if self.inprocess:
            buf = StringIO()
            cli = sys.modules["stable4.cli"]
            with redirect_stdout(buf):
                code = cli.main(list(argv))
            stdout = buf.getvalue().encode()
        else:
            proc = subprocess.run([sys.executable, "-m", "stable4.cli", *argv],
                                  cwd=self.root, env=self.env, capture_output=True,
                                  timeout=60)
            code, stdout = proc.returncode, proc.stdout
        self.stdout_bytes += len(stdout)
        return code, stdout

    def _op(self, argv, check) -> Op:
        def full_check(out):
            code, stdout = out
            return code == 0 and check(json.loads(stdout))

        return Op(argv[0], lambda: self._run(argv), full_check, lambda out: out[1])

    def ops(self, r: int) -> list[Op]:
        rng = random.Random(f"cli:{self.seed}:{r}")
        spec = lambda: rng.choice(self.specs)
        ops = []

        s = spec()
        d = self.families[s].d
        w = rng.choice(["0", "infinity", f2ref.to_text(rng.randrange(1, 1 << d), d)])
        ops.append(self._op(["classify", "--family", s, "--w", w, "--category",
                             rng.choice(("smooth", "top"))],
                            lambda out: len(out["classes"]) >= 1))

        s = spec()
        family = self.families[s]
        d = family.d
        taus = [rng.randrange(1 << d) for _ in range(2)]
        tuples = [{"w": "0" * d, "signature": 16, "parity": "even",
                   "tau": f2ref.to_text(t, d)} for t in taus]
        same = taus[1] in f2ref.orbit(taus[0], _rows(family))
        ops.append(self._op(
            ["decide", "--a", self._file(r, "a", tuples[0]), "--b",
             self._file(r, "b", tuples[1]), "--category", "top", "--family", s],
            lambda out: out["verdict"] == ("EQUIVALENT" if same else "DISTINCT")))

        s = spec()
        gamma = "0" + "".join(str(rng.randrange(2)) for _ in range(2))
        ops.append(self._op(["model", "--kind", "P", "--family", s, "--gamma", gamma],
                            lambda out: out["parity"] == "even"))

        for parity in ("odd", "even"):
            s = spec()
            argv = ["model", "--kind", "realize", "--family", s, "--w", "0",
                    "--signature", "64", "--parity", parity]
            if parity == "even":
                d = self.families[s].d
                argv += ["--tau", f2ref.to_text(rng.randrange(1 << d), d)]
            ops.append(self._op(argv, lambda out, p=parity: out["parity"] == p
                                and out["signature"] == 64))

        word = " ".join(f"{'xyz'[g]}^{e}" for g, e in _random_word(rng, 100, 2).letters)
        ops.append(self._op(["fox", "--word", word, "--gen", rng.choice("xyz")],
                            lambda out: isinstance(out["derivative"], list)))

        s = spec()
        states = 1 << self.families[s].d
        ops.append(self._op(["orbits", "--family", s],
                            lambda out: sum(map(len, out["orbits"])) == states))

        s = spec()
        fam = wo.parse_family_spec(s)
        pres = mo.builtin_presentation(fam)
        bits = "0" + "".join(str(rng.randrange(2)) for _ in range(2))
        form = mo.han1_to_json(mo.model_P(pres, fam, bits))["form"]
        ops.append(self._op(["parity", "--form", self._file(r, "form", form)],
                            lambda out: out["parity"] == "Even"))

        genus = rng.choice((2, 3))
        a = f2ref.random_invertible(rng, 2 * genus)
        std = tuple(1 << (i ^ 1) for i in range(2 * genus))
        bilinear = f2ref.matmul(f2ref.transpose(a), f2ref.matmul(std, a))
        values = rng.randrange(1 << (2 * genus))
        arf = _arf_bruteforce(bilinear, values)
        q = {"bilinear": [f2ref.to_text(row, 2 * genus) for row in bilinear],
             "values": f2ref.to_text(values, 2 * genus)}
        ops.append(self._op(["arf", "--q", self._file(r, "q", q)],
                            lambda out: out["arf"] == arf))

        gens = f2ref.conjugate_all(GL3, f2ref.random_invertible(rng, 3))
        path = self._file(r, "gens", [[f2ref.to_text(row, 3) for row in m] for m in gens])
        ops.append(self._op(["closure", "--generators", path],
                            lambda out: out["size"] == 168))
        rng.shuffle(ops)
        return ops


WORKLOADS = {"tables": Tables, "forms": Forms, "fox": Fox, "cli": Cli}
