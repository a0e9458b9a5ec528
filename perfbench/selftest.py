"""Self-test of the benchmark:  python3 perfbench/run.py --self-test

1. The wrappers hit the bindings that actually run: tiny fixed inputs give
   exact span and counter values, so a later rename or import change cannot
   silently zero a layer.
2. The generator constants generate groups of the stated orders, and
   BENCHMARK.json lists exactly the per-layer metrics the traced run prints.
3. The first round of every workload at the default seed reproduces the
   pinned sha256 digest of its canonical outputs (expected.json).
4. The computed counts of that round are printed next to the recorded ones;
   a difference is reported, not failed, since an optimisation may move them.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
from contextlib import redirect_stdout
from io import StringIO

import f2ref
import metrics
import tracer as tracing
import workloads

RECORDED = [
    "f2.group_closure.elements", "f2.matmul.calls", "groupring.mul.term_pairs",
    "forms.ldlt_signature.n_cubed", "forms.direct_sum.entries_built",
    "words.Word.mul.letters_in",
]


def _case(name, fn, want: dict) -> list[str]:
    tr = tracing.install()
    try:
        fn()
    finally:
        tr.uninstall()
    got = {**{f"{k}.calls": v for k, v in tr.calls.items()}, **tr.count}
    errors = [f"{name}: {key} = {got.get(key, 0)}, expected {value}"
              for key, value in want.items() if got.get(key, 0) != value]
    if tr.missing:
        errors.append(f"{name}: bindings not found: {tr.missing}")
    return errors


def wrapper_cases() -> list[str]:
    cl = importlib.import_module("stable4.classify")
    cli = importlib.import_module("stable4.cli")
    f2 = importlib.import_module("stable4.f2")
    fo = importlib.import_module("stable4.forms")
    gr = importlib.import_module("stable4.groupring")
    mo = importlib.import_module("stable4.models")
    wo = importlib.import_module("stable4.words")
    z3, zero3 = cl.family_z3(), f2.F2Vec.zero(3)
    ring_z3, nil2 = wo.ZnFamily(3), wo.NilFamily(2)
    free = wo.FreeFamily(("x", "y"))
    even = lambda tau: cl.InvariantTuple(zero3, 0, fo.Parity.EVEN, f2.F2Vec.from_bits(tau))
    m0 = mo.model_M_sigma(ring_z3, 0)
    x = gr.RingElem.group(ring_z3, (1, 0, 0))
    y = gr.RingElem.group(ring_z3, (0, 1, 0))
    one = gr.RingElem.one(ring_z3)
    original_closure = f2.group_closure
    errors = []
    # GL_3(F_2) has order 168, 3 generators; the stabilizer of a nonzero
    # dual vector has order 24; ker<100,-> has 4 vectors.
    errors += _case("classify z3 w=100", lambda: cl.classify(z3, f2.F2Vec.from_bits("100"), "smooth"), {
        "classify.classify.calls": 1, "classify.stabilizer_of_w.calls": 1,
        "classify.spin_state_orbits.calls": 0, "f2.group_closure.calls": 1,
        "f2.group_closure.elements": 168, "f2.matmul.calls": 504,
        "f2.orbits.calls": 1, "f2.orbits.states": 4,
        "classify.stabilizer.kept": 24, "classify.stabilizer.closure_elements": 168,
    })
    errors += _case("classify z3 spin", lambda: cl.classify(z3, zero3, "smooth"), {
        "classify.classify.calls": 1, "classify.spin_state_orbits.calls": 1,
        "f2.group_closure.calls": 0,
    })
    errors += _case("decide z3 spin", lambda: cl.decide_stable_equiv(even("100"), even("010"), "smooth", z3), {
        "classify.decide_stable_equiv.calls": 1, "f2.orbit_of.calls": 1,
        "classify.stabilizer_of_w.calls": 0,
    })
    # M_1 (2x2) plus E8 + E8: one 16x16 sum, then one 18x18 sum.
    errors += _case("realize z3 odd 16", lambda: mo.realize_form(ring_z3, zero3, 16, fo.Parity.ODD), {
        "models.realize_form.calls": 1, "models.model_P.calls": 0,
        "forms.direct_sum.calls": 2, "forms.direct_sum.entries_built": 16 ** 2 + 18 ** 2,
    })
    errors += _case("ldlt 3x3", lambda: fo.ldlt_signature([[2, 1, 0], [1, 2, 1], [0, 1, 2]]), {
        "forms.ldlt_signature.calls": 1, "forms.ldlt_signature.n_cubed": 27,
    })
    # Three prefix products, one step for x, two for x^-1.
    errors += _case("fox free", lambda: wo.fox_derivative(wo.parse_word("x y x^-1", free.generators), 0, free), {
        "words.fox_derivative.calls": 1, "words.multiply.calls": 6, "words.Word.mul.calls": 6,
    })
    # 3 relators x 3 generators, through the name models imported.
    errors += _case("model_P nil:2", lambda: mo.model_P(mo.builtin_presentation(nil2), nil2, "111"), {
        "models.model_P.calls": 1, "words.fox_derivative.calls": 9,
    })
    errors += _case("invariants_of M_0", lambda: cl.invariants_of(m0), {
        "forms.parity.calls": 1, "groupring.in_image_one_plus_T.calls": 1,
    })
    errors += _case("ring product", lambda: (one + x) * (one - y), {
        "groupring.mul.calls": 1, "groupring.mul.term_pairs": 4, "groupring.mul.terms_out": 4,
    })
    errors += _case("cli orbits", lambda: _quiet(cli.main, ["orbits", "--family", "nil:2"]), {
        "cli.main.calls": 1, "f2.orbits.calls": 1,
    })
    if not (cl.group_closure is f2.group_closure is original_closure):
        errors.append("uninstall left a wrapper on group_closure")
    return errors


def _quiet(fn, *args):
    with redirect_stdout(StringIO()):
        return fn(*args)


def constant_errors() -> list[str]:
    """The generator sets in workloads.py generate groups of the stated order."""
    want = {"PARABOLIC": 1344, "GL4": 20160, "GL3": 168}
    errors = []
    for name, order in want.items():
        size = f2ref.closure_size(getattr(workloads, name))
        if size != order:
            errors.append(f"{name} generates {size} elements, expected {order}")
    return errors


def catalog_errors() -> list[str]:
    with open(os.path.join(metrics.ROOT, "BENCHMARK.json")) as fh:
        listed = json.load(fh)["per_layer"]
    if listed != metrics.per_layer_catalog():
        return ["BENCHMARK.json per_layer differs from metrics.per_layer_catalog()"]
    return []


def workload_round(name: str, outdir: str) -> tuple[str, dict, int]:
    """Digest (untraced) and computed counts (traced) of round 0."""
    seed = metrics.DEFAULT_SEED
    make = workloads.WORKLOADS[name]
    plain_workload = make(seed, outdir)
    plain = metrics.measure(plain_workload, plain_workload.ops(0), 0,
                            digest=True, min_ops=0)
    traced_workload = make(seed, outdir)
    first = traced_workload.ops(0)
    tr = tracing.install()
    traced_workload.inprocess = True
    try:
        result = metrics.measure(traced_workload, first, 0, tr, min_ops=0)
    finally:
        tr.uninstall()
    values = metrics.per_layer(result, {})
    return plain["digest"], {k: values[k] for k in RECORDED}, plain["failed"] + result["failed"]


def main(outdir: str) -> int:
    errors = wrapper_cases() + constant_errors() + catalog_errors()
    pinned = metrics.expected()
    found = {"digests": {}, "counts": {}}
    for name in workloads.WORKLOADS:
        digest, counts, failed = workload_round(name, outdir)
        found["digests"][name], found["counts"][name] = digest, counts
        if failed:
            errors.append(f"{name}: {failed} operations failed their checks")
        if digest != pinned["digests"].get(name):
            errors.append(f"{name}: digest {digest} differs from the pinned one")
        for key, value in counts.items():
            was = pinned["computed_counts"].get(name, {}).get(key)
            if value != was:
                print(f"note: {name} {key} = {value}, recorded {was}", file=sys.stderr)
    for line in errors:
        print(f"FAIL {line}", file=sys.stderr)
    print(json.dumps({"ok": not errors, **found}, sort_keys=True))
    return 1 if errors else 0
