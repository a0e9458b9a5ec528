"""Per-layer tracing of stable4 from outside the package.

`install` wraps the public functions and methods at each layer boundary and
returns a Tracer.  Nothing under src/ is edited: functions are replaced in
every stable4 module namespace that holds them, because modules import each
other's names (classify binds f2.group_closure, models binds
words.fox_derivative, cli binds classify.classify as build_table), and
patching only the defining module would record nothing.

Three kinds of wrapper:
* span    -- a record (id, parent, op, name, start, end) kept in memory while
             `keep` is set, plus per-name calls and self time.  Self time is
             the duration minus the time covered by child spans.
* timed   -- calls and self time but no record; for leaves called too often
             to keep a record of each call.
* counter -- calls and computed counts only; for the hot leaf methods
             (F2Mat.apply, F2Mat.__matmul__, family multiply, Word.__mul__,
             RingElem.__eq__), which run millions of times per run.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("words", "groupring", "forms", "models", "f2", "classify", "cli")


class Tracer:
    def __init__(self) -> None:
        self.on = True  # False while the benchmark checks outputs
        self.keep = True  # keep span records (first round only)
        self.op_id = -1
        self.stack: list[list] = []  # [span id, child seconds, name]
        self.spans: list[tuple] = []
        self.next_id = 0
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.count: Counter = Counter()
        self.missing: list[str] = []
        self._restore: list[tuple] = []

    def snapshot(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "count": dict(self.count),
        }

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for sid, parent, op, name, start, end in self.spans:
                fh.write(json.dumps(
                    {"id": sid, "parent": parent, "op": op, "name": name,
                     "start": start, "end": end}) + "\n")

    # -- wrappers

    def span(self, name, fn, extra=None, record=True):
        tr = self
        stack, calls, self_s = self.stack, self.calls, self.self_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            tr.next_id += 1
            sid = tr.next_id
            parent = stack[-1][0] if stack else 0
            frame = [sid, 0.0, name]
            stack.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                duration = end - start
                calls[name] += 1
                self_s[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                if record and tr.keep:
                    tr.spans.append((sid, parent, tr.op_id, name, start, end))
            if extra is not None:
                extra(tr, result, args)
            return result

        return wrapper

    def counter(self, name, fn, extra=None):
        tr = self
        calls = self.calls

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tr.on:
                calls[name] += 1
                if extra is not None:
                    extra(tr, args)
            return fn(*args, **kwargs)

        return wrapper

    # -- patching

    def patch_function(self, module: str, attr: str, wrap) -> None:
        """Replace module.attr in every stable4 namespace that binds it."""
        mod = sys.modules[f"stable4.{module}"]
        original = getattr(mod, attr, None)
        if original is None:
            self.missing.append(f"{module}.{attr}")
            return
        wrapped = wrap(original)
        for name, other in list(sys.modules.items()):
            if name != "stable4" and not name.startswith("stable4."):
                continue
            for key, value in list(vars(other).items()):
                if value is original:
                    self._restore.append((other, key, original))
                    setattr(other, key, wrapped)

    def patch_method(self, cls, attr: str, wrap) -> None:
        original = cls.__dict__.get(attr)
        if original is None:
            self.missing.append(f"{cls.__name__}.{attr}")
            return
        self._restore.append((cls, attr, original))
        setattr(cls, attr, wrap(original))


# ---------------------------------------------------------------------------
# Computed counts attached to wrappers


def _closure_elements(tr, result, args):
    tr.count["f2.group_closure.elements"] += len(result)
    if tr.stack and tr.stack[-1][2] == "classify.stabilizer_of_w":
        tr.count["classify.stabilizer.closure_elements"] += len(result)


def _orbit_states(tr, result, args):
    tr.count["f2.orbits.states"] += sum(len(orb) for orb in result)


def _stabilizer_kept(tr, result, args):
    tr.count["classify.stabilizer.kept"] += len(result)


def _ldlt_n_cubed(tr, result, args):
    tr.count["forms.ldlt_signature.n_cubed"] += len(args[0]) ** 3


def _hermitian_entries(tr, result, args):
    tr.count["forms.is_hermitian.entries"] += args[0].size ** 2


def _direct_sum_entries(tr, result, args):
    tr.count["forms.direct_sum.entries_built"] += result.size ** 2


def _mul_terms(tr, result, args):
    a, b = args
    tr.count["groupring.mul.term_pairs"] += len(a) * (1 if isinstance(b, int) else len(b))
    tr.count["groupring.mul.terms_out"] += len(result)


def _word_letters(tr, args):
    tr.count["words.Word.mul.letters_in"] += len(args[0].letters) + len(args[1].letters)


def install() -> Tracer:
    """Import every stable4 layer and wrap its boundary functions."""
    mods = {name: importlib.import_module(f"stable4.{name}") for name in MODULES}
    f2, forms, groupring, words = (mods[k] for k in ("f2", "forms", "groupring", "words"))
    tr = Tracer()
    span = lambda name, extra=None: (lambda fn: tr.span(name, fn, extra))
    timed = lambda name, extra=None: (lambda fn: tr.span(name, fn, extra, record=False))
    counter = lambda name, extra=None: (lambda fn: tr.counter(name, fn, extra))

    tr.patch_function("f2", "group_closure", span("f2.group_closure", _closure_elements))
    tr.patch_function("f2", "orbits", span("f2.orbits", _orbit_states))
    tr.patch_function("f2", "orbit_of", span("f2.orbit_of"))
    tr.patch_method(f2.F2Mat, "apply", counter("f2.apply"))
    tr.patch_method(f2.F2Mat, "__matmul__", counter("f2.matmul"))

    tr.patch_function("classify", "classify", span("classify.classify"))
    tr.patch_function("classify", "spin_state_orbits", span("classify.spin_state_orbits"))
    tr.patch_function("classify", "stabilizer_of_w",
                      span("classify.stabilizer_of_w", _stabilizer_kept))
    tr.patch_function("classify", "decide_stable_equiv", span("classify.decide_stable_equiv"))

    tr.patch_function("forms", "ldlt_signature", span("forms.ldlt_signature", _ldlt_n_cubed))
    tr.patch_function("forms", "parity", span("forms.parity"))
    tr.patch_function("forms", "form_to_json", span("forms.form_json"))
    tr.patch_function("forms", "form_from_json", span("forms.form_json"))
    tr.patch_method(forms.RingMatrix, "is_hermitian",
                    span("forms.is_hermitian", _hermitian_entries))
    tr.patch_method(forms.RingMatrix, "direct_sum",
                    span("forms.direct_sum", _direct_sum_entries))

    tr.patch_function("models", "realize_form", span("models.realize_form"))
    tr.patch_function("models", "model_P", span("models.model_P"))
    tr.patch_function("models", "han1_to_json", span("models.han1_json"))
    tr.patch_function("models", "han1_from_json", span("models.han1_json"))

    tr.patch_method(groupring.RingElem, "__mul__", timed("groupring.mul", _mul_terms))
    tr.patch_method(groupring.RingElem, "conjugate", timed("groupring.conjugate"))
    tr.patch_method(groupring.RingElem, "__eq__", counter("groupring.eq"))
    tr.patch_function("groupring", "in_image_one_plus_T",
                      span("groupring.in_image_one_plus_T"))

    tr.patch_function("words", "fox_derivative", span("words.fox_derivative"))
    tr.patch_method(words.Word, "__mul__", counter("words.Word.mul", _word_letters))
    for family in (words.FreeFamily, words.ZnFamily, words.NilFamily):
        tr.patch_method(family, "multiply", counter("words.multiply"))
    for family in (words.GroupFamily, words.FreeFamily):
        tr.patch_method(family, "reduce_word", span("words.reduce_word"))

    tr.patch_function("cli", "main", span("cli.main"))
    return tr
