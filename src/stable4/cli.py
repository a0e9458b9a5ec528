"""Command-line front end.

Subcommands: classify, decide, model, parity, fox, arf, orbits, closure.
Machine output is JSON (stable key order, sorted structures); ``--format
table`` switches to an aligned human rendering.  Exit codes: 0 success,
1 usage error, 2 domain error, 3 enumeration cap exceeded, 141 stdout
closed before the output was written.  The environment variable
STABLE4_CAP overrides the enumeration caps.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import f2, forms, groupring, models, words
from .classify import (
    builtin_data,
    classify as build_table,
    decide_stable_equiv,
    family_data_from_json,
    invariant_tuple_from_json,
    invariants_of,
    table_to_json,
    table_to_text,
)
from .errors import CapExceeded, DomainError, InputError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DOMAIN = 2
EXIT_CAP = 3
EXIT_PIPE = 141  # 128 + SIGPIPE, as a shell reports a process killed by it


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # route argparse failures to exit code 1
        raise InputError(message)


def _emit(payload, fmt: str, text_renderer=None) -> None:
    if fmt == "table" and text_renderer is not None:
        print(text_renderer())
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _load_json(path: str):
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InputError(f"{path} is not valid JSON: {exc}") from None


def _load_generators(path: str) -> list:
    """F2 matrices from a JSON file holding a list of them."""
    blob = _load_json(path)
    if not isinstance(blob, list):
        raise InputError(f"{path} holds {json.dumps(blob)}, not a list of F2 matrices")
    return [f2.f2mat_from_json(m) for m in blob]


def _family_pair(spec: str):
    """Resolve --family into (ring family or None, FamilyData, default w).

    Accepts the built-in shorthands z3 / zn:3 / nil:z, or a path to a family
    JSON file (custom families have no group-ring side); a family file may
    carry a "w" entry, which becomes the default normal 1-type.  Only specs
    ending in ".json" or containing "/" are read as files, so a file named
    like a built-in family never shadows it.
    """
    if spec.endswith(".json") or "/" in spec:
        blob = _load_json(spec)
        data = family_data_from_json(blob)
        return None, data, blob.get("w")
    ring = words.parse_family_spec(spec)
    try:
        return ring, builtin_data(ring), None
    except DomainError:
        raise InputError(
            f"family {spec!r} has no classification data (use z3, nil:z, "
            "or a family JSON file)"
        ) from None


def _parse_w(raw: str, d: int):
    """A w-type from --w or a family file: "infinity", "0" or d bits."""
    return models.check_w(f2.F2Vec.zero(d) if raw == "0" else models.w_from_json(raw), d)


def _cmd_classify(args) -> int:
    _, data, default_w = _family_pair(args.family)
    raw_w = args.w if args.w is not None else default_w
    if raw_w is None:
        raise InputError("no --w given and the family file supplies none")
    w = _parse_w(raw_w, data.d)
    table = build_table(data, w, args.category)
    _emit(
        table_to_json(table),
        args.format,
        lambda: table_to_text(table),
    )
    return EXIT_OK


def _load_tuple(path: str, category: str):
    """The invariant tuple of a tuple file, or of a model file (one with a
    "form" key, as `model` writes it), whose parity is read off the form
    rather than off the recorded "parity" key."""
    blob = _load_json(path)
    if isinstance(blob, dict) and "form" in blob:
        return invariants_of(models.han1_from_json(blob), category)
    return invariant_tuple_from_json(blob)


def _cmd_decide(args) -> int:
    _, data, _ = _family_pair(args.family)
    a = _load_tuple(args.a, args.category)
    b = _load_tuple(args.b, args.category)
    same = decide_stable_equiv(a, b, args.category, data)
    verdict = "EQUIVALENT" if same else "DISTINCT"
    _emit({"verdict": verdict, "a": a.describe(), "b": b.describe()},
          args.format, lambda: verdict)
    return EXIT_OK


def _cmd_model(args) -> int:
    ring, data, _ = _family_pair(args.family)
    if ring is None:
        raise InputError("this command needs a built-in group family")
    kind = args.kind
    if kind in ("M0", "M1"):
        sigma = 1 if kind == "M1" else 0
        gamma = None
        if args.gamma is not None:
            gamma = f2.F2Vec.from_bits(args.gamma)
        h = models.model_M_sigma(ring, sigma, gamma)
    elif kind == "N":
        if args.w is None:
            raise InputError("model N needs --w")
        w = _parse_w(args.w, data.d)
        h = models.model_N_almost_spin(ring, w)
    elif kind == "P":
        if args.gamma is None:
            raise InputError("model P needs --gamma (bits in generator order)")
        if args.presentation:
            pres, pres_family = words.presentation_from_json(
                _load_json(args.presentation)
            )
            if pres_family != ring:
                raise InputError("presentation family does not match --family")
        else:
            pres = models.builtin_presentation(ring)
        h = models.model_P(pres, ring, args.gamma)
    elif kind == "realize":
        if args.signature is None:
            raise InputError("realize needs --signature")
        w = _parse_w(args.w, data.d) if args.w else None
        if w is None:
            raise InputError("realize needs --w (bits, 0, or infinity)")
        par = None
        if args.parity:
            par = forms.Parity(args.parity)
        tau = f2.F2Vec.from_bits(args.tau) if args.tau else None
        h = models.realize_form(
            ring, w, args.signature, par, tau, category=args.category
        )
    else:
        raise InputError(f"unknown model kind {kind!r}")
    _emit(models.han1_to_json(h), args.format)
    return EXIT_OK


def _cmd_parity(args) -> int:
    form = forms.form_from_json(_load_json(args.form))
    value = forms.parity(form).value.capitalize()
    _emit({"parity": value}, args.format, lambda: value)
    return EXIT_OK


def _cmd_fox(args) -> int:
    if args.family:
        family = words.parse_family_spec(args.family)
        generators = family.generators
    else:
        generators = _infer_generators(args.word, args.generators)
        family = words.FreeFamily(generators)
    w = words.parse_word(args.word, generators)
    deriv = words.fox_derivative(w, args.gen, family)
    _emit(
        {
            "word": args.word,
            "gen": args.gen,
            "family": words.family_to_json(family),
            "derivative": groupring.ring_elem_to_json(deriv),
        },
        args.format,
        lambda: deriv.to_text(),
    )
    return EXIT_OK


def _infer_generators(word_text: str, explicit: str | None) -> tuple[str, ...]:
    if explicit:
        return tuple(name.strip() for name in explicit.split(",") if name.strip())
    seen: list[str] = []
    for token in word_text.split():
        name = token.partition("^")[0]
        if name != "1" and name not in seen:
            seen.append(name)
    if not seen:
        raise InputError("cannot infer generators from the identity word")
    return tuple(seen)


def _cmd_arf(args) -> int:
    q = f2.quadratic_form_from_json(_load_json(args.q))
    value = f2.arf(q)
    _emit({"arf": value}, args.format, lambda: str(value))
    return EXIT_OK


def _cmd_orbits(args) -> int:
    if args.generators:
        mats = _load_generators(args.generators)
        if args.d is None:
            raise InputError("--generators needs --d")
        d, name = args.d, args.generators
    else:
        if args.family is None:
            raise InputError("orbits needs --family or --generators/--d")
        _, data, _ = _family_pair(args.family)
        mats, d, name = list(data.out_generators), data.d, data.name
    parts = f2.orbits(d, mats)
    payload = {
        "source": name,
        "d": d,
        "orbits": [[v.to_bits() for v in orb] for orb in parts],
        "representatives": [orb[0].to_bits() for orb in parts],
    }
    _emit(
        payload,
        args.format,
        lambda: "\n".join(
            f"{orb[0].to_bits()}  {{ {' '.join(v.to_bits() for v in orb)} }}"
            for orb in parts
        ),
    )
    return EXIT_OK


def _cmd_closure(args) -> int:
    mats = _load_generators(args.generators)
    closure = f2.group_closure(mats)
    elements = sorted(closure, key=lambda m: m.rows)
    _emit(
        {
            "size": len(elements),
            "elements": [f2.f2mat_to_json(m) for m in elements],
        },
        args.format,
        lambda: f"closure size {len(elements)}",
    )
    return EXIT_OK


def build_parser() -> _Parser:
    parser = _Parser(prog="stable4", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.set_defaults(func=func)
        p.add_argument("--format", choices=("json", "table"), default="json")
        return p

    p = add("classify", _cmd_classify, help="print a classification table")
    p.add_argument("--family", required=True)
    p.add_argument("--w", help='"0", bit-string, or "infinity"; defaults to '
                   'the family file entry when present')
    p.add_argument("--category", default="smooth")

    p = add("decide", _cmd_decide, help="decide stable equivalence of two tuples")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--category", required=True)
    p.add_argument("--family", required=True)

    p = add("model", _cmd_model, help="emit the HAN1 data of a model")
    p.add_argument("--kind", required=True, choices=("M0", "M1", "N", "P", "realize"))
    p.add_argument("--family", required=True)
    p.add_argument("--presentation")
    p.add_argument("--gamma")
    p.add_argument("--w")
    p.add_argument("--signature", type=int)
    p.add_argument("--parity", choices=("even", "odd"))
    p.add_argument("--tau")
    p.add_argument("--category", default="topological")

    p = add("parity", _cmd_parity, help="parity of a form file")
    p.add_argument("--form", required=True)

    p = add("fox", _cmd_fox, help="Fox derivative of a word")
    p.add_argument("--word", required=True)
    p.add_argument("--gen", required=True)
    p.add_argument("--generators", help="comma-separated; default: inferred")
    p.add_argument("--family", help="z3 / zn:N / nil:Z for normal-form output")

    p = add("arf", _cmd_arf, help="Arf invariant of a quadratic form file")
    p.add_argument("--q", required=True)

    p = add("orbits", _cmd_orbits, help="orbit decomposition of F2^d")
    p.add_argument("--family")
    p.add_argument("--generators", help="JSON file with a list of F2 matrices")
    p.add_argument("--d", type=int)

    p = add("closure", _cmd_closure, help="closure of a matrix generator set")
    p.add_argument("--generators", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        f2.configured_cap()  # a malformed STABLE4_CAP fails every subcommand
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at exit
        return code
    except BrokenPipeError:
        # The reader closed stdout early (as `| head` does).  Point stdout
        # at devnull so that the interpreter's final flush stays quiet, as
        # the SIGPIPE note in the Python docs of `signal` does.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_PIPE
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
