"""Golden corpus: the exact stdout of the CLI for a fixed command list.

``tests/golden/cli.json`` pins what ``stable4.cli.main`` prints for every
classification table of z3 and nil:1..6 (each w-type, both categories), the
orbit decompositions of z3 and nil:1..8, a few ``decide`` pairs, the
``closure`` of a GL_2(F2) and of a conjugated GL_3(F2) generator file, every
table (each w-type, both categories) of two d = 4 family files, GL_4(F2) and
its order-1344 parabolic subgroup, and the ``model`` kinds over z3, nil:1 and nil:2 (M0; M1 for each gamma; N for each
nonzero w; P for each admissible gamma; realize for each w-type at signature
0, +-8 and +-16, with each tau for even spin targets).  A refactor must keep
every entry byte-identical.  The model outputs live in ``tests/golden/model.json``,
one entry a line, each stdout stored as the JSON it prints: the CLI renders
JSON as ``json.dumps(payload, indent=2, sort_keys=True)``, so rendering the
stored value again gives back the exact bytes (checked when the file is
written) at a quarter of the size.  After an intended change of output,
rebuild both files with

    PYTHONPATH=src python tests/test_golden.py
"""

import io
import json
import os
import sys
import tempfile
from contextlib import redirect_stdout
from pathlib import Path

import pytest

from stable4 import cli
from stable4.f2 import F2Mat

GOLDEN = Path(__file__).parent / "golden" / "cli.json"
MODEL_GOLDEN = GOLDEN.with_name("model.json")

CLASSIFY_FAMILIES = ("z3", "nil:1", "nil:2", "nil:3", "nil:4", "nil:5", "nil:6")
ORBIT_FAMILIES = ("z3",) + tuple(f"nil:{z}" for z in range(1, 9))
MODEL_FAMILIES = ("z3", "nil:1", "nil:2")
REALIZE_SIGNATURES = (0, 8, -8, 16, -16)

# Out-generators of d = 4 family files as row masks (bit i of a row is
# coordinate i): all of GL_4(F2), order 20160, and the order-1344
# stabilizer of e_1 in it.
D4_FAMILIES = (
    ("gl4", ((10, 4, 12, 1), (6, 1, 2, 13))),
    ("parabolic", ((7, 14, 4, 2), (3, 6, 12, 4), (15, 14, 8, 2))),
)
GL2_MASKS = ((2, 1), (3, 2))
GL3_MASKS = ((2, 1, 4), (4, 1, 2), (3, 2, 4))
# GL_3(F2) generators conjugated by this matrix: the same group, other rows.
GL3_CONJUGATOR = (3, 6, 4)


def _tuple(w, signature, parity, tau=None):
    return {"w": w, "signature": signature, "parity": parity, "tau": tau}


# (family, category, a, b)
DECIDE_PAIRS = (
    ("z3", "smooth", _tuple("000", 0, "even", "100"), _tuple("000", 0, "even", "011")),
    ("z3", "smooth", _tuple("000", 16, "even", "000"), _tuple("000", 16, "even", "100")),
    ("z3", "topological", _tuple("000", 8, "odd"), _tuple("000", 8, "odd")),
    ("z3", "topological", _tuple("000", 8, "odd"), _tuple("000", 16, "odd")),
    ("nil:1", "smooth", _tuple("00", 0, "even", "10"), _tuple("00", 0, "even", "11")),
    ("nil:2", "topological", _tuple("000", 8, "even", "001"), _tuple("000", 8, "even", "100")),
    ("nil:2", "topological", _tuple("000", 8, "even", "101"), _tuple("000", 8, "even", "001")),
    ("nil:2", "smooth", _tuple("000", 0, "even", "010"), _tuple("000", 0, "even", "110")),
    # w is compared literally, even where Out(pi) swaps the two w-types
    ("nil:2", "topological", _tuple("100", 0, "even", "010"), _tuple("010", 0, "even", "100")),
)


def _bit_strings(d):
    return [format(bits, f"0{d}b")[::-1] for bits in range(1 << d)]


def _w_values(d):
    return ["0"] + _bit_strings(d)[1:] + ["infinity"]


def _h2_dim(family):
    return 3 if family == "z3" or int(family[4:]) % 2 == 0 else 2


def _model_cases(family):
    """model runs over one family; gamma for P is given in generator order."""
    d = _h2_dim(family)
    base = ["model", "--family", family]
    cases = [(f"model {family} M0", base + ["--kind", "M0"], {})]
    for gamma in _bit_strings(d):
        cases.append((f"model {family} M1 gamma={gamma}",
                      base + ["--kind", "M1", "--gamma", gamma], {}))
    for w in _bit_strings(d)[1:]:
        cases.append((f"model {family} N w={w}", base + ["--kind", "N", "--w", w], {}))
    for gamma in _bit_strings(3):
        # for odd z the central generator a (first bit) must map to 0
        if family != "z3" and int(family[4:]) % 2 and gamma[0] == "1":
            continue
        cases.append((f"model {family} P gamma={gamma}",
                      base + ["--kind", "P", "--gamma", gamma], {}))
    for sigma in REALIZE_SIGNATURES:
        realize = base + ["--kind", "realize", "--signature", str(sigma)]
        targets = [("w=0 odd", ["--w", "0", "--parity", "odd"])]
        targets += [(f"w=0 even tau={tau}", ["--w", "0", "--parity", "even", "--tau", tau])
                    for tau in _bit_strings(d)]
        targets += [(f"w={w}", ["--w", w]) for w in _bit_strings(d)[1:] + ["infinity"]]
        for label, extra in targets:
            cases.append((f"model {family} realize {sigma} {label}", realize + extra, {}))
    return cases


def _row_strings(d, masks):
    return F2Mat(d, masks).to_rows()


def _closure_files():
    """(name, generator file) for the closure entries."""
    p = F2Mat(3, GL3_CONJUGATOR)
    p_inv = p.inverse()
    conjugates = [(p @ F2Mat(3, g) @ p_inv).to_rows() for g in GL3_MASKS]
    return (("gl2", [_row_strings(2, g) for g in GL2_MASKS]),
            ("gl3-conjugate", conjugates))


def golden_cases():
    """Every (name, argv, input files) in the corpus, in file order."""
    cases = []
    for family in CLASSIFY_FAMILIES:
        for w in _w_values(_h2_dim(family)):
            for category in ("smooth", "topological"):
                argv = ["classify", "--family", family, "--w", w, "--category", category]
                cases.append((f"classify {family} w={w} {category}", argv, {}))
    for family in ORBIT_FAMILIES:
        cases.append((f"orbits {family}", ["orbits", "--family", family], {}))
    for i, (family, category, a, b) in enumerate(DECIDE_PAIRS):
        argv = ["decide", "--a", "a.json", "--b", "b.json",
                "--category", category, "--family", family]
        cases.append((f"decide {i} {family} {category}", argv, {"a.json": a, "b.json": b}))
    for name, generators in _closure_files():
        argv = ["closure", "--generators", "generators.json"]
        cases.append((f"closure {name}", argv, {"generators.json": generators}))
    for name, masks in D4_FAMILIES:
        family = {"name": name, "d": 4,
                  "out_generators": [_row_strings(4, g) for g in masks]}
        for w in _w_values(4):
            for category in ("smooth", "topological"):
                argv = ["classify", "--family", "family.json", "--w", w,
                        "--category", category]
                cases.append((f"classify {name} w={w} {category}", argv,
                              {"family.json": family}))
    for family in MODEL_FAMILIES:
        cases += _model_cases(family)
    return cases


def _run(argv, inputs, workdir):
    for name, payload in inputs.items():
        (Path(workdir) / name).write_text(json.dumps(payload))
    out = io.StringIO()
    here = os.getcwd()
    os.chdir(workdir)
    try:
        with redirect_stdout(out):
            code = cli.main(argv)
    finally:
        os.chdir(here)
    return code, out.getvalue()


def _render(payload):
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _stored(entry):
    """Keep stdout as parsed JSON when rendering it again gives the same bytes."""
    out = entry.pop("stdout")
    try:
        payload = json.loads(out)
    except ValueError:
        payload = None
    if out and _render(payload) == out:
        entry["stdout_json"] = payload
    else:
        entry["stdout"] = out
    return entry


def _expected_stdout(entry):
    return entry["stdout"] if "stdout" in entry else _render(entry["stdout_json"])


def _load():
    return [e for path in (GOLDEN, MODEL_GOLDEN) if path.exists()
            for e in json.loads(path.read_text())]


@pytest.mark.parametrize("entry", _load(), ids=lambda e: e["name"])
def test_cli_output_matches_golden(entry, tmp_path):
    code, out = _run(entry["argv"], entry["inputs"], tmp_path)
    assert code == entry["exit"]
    assert out == _expected_stdout(entry)


def test_golden_corpus_covers_the_command_list():
    assert [e["argv"] for e in _load()] == [argv for _, argv, _ in golden_cases()]


def main():
    entries = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv, inputs in golden_cases():
            code, out = _run(argv, inputs, workdir)
            entries.append({"name": name, "argv": argv, "inputs": inputs,
                            "exit": code, "stdout": out})
    cli_entries = [e for e in entries if e["argv"][0] != "model"]
    model_entries = [_stored(e) for e in entries if e["argv"][0] == "model"]
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(cli_entries, indent=1) + "\n")
    lines = ",\n".join(json.dumps(e, separators=(",", ":")) for e in model_entries)
    MODEL_GOLDEN.write_text(f"[\n{lines}\n]\n")
    print(f"wrote {len(cli_entries)} entries to {GOLDEN} and "
          f"{len(model_entries)} to {MODEL_GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
