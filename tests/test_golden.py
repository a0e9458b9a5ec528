"""Golden corpus: the exact stdout of the CLI for a fixed command list.

``tests/golden/cli.json`` pins what ``stable4.cli.main`` prints for every
classification table of z3 and nil:1..6 (each w-type, both categories), the
orbit decompositions of z3 and nil:1..8, and a few ``decide`` pairs.  A
refactor must keep every entry byte-identical.  After an intended change of
output, rebuild the file with

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

GOLDEN = Path(__file__).parent / "golden" / "cli.json"

CLASSIFY_FAMILIES = ("z3", "nil:1", "nil:2", "nil:3", "nil:4", "nil:5", "nil:6")
ORBIT_FAMILIES = ("z3",) + tuple(f"nil:{z}" for z in range(1, 9))


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


def _w_values(d):
    return ["0"] + [format(bits, f"0{d}b")[::-1] for bits in range(1, 1 << d)] + ["infinity"]


def golden_cases():
    """Every (name, argv, input files) in the corpus, in file order."""
    cases = []
    for family in CLASSIFY_FAMILIES:
        d = 3 if family == "z3" or int(family[4:]) % 2 == 0 else 2
        for w in _w_values(d):
            for category in ("smooth", "topological"):
                argv = ["classify", "--family", family, "--w", w, "--category", category]
                cases.append((f"classify {family} w={w} {category}", argv, {}))
    for family in ORBIT_FAMILIES:
        cases.append((f"orbits {family}", ["orbits", "--family", family], {}))
    for i, (family, category, a, b) in enumerate(DECIDE_PAIRS):
        argv = ["decide", "--a", "a.json", "--b", "b.json",
                "--category", category, "--family", family]
        cases.append((f"decide {i} {family} {category}", argv, {"a.json": a, "b.json": b}))
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


def _load():
    return json.loads(GOLDEN.read_text())


@pytest.mark.parametrize("entry", _load() if GOLDEN.exists() else [], ids=lambda e: e["name"])
def test_cli_output_matches_golden(entry, tmp_path):
    code, out = _run(entry["argv"], entry["inputs"], tmp_path)
    assert code == entry["exit"]
    assert out == entry["stdout"]


def test_golden_corpus_covers_the_command_list():
    assert [e["argv"] for e in _load()] == [argv for _, argv, _ in golden_cases()]


def main():
    entries = []
    with tempfile.TemporaryDirectory() as workdir:
        for name, argv, inputs in golden_cases():
            code, out = _run(argv, inputs, workdir)
            entries.append({"name": name, "argv": argv, "inputs": inputs,
                            "exit": code, "stdout": out})
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(entries, indent=1) + "\n")
    print(f"wrote {len(entries)} entries to {GOLDEN}", file=sys.stderr)


if __name__ == "__main__":
    main()
