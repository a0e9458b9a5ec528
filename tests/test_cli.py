import contextlib
import copy
import io
import json
import os
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import run_python, write_json
from stable4 import cli
from stable4.f2 import f2mat_to_json
from stable4.groupring import ring_elem_from_json
from stable4.classify import family_nil
from stable4.models import builtin_presentation, han1_from_json, model_P
from stable4.words import (
    FreeFamily,
    NilFamily,
    fox_derivative,
    parse_word,
    presentation_to_json,
)


def run(capsys, argv):
    code = cli.main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# classify


def test_classify_nil3_three_classes(capsys):
    code, out, _ = run(
        capsys, ["classify", "--family", "nil:3", "--w", "0", "--category", "smooth"]
    )
    assert code == 0
    table = json.loads(out)
    assert len(table["classes"]) == 3
    assert table["signature_stride"] == 16


def test_classify_table_format(capsys):
    code, out, _ = run(
        capsys,
        ["classify", "--family", "nil:4", "--w", "0", "--category", "smooth",
         "--format", "table"],
    )
    assert code == 0
    assert "finite classes per signature: 4" in out


def test_classify_deterministic_output(capsys):
    argv = ["classify", "--family", "z3", "--w", "0", "--category", "topological"]
    _, first, _ = run(capsys, argv)
    _, second, _ = run(capsys, argv)
    assert first == second


def test_classify_almost_spin(capsys):
    code, out, _ = run(
        capsys,
        ["classify", "--family", "nil:2", "--w", "001", "--category", "smooth"],
    )
    assert code == 0
    table = json.loads(out)
    assert table["ks_rule"] == "none"
    for entry in table["classes"]:
        for v in entry["orbit"]:
            assert v[2] == "0"  # kernel of <w, -> for w = 001


@pytest.mark.parametrize("w", ["infinity", "0"])
def test_family_file_with_negative_d_exits_1(capsys, tmp_path, w):
    path = write_json(tmp_path / "f.json", {"name": "x", "d": -1, "out_generators": []})
    code, out, err = run(
        capsys, ["classify", "--family", path, "--w", w, "--category", "smooth"]
    )
    assert (code, out) == (1, "")
    assert err == "error: bad family JSON: d -1 is negative\n"


def test_family_file_names_the_generator_that_is_not_invertible(capsys, tmp_path):
    gens = [["10", "01"], ["10", "10"]]
    path = write_json(tmp_path / "f.json", {"name": "x", "d": 2, "out_generators": gens})
    code, _, err = run(capsys, ["orbits", "--family", path])
    assert code == 1
    assert err == "error: bad family JSON: generator 1 is not invertible\n"


@pytest.mark.parametrize("name", [None, 7, ["x"]])
def test_family_file_name_must_be_a_string(capsys, tmp_path, name):
    path = write_json(tmp_path / "f.json",
                      {"name": name, "d": 2, "out_generators": [["01", "10"]]})
    code, out, err = run(
        capsys, ["classify", "--family", path, "--w", "00", "--category", "smooth"]
    )
    assert (code, out) == (1, "")
    assert err == f"error: bad family JSON: family name {name!r} is not a string\n"


def test_classify_custom_family_file(capsys, tmp_path):
    fam = family_nil(3)
    path = write_json(
        tmp_path / "family.json",
        {
            "name": "custom",
            "d": 2,
            "out_generators": [f2mat_to_json(m) for m in fam.out_generators],
        },
    )
    code, out, _ = run(
        capsys, ["classify", "--family", path, "--w", "0", "--category", "smooth"]
    )
    assert code == 0
    assert len(json.loads(out)["classes"]) == 3


@pytest.mark.parametrize("category, count", [("smooth", 2), ("topological", 4)])
def test_trivial_out_image_family_file(capsys, tmp_path, category, count):
    # No Out-generators: the stabilizer of w is trivial, so every vector of
    # ker<10,-> (smooth) or of F2^2 (topological) is its own class.
    path = write_json(tmp_path / "f.json", {"name": "trivial", "d": 2, "out_generators": []})
    code, out, err = run(capsys, ["classify", "--family", path, "--w", "10",
                                  "--category", category])
    assert (code, err) == (0, "")
    assert [len(c["orbit"]) for c in json.loads(out)["classes"]] == [1] * count
    tuples = [write_json(tmp_path / f"{tau}.json",
                         {"w": "10", "signature": 0, "parity": "even", "tau": tau})
              for tau in ("00", "01")]
    for b, verdict in zip(tuples, ("EQUIVALENT", "DISTINCT")):
        code, out, _ = run(capsys, ["decide", "--a", tuples[0], "--b", b,
                                    "--category", category, "--family", path])
        assert code == 0 and json.loads(out)["verdict"] == verdict


def test_decide_honours_the_orbit_cap(capsys, tmp_path, monkeypatch):
    # A 21-cycle and a transvection move tau = e_0 through all 2^21 - 1
    # nonzero vectors; the pair (0, tau) lives in dimension 42.
    d = 21
    unit = lambda i: "".join("1" if j == i else "0" for j in range(d))
    cycle = [unit((i + 1) % d) for i in range(d)]
    transvection = ["11" + "0" * (d - 2)] + [unit(i) for i in range(1, d)]
    path = write_json(tmp_path / "f.json",
                      {"name": "d21", "d": d, "out_generators": [cycle, transvection]})
    t = write_json(tmp_path / "t.json",
                   {"w": "0" * d, "signature": 0, "parity": "even", "tau": unit(0)})
    monkeypatch.setenv("STABLE4_CAP", "4096")
    code, out, err = run(capsys, ["decide", "--a", t, "--b", t, "--category", "top",
                                  "--family", path])
    assert (code, out) == (3, "")
    assert err == "error: orbit in dimension 42 reached 4097 states, over the orbit cap 4096\n"


# ---------------------------------------------------------------------------
# decide


def test_decide_odd_tuples_equivalent(capsys, tmp_path):
    a = write_json(
        tmp_path / "a.json",
        {"w": "000", "signature": 0, "parity": "odd", "tau": None},
    )
    b = write_json(
        tmp_path / "b.json",
        {"w": "000", "signature": 0, "parity": "odd", "tau": None},
    )
    code, out, _ = run(
        capsys,
        ["decide", "--a", a, "--b", b, "--category", "top", "--family", "z3"],
    )
    assert code == 0
    assert json.loads(out)["verdict"] == "EQUIVALENT"


def test_decide_distinct(capsys, tmp_path):
    a = write_json(
        tmp_path / "a.json",
        {"w": "000", "signature": 0, "parity": "even", "tau": "000"},
    )
    b = write_json(
        tmp_path / "b.json",
        {"w": "000", "signature": 0, "parity": "even", "tau": "110"},
    )
    code, out, _ = run(
        capsys,
        ["decide", "--a", a, "--b", b, "--category", "smooth", "--family", "z3",
         "--format", "table"],
    )
    assert code == 0
    assert out.strip() == "DISTINCT"


def test_decide_domain_error_exit_code(capsys, tmp_path):
    a = write_json(
        tmp_path / "a.json",
        {"w": "000", "signature": 8, "parity": "odd", "tau": None},
    )
    code, _, err = run(
        capsys,
        ["decide", "--a", a, "--b", a, "--category", "smooth", "--family", "z3"],
    )
    assert code == 2
    assert "divisible" in err


@pytest.mark.parametrize("w, parity, tau", [
    ("00", "odd", None), ("00", "even", "01"), ("10", "even", "01"),
], ids=["odd", "spin-even", "almost-spin-even"])
def test_decide_refuses_a_w_of_another_dimension(capsys, tmp_path, w, parity, tau):
    a = write_json(tmp_path / "a.json",
                   {"w": w, "signature": 0, "parity": parity, "tau": tau})
    code, out, err = run(
        capsys, ["decide", "--a", a, "--b", a, "--category", "top", "--family", "z3"]
    )
    assert (code, out) == (2, "")
    assert err == "error: tuple a: w has dimension 2, the family needs 3\n"


def _model_files(capsys, tmp_path):
    """The HAN1 files of P(gamma=100) and M1 over nil:2, as `model` writes them."""
    paths = []
    for argv in (["--kind", "P", "--gamma", "100"], ["--kind", "M1"]):
        code, out, _ = run(capsys, ["model", "--family", "nil:2", *argv])
        assert code == 0
        paths.append(write_json(tmp_path / f"{argv[1]}.json", json.loads(out)))
    return paths


def test_decide_reads_the_parity_of_a_model_file_off_its_form(capsys, tmp_path):
    p, m1 = _model_files(capsys, tmp_path)
    code, out, err = run(
        capsys, ["decide", "--a", p, "--b", m1, "--category", "top", "--family", "nil:2"]
    )
    assert (code, err) == (0, "")
    payload = json.loads(out)
    assert payload["verdict"] == "DISTINCT"
    assert payload["a"] == "(w=000, sigma=0, even, tau=001)"


def test_decide_refuses_a_model_file_whose_recorded_parity_is_edited(capsys, tmp_path):
    """The form of P(gamma=100) is even: recording it as odd with no tau
    leaves an even form of unknown tau class, not an odd one."""
    p, m1 = _model_files(capsys, tmp_path)
    blob = json.loads(Path(p).read_text())
    blob.update(parity="odd", tau=None)
    edited = write_json(tmp_path / "edited.json", blob)
    code, out, err = run(
        capsys,
        ["decide", "--a", edited, "--b", m1, "--category", "top", "--family", "nil:2"],
    )
    assert (code, out) == (2, "")
    assert err.startswith("error: ")


# ---------------------------------------------------------------------------
# model / parity


def test_model_p_round_trips(capsys):
    code, out, _ = run(
        capsys, ["model", "--kind", "P", "--family", "nil:2", "--gamma", "100"]
    )
    assert code == 0
    h = han1_from_json(json.loads(out))
    expected = model_P(builtin_presentation(NilFamily(2)), NilFamily(2), "100")
    assert h.form == expected.form
    assert h.tau == expected.tau


@pytest.mark.parametrize(
    "tag", [{"nil": "abc"}, {"nil": True}, {"zn": 2.0}, {"free": 5}, {"free": "xya"}]
)
def test_presentation_rejects_a_malformed_family_tag(capsys, tmp_path, tag):
    path = write_json(
        tmp_path / "p.json",
        {"generators": ["x", "y", "a"], "relators": [], "family": tag},
    )
    argv = ["model", "--kind", "P", "--family", "nil:2", "--gamma", "111",
            "--presentation", path]
    code, out, err = run(capsys, argv)
    assert code == 1 and out == ""
    name = next(iter(tag))
    assert err.startswith(f'error: family tag "{name}" needs')


@pytest.mark.parametrize("field, value", [
    ("relators", "axy"), ("generators", "axy"), ("generators", ["a", None, "y"]),
    ("relators", ["x a x^-1 a^-1", 3]), ("relators", None),
])
def test_presentation_fields_must_be_lists_of_strings(capsys, tmp_path, field, value):
    """A string is not split into one-letter names or relators, and null is
    not read as the name "None"."""
    relators = ["x a x^-1 a^-1", "y a y^-1 a^-1", "x y x^-1 y^-1 a^-2"]
    pres = {"generators": ["a", "x", "y"], "relators": relators, "family": {"nil": 2}}
    path = write_json(tmp_path / "p.json", {**pres, field: value})
    argv = ["model", "--kind", "P", "--family", "nil:2", "--gamma", "000",
            "--presentation", path]
    code, out, err = run(capsys, argv)
    assert (code, out) == (1, "")
    assert err == (f'error: presentation field "{field}" needs a list of strings, '
                   f"not {value!r}\n")


def test_parity_rejects_a_string_as_free_generators(capsys, tmp_path):
    path = write_json(
        tmp_path / "f.json",
        {"epsilon": 0, "family": {"free": "abc"}, "entries": [[{"coeff": 3, "word": "1"}]]},
    )
    code, out, err = run(capsys, ["parity", "--form", path])
    assert code == 1 and out == ""
    assert 'family tag "free" needs a list of names' in err


def test_parity_names_the_pair_of_a_non_hermitian_form(capsys, tmp_path):
    g1 = [{"coeff": 1, "word": "g1"}]
    path = write_json(tmp_path / "f.json",
                      {"epsilon": 0, "family": {"zn": 3}, "entries": [[], g1, g1, []]})
    code, out, err = run(capsys, ["parity", "--form", path])
    assert (code, out) == (2, "")
    assert err == ("error: matrix is not hermitian: entry (0, 1) is g1 but entry (1, 0) "
                   "is g1, not its conjugate\n")


def test_model_m1_and_parity_cli(capsys, tmp_path):
    code, out, _ = run(capsys, ["model", "--kind", "M1", "--family", "z3"])
    assert code == 0
    blob = json.loads(out)
    assert blob["parity"] == "odd"
    form_path = write_json(tmp_path / "m1.json", blob["form"])
    code, out, _ = run(capsys, ["parity", "--form", form_path])
    assert code == 0
    assert json.loads(out)["parity"] == "Odd"
    code, out, _ = run(capsys, ["parity", "--form", form_path, "--format", "table"])
    assert out.strip() == "Odd"


@pytest.mark.parametrize(
    "size, shown", [(-1, "-1"), ("1", "'1'"), (1.0, "1.0")]
)
def test_parity_rejects_a_bad_size_field(capsys, tmp_path, size, shown):
    path = write_json(
        tmp_path / "f.json",
        {"epsilon": 0, "family": {"zn": 3}, "size": size,
         "entries": [[{"coeff": 3, "word": "1"}]]},
    )
    code, out, err = run(capsys, ["parity", "--form", path])
    assert code == 1 and out == ""
    assert f"form size {shown} is not a non-negative integer" in err


@pytest.mark.parametrize("epsilon, shown", [(0.7, "0.7"), (True, "True"), ("1", "'1'")])
def test_parity_rejects_an_epsilon_that_is_not_an_integer(capsys, tmp_path, epsilon, shown):
    path = write_json(
        tmp_path / "f.json",
        {"epsilon": epsilon, "family": {"zn": 3}, "entries": [[{"coeff": 2, "word": "1"}]]},
    )
    code, out, err = run(capsys, ["parity", "--form", path])
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"form epsilon {shown} is not an integer" in err


@pytest.mark.parametrize("coeff, shown", [(2.5, "2.5"), (True, "True"), ("2", "'2'")])
def test_parity_rejects_a_coefficient_that_is_not_an_integer(capsys, tmp_path, coeff, shown):
    path = write_json(
        tmp_path / "f.json",
        {"epsilon": 0, "family": {"zn": 3}, "entries": [[{"coeff": coeff, "word": "1"}]]},
    )
    code, out, err = run(capsys, ["parity", "--form", path])
    assert code == 1 and out == ""
    assert err.startswith("error:") and f"coefficient {shown} is not an integer" in err


@pytest.mark.parametrize(
    "field, value, message",
    [("tau", [1, 0, 0], "bad bit-string [1, 0, 0]"),
     ("signature", 16.0, "signature 16.0 is not an integer"),
     ("signature", True, "signature True is not an integer")],
)
def test_decide_rejects_a_malformed_tuple_field(capsys, tmp_path, field, value, message):
    good = {"w": "000", "signature": 16, "parity": "even", "tau": "000"}
    a = write_json(tmp_path / "a.json", good)
    b = write_json(tmp_path / "b.json", dict(good, **{field: value}))
    code, out, err = run(
        capsys,
        ["decide", "--a", a, "--b", b, "--category", "smooth", "--family", "z3"],
    )
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


def test_model_realize(capsys):
    code, out, _ = run(
        capsys,
        ["model", "--kind", "realize", "--family", "z3", "--w", "0",
         "--signature", "8", "--parity", "odd", "--category", "topological"],
    )
    assert code == 0
    h = han1_from_json(json.loads(out))
    assert h.signature == 8


def test_model_n_rejects_zero_w(capsys):
    code, _, err = run(
        capsys, ["model", "--kind", "N", "--family", "nil:2", "--w", "000"]
    )
    assert code == 2
    assert "nonzero" in err


# The admissibility rule is the same from every subcommand.


def test_realize_takes_top_for_topological(capsys):
    realize = ["model", "--kind", "realize", "--family", "nil:2", "--w", "010",
               "--signature", "-8", "--category"]
    assert run(capsys, realize + ["top"]) == run(capsys, realize + ["topological"])
    assert run(capsys, realize + ["top"])[0] == 0


def test_realize_refuses_a_parity_for_infinity(capsys):
    code, out, err = run(capsys, ["model", "--kind", "realize", "--family", "z3",
                                  "--w", "infinity", "--signature", "3", "--parity", "odd"])
    assert (code, out) == (2, "")
    assert err == "error: totally non-spin tuples carry only a signature\n"


def test_decide_refuses_odd_almost_spin_tuples(capsys, tmp_path):
    """classify lists no odd almost-spin class, so decide has none to compare."""
    a = write_json(tmp_path / "a.json",
                   {"w": "100", "signature": 8, "parity": "odd", "tau": None})
    code, out, err = run(
        capsys, ["decide", "--a", a, "--b", a, "--category", "top", "--family", "z3"])
    assert (code, out) == (2, "")
    assert err == "error: almost-spin intersection forms are even\n"
    code, out, _ = run(capsys, ["classify", "--family", "z3", "--w", "100",
                                "--category", "top"])
    assert code == 0
    assert {c["kind"] for c in json.loads(out)["classes"]} == {"orbit"}


@pytest.mark.parametrize("argv, code, message", [
    (["model", "--kind", "N", "--family", "z3", "--w", "infinity"], 2,
     "model N needs a nonzero w other than infinity, not infinity; "
     "model_M_sigma and realize_form build those"),
    (["model", "--kind", "P", "--family", "nil:2", "--gamma", "1a1"], 1,
     "gamma '1a1' is not 3 bits, one per generator of the rank-3 family"),
    (["model", "--kind", "P", "--family", "nil:2", "--gamma", "\u0660\u0661\u0661"], 1,
     "gamma '\u0660\u0661\u0661' is not 3 bits, one per generator of the rank-3 family"),
    (["model", "--kind", "M1", "--family", "z3", "--gamma", "10"], 2,
     "gamma has dimension 2, the family needs 3"),
    (["model", "--kind", "N", "--family", "nil:1", "--w", "100"], 2,
     "w has dimension 3, the family needs 2"),
    (["classify", "--family", "z3", "--w", "10"], 2, "w has dimension 2, the family needs 3"),
    (["fox", "--word", "x", "--gen", "x", "--generators", "x,x"], 1,
     "duplicate generator 'x'"),
    (["fox", "--word", "1 x", "--gen", "1", "--generators", "1,x"], 1,
     "bad generator name '1'"),
    (["fox", "--word", "g1", "--gen", "g1", "--family", "zn:100000000"], 3,
     "Zn family rank 100000000 is over the cap 1000000"),
], ids=["N infinity", "P 1a1", "P arabic-indic digits", "M1 short gamma", "N long w",
        "classify short w", "fox duplicate generator", "fox generator 1",
        "fox huge zn rank"])
def test_inputs_exit_with_an_error_line(capsys, argv, code, message):
    assert run(capsys, argv) == (code, "", f"error: {message}\n")


# ---------------------------------------------------------------------------
# fox / arf / orbits / closure


def test_fox_cli_free(capsys):
    code, out, _ = run(
        capsys, ["fox", "--word", "x y x^-1 y^-1", "--gen", "x"]
    )
    assert code == 0
    blob = json.loads(out)
    fam = FreeFamily(("x", "y"))
    got = ring_elem_from_json(blob["derivative"], fam)
    expected = fox_derivative(
        parse_word("x y x^-1 y^-1", fam.generators), "x", fam
    )
    assert got == expected


def test_fox_cli_with_family(capsys):
    code, out, _ = run(
        capsys,
        ["fox", "--word", "x a x^-1 a^-1", "--gen", "x", "--family", "nil:2"],
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["family"] == {"nil": 2}
    terms = {t["word"]: t["coeff"] for t in blob["derivative"]}
    assert terms == {"1": 1, "a": -1}


def test_fox_cli_takes_any_zn_family(capsys):
    code, out, _ = run(
        capsys,
        ["fox", "--word", "g1 g2 g1^-1", "--gen", "g1", "--family", "zn:4"],
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["family"] == {"zn": 4}
    # 1 - g1 g2 g1^-1, and g1 g2 g1^-1 = g2 in Z^4
    terms = {t["word"]: t["coeff"] for t in blob["derivative"]}
    assert terms == {"1": 1, "g2": -1}


@pytest.mark.parametrize("argv", [
    ["classify", "--family", "zn:4", "--w", "0"],
    ["orbits", "--family", "zn:4"],
    ["model", "--kind", "M0", "--family", "zn:4"],
    ["decide", "--a", "a.json", "--b", "b.json", "--category", "smooth",
     "--family", "zn:4"],
], ids=["classify", "orbits", "model", "decide"])
def test_zn_family_without_h2_data_exits_1(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    for name in ("a.json", "b.json"):
        write_json(tmp_path / name, {"w": "000", "signature": 0, "parity": "odd"})
    code, _, err = run(capsys, argv)
    assert code == 1
    assert err == ("error: family 'zn:4' has no classification data "
                   "(use z3, nil:z, or a family JSON file)\n")


def test_arf_cli(capsys, tmp_path):
    q = write_json(
        tmp_path / "q.json",
        {"bilinear": ["01", "10"], "values": "11"},
    )
    code, out, _ = run(capsys, ["arf", "--q", q])
    assert code == 0
    assert json.loads(out)["arf"] == 1


def test_orbits_cli(capsys):
    code, out, _ = run(capsys, ["orbits", "--family", "nil:2"])
    assert code == 0
    blob = json.loads(out)
    assert len(blob["orbits"]) == 3
    assert blob["representatives"][0] == "000"


def test_closure_cli(capsys, tmp_path):
    gens = write_json(
        tmp_path / "gens.json", [["01", "10"], ["11", "01"]]
    )
    code, out, _ = run(capsys, ["closure", "--generators", gens])
    assert code == 0
    assert json.loads(out)["size"] == 6


def test_closure_cap_exit_code(capsys, monkeypatch, tmp_path):
    gens = write_json(tmp_path / "gens.json", [["01", "10"], ["11", "01"]])
    monkeypatch.setenv("STABLE4_CAP", "2")
    code, out, err = run(capsys, ["closure", "--generators", gens])
    assert (code, out) == (3, "")
    assert err == "error: group closure of 2 generators in dimension 2 exceeded cap 2\n"


def test_closure_takes_no_cap_option(capsys, tmp_path):
    gens = write_json(tmp_path / "gens.json", [["01", "10"], ["11", "01"]])
    code, out, err = run(capsys, ["closure", "--generators", gens, "--cap", "5"])
    assert (code, out) == (1, "")
    assert err == "error: unrecognized arguments: --cap 5\n"


@pytest.mark.parametrize(
    "gens", [[["01", "1"]], [[[0, 1], [1]]], [["1", "01"]], [["100", "010", "0011"]]]
)
def test_closure_rejects_ragged_rows(capsys, tmp_path, gens):
    path = write_json(tmp_path / "gens.json", gens)
    code, out, err = run(capsys, ["closure", "--generators", path])
    assert code == 1 and out == ""
    assert err.startswith("error: matrix row ") and f"expected {len(gens[0])}" in err


@pytest.mark.parametrize("cap", ["0", "-3"])
def test_env_cap_below_one_is_rejected(capsys, monkeypatch, tmp_path, cap):
    gens = write_json(tmp_path / "gens.json", [["01", "10"], ["11", "01"]])
    monkeypatch.setenv("STABLE4_CAP", cap)
    code, out, err = run(capsys, ["closure", "--generators", gens])
    assert code == 1 and out == ""
    assert f"STABLE4_CAP='{cap}' is below 1" in err


def valid_argv(tmp_path):
    """One valid argv per subcommand, with the files it reads."""
    tup = write_json(tmp_path / "t.json",
                     {"w": "000", "signature": 0, "parity": "odd", "tau": None})
    form = write_json(tmp_path / "form.json", {
        "epsilon": 0, "family": {"zn": 3}, "size": 1,
        "entries": [[{"coeff": 1, "word": "1"}]],
    })
    q = write_json(tmp_path / "q.json", {"bilinear": ["01", "10"], "values": "11"})
    gens = write_json(tmp_path / "gens.json", [["01", "10"]])
    return {
        "classify": ["classify", "--family", "z3", "--w", "infinity"],
        "decide": ["decide", "--a", tup, "--b", tup, "--category", "top",
                   "--family", "z3"],
        "model": ["model", "--kind", "M0", "--family", "z3"],
        "parity": ["parity", "--form", form],
        "fox": ["fox", "--word", "x y x^-1", "--gen", "x"],
        "arf": ["arf", "--q", q],
        "orbits": ["orbits", "--family", "z3"],
        "closure": ["closure", "--generators", gens],
    }


@pytest.mark.parametrize("command", ["classify", "decide", "model", "parity", "fox",
                                     "arf", "orbits", "closure"])
def test_malformed_env_cap_fails_every_subcommand(capsys, monkeypatch, tmp_path, command):
    argv = valid_argv(tmp_path)[command]
    assert run(capsys, argv)[0] == 0
    monkeypatch.setenv("STABLE4_CAP", "abc")
    assert run(capsys, argv) == (1, "", "error: STABLE4_CAP='abc' is not an integer\n")


# ---------------------------------------------------------------------------
# exit codes and validation


def test_usage_error_exit_code(capsys):
    code, _, err = run(capsys, ["classify", "--family", "z3"])  # missing --w
    assert code == 1


def test_unknown_family_exit_code(capsys):
    code, _, _ = run(
        capsys, ["classify", "--family", "broken:9", "--w", "0"]
    )
    assert code == 1


def test_missing_file_exit_code(capsys):
    code, _, err = run(capsys, ["parity", "--form", "/nonexistent.json"])
    assert code == 1


def test_env_cap_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("STABLE4_CAP", "4")
    code, _, err = run(
        capsys,
        ["classify", "--family", "z3", "--w", "110", "--category", "smooth"],
    )
    assert code == 3


def test_env_cap_bounds_spin_tables(capsys, monkeypatch, tmp_path):
    path = write_json(
        tmp_path / "d6.json",
        {"name": "d6", "d": 6, "out_generators": [["100000", "010000", "001000",
                                                   "000100", "000010", "000001"]]},
    )
    monkeypatch.setenv("STABLE4_CAP", "10")
    code, out, err = run(
        capsys, ["classify", "--family", path, "--w", "0", "--category", "smooth"]
    )
    assert code == 3 and out == "" and "cap 10" in err


def test_env_cap_bounds_realize(capsys, monkeypatch):
    monkeypatch.setenv("STABLE4_CAP", "100")
    code, out, err = run(
        capsys, ["model", "--kind", "realize", "--family", "z3", "--w", "0",
                 "--parity", "odd", "--signature", "64"]
    )
    assert code == 3 and out == "" and "4356 entries, over the cap 100" in err


def test_env_cap_bounds_fox(capsys, monkeypatch):
    monkeypatch.setenv("STABLE4_CAP", "1000")
    argv = ["fox", "--word", "x^1001", "--gen", "x", "--family", "nil:2"]
    code, out, err = run(capsys, argv)
    assert code == 3 and out == ""
    assert "expands 1001 letters of x, over the cap 1000" in err
    code, out, _ = run(capsys, ["fox", "--word", "x^1000", "--gen", "x", "--family", "nil:2"])
    assert code == 0 and len(json.loads(out)["derivative"]) == 1000


def test_env_cap_bounds_zn_rank(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("STABLE4_CAP", "10")
    argv = ["fox", "--word", "g1", "--gen", "g1", "--family", "zn:11"]
    assert run(capsys, argv) == (3, "", "error: Zn family rank 11 is over the cap 10\n")
    path = write_json(tmp_path / "f.json", {"epsilon": 0, "family": {"zn": 11},
                                            "entries": [[{"coeff": 1, "word": "1"}]]})
    assert run(capsys, ["parity", "--form", path])[0] == 3
    code, out, _ = run(capsys, ["fox", "--word", "g1", "--gen", "g1", "--family", "zn:10"])
    assert code == 0 and json.loads(out)["family"] == {"zn": 10}


def test_file_named_like_a_family_does_not_shadow_it(capsys, monkeypatch, tmp_path):
    (tmp_path / "z3").write_text("not a family file")
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(
        capsys, ["classify", "--family", "z3", "--w", "0", "--category", "smooth"]
    )
    assert code == 0
    assert json.loads(out)["family"] == "z3"


def test_emitted_json_reparses(capsys):
    for argv, loader in [
        (["model", "--kind", "M0", "--family", "z3"],
         lambda blob: han1_from_json(blob)),
        (["model", "--kind", "N", "--family", "nil:2", "--w", "100"],
         lambda blob: han1_from_json(blob)),
    ]:
        code, out, _ = run(capsys, argv)
        assert code == 0
        loader(json.loads(out))


def test_model_p_with_presentation_file(capsys, tmp_path):
    pres_path = write_json(
        tmp_path / "p.json",
        {
            "generators": ["a", "x", "y"],
            "relators": [
                "x a x^-1 a^-1",
                "y a y^-1 a^-1",
                "x y x^-1 y^-1 a^-2",
            ],
            "family": {"nil": 2},
        },
    )
    for gamma in ("100", "000"):
        code, out, _ = run(
            capsys,
            ["model", "--kind", "P", "--family", "nil:2",
             "--presentation", pres_path, "--gamma", gamma],
        )
        assert code == 0
        h = han1_from_json(json.loads(out))
        expected = model_P(builtin_presentation(NilFamily(2)), NilFamily(2), gamma)
        assert h.form == expected.form


def test_classify_family_file_supplies_w(capsys, tmp_path):
    fam = family_nil(2)
    path = write_json(
        tmp_path / "family.json",
        {
            "name": "nil2-at-w001",
            "d": 3,
            "out_generators": [f2mat_to_json(m) for m in fam.out_generators],
            "w": "001",
        },
    )
    code, out, _ = run(
        capsys, ["classify", "--family", path, "--category", "topological"]
    )
    assert code == 0
    assert json.loads(out)["w"] == "001"


def test_fox_explicit_generators(capsys):
    code, out, _ = run(
        capsys,
        ["fox", "--word", "y x", "--gen", "x", "--generators", "x,y"],
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["family"] == {"free": ["x", "y"]}
    assert blob["derivative"] == [{"coeff": 1, "word": "y"}]


def test_model_realize_totally_non_spin(capsys):
    code, out, _ = run(
        capsys,
        ["model", "--kind", "realize", "--family", "z3", "--w", "infinity",
         "--signature", "5"],
    )
    assert code == 0
    blob = json.loads(out)
    assert blob["w"] == "infinity"
    assert blob["signature"] == 5
    han1_from_json(blob)


def test_parity_rejects_a_word_that_is_not_a_string(capsys, tmp_path):
    path = write_json(
        tmp_path / "f.json",
        {"epsilon": 0, "family": {"zn": 3}, "entries": [[{"coeff": 2, "word": 5}]]},
    )
    code, out, err = run(capsys, ["parity", "--form", path])
    assert code == 1 and out == ""
    assert err.startswith("error:") and "word 5 is not a string" in err


@pytest.mark.parametrize(
    "names, message",
    [(["x y"], "bad generator name 'x y'"), (["x", "x"], "duplicate generator 'x'")],
)
def test_parity_rejects_bad_free_generator_names(capsys, tmp_path, names, message):
    path = write_json(
        tmp_path / "f.json",
        {"epsilon": 0, "family": {"free": names},
         "entries": [[{"coeff": 3, "word": "1"}]]},
    )
    code, out, err = run(capsys, ["parity", "--form", path])
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


def test_orbits_dimension_error_names_both_dimensions(capsys, tmp_path):
    path = write_json(tmp_path / "g.json", [["10", "01"]])
    code, out, err = run(capsys, ["orbits", "--generators", path, "--d", "3"])
    assert code == 2 and out == ""
    assert "error: generator 0 has dimension 2, expected 3" in err


@pytest.mark.parametrize("command, extra", [("orbits", ["--d", "2"]), ("closure", [])])
def test_singular_generator_file_exits_2_naming_the_generator(capsys, tmp_path,
                                                               command, extra):
    path = write_json(tmp_path / "g.json", [["10", "10"]])
    code, out, err = run(capsys, [command, "--generators", path] + extra)
    assert (code, out, err) == (2, "", "error: generator 0 is not invertible\n")


@pytest.mark.parametrize(
    "command, payload, extra, message",
    [
        ("closure", 1, [], "holds 1, not a list of F2 matrices"),
        ("closure", True, [], "holds true, not a list of F2 matrices"),
        ("closure", 1.5, [], "holds 1.5, not a list of F2 matrices"),
        ("orbits", 1, ["--d", "2"], "holds 1, not a list of F2 matrices"),
        ("orbits", True, ["--d", "2"], "holds true, not a list of F2 matrices"),
        ("orbits", 1.5, ["--d", "2"], "holds 1.5, not a list of F2 matrices"),
        ("orbits", [["10", "01"]], ["--d", "-16"], "orbit dimension -16 is negative"),
    ],
)
def test_bad_generator_files_and_dimensions_exit_1(capsys, tmp_path, command,
                                                   payload, extra, message):
    path = write_json(tmp_path / "g.json", payload)
    code, out, err = run(capsys, [command, "--generators", path] + extra)
    assert code == 1 and out == ""
    assert err.startswith("error:") and message in err


@pytest.mark.parametrize("entry", [1.0, True], ids=["float", "bool"])
@pytest.mark.parametrize("command, payload, extra", [
    ("orbits", "gens", ["--generators", "{file}", "--d", "2"]),
    ("closure", "gens", ["--generators", "{file}"]),
    ("arf", "q", ["--q", "{file}"]),
], ids=["orbits", "closure", "arf"])
def test_a_matrix_entry_that_is_not_an_int_bit_exits_1(capsys, tmp_path, entry,
                                                        command, payload, extra):
    """JSON 1.0 and true are no bits: each loader of an F2 matrix refuses
    them by name, and none of them reaches the bit arithmetic."""
    rows = [[entry, 0], [0, 1]] if payload == "gens" else [[0, entry], [1, 0]]
    blob = [rows] if payload == "gens" else {"bilinear": rows, "values": "00"}
    path = write_json(tmp_path / "m.json", blob)
    code, out, err = run(capsys, [command] + [a.format(file=path) for a in extra])
    assert (code, out, err) == (1, "", f"error: matrix entry {entry!r} is not a bit\n")


def test_a_model_file_with_a_non_hermitian_form_exits_2_as_its_form_does(capsys, tmp_path):
    """`decide` reads a HAN1 file's form with the form loader's own errors,
    so a non-hermitian form exits 2 there as it does under `parity`."""
    g1 = [{"coeff": 1, "word": "g1"}]
    form = {"epsilon": 1, "family": {"zn": 3}, "entries": [[], g1, g1, []]}
    form_path = write_json(tmp_path / "f.json", form)
    model = write_json(tmp_path / "m.json", {"w": "000", "signature": 0, "form": form})
    message = ("error: matrix is not hermitian: entry (0, 1) is g1 but entry (1, 0) "
               "is g1, not its conjugate\n")
    for argv in (["parity", "--form", form_path],
                 ["decide", "--a", model, "--b", model, "--category", "top",
                  "--family", "z3"]):
        assert run(capsys, argv) == (2, "", message)


# ---------------------------------------------------------------------------
# fuzz guard: valid argv over mutated JSON files


GL3_ROWS = [["010", "100", "001"], ["001", "100", "010"], ["110", "010", "001"]]
EVEN_TUPLE = {"w": "000", "signature": 0, "parity": "even", "tau": "100"}

# subcommand -> (the JSON file it reads, its argv with {file} for the path)
FUZZ_BASES = {
    "parity": ({"epsilon": 1, "family": {"zn": 3}, "size": 2, "entries": [
        [{"coeff": 1, "word": "1"}], [{"coeff": 1, "word": "g1"}],
        [{"coeff": 1, "word": "g1^-1"}], [{"coeff": 2, "word": "1"}],
    ]}, ["parity", "--form", "{file}"]),
    "arf": ({"bilinear": ["0100", "1000", "0001", "0010"], "values": "1010"},
            ["arf", "--q", "{file}"]),
    "decide": (EVEN_TUPLE, ["decide", "--a", "{file}", "--b", "{file}",
                            "--category", "smooth", "--family", "z3"]),
    "classify": ({"name": "f", "d": 3, "out_generators": GL3_ROWS, "w": "100"},
                 ["classify", "--family", "{file}", "--category", "top"]),
    "orbits": (GL3_ROWS, ["orbits", "--generators", "{file}", "--d", "3"]),
    "closure": (GL3_ROWS, ["closure", "--generators", "{file}"]),
    "model": (presentation_to_json(builtin_presentation(NilFamily(2)), NilFamily(2)),
              ["model", "--kind", "P", "--family", "nil:2", "--gamma", "110",
               "--presentation", "{file}"]),
}

# Small values only: no large dimension, exponent or signature.
small_ints = st.integers(-3, 12)
strings = st.sampled_from((
    "", "0", "1", "01", "10", "11", "000", "010", "110", "0101", "infinity", "odd",
    "even", "x", "y a^-1", "g1 g2^3", "g2^-1", "x^2 y^-1 x^-2 y", "q", "x^", "1 1",
))
json_leaves = st.one_of(
    st.none(), st.booleans(), small_ints, st.sampled_from((0.5, -1.0)), strings)
json_values = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.sampled_from(("nil", "zn", "free", "coeff", "word")), kids,
                      max_size=2),
    max_leaves=6,
)


def _paths(node, path=()):
    yield path
    items = node.items() if isinstance(node, dict) else (
        enumerate(node) if isinstance(node, list) else ())
    for key, child in items:
        yield from _paths(child, path + (key,))


@st.composite
def fuzz_cases(draw):
    command = draw(st.sampled_from(sorted(FUZZ_BASES)))
    blob, argv = FUZZ_BASES[command]
    blob = copy.deepcopy(blob)
    for _ in range(draw(st.integers(1, 3))):
        paths = list(_paths(blob))[1:]  # the root itself is never replaced
        if not paths:
            break
        path = draw(st.sampled_from(paths))
        kind = draw(st.sampled_from(("tweak", "replace", "delete", "duplicate")))
        parent = blob
        for key in path[:-1]:
            parent = parent[key]
        key = path[-1]
        if kind == "tweak" and type(parent[key]) in (int, str):
            # a value of the same type keeps most files past the type checks
            parent[key] = draw(small_ints if type(parent[key]) is int else strings)
        elif kind in ("replace", "tweak"):
            parent[key] = draw(json_values)
        elif kind == "delete":
            del parent[key]
        elif isinstance(parent, list):
            parent.insert(key, copy.deepcopy(parent[key]))
    text = json.dumps(blob)
    if draw(st.integers(0, 9)) == 0:
        text = text[:draw(st.integers(0, len(text)))]
    return argv, text


@settings(max_examples=300, deadline=None)
@given(fuzz_cases())
def test_mutated_files_never_escape_main(case):
    argv, text = case
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setenv("STABLE4_CAP", "5000")
        path = os.path.join(tmp, "input.json")
        with open(path, "w") as fh:
            fh.write(text)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main([arg.replace("{file}", path) for arg in argv])
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().startswith("error: "), err.getvalue()


# Option values for the argv guard: bit-strings, junk tokens, infinity, top.
OPTION_VALUES = st.sampled_from((
    "", "0", "1", "10", "100", "010", "110", "111", "0101", "1a1", "0.5", "x", "-8",
    "3", "8", "16", "\u0660\u0661\u0661", "infinity", "top", "topological",
    "smooth", "odd", "even", "M0", "M1", "N", "P", "realize",
))
ARGV_TUPLES = {
    "odd-almost-spin.json": {"w": "100", "signature": 8, "parity": "odd", "tau": None},
    "even-spin.json": {"w": "000", "signature": 16, "parity": "even", "tau": "110"},
    "odd-spin-8.json": {"w": "000", "signature": 8, "parity": "odd", "tau": None},
    "infinity.json": {"w": "infinity", "signature": 3, "parity": None, "tau": None},
}
MODEL_OPTIONS = ("--kind", "--gamma", "--w", "--tau", "--category", "--parity",
                 "--signature")


@st.composite
def argv_cases(draw):
    family = draw(st.sampled_from(("z3", "nil:1", "nil:2")))
    command = draw(st.sampled_from(("model", "model", "model", "classify", "decide")))
    if command == "model":
        argv = ["model", "--family", family]
        for option in MODEL_OPTIONS:
            if draw(st.booleans()):
                argv += [option, draw(OPTION_VALUES)]
        return argv
    argv = [command, "--family", family, "--category", draw(OPTION_VALUES)]
    if command == "classify":
        return argv + ["--w", draw(OPTION_VALUES)]
    tuple_file = st.sampled_from(sorted(ARGV_TUPLES))
    return argv + ["--a", draw(tuple_file), "--b", draw(tuple_file)]


@settings(max_examples=300, deadline=None)
@given(argv_cases())
@example(["model", "--family", "nil:2", "--kind", "P", "--gamma", "1a1"])
@example(["model", "--family", "z3", "--kind", "N", "--w", "infinity"])
def test_option_values_never_escape_main(argv):
    """Whatever the option values, main exits 0-3 and explains a failure."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in ARGV_TUPLES.items():
            with open(os.path.join(tmp, name), "w") as fh:
                json.dump(payload, fh)
        argv = [os.path.join(tmp, arg) if arg in ARGV_TUPLES else arg for arg in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    assert code in (0, 1, 2, 3)
    if code:
        assert err.getvalue().startswith("error: "), err.getvalue()


# ---------------------------------------------------------------------------
# start-up cost


def test_cli_import_leaves_out_dataclasses_inspect_and_fractions():
    """`import stable4.cli` loads none of dataclasses, inspect, fractions and
    typing, and computing a signature loads none of them either: the
    elimination runs on plain ints.  -S keeps site hooks from importing
    them."""
    script = (
        "import sys, stable4.cli\n"
        "heavy = ('dataclasses', 'inspect', 'fractions', 'typing')\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
        "from stable4.forms import e8_block, signature_int\n"
        "from stable4.words import ZnFamily\n"
        "print(signature_int(e8_block(ZnFamily(3))))\n"
        "print(sorted(m for m in heavy if m in sys.modules))\n"
    )
    code, out, err, _ = run_python("-S", "-c", script)
    assert code == 0, err
    assert out.split("\n")[:3] == ["[]", "8", "[]"]

