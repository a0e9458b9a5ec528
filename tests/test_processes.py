"""Bounds that only a fresh process can show: memory limits, wall times
measured from the parent (interpreter start included), peak RSS, and
STABLE4_CAP read by a CLI that starts with it set.

Every child starts through `conftest.run_python`, one at a time.  A new
time, memory or exit-code bound on a whole process is added here.
"""

import json
import random
import resource
from pathlib import Path

import pytest

from conftest import run_python, write_json
from oracles import fox_derivative_stepwise
from stable4.groupring import ring_elem_from_json
from stable4.words import NilFamily, parse_word

CLI = ("-m", "stable4.cli")
PERFBENCH = str(Path(__file__).resolve().parents[1] / "perfbench")


def unit(i, d):
    return "".join("1" if j == i else "0" for j in range(d))


# A 4-cycle of the basis and one transvection generate GL_4(F2), of order 20160.
GL4 = [["0100", "0010", "0001", "1000"], ["1100", "0100", "0010", "0001"]]
GL4_FAMILY = {"name": "gl4", "d": 4, "out_generators": GL4}
CLOSURE_CAP_LINE = "error: group closure of 2 generators in dimension 4 exceeded cap 20159"


# ---------------------------------------------------------------------------
# fox


def _limit_address_space():
    # as `ulimit -v 1000000`: 10^6 KiB of address space, for the child only
    resource.setrlimit(resource.RLIMIT_AS, (1000000 * 1024,) * 2)


@pytest.mark.parametrize("argv", [
    ["fox", "--word", "x^99999999", "--gen", "x", "--family", "nil:2"],
    ["fox", "--family", "zn:100000000", "--word", "g1", "--gen", "g1"],
], ids=["huge exponent", "huge zn rank"])
def test_fox_refuses_a_huge_input_under_a_memory_limit(argv):
    code, _, err, _ = run_python(*CLI, *argv, preexec_fn=_limit_address_space)
    assert code == 3, err


def test_fox_over_zn_200000_prints_its_80_terms_within_5_s():
    word = " ".join(f"g1 g{k}" for k in range(2, 82))
    code, out, err, wall = run_python(
        *CLI, "fox", "--family", "zn:200000", "--word", word, "--gen", "g1", timeout=20)
    assert code == 0, err
    assert len(json.loads(out)["derivative"]) == 80
    assert wall <= 5.0, f"fox over zn:200000 took {wall:.2f} s, over the 5 s bound"


def test_fox_of_a_20000_syllable_nil2_word_matches_the_stepwise_oracle():
    rng = random.Random(7)
    tokens, last = [], None
    for _ in range(20000):
        gen = rng.choice([g for g in "axy" if g != last])
        exp = rng.choice((-3, -2, -1, 1, 2, 3))
        tokens.append(gen if exp == 1 else f"{gen}^{exp}")
        last = gen
    word = " ".join(tokens)
    code, out, err, _ = run_python(
        *CLI, "fox", "--word", word, "--gen", "x", "--family", "nil:2", timeout=20)
    assert code == 0, err
    # one generic multiply per letter and per expanded term
    fam = NilFamily(2)
    derivative = json.loads(out)["derivative"]
    assert isinstance(derivative, list) and derivative
    want = fox_derivative_stepwise(parse_word(word, fam.generators), 1, fam)
    assert ring_elem_from_json(derivative, fam) == want


# ---------------------------------------------------------------------------
# orbits and closure


def test_orbits_of_a_16_cycle_and_a_transvection(tmp_path):
    d = 16
    cycle = [unit((i + 1) % d, d) for i in range(d)]
    transvection = ["11" + "0" * (d - 2)] + [unit(i, d) for i in range(1, d)]
    path = write_json(tmp_path / "g16.json", [cycle, transvection])
    code, out, err, _ = run_python(
        *CLI, "orbits", "--generators", path, "--d", "16", timeout=20)
    assert code == 0, err
    assert sorted(map(len, json.loads(out)["orbits"])) == [1, 65535]


def test_gl4_closure_has_20160_elements(tmp_path):
    path = write_json(tmp_path / "gl4.json", GL4)
    code, out, err, _ = run_python(*CLI, "closure", "--generators", path)
    assert code == 0, err
    assert json.loads(out)["size"] == 20160


def test_a_closed_stdout_ends_the_gl4_closure_without_a_traceback(tmp_path):
    # About 1.5 MB of JSON, far more than a pipe buffer holds, into a pipe
    # whose read end is already closed, as `| head -c 100` closes it.
    path = write_json(tmp_path / "gl4.json", GL4)
    code, _, err, _ = run_python(*CLI, "closure", "--generators", path, close_stdout=True)
    assert "Traceback" not in err
    assert (code, err) == (141, "")


@pytest.mark.parametrize("argv", [
    ["closure", "--generators", "{gens}"],
    ["classify", "--family", "{family}", "--w", "1000", "--category", "smooth"],
], ids=["closure", "classify"])
def test_stable4_cap_one_below_the_gl4_order_stops_its_closure(tmp_path, argv):
    files = {"gens": write_json(tmp_path / "gens.json", GL4),
             "family": write_json(tmp_path / "gl4.json", GL4_FAMILY)}
    argv = [arg.format(**files) for arg in argv]
    code, _, err, _ = run_python(*CLI, *argv, env={"STABLE4_CAP": "20159"})
    assert code == 3 and CLOSURE_CAP_LINE in err.splitlines(), err


# ---------------------------------------------------------------------------
# classification tables and decide


@pytest.mark.parametrize("category, domain", [("smooth", 8), ("topological", 16)])
def test_gl4_family_file_almost_spin_table(tmp_path, category, domain):
    path = write_json(tmp_path / "gl4.json", GL4_FAMILY)
    code, out, err, _ = run_python(
        *CLI, "classify", "--family", path, "--w", "1000", "--category", category)
    assert code == 0, err
    assert sum(len(c["orbit"]) for c in json.loads(out)["classes"]) == domain


THIRTY_TABLES = """
import json, os, resource, sys
pid = os.fork()
if pid:
    sys.exit(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
from stable4.classify import classify, family_data_from_json
from stable4.f2 import F2Vec
family = family_data_from_json(json.load(open(sys.argv[1])))
for bits in range(1, 16):
    for category, domain in (("smooth", 8), ("topological", 16)):
        table = classify(family, F2Vec(4, bits), category)
        n = sum(len(entry.orbit) for entry in table.classes)
        if n != domain:
            sys.exit(f"w={bits:04b} {category}: orbit sizes sum to {n}, expected {domain}")
peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(f"30 tables, peak RSS {peak_mb:.1f} MB")
if peak_mb > 64:
    sys.exit(f"peak RSS {peak_mb:.1f} MB is over the 64 MB bound")
"""


def test_thirty_gl4_almost_spin_tables_in_one_process_within_64_mb(tmp_path):
    # ru_maxrss of a process counts the RSS of the image it was forked
    # from, here the whole pytest process, so the child forks once and the
    # tables run in a process forked from a fresh interpreter.  (In this
    # process, RUSAGE_CHILDREN would report the largest child so far.)
    path = write_json(tmp_path / "gl4.json", GL4_FAMILY)
    code, out, err, _ = run_python("-c", THIRTY_TABLES, path, timeout=120)
    assert code == 0, err
    assert out.startswith("30 tables, peak RSS ")


def test_d21_identity_family_refuses_at_the_orbit_cap_within_3_s(tmp_path):
    d = 21
    identity = [unit(i, d) for i in range(d)]
    path = write_json(tmp_path / "f.json",
                      {"name": "id21", "d": d, "out_generators": [identity]})
    code, _, err, wall = run_python(
        *CLI, "classify", "--family", path, "--w", "1" + "0" * (d - 1),
        "--category", "topological", timeout=10)
    assert code == 3 and "error: 2^21 states exceed the orbit cap 1048576" in err.splitlines(), err
    # Walking the 2^21 states before the cap check takes several seconds.
    assert wall <= 3.0, f"took {wall:.2f} s to refuse; the orbit cap is checked first"


def test_d20_identity_spin_table_refuses_at_the_orbit_cap_within_3_s(tmp_path):
    # The cap counts the 2^21 spin states (phi, eps), though the table
    # walks only the 2^20 phi.
    d = 20
    identity = [unit(i, d) for i in range(d)]
    path = write_json(tmp_path / "f.json",
                      {"name": "id20", "d": d, "out_generators": [identity]})
    code, _, err, wall = run_python(
        *CLI, "classify", "--family", path, "--w", "0" * d,
        "--category", "smooth", timeout=10)
    assert code == 3 and "error: 2^21 states exceed the orbit cap 1048576" in err.splitlines(), err
    assert wall <= 3.0, f"took {wall:.2f} s to refuse; the orbit cap is checked first"


# The pair (w, tau) = (1000, 1000) has an orbit of 15 * 8 = 120 pairs.
@pytest.mark.parametrize("cap, code, out, err_line", [
    ("120", 0, "EQUIVALENT\n", None),
    ("119", 3, "", "error: orbit in dimension 8 reached 120 states, over the orbit cap 119"),
], ids=["cap 120", "cap 119"])
def test_gl4_decide_walks_one_pair_orbit_under_the_orbit_cap(tmp_path, cap, code, out,
                                                             err_line):
    family = write_json(tmp_path / "gl4.json", GL4_FAMILY)
    t = write_json(tmp_path / "t.json",
                   {"w": "1000", "signature": 0, "parity": "even", "tau": "1000"})
    got = run_python(*CLI, "decide", "--a", t, "--b", t, "--category", "top",
                     "--family", family, "--format", "table", env={"STABLE4_CAP": cap})
    assert got[:2] == (code, out), got[2]
    assert err_line is None or err_line in got[2].splitlines(), got[2]


# ---------------------------------------------------------------------------
# forms


def test_signature_512_form_is_read_back_by_a_second_process(tmp_path):
    code, out, err, _ = run_python(
        *CLI, "model", "--kind", "realize", "--family", "z3", "--w", "0",
        "--signature", "512", "--parity", "odd", timeout=30)
    assert code == 0, err
    blob = json.loads(out)
    assert blob["signature"] == 512
    form = write_json(tmp_path / "form.json", blob["form"])
    code, out, err, _ = run_python(*CLI, "parity", "--form", form, timeout=30)
    assert code == 0, err
    assert json.loads(out)["parity"] == "Odd"


def test_parity_of_a_256_word_zn_100000_form_within_6_s(tmp_path):
    # Diagonal entries 2 * (g<k> g<k>^-1): 256 distinct word texts, each
    # parsed against one generator index for the whole form.
    n = 256
    entries = [[] for _ in range(n * n)]
    for k in range(1, n + 1):
        entries[(k - 1) * (n + 1)] = [{"coeff": 2, "word": f"g{k} g{k}^-1"}]
    form = write_json(tmp_path / "form.json", {"epsilon": 0, "family": {"zn": 100000},
                                               "size": n, "entries": entries})
    code, out, err, wall = run_python(*CLI, "parity", "--form", form, timeout=30)
    assert code == 0, err
    assert json.loads(out)["parity"] == "Even"
    assert wall <= 6.0, f"parity --form took {wall:.2f} s, over the 6 s bound"


SIGNATURES = """
import sys
from stable4.f2 import F2Vec
from stable4.forms import Parity, augmentation_signature, signature_int
from stable4.models import realize_form
from stable4.words import NilFamily, ZnFamily
h = realize_form(ZnFamily(3), F2Vec.zero(3), 992, Parity.ODD)
sig = signature_int(h.form)
if sig != 992:
    sys.exit(f"signature_int of the z3 odd model of rank {h.form.matrix.size} "
             f"is {sig}, expected 992")
h = realize_form(NilFamily(2), F2Vec.zero(3), -256, Parity.EVEN, F2Vec.from_bits("110"))
sig = augmentation_signature(h.form)
if sig != -256:
    sys.exit(f"augmentation_signature of the even nil:2 model of rank "
             f"{h.form.matrix.size} is {sig}, expected -256")
"""


def test_signatures_of_a_rank_994_integer_form_and_a_nil2_shadow():
    code, _, err, _ = run_python("-c", SIGNATURES, timeout=20)
    assert code == 0, err


# ---------------------------------------------------------------------------
# STABLE4_CAP as a CLI process starts with it


@pytest.mark.parametrize("argv", [
    ["model", "--kind", "M0", "--family", "z3"],
    ["classify", "--family", "z3", "--w", "infinity"],
], ids=["model", "classify"])
def test_malformed_stable4_cap_fails_a_fresh_cli_process(argv):
    code, out, err, _ = run_python(*CLI, *argv, env={"STABLE4_CAP": "abc"})
    assert (code, out) == (1, ""), err
    assert "error: STABLE4_CAP='abc' is not an integer" in err.splitlines()


@pytest.mark.parametrize("cap, code", [("8", 0), ("7", 3)])
def test_stable4_cap_bounds_the_z3_orbits_of_a_fresh_cli_process(cap, code):
    got, _, err, _ = run_python(*CLI, "orbits", "--family", "z3", env={"STABLE4_CAP": cap})
    assert got == code, err


# ---------------------------------------------------------------------------
# the benchmark self-test's pins, in the process state the self-test runs in

SELFTEST_PINS = f"""
import sys
sys.path.insert(0, {PERFBENCH!r})
import selftest
errors = selftest.wrapper_cases() + selftest.constant_errors() + selftest.catalog_errors()
print("\\n".join(errors))
"""


def test_benchmark_wrapper_pins_hold_in_a_fresh_process():
    """The traced counts of the self-test's fixed cases, the generator-set
    orders and the per-layer catalogue, as `perfbench/run.py --self-test`
    checks them, with its PYTHONHASHSEED."""
    code, out, err, _ = run_python("-c", SELFTEST_PINS, env={"PYTHONHASHSEED": "0"})
    assert code == 0, err
    assert out.strip() == "", out


SELFTEST_ROUND = f"""
import sys
sys.path.insert(0, {PERFBENCH!r})
import metrics, selftest, workloads
pinned = metrics.expected()["digests"]
for name in workloads.WORKLOADS:
    digest, _, failed = selftest.workload_round(name, sys.argv[1])
    if failed:
        print(f"{{name}}: {{failed}} operations failed their checks")
    if digest != pinned.get(name):
        print(f"{{name}}: digest {{digest}} differs from the pinned one")
"""


def test_benchmark_round_zero_digests_hold_in_a_fresh_process(tmp_path):
    """Round 0 of every workload at the default seed reproduces its pinned
    digest with no failed operation, as `perfbench/run.py --self-test`
    checks it, with its PYTHONHASHSEED; the run writes only under tmp_path."""
    code, out, err, _ = run_python("-c", SELFTEST_ROUND, str(tmp_path),
                                   env={"PYTHONHASHSEED": "0"}, timeout=120)
    assert code == 0, err
    assert out.strip() == "", out
