import argparse
import contextlib
import hashlib
import io
import json
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from cyclomap import (
    BranchMap,
    cli,
    gf,
    mto1,
    criterion_2to1_any_l,
    criterion_equal_d,
    criterion_l2,
    criterion_l3,
    decompose,
    field_from_id,
    lift_to_full_field,
    multiplicative_group,
    parse_branches,
    parse_polynomial,
)
from cyclomap.mto1 import (
    CRITERIA,
    cor32,
    cor33,
    cor42,
    cor43,
    cor53,
    cor54,
    cor55,
    cor56,
    cor61,
    cor62,
)

from cyclomap.notation import element_json

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


_SRC = str(pathlib.Path(__file__).resolve().parents[1] / "src")


def fresh_cli(argv, timeout=60, popen=False):
    """`python -m cyclomap.cli ARGV` in a new interpreter that imports the
    package from this checkout: a finished run, or with popen the child."""
    path = os.pathsep.join(p for p in (_SRC, os.environ.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-m", "cyclomap.cli", *argv]
    env = dict(os.environ, PYTHONPATH=path)
    if popen:
        return subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout, env=env)


GOLDEN_CASES = {
    "field_info_f64": ["--json", "field-info", "--field", "2^6"],
    "classify_f5": ["--json", "classify", "--field", "5", "--poly", "x^3+x", "--domain", "fq"],
    "cyc_classify_f13": ["--json", "cyc-classify", "--field", "13", "--ell", "2", "--branches", "1:2,-1:4"],
    "expand_f13_l3": ["--json", "expand", "--field", "13", "--ell", "3", "--branches", "1:2,2:2,-5:2"],
    "relation_f13": ["--json", "relation", "--field", "13", "--ell", "2", "--branches", "1:2,4:6", "--i", "1", "--j", "0"],
    "crit_l2_f13": ["--json", "crit", "--theorem", "l2", "--field", "13", "--ell", "2", "--branches", "1:2,-1:4", "--m", "2"],
    "unit_classify_q5": ["--json", "unit-classify", "--q", "5", "--r", "1", "--h", "1+2*x"],
    "unit_family_cb0_q5": ["--json", "unit-family", "--family", "CB0", "--q", "5", "--r", "1", "--u", "2", "--a", "z^2", "--check"],
    "enumerate_f13": ["--json", "enumerate", "--field", "13", "--ell", "2", "--m", "3", "--limit", "3"],
    "verify_l2_f5": ["--json", "verify", "--criterion", "l2", "--field", "5", "--ell", "2", "--r-min", "1", "--r-max", "4"],
}


@pytest.mark.parametrize("name", sorted(GOLDEN_CASES))
def test_golden_json(name):
    code, out, err = run_cli(GOLDEN_CASES[name])
    assert code == 0, err
    expected = json.loads((GOLDEN / f"{name}.json").read_text())
    assert json.loads(out) == expected


@pytest.mark.parametrize("name", ["unit_classify_q5", "enumerate_f13"])
def test_golden_json_in_a_fresh_process(name):
    # these commands load unitary and search only when they run
    proc = fresh_cli(GOLDEN_CASES[name])
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    assert json.loads(proc.stdout) == json.loads((GOLDEN / f"{name}.json").read_text())


def test_json_is_single_document():
    code, out, _ = run_cli(GOLDEN_CASES["classify_f5"])
    assert code == 0
    assert json.loads(out)  # parses as exactly one document


def test_json_flag_accepted_after_subcommand():
    before = run_cli(["--json", "classify", "--field", "5", "--poly", "x^3+x",
                      "--domain", "fq"])
    after = run_cli(["classify", "--field", "5", "--poly", "x^3+x",
                     "--domain", "fq", "--json"])
    assert before == after and before[0] == 0


def test_exit_codes():
    # holds -> 0
    code, _, _ = run_cli(
        ["crit", "--theorem", "l2", "--field", "13", "--ell", "2",
         "--branches", "1:2,-1:4", "--m", "2"]
    )
    assert code == 0
    # applicable but false -> still 0 (the verdict is the output)
    code, out, _ = run_cli(
        ["--json", "crit", "--theorem", "l2", "--field", "13", "--ell", "2",
         "--branches", "1:2,-1:4", "--m", "5"]
    )
    assert code == 0 and json.loads(out)["holds"] is False
    # hypotheses unmet -> 2
    code, _, _ = run_cli(
        ["crit", "--theorem", "cor33", "--field", "7", "--ell", "2",
         "--branches", "1:3,1:3", "--m", "3"]
    )
    assert code == 2
    code, _, _ = run_cli(
        ["crit", "--theorem", "equal-d", "--field", "13", "--ell", "2",
         "--branches", "1:2,1:1", "--m", "2"]
    )
    assert code == 2
    # data errors -> 1
    code, _, err = run_cli(["classify", "--field", "6", "--poly", "x"])
    assert code == 1
    code, _, _ = run_cli(["classify", "--field", "5", "--poly", "x^^"])
    assert code == 1
    # usage errors -> 1
    code, _, _ = run_cli(["classify"])
    assert code == 1


@pytest.mark.parametrize("argv", [
    ["verify", "--criterion", "l2", "--field", "13"],
    ["crit", "--theorem", "l2", "--m", "2"],
    ["crit", "--theorem", "lift", "--field", "13"],
    ["relation", "--field", "13", "--ell", "2", "--branches", "1:1,1:2",
     "--i", "5", "--j", "0"],
    ["enumerate", "--field", "13", "--ell", "2", "--m", "0"],
    ["classify", "--field", "5", "--poly", "(" * 3000 + "x" + ")" * 3000],
    ["field-info", "--field", "13", "--generator", "[2"],
    ["field-info", "--field", "13", "--generator", "[2,1]"],
    ["field-info", "--field", "5^2", "--generator", "31"],
    ["field-info", "--field", "5^2", "--generator", "-1"],
    ["enumerate", "--field", "13", "--ell", "3", "--m", "13"],
    ["enumerate", "--field", "13", "--ell", "2", "--m", "2", "--limit", "-1"],
    ["verify", "--criterion", "l2", "--field", "13", "--ell", "3",
     "--r-min", "5", "--r-max", "2"],
    ["verify", "--criterion", "l2", "--field", "13", "--ell", "2",
     "--a-min", "5", "--a-max", "2"],
    ["verify", "--criterion", "l2", "--field", "13", "--ell", "2",
     "--mode", "random", "--m-min", "5", "--m-max", "2"],
    ["enumerate", "--field", "13", "--ell", "2", "--m", "2", "--r-min", "13"],
    ["verify", "--criterion", "l2", "--field", "13", "--ell", "2",
     "--mode", "random", "--samples", "0"],
    ["verify", "--criterion", "l2", "--field", "13", "--ell", "2",
     "--mode", "random", "--samples", "-3"],
    ["classify"],
    ["crit", "--theorem", "nope"],
    ["verify", "--jobs", "x"],
    ["relation", "--ell", "0", "--branches", "g^5:13", "--i", "0", "--j", "1"],
])
def test_incomplete_or_out_of_range_input_is_a_usage_error(argv):
    # each of these once escaped as a traceback (or, for m=0, scanned the
    # whole space for nothing; an unclosed generator list failed in int(),
    # and a generator outside the field was kept and printed; an empty
    # window failed inside islice or silently swept nothing; a random sweep
    # of no samples reported "cases: 0"; a flag argparse refused printed its
    # usage block before the reason)
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_help_keeps_its_full_text_and_exit_0():
    code, out, err = run_cli(["crit", "--help"])
    assert (code, err) == (0, "") and out.startswith("usage: cyclomap crit")
    assert "--theorem" in out and out.count("\n") > 10


_VERIFY_L2_F5 = ["verify", "--criterion", "l2", "--field", "5", "--ell", "2"]
_VERIFY_2TO1_F7 = ["verify", "--criterion", "2to1", "--field", "7", "--ell", "2"]
_ENUMERATE_F5 = ["enumerate", "--field", "5", "--ell", "2", "--m", "2"]


@pytest.mark.parametrize("base, one_end, other_end", [
    (_VERIFY_L2_F5, ["--a-max", "2"], ["--a-min", "0"]),
    (_VERIFY_L2_F5, ["--m-max", "2"], ["--m-min", "1"]),
    (_VERIFY_L2_F5, ["--m-min", "2"], ["--m-max", "4"]),
    (_ENUMERATE_F5, ["--a-max", "2"], ["--a-min", "0"]),
    (_ENUMERATE_F5, ["--r-max", "2"], ["--r-min", "1"]),
    (_ENUMERATE_F5, ["--r-min", "3"], ["--r-max", "4"]),
    (_VERIFY_L2_F5, ["--a-min", "1"], ["--a-max", "3"]),
    (_VERIFY_L2_F5, ["--r-max", "2"], ["--r-min", "1"]),
    (_VERIFY_L2_F5, ["--r-min", "3"], ["--r-max", "4"]),
    (_VERIFY_2TO1_F7, ["--m-max", "3"], ["--m-min", "1"]),
    (_VERIFY_2TO1_F7, ["--m-min", "3"], ["--m-max", "6"]),
    (_ENUMERATE_F5, ["--a-min", "1"], ["--a-max", "3"]),
])
def test_a_window_with_one_end_takes_the_default_other_end(base, one_end, other_end):
    # with only --a-max, --m-max or --r-max these ended in a TypeError
    # traceback, and a lone --m-min, --a-min or --r-min was ignored
    code, out, err = run_cli(["--json", *base, *one_end])
    assert code == 0 and err == ""
    assert (code, out, err) == run_cli(["--json", *base, *one_end, *other_end])
    assert out != run_cli(["--json", *base])[1]


def test_field_info_degree_40_in_a_fresh_process():
    # the default-modulus search once walked the 2^39 tuples with c0 = 0
    proc = fresh_cli(["--json", "field-info", "--field", "2^40"], timeout=120)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert len(payload["modulus"]) == 41 and payload["modulus"][-1] == 1
    assert payload["log_table"] is False


@pytest.mark.parametrize("field_id", ["2^89", "2^127", "1000000000000000003",
                                      "4294967291^2", "2305843009213693951^2",
                                      "1000000000000000003^2"])
def test_field_info_on_a_large_prime_ends_in_a_fresh_process(field_id):
    # trial division to the square root of 2^89 - 1, 2^127 - 1 or the prime
    # p itself ran unbounded, where Miller-Rabin and an n-1 proof answer at
    # once; the modulus search over P^2 built range(P) as a tuple (MemoryError);
    # trial division left p^2 - 1 = (p - 1)(p + 1) unfactored at p = 10^18 + 3
    proc = fresh_cli(["field-info", "--field", field_id], timeout=5)
    assert (proc.returncode, proc.stderr) == (0, ""), proc.stderr
    assert f"field: {field_id}" in proc.stdout.splitlines()


@pytest.mark.parametrize("argv", [
    ["unit-classify", "--q", "2305843009213693951", "--r", "1", "--h", "1+x"],
    ["unit-classify", "--q", "1000000000000000003", "--r", "1", "--h", "1+x"],
    ["unit-family", "--family", "CBU", "--q", "1000000000000000003",
     "--r", "1", "--u", "0", "--a", "z"],
])
def test_unit_commands_past_the_circle_cap_end_in_a_fresh_process(argv):
    # make_wrapped evaluated h at every one of the q+1 circle points, and
    # CBU built h's q+1 dense coefficients (MemoryError); both now stop at
    # the cap before h is evaluated or built
    proc = fresh_cli(argv, timeout=5)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr.endswith(" unit-circle points, more than the cap 4194304\n")
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["classify", "--field", "1000000000000000003", "--poly", "x^100000000000000000"],
    ["unit-classify", "--q", "1000000000000000003", "--r", "1",
     "--h", "1+x^100000000000000000"],
])
def test_a_power_past_the_dense_cap_ends_in_a_fresh_process(argv):
    # x^E was built by repeated dense products and ran unbounded; a monomial
    # now folds its exponent, and the folded degree meets the cap
    proc = fresh_cli(argv, timeout=5)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith(
        " dense polynomial coefficients, more than the cap 4194304\n")


@pytest.mark.parametrize("argv", [
    ["classify", "--field", "1000000000000000003", "--poly", "x^3"],
    ["crit", "--theorem", "lift", "--field", "8388617", "--poly", "x^3", "--m", "3"],
    ["classify", "--field", "2^89", "--poly", "x^3"],
    ["enumerate", "--field", "2^23", "--ell", "1", "--m", "1", "--limit", "1"],
])
def test_a_walk_past_the_point_cap_ends_in_a_fresh_process(argv):
    # classify and lift evaluated the map at every point of the field, and
    # enumerate counted every point of each map; each now stops at the cap,
    # counted from q (len(range(q)) overflows past 2^63)
    proc = fresh_cli(argv, timeout=5)
    assert (proc.returncode, proc.stdout) == (1, ""), proc.stderr
    assert proc.stderr.startswith("error: ") and proc.stderr.count("\n") == 1
    assert proc.stderr.endswith(" points to count, more than the cap 4194304\n")


@pytest.mark.parametrize("field_id, branches", [
    ("2^6", "1:5,g:9,g^40:1"),
    ("3^4", "g^79:2,1:4"),
    ("13", "1:2,-1:4"),
    ("2^40", "g^5:7,g:1,1:7"),
])
def test_cyc_classify_prints_branch_constants_from_their_logs(field_id, branches):
    # the constants come from the map's logs, in element_json's form
    F = field_from_id(field_id)
    ell = len(branches.split(","))
    code, out, _ = run_cli(["--json", "cyc-classify", "--field", field_id,
                            "--ell", str(ell), "--branches", branches])
    assert code == 0
    expected = [[element_json(F, a), r] for a, r in parse_branches(branches, F)]
    assert json.loads(out)["branches"] == expected


def test_cyc_classify_degree_40_in_a_fresh_process():
    # residue classes and Pohlig-Hellman logs: nothing walks 2^40 points
    proc = fresh_cli(["--json", "cyc-classify", "--field", "2^40", "--ell", "3",
                      "--branches", "g^5:7,g^11:7,g^2:7"], timeout=30)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["histogram"] == {"1": 2 ** 40 - 1} and payload["valid_m"] == [1]
    assert payload["branches"] == [["g^5", 7], ["g^11", 7], ["g^2", 7]]


def test_cyc_classify_refuses_a_residue_list_past_its_cap():
    # r = 0 makes L = ell * lcm(d_i) the group order 2^40 - 1: one error
    # line and exit 1, not a MemoryError traceback
    proc = fresh_cli(["cyc-classify", "--field", "2^40", "--ell", "3",
                      "--branches", "g:0,g:7,g:7"], timeout=30)
    assert proc.returncode == 1 and proc.stdout == ""
    assert len(proc.stderr.splitlines()) == 1, proc.stderr
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


LARGE_Q_REFERENCE = (pathlib.Path(__file__).resolve().parents[1]
                     / "bench" / "reference" / "large-q.json")


@pytest.mark.parametrize("field_id", ["2^20", "1048573"])
def test_cyc_classify_on_large_fields_counts_no_point_and_builds_no_table(
        field_id, monkeypatch):
    # stdout digests recorded by brute force, now met with neither the
    # counting oracle nor exp/log tables
    def refuse(*args, **kwargs):
        raise AssertionError("cyc-classify counted points or built tables")

    monkeypatch.setattr(gf, "_FIELD_CACHE", {})
    monkeypatch.setattr(mto1, "_fiber_sizes", refuse)
    monkeypatch.setattr(gf.Field, "_build_tables", refuse)
    digests = json.loads(LARGE_Q_REFERENCE.read_text())["stdout_sha256"]
    commands = [key.split() for key in digests
                if key.split()[1:4] == ["cyc-classify", "--field", field_id]]
    assert len(commands) == 2
    for argv in commands:
        code, out, err = run_cli(argv)
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == digests[" ".join(argv)]


WALKING_COMMANDS = {
    "classify": ["classify", "--field", "2^14", "--poly", "g^11*x^31+g^2*x^20+x^3"],
    "relation": ["--json", "relation", "--field", "2^14", "--ell", "3",
                 "--branches", "g^5:3,g^5:6,g:9", "--i", "0", "--j", "1"],
    "expand": ["--json", "expand", "--field", "2^14", "--ell", "3",
               "--branches", "g^5:3,g^7:6,g:9"],
    "enumerate": ["--json", "enumerate", "--field", "2^14", "--ell", "3", "--m", "1",
                  "--limit", "3", "--a-max", "40", "--r-max", "40"],
    "lift": ["--json", "crit", "--theorem", "lift", "--field", "2^14",
             "--poly", "g^7*x^5", "--m", "1"],
}


@pytest.mark.parametrize("name", sorted(WALKING_COMMANDS))
def test_field_walks_print_the_same_with_tables_built_beforehand(name, monkeypatch):
    outputs = []
    for prebuilt in (False, True):
        monkeypatch.setattr(gf, "_FIELD_CACHE", {})
        F = field_from_id("2^14")  # the field the command will look up
        assert F._log is None
        if prebuilt:
            F._load_tables()
        code, out, err = run_cli(WALKING_COMMANDS[name])
        assert code == 0, err
        assert F._log is not None  # the walk built them when nothing had
        outputs.append(out)
    assert outputs[0] == outputs[1]


def test_worked_examples_single_invocations():
    # each acceptance example is expressible as one CLI call
    code, out, _ = run_cli(
        ["--json", "classify", "--field", "13", "--poly", "x^10+x^8-x^4+x^2",
         "--domain", "fqstar"]
    )
    assert code == 0 and json.loads(out)["valid_m"] == [2]
    code, out, _ = run_cli(
        ["--json", "classify", "--field", "17", "--poly",
         "6*x^13-7*x^9+x^5-6*x", "--domain", "fqstar"]
    )
    assert code == 0 and json.loads(out)["valid_m"] == [2]
    code, out, _ = run_cli(
        ["--json", "classify", "--field", "13", "--poly", "x^7",
         "--domain", "fqstar"]
    )
    assert code == 0 and 1 in json.loads(out)["valid_m"]
    code, out, _ = run_cli(
        ["--json", "unit-classify", "--q", "32", "--r", "6",
         "--h", "1+x^11+(z^-1+z^10)*x^2"]
    )
    assert code == 0 and json.loads(out)["f_valid_m"] == [3]


def test_field_override_flags():
    code, out, _ = run_cli(
        ["--json", "field-info", "--field", "13", "--generator", "6"]
    )
    assert code == 0 and json.loads(out)["generator"] == "6"
    code, out, _ = run_cli(
        ["--json", "field-info", "--field", "2^6", "--modulus",
         "1,1,0,1,1,0,1"]
    )
    assert code == 0 and json.loads(out)["modulus"] == [1, 1, 0, 1, 1, 0, 1]


@pytest.mark.parametrize("argv,registry,bad", [
    (["field-info", "--field", "13", "--modulus", "a,b"], None, "a,b"),
    (["field-info", "--field", "13", "--generator", "abc"], None, "abc"),
    (["field-info", "--field", "5^2", "--modulus", "1,,1"], None, "1,,1"),
    (["field-info", "--field", "5^2"], "5^2.modulus = 2,x,1\n", "2,x,1"),
], ids=["modulus", "generator", "empty-coefficient", "registry-modulus"])
def test_a_non_integer_modulus_or_generator_is_a_parse_error(argv, registry, bad, tmp_path):
    if registry:
        cfg = tmp_path / "fields.cfg"
        cfg.write_text(registry)
        argv = ["--config", str(cfg), *argv]
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err.count("error:") == 1 and err.startswith("error: ") and repr(bad) in err, err
    assert "invalid literal" not in err


def test_config_file(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(
        "criterion = l2\nfield = 5\nell = 2\nr_min = 1\nr_max = 4\n"
        "mode = exhaustive\n13.generator = 6\n"
    )
    code, out, _ = run_cli(["--json", "--config", str(cfg), "verify"])
    assert code == 0
    payload = json.loads(out)
    assert payload["criterion"] == "l2" and payload["mismatch_count"] == 0
    # the registry applies to field construction too
    code, out, _ = run_cli(
        ["--json", "--config", str(cfg), "field-info", "--field", "13"]
    )
    assert code == 0 and json.loads(out)["generator"] == "6"


def test_human_output_lines():
    code, out, _ = run_cli(
        ["classify", "--field", "5", "--poly", "x^3+x", "--domain", "fq"]
    )
    assert code == 0
    assert "valid m" in out and "[3]" in out


def test_enumerate_that_finds_no_map_says_so():
    argv = ["enumerate", "--field", "13", "--ell", "2", "--m", "1", "--r-min", "2",
            "--r-max", "2"]
    assert run_cli(argv) == (0, "no 1-to-1 map found\n", "")
    code, out, _ = run_cli(["--json", *argv])
    assert code == 0 and json.loads(out)["maps"] == []


def test_closed_stdout_ends_in_exit_1_without_a_traceback():
    child = fresh_cli(["enumerate", "--field", "13", "--ell", "2", "--m", "1"], popen=True)
    child.stdout.close()  # before the child writes its first map
    err = child.stderr.read().decode()
    assert child.wait(timeout=60) == 1
    assert "Traceback" not in err and err.count("\n") <= 1, err


def test_unit_classify_alternative_generator():
    for j in ("1", "2", "5"):
        code, out, _ = run_cli(
            ["--json", "unit-classify", "--q", "32", "--r", "6",
             "--gen-exp", j, "--h", "1+x^11+(z^-1+z^10)*x^2"]
        )
        assert code == 0 and json.loads(out)["f_valid_m"] == [3]


def test_unit_classify_checks_ell_with_or_without_m():
    # without --m a coset index that does not divide q+1 was ignored: exit 0
    # and both valid-m lines
    base = ["unit-classify", "--q", "5", "--r", "1", "--h", "1"]
    for json_flag in ([], ["--json"]):
        for ell in ("7", "0"):
            refused = (2, "", f"not applicable: {ell} does not divide 6\n")
            assert run_cli([*json_flag, *base, "--ell", ell]) == refused
            assert run_cli([*json_flag, *base, "--ell", ell, "--m", "1"]) == refused
        for ell in ("1", "2", "3", "6"):
            assert run_cli([*json_flag, *base, "--ell", ell]) == run_cli([*json_flag, *base])


def test_crit_specialized_paths():
    code, out, _ = run_cli(
        ["--json", "crit", "--theorem", "cor56", "--q", "5", "--n", "2",
         "--ell", "2", "--m", "1"]
    )
    assert code == 0 and json.loads(out)["holds"] is True
    code, out, _ = run_cli(
        ["--json", "crit", "--theorem", "cor61", "--field", "13",
         "--g0", "x+1", "--g1", "2", "--r0", "3", "--r1", "3", "--m", "3"]
    )
    assert code == 0 and json.loads(out)["holds"] is True
    code, out, _ = run_cli(
        ["--json", "crit", "--theorem", "cor62", "--q", "5", "--n", "2",
         "--h0", "2", "--h1", "3", "--r0", "1", "--r1", "1", "--m", "1"]
    )
    assert code == 0 and json.loads(out)["holds"] is True
    code, out, _ = run_cli(
        ["--json", "crit", "--theorem", "cor53", "--field", "13", "--ell", "3",
         "--a0", "3", "--a1", "-3", "--r0", "2", "--r1", "2", "--m", "2"]
    )
    assert code == 0 and json.loads(out)["holds"] is True
    code, out, _ = run_cli(
        ["--json", "crit", "--theorem", "2to1", "--field", "17", "--ell", "4",
         "--branches", "8:2,2:3,-8:2,4:3"]
    )
    assert code == 0 and json.loads(out)["witness"] == "mixed clause"


def test_verify_prints_three_summary_lines_and_elapsed_under_stats():
    argv = ["verify", "--criterion", "l2", "--field", "13", "--ell", "2",
            "--r-min", "1", "--r-max", "6"]
    _, out, _ = run_cli(["--json", *argv])
    payload = json.loads(out)
    summary = [
        "criterion l2 on GF(13), ell=2, mode=exhaustive",
        f"cases: {payload['total_cases']} ({payload['applicable_cases']} applicable)",
        "mismatches: 0",
    ]
    code, out, _ = run_cli(argv)
    assert (code, out.splitlines()) == (0, summary)
    code, out, _ = run_cli([*argv, "--stats"])
    lines = out.splitlines()
    assert (code, lines[:3], len(lines)) == (0, summary, 4)
    assert re.fullmatch(r"elapsed: \d+\.\d\ds", lines[3]), lines[3]


def test_verify_parallel_jobs_equals_serial():
    base = ["--json", "verify", "--criterion", "l2", "--field", "13",
            "--ell", "2", "--r-min", "1", "--r-max", "6"]
    _, serial, _ = run_cli(base)
    _, parallel, _ = run_cli(base + ["--jobs", "2"])
    assert json.loads(serial) == json.loads(parallel)


def test_crit_2to1_on_the_group_of_order_1_is_not_applicable():
    # GF(2)* has one element, so no map on it is 2-to-1: crit exits 2
    verdict = criterion_2to1_any_l(_bm("2", 1, "1:1"))
    assert verdict == (False, None, "group too small for m=2")
    code, out, _ = run_cli(["--json", "crit", "--theorem", "2to1", "--field", "2",
                            "--ell", "1", "--branches", "1:1"])
    assert code == 2
    assert json.loads(out)["witness"] == "group too small for m=2"


def test_crit_lift_and_seeded_verify():
    code, out, _ = run_cli(
        ["--json", "crit", "--theorem", "lift", "--field", "13",
         "--poly", "x^2", "--m", "2"]
    )
    assert code == 0 and json.loads(out)["holds"] is True
    code, out, _ = run_cli(
        ["--json", "verify", "--criterion", "l3", "--field", "13", "--ell", "3",
         "--r-min", "1", "--r-max", "12", "--mode", "random",
         "--samples", "200", "--seed", "42"]
    )
    assert code == 0 and json.loads(out)["mismatch_count"] == 0


def _bm(field_id, ell, branches):
    F = field_from_id(field_id)
    return BranchMap(decompose(multiplicative_group(F), ell), parse_branches(branches, F))


def _poly(field_id, text):
    return parse_polynomial(text, field_from_id(field_id))


# One crit input per theorem, and the library call on the same map and m.
CRIT_CASES = {
    "l2": (["--field", "13", "--ell", "2", "--branches", "1:2,-1:4", "--m", "2"],
           lambda: criterion_l2(_bm("13", 2, "1:2,-1:4"), 2)),
    "l3": (["--field", "13", "--ell", "3", "--branches", "1:2,2:2,-5:2", "--m", "2"],
           lambda: criterion_l3(_bm("13", 3, "1:2,2:2,-5:2"), 2)),
    "2to1": (["--field", "17", "--ell", "4", "--branches", "8:2,2:3,-8:2,4:3"],
             lambda: criterion_2to1_any_l(_bm("17", 4, "8:2,2:3,-8:2,4:3"))),
    "equal-d": (["--field", "13", "--ell", "2", "--branches", "1:2,-1:4", "--m", "4"],
                lambda: criterion_equal_d(_bm("13", 2, "1:2,-1:4"), 4)),
    "lift": (["--field", "13", "--poly", "x^2", "--m", "2"],
             lambda: lift_to_full_field(_poly("13", "x^2"), field_from_id("13"), 2)),
    "cor32": (["--field", "13", "--ell", "2", "--branches", "1:2,-1:4"],
              lambda: cor32(_bm("13", 2, "1:2,-1:4"))),
    "cor33": (["--field", "13", "--ell", "2", "--branches", "1:3,2:3", "--m", "3"],
              lambda: cor33(_bm("13", 2, "1:3,2:3"))),
    "cor42": (["--field", "13", "--ell", "3", "--branches", "1:2,2:2,-5:2"],
              lambda: cor42(_bm("13", 3, "1:2,2:2,-5:2"))),
    "cor43": (["--field", "19", "--ell", "3", "--branches", "1:3,2:3,4:3", "--m", "3"],
              lambda: cor43(_bm("19", 3, "1:3,2:3,4:3"))),
    "cor53": (["--field", "13", "--ell", "3", "--a0", "3", "--a1", "-3",
               "--r0", "2", "--r1", "2", "--m", "2"],
              lambda: cor53(field_from_id("13"), 3, 3, 10, 2, 2, 2)),
    "cor54": (["--field", "13", "--ell", "2", "--branches", "1:2,-1:4"],
              lambda: cor54(_bm("13", 2, "1:2,-1:4"))),
    "cor55": (["--field", "13", "--ell", "2", "--branches", "1:1,-1:5", "--m", "2"],
              lambda: cor55(_bm("13", 2, "1:1,-1:5"), 2)),
    "cor56": (["--q", "5", "--n", "2", "--ell", "2", "--m", "1"],
              lambda: cor56(5, 2, 2, 1)),
    "cor61": (["--field", "13", "--g0", "x+1", "--g1", "2", "--r0", "3",
               "--r1", "3", "--m", "3"],
              lambda: cor61(field_from_id("13"), _poly("13", "x+1"),
                            _poly("13", "2"), 3, 3, 3)),
    "cor62": (["--q", "5", "--n", "2", "--h0", "2", "--h1", "3", "--r0", "1",
               "--r1", "1", "--m", "1"],
              lambda: cor62(5, 2, _poly("5^2", "2"), _poly("5^2", "3"), 1, 1, 1)),
}


def test_crit_cases_cover_every_theorem():
    assert list(CRIT_CASES) == list(CRITERIA)


@pytest.mark.parametrize("theorem", list(CRIT_CASES))
def test_crit_matches_the_library_call(theorem):
    argv, library_call = CRIT_CASES[theorem]
    code, out, err = run_cli(["--json", "crit", "--theorem", theorem, *argv])
    verdict = library_call()
    assert code == (0 if verdict.applicable else 2), err
    payload = json.loads(out)
    assert (payload["applicable"], payload["holds"], payload["witness"]) == verdict


def _argv_at_m(argv, m):
    flags = dict(zip(argv[::2], argv[1::2]), **{"--m": str(m)})
    return [token for pair in flags.items() for token in pair]


def _field_size(argv):
    flags = dict(zip(argv[::2], argv[1::2]))
    if "--field" in flags:
        return field_from_id(flags["--field"]).q
    return int(flags["--q"]) ** int(flags["--n"])


@pytest.mark.parametrize("theorem", list(CRIT_CASES))
def test_crit_answers_m_out_of_range_outside_its_m(theorem):
    argv, _ = CRIT_CASES[theorem]
    fixed_m = CRITERIA[theorem].fixed_m
    ms = [0, _field_size(argv) + 1, *([fixed_m + 1] if fixed_m else [])]
    for m in ms:
        code, out, err = run_cli(["--json", "crit", "--theorem", theorem, *_argv_at_m(argv, m)])
        payload = json.loads(out)
        assert (code, payload["witness"], payload["m"]) == (2, "m-out-of-range", m), err


def test_crit_m_defaults_to_the_fixed_m_else_2():
    base = ["--json", "crit", "--field", "13", "--ell", "2", "--branches", "1:3,g:3"]
    for theorem, m, code in (("cor33", 3, 0), ("cor54", 2, 2), ("2to1", 2, 0)):
        got, out, _ = run_cli([*base, "--theorem", theorem])
        assert (got, json.loads(out)["m"]) == (code, m), theorem
    code, out, _ = run_cli([*base, "--theorem", "cor54", "--m", "3"])
    assert (code, json.loads(out)["witness"]) == (0, "residues injective: map is 3-to-1")


def _choices(command, dest):
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    return next(a.choices for a in sub.choices[command]._actions if a.dest == dest)


def test_crit_and_verify_choices():
    assert _choices("crit", "theorem") == (
        "l2", "l3", "2to1", "equal-d", "lift", "cor32", "cor33", "cor42",
        "cor43", "cor53", "cor54", "cor55", "cor56", "cor61", "cor62",
    )
    assert _choices("verify", "criterion") == ("l2", "l3", "2to1", "equal-d")


@pytest.mark.parametrize("argv, exit_code", [
    (["--q", "4", "--n", "2", "--ell", "0"], 2),
    (["--q", "5", "--n", "2", "--ell", "-1", "--m", "1"], 2),
    (["--q", "6", "--n", "2", "--ell", "1", "--m", "1"], 1),
    (["--q", "10", "--n", "2", "--ell", "3", "--m", "1"], 1),
    (["--q", "5", "--n", "0", "--ell", "2", "--m", "1"], 1),
])
def test_crit_cor56_bad_input_is_one_line(argv, exit_code):
    # l = 0 once ended in a ZeroDivisionError traceback, and GF(6), GF(10)
    # were answered as if they existed
    code, out, err = run_cli(["crit", "--theorem", "cor56", *argv])
    assert code == exit_code and out == ""
    assert err.count("\n") == 1 and "Traceback" not in err
    assert err.startswith("not applicable: " if exit_code == 2 else "error: ")


def test_verify_reads_the_a_window_from_a_config(tmp_path):
    # a config's a_min/a_max were ignored: a_max = 1 ran all 1024 cases
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("criterion = l2\nfield = 5\nell = 2\na_min = 0\na_max = 1\n")
    from_config = run_cli(["--json", "--config", str(cfg), "verify"])
    from_flags = run_cli(["--json", *_VERIFY_L2_F5, "--a-max", "1"])
    assert from_config == from_flags
    assert json.loads(from_config[1])["total_cases"] == 256


def test_unreadable_config_is_one_line(tmp_path):
    # a line without '=' and a file that is not UTF-8 ended in tracebacks
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("13.generator 2\n")
    assert run_cli(["--config", str(cfg), "field-info", "--field", "13"]) == (
        1, "", "error: config line 1: expected 'key = value'\n")
    cfg.write_bytes(b"13.generator = \xff\n")
    code, out, err = run_cli(["--config", str(cfg), "field-info", "--field", "13"])
    assert (code, out) == (1, "") and err.startswith("error: cannot read config: ")
    assert err.count("\n") == 1


def test_verify_config_with_unknown_criterion(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("criterion = nope\nfield = 13\nell = 2\n")
    code, out, err = run_cli(["--config", str(cfg), "verify"])
    assert code == 1 and out == ""
    assert err == "error: unknown criterion 'nope'\n"


@pytest.mark.parametrize("argv, message", [
    (["--family", "xyz", "--q", "5"], "unknown family 'xyz'"),
    (["--family", "cbu", "--q", "5", "--r", "1"], "family CBU needs --u, --a"),
    (["--family", "B2", "--q", "5", "--ell", "2", "--r", "1", "--u", "1"],
     "family B2 needs --v, --a"),
])
def test_unit_family_usage_errors(argv, message):
    code, out, err = run_cli(["unit-family", *argv])
    assert (code, out, err) == (1, "", f"error: {message}\n")


# -- property test: any drawn command line ends in exit 0, 1 or 2 -------------

_FIELDS = ("5", "13", "3^2", "2^4")
# field-info alone also draws fields whose order or order minus 1 has a
# prime factor far beyond trial division
_LARGE_FIELDS = ("2^61", "2^89", "2^127", "1000000000000000003")
_exponents = st.integers(-5, 40)
_ells = st.integers(0, 7)
_ATOMS = {
    "power": _exponents.map(lambda k: f"g^{k}"),
    "int": st.integers(0, 200).map(str),
    "vector": st.tuples(st.integers(0, 200), st.integers(0, 200)).map(
        lambda c: f"[{c[0]},{c[1]}]"),
    "zero": st.just("0"),
}
# powers of g are nonzero in every field, so most drawn maps get past parsing
_element = st.sampled_from(("power", "power", "power", "int", "vector", "zero")).flatmap(
    _ATOMS.__getitem__)
# unit-circle notation: z is the circle's generator and e its designated power
_unit_element = st.one_of(
    _exponents.map(lambda k: f"z^{k}"), st.sampled_from(("e", "1+e", "z^-1*(1+e)")), _element)
_poly_text = st.lists(st.tuples(_element, st.integers(0, 40)), min_size=1, max_size=3).map(
    lambda terms: "+".join(f"{a}*x^{k}" for a, k in terms))
_small = st.sampled_from((1, 0, 2, 3, -1, 6))
# a valid modulus and generator of each field, then arbitrary ones
_MODULI = {"5": "2,1", "13": "0,1", "3^2": "2,1,1", "2^4": "1,0,0,1,1"}
_GENERATORS = {"5": "3", "13": "6", "3^2": "[1,1]", "2^4": "[0,0,1,1]"}
_coeffs = st.lists(st.integers(0, 6), min_size=1, max_size=5).map(
    lambda cs: ",".join(map(str, cs)))
_generator = st.one_of(st.integers(-2, 40).map(str), st.lists(
    st.integers(0, 3), min_size=1, max_size=3).map(lambda cs: f"[{','.join(map(str, cs))}]"))


def _modulus_of(field_id):
    return st.one_of(st.just(_MODULI[field_id]), _coeffs)


def _generator_of(field_id):
    return st.one_of(st.just(_GENERATORS[field_id]), _generator)


def _flags(draw, **values):
    """--name=value for each drawn value; each flag is left out one time in eight."""
    keep = st.sampled_from((True,) * 7 + (False,))
    return [f"--{name.replace('_', '-')}={draw(value)}" for name, value in values.items()
            if draw(keep)]


@st.composite
def _branch_argv(draw, ell=None):
    """--field, --ell and --branches; most draws have one branch per coset."""
    field_id = draw(st.sampled_from(_FIELDS))
    q = field_from_id(field_id).q
    if ell is None:
        ell = draw(st.one_of(
            st.sampled_from([d for d in range(1, 8) if (q - 1) % d == 0]), _ells))
    else:
        ell = draw(st.one_of(st.just(ell), _ells))
    count = draw(st.one_of(st.just(ell), st.just(ell), st.integers(1, 7)))
    branches = ",".join(f"{draw(_element)}:{draw(_exponents)}" for _ in range(count))
    return [f"--field={field_id}", f"--ell={ell}", f"--branches={branches}"]


def _window(draw, name):
    """--name-min and --name-max one or two apart, or an empty window."""
    lo = draw(st.integers(-2, 16))
    return [f"--{name}-min={lo}", f"--{name}-max={lo + draw(st.sampled_from((1, 0, -1)))}"]


@st.composite
def _config(draw):
    """Field registry lines of a --config file; a line without '=' is a parse error."""
    lines = []
    for field_id in draw(st.lists(st.sampled_from(_FIELDS), min_size=1, max_size=2)):
        kind = draw(st.sampled_from(("generator", "generator", "modulus", "modulus", "junk")))
        if kind == "junk":
            lines.append("no equals sign")
        else:
            value = _generator_of if kind == "generator" else _modulus_of
            lines.append(f"{field_id}.{kind} = {draw(value(field_id))}")
    return "\n".join(lines)


# Each family's parameters besides q; names match in any case, and xyz is unknown.
_FAMILY_PARAMS = {
    "cbu": ("r", "u", "a"), "cb0": ("r", "u", "a"), "ctab": ("r", "u", "v", "a", "b"),
    "cta": ("r", "u", "v", "a"), "ctkuv": ("r", "u", "v", "k", "a"),
    "b1": ("ell", "r", "v", "a"), "b2": ("ell", "r", "u", "v", "a"),
    "b3": ("ell", "r", "v", "a"), "t4": ("r", "a"), "T5": ("r", "a"), "xyz": (),
}


def _family_argv(draw):
    family = draw(st.sampled_from(tuple(_FAMILY_PARAMS)))
    values = {"r": st.one_of(st.sampled_from((1, 3, 5, 7)), _exponents), "a": _unit_element,
              "b": _unit_element}
    argv = [f"--family={family}", f"--q={draw(st.sampled_from((5, 7, 11)))}",
            *_flags(draw, **{name: values.get(name, _small) for name in _FAMILY_PARAMS[family]})]
    if draw(st.booleans()):
        argv.append("--check")
    return argv


_THEOREMS = ("l2", "l3", "2to1", "equal-d", "lift", "cor53", "cor56", "cor61", "cor62")


def _crit_argv(draw, theorem):
    field_id = draw(st.sampled_from(_FIELDS))
    if theorem == "lift":
        return _flags(draw, field=st.just(field_id), poly=_poly_text)
    if theorem == "cor53":
        return _flags(draw, field=st.just(field_id), ell=_ells, a0=_element, a1=_element,
                      r0=_exponents, r1=_exponents)
    if theorem == "cor56":
        return _flags(draw, q=st.sampled_from((3, 5, 7, 4, 9, 2, 6, 0, -1)),
                      n=st.sampled_from((1, 2, 0, 3, -1)), ell=st.sampled_from((1, 2, 4, 0, 3)))
    if theorem == "cor61":
        return _flags(draw, field=st.just(field_id), g0=_poly_text, g1=_poly_text,
                      r0=_exponents, r1=_exponents)
    if theorem == "cor62":
        return _flags(draw, q=st.sampled_from((3, 5, 7, 9, 4, 6)), n=st.sampled_from((1, 2, 3, 0)),
                      h0=_poly_text, h1=_poly_text, r0=_exponents, r1=_exponents)
    return draw(_branch_argv({"l2": 2, "l3": 3}.get(theorem)))


@st.composite
def _cli_argv(draw):
    """A command line and the text of its --config file, or None."""
    command, _, theorem = draw(st.sampled_from(
        ("cyc-classify", "relation", "expand", "unit-classify", "classify", "enumerate",
         "unit-family", "field-info", *(f"crit {t}" for t in _THEOREMS)))).partition(" ")
    field_id = draw(st.sampled_from(_FIELDS))
    q = field_from_id(field_id).q
    if command == "field-info" and draw(st.booleans()):
        argv = [command, f"--field={draw(st.sampled_from(_LARGE_FIELDS))}"]
        if draw(st.booleans()):
            argv.append(f"--generator={draw(_generator)}")
    elif command == "field-info":
        argv = [command, f"--field={field_id}", *_flags(
            draw, modulus=_modulus_of(field_id), generator=_generator_of(field_id))]
    elif command == "classify":
        argv = [command, f"--field={field_id}", f"--poly={draw(_poly_text)}",
                f"--domain={draw(st.sampled_from(('fq', 'fqstar')))}"]
    elif command == "enumerate":
        # at most 2 a values, 2 r values and 5 cosets: at most 4^5 maps
        ell = draw(st.one_of(st.sampled_from([d for d in range(1, 6) if (q - 1) % d == 0]),
                             st.integers(0, 5)))
        argv = [command, f"--field={field_id}", f"--ell={ell}",
                f"--m={draw(st.one_of(st.sampled_from((2, 1, 3, 4)), _exponents))}",
                f"--limit={draw(st.integers(-1, 3))}", *_window(draw, "a"), *_window(draw, "r")]
    elif command == "unit-family":
        argv = [command, *_family_argv(draw)]
    elif command == "unit-classify":
        q = draw(st.sampled_from((5, 13, 9, 16)))
        argv = [command, f"--q={q}", f"--r={draw(_exponents)}", f"--h={draw(_poly_text)}"]
        for flag, values in (("--gen-exp", _exponents), ("--m", _exponents), ("--ell", _ells)):
            if draw(st.booleans()):
                argv.append(f"{flag}={draw(values)}")
    elif command == "crit":
        argv = [command, f"--theorem={theorem}", *_crit_argv(draw, theorem),
                f"--m={draw(_exponents)}"]
    else:
        argv = [command, *draw(_branch_argv())]
        if command == "cyc-classify":
            argv.append(f"--domain={draw(st.sampled_from(('fq', 'fqstar')))}")
        elif command == "relation":
            argv += [f"--i={draw(st.integers(-2, 6))}", f"--j={draw(st.integers(-2, 6))}"]
        elif draw(st.booleans()):
            argv.append("--scaled")
    if draw(st.booleans()):
        argv.insert(0, "--json")
    return argv, (draw(_config()) if draw(st.integers(0, 4)) == 0 else None)


@settings(max_examples=800, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cli_argv())
def test_cli_ends_in_an_exit_code_for_any_drawn_input(drawn):
    argv, config = drawn
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = os.path.join(tmp, "drawn.cfg")
            with open(path, "w") as fh:
                fh.write(config)
            argv = ["--config", path, *argv]
        code, out, err = run_cli(argv)
    assert code in (0, 1, 2), (argv, code)
    if code == 0 or (code == 2 and out):  # a result, or an inapplicable verdict
        assert out, argv
        assert err == "", (argv, err)
    else:
        assert out == "" and err.count("\n") == 1, (argv, err)
