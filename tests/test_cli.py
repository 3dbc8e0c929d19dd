import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest

from cyclomap import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"


def run_cli(argv):
    out = io.StringIO()
    err = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


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
])
def test_incomplete_or_out_of_range_input_is_a_usage_error(argv):
    # each of these once escaped as a traceback (or, for m=0, scanned the
    # whole space for nothing; an unclosed generator list failed in int())
    code, out, err = run_cli(argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_field_info_degree_40_in_a_fresh_process():
    # the default-modulus search once walked the 2^39 tuples with c0 = 0
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "cyclomap.cli", "--json", "field-info",
         "--field", "2^40"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert len(payload["modulus"]) == 41 and payload["modulus"][-1] == 1
    assert payload["log_table"] is False


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


def test_unit_classify_alternative_generator():
    for j in ("1", "2", "5"):
        code, out, _ = run_cli(
            ["--json", "unit-classify", "--q", "32", "--r", "6",
             "--gen-exp", j, "--h", "1+x^11+(z^-1+z^10)*x^2"]
        )
        assert code == 0 and json.loads(out)["f_valid_m"] == [3]


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


def test_verify_parallel_jobs_equals_serial():
    base = ["--json", "verify", "--criterion", "l2", "--field", "13",
            "--ell", "2", "--r-min", "1", "--r-max", "6"]
    _, serial, _ = run_cli(base)
    _, parallel, _ = run_cli(base + ["--jobs", "2"])
    assert json.loads(serial) == json.loads(parallel)


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
