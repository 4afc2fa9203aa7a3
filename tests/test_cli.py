"""Command-line interface: subcommands, formats, exit codes, env knobs."""

import csv
import io
import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import contab
from contab import cli
from contab.cli import main


def run(*argv):
    out, err = io.StringIO(), io.StringIO()
    stdout, stderr = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = main(list(argv))
    finally:
        sys.stdout, sys.stderr = stdout, stderr
    return code, out.getvalue(), err.getvalue()


def run_json(*argv):
    code, out, err = run(*argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def test_count_text():
    code, out, err = run("count", "2", "2", "2", "2")
    assert code == 0 and err == ""
    assert "value: 3" in out
    assert "density: 1" in out
    assert "runtime_s:" in out


def test_count_large_value_is_decimal_string():
    rec = run_json("count", "3", "100", "3", "100")
    assert rec["value"] == "13268976"
    rec = run_json("count", "3", "99", "9", "33")
    assert rec["value"] == "2792071358042944601350"


def test_count_deep_sparse_shape():
    rec = run_json("count", "200", "1", "200", "1")
    assert rec["value"] == str(math.factorial(200))


def test_unbalanced_margins_diagnostic_and_exit_code():
    code, out, err = run("count", "2", "3", "3", "1")
    assert code == 1
    assert out == ""
    assert "2·3 ≠ 3·1" in err


def test_unknown_subcommand_and_missing_args():
    assert run("nosuch", "1", "2")[0] == 1
    assert run("count", "2", "2", "2")[0] == 1
    assert run("count", "2", "2", "2", "2", "--bogus")[0] == 1


def test_state_cap_exit_code_two():
    code, out, err = run("count", "10", "20", "10", "20", "--max-states", "1000")
    assert code == 2
    assert "resource limit" in err


def test_out_of_memory_exit_code_two(monkeypatch):
    def exhausted(args, spec):
        raise MemoryError

    monkeypatch.setitem(cli._COMMANDS, "count", exhausted)
    code, out, err = run("count", "2", "2", "2", "2")
    assert code == 2 and out == ""
    assert err == "contab: resource limit: out of memory\n"


@pytest.mark.parametrize("argv", [
    ("estimate", "--method", "good"), ("verify-integral", "--grid", "4"),
    ("delta",), ("compare",), ("mc", "--samples", "10")])
def test_margins_beyond_float_range_exit_one(argv):
    big = str(10 ** 400)
    code, out, err = run(argv[0], "2", big, "2", big, *argv[1:])
    assert code == 1 and out == ""
    assert err.startswith("contab: error: ") and err.count("\n") == 1


def test_bad_digits_and_seed_exit_one():
    for argv in [("estimate", "4", "4", "4", "4", "--method", "conj1", "--digits", "0"),
                 ("mc", "2", "2", "2", "2", "--samples", "10", "--seed", "-1"),
                 ("compare", "2", "2", "2", "2", "--mc-samples", "10", "--seed", "-1")]:
        code, out, err = run(*argv)
        assert code == 1 and out == "", argv
        assert err.startswith("contab: error: "), argv


def test_estimate_methods_all_run():
    values = {}
    for method in ("good", "thm1", "thm1-closed", "cor1", "conj1"):
        rec = run_json("estimate", "3", "100", "3", "100", "--method", method)
        assert rec["method"] == method
        assert rec["error_terms"] == "omitted"
        values[method] = rec["value"]
    assert values["good"] == "1.019e7"
    assert values["thm1"] == "1.680e7"
    assert values["conj1"] == "(1.316 ± 0.217)e7"


def test_estimate_conj1_carries_interval_fields():
    rec = run_json("estimate", "3", "100", "3", "100", "--method", "conj1")
    assert rec["low"] == "1.099e7"
    assert rec["high"] == "1.534e7"
    assert rec["log10_low"] < rec["log10_high"]


def test_estimate_digits_flag():
    code, out, _ = run("estimate", "30", "3", "30", "3", "--method", "cor1",
                       "--digits", "6")
    assert code == 0
    assert "value: 1.12777e138" in out


def test_text_renders_exponent_zero_without_suffix():
    code, out, _ = run("estimate", "1", "6", "3", "2", "--method", "good")
    assert code == 0
    assert "value: 1.000" in out
    assert "1.000e0" not in out


def test_json_is_canonical_and_round_trips():
    code, out, err = run("count", "2", "3", "3", "2", "--format", "json")
    assert code == 0
    rec = json.loads(out)
    assert out == json.dumps(rec, sort_keys=True) + "\n"
    assert rec["value"] == "7"


def test_json_and_text_agree_on_values():
    rec = run_json("delta", "3", "100", "3", "100")
    code, out, _ = run("delta", "3", "100", "3", "100")
    text = dict(line.split(": ", 1) for line in out.strip().splitlines())
    assert text["exact"] == rec["exact"] == "13268976"
    assert math.isclose(float(text["delta"]), rec["delta"], rel_tol=1e-12)
    assert 0 < rec["delta"] < 2


def test_csv_single_record():
    code, out, _ = run("decompose", "2", "3", "3", "2", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert len(rows) == 1
    assert rows[0]["dependence"] == "539/450"
    assert rows[0]["exact"] == "7"
    assert rows[0]["placements"] == "462"


def test_csv_flattens_interval_fields():
    code, out, _ = run("estimate", "3", "100", "3", "100", "--method", "conj1",
                       "--format", "csv")
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["low"] == "1.099e7"
    assert rows[0]["mid"] == "1.316e7"
    assert rows[0]["high"] == "1.534e7"


def test_decompose_exact_rational_fields():
    rec = run_json("decompose", "2", "3", "3", "2")
    assert rec["dependence"] == "539/450"
    assert rec["p_rows"] == "50/231"
    assert rec["p_cols"] == "9/154"
    assert math.isclose(rec["dependence_float"], 539 / 450, rel_tol=1e-12)


def test_mc_record_carries_seed_and_ess():
    rec = run_json("mc", "2", "2", "2", "2", "--samples", "500", "--seed", "3")
    assert rec["seed"] == 3
    assert rec["samples"] == 500
    assert rec["value"] == "3.000"
    assert 0 < rec["effective_sample_size"] <= 500
    rec2 = run_json("mc", "2", "2", "2", "2", "--samples", "500", "--seed", "3")
    rec.pop("runtime_s"), rec2.pop("runtime_s")
    assert rec == rec2


def test_compare_text_table_small_spec():
    code, out, _ = run("compare", "1", "6", "3", "2")
    assert code == 0
    header, row = out.strip().splitlines()[:2]
    assert header.split()[:2] == ["spec", "G"]
    assert "exact" in header
    assert "(1,6,3,2)" in row
    assert "1.000" in row


def test_compare_with_mc_column():
    rec = run_json("compare", "2", "2", "2", "2", "--mc-samples", "400",
                   "--seed", "1")
    assert rec["mc"] == "3.000"
    assert rec["seed"] == 1
    assert rec["exact"] == "3"


def test_compare_reports_cap_and_keeps_estimates():
    rec = run_json("compare", "10", "20", "10", "20", "--max-states", "500")
    assert rec["exact"] is None
    assert "state cap" in rec["exact_reason"]
    assert rec["good"] == "7.434e58"
    assert rec["thm1"] == "1.226e59"
    code, out, _ = run("compare", "10", "20", "10", "20", "--max-states", "500")
    assert code == 0
    assert "(capped)" in out


def test_ehrhart_record_and_eval():
    rec = run_json("ehrhart", "3", "3", "--eval", "100")
    assert rec["degree"] == 4
    assert rec["coefficients"] == ["1", "9/4", "15/8", "3/4", "1/8"]
    assert rec["h_vector"] == [1, 1, 1, 0, 0]
    assert rec["leading"] == "1/8"
    assert rec["value"] == "13268976"
    assert rec["eval_at"] == 100


def test_verify_integral_record():
    rec = run_json("verify-integral", "2", "2", "2", "2", "--grid", "16")
    assert rec["exact"] == "3"
    assert rec["relative_error"] < 1e-4
    assert abs(rec["integral_imag"]) < 1e-10


def test_verify_integral_bounds_section():
    rec = run_json("verify-integral", "2", "1", "2", "1", "--grid", "12",
                   "--bounds")
    assert rec["envelope_violations"] == 0
    assert rec["peak_within_bound"] is True
    assert 0 < rec["envelope_max_slack"] < 1e-6


def test_verify_integral_dimension_and_eval_caps():
    code, _, err = run("verify-integral", "4", "1", "4", "1", "--grid", "8")
    assert code == 1
    code, _, err = run("verify-integral", "2", "2", "2", "2", "--grid", "64",
                       "--max-evals", "100")
    assert code == 2
    assert "64^4" in err


def test_check_hypothesis_rational_and_threshold():
    rec = run_json("check-hypothesis", "3", "100", "3", "100")
    assert rec["lhs"] == "41209/15450"
    assert math.isclose(rec["lhs_float"], 41209 / 15450, rel_tol=1e-12)
    rec = run_json("check-hypothesis", "2", "2", "2", "2", "--a", "5.0")
    assert rec["lhs"] == "3"
    assert rec["satisfied"] is False
    assert math.isclose(rec["threshold"], 5.0 * math.log(2), rel_tol=1e-12)


def test_delta_inside_open_interval():
    rec = run_json("delta", "2", "6", "4", "3")
    assert 0 < rec["delta"] < 2
    assert rec["exact"] == "44"


_SPEC = {"command", "m", "s", "n", "t", "density", "runtime_s"}
_ESTIMATE_COLUMNS = {"good", "thm1", "thm1_closed", "cor1", "conj1", "error_terms",
                     "exact", "exact_reason"}
_INTEGRAL = {"grid", "integral_real", "integral_imag", "reconstructed", "exact",
             "relative_error"}


_FIELD_CASES = [
    (["count", "2", "2", "2", "2"], _SPEC | {"value"}),
    (["estimate", "2", "2", "2", "2", "--method", "good"],
     _SPEC | {"method", "error_terms", "value", "mantissa", "exponent", "log10"}),
    (["estimate", "2", "2", "2", "2", "--method", "conj1"],
     _SPEC | {"method", "error_terms", "value", "low", "mid", "high",
              "log10_low", "log10_high"}),
    (["decompose", "2", "2", "2", "2"],
     _SPEC | {"exact", "placements", "p_rows", "p_cols", "dependence",
              "dependence_float"}),
    (["compare", "2", "2", "2", "2"], _SPEC | _ESTIMATE_COLUMNS),
    (["compare", "2", "2", "2", "2", "--mc-samples", "50"],
     _SPEC | _ESTIMATE_COLUMNS | {"mc", "mc_relative_se", "seed", "samples"}),
    (["compare", "10", "20", "10", "20", "--max-states", "500"],
     _SPEC | _ESTIMATE_COLUMNS),
    (["mc", "2", "2", "2", "2", "--samples", "50"],
     _SPEC | {"value", "log10_mean", "relative_se", "effective_sample_size",
              "samples", "seed"}),
    (["ehrhart", "2", "2"],
     {"command", "m", "n", "runtime_s", "s0", "t0", "degree", "coefficients",
      "h_vector", "leading"}),
    (["verify-integral", "2", "2", "2", "2", "--grid", "8"], _SPEC | _INTEGRAL),
    (["verify-integral", "2", "1", "2", "1", "--grid", "8", "--bounds"],
     _SPEC | _INTEGRAL | {"envelope_violations", "envelope_max_slack",
                          "peak_ratio", "peak_within_bound"}),
    (["check-hypothesis", "2", "2", "2", "2"],
     _SPEC | {"lhs", "lhs_float", "min_coefficient"}),
    (["delta", "2", "2", "2", "2"], _SPEC | {"exact", "delta"}),
]


@pytest.mark.parametrize("argv, fields", _FIELD_CASES,
                         ids=["-".join(argv) for argv, _ in _FIELD_CASES])
def test_record_field_sets(argv, fields):
    assert sorted(run_json(*argv)) == sorted(fields)


def test_env_var_default_for_state_cap(monkeypatch):
    monkeypatch.setenv("CONTAB_MAX_STATES", "700")
    code, _, err = run("count", "10", "20", "10", "20")
    assert code == 2
    monkeypatch.setenv("CONTAB_MAX_STATES", "not-a-number")
    code, _, err = run("count", "2", "2", "2", "2")
    assert code == 1
    assert "CONTAB_MAX_STATES" in err


def test_env_var_default_for_eval_cap(monkeypatch):
    monkeypatch.setenv("CONTAB_MAX_EVALS", "100")
    code, _, err = run("verify-integral", "2", "2", "2", "2", "--grid", "64")
    assert code == 2


def test_flag_overrides_env(monkeypatch):
    monkeypatch.setenv("CONTAB_MAX_STATES", "10")
    code, _, _ = run("count", "3", "100", "3", "100")
    assert code == 2
    code, out, _ = run("count", "3", "100", "3", "100", "--max-states",
                       str(2**28))
    assert code == 0
    assert "13268976" in out


def test_installed_console_script():
    # Run the [project.scripts] entry point the way an installer's wrapper
    # does, in a fresh interpreter that imports contab from this source tree.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["contab"]
    module, _, func = target.partition(":")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(contab.__file__).resolve().parent.parent),
        env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c",
                           f"import sys; from {module} import {func}; "
                           f"sys.exit({func}())",
                           "count", "2", "2", "2", "2", "--format", "json"],
                          capture_output=True, text=True, timeout=60,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == "3"


def test_python_dash_m_runs_the_cli():
    # `python -m contab` works from an uninstalled source tree
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(contab.__file__).resolve().parent.parent),
        env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "contab", "count",
                           "2", "2", "2", "2", "--format", "json"],
                          capture_output=True, text=True, timeout=60,
                          env=env)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == "3"


@pytest.mark.skipif(shutil.which("contab") is None,
                    reason="contab not installed")
def test_contab_script_on_path():
    # The script an actual install puts on PATH: checks package discovery,
    # the build and the installer-written wrapper as well.
    proc = subprocess.run(["contab", "count", "2", "2", "2", "2",
                           "--format", "json"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["value"] == "3"
