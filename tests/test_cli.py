"""Command-line interface: subcommands, formats, exit codes, resource caps."""

import csv
import io
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import contab
from contab import cli, exact, integral
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


_TWO_ROWS_LONG = ["2", "2500000000000", "500", "10000000000"]  # a 4989-digit count


@pytest.mark.parametrize("argv, field", [
    (["count", *_TWO_ROWS_LONG], "value"),
    (["delta", *_TWO_ROWS_LONG], "exact"),
    (["compare", *_TWO_ROWS_LONG], "exact"),
    (["decompose", "20000", "1", "1", "20000"], "placements"),
    (["ehrhart", "3", "3", "--eval", "1" + "0" * 1100], "value"),
])
def test_values_past_the_int_str_limit_render(argv, field):
    # CPython refuses int-to-str conversions past 4300 digits by default (from
    # 3.10.7); main lifts that limit while it runs and puts it back
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    code, out, err = run(*argv, "--format", "json")
    assert (code, err) == (0, "")
    value = json.loads(out)[field]
    assert len(value) > 4300 and value.isdigit()
    assert getattr(sys, "get_int_max_str_digits", lambda: 0)() == limit


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


def test_cap_hit_writes_a_record():
    code, out, err = run("count", "10", "20", "10", "20", "--max-states", "1000",
                         "--format", "json")
    assert code == 2 and err.startswith("contab: resource limit: ")
    rec = json.loads(out)
    assert rec == {"command": "count", "m": 10, "s": 20, "n": 10, "t": 20,
                   "density": "2", "error": "resource_limit", "kind": "states",
                   "limit": 1000, "used": 1001}


@pytest.mark.parametrize("argv", [
    ("count", "3", "3", "3", "3", "--max-work", "-1"),
    ("count", "3", "3", "3", "3", "--max-states", "-1"),
    ("ehrhart", "2", "3", "--max-work", "-1"),
    ("verify-integral", "2", "2", "2", "2", "--grid", "8", "--max-evals", "-1"),
    # decompose charges its binomials before it counts, and the quadrature
    # runs before the exact count; neither may turn a bad cap into a cap hit
    ("decompose", "2", "3", "3", "2", "--max-states", "-1"),
    ("decompose", "2", "3", "3", "2", "--max-work", "-1"),
    ("verify-integral", "2", "2", "2", "2", "--grid", "4096", "--max-states", "-1"),
])
def test_negative_cap_is_a_domain_error(argv):
    # a cap below zero is a bad argument, not a cap hit: exit 1, no record,
    # and the same line on every subcommand
    code, out, err = run(*argv, "--format", "json")
    assert (code, out) == (1, "")
    assert err == f"contab: error: argument {argv[-2]}: must be nonnegative, got -1\n"


@pytest.mark.parametrize("argv", [
    # 10^6 samples take tens of seconds, and so does fitting the 7x7 polynomial
    ["mc", "10", "20", "10", "20", "--samples", "1000000", "--digits", "0"],
    ["ehrhart", "7", "7", "--eval", "-1"],
])
def test_bad_digits_and_eval_stop_before_any_work(argv):
    proc = subprocess.run([sys.executable, "-m", "contab", *argv], capture_output=True,
                          text=True, timeout=5, env=_source_env())
    assert (proc.returncode, proc.stdout) == (1, "")
    assert proc.stderr.startswith("contab: error: ") and proc.stderr.count("\n") == 1


def test_wide_margins_write_a_state_cap_record():
    # keys of four rows at s = 3000 outgrow the per-state budget
    code, out, err = run("count", "4", "3000", "4", "3000", "--format", "json")
    assert code == 2 and err.startswith("contab: resource limit: ")
    rec = json.loads(out)
    assert (rec["error"], rec["kind"], rec["limit"], rec["used"]) == \
        ("resource_limit", "states", 0, 1)


def test_max_work_caps_the_exact_count():
    code, out, _ = run("count", "10", "20", "10", "20", "--max-work", "1000",
                       "--format", "json")
    assert code == 2
    rec = json.loads(out)
    assert (rec["kind"], rec["limit"], rec["used"]) == ("work", 1000, 1001)


def test_max_evals_no_longer_caps_the_exact_count():
    # count runs no quadrature, so it takes no quadrature budget; its own
    # work cap still stops (3,100,3,100), whose closed form charges 806 units
    code, out, err = run("count", "3", "100", "3", "100", "--max-evals", "100")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --max-evals" in err
    code, _, _ = run("count", "3", "100", "3", "100", "--max-work", "100")
    assert code == 2


# the smallest valid call of each subcommand, and which of the five output
# and cap flags its handler reads; each of the others is a usage error
_SUBCOMMAND_FLAGS = {
    ("count", "2", "2", "2", "2"): {"--format", "--max-states", "--max-work"},
    ("estimate", "2", "2", "2", "2", "--method", "good"): {"--format", "--digits"},
    ("decompose", "2", "2", "2", "2"): {"--format", "--max-states", "--max-work"},
    ("compare", "2", "2", "2", "2"):
        {"--format", "--digits", "--max-states", "--max-work"},
    ("mc", "2", "2", "2", "2", "--samples", "10"): {"--format", "--digits"},
    ("ehrhart", "2", "2"): {"--format", "--max-states", "--max-work"},
    ("verify-integral", "2", "2", "2", "2", "--grid", "8"):
        {"--format", "--max-states", "--max-work", "--max-evals"},
    ("check-hypothesis", "2", "2", "2", "2"): {"--format"},
    ("delta", "2", "2", "2", "2"): {"--format", "--max-states", "--max-work"},
}
# a value other than the default, within every cap these calls need
_FLAG_VALUES = {"--format": "json", "--digits": "6", "--max-states": "1000",
                "--max-work": "100000", "--max-evals": "100000"}
_FLAG_CASES = [(argv, flag, flag in accepted)
               for argv, accepted in _SUBCOMMAND_FLAGS.items() for flag in _FLAG_VALUES]


@pytest.mark.parametrize("argv, flag, accepted", _FLAG_CASES,
                         ids=[f"{argv[0]}{flag}" for argv, flag, _ in _FLAG_CASES])
def test_each_subcommand_takes_only_the_flags_it_reads(argv, flag, accepted):
    code, out, err = run(*argv, flag, _FLAG_VALUES[flag])
    if accepted:
        assert code == 0, err
        args = cli._PARSER.parse_args([*argv, flag, _FLAG_VALUES[flag]])
        assert str(getattr(args, flag[2:].replace("-", "_"))) == _FLAG_VALUES[flag]
    else:
        assert (code, out) == (1, "")
        assert f"unrecognized arguments: {flag}" in err


def test_huge_margins_estimate_does_not_cancel():
    # G for (2,s,2,s) is (s+1)^4 / C(2s+3, 3), about 0.75 s
    big = str(10 ** 18)
    rec = run_json("estimate", "2", big, "2", big, "--method", "good")
    assert rec["value"] == "7.500e17"


def test_huge_margins_closed_form_entropy_does_not_cancel():
    # H(lam) at lam = 5e17 is a sum of two terms near 2e19 that cancel to 42
    big = str(10 ** 18)
    closed = run_json("estimate", "2", big, "2", big, "--method", "thm1-closed")
    refined = run_json("estimate", "2", big, "2", big, "--method", "thm1")
    assert abs(closed["log10"] - refined["log10"]) < 1.0


@pytest.mark.parametrize("command", [["estimate", "--method", "conj1"], ["compare"]])
def test_bracket_narrower_than_a_float_step_renders(command):
    # at (1,S,S,1) the bracket's ends differ by 2/(m+n) ~ 1e-17 in log, so
    # exp(lo - hi) rounds to 1 and the half-width is the log of a tiny number
    big = "213258126986527742"
    code, out, err = run(command[0], "1", big, big, "1", *command[1:], "--format", "json")
    assert (code, err) == (0, "")
    assert json.loads(out)["conj1" if command == ["compare"] else "value"].startswith("(1.000 ± ")


@pytest.mark.parametrize("shape", [
    ("2", "180367383875990326", "90183691937995163", "4"),     # h ** n overflows
    ("515513617415916080", "1", "1", "515513617415916080"),   # the sum is nan
    ("32", "23011019666813248", "2", "368176314669011968"),   # 1 + lam rounds to lam
])
def test_quadrature_overflow_is_a_domain_error(shape):
    # wide margins overflow the quadrature's floats: a domain error, the only
    # line on stderr (no numpy warning before it), never a nan record
    code, out, err = run("verify-integral", *shape, "--grid", "64", "--format", "json")
    assert (code, out) == (1, "")
    assert err.startswith("contab: error: margins too large for floats: ")
    assert err.count("\n") == 1


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
                 ("estimate", "3", "100", "3", "100", "--method", "good", "--digits", "18"),
                 ("estimate", "3", "100", "3", "100", "--method", "good",
                  "--digits", "10000000000"),
                 ("mc", "2", "2", "2", "2", "--samples", "10", "--seed", "-1"),
                 ("compare", "2", "2", "2", "2", "--mc-samples", "10", "--seed", "-1"),
                 # compare reads --seed only with --mc-samples
                 ("compare", "2", "2", "2", "2", "--seed", "-5"),
                 ("compare", "2", "2", "2", "2", "--seed", "0")]:
        code, out, err = run(*argv)
        assert code == 1 and out == "", argv
        assert err.startswith("contab: error: ") and err.count("\n") == 1, argv
    # a double carries 17 significant digits, the most --digits takes
    rec = run_json("estimate", "3", "100", "3", "100", "--method", "good", "--digits", "17")
    assert len(rec["value"].split("e")[0].replace(".", "")) == 17 and rec["exponent"] == 7


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


def test_csv_joins_list_fields():
    code, out, _ = run("ehrhart", "2", "3", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert rows[0]["coefficients"] == "1;3;3"
    assert rows[0]["h_vector"] == "1;4;1"


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
    # the text table puts the mc column between the bracket and the exact count
    code, out, _ = run("compare", "2", "2", "2", "2", "--mc-samples", "20")
    assert code == 0
    header, row = out.splitlines()
    assert header.split()[-3:] == ["bracket", "mc", "exact"]
    assert row.split()[-2:] == ["3.000", "3"]


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
    # 64^3 terms, within the default budget
    rec = run_json("verify-integral", "3", "3", "3", "3", "--grid", "64")
    assert rec["exact"] == "55"
    assert rec["relative_error"] <= 1e-12


def test_verify_integral_bounds_section():
    rec = run_json("verify-integral", "2", "1", "2", "1", "--grid", "12",
                   "--bounds")
    assert rec["envelope_violations"] == 0
    assert rec["peak_within_bound"] is True
    assert 0 < rec["envelope_max_slack"] < 1e-6
    # the envelope's random points are drawn at seed m, which the record names
    env = integral.envelope_check(contab.make_spec(2, 1, 2, 1).density, seed=rec["seed"])
    assert rec["seed"] == 2
    assert (rec["envelope_violations"], rec["envelope_max_slack"]) == (
        env.violations, env.max_slack)


def test_verify_integral_dimension_and_eval_caps():
    assert run_json("verify-integral", "4", "1", "4", "1", "--grid", "16")["exact"] == "24"
    # 26 rows are limited by the budget alone: 2^26 terms pass the default
    code, out, err = run("verify-integral", "26", "1", "26", "1", "--grid", "2",
                         "--format", "json")
    assert code == 2 and err.startswith("contab: resource limit: ")
    rec = json.loads(out)
    assert (rec["error"], rec["kind"], rec["limit"], rec["used"]) == \
        ("resource_limit", "evals", 2 ** 23, 2 ** 26)
    code, out, err = run("verify-integral", "2", "2", "2", "2", "--grid", "8",
                         "--max-dims", "8")
    assert (code, out) == (1, "")
    assert "unrecognized arguments: --max-dims" in err
    # the budget counts p^m terms, m the smaller side
    code, out, err = run("verify-integral", "2", "2", "2", "2", "--grid", "64",
                         "--max-evals", "100", "--format", "json")
    assert code == 2
    assert "64^2" in err
    assert json.loads(out)["used"] == 64 ** 2


def test_verify_integral_reports_the_exact_cap():
    # the quadrature runs whole; the exact count that would grade it stops at
    # its work budget and says so (the field sets below: no relative error)
    rec = run_json("verify-integral", "4", "4", "4", "4", "--grid", "6", "--max-work", "5")
    assert rec["exact"] is None
    assert rec["exact_reason"].startswith("work budget exhausted")
    assert math.isfinite(rec["reconstructed"])


def test_check_hypothesis_rational_and_threshold():
    rec = run_json("check-hypothesis", "3", "100", "3", "100")
    assert rec["lhs"] == "41209/15450"
    assert math.isclose(rec["lhs_float"], 41209 / 15450, rel_tol=1e-12)
    # Theorem 1 asks lhs <= a * ln(n): 3 <= 5 ln 2 = 3.47 holds, 3 <= 4 ln 2 = 2.77
    # does not, on either side of min_coefficient 3 / ln 2 = 4.328
    rec = run_json("check-hypothesis", "2", "2", "2", "2", "--a", "5.0")
    assert rec["lhs"] == "3"
    assert rec["satisfied"] is True
    assert math.isclose(rec["threshold"], 5.0 * math.log(2), rel_tol=1e-12)
    assert math.isclose(rec["min_coefficient"], 3 / math.log(2), rel_tol=1e-12)
    assert run_json("check-hypothesis", "2", "2", "2", "2", "--a", "4")["satisfied"] is False


def _strict_json(out):
    # RFC 8259 has no NaN or Infinity; json.loads accepts them unless told not to
    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")
    return json.loads(out, parse_constant=reject)


def test_check_hypothesis_json_is_strict():
    code, out, _ = run("check-hypothesis", "1", "1", "1", "1", "--format", "json")
    assert code == 0
    assert _strict_json(out)["min_coefficient"] is None
    code, out, _ = run("check-hypothesis", "1", "1", "1", "1", "--a", "2")
    assert code == 0 and "min_coefficient" not in out
    rec = _strict_json(run("check-hypothesis", "2", "2", "2", "2", "--a", "1",
                           "--format", "json")[1])
    assert math.isclose(rec["min_coefficient"], 3 / math.log(2), rel_tol=1e-12)
    for shape, a in [("2 2 2 2", "nan"), ("2 2 2 2", "inf"), ("2 2 2 2", "-inf"),
                     # finite, but 1.7e308 * ln(3) overflows
                     ("3 100 3 100", "1.7e308")]:
        code, out, err = run("check-hypothesis", *shape.split(), f"--a={a}",
                             "--format", "json")
        assert (code, out) == (1, ""), a
        assert err.startswith("contab: error: ") and err.count("\n") == 1, a


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
    (["verify-integral", "4", "4", "4", "4", "--grid", "6", "--max-work", "5"],
     _SPEC | _INTEGRAL - {"relative_error"} | {"exact_reason"}),
    (["verify-integral", "2", "1", "2", "1", "--grid", "8", "--bounds"],
     _SPEC | _INTEGRAL | {"seed", "envelope_violations", "envelope_max_slack",
                          "peak_ratio", "peak_within_bound"}),
    (["check-hypothesis", "2", "2", "2", "2"],
     _SPEC | {"lhs", "lhs_float", "min_coefficient"}),
    (["delta", "2", "2", "2", "2"], _SPEC | {"exact", "delta"}),
]


@pytest.mark.parametrize("argv, fields", _FIELD_CASES,
                         ids=["-".join(argv) for argv, _ in _FIELD_CASES])
def test_record_field_sets(argv, fields):
    assert sorted(run_json(*argv)) == sorted(fields)


def test_cap_flags_alone_set_the_caps(monkeypatch):
    # main parses with the parser built at import; a flag given to one call
    # must leave the next call at the library default
    monkeypatch.setattr(cli, "build_parser", None)
    code, out, _ = run("count", "3", "100", "3", "100", "--max-states", "10",
                       "--format", "json")
    assert code == 2 and json.loads(out)["limit"] == 10
    code, _, _ = run("verify-integral", "2", "2", "2", "2", "--grid", "64",
                     "--max-evals", "100")
    assert code == 2
    assert run_json("count", "3", "100", "3", "100")["value"] == "13268976"
    args = cli._PARSER.parse_args(["verify-integral", "2", "2", "2", "2", "--grid", "8"])
    assert args.max_states == exact.DEFAULT_MAX_STATES
    assert args.max_evals == integral.DEFAULT_MAX_EVALS


def _source_env():
    # the environment of a fresh interpreter that imports contab from this tree
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [
        str(Path(contab.__file__).resolve().parent.parent),
        env.get("PYTHONPATH")]))
    return env


def test_import_leaves_scipy_unloaded():
    # contab needs numpy alone: importing it loads no scipy, and with scipy
    # made unimportable the peak-width check of --bounds still runs
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, contab, contab.cli; "
                           "print('scipy' in sys.modules)"],
                          capture_output=True, text=True, timeout=60,
                          env=_source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"
    proc = subprocess.run([sys.executable, "-c",
                           "import sys; sys.modules['scipy'] = None; "
                           "from contab.cli import main; "
                           "sys.exit(main(sys.argv[1:]))",
                           "verify-integral", "2", "1", "2", "1", "--grid", "12",
                           "--bounds", "--format", "json"],
                          capture_output=True, text=True, timeout=60,
                          env=_source_env())
    assert proc.returncode == 0, proc.stderr
    rec = json.loads(proc.stdout)
    # the peak-width ratio at density 1/2 and K = 10^4
    assert rec["peak_within_bound"] and math.isclose(rec["peak_ratio"], 0.931146,
                                                     rel_tol=1e-4)


def test_import_leaves_numpy_unloaded():
    # only the sampler and the quadrature compute with arrays, and they import
    # numpy when called
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, contab, contab.cli; "
                           "print('numpy' in sys.modules)"],
                          capture_output=True, text=True, timeout=60,
                          env=_source_env())
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


_PURE_PYTHON_RUNS = [
    ("count", "3", "4", "4", "3"),
    ("estimate", "10", "20", "10", "20", "--method", "thm1"),
    ("decompose", "3", "4", "4", "3"),
    ("delta", "3", "4", "4", "3"),
    ("ehrhart", "3", "3", "--eval", "2"),
    ("check-hypothesis", "3", "4", "4", "3", "--a", "0.5"),
    ("compare", "3", "4", "4", "3"),
]


def test_pure_python_subcommands_run_without_numpy():
    # with numpy made unimportable, each subcommand that never samples or
    # integrates exits 0 with the record it gives in this process
    script = ("import json, sys; sys.modules['numpy'] = None; "
              "from contab.cli import main; "
              "print(json.dumps([main(list(argv) + ['--format', 'json']) "
              "for argv in json.loads(sys.argv[1])]))")
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(_PURE_PYTHON_RUNS)],
                          capture_output=True, text=True, timeout=60,
                          env=_source_env())
    assert proc.returncode == 0, proc.stderr
    *records, codes = proc.stdout.splitlines()
    assert json.loads(codes) == [0] * len(_PURE_PYTHON_RUNS)
    for argv, line in zip(_PURE_PYTHON_RUNS, records, strict=True):
        rec, expected = json.loads(line), run_json(*argv)
        del rec["runtime_s"], expected["runtime_s"]
        assert rec == expected, argv
    count = exact.count_exact(contab.make_spec(3, 4, 4, 3))
    assert json.loads(records[0])["value"] == str(count)


def test_mc_huge_margins_exit_two():
    # one sample's arrays pass what numpy can address, which numpy reports as
    # a ValueError: its rows of t + 1 entry weights at the first two shapes
    # and its m * n uniforms at the third.  A subprocess with a timeout turns
    # a per-value Python loop into a failure
    big = str(10 ** 18)
    for shape in (["2", big, "2", big], ["1", "1833749298490664978", "2", "916874649245332489"],
                  ["551171031875312125", "1", "5", "110234206375062425"]):
        proc = subprocess.run([sys.executable, "-m", "contab", "mc", *shape, "--samples", "10"],
                              capture_output=True, text=True, timeout=60,
                              env=_source_env())
        assert proc.returncode == 2 and proc.stdout == "", shape
        assert proc.stderr == "contab: resource limit: out of memory\n", shape


def _limited_address_space():
    # run in the child only: 2 GiB of address space, as the contract fuzzer
    # gives itself
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


@pytest.mark.parametrize("argv", [
    ["compare", "2", "205517250", "20", "20551725", "--mc-samples", "2"],
    ["mc", "3352", "70732200", "35", "6774123840", "--samples", "2"],
])
def test_sampler_runs_out_of_memory_promptly(argv):
    # nothing of length s + n is built before the first chunk, so under 2 GiB
    # these fail at their first arrays, well within the fuzzer's 2 s alarm
    started = time.perf_counter()
    proc = subprocess.run([sys.executable, "-m", "contab", *argv],
                          capture_output=True, text=True, timeout=60,
                          env=_source_env(), preexec_fn=_limited_address_space)
    elapsed = time.perf_counter() - started
    assert proc.returncode == 2 and proc.stdout == "", proc.stderr
    assert proc.stderr == "contab: resource limit: out of memory\n"
    assert elapsed < 5, elapsed


@pytest.mark.parametrize("quad", [
    ["1", "563615086989148859", "563615086989148859", "1"],
    ["464787076620854593", "1", "1", "464787076620854593"],
])
def test_decompose_charges_its_binomials(quad):
    # C(mn + T - 1, T) has about T * 60 bits here, so it is refused under the
    # state cap before comb starts, which would not return.  A subprocess,
    # since a C call cannot be interrupted in-process
    proc = subprocess.run([sys.executable, "-m", "contab", "decompose", *quad,
                           "--format", "json"],
                          capture_output=True, text=True, timeout=30, env=_source_env())
    assert proc.returncode == 2, proc.stderr
    rec = json.loads(proc.stdout)
    assert (rec["error"], rec["kind"], rec["limit"]) == (
        "resource_limit", "states", exact.DEFAULT_MAX_STATES)
    assert rec["used"] > rec["limit"]


def test_installed_console_script():
    # Run the [project.scripts] entry point the way an installer's wrapper
    # does, in a fresh interpreter that imports contab from this source tree.
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with open(pyproject, "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["contab"]
    module, _, func = target.partition(":")
    env = _source_env()
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
    env = _source_env()
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
