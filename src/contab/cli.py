"""Command-line front end.

Subcommands cover exact counting, the closed-form estimates, the
independence decomposition, side-by-side comparison, importance sampling,
Ehrhart polynomials, quadrature verification of the integral identity, and
the applicability diagnostic.

Each subcommand takes only the flags its handler reads (see build_parser);
any other flag is a usage error.

Records go to stdout, diagnostics to stderr.  Exit codes: 0 success, 1
domain error (bad arguments, unbalanced margins, margins too large for a
float method), 2 resource cap hit or out of memory.  A cap hit still writes
the record, with error, kind, limit and used in place of the results.
Exact counts are always emitted as full decimal strings, however long;
every stochastic record carries its seed.  JSON is the canonical format
(sorted keys, Python repr floats, byte-stable on round-trip); CSV writes one
header row and one value row, joining lists with ";" and leaving None empty;
text is a human-oriented key/value or table layout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
import time

from . import ehrhart, estimators, exact, integral, montecarlo
from .core import Budget, InvalidSpecError, LogEstimate, ResourceLimitError, make_spec

DEFAULT_DIGITS = 4
_ESTIMATE_METHODS = {
    "good": estimators.good_estimate,
    "thm1": estimators.refined_estimate,
    "thm1-closed": estimators.closed_form_estimate,
    "cor1": estimators.high_density_estimate,
    "conj1": estimators.bracket_interval,
}


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad usage; the contract wants 1 for
    # domain errors and reserves 2 for resource caps, so errors are rethrown
    def error(self, message):
        raise _UsageError(message)


def _int_in(low: int, high: float = math.inf):
    """An argparse int type that refuses values outside low..high before any work."""
    bounds = "nonnegative" if (low, high) == (0, math.inf) else f"in {low}..{high}"

    def parse(text):
        value = int(text)
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must be {bounds}, got {value}")
        return value
    parse.__name__ = "int"  # so a non-int still reads "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    # flag groups; a subcommand takes only the groups its handler reads
    fmt = argparse.ArgumentParser(add_help=False)
    fmt.add_argument("--format", choices=("text", "json", "csv"),
                     default="text", help="output rendering (default text)")
    digits = argparse.ArgumentParser(add_help=False)
    # a double carries at most 17 significant digits
    digits.add_argument("--digits", type=_int_in(1, 17), default=DEFAULT_DIGITS,
                        help="significant digits for scientific renderings")
    caps = argparse.ArgumentParser(add_help=False)
    caps.add_argument("--max-states", default=exact.DEFAULT_MAX_STATES, type=_int_in(0),
                      help="state cap for exact counting")
    caps.add_argument("--max-work", default=exact.DEFAULT_MAX_WORK, type=_int_in(0),
                      help="work budget for exact counting: column allocations")
    shape = argparse.ArgumentParser(add_help=False)
    for name in ("m", "s", "n", "t"):
        shape.add_argument(name, type=int)

    parser = _Parser(prog="contab",
                     description="Count and estimate nonnegative integer "
                                 "matrices with constant row and column sums.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, summary, *groups):
        return sub.add_parser(name, parents=[fmt, *groups, shape], help=summary)

    add("count", "exact count", caps)
    p = add("estimate", "closed-form estimates", digits)
    p.add_argument("--method", required=True, choices=tuple(_ESTIMATE_METHODS))
    add("decompose", "independence decomposition M = N*P1*P2*E", caps)

    p = add("compare", "all estimates side by side, plus exact when feasible",
            digits, caps)
    p.add_argument("--mc-samples", type=int, default=None,
                   help="add a Monte Carlo column with this many samples")
    p.add_argument("--seed", type=int, default=None,
                   help="Monte Carlo seed (default 0); needs --mc-samples")

    p = add("mc", "importance-sampling estimate", digits)
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("ehrhart", parents=[fmt, caps],
                       help="lattice-point polynomial of the margin polytope")
    for name in ("m", "n"):
        p.add_argument(name, type=int)
    p.add_argument("--eval", dest="eval_at", type=_int_in(0), default=None,
                   metavar="Q", help="also evaluate the polynomial at Q")

    p = add("verify-integral", "reconstruct the count from the torus integral", caps)
    p.add_argument("--max-evals", default=integral.DEFAULT_MAX_EVALS, type=_int_in(0),
                   help="quadrature budget: grid^min(m, n) terms summed")
    p.add_argument("--grid", type=int, required=True, help="points per dimension")
    p.add_argument("--bounds", action="store_true",
                   help="also run the modulus-envelope and peak-width checks")

    p = add("check-hypothesis",
            "applicability diagnostic (1+2l)^2/(4l(1+l)) * (1+5m/6n+5n/6m)")
    p.add_argument("--a", type=float, default=None,
                   help="report whether lhs <= a * ln(n), the hypothesis of Theorem 1")

    add("delta", "bracket position of the exact count", caps)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)
    except _UsageError as err:
        print(f"contab: error: {err}", file=sys.stderr)
        return 1
    # exact values may pass CPython's int-to-str digit limit (4300 by default,
    # from 3.10.7 on); it is lifted only while this call runs, since callers
    # may run main in-process
    limit = getattr(sys, "get_int_max_str_digits", None)
    digits = limit() if limit else 0
    if digits:
        sys.set_int_max_str_digits(0)
    try:
        return _run(args)
    finally:
        if digits:
            sys.set_int_max_str_digits(digits)


def _run(args) -> int:
    """Run one parsed command: write its record and return the exit code."""
    try:
        if args.command == "ehrhart":
            spec, record = None, {"command": "ehrhart", "m": args.m, "n": args.n}
        else:
            spec = make_spec(args.m, args.s, args.n, args.t)
            record = {"command": args.command, "m": spec.m, "s": spec.s,
                      "n": spec.n, "t": spec.t, "density": str(spec.density)}
        start = time.perf_counter()
        record.update(_COMMANDS[args.command](args, spec))
        record["runtime_s"] = round(time.perf_counter() - start, 6)
    except InvalidSpecError as err:
        print(f"contab: error: {err}", file=sys.stderr)
        return 1
    except OverflowError as err:
        print(f"contab: error: margins too large for floats: {err}", file=sys.stderr)
        return 1
    except ResourceLimitError as err:
        print(f"contab: resource limit: {err}", file=sys.stderr)
        record.update(error="resource_limit", kind=err.kind, limit=err.limit,
                      used=err.used)
        sys.stdout.write(render(record, args.format))
        return 2
    except MemoryError:
        print("contab: resource limit: out of memory", file=sys.stderr)
        return 2
    sys.stdout.write(render(record, args.format))
    return 0


def _exact(args, spec) -> int:
    return exact.count_exact(spec, max_states=args.max_states, max_work=args.max_work)


def _exact_or_reason(args, spec):
    """(count, None), or (None, why) when a resource cap stopped the count."""
    try:
        return _exact(args, spec), None
    except ResourceLimitError as err:
        return None, str(err)


def _count(args, spec) -> dict:
    return {"value": str(_exact(args, spec))}


def _estimate(args, spec) -> dict:
    est = _ESTIMATE_METHODS[args.method](spec)
    fields = {"method": args.method, "error_terms": "omitted",
              "value": est.scientific(args.digits)}
    if args.method == "conj1":
        fields.update(low=est.low.scientific(args.digits),
                      mid=LogEstimate(est.log_midpoint()).scientific(args.digits),
                      high=est.high.scientific(args.digits),
                      log10_low=est.low.log10, log10_high=est.high.log10)
    else:
        mant, expo = est.mantissa_exponent()
        fields.update(mantissa=mant, exponent=expo, log10=est.log10)
    return fields


def _decompose(args, spec) -> dict:
    # the three binomials are below 2**bits and take up to `low` steps of comb
    # each; the fractions and the reassembly check hold products of up to
    # three of them
    low = min(spec.m * spec.n, spec.total)
    bits = low * (spec.m * spec.n + spec.total).bit_length()
    Budget(spec, states=args.max_states, work=args.max_work).charge(12, 3 * bits, [3 * low])
    count = _exact(args, spec)
    dec = estimators.independence_decomposition(spec, count)
    return {"exact": str(count), "placements": str(dec.n_placements),
            "p_rows": str(dec.p_rows), "p_cols": str(dec.p_cols),
            "dependence": str(dec.dependence),
            "dependence_float": float(dec.dependence)}


def _compare(args, spec) -> dict:
    fields = {key.replace("-", "_"): method(spec).scientific(args.digits)
              for key, method in _ESTIMATE_METHODS.items()}
    fields["error_terms"] = "omitted"
    if args.mc_samples is not None:
        est = montecarlo.mc_estimate(spec, args.mc_samples, args.seed or 0)
        fields.update(mc=est.mean.scientific(args.digits),
                      mc_relative_se=est.relative_standard_error,
                      seed=est.seed, samples=est.sample_count)
    elif args.seed is not None:
        raise InvalidSpecError("--seed is read only with --mc-samples")
    count, reason = _exact_or_reason(args, spec)
    fields.update(exact=None if count is None else str(count), exact_reason=reason)
    return fields


def _mc(args, spec) -> dict:
    est = montecarlo.mc_estimate(spec, args.samples, args.seed)
    return {"value": est.mean.scientific(args.digits), "log10_mean": est.mean.log10,
            "relative_se": est.relative_standard_error,
            "effective_sample_size": est.effective_sample_size,
            "samples": est.sample_count, "seed": est.seed}


def _ehrhart(args, spec) -> dict:
    poly = ehrhart.ehrhart_polynomial(args.m, args.n, max_states=args.max_states,
                                      max_work=args.max_work)
    fields = {"s0": poly.s0, "t0": poly.t0, "degree": poly.degree,
              "coefficients": [str(c) for c in poly.coefficients],
              "h_vector": list(poly.h_vector),
              "leading": str(ehrhart.leading_coefficient(poly))}
    if args.eval_at is not None:
        fields.update(eval_at=args.eval_at,
                      value=str(ehrhart.evaluate(poly, args.eval_at)))
    return fields


def _verify_integral(args, spec) -> dict:
    value = integral.integral_numeric(spec, args.grid, max_evals=args.max_evals)
    reconstructed = integral.reconstruct_count(spec, value)
    fields = {"grid": args.grid, "integral_real": value.real,
              "integral_imag": value.imag, "reconstructed": reconstructed}
    count, reason = _exact_or_reason(args, spec)
    if count is None:
        fields.update(exact=None, exact_reason=reason)
    else:
        fields.update(exact=str(count),
                      relative_error=abs(reconstructed - count) / count)
    if args.bounds:
        env = integral.envelope_check(spec.density, seed=args.m)
        peak = integral.peak_integral_check(spec.density)
        fields.update(seed=args.m, envelope_violations=env.violations,
                      envelope_max_slack=env.max_slack,
                      peak_ratio=peak.ratio, peak_within_bound=peak.within_bound)
    return fields


def _check_hypothesis(args, spec) -> dict:
    lhs = estimators.hypothesis_lhs(spec)
    coefficient = estimators.hypothesis_min_coefficient(spec)
    # JSON has no infinity: with n == 1 there is no smallest coefficient
    fields = {"lhs": str(lhs), "lhs_float": float(lhs),
              "min_coefficient": coefficient if math.isfinite(coefficient) else None}
    if args.a is not None:
        threshold = args.a * math.log(spec.n)
        # JSON has no infinity: a non-finite a, or a * ln(n) past the doubles
        if not math.isfinite(threshold):
            raise InvalidSpecError(f"--a must give a finite a·ln(n), got {args.a}·ln({spec.n})")
        fields.update(a=args.a, threshold=threshold,
                      satisfied=bool(float(lhs) <= threshold))
    return fields


def _delta(args, spec) -> dict:
    count = _exact(args, spec)
    return {"exact": str(count), "delta": estimators.bracket_delta(spec, count)}


_COMMANDS = {
    "count": _count,
    "estimate": _estimate,
    "decompose": _decompose,
    "compare": _compare,
    "mc": _mc,
    "ehrhart": _ehrhart,
    "verify-integral": _verify_integral,
    "check-hypothesis": _check_hypothesis,
    "delta": _delta,
}


def render(record: dict, fmt: str) -> str:
    return {"json": render_json, "csv": render_csv}.get(fmt, render_text)(record)


def render_json(record: dict) -> str:
    return json.dumps(record, sort_keys=True) + "\n"


def render_csv(record: dict) -> str:
    flat = {k: _csv_cell(v) for k, v in sorted(record.items())}
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows([list(flat), list(flat.values())])
    return buf.getvalue()


def _csv_cell(value):
    if isinstance(value, (list, tuple)):
        return ";".join(str(v) for v in value)
    return "" if value is None else value


def render_text(record: dict) -> str:
    if record.get("command") == "compare":
        return _render_compare_table(record)
    lines = []
    for key, value in record.items():
        if value is None:
            continue
        if isinstance(value, (list, tuple)):
            value = " ".join(str(v) for v in value)
        lines.append(f"{key}: {value}")
    return "\n".join(lines) + "\n"


def _render_compare_table(record: dict) -> str:
    columns = [("spec", f"({record['m']},{record['s']},{record['n']},{record['t']})"),
               ("G", record["good"]),
               ("refined", record["thm1"]),
               ("closed", record["thm1_closed"]),
               ("high-density", record["cor1"]),
               ("bracket", record["conj1"])]
    if "mc" in record:
        columns.append(("mc", record["mc"]))
    columns.append(("exact", "(capped)" if record["exact"] is None else record["exact"]))
    widths = [max(len(name), len(str(cell))) for name, cell in columns]
    header = "  ".join(name.ljust(w) for (name, _), w in zip(columns, widths))
    row = "  ".join(str(cell).ljust(w) for (_, cell), w in zip(columns, widths))
    out = header.rstrip() + "\n" + row.rstrip() + "\n"
    if record["exact"] is None:
        out += f"exact_reason: {record['exact_reason']}\n"
    return out
