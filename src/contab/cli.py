"""Command-line front end.

Subcommands cover exact counting, the closed-form estimates, the
independence decomposition, side-by-side comparison, importance sampling,
Ehrhart polynomials, quadrature verification of the integral identity, and
the applicability diagnostic.

Records go to stdout, diagnostics to stderr.  Exit codes: 0 success, 1
domain error (bad arguments, unbalanced margins, margins too large for a
float method), 2 resource cap hit or out of memory.
Exact counts are always emitted as full decimal strings; every stochastic
record carries its seed.  JSON is the canonical format (sorted keys, Python
repr floats, byte-stable on round-trip); CSV flattens interval results into
low/mid/high columns; text is a human-oriented key/value or table layout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import time

from . import ehrhart, estimators, exact, integral, montecarlo
from .core import InvalidSpecError, LogEstimate, ResourceLimitError, make_spec

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


def _env_int(name: str, fallback: int) -> int:
    raw = os.environ.get(name)
    if raw is None:
        return fallback
    try:
        return int(raw)
    except ValueError as err:
        raise _UsageError(f"environment variable {name} must be an integer, "
                          f"got {raw!r}") from err


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=("text", "json", "csv"),
                        default="text", help="output rendering (default text)")
    common.add_argument("--digits", type=int, default=DEFAULT_DIGITS,
                        help="significant digits for scientific renderings")
    common.add_argument("--max-states",
                        default=_env_int("CONTAB_MAX_STATES", exact.DEFAULT_MAX_STATES),
                        type=int, help="state cap for exact counting")
    common.add_argument("--max-evals",
                        default=_env_int("CONTAB_MAX_EVALS", integral.DEFAULT_MAX_EVALS),
                        type=int, help="evaluation budget for counting and quadrature")
    shape = argparse.ArgumentParser(add_help=False)
    for name in ("m", "s", "n", "t"):
        shape.add_argument(name, type=int)

    parser = _Parser(prog="contab",
                     description="Count and estimate nonnegative integer "
                                 "matrices with constant row and column sums.")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, summary):
        return sub.add_parser(name, parents=[common, shape], help=summary)

    add("count", "exact count")
    p = add("estimate", "closed-form estimates")
    p.add_argument("--method", required=True, choices=tuple(_ESTIMATE_METHODS))
    add("decompose", "independence decomposition M = N*P1*P2*E")

    p = add("compare", "all estimates side by side, plus exact when feasible")
    p.add_argument("--mc-samples", type=int, default=None,
                   help="add a Monte Carlo column with this many samples")
    p.add_argument("--seed", type=int, default=0)

    p = add("mc", "importance-sampling estimate")
    p.add_argument("--samples", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)

    p = sub.add_parser("ehrhart", parents=[common],
                       help="lattice-point polynomial of the margin polytope")
    for name in ("m", "n"):
        p.add_argument(name, type=int)
    p.add_argument("--eval", dest="eval_at", type=int, default=None,
                   metavar="Q", help="also evaluate the polynomial at Q")

    p = add("verify-integral", "reconstruct the count from the torus integral")
    p.add_argument("--grid", type=int, required=True, help="points per dimension")
    p.add_argument("--max-dims", type=int, default=integral.MAX_DIMENSIONS,
                   help="dimension cap m+n for the grid")
    p.add_argument("--bounds", action="store_true",
                   help="also run the modulus-envelope and peak-width checks")
    p.add_argument("--envelope-constant", type=float, default=10.0,
                   help="constant C in the peak-width ratio bound")
    p.add_argument("--bound-k", type=float, default=1e4,
                   help="sharpness parameter K for the peak-width check")

    p = add("check-hypothesis",
            "applicability diagnostic (1+2l)^2/(4l(1+l)) * (1+5m/6n+5n/6m)")
    p.add_argument("--a", type=float, default=None,
                   help="require lhs >= a * ln(n)")

    add("delta", "bracket position of the exact count")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except _UsageError as err:
        print(f"contab: error: {err}", file=sys.stderr)
        return 1
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
        return 2
    except MemoryError:
        print("contab: resource limit: out of memory", file=sys.stderr)
        return 2
    sys.stdout.write(render(record, args.format))
    return 0


def _exact(args, spec) -> int:
    return exact.count_exact(spec, max_states=args.max_states, max_work=args.max_evals)


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
        est = montecarlo.mc_estimate(spec, args.mc_samples, args.seed)
        fields.update(mc=est.mean.scientific(args.digits),
                      mc_relative_se=est.relative_standard_error,
                      seed=est.seed, samples=est.sample_count)
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
                                      max_work=args.max_evals)
    fields = {"s0": poly.s0, "t0": poly.t0, "degree": poly.degree,
              "coefficients": [str(c) for c in poly.coefficients],
              "h_vector": list(poly.h_vector),
              "leading": str(ehrhart.leading_coefficient(poly))}
    if args.eval_at is not None:
        fields.update(eval_at=args.eval_at,
                      value=str(ehrhart.evaluate(poly, args.eval_at)))
    return fields


def _verify_integral(args, spec) -> dict:
    value = integral.integral_numeric(spec, args.grid, max_evals=args.max_evals,
                                      max_dims=args.max_dims)
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
        peak = integral.peak_integral_check(spec.density, args.bound_k,
                                            args.envelope_constant)
        fields.update(envelope_violations=env.violations,
                      envelope_max_slack=env.max_slack,
                      peak_ratio=peak.ratio, peak_within_bound=peak.within_bound)
    return fields


def _check_hypothesis(args, spec) -> dict:
    lhs = estimators.hypothesis_lhs(spec)
    fields = {"lhs": str(lhs), "lhs_float": float(lhs),
              "min_coefficient": estimators.hypothesis_min_coefficient(spec)}
    if args.a is not None:
        threshold = args.a * math.log(spec.n)
        fields.update(a=args.a, threshold=threshold,
                      satisfied=bool(float(lhs) >= threshold))
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
