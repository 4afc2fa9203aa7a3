"""The benchmark's workloads, each a list of checked operations on contab.

A workload is a fixed list of calls into contab's public API.  The seed fixes
the order of the calls and the seeds handed to stochastic calls, never which
calls run, so every seed does the same work.  Each operation carries a check
against a reference that does not come from the code under test: a value
printed in the paper, a closed form, or the small row-by-row counter
`count_tables` below.

Workloads and why they were chosen:

- exact-dp: count_exact on the dense paper rows, a capped stretch row and
  two deep sparse shapes; every access pattern of the exact layer.
- mc-sis: mc_estimate on a 10-row shape with a lookahead width of 21, a
  3-row shape with a convolution width of 101, and a 30-row shape of width
  4.  Only the sampler runs.
- cross-check: many small calls into every oracle and the CLI, so the
  per-call overhead of each layer shows, not its throughput.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

# shapes are (m, s, n, t): m rows summing to s, n columns summing to t
PAPER_ROWS = [(3, 100, 3, 100), (3, 98, 49, 6), (3, 99, 9, 33),
              (10, 20, 10, 20), (18, 13, 18, 13), (30, 3, 30, 3)]
# leading six digits and decimal exponent as printed in the paper's table
PAPER_6_DIGITS = {(3, 98, 49, 6): (101100, 68), (3, 99, 9, 33): (279207, 21),
                  (10, 20, 10, 20): (109747, 59), (30, 3, 30, 3): (222931, 92)}
PAPER_EXACT = {(3, 100, 3, 100): 13268976}

EXACT_CAPS = {"max_states": 1 << 24, "max_work": 10 ** 8}
STRETCH_CAPS = {"max_states": 1 << 24, "max_work": 200_000}
QUADRATURE_MAX_EVALS = 10 ** 15

MC_SHAPES = [((10, 20, 10, 20), 10_000), ((3, 100, 3, 100), 10_000),
             ((30, 3, 30, 3), 5_000)]
MC_MAX_SE = 5.0

QUADRATURE = [((2, 2, 2, 2), 64), ((2, 3, 3, 2), 64), ((3, 3, 3, 3), 128),
              ((3, 1, 3, 1), 192)]
ENVELOPE_SHAPES = [(30, 1, 30, 1), (2, 2, 2, 2), (3, 20, 4, 15), (3, 100, 3, 100)]
ENVELOPE_SAMPLES = 100_000
EHRHART_SHAPES = [(3, 3), (3, 4), (4, 4), (3, 6)]
ESTIMATE_METHODS = {"good": "good_estimate", "thm1": "refined_estimate",
                    "thm1-closed": "closed_form_estimate",
                    "cor1": "high_density_estimate", "conj1": "bracket_interval"}


class WrongAnswer(Exception):
    """An operation returned a value its oracle rejects."""


@dataclass(frozen=True)
class Op:
    """One timed call and the check of its result.

    check(value) returns a dict of facts about the result (sample counts,
    errors) or raises WrongAnswer.  expect_cap names the ResourceLimitError
    kind that counts as success for a call meant to hit its budget.
    """

    id: str
    call: Callable[[], object]
    check: Callable[[object], dict]
    expect_cap: str | None = None
    facts: dict = field(default_factory=dict)


def name(quad) -> str:
    return "_".join(map(str, quad))


def build(workload: str, seed: int, contab) -> list[Op]:
    """The operations of `workload`, in the order the seed gives."""
    rng = random.Random(f"{workload}:{seed}")
    ops = BUILDERS[workload](contab, rng)
    rng.shuffle(ops)
    return ops


# ---------------------------------------------------------------- oracles

def count_tables(m: int, s: int, n: int, t: int) -> int:
    """Reference count by filling rows one at a time.

    The state is the sorted tuple of column deficits, kept over the shorter
    side; each row is every composition of its sum under those deficits.
    Written apart from contab, for desk-size shapes.
    """
    if m * s != n * t:
        return 0
    if n > m:
        m, s, n, t = n, t, m, s
    layer = {(t,) * n: 1}
    for _ in range(m):
        nxt: dict[tuple[int, ...], int] = {}
        for state, ways in layer.items():
            for row in _bounded_compositions(s, state):
                key = tuple(sorted(d - x for d, x in zip(state, row)))
                nxt[key] = nxt.get(key, 0) + ways
        layer = nxt
    return layer.get((0,) * n, 0)


def _bounded_compositions(total: int, caps: tuple[int, ...]):
    if len(caps) == 1:
        if total <= caps[0]:
            yield (total,)
        return
    for x in range(min(total, caps[0]) + 1):
        for rest in _bounded_compositions(total - x, caps[1:]):
            yield (x,) + rest


def count_two_per_line(n: int) -> int:
    """Closed form for the (n, 2, n, 2) count.

    sum_k n!^2 (2n-2k)! / (k! (n-k)!^2 2^(2n-k)); k counts the entries equal
    to 2, the rest is a 2-regular bipartite multigraph count.
    """
    f = math.factorial
    total = sum(Fraction(f(n) ** 2 * f(2 * n - 2 * k),
                         f(k) * f(n - k) ** 2 * 2 ** (2 * n - k))
                for k in range(n + 1))
    if total.denominator != 1:
        raise ArithmeticError(f"closed form for n={n} is not an integer")
    return total.numerator


def expect(cond: bool, message: str) -> None:
    if not cond:
        raise WrongAnswer(message)


def check_exact(quad) -> Callable[[object], dict]:
    """Check an exact count against the paper, 200! or the closed form."""
    m, s, n, t = quad
    if quad in PAPER_EXACT:
        want = PAPER_EXACT[quad]
    elif m == n and s == t == 1:
        want = math.factorial(n)
    elif m == n and s == t == 2:
        want = count_two_per_line(n)
    else:
        want = None

    def check(value) -> dict:
        if want is not None:
            expect(value == want, f"{name(quad)}: got {value}, want {want}")
        else:
            digits, exponent = PAPER_6_DIGITS[quad]
            unit = 10 ** (exponent - 5)
            expect(2 * abs(value - digits * unit) <= unit,
                   f"{name(quad)}: {value} does not round to {digits}e{exponent}")
        return {}
    return check


def reference_value(quad) -> float:
    """The count as a float, from the paper's exact value or its six digits."""
    if quad in PAPER_EXACT:
        return float(PAPER_EXACT[quad])
    digits, exponent = PAPER_6_DIGITS[quad]
    return digits * 10.0 ** (exponent - 5)


# ---------------------------------------------------------------- exact-dp

def exact_dp(contab, rng) -> list[Op]:
    ops = []
    for quad in [(3, 100, 3, 100), (3, 98, 49, 6), (30, 3, 30, 3),
                 (200, 1, 200, 1), (150, 2, 150, 2)]:
        spec = contab.make_spec(*quad)
        ops.append(Op(f"exact.{name(quad)}",
                      lambda spec=spec: contab.count_exact(spec, **EXACT_CAPS),
                      check_exact(quad)))
    stretch = (10, 20, 10, 20)
    spec = contab.make_spec(*stretch)
    ops.append(Op(f"exact.{name(stretch)}.capped",
                  lambda: contab.count_exact(spec, **STRETCH_CAPS),
                  check_exact(stretch), expect_cap="work"))
    return ops


# ---------------------------------------------------------------- mc-sis

def mc_sis(contab, rng) -> list[Op]:
    ops = []
    for quad, samples in MC_SHAPES:
        spec = contab.make_spec(*quad)
        mc_seed = rng.randrange(2 ** 32)
        ops.append(Op(f"montecarlo.{name(quad)}",
                      lambda spec=spec, samples=samples, mc_seed=mc_seed:
                          contab.mc_estimate(spec, samples, seed=mc_seed),
                      _check_mc(quad, samples),
                      facts={"shape": name(quad), "samples": samples,
                             "seed": mc_seed}))
    return ops


def _check_mc(quad, samples: int) -> Callable[[object], dict]:
    log_ref = math.log(reference_value(quad))

    def check(est) -> dict:
        rse = est.relative_standard_error
        deviation = abs(math.expm1(est.log_mean - log_ref)) / rse
        expect(est.sample_count == samples, f"{name(quad)}: wrong sample count")
        expect(deviation <= MC_MAX_SE,
               f"{name(quad)}: mean is {deviation:.2f} SE from the reference")
        return {"rse": rse, "ess_frac": est.effective_sample_size / samples}
    return check


# ---------------------------------------------------------------- cross-check

def cross_check(contab, rng) -> list[Op]:
    cli = contab.cli
    ops = []
    for m in range(2, 7):
        for n in range(2, 7):
            for s in range(1, 7):
                if (m * s) % n == 0:
                    ops.append(_bracket_op(contab, (m, s, n, m * s // n)))
    for quad in desk_specs():
        ops.append(_enumerate_op(contab, quad))
    for quad, points in QUADRATURE:
        ops.append(_quadrature_op(contab, quad, points))
    for quad in ENVELOPE_SHAPES:
        ops.append(_envelope_op(contab, quad, rng.randrange(2 ** 32)))
    for m, n in EHRHART_SHAPES:
        ops.append(_ehrhart_op(contab, m, n))
    for quad in PAPER_ROWS:
        spec = contab.make_spec(*quad)
        for method, func in ESTIMATE_METHODS.items():
            want = getattr(contab, func)(spec).scientific(4)
            ops.append(_cli_op(cli, f"cli.estimate.{method}.{name(quad)}",
                               ["estimate", *map(str, quad), "--method", method],
                               {"value": want}))
    ops.append(_cli_op(cli, "cli.decompose.2_3_3_2", ["decompose", "2", "3", "3", "2"],
                       {"exact": str(count_tables(2, 3, 3, 2)),
                        "dependence": "539/450"}))
    spec = contab.make_spec(4, 3, 4, 3)
    # compare names its columns after the methods, with "_" for "-"
    want = {method.replace("-", "_"): getattr(contab, func)(spec).scientific(4)
            for method, func in ESTIMATE_METHODS.items()}
    want["exact"] = str(count_tables(4, 3, 4, 3))
    ops.append(_cli_op(cli, "cli.compare.4_3_4_3", ["compare", "4", "3", "4", "3"], want))
    return ops


def desk_specs() -> list[tuple[int, int, int, int]]:
    """The 57 shapes with m*n <= 9 and s <= 4 whose proposal is enumerable."""
    return [(m, s, n, m * s // n) for m in range(1, 10) for n in range(1, 10)
            if m * n <= 9 for s in range(1, 5) if (m * s) % n == 0]


def _bracket_op(contab, quad) -> Op:
    spec = contab.make_spec(*quad)
    want = count_tables(*quad)

    def call():
        count = contab.count_exact(spec, **EXACT_CAPS)
        return count, contab.bracket_delta(spec, count)

    def check(result) -> dict:
        count, delta = result
        expect(count == want, f"{name(quad)}: got {count}, want {want}")
        expect(0.0 < delta < 2.0, f"{name(quad)}: bracket position {delta} outside (0, 2)")
        return {}
    return Op(f"bracket.{name(quad)}", call, check)


def _enumerate_op(contab, quad) -> Op:
    spec = contab.make_spec(*quad)
    m, s, n, t = quad
    want = count_tables(*quad)

    def check(paths) -> dict:
        tables = [table for table, _q in paths]
        expect(len(paths) == want, f"{name(quad)}: {len(paths)} paths, want {want}")
        expect(len(set(tables)) == len(tables), f"{name(quad)}: repeated table")
        expect(all(all(sum(row) == s for row in table)
                   and all(sum(col) == t for col in zip(*table)) for table in tables),
               f"{name(quad)}: a path ends in a table with wrong margins")
        expect(sum(q for _t, q in paths) == 1,
               f"{name(quad)}: proposal probabilities do not sum to 1")
        return {"paths": len(paths)}
    return Op(f"enumerate.{name(quad)}", lambda: contab.enumerate_proposal(spec), check)


def _quadrature_op(contab, quad, points: int) -> Op:
    spec = contab.make_spec(*quad)
    want = count_tables(*quad)

    def call():
        value = contab.integral_numeric(spec, points, max_evals=QUADRATURE_MAX_EVALS)
        return value, contab.reconstruct_count(spec, value)

    def check(result) -> dict:
        value, count = result
        rel = abs(count - want) / want
        expect(rel <= 1e-6, f"{name(quad)}: relative error {rel:.2e} > 1e-6")
        expect(abs(value.imag) <= 1e-8 * abs(value.real),
               f"{name(quad)}: imaginary residual {value.imag:.2e}")
        return {"rel_error": rel, "points": points ** (quad[0] + quad[2])}
    return Op(f"integral.{name(quad)}.p{points}", call, check)


def _envelope_op(contab, quad, seed: int) -> Op:
    lam = contab.make_spec(*quad).density

    def check(report) -> dict:
        expect(report.samples == ENVELOPE_SAMPLES, f"density {lam}: wrong sample count")
        expect(report.violations == 0,
               f"density {lam}: {report.violations} envelope violations")
        return {}
    return Op(f"envelope.{name(quad)}",
              lambda: contab.envelope_check(lam, samples=ENVELOPE_SAMPLES, seed=seed),
              check, facts={"seed": seed})


def _ehrhart_op(contab, m: int, n: int) -> Op:
    lcm = m * n // math.gcd(m, n)
    s0, t0 = lcm // m, lcm // n
    degree = (m - 1) * (n - 1)
    # q = d+2 lies beyond every count the interpolation itself used or checked
    want = {q: count_tables(m, q * s0, n, q * t0) for q in (0, 1, 2, 3, degree + 2)}
    if (m, n) == (3, 3):
        want[100] = PAPER_EXACT[(3, 100, 3, 100)]

    def check(poly) -> dict:
        expect(poly.degree == degree, f"{m}x{n}: degree {poly.degree}, want {degree}")
        for q, count in want.items():
            value = sum(c * q ** k for k, c in enumerate(poly.coefficients))
            expect(value == count, f"{m}x{n}: L({q}) = {value}, want {count}")
        expect(all(h >= 0 for h in poly.h_vector), f"{m}x{n}: negative h-vector entry")
        return {}
    return Op(f"ehrhart.{m}x{n}",
              lambda: contab.ehrhart_polynomial(m, n, **EXACT_CAPS), check)


def _cli_op(cli, op_id: str, argv: list[str], want: dict) -> Op:
    argv = argv + ["--format", "json"]

    def call():
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(result) -> dict:
        code, out, err = result
        expect(code == 0, f"{' '.join(argv)}: exit {code}: {err.strip()}")
        record = json.loads(out)
        for key, value in want.items():
            expect(record.get(key) == value,
                   f"{' '.join(argv)}: {key} is {record.get(key)!r}, want {value!r}")
        return {}
    return Op(op_id, call, check)


BUILDERS = {"exact-dp": exact_dp, "mc-sis": mc_sis, "cross-check": cross_check}
