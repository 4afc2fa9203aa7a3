"""Lattice-point counting polynomial of the margin polytope.

Fix the matrix shape m x n and scale the margins together: with
s0 = lcm(m, n) / m and t0 = lcm(m, n) / n, the margins (q*s0, q*t0) are the
q-th dilate of the polytope of nonnegative m x n matrices with equal row
sums s0 and equal column sums t0.  The number of lattice points in the q-th
dilate is a polynomial L(q) of degree d = (m-1)(n-1), so d+1 exact counts
pin it down and every further count is a free consistency check.

ehrhart_polynomial interpolates L through the exact counts at q = 0..d
(Newton forward differences, exact integer arithmetic), validates the
result against the independent exact count at q = d+1, and performs the
basis change to the h-vector defined by

    L(q) = sum_{i=0..d} h[d-i] * binomial(q + i, d).

The h-vector of a lattice polytope is a vector of nonnegative integers and
satisfies sum(h) = d! * (leading coefficient); both are enforced here, so a
counting or interpolation bug cannot produce a quietly wrong polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import InvalidSpecError, make_spec
from .exact import DEFAULT_MAX_STATES, DEFAULT_MAX_WORK, count_exact


@dataclass(frozen=True)
class EhrhartPolynomial:
    """Interpolated dilation polynomial with exact rational coefficients."""

    m: int
    n: int
    s0: int                          # row sum of the base dilate
    t0: int                          # column sum of the base dilate
    degree: int                      # (m-1)(n-1)
    coefficients: tuple[Fraction, ...]   # monomial basis, constant first
    h_vector: tuple[int, ...]


def ehrhart_polynomial(m: int, n: int, *,
                       max_states: int = DEFAULT_MAX_STATES,
                       max_work: int = DEFAULT_MAX_WORK) -> EhrhartPolynomial:
    """Interpolate the dilation polynomial for the m x n shape.

    Each exact count is count_exact under the caps max_states and max_work.
    """
    if not isinstance(m, int) or not isinstance(n, int) or m < 1 or n < 1:
        raise InvalidSpecError(f"need positive integer shape, got m={m!r}, n={n!r}")
    lcm = m * n // math.gcd(m, n)
    s0, t0 = lcm // m, lcm // n
    d = (m - 1) * (n - 1)

    specs = [make_spec(m, q * s0, n, q * t0) for q in range(d + 2)]
    values = [count_exact(sp, max_states=max_states, max_work=max_work)
              for sp in specs]

    coeffs = _newton_interpolate(values[:d + 1])
    poly = EhrhartPolynomial(m, n, s0, t0, d, coeffs,
                             _h_vector(values[:d + 1], d))

    if poly.coefficients[d] == 0:
        raise ArithmeticError(
            f"interpolated polynomial for shape {m}x{n} degenerates "
            f"below degree {d}; the counts are inconsistent")
    check_q = d + 1
    predicted = evaluate(poly, check_q)
    if predicted != values[check_q]:
        raise ArithmeticError(
            f"validation failed for shape {m}x{n}: polynomial predicts "
            f"{predicted} at q={check_q} but the exact count is {values[check_q]}")
    if sum(poly.h_vector) != math.factorial(d) * poly.coefficients[d]:
        raise ArithmeticError(
            f"h-vector of shape {m}x{n} does not match the leading coefficient")
    return poly


def evaluate(poly: EhrhartPolynomial, q: int) -> int:
    """Exact value of the polynomial at integer q >= 0.

    A non-integer or negative result means the polynomial does not count
    anything and is raised as a hard error rather than returned.
    """
    if not isinstance(q, int) or isinstance(q, bool) or q < 0:
        raise InvalidSpecError(f"dilation factor must be a nonnegative int, got {q!r}")
    acc = Fraction(0)
    for c in reversed(poly.coefficients):
        acc = acc * q + c
    if acc.denominator != 1 or acc < 0:
        raise ArithmeticError(
            f"polynomial value {acc} at q={q} is not a count; "
            "the coefficients are corrupted")
    return int(acc)


def leading_coefficient(poly: EhrhartPolynomial) -> Fraction:
    """Leading coefficient; its denominator divides degree!."""
    return poly.coefficients[poly.degree]


def _newton_interpolate(values: list[int]) -> tuple[Fraction, ...]:
    """Monomial coefficients of the unique degree <= d fit through (q, values[q])."""
    d = len(values) - 1
    diffs = [list(values)]
    for k in range(1, d + 1):
        prev = diffs[-1]
        diffs.append([prev[i + 1] - prev[i] for i in range(len(prev) - 1)])
    # L(q) = sum_k diffs[k][0] * C(q, k); expand each falling factorial
    coeffs = [Fraction(0)] * (d + 1)
    basis = [Fraction(1)]          # coefficients of prod_{i<k} (q - i) / k!
    for k in range(d + 1):
        lead = diffs[k][0]
        if lead:
            scale = Fraction(1, math.factorial(k))
            for power, b in enumerate(basis):
                coeffs[power] += lead * scale * b
        # basis *= (q - k)
        nxt = [Fraction(0)] * (len(basis) + 1)
        for power, b in enumerate(basis):
            nxt[power + 1] += b
            nxt[power] += -k * b
        basis = nxt
    return tuple(coeffs)


def _h_vector(values: list[int], d: int) -> tuple[int, ...]:
    """Solve L(q) = sum_i h[d-i] * C(q+i, d) for h by forward substitution."""
    h = [0] * (d + 1)
    for q in range(d + 1):
        acc = values[q]
        for r in range(q):
            acc -= h[r] * comb(q + d - r, d)
        h[q] = acc   # the coefficient of h[q] is C(d, d) = 1
        if h[q] < 0:
            raise ArithmeticError(
                f"h-vector entry {q} is negative ({h[q]}); "
                "the input counts cannot come from a lattice polytope")
    return tuple(h)
