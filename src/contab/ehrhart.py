"""Lattice-point counting polynomial of the margin polytope.

Fix the matrix shape m x n and scale the margins together: with g = gcd(m, n),
s0 = n / g and t0 = m / g, the margins (q*s0, q*t0) are the q-th dilate of
the polytope of nonnegative m x n matrices with row sums s0 and column sums
t0.  The number of lattice points in the q-th dilate is a polynomial L(q) of
degree d = (m-1)(n-1).

A table of the q-th dilate with every entry >= 1, minus the all-ones matrix,
is a table of the dilate q - g, so the interior count is L(q - g).
Ehrhart-Macdonald reciprocity then gives L(-q-g) = (-1)^d * L(q) for q >= 0
and L(-1) = ... = L(-(g-1)) = 0.  The exact counts at q = 0..k, with the
smallest k for which 2(k+1) + g - 1 >= d + 1, therefore fix L on the
contiguous nodes -(g+k)..k: mirrored counts, the zeros, the counts.

ehrhart_polynomial fits L through those nodes by forward differences in
exact integers, checks every node beyond the d+1 a fit needs, and validates
L against the independent exact count at q = k+1.  The h-vector, defined by
L(q) = sum_{i=0..d} h[d-i] * binomial(q + i, d), follows from L(0..d).  It
is nonnegative with sum(h) = d! * (leading coefficient); both are enforced,
so a counting or fitting bug cannot produce a quietly wrong polynomial.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

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
    g = math.gcd(m, n)
    s0, t0 = n // g, m // g
    d = (m - 1) * (n - 1)
    k = max(0, (d - g + 1) // 2)         # fewest counts that fix L; k+1 is held out
    counts = [count_exact(make_spec(m, q * s0, n, q * t0),
                          max_states=max_states, max_work=max_work)
              for q in range(k + 2)]
    held_out = counts.pop()
    low = -(g + k)                       # the nodes are low..k
    diffs = _forward_differences([(-1) ** d * c for c in reversed(counts)]
                                 + [0] * (g - 1) + counts)
    diffs, surplus = diffs[:d + 1], diffs[d + 1:]
    if any(surplus):
        raise ArithmeticError(
            f"the counts for shape {m}x{n} fit no polynomial of degree {d}")
    if diffs[d] == 0:
        raise ArithmeticError(
            f"interpolated polynomial for shape {m}x{n} degenerates "
            f"below degree {d}; the counts are inconsistent")

    def value(q: int) -> int:
        return sum(c * math.comb(q - low, j) for j, c in enumerate(diffs))

    if value(k + 1) != held_out:
        raise ArithmeticError(
            f"validation failed for shape {m}x{n}: polynomial predicts "
            f"{value(k + 1)} at q={k + 1} but the exact count is {held_out}")
    poly = EhrhartPolynomial(m, n, s0, t0, d, _monomial(diffs, low),
                             _h_vector([value(q) for q in range(d + 1)]))
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


def _forward_differences(values: list[int]) -> list[int]:
    """[values[0], delta values[0], delta^2 values[0], ...] of equally spaced nodes."""
    tops = []
    while values:
        tops.append(values[0])
        values = [b - a for a, b in zip(values, values[1:])]
    return tops


def _monomial(diffs: list[int], low: int) -> tuple[Fraction, ...]:
    """Monomial coefficients of sum_j diffs[j] * binomial(q - low, j)."""
    d = len(diffs) - 1
    numerators = [0] * (d + 1)       # over the common denominator d!
    basis = [1]                      # prod_{i<j} (q - low - i), constant first
    for j, diff in enumerate(diffs):
        scale = diff * (math.factorial(d) // math.factorial(j))
        for power, b in enumerate(basis):
            numerators[power] += scale * b
        basis = [a - (low + j) * b for a, b in zip([0] + basis, basis + [0])]
    return tuple(Fraction(a, math.factorial(d)) for a in numerators)


def _h_vector(values: list[int]) -> tuple[int, ...]:
    """h from L(0..d): the low coefficients of (1 - z)^(d+1) * sum_q L(q) z^q."""
    d = len(values) - 1
    h = tuple(sum((-1) ** j * math.comb(d + 1, j) * values[i - j] for j in range(i + 1))
              for i in range(d + 1))
    if min(h) < 0:
        raise ArithmeticError(f"h-vector {h} has a negative entry: no lattice polytope")
    return h
