"""Closed-form estimates, brackets, and diagnostics for margin counts.

Let M(m, s; n, t) be the number of m x n nonnegative integer matrices with
row sums s and column sums t, and lam = s/n = t/m the density.  Everything
here evaluates in log space; exact ratios are kept as Fractions until the
final float step.

good_estimate is the classical independence heuristic G: write N for the
number of ways to place the grand total into the mn cells, P1 for the
probability that a uniformly random such placement has all row sums equal
to s, treating rows as independent, and P2 likewise for columns; then
G = N * P1 * P2.  independence_decomposition exposes those factors exactly
and the dependence correction E = M / (N * P1 * P2).

refined_estimate multiplies G by e^(1/2), the asymptotically correct
correction in the regime where the applicability hypothesis below holds.
closed_form_estimate is the same estimate with every binomial replaced by
its second-order saddle-point expansion: with A = lam*(1+lam)/2,

    M ~ (lam^-lam (1+lam)^(1+lam))^(mn)
        / ((4*pi*A)^((m+n-1)/2) * m^((n-1)/2) * n^((m-1)/2))
        * exp(1/2 - (1+2A)/(24A) * (m/n + n/m)).

high_density_estimate specializes to large density (mn/lam^2 -> 0):
M ~ (lam + 1/2)^((m-1)(n-1)) * (mn)! / (m!^n * n!^m) * e^(1/2).

bracket_interval evaluates the conjectured two-sided form

    M = G * ((m+1)/m)^((m-1)/2) * ((n+1)/n)^((n-1)/2) * exp(-1/2 + D/(m+n))

at D = 0 and D = 2; the conjecture asserts 0 < D < 2, so those endpoints
bracket M.  bracket_delta inverts the same formula to recover D from an
exact count.

hypothesis_lhs is the exact rational left side of the applicability
hypothesis  (1+2*lam)^2 / (4*lam*(1+lam)) * (1 + 5m/(6n) + 5n/(6m)),
which the asymptotic regime requires to stay below a * log(n).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from math import comb

from .core import (EstimateInterval, InvalidSpecError, LogEstimate, TableSpec,
                   cell_entropy, gaussian_coeff, log_binomial, log_of_fraction)


def good_log(spec: TableSpec) -> float:
    """Natural log of the independence heuristic G."""
    spec.positive_density()
    m, s, n, t = spec.m, spec.s, spec.n, spec.t
    total = spec.total
    return (m * log_binomial(n + s - 1, s)
            + n * log_binomial(m + t - 1, t)
            - log_binomial(m * n + total - 1, total))


def good_estimate(spec: TableSpec) -> LogEstimate:
    return LogEstimate(good_log(spec))


def refined_estimate(spec: TableSpec) -> LogEstimate:
    """G times e^(1/2) (CLI method token: thm1)."""
    return LogEstimate(good_log(spec) + 0.5)


def closed_form_estimate(spec: TableSpec) -> LogEstimate:
    """Fully expanded second-order form (CLI method token: thm1-closed)."""
    lam = spec.positive_density()
    a = gaussian_coeff(lam)
    m, n = spec.m, spec.n
    shape = Fraction(m, n) + Fraction(n, m)
    log_value = (m * n * cell_entropy(lam)
                 - (m + n - 1) / 2 * math.log(4 * math.pi * float(a))
                 - (n - 1) / 2 * math.log(m)
                 - (m - 1) / 2 * math.log(n)
                 + 0.5
                 - float((1 + 2 * a) / (24 * a)) * float(shape))
    return LogEstimate(log_value)


def high_density_estimate(spec: TableSpec) -> LogEstimate:
    """Large-density limit form (CLI method token: cor1)."""
    lam = spec.positive_density()
    m, n = spec.m, spec.n
    log_value = ((m - 1) * (n - 1) * log_of_fraction(lam + Fraction(1, 2))
                 + math.lgamma(m * n + 1)
                 - n * math.lgamma(m + 1)
                 - m * math.lgamma(n + 1)
                 + 0.5)
    return LogEstimate(log_value)


def _bracket_base_log(spec: TableSpec) -> float:
    m, n = spec.m, spec.n
    return (good_log(spec)
            + (m - 1) / 2 * math.log1p(1.0 / m)
            + (n - 1) / 2 * math.log1p(1.0 / n)
            - 0.5)


def bracket_log_value(spec: TableSpec, delta: float) -> float:
    """Log of the conjectured form evaluated at a given delta."""
    return _bracket_base_log(spec) + delta / (spec.m + spec.n)


def bracket_interval(spec: TableSpec) -> EstimateInterval:
    """Conjectured bracket from delta = 0 and delta = 2 (CLI token: conj1)."""
    return EstimateInterval(LogEstimate(bracket_log_value(spec, 0.0)),
                            LogEstimate(bracket_log_value(spec, 2.0)))


def bracket_delta_from_log(spec: TableSpec, log_count: float) -> float:
    """Invert the bracket formula: the delta that reproduces log_count."""
    return (spec.m + spec.n) * (log_count - _bracket_base_log(spec))


def bracket_delta(spec: TableSpec, exact_count: int) -> float:
    """Delta recovered from an exact count; conjectured to lie in (0, 2)."""
    if exact_count < 1:
        raise InvalidSpecError(f"need a positive exact count, got {exact_count}")
    return bracket_delta_from_log(spec, math.log(exact_count))


@dataclass(frozen=True)
class CountDecomposition:
    """Exact factors of the independence heuristic, G = n_placements*p_rows*p_cols.

    dependence = M / (n_placements * p_rows * p_cols) is the correction the
    heuristic misses; the product identity reassembles M exactly.
    """

    n_placements: int       # ways to drop the grand total into mn cells
    p_rows: Fraction        # chance all row sums hit s under that uniform model
    p_cols: Fraction        # chance all column sums hit t
    dependence: Fraction    # E = M / (N * P1 * P2)

    def reassembled(self) -> Fraction:
        return self.n_placements * self.p_rows * self.p_cols * self.dependence


def independence_decomposition(spec: TableSpec, exact_count: int) -> CountDecomposition:
    """Split an exact count into the independence factors N, P1, P2, E."""
    spec.positive_density()
    if exact_count < 1:
        raise InvalidSpecError(f"need a positive exact count, got {exact_count}")
    m, s, n, t = spec.m, spec.s, spec.n, spec.t
    total = spec.total
    n_placements = comb(m * n + total - 1, total)
    rows_ways = comb(n + s - 1, s) ** m
    cols_ways = comb(m + t - 1, t) ** n
    p_rows = Fraction(rows_ways, n_placements)
    p_cols = Fraction(cols_ways, n_placements)
    dependence = Fraction(exact_count * n_placements, rows_ways * cols_ways)
    out = CountDecomposition(n_placements, p_rows, p_cols, dependence)
    assert out.reassembled() == exact_count
    return out


def hypothesis_lhs(spec: TableSpec) -> Fraction:
    """Exact left side of the applicability hypothesis."""
    lam = spec.positive_density()
    m, n = spec.m, spec.n
    balance = 1 + Fraction(5 * m, 6 * n) + Fraction(5 * n, 6 * m)
    return (1 + 2 * lam) ** 2 / (4 * lam * (1 + lam)) * balance


def hypothesis_min_coefficient(spec: TableSpec) -> float:
    """Smallest a with LHS <= a * log(n); inf when n == 1."""
    lhs = hypothesis_lhs(spec)
    if spec.n == 1:
        return math.inf
    return float(lhs) / math.log(spec.n)
