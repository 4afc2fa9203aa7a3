"""Shared domain types and numeric helpers.

A margin specification is a 4-tuple (m, s, n, t): it describes m x n matrices
of nonnegative integers whose rows each sum to s and whose columns each sum
to t.  Such matrices exist only when m*s == n*t (both sides count the total
of all entries).  The density lam = s/n = t/m is the average entry size and
is carried as an exact Fraction.

Exact counts are plain Python ints.  Estimates are carried as natural
logarithms (LogEstimate), because interesting counts overflow floats long
before they stop being interesting.  Ratios stay exact (Fraction) until the
final log-space evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

LN10 = math.log(10.0)


class InvalidSpecError(ValueError):
    """Arguments outside the domain: unbalanced margins, zero density, bad caps."""


class ResourceLimitError(RuntimeError):
    """A computation stopped because it would exceed its configured budget.

    Carries what was capped (kind), the cap, and how much was used when the
    computation gave up.  Raising this is always preferred over returning a
    wrong or truncated answer.
    """

    def __init__(self, message: str, *, kind: str, limit: int, used: int):
        super().__init__(message)
        self.kind = kind
        self.limit = limit
        self.used = used


@dataclass(frozen=True)
class TableSpec:
    """Validated margin specification (m rows summing to s, n columns to t)."""

    m: int
    s: int
    n: int
    t: int

    def __post_init__(self):
        for name in ("m", "s", "n", "t"):
            v = getattr(self, name)
            if not isinstance(v, int) or isinstance(v, bool):
                raise InvalidSpecError(f"{name} must be an integer, got {v!r}")
        if self.m < 1 or self.n < 1:
            raise InvalidSpecError(
                f"need at least one row and one column, got m={self.m}, n={self.n}")
        if self.s < 0 or self.t < 0:
            raise InvalidSpecError(
                f"row and column sums must be nonnegative, got s={self.s}, t={self.t}")
        if self.m * self.s != self.n * self.t:
            raise InvalidSpecError(
                f"unbalanced margins: {self.m}·{self.s} ≠ {self.n}·{self.t}"
                f" (row total {self.m * self.s} vs column total {self.n * self.t})")

    @property
    def density(self) -> Fraction:
        """Average entry lam = s/n, equal to t/m by balance."""
        return Fraction(self.s, self.n)

    def positive_density(self) -> Fraction:
        """The density, for the methods that are undefined at zero margins."""
        if self.density == 0:
            raise InvalidSpecError(
                f"this method needs positive margins, got s={self.s}, t={self.t}")
        return self.density

    @property
    def total(self) -> int:
        """Sum of all entries, m*s == n*t."""
        return self.m * self.s

    def transpose(self) -> "TableSpec":
        return TableSpec(self.n, self.t, self.m, self.s)


def make_spec(m: int, s: int, n: int, t: int) -> TableSpec:
    """Build a validated TableSpec; raises InvalidSpecError on bad margins."""
    return TableSpec(m, s, n, t)


def log_binomial(a: int, b: int) -> float:
    """Natural log of binomial(a, b) via log-gamma.

    Works for arguments far beyond what exact integer evaluation could
    represent in float.  Exact to roughly 1e-13 relative for a <= 1000
    (checked against big-integer binomials in the tests).
    """
    if not isinstance(a, int) or not isinstance(b, int):
        raise InvalidSpecError(f"binomial arguments must be integers, got {a!r}, {b!r}")
    if b < 0 or b > a:
        raise InvalidSpecError(f"need 0 <= b <= a, got a={a}, b={b}")
    if b == 0 or b == a:
        return 0.0
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def log_of_fraction(q: Fraction) -> float:
    """Natural log of a positive rational, accurate for huge numerators."""
    if q <= 0:
        raise InvalidSpecError(f"log of nonpositive rational {q}")
    return math.log(q.numerator) - math.log(q.denominator)


def _mantissa_exponent(log_value: float) -> tuple[float, int]:
    l10 = log_value / LN10
    e = math.floor(l10)
    mant = 10.0 ** (l10 - e)
    # float guards at the decade boundary
    if mant >= 10.0:
        mant /= 10.0
        e += 1
    elif mant < 1.0:
        mant *= 10.0
        e -= 1
    return mant, e


def _sci_string(log_value: float, digits: int) -> str:
    mant, e = _mantissa_exponent(log_value)
    body = f"{mant:.{digits - 1}f}"
    if float(body) >= 10.0:  # rounding pushed past the decade
        body = f"{mant / 10.0:.{digits - 1}f}"
        e += 1
    return body if e == 0 else f"{body}e{e}"


@dataclass(frozen=True, order=True)
class LogEstimate:
    """A positive real carried as its natural log."""

    log_value: float

    @classmethod
    def from_value(cls, value) -> "LogEstimate":
        if value <= 0:
            raise InvalidSpecError(f"LogEstimate needs a positive value, got {value!r}")
        return cls(math.log(value))

    @property
    def log10(self) -> float:
        return self.log_value / LN10

    @property
    def value(self) -> float:
        """Plain float value; inf when it overflows."""
        try:
            return math.exp(self.log_value)
        except OverflowError:
            return math.inf

    def mantissa_exponent(self) -> tuple[float, int]:
        """Full-precision (mantissa in [1, 10), decimal exponent)."""
        return _mantissa_exponent(self.log_value)

    def scientific(self, digits: int = 4) -> str:
        """Rendering such as '1.019e7', round-half-even at `digits` digits."""
        if digits < 1:
            raise InvalidSpecError(f"digits must be >= 1, got {digits}")
        return _sci_string(self.log_value, digits)


@dataclass(frozen=True)
class EstimateInterval:
    """A two-sided bracket [low, high] on a positive count."""

    low: LogEstimate
    high: LogEstimate

    def __post_init__(self):
        if not self.low.log_value <= self.high.log_value:
            raise InvalidSpecError(
                f"interval endpoints out of order: {self.low} > {self.high}")

    def log_midpoint(self) -> float:
        """Natural log of (low + high) / 2, overflow safe."""
        lo, hi = self.low.log_value, self.high.log_value
        # log((e^lo + e^hi) / 2)
        return hi + math.log1p(math.exp(lo - hi)) - math.log(2.0)

    def log_halfwidth(self) -> float:
        """Natural log of (high - low) / 2; -inf for a degenerate interval."""
        lo, hi = self.low.log_value, self.high.log_value
        if lo == hi:
            return -math.inf
        return hi + math.log1p(-math.exp(lo - hi)) - math.log(2.0)

    def contains_log(self, log_value: float) -> bool:
        return self.low.log_value <= log_value <= self.high.log_value

    def scientific(self, digits: int = 4) -> str:
        """Rendering such as '(1.316 ± 0.217)e7'.

        Midpoint and half-width share the midpoint's decimal exponent so the
        two mantissas are directly comparable.
        """
        mid = self.log_midpoint()
        half = self.log_halfwidth()
        mant, e = _mantissa_exponent(mid)
        mid_body = f"{mant:.{digits - 1}f}"
        if float(mid_body) >= 10.0:
            mid_body = f"{mant / 10.0:.{digits - 1}f}"
            e += 1
            mant /= 10.0
        if half == -math.inf:
            half_mant = 0.0
        else:
            half_mant = math.exp(half - e * LN10)
        half_body = f"{half_mant:.{digits - 1}f}"
        suffix = "" if e == 0 else f"e{e}"
        return f"({mid_body} ± {half_body}){suffix}"


def leading_digits(value: int, digits: int) -> tuple[int, int]:
    """First `digits` decimal digits of a positive int, round-half-even.

    Returns (rounded leading digits as an int, decimal exponent of the
    leading digit).  leading_digits(13268976, 6) == (132690, 7).
    """
    if value <= 0:
        raise InvalidSpecError(f"need a positive integer, got {value}")
    if digits < 1:
        raise InvalidSpecError(f"digits must be >= 1, got {digits}")
    text = str(value)
    exponent = len(text) - 1
    if len(text) <= digits:
        return value * 10 ** (digits - len(text)), exponent
    modulus = 10 ** (len(text) - digits)
    q, r = divmod(value, modulus)
    if 2 * r > modulus or (2 * r == modulus and q & 1):
        q += 1
    if q == 10 ** digits:
        q //= 10
        exponent += 1
    return q, exponent
