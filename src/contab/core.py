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
import sys
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


# bytes budgeted per held state, the unit of a states cap
STATE_BYTES = 1024


class Budget:
    """One call's caps, states (STATE_BYTES each), work and evals, and every error they raise."""

    def __init__(self, spec: TableSpec, **caps: int):
        for kind, cap in caps.items():
            if cap < 0:
                raise InvalidSpecError(f"caps must be nonnegative, got max_{kind}={int_text(cap)}")
        self.spec, self.caps = spec, caps

    def error(self, kind: str, used: int, detail: str, limit: int | None = None):
        """The ResourceLimitError of an exhausted cap; limit defaults to the cap."""
        name = {"states": "state cap", "work": "work budget"}.get(kind, "quadrature budget")
        return ResourceLimitError(f"{name} exhausted counting {self.spec}: {detail}", kind=kind,
                                  limit=self.caps[kind] if limit is None else limit, used=used)

    def charge(self, ints: int, bits: int, work) -> None:
        """Charge a closed form holding `ints` ints below 2**bits and doing sum(work)."""
        held = ints * (36 + 4 * (bits // 30))  # a list slot and 28 bytes plus 4 per 30 bits
        if -(-held // STATE_BYTES) > self.caps["states"]:
            raise self.error("states", -(-held // STATE_BYTES), f"{int_text(held)} bytes of "
                             f"ints > {self.caps['states']} states of {STATE_BYTES} bytes")
        work = sum(work)  # only once the ints fit: a lazy sum may take O(n) steps
        if work > self.caps["work"]:
            raise self.error("work", work, f"{int_text(work)} units of work > {self.caps['work']}")


@dataclass(frozen=True, repr=False)
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
            raise InvalidSpecError("need at least one row and one column, "
                                   f"got m={int_text(self.m)}, n={int_text(self.n)}")
        if self.s < 0 or self.t < 0:
            raise InvalidSpecError("row and column sums must be nonnegative, "
                                   f"got s={int_text(self.s)}, t={int_text(self.t)}")
        if self.m * self.s != self.n * self.t:
            m, s, n, t = map(int_text, (self.m, self.s, self.n, self.t))
            raise InvalidSpecError(
                f"unbalanced margins: {m}·{s} ≠ {n}·{t} (row total "
                f"{int_text(self.m * self.s)} vs column total {int_text(self.n * self.t)})")

    def __repr__(self) -> str:
        m, s, n, t = map(int_text, (self.m, self.s, self.n, self.t))
        return f"TableSpec(m={m}, s={s}, n={n}, t={t})"

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


_LOG_SUM_TERMS = 30


def log_binomial(a: int, b: int) -> float:
    """Natural log of binomial(a, b), to about 1e-14 relative for any a < 1e308.

    lgamma(a+1) - lgamma(a-b+1) cancels when b is far below a: at a = 1e18
    it loses every digit.  So with k = min(b, a-b), up to _LOG_SUM_TERMS
    factors (a-i) are summed directly, and beyond that the difference is
    taken from Stirling's series with log1p, which does not cancel.
    """
    if not isinstance(a, int) or not isinstance(b, int):
        raise InvalidSpecError(f"binomial arguments must be integers, got {a!r}, {b!r}")
    if b < 0 or b > a:
        raise InvalidSpecError(f"need 0 <= b <= a, got a={int_text(a)}, b={int_text(b)}")
    k = min(b, a - b)
    if k == 0:
        return 0.0
    top = float(a + 1)     # OverflowError beyond float range
    if k <= _LOG_SUM_TERMS:
        return math.fsum(math.log(a - i) for i in range(k)) - math.lgamma(k + 1)
    # lgamma(top) - lgamma(low), both by Stirling; low = a-k+1 >= k+1 > 31
    low = float(a - k + 1)
    return (k * math.log(top) - (low - 0.5) * math.log1p(-k / top) - k
            + _stirling_tail(top) - _stirling_tail(low) - math.lgamma(k + 1))


def _stirling_tail(y: float) -> float:
    """lgamma(y) - ((y - 1/2) log y - y + log(2 pi)/2), off by < 1/(1680 y^7)."""
    return 1 / (12 * y) - 1 / (360 * y ** 3) + 1 / (1260 * y ** 5)


def log_of_fraction(q: Fraction) -> float:
    """Natural log of a positive rational, accurate for huge numerators."""
    if q <= 0:
        raise InvalidSpecError(f"log of nonpositive rational {q}")
    return math.log(q.numerator) - math.log(q.denominator)


def gaussian_coeff(lam):
    """A = lam(1+lam)/2, the Gaussian width of one cell's integrand factor.

    Exact for a Fraction, a float for a float; the density must be positive.
    """
    if lam <= 0:
        raise InvalidSpecError(f"density must be positive, got {lam}")
    return lam * (1 + lam) / 2


def cell_entropy(lam: Fraction) -> float:
    """H(lam) = -lam log(lam) + (1+lam) log(1+lam), the log growth per cell.

    Evaluated as lam log1p(1/lam) + log1p(lam): the two terms of the
    definition are each about lam log(lam) and cancel for large lam.
    """
    return float(lam) * math.log1p(float(1 / lam)) + math.log1p(float(lam))


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


def _sci_parts(log_value: float, digits: int) -> tuple[str, int]:
    """(mantissa rounded to `digits` significant digits, decimal exponent)."""
    # a double carries at most 17 significant digits
    if not 1 <= digits <= 17:
        raise InvalidSpecError(f"digits must be in 1..17, got {digits}")
    mant, e = _mantissa_exponent(log_value)
    body = f"{mant:.{digits - 1}f}"
    if float(body) >= 10.0:  # rounding pushed past the decade
        body = f"{mant / 10.0:.{digits - 1}f}"
        e += 1
    return body, e


@dataclass(frozen=True, order=True)
class LogEstimate:
    """A positive real carried as its natural log."""

    log_value: float

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
        body, e = _sci_parts(self.log_value, digits)
        return body if e == 0 else f"{body}e{e}"


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
        # log(1 - e^(lo - hi)) by expm1: an exp that rounds to 1 would leave log(0)
        return hi + math.log(-math.expm1(lo - hi)) - math.log(2.0)

    def scientific(self, digits: int = 4) -> str:
        """Rendering such as '(1.316 ± 0.217)e7'.

        Midpoint and half-width share the midpoint's decimal exponent so the
        two mantissas are directly comparable.
        """
        mid_body, e = _sci_parts(self.log_midpoint(), digits)
        half_mant = math.exp(self.log_halfwidth() - e * LN10)   # 0.0 at -inf
        half_body = f"{half_mant:.{digits - 1}f}"
        suffix = "" if e == 0 else f"e{e}"
        return f"({mid_body} ± {half_body}){suffix}"


def int_text(value: int) -> str:
    """value in decimal, or to 6 digits where str() would pass its digit limit."""
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit or value.bit_length() <= 3 * limit:  # 3 bits are under a digit
        return str(value)
    digits, exponent = leading_digits(abs(value), 6)
    return f"{'-' * (value < 0)}{digits / 1e5:.5f}e{exponent}"


def leading_digits(value: int, digits: int) -> tuple[int, int]:
    """First `digits` decimal digits of a positive int, round-half-even.

    Returns (rounded leading digits as an int, decimal exponent of the
    leading digit).  leading_digits(13268976, 6) == (132690, 7).
    """
    if value <= 0:
        raise InvalidSpecError(f"need a positive integer, got {int_text(value)}")
    if digits < 1:
        raise InvalidSpecError(f"digits must be >= 1, got {digits}")
    # floor(log10 value) from the bit length, so no str() of the whole int:
    # the estimate is off by at most one, either way
    exponent = int((value.bit_length() - 1) * math.log10(2))
    power = 10 ** exponent
    if power > value:
        exponent, power = exponent - 1, power // 10
    elif 10 * power <= value:
        exponent, power = exponent + 1, 10 * power
    if exponent < digits:
        return value * 10 ** (digits - 1 - exponent), exponent
    modulus = power // 10 ** (digits - 1)
    q, r = divmod(value, modulus)
    if 2 * r > modulus or (2 * r == modulus and q & 1):
        q += 1
    if q == 10 ** digits:
        q //= 10
        exponent += 1
    return q, exponent
