"""Spec validation, log helpers, and scientific rendering."""

import math
from fractions import Fraction

import pytest

from contab.core import (
    EstimateInterval,
    InvalidSpecError,
    LogEstimate,
    TableSpec,
    leading_digits,
    log_binomial,
    log_of_fraction,
    make_spec,
)


def test_valid_spec_roundtrip():
    spec = make_spec(3, 100, 3, 100)
    assert (spec.m, spec.s, spec.n, spec.t) == (3, 100, 3, 100)
    assert spec.total == 300


def test_balance_rejected_with_both_products():
    with pytest.raises(InvalidSpecError) as err:
        make_spec(2, 3, 3, 1)
    msg = str(err.value)
    assert "2·3 ≠ 3·1" in msg
    assert "6" in msg and "3" in msg


@pytest.mark.parametrize("bad", [
    (0, 1, 1, 0), (1, -1, 1, -1), (-2, 3, 3, -2), (2, 0, 0, 0),
])
def test_degenerate_dimensions_rejected(bad):
    with pytest.raises(InvalidSpecError):
        make_spec(*bad)


@pytest.mark.parametrize("nonint", [
    (2.0, 2, 2, 2), (2, "2", 2, 2), (2, 2, True, 2), (2, 2, 2, 2.5),
])
def test_non_integer_fields_rejected(nonint):
    with pytest.raises(InvalidSpecError):
        TableSpec(*nonint)


def test_zero_margins_allowed():
    spec = make_spec(4, 0, 5, 0)
    assert spec.density == 0
    assert spec.total == 0


def test_density_is_exact_rational():
    # both definitions of the density agree for every balanced spec
    for m in range(1, 7):
        for n in range(1, 7):
            for s in range(0, 13):
                if (m * s) % n:
                    continue
                spec = make_spec(m, s, n, m * s // n)
                assert spec.density == Fraction(s, n) == Fraction(spec.t, m)
                assert isinstance(spec.density, Fraction)


def test_transpose_swaps_roles():
    spec = make_spec(3, 98, 49, 6)
    tr = spec.transpose()
    assert (tr.m, tr.s, tr.n, tr.t) == (49, 6, 3, 98)
    assert tr.transpose() == spec
    assert tr.density == Fraction(6, 3)


def test_log_binomial_matches_exact_integers():
    # against big-integer binomials over a deterministic sweep
    worst = 0.0
    for a in range(0, 1001, 37):
        for b in range(0, a + 1, max(1, a // 7)):
            got = log_binomial(a, b)
            want = math.log(math.comb(a, b))
            err = abs(got - want) / max(1.0, abs(want))
            worst = max(worst, err)
    assert worst < 1e-12


def test_log_binomial_edges_and_domain():
    assert log_binomial(0, 0) == 0.0
    assert log_binomial(17, 0) == 0.0
    assert log_binomial(17, 17) == 0.0
    with pytest.raises(InvalidSpecError):
        log_binomial(3, 5)
    with pytest.raises(InvalidSpecError):
        log_binomial(3, -1)
    with pytest.raises(InvalidSpecError):
        log_binomial(3.0, 1)


def test_log_of_fraction_handles_huge_ratios():
    q = Fraction(math.factorial(400), math.factorial(397))
    assert abs(log_of_fraction(q) - math.log(400 * 399 * 398)) < 1e-12
    with pytest.raises(InvalidSpecError):
        log_of_fraction(Fraction(0))
    with pytest.raises(InvalidSpecError):
        log_of_fraction(Fraction(-3, 7))


def test_log_estimate_value_and_overflow():
    est = LogEstimate.from_value(13268976)
    assert abs(est.value - 13268976) < 1e-2
    assert abs(est.log10 - math.log10(13268976)) < 1e-12
    big = LogEstimate(1000.0)
    assert big.value == math.inf
    assert math.isfinite(big.log10)
    with pytest.raises(InvalidSpecError):
        LogEstimate.from_value(0)


def test_mantissa_exponent_roundtrip_precision():
    # mantissa * 10^exponent reproduces the log to better than 12 digits
    for log10 in [0.0, 0.301029995, 7.1227, 58.9, 127.92958, 305.5]:
        est = LogEstimate(log10 * math.log(10.0))
        mant, expo = est.mantissa_exponent()
        assert 1.0 <= mant < 10.0
        back = math.log10(mant) + expo
        assert abs(back - log10) < 1e-12


def test_scientific_rendering_pinned():
    assert LogEstimate.from_value(13268976).scientific(4) == "1.327e7"
    assert LogEstimate.from_value(1.0).scientific(4) == "1.000"
    assert LogEstimate.from_value(2).scientific(1) == "2"
    assert LogEstimate.from_value(9.9999).scientific(4) == "1.000e1"
    with pytest.raises(InvalidSpecError):
        LogEstimate.from_value(5).scientific(0)


def test_scientific_rendering_monotone_on_decade_boundaries():
    # rendering never goes backwards as the value sweeps upward
    prev = None
    for k in range(2000):
        est = LogEstimate(k * 0.01)
        mant, expo = est.mantissa_exponent()
        key = (expo, mant)
        if prev is not None:
            assert key >= prev
        prev = key


def test_interval_orientation_and_rendering():
    low = LogEstimate.from_value(1.099e7)
    high = LogEstimate.from_value(1.533e7)
    interval = EstimateInterval(low, high)
    assert interval.contains_log(math.log(1.3e7))
    assert not interval.contains_log(math.log(2e7))
    text = interval.scientific(4)
    assert text.startswith("(") and "±" in text and text.endswith("e7")
    with pytest.raises(InvalidSpecError):
        interval.scientific(0)
    with pytest.raises(InvalidSpecError):
        EstimateInterval(high, low)


def test_interval_degenerate_halfwidth():
    point = LogEstimate.from_value(42.0)
    interval = EstimateInterval(point, point)
    assert interval.log_halfwidth() == -math.inf
    assert interval.scientific(3) == "(4.20 ± 0.00)e1"


def test_leading_digits_round_half_even():
    assert leading_digits(13268976, 6) == (132690, 7)
    assert leading_digits(13268976, 3) == (133, 7)
    assert leading_digits(25, 1) == (2, 1)      # half to even: 2.5 -> 2
    assert leading_digits(35, 1) == (4, 1)      # half to even: 3.5 -> 4
    assert leading_digits(999951, 5) == (99995, 5)
    assert leading_digits(999996, 5) == (10000, 6)  # carry into a new decade
    assert leading_digits(7, 3) == (700, 0)
    with pytest.raises(InvalidSpecError):
        leading_digits(0, 4)
    with pytest.raises(InvalidSpecError):
        leading_digits(10, 0)


def test_leading_digits_agrees_with_decimal_rendering():
    value = 123456789123456789
    digits, expo = leading_digits(value, 9)
    assert digits == 123456789
    assert expo == 17
