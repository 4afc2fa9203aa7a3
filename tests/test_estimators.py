"""Closed-form count estimates, the bracket family, and exact rational checks."""

import math
from fractions import Fraction

import pytest

from contab.core import InvalidSpecError, leading_digits, make_spec
from contab.estimators import (
    bracket_delta,
    bracket_delta_from_log,
    bracket_interval,
    bracket_log_value,
    closed_form_estimate,
    good_estimate,
    high_density_estimate,
    hypothesis_lhs,
    hypothesis_min_coefficient,
    independence_decomposition,
    refined_estimate,
    saddle_params,
)
from contab.exact import count_exact

# six reference specs with hand-checked 4-digit renderings of each estimate
REFERENCE_ROWS = {
    (3, 100, 3, 100): ("1.019e7", "1.680e7", "(1.316 ± 0.217)e7"),
    (3, 98, 49, 6): ("7.594e67", "1.252e68", "(1.017 ± 0.020)e68"),
    (3, 99, 9, 33): ("2.116e21", "3.488e21", "(2.844 ± 0.236)e21"),
    (10, 20, 10, 20): ("7.434e58", "1.226e59", "(1.119 ± 0.056)e59"),
    (18, 13, 18, 13): ("5.157e127", "8.502e127", "(8.065 ± 0.224)e127"),
    (30, 3, 30, 3): ("1.404e92", "2.315e92", "(2.242 ± 0.037)e92"),
}


@pytest.mark.parametrize("quad", sorted(REFERENCE_ROWS))
def test_reference_row_renderings(quad):
    spec = make_spec(*quad)
    want_good, want_refined, want_bracket = REFERENCE_ROWS[quad]
    assert good_estimate(spec).scientific(4) == want_good
    assert refined_estimate(spec).scientific(4) == want_refined
    assert bracket_interval(spec).scientific(4) == want_bracket


def test_independence_estimate_square_2x2():
    # C(7,4) * (9/35)^2 with all four cells forced by symmetry
    spec = make_spec(2, 2, 2, 2)
    g = good_estimate(spec)
    expected = math.log(35 * (9 / 35) ** 2)
    assert math.isclose(g.log_value, expected, rel_tol=1e-12)


def test_independence_estimate_single_row_is_one():
    # one row: the numerator placement count equals the denominator
    for s, n in [(6, 3), (4, 2), (12, 4)]:
        spec = make_spec(1, s, n, s // n)
        assert abs(good_estimate(spec).log_value) < 1e-12


def test_refined_is_good_times_sqrt_e():
    for quad in sorted(REFERENCE_ROWS):
        spec = make_spec(*quad)
        gap = refined_estimate(spec).log_value - good_estimate(spec).log_value
        assert math.isclose(gap, 0.5, rel_tol=0, abs_tol=1e-12)


def test_closed_form_matches_analytic_2x2():
    # 256 e^{1/4} / (2 (4 pi)^{3/2}), written out from the closed form at
    # m = n = 2, density 1, gaussian coefficient 1
    spec = make_spec(2, 2, 2, 2)
    expected = math.log(256.0) + 0.25 - math.log(2.0) - 1.5 * math.log(4 * math.pi)
    assert math.isclose(closed_form_estimate(spec).log_value, expected, rel_tol=1e-12)


def test_closed_form_tracks_refined_when_large():
    # the two differ only in how the binomials are expanded, so the gap
    # shrinks with size; at 200x200 it is far below one part in 10^9
    spec = make_spec(200, 200, 200, 200)
    lr = refined_estimate(spec).log_value
    lc = closed_form_estimate(spec).log_value
    assert abs(lr - lc) / abs(lr) < 1e-9


def test_closed_form_near_refined_on_reference_rows():
    for quad in sorted(REFERENCE_ROWS):
        spec = make_spec(*quad)
        lr = refined_estimate(spec).log_value
        lc = closed_form_estimate(spec).log_value
        assert abs(lr - lc) / abs(lr) < 0.01


def test_high_density_analytic_2x2():
    # (density + 1/2)^1 * 4!/(2!^2 * 2!^2) * sqrt(e) = (9/4) e^{1/2}
    spec = make_spec(2, 2, 2, 2)
    expected = math.log(9 / 4) + 0.5
    assert math.isclose(high_density_estimate(spec).log_value, expected, rel_tol=1e-12)


def test_high_density_single_cell_is_sqrt_e():
    # m = n = 1: every factor cancels except the +1/2
    for s in (1, 2, 5, 17, 100):
        spec = make_spec(1, s, 1, s)
        assert math.isclose(high_density_estimate(spec).log_value, 0.5, rel_tol=1e-12)


def test_high_density_accuracy_3x3_dense():
    # the estimate drops a shape correction of (1+2A)/(24A)*(m/n+n/m); at
    # 3x3 with margin 300 the measured log-space error is 1.14%, and adding
    # the dropped term back reduces the residual below 0.5%
    spec = make_spec(3, 300, 3, 300)
    exact = count_exact(spec)
    assert exact == 1032919426
    log_exact = math.log(exact)
    log_est = high_density_estimate(spec).log_value
    assert abs(log_est - log_exact) / log_exact < 0.02
    lam = spec.density
    big_a = Fraction(1, 2) * lam * (1 + lam)
    dropped = float((1 + 2 * big_a) / (24 * big_a) * Fraction(2))
    assert abs(log_est - dropped - log_exact) / log_exact < 0.005


def test_bracket_endpoints_ordered_and_contain_refined_shift():
    for quad in sorted(REFERENCE_ROWS):
        spec = make_spec(*quad)
        iv = bracket_interval(spec)
        lo = bracket_log_value(spec, 0.0)
        hi = bracket_log_value(spec, 2.0)
        assert lo < hi
        assert math.isclose(iv.low.log_value, lo, rel_tol=1e-12)
        assert math.isclose(iv.high.log_value, hi, rel_tol=1e-12)
        assert iv.log_halfwidth() < iv.log_midpoint()


def test_bracket_delta_roundtrip():
    spec = make_spec(3, 99, 9, 33)
    for delta in (0.1, 1.0, 1.9):
        log_value = bracket_log_value(spec, delta)
        assert abs(bracket_delta_from_log(spec, log_value) - delta) < 1e-10


def test_bracket_delta_of_exact_counts_inside_unit_window():
    # the placement of the true count inside the bracket, small dense cases
    for m, s, n in [(3, 100, 3), (3, 4, 3), (4, 4, 4), (5, 3, 5)]:
        t = m * s // n
        spec = make_spec(m, s, n, t)
        delta = bracket_delta(spec, count_exact(spec))
        assert 0.0 < delta < 2.0


def test_bracket_delta_rejects_bad_count():
    spec = make_spec(2, 2, 2, 2)
    with pytest.raises(InvalidSpecError):
        bracket_delta(spec, 0)
    with pytest.raises(InvalidSpecError):
        bracket_delta(spec, -5)


def test_decomposition_2x3_pinned():
    spec = make_spec(2, 3, 3, 2)
    dec = independence_decomposition(spec, count_exact(spec))
    assert dec.n_placements == 462
    assert dec.p_rows == Fraction(50, 231)
    assert dec.p_cols == Fraction(9, 154)
    assert dec.dependence == Fraction(539, 450)
    assert dec.reassembled() == 7


def test_decomposition_2x2_pinned():
    dec = independence_decomposition(make_spec(2, 2, 2, 2), 3)
    assert dec.n_placements == 35
    assert dec.dependence == Fraction(35, 27)
    assert dec.reassembled() == 3


def test_decomposition_single_row_independent():
    # with one row the column margins are implied, so dependence is exactly 1
    for s, n in [(6, 3), (4, 4), (10, 2)]:
        spec = make_spec(1, s, n, s // n)
        dec = independence_decomposition(spec, count_exact(spec))
        assert dec.dependence == 1


def test_decomposition_reassembles_exactly_small_sweep():
    for m in range(1, 4):
        for n in range(1, 4):
            for s in range(1, 5):
                if (m * s) % n:
                    continue
                spec = make_spec(m, s, n, m * s // n)
                count = count_exact(spec)
                dec = independence_decomposition(spec, count)
                assert dec.reassembled() == count
                assert dec.dependence > 0


def test_hypothesis_lhs_square_unit_density_is_three():
    for n in (2, 3, 4, 6, 9):
        assert hypothesis_lhs(make_spec(n, n, n, n)) == Fraction(3)


def test_hypothesis_lhs_pinned_3x100():
    assert hypothesis_lhs(make_spec(3, 100, 3, 100)) == Fraction(41209, 15450)


def test_hypothesis_lhs_exact_formula_spot_check():
    # (1+2*lam)^2/(4*lam*(1+lam)) * (1 + 5m/6n + 5n/6m) assembled by hand
    spec = make_spec(2, 3, 3, 2)
    lam = Fraction(1)
    by_hand = (1 + 2 * lam) ** 2 / (4 * lam * (1 + lam)) * (
        1 + Fraction(5 * 2, 6 * 3) + Fraction(5 * 3, 6 * 2)
    )
    assert hypothesis_lhs(spec) == by_hand
    assert hypothesis_lhs(spec) == hypothesis_lhs(spec.transpose())


def test_hypothesis_min_coefficient_2x2():
    assert math.isclose(
        hypothesis_min_coefficient(make_spec(2, 2, 2, 2)), 3 / math.log(2),
        rel_tol=1e-12,
    )


def test_saddle_params_unit_density():
    p = saddle_params(make_spec(2, 2, 2, 2))
    assert p.density == 1
    assert p.gaussian_coeff == 1


def test_saddle_params_exact_rationals():
    p = saddle_params(make_spec(3, 100, 3, 100))
    assert p.density == Fraction(100, 3)
    assert p.gaussian_coeff == Fraction(1, 2) * Fraction(100, 3) * Fraction(103, 3)


def test_transpose_invariance_of_all_estimates():
    for quad in [(3, 98, 49, 6), (3, 99, 9, 33), (2, 6, 4, 3)]:
        spec = make_spec(*quad)
        flip = spec.transpose()
        assert math.isclose(good_estimate(spec).log_value,
                            good_estimate(flip).log_value, rel_tol=1e-12)
        assert math.isclose(refined_estimate(spec).log_value,
                            refined_estimate(flip).log_value, rel_tol=1e-12)
        assert math.isclose(closed_form_estimate(spec).log_value,
                            closed_form_estimate(flip).log_value, rel_tol=1e-12)
        iv, fv = bracket_interval(spec), bracket_interval(flip)
        assert math.isclose(iv.low.log_value, fv.low.log_value, rel_tol=1e-12)
        assert math.isclose(iv.high.log_value, fv.high.log_value, rel_tol=1e-12)


def test_zero_density_rejected_everywhere():
    spec = make_spec(2, 0, 2, 0)
    for fn in (good_estimate, refined_estimate, closed_form_estimate,
               high_density_estimate, bracket_interval, saddle_params,
               hypothesis_lhs):
        with pytest.raises(InvalidSpecError):
            fn(spec)
