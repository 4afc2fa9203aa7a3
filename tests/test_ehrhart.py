"""Dilation-counting polynomials for the transportation polytope of an m x n table."""

import itertools
import math
from fractions import Fraction

import pytest

from contab import ehrhart
from contab.core import InvalidSpecError, ResourceLimitError, make_spec
from contab.ehrhart import (
    EhrhartPolynomial,
    ehrhart_polynomial,
    evaluate,
    leading_coefficient,
)
from contab.exact import count_bruteforce, count_exact


def test_square_2x2_is_q_plus_one():
    poly = ehrhart_polynomial(2, 2)
    assert poly.degree == 1
    assert poly.s0 == 1 and poly.t0 == 1
    assert poly.coefficients == (Fraction(1), Fraction(1))
    for q in range(0, 12):
        assert evaluate(poly, q) == q + 1


def test_single_row_is_constant_one():
    for n in (1, 2, 5):
        poly = ehrhart_polynomial(1, n)
        assert poly.degree == 0
        assert poly.coefficients == (Fraction(1),)
        assert poly.s0 == n and poly.t0 == 1
        assert evaluate(poly, 7) == 1


def test_square_3x3_pinned():
    poly = ehrhart_polynomial(3, 3)
    assert poly.degree == 4
    assert poly.s0 == 1 and poly.t0 == 1
    assert poly.coefficients == (
        Fraction(1), Fraction(9, 4), Fraction(15, 8), Fraction(3, 4), Fraction(1, 8),
    )
    assert poly.h_vector == (1, 1, 1, 0, 0)
    assert leading_coefficient(poly) == Fraction(1, 8)


def test_square_3x3_small_values_against_bruteforce():
    poly = ehrhart_polynomial(3, 3)
    for q in (1, 2):
        brute = count_bruteforce(make_spec(3, q, 3, q))
        assert evaluate(poly, q) == brute
    assert evaluate(poly, 1) == 6
    assert evaluate(poly, 2) == 21


def test_square_3x3_large_values_against_exact_counter():
    poly = ehrhart_polynomial(3, 3)
    assert evaluate(poly, 100) == 13268976
    assert evaluate(poly, 100) == count_exact(make_spec(3, 100, 3, 100))
    assert evaluate(poly, 300) == count_exact(make_spec(3, 300, 3, 300))
    for q in (7, 23, 61):
        assert evaluate(poly, q) == count_exact(make_spec(3, q, 3, q))


def test_rect_2x3_pinned():
    # margins must stay integral, so the base dilation is s0=3, t0=2
    poly = ehrhart_polynomial(2, 3)
    assert (poly.s0, poly.t0) == (3, 2)
    assert poly.degree == 2
    assert poly.coefficients == (Fraction(1), Fraction(3), Fraction(3))
    assert poly.h_vector == (1, 4, 1)
    for q in range(0, 8):
        assert evaluate(poly, q) == count_exact(make_spec(2, 3 * q, 3, 2 * q))


def test_rect_2x4_and_3x4_match_exact_counter():
    for m, n in [(2, 4), (3, 4)]:
        poly = ehrhart_polynomial(m, n)
        assert poly.degree == (m - 1) * (n - 1)
        for q in (0, 1, 2, 5, 9):
            spec = make_spec(m, poly.s0 * q, n, poly.t0 * q)
            assert evaluate(poly, q) == count_exact(spec)


def test_transpose_symmetry():
    a = ehrhart_polynomial(2, 3)
    b = ehrhart_polynomial(3, 2)
    assert a.coefficients == b.coefficients
    assert a.h_vector == b.h_vector
    assert (a.s0, a.t0) == (b.t0, b.s0)


def test_h_vector_reconstruction_identity():
    # sum_k h_k * C(q + d - k, d) must reproduce the polynomial values
    from math import comb

    for m, n in [(2, 2), (2, 3), (3, 3), (2, 4)]:
        poly = ehrhart_polynomial(m, n)
        d = poly.degree
        for q in range(0, 6):
            via_h = sum(h * comb(q + d - k, d) for k, h in enumerate(poly.h_vector))
            assert via_h == evaluate(poly, q)


def test_h_vector_nonnegative_and_sums_to_normalized_volume():
    import math

    for m, n in [(2, 2), (2, 3), (3, 3), (2, 4), (3, 4)]:
        poly = ehrhart_polynomial(m, n)
        assert all(h >= 0 for h in poly.h_vector)
        total = sum(poly.h_vector)
        assert total == math.factorial(poly.degree) * leading_coefficient(poly)


def test_counterfeit_counter_caught_by_validation(monkeypatch):
    # a counter that is wrong only at the held-out dilate (3x3: q = k+1 = 2)
    # leaves every fit node intact and still trips the held-out check
    def fake(spec, **kw):
        v = count_exact(spec, **kw)
        return v + (1 if spec.s == 2 else 0)

    monkeypatch.setattr(ehrhart, "count_exact", fake)
    with pytest.raises(ArithmeticError) as err:
        ehrhart_polynomial(3, 3)
    assert "q=2" in str(err.value)


def test_counter_wrong_at_fit_node_caught(monkeypatch):
    # q = 1 is a fit node of 3x3, and its mirror -4 is one too
    def fake(spec, **kw):
        v = count_exact(spec, **kw)
        return v + (1 if spec.s == 1 else 0)

    monkeypatch.setattr(ehrhart, "count_exact", fake)
    with pytest.raises(ArithmeticError):
        ehrhart_polynomial(3, 3)


def test_counter_wrong_at_node_caught(monkeypatch):
    def fake(spec, **kw):
        v = count_exact(spec, **kw)
        return v + (1 if spec.s == 2 else 0)

    monkeypatch.setattr(ehrhart, "count_exact", fake)
    with pytest.raises(ArithmeticError):
        ehrhart_polynomial(3, 3)


def test_cap_hit_raises_and_yields_no_polynomial(monkeypatch):
    with pytest.raises(ResourceLimitError):
        ehrhart_polynomial(4, 5, max_work=20)

    # the held-out count comes from count_exact, so its cap hit propagates
    def fake(spec, **kw):
        if spec.s == 2:
            raise ResourceLimitError("capped", kind="work", limit=1, used=2)
        return count_exact(spec, **kw)

    monkeypatch.setattr(ehrhart, "count_exact", fake)
    with pytest.raises(ResourceLimitError):
        ehrhart_polynomial(3, 3)


def _plain_fit(m, n):
    """Lagrange fit through the d+1 counts at q = 0..d, and its h-vector."""
    g = math.gcd(m, n)
    d = (m - 1) * (n - 1)
    ys = [count_exact(make_spec(m, q * n // g, n, q * m // g)) for q in range(d + 1)]
    coeffs = [Fraction(0)] * (d + 1)
    for i, y in enumerate(ys):
        basis, denom = [Fraction(1)], 1          # prod_{j != i} (q - j)
        for j in range(d + 1):
            if j != i:
                basis = [a - j * b for a, b in zip([0] + basis, basis + [0])]
                denom *= i - j
        for power, b in enumerate(basis):
            coeffs[power] += Fraction(y, denom) * b
    h = []                                       # forward substitution
    for q in range(d + 1):
        h.append(ys[q] - sum(h[r] * math.comb(q + d - r, d) for r in range(q)))
    return tuple(coeffs), tuple(h)


@pytest.mark.parametrize("shape", [(1, 3), (2, 2), (2, 3), (2, 5), (3, 3),
                                   (3, 4), (4, 4), (3, 6)])
def test_reciprocity_fit_equals_plain_fit(shape):
    poly = ehrhart_polynomial(*shape)
    assert (poly.coefficients, poly.h_vector) == _plain_fit(*shape)


def test_birkhoff_h_vectors_pinned():
    # Beck & Pixton, "The Ehrhart polynomial of the Birkhoff polytope" (2003)
    assert ehrhart_polynomial(4, 4).h_vector == (1, 14, 87, 148, 87, 14, 1, 0, 0, 0)
    assert ehrhart_polynomial(5, 5).h_vector == (
        1, 103, 4306, 63110, 388615, 1115068, 1575669, 1115068, 388615,
        63110, 4306, 103, 1, 0, 0, 0, 0)


def test_birkhoff_6x6_degree_and_h1():
    # h[1] = L(1) - d - 1, and L(1) counts the 6! permutation matrices
    poly = ehrhart_polynomial(6, 6)
    assert poly.degree == 25
    assert poly.h_vector[1] == math.factorial(6) - 25 - 1 == 694


@pytest.mark.parametrize("shape", [(2, 3), (3, 3)])
def test_reciprocity_against_bruteforce_interior(shape):
    # tables of the q-th dilate with every entry >= 1 number (-1)^d * L(-q)
    m, n = shape
    poly = ehrhart_polynomial(m, n)
    for q in range(1, 5):
        s, t = q * poly.s0, q * poly.t0
        interior = 0
        for block in itertools.product(range(1, s + 1), repeat=(m - 1) * (n - 1)):
            rows = [list(block[i * (n - 1):(i + 1) * (n - 1)]) for i in range(m - 1)]
            rows = [r + [s - sum(r)] for r in rows]
            rows.append([t - sum(col) for col in zip(*rows)])
            interior += all(x >= 1 for r in rows for x in r) and sum(rows[-1]) == s
        mirror = sum(c * (-q) ** p for p, c in enumerate(poly.coefficients))
        assert interior == (-1) ** poly.degree * mirror, (shape, q)


def test_evaluate_validation():
    poly = ehrhart_polynomial(2, 2)
    with pytest.raises(InvalidSpecError):
        evaluate(poly, -1)
    with pytest.raises(InvalidSpecError):
        evaluate(poly, 1.5)
    with pytest.raises(InvalidSpecError):
        evaluate(poly, True)


def test_shape_validation():
    with pytest.raises(InvalidSpecError):
        ehrhart_polynomial(0, 3)
    with pytest.raises(InvalidSpecError):
        ehrhart_polynomial(2, -1)
    with pytest.raises(InvalidSpecError):
        ehrhart_polynomial(2.0, 2)


def test_polynomial_values_are_ints_not_fractions():
    poly = ehrhart_polynomial(2, 3)
    v = evaluate(poly, 4)
    assert isinstance(v, int) and not isinstance(v, bool)
