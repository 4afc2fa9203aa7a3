"""Exact counting: brute-force cross-checks, closed forms, resource caps."""

import math
import tracemalloc
from fractions import Fraction

import pytest

from contab.core import InvalidSpecError, ResourceLimitError, make_spec
from contab.exact import (
    BRUTEFORCE_MAX_CELLS,
    count_bruteforce,
    count_exact,
)

# hand-checkable anchors: (m, s, n, t) -> count
ANCHORS = {
    (1, 5, 5, 1): 1,
    (2, 1, 2, 1): 2,
    (2, 2, 2, 2): 3,
    (2, 3, 3, 2): 7,
    (3, 1, 3, 1): 6,      # permutation matrices
    (3, 2, 3, 2): 21,
    (3, 3, 3, 3): 55,
    (3, 4, 3, 4): 120,
    (4, 1, 4, 1): 24,
    (2, 6, 4, 3): 44,     # compositions of 6 into 4 parts capped at 3
}


def test_anchor_counts():
    for quad, want in ANCHORS.items():
        assert count_exact(make_spec(*quad)) == want, quad


def test_brute_force_agrees_everywhere_it_can():
    # exhaustive cross-check of the DP against direct enumeration
    for m in range(1, 5):
        for n in range(1, 5):
            if m * n > BRUTEFORCE_MAX_CELLS:
                continue
            for s in range(0, 7):
                if (m * s) % n:
                    continue
                spec = make_spec(m, s, n, m * s // n)
                assert count_exact(spec) == count_bruteforce(spec), spec


def test_two_row_closed_form():
    # with two rows and two columns of equal sums the count is s + 1
    for s in range(0, 51):
        assert count_exact(make_spec(2, s, 2, s)) == s + 1


def test_single_line_specs_count_one():
    for s in range(0, 8):
        assert count_exact(make_spec(1, 3 * s, 3, s)) == 1
        assert count_exact(make_spec(3, s, 1, 3 * s)) == 1


def test_zero_margin_counts_one():
    assert count_exact(make_spec(7, 0, 4, 0)) == 1


def test_transpose_symmetry():
    for quad in [(2, 6, 4, 3), (3, 4, 2, 6), (3, 99, 9, 33), (5, 4, 4, 5)]:
        spec = make_spec(*quad)
        assert count_exact(spec) == count_exact(spec.transpose()), quad


def test_magic_square_anchor():
    # classic 3x3 value, feasible in well under the stated 5 s budget
    assert count_exact(make_spec(3, 100, 3, 100)) == 13268976


def test_permutation_matrices_200():
    assert count_exact(make_spec(200, 1, 200, 1)) == math.factorial(200)


def test_permutation_matrices_2000_in_bounded_memory():
    # labelings are binomials evaluated where used; a table of them would
    # hold about m^2/2 big ints before any cap is checked
    tracemalloc.start()
    try:
        count = count_exact(make_spec(2000, 1, 2000, 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == math.factorial(2000)
    assert peak < 32 << 20


def test_two_per_line_closed_form_150():
    # k entries equal to 2; the rest is a 2-regular bipartite multigraph
    n, f = 150, math.factorial
    want = sum(Fraction(f(n) ** 2 * f(2 * n - 2 * k),
                        f(k) * f(n - k) ** 2 * 2 ** (2 * n - k))
               for k in range(n + 1))
    assert count_exact(make_spec(n, 2, n, 2)) == want


def test_column_totals_near_1000():
    # the first row (x1, x2, x3) in [0, 1000]^3 sums to 1500 and fixes the
    # second; count it by inclusion-exclusion over the entries above 1000
    want = sum((-1) ** j * math.comb(3, j) * math.comb(1500 - 1001 * j + 2, 2)
               for j in range(4) if 1001 * j <= 1500)
    assert count_exact(make_spec(2, 1500, 3, 1000)) == want


def test_state_cap_raises_with_diagnostics():
    spec = make_spec(10, 20, 10, 20)
    with pytest.raises(ResourceLimitError) as err:
        count_exact(spec, max_states=100)
    assert err.value.kind == "states"
    assert err.value.limit == 100
    # trips as soon as the stored-state count reaches the cap
    assert err.value.used >= 100


def test_work_cap_raises_with_diagnostics():
    spec = make_spec(10, 20, 10, 20)
    with pytest.raises(ResourceLimitError) as err:
        count_exact(spec, max_work=10_000)
    assert err.value.kind == "work"
    assert err.value.limit == 10_000


def test_caps_do_not_bite_small_problems():
    assert count_exact(make_spec(3, 3, 3, 3), max_states=10_000,
                       max_work=1_000_000) == 55


def test_bruteforce_guard_rails():
    with pytest.raises(InvalidSpecError):
        count_bruteforce(make_spec(4, 30, 4, 30))  # row sum too large
    with pytest.raises(InvalidSpecError):
        count_bruteforce(make_spec(5, 3, 5, 3))    # too many cells
