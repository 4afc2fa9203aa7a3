"""Exact counting: brute-force cross-checks, closed forms, resource caps."""

import itertools
import math
import time
import tracemalloc
from collections import Counter
from fractions import Fraction

import pytest

from contab import exact
from contab.core import (Budget, InvalidSpecError, ResourceLimitError, leading_digits,
                         make_spec)
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


def test_magic_square_anchor():
    # classic 3x3 value, feasible in well under the stated 5 s budget
    assert count_exact(make_spec(3, 100, 3, 100)) == 13268976


def test_permutation_matrices_200():
    assert count_exact(make_spec(200, 1, 200, 1)) == math.factorial(200)


@pytest.mark.traced
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


def _two_per_line(n):
    # k entries equal to 2; the rest is a 2-regular bipartite multigraph
    f = math.factorial
    return sum(Fraction(f(n) ** 2 * f(2 * n - 2 * k),
                        f(k) * f(n - k) ** 2 * 2 ** (2 * n - k))
               for k in range(n + 1))


def _two_rows(s, n, t):
    # column by column: the first row takes x in [0, t] and the second t - x;
    # count the first rows summing to s, one window sum of t + 1 per column
    ways = [1] + [0] * s
    for _ in range(n):
        run, nxt = 0, []
        for a in range(s + 1):
            run += ways[a] - (ways[a - t - 1] if a > t else 0)
            nxt.append(run)
        ways = nxt
    return ways[s]


def test_two_row_oracle_against_brute_force():
    # the column oracle stands in for count_exact's inclusion-exclusion sum
    # on wide two-row shapes, so it is itself checked against the brute force
    desk = [(s, n, 2 * s // n) for n in range(1, 7) for s in range(0, 13)
            if 2 * s % n == 0 and math.comb(s + n - 1, n - 1) ** 2 <= 10 ** 5]
    assert len(desk) > 20
    for s, n, t in desk:
        assert _two_rows(s, n, t) == count_bruteforce(make_spec(2, s, n, t)), (s, n, t)


def test_two_per_line_closed_form_150():
    assert count_exact(make_spec(150, 2, 150, 2)) == _two_per_line(150)


def test_column_totals_near_1000():
    assert count_exact(make_spec(2, 1500, 3, 1000)) == _two_rows(1500, 3, 1000)


def test_join_on_closed_forms_both_parities():
    # the pass stops halfway and joins each state with its complement;
    # joined states hold finished rows (deficit 0) and untouched rows
    # (deficit s), for even n (one layer) and odd n (two layers); two and
    # three rows are closed forms and never reach the join, four rows do
    for n in range(2, 13):
        assert count_exact(make_spec(n, 1, n, 1)) == math.factorial(n), n
        assert count_exact(make_spec(n, 2, n, 2)) == _two_per_line(n), n
        for t in range(1, 8):
            if n * t % 2 == 0:
                s = n * t // 2
                assert count_exact(make_spec(2, s, n, t)) == _two_rows(s, n, t), (n, t)
            if 4 <= n <= 8 and n * t % 4 == 0:
                s = n * t // 4
                assert count_exact(make_spec(4, s, n, t)) == _four_rows(s, n, t), (n, t)


@pytest.mark.traced
def test_wide_margins_stay_bounded():
    # two rows take the closed form, so no state key is built however wide
    # the margins; four rows at s = 3000 need 1126-byte keys, over the
    # kilobyte budgeted per state, so the pass stops before building one
    tracemalloc.start()
    try:
        count = count_exact(make_spec(2, 60000, 3, 40000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == _two_rows(60000, 3, 40000)
    assert peak < 1 << 20
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(ResourceLimitError) as err:
            count_exact(make_spec(4, 3000, 4, 3000))
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.kind, err.value.limit, err.value.used) == ("states", 0, 1)
    assert elapsed < 2
    assert peak < 8 << 20


def test_join_agrees_with_brute_force():
    # two rows by six columns either way round; the brute force grows fast
    # with s, so s stays where it runs in well under a second
    for s in (3, 6):
        spec = make_spec(2, s, 6, s // 3)
        assert count_exact(spec) == count_bruteforce(spec), spec
    for s in range(0, 7):
        spec = make_spec(6, s, 2, 3 * s)
        assert count_exact(spec) == count_bruteforce(spec), spec


def test_halfway_join_halves_the_work():
    # the full pass over (4,30,20,6) charges 456038 allocations; stopping
    # at 10 columns left needs 228205
    count = count_exact(make_spec(4, 30, 20, 6), max_work=250_000)
    assert leading_digits(count, 6) == (814039, 34)


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
    assert err.value.used == 10_001


def test_work_cap_inside_cached_moves():
    # allocation 100000 of (4,30,20,6) falls in a state whose option lists
    # were stored earlier in the pass; the budget is still exact to one step
    with pytest.raises(ResourceLimitError) as err:
        count_exact(make_spec(4, 30, 20, 6), max_work=99_999)
    assert err.value.kind == "work"
    assert (err.value.limit, err.value.used) == (99_999, 100_000)


def _record_memos(monkeypatch):
    # the option memo of every later count_exact call, in call order
    memos = []

    class Recorded(exact._Moves):
        def __init__(self, *args):
            super().__init__(*args)
            memos.append(self)

    monkeypatch.setattr(exact, "_Moves", Recorded)
    return memos


def test_option_budget_keeps_the_count(monkeypatch):
    # no layer of (4,12,4,12) holds more than 86 states, but its option
    # lists reach 609 entries, so under 200 the budget fills and later
    # lists are built and used but not stored
    memos = _record_memos(monkeypatch)
    spec = make_spec(4, 12, 4, 12)
    count = count_exact(spec)
    assert (count, memos[-1].held) == (20158151, 609)
    assert count_exact(spec, max_states=200) == count
    assert memos[-1].held == 200
    # no layer of (4,30,20,6) holds more than 956 states, so a cap of 2000
    # leaves its count as it is
    spec = make_spec(4, 30, 20, 6)
    count = count_exact(spec)
    assert leading_digits(count, 6) == (814039, 34)
    assert count_exact(spec, max_states=2000) == count


@pytest.mark.traced
def test_work_cap_is_prompt_on_wide_margins():
    # the one state of the first layer has 109 million moves, 938 bytes
    # each; they are streamed, not stored, so the cap stops the pass at once
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as err:
            count_exact(make_spec(4, 2500, 4, 2500), max_work=10_000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.kind, err.value.limit, err.value.used) == ("work", 10_000, 10_001)
    assert peak < 32 << 20


def test_work_cap_draws_no_moves_ahead(monkeypatch):
    # the first state of (6,300,60,30) streams its 2412 moves, one step of
    # work each; a later state's allocations are counted from its option
    # lists before any child is formed, so the state that passes the budget
    # forms none and the children formed stand for at most the budget
    calls = []
    children = exact._Moves.children

    def counted(self, vs, mus, room):
        got, allocations = children(self, vs, mus, room)
        calls.append((room, allocations, len(got)))
        return got, allocations

    monkeypatch.setattr(exact._Moves, "children", counted)
    with pytest.raises(ResourceLimitError) as err:
        count_exact(make_spec(6, 300, 60, 30), max_work=10_000)
    assert (err.value.kind, err.value.used) == ("work", 10_001)
    formed = [allocations for room, allocations, got in calls if got]
    assert formed and sum(formed) <= 10_000
    assert all(got == 0 for room, allocations, got in calls if allocations > room)
    room, allocations, got = calls[-1]
    assert allocations > room


def _labeled_moves(deficits, t, cap_next, b):
    # every labeled amount tuple, grouped by its child and by the amounts
    # each deficit class takes; a group is one allocation, its size the
    # allocation's labelings
    groups = Counter()
    ranges = [range(max(0, v - cap_next), min(v, t) + 1) for v in deficits]
    for xs in itertools.product(*ranges):
        if sum(xs) == t:
            child = sum(1 << b * (v - x) for v, x in zip(deficits, xs) if v > x)
            groups[child, tuple(sorted(zip(deficits, xs)))] += 1
    return groups


def _deficits(code, b, s):
    return [v for v in range(1, s + 1) for _ in range((code >> b * v) & ((1 << b) - 1))]


def test_allocations_match_a_labeled_enumeration():
    # every state of the first two layers of small shapes, both parities of
    # n; one memo per shape so later states reuse stored option lists, and
    # one whose option budget is spent, which stores none.  The oracle keeps
    # each row's lower bound max(0, v - cap_next), which the pass never
    # applies: for 3 <= m <= n it is zero (two rows never reach this pass).
    # A state of one class streams its moves, each its own child; a state of
    # several sums each child's labelings over its allocations, and counts them
    shapes = [(m, s, n, m * s // n) for m in range(3, 6) for s in range(1, 9)
              for n in range(m, 9) if m * s % n == 0 and (m * s // n + 1) ** m <= 4096]
    assert {n % 2 for _, _, n, _ in shapes} == {0, 1}
    stored = summed = several = 0
    for m, s, n, t in shapes:
        b = m.bit_length()
        memos = [exact._Moves(Budget(make_spec(m, s, n, t), states=10 ** 6), t, b) for _ in range(2)]
        memos[1].held = memos[1].max_states
        start = [s] * m
        children = {child for child, _ in _labeled_moves(start, t, (n - 1) * t, b)}
        layers = [(n, [start]), (n - 1, sorted(_deficits(c, b, s) for c in children))]
        for cols, states in layers:
            cap_next = (cols - 1) * t
            for deficits in states:
                groups = _labeled_moves(deficits, t, cap_next, b)
                want = Counter()
                for (child, _), size in groups.items():
                    want[child] += size
                classes = sorted(Counter(deficits).items())
                if len(classes) == 1:
                    (v, mu), = classes
                    hi = min(v, t)
                    moves = list(exact._class_options(mu, hi, hi == v, t, b, b * (v - hi)))
                    assert len(moves) == len(groups) and Counter(dict(moves)) == want
                    continue
                vs, mus = [v for v, _ in classes], [mu for _, mu in classes]
                for memo in memos:
                    got = memo.children(vs, mus, len(groups))
                    assert got == (want, len(groups)), ((m, s, n, t), deficits, memo.held)
                    over, allocations = memo.children(vs, mus, len(groups) - 1)
                    assert over == {} and allocations > len(groups) - 1
                several += 1
                summed += len(groups) > len(want)
        assert not any(memos[1].options.values())
        stored += memos[0].held
    assert stored > 0 and several > 100 and summed > 90


def test_children_stop_in_the_fold_once_past_the_room():
    # a state that count_exact((5,20,10,10), max_work=100) reaches: its first
    # class alone has 41 allocations, so with room 40 the fold stops before
    # the last two classes are paired, and the floor it returns is below the
    # state's 256 allocations
    memo = exact._Moves(Budget(make_spec(5, 20, 10, 10), states=10 ** 6), 10, 3)
    assert memo.children([17, 19, 20], [3, 1, 1], 40) == ({}, 41)
    got, allocations = memo.children([17, 19, 20], [3, 1, 1], 256)
    assert (len(got), allocations) == (98, 256)


@pytest.mark.traced
def test_state_cap_bounds_a_state_s_summed_children():
    # five classes of two rows at t = 20 have 403470 allocations and 99488
    # children; a cap of one less raises at the children's dict, and a cap
    # of 50 at the first partial dict of one total past it: the traced peak
    # stays near 72 KB, where building the rest of the partials would take
    # over 600 KB.  Both cap errors name the spec, as count_exact's own do
    vs, mus, spec = [3, 7, 12, 18, 20], [2] * 5, make_spec(10, 20, 10, 20)
    got, allocations = exact._Moves(Budget(spec, states=99488), 20, 4).children(vs, mus, 10 ** 9)
    assert (len(got), allocations) == (99488, 403470)
    with pytest.raises(ResourceLimitError) as err:
        exact._Moves(Budget(spec, states=99487), 20, 4).children(vs, mus, 10 ** 9)
    assert (err.value.kind, err.value.limit, err.value.used) == ("states", 99487, 99488)
    assert str(err.value).startswith(f"state cap exhausted counting {spec}: ")
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as err:
            exact._Moves(Budget(spec, states=50), 20, 4).children(vs, mus, 10 ** 9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.kind, err.value.limit, err.value.used) == ("states", 50, 51)
    assert str(err.value).startswith(f"state cap exhausted counting {spec}: ")
    assert peak < 1 << 18


def test_no_deficit_needs_a_lower_bound():
    # the pass runs for 4 <= m <= n and stops with h = n // 2 columns left,
    # so a deficit (at most s) never exceeds the (c - 1) * t that the
    # columns after the next can absorb, c > h.  With two rows it can, and
    # (2,5,5,2) takes the closed form instead
    shapes = [(m, n, t) for n in range(4, 301) for m in range(4, n + 1)
              for t in range(1, 61) if n * t % m == 0]
    assert len(shapes) > 10 ** 5
    assert [(m, n, t) for m, n, t in shapes if n * t // m > n // 2 * t] == []
    m, s, n, t = 2, 5, 5, 2
    assert s > n // 2 * t
    assert count_exact(make_spec(m, s, n, t)) == count_bruteforce(make_spec(m, s, n, t))


def _three_rows(s, n, t):
    # rows 1 and 2 take (x, y) with x + y <= t in each column and row 3 the
    # rest; count the pairs of rows that both sum to s
    ways = {(0, 0): 1}
    for _ in range(n):
        nxt = {}
        for (a, b), w in ways.items():
            for x in range(min(t, s - a) + 1):
                for y in range(min(t - x, s - b) + 1):
                    nxt[a + x, b + y] = nxt.get((a + x, b + y), 0) + w
        ways = nxt
    return ways.get((s, s), 0)


def _four_rows(s, n, t):
    # the same with rows 1 to 3 taking (x, y, z), x + y + z <= t, and row 4
    # the rest
    ways = {(0, 0, 0): 1}
    for _ in range(n):
        nxt = {}
        for (a, b, c), w in ways.items():
            for x in range(min(t, s - a) + 1):
                for y in range(min(t - x, s - b) + 1):
                    for z in range(min(t - x - y, s - c) + 1):
                        key = a + x, b + y, c + z
                        nxt[key] = nxt.get(key, 0) + w
        ways = nxt
    return ways.get((s, s, s), 0)


def test_three_rows_with_row_sums_far_above_column_sums():
    # with s >> t most states have every deficit above t, so every row may
    # take any amount; three rows take the closed form, so four rows are
    # checked here.  The oracles fill all rows but the last
    # column by column, and are themselves checked against the brute force
    for s in range(0, 7):
        for n in (3, 4):
            if 3 * s % n == 0:
                spec = make_spec(3, s, n, 3 * s // n)
                assert _three_rows(s, n, spec.t) == count_bruteforce(spec), spec
        if 4 * s % 3 == 0:
            spec = make_spec(4, s, 3, 4 * s // 3)
            assert _four_rows(s, 3, spec.t) == count_bruteforce(spec), spec
    for n, top in ((8, 4), (12, 3), (16, 2), (20, 2)):
        for t in range(1, top + 1):
            if n * t % 4 == 0:
                s = n * t // 4
                assert count_exact(make_spec(4, s, n, t)) == _four_rows(s, n, t), (s, n, t)


def _magic(r):
    # MacMahon: 3 x 3 tables with every line summing to r
    return (r + 1) * (r + 2) * (r * r + 3 * r + 4) // 8


def test_three_row_closed_form_against_oracles():
    # three rows take the binomial double sum, not the pass: check it in
    # both orientations against the column-by-column oracle, the brute
    # force, MacMahon's polynomial and the paper's three-row rows
    for n in (9, 12, 15, 18, 21):
        for t in range(1, 7):
            s = n * t // 3
            want = _three_rows(s, n, t)
            assert count_exact(make_spec(3, s, n, t)) == want, (s, n, t)
            assert count_exact(make_spec(n, t, 3, s)) == want, (s, n, t)
    desk = [(m, s, n, m * s // n) for m in range(1, 5) for n in range(1, 5)
            if 3 in (m, n) and m * n <= BRUTEFORCE_MAX_CELLS for s in range(0, 13)
            if m * s % n == 0 and math.comb(s + n - 1, n - 1) ** m <= 10 ** 5]
    assert len(desk) == 43
    for quad in desk:
        spec = make_spec(*quad)
        assert count_exact(spec) == count_bruteforce(spec), spec
    for r in [*range(0, 61), 100, 5000]:
        assert count_exact(make_spec(3, r, 3, r)) == _magic(r), r
    assert _magic(100) == 13268976
    assert leading_digits(count_exact(make_spec(3, 98, 49, 6)), 6) == (101100, 68)
    assert leading_digits(count_exact(make_spec(3, 99, 9, 33)), 6) == (279207, 21)


@pytest.mark.traced
def test_three_row_caps_are_charged_up_front():
    # the closed form charges every coefficient and term before it builds
    # any: (3,1500,450,10) needs 1463517 units of work and (3,10**7,3,10**7)
    # three gigabytes of coefficients, so both stop at once.  Two rows charge
    # too: (10000,2,2,10000) sums 3334 terms of 10000 units each, of ints
    # below 2**30000 (16 states), and counting it takes seconds, so either
    # cap at zero must stop it before the first term.  The work of
    # (3,10**6,3*10**6,1) takes O(n) steps to add up, so its held ints are
    # checked first and stop it at once
    two = make_spec(10000, 2, 2, 10000)
    tracemalloc.start()
    started = time.perf_counter()
    try:
        with pytest.raises(ResourceLimitError) as work:
            count_exact(make_spec(3, 1500, 450, 10), max_work=10 ** 5)
        with pytest.raises(ResourceLimitError) as states:
            count_exact(make_spec(3, 10 ** 7, 3, 10 ** 7))
        with pytest.raises(ResourceLimitError) as wide:
            count_exact(make_spec(3, 10 ** 6, 3 * 10 ** 6, 1), max_states=10 ** 9)
        with pytest.raises(ResourceLimitError) as two_work:
            count_exact(two, max_work=0)
        with pytest.raises(ResourceLimitError) as two_states:
            count_exact(two, max_states=0)
        elapsed = time.perf_counter() - started
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (work.value.kind, work.value.limit, work.value.used) == ("work", 10 ** 5, 1463517)
    assert (states.value.kind, states.value.limit) == ("states", exact.DEFAULT_MAX_STATES)
    assert states.value.used > exact.DEFAULT_MAX_STATES
    assert (wide.value.kind, wide.value.limit) == ("states", 10 ** 9)
    assert (two_work.value.kind, two_work.value.limit, two_work.value.used) == \
        ("work", 0, 33340000)
    assert (two_states.value.kind, two_states.value.limit, two_states.value.used) == \
        ("states", 0, 16)
    assert str(two_work.value).startswith(f"work budget exhausted counting {two}: ")
    assert str(two_states.value).startswith(f"state cap exhausted counting {two}: ")
    assert elapsed < 1
    assert peak < 1 << 20


def test_tall_specs_against_oriented_oracles():
    # count_exact turns an m > n spec around itself, so comparing a spec with
    # its transpose cannot catch a swapped margin; these oracles count one
    # fixed orientation: n rows of sum t over 3 columns of sum s, and the
    # brute force enumerates the 5 rows of (5,4,2,10) one by one; that count
    # is also the coefficient of x^10 in (1 + x + ... + x^4)^5
    for n in (4, 5, 6, 9):
        for t in range(1, 7):
            if n * t % 3 == 0:
                s = n * t // 3
                assert count_exact(make_spec(n, t, 3, s)) == _three_rows(s, n, t), (n, t)
    spec = make_spec(5, 4, 2, 10)
    assert count_exact(spec) == count_bruteforce(spec) == 381


def test_caps_do_not_bite_small_problems():
    assert count_exact(make_spec(3, 3, 3, 3), max_states=10_000,
                       max_work=1_000_000) == 55


def test_bruteforce_guard_rails():
    with pytest.raises(InvalidSpecError):
        count_bruteforce(make_spec(4, 30, 4, 30))  # row sum too large
    with pytest.raises(InvalidSpecError):
        count_bruteforce(make_spec(5, 3, 5, 3))    # too many cells
    with pytest.raises(InvalidSpecError):
        count_bruteforce(make_spec(2, 18, 6, 6))   # 1.1e9 row tuples
