"""Exact counting of nonnegative integer matrices with constant margins.

count_exact fills the matrix column by column in one forward pass.  All
rows have the same target sum, so rows are interchangeable up to their
remaining deficit, and the DP state is the multiset of positive deficits,
stored as sorted (deficit, multiplicity) pairs; a row whose deficit reaches
zero is finished and drops out.  The pass keeps one dict per column layer
mapping each reachable state to the number of ways to reach it, starting
from every row at deficit s.  Mass conservation fixes the number of columns
left: the deficits of a state in the layer with c columns left sum to c * t,
which also gives a cheap internal consistency assertion.

Spending one column distributes t units over the rows, each row receiving
0 <= x <= deficit.  Allocations are enumerated aggregated by deficit value:
for each class of mu rows sharing deficit v we choose a multiset of mu
amounts and weight it by the number of ways to hand those amounts to
labeled rows (a product of binomials).  The enumeration runs on an explicit
stack, so its depth does not grow with the shape, and it visits only
partial choices that can still be completed: a row whose new deficit could
never be filled by the remaining columns is pruned (new deficit must be
<= (columns remaining - 1) * t).

The pass stops with h = n // 2 columns left and joins.  The layer with c
columns left maps a state D to W_c(D), orbit(D) times the fillings of the
n - c columns spent, where orbit(D) = m! / (z! * prod mu!) counts the labeled
deficit vectors with multiset D (z rows finished).  The h columns still to
fill with row sums D are, read the other way, h spent columns with deficits
s - D, which the layer with n - h columns left holds: the last layer when n
is even, the one before it when n is odd, so no extra layer is kept.  Hence

    M = sum over D with h columns left of W_h(D) * W_(n-h)(s - D) / orbit(D),

where s - D maps each deficit v to s - v (finished rows become s, rows at s
drop out).  Every state is completable, so a complement missing from its
layer is an internal error, and the division is exact.  For n <= 5 the pass
runs to two columns left instead, which are finished in closed form.

Counts are exact Python ints throughout.  Two budgets bound the forward
pass (the join enumerates nothing and adds no work): a state cap on the
states held in the layer being built, checked as each new state is
inserted, and a work budget on enumerated allocations.
Exceeding either raises ResourceLimitError; a wrong answer is never returned.
The state cap is the memory guard: each state it counts costs up to about
a kilobyte, the layer being expanded included, so the default 2**20 keeps a
pass near a gigabyte, while the default work budget alone would admit far
more states than that.

count_bruteforce enumerates matrices row by row and exists purely as an
independent oracle for small instances.
"""

from __future__ import annotations

from math import comb

from .core import InvalidSpecError, ResourceLimitError, TableSpec

DEFAULT_MAX_STATES = 2 ** 20
DEFAULT_MAX_WORK = 10 ** 9

BRUTEFORCE_MAX_CELLS = 12
BRUTEFORCE_MAX_ROWSUM = 20
# C(s+n-1, n-1)^m, the row tuples the enumeration may visit: (4,6,3,8), the
# largest shape the tests check, visits 614656; (2,12,6,4), at 3.8e7, ran
# 28 s on a 2-vCPU x86_64 VM
BRUTEFORCE_MAX_ROW_TUPLES = 10 ** 6


def count_exact(spec: TableSpec, *, max_states: int | None = None,
                max_work: int | None = None) -> int:
    """Exact number of matrices with the given margins.

    max_states caps the states held in one column layer (default 2**20);
    max_work caps the total number of enumerated column allocations
    (default 10**9).  Pass None for a default.
    """
    max_states = DEFAULT_MAX_STATES if max_states is None else max_states
    max_work = DEFAULT_MAX_WORK if max_work is None else max_work
    if spec.s == 0:
        return 1
    sp = spec if spec.m <= spec.n else spec.transpose()
    m, s, n, t = sp.m, sp.s, sp.n, sp.t
    if m == 1:
        return 1

    # stop with h columns left; mirror becomes the layer with n - h left
    h = max(2, n // 2)
    layer = {((s, m),): 1}
    mirror = layer
    work = 0
    for cols in range(n, h, -1):
        nxt: dict[tuple[tuple[int, int], ...], int] = {}
        for state, ways in layer.items():
            assert sum(v * mu for v, mu in state) == cols * t, \
                "mass conservation violated"
            for child, labelings in _allocations(state, t, (cols - 1) * t):
                work += 1
                if work > max_work:
                    raise ResourceLimitError(
                        f"work budget exhausted counting {spec}: "
                        f"{work} allocation steps > {max_work} "
                        f"({len(nxt)} states in the layer being built)",
                        kind="work", limit=max_work, used=work)
                if child in nxt:
                    nxt[child] += ways * labelings
                elif len(nxt) < max_states:
                    nxt[child] = ways * labelings
                else:
                    raise ResourceLimitError(
                        f"state cap exhausted counting {spec}: "
                        f"{len(nxt) + 1} states in one layer > {max_states}",
                        kind="states", limit=max_states, used=len(nxt) + 1)
        if cols - 1 == n - h:
            mirror = nxt
        layer = nxt

    total = 0
    for state, ways in layer.items():
        assert sum(v * mu for v, mu in state) == h * t, "mass conservation violated"
        if h == 2:
            total += ways * _two_column_count(state, t)
            continue
        # ways = orbit * fillings of the n - h spent columns; the mirror
        # state counts the fillings of the h columns left, times the orbit
        rest = _complement(state, s, m)
        assert rest in mirror, f"complement {rest} of {state} missing from its layer"
        fillings, r = divmod(ways, _orbit(state, m))
        assert r == 0, "layer count not divisible by its orbit"
        total += fillings * mirror[rest]
    return total


def _complement(state, s: int, m: int) -> tuple[tuple[int, int], ...]:
    """The state s - D: each deficit v becomes s - v, finished rows become s."""
    done = m - sum(mu for _, mu in state)
    rest = tuple((s - v, mu) for v, mu in reversed(state) if v < s)
    return rest + ((s, done),) if done else rest


def _orbit(state, m: int) -> int:
    """Labeled deficit vectors with this multiset: m! / (z! * prod mu!)."""
    orbit, left = 1, m
    for _, mu in state:
        orbit *= comb(left, mu)
        left -= mu
    return orbit


def _allocations(classes, t: int, cap_next: int):
    """Yield (child state, labelings) for every way to spend one column.

    classes holds the state's (deficit, multiplicity) pairs; each row takes
    an amount in [max(0, v - cap_next), min(v, t)] and the amounts sum to t.
    A stack entry (ci, a, rows, rem, ways, parts) still has to hand amounts
    <= a to `rows` rows of class ci, then fill the later classes, with rem
    units left; parts holds the (new deficit, count) pairs chosen so far.
    Only entries that can still be completed are pushed.
    """
    last = len(classes) - 1
    lo = [max(0, v - cap_next) for v, _ in classes]
    # fewest and most units the classes after ci can absorb
    min_after = [0] * (last + 2)
    max_after = [0] * (last + 2)
    for ci in range(last, 0, -1):
        v, mu = classes[ci]
        min_after[ci] = min_after[ci + 1] + mu * lo[ci]
        max_after[ci] = max_after[ci + 1] + mu * min(v, t)
    stack = [(0, t, classes[0][1], t, 1, ())]
    while stack:
        ci, a, rows, rem, ways, parts = stack.pop()
        if rows == 0:
            ci += 1
            rows, a = classes[ci][1], rem
        v = classes[ci][0]
        # plain comparisons, not min()/max(): this loop runs once per
        # allocation, and the calls cost about a third of its time
        if a > v:
            a = v
        if a > rem:
            a = rem
        low = lo[ci]
        lo_after, hi_after = min_after[ci + 1], max_after[ci + 1]
        # every remaining row of the class takes the lower bound
        left = rem - rows * low
        if lo_after <= left <= hi_after:
            child = parts + ((v - low, rows),) if v > low else parts
            if ci == last:
                yield _merge(child), ways
            else:
                stack.append((ci, low, 0, left, ways, child))
        # k >= 1 rows take amount b, the rest of the class takes less
        for b in range(a, low, -1):
            kmin = rem - hi_after - rows * (b - 1)
            if kmin > rows:
                break
            kmax = (left - lo_after) // (b - low)
            if kmin < 1:
                kmin = 1
            if kmax > rows:
                kmax = rows
            d = v - b
            for k in range(kmin, kmax + 1):
                child = parts + ((d, k),) if d else parts
                if k == rows and ci == last:
                    yield _merge(child), ways * comb(rows, k)
                else:
                    stack.append((ci, b - 1, rows - k, rem - k * b,
                                  ways * comb(rows, k), child))


def _merge(parts) -> tuple[tuple[int, int], ...]:
    """Canonical state: (deficit, count) pairs sorted, equal deficits merged."""
    if len(parts) < 2:
        return parts
    parts = sorted(parts)
    out = parts[:1]
    for d, c in parts[1:]:
        if d == out[-1][0]:
            out[-1] = (d, out[-1][1] + c)
        else:
            out.append((d, c))
    return tuple(out)


def count_bruteforce(spec: TableSpec) -> int:
    """Independent oracle: enumerate matrices row by row.

    Only for desk-sized instances: m*n <= 12, s <= 20 and at most 10**6
    candidate row tuples C(s+n-1, n-1)^m, otherwise the enumeration is
    rejected outright.
    """
    if spec.m * spec.n > BRUTEFORCE_MAX_CELLS:
        raise InvalidSpecError(
            f"brute force restricted to m*n <= {BRUTEFORCE_MAX_CELLS}, "
            f"got {spec.m}*{spec.n} = {spec.m * spec.n}")
    if spec.s > BRUTEFORCE_MAX_ROWSUM:
        raise InvalidSpecError(
            f"brute force restricted to s <= {BRUTEFORCE_MAX_ROWSUM}, got {spec.s}")
    m, s, n, t = spec.m, spec.s, spec.n, spec.t
    row_tuples = comb(s + n - 1, n - 1) ** m
    if row_tuples > BRUTEFORCE_MAX_ROW_TUPLES:
        raise InvalidSpecError(
            f"brute force restricted to C(s+n-1, n-1)^m <= {BRUTEFORCE_MAX_ROW_TUPLES} "
            f"row tuples, got {row_tuples}")
    rows = list(_compositions(s, n))

    def place(i: int, colsums: tuple[int, ...]) -> int:
        if i == m:
            return 1 if all(c == t for c in colsums) else 0
        remaining = m - i - 1
        acc = 0
        for row in rows:
            nxt = tuple(c + r for c, r in zip(colsums, row))
            # a column already over target, or too far behind to catch up
            if any(c > t or t - c > remaining * s for c in nxt):
                continue
            acc += place(i + 1, nxt)
        return acc

    return place(0, (0,) * n)


def _two_column_count(classes, t: int) -> int:
    """Labeled solutions of sum(x_i) = t with max(0, v_i - t) <= x_i <= min(v_i, t).

    classes holds (deficit value, multiplicity) pairs.  Standard inclusion
    exclusion over per-class bound violations after shifting each x to its
    lower bound; terms are keyed by the units they leave, so equal
    remainders are summed once.
    """
    rows = 0
    shifted = t
    caps = []
    for v, mu in classes:
        lo, hi = max(0, v - t), min(v, t)
        if hi < lo:
            return 0
        rows += mu
        shifted -= mu * lo
        caps.append((hi - lo + 1, mu))
    if shifted < 0:
        return 0
    terms = {shifted: 1}       # units left -> signed count of violation sets
    for step, mu in caps:
        nxt: dict[int, int] = {}
        for rem, weight in terms.items():
            for j in range(min(mu, rem // step) + 1):
                key = rem - j * step
                nxt[key] = nxt.get(key, 0) + (-1) ** j * comb(mu, j) * weight
        terms = nxt
    return sum(w * comb(rem + rows - 1, rows - 1) for rem, w in terms.items())


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
