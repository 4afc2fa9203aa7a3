"""Exact counting of nonnegative integer matrices with constant margins.

count_exact fills the matrix column by column in one forward pass.  All
rows have the same target sum, so rows are interchangeable up to their
remaining deficit, and the DP state is the multiset of positive deficits;
a row whose deficit reaches zero is finished and drops out.  The pass keeps
one dict per column layer mapping each reachable state to the number of
ways to reach it, starting from every row at deficit s.  The deficits of a
state in the layer with c columns left sum to c * t (mass conservation, a
cheap internal assertion).

A state is one packed integer, its code: digit v, b = m.bit_length() bits
wide, holds the number of rows at deficit v, so the at most m live rows
never carry into the next digit; finished rows add nothing, and a code has
at most b * (s + 1) bits.  CPython hashes an int as its value modulo
2**61 - 1, and 2**(61 * b) is 1 modulo that, so deficits 61 apart hash
alike and wide margins fill a dict with collisions.  The layer dicts are
therefore keyed by the code's little-endian bytes, which hash as a byte
string.  A key is decoded into (deficit, multiplicity) lists once per
expanded state, one step per class by jumping to the highest set bit.

Spending one column distributes t units over the rows, a row at deficit v
taking 0 <= x <= hi = min(v, t).  No row needs a lower bound to stay
completable: the pass stops with h = n // 2 columns left (below), and for
4 <= m <= n, the only tables it counts, every deficit is at most
s = n * t / m <= h * t, which the columns after the next can always absorb.
Allocations are enumerated class by class.  A class of mu rows sharing
deficit v takes a multiset of mu amounts with some total A, weighted by its
labelings mu! / prod k_x! (k_x rows take x).  Its part of the child code
and its labelings depend only on (mu, hi, hi == v, A), so each such option
list is built once per pass, by a stack walk over the rows that pushes only
choices that can still be completed, and then looked up.  A list holds
codes relative to digit v - hi, shifted up by b * (v - hi) where used; a
row taking hi = v finishes and adds nothing.  For each class but the last
the walk takes every total that the classes after it can complete and every
option at that total; the last class takes the units left in one lookup.  k
rows landing at deficit d add k << (b * d): no sort, no merge.  A state of
one class streams its only list unstored, since no benchmark table met such
a list twice in a pass.  When s is much larger than t, most states have
every deficit above t; their classes all have hi = t and hi < v, so they
share the option lists of one key per class size.  The stored options
are bounded by max_states entries in all and never evicted; a list met
past that bound is built and used but not stored.

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
layer is an internal error, and the division is exact.

Two rows (m <= n after the transpose) take a closed form instead: the
first row, n entries in [0, t] summing to s, fixes the second, and
inclusion exclusion over its entries above t counts it; no key is built.

Three rows take a closed double sum instead of the pass.  Write each column
as (a, b, t - a - b); the third row then sums to n * t - 2 s = s by itself,
so M = [x^s y^s] F^n with F = sum over a + b <= t of x^a y^b.  Summing
(x^(d+1) - y^(d+1)) / (x - y) over d <= t gives F = (g(x) - g(y)) / (x - y),
g(z) = z + ... + z^(t+1).  Expanding (g(x) - g(y))^n by the binomial theorem
and (x - y)^-n as the sum over j of C(n-1+j, j) y^j x^(-n-j),

    M = sum_k (-1)^(n-k) C(n, k) sum_j C(n-1+j, j) c_k(s+n+j) c_(n-k)(s-j),

for 0 <= k <= n and 0 <= j <= s, where c_k(N) = [z^N] g^k counts the
compositions of N into k parts in 1..t+1, coefficient N - k of Q^k with
Q = 1 + z + ... + z^t.  Two rolling rows hold the powers: from Q^(n//2)
outwards, Q^k falls by exact division by Q (times 1 - z, then over
1 - z^(t+1)) and Q^(n-k) rises by windowed prefix sums, so each pair gives
the terms of k and n - k.  (3,100,3,100) is MacMahon's magic-square count
H_3(r) = (r+1)(r+2)(r^2+3r+4)/8 at r = 100, an independent check.  Both
budgets are charged before anything is built: the coefficients held, the
two rows, the one being built and the s + 1 binomials, each a list slot and
an int below max(t+1, n+s)^n, against max_states * STATE_BYTES, and the
coefficients built plus the terms summed against max_work; either over
raises ResourceLimitError of that kind at once.

Counts are exact Python ints throughout.  Two budgets bound the forward
pass of four rows or more (the join adds no work): a cap on the states held
in the layer being built, checked at each insert, and a budget on
enumerated allocations.
Exceeding either raises ResourceLimitError, never a wrong answer.  The
state cap is the memory guard: it budgets STATE_BYTES, about a kilobyte,
per state, the layer being expanded included, so the default 2**20 keeps a
pass near a gigabyte.  A held state costs its key, ceil(b * (s + 1) / 8)
bytes plus 33 of header (11 + 33 on (10,20,10,20)), a dict slot and its
count; a stored option costs a code and its labelings.  Width
rule: a shape whose keys would outgrow the kilobyte, b * (s + 1) > 8192
bits, fits no state in its budget, so the pass raises ResourceLimitError
(kind "states") before it builds any key.

count_bruteforce enumerates matrices row by row and exists purely as an
independent oracle for small instances.
"""

from __future__ import annotations

from itertools import accumulate, chain, islice, repeat
from math import comb, factorial, prod
from operator import mul, sub

from .core import InvalidSpecError, ResourceLimitError, TableSpec

DEFAULT_MAX_STATES = 2 ** 20
DEFAULT_MAX_WORK = 10 ** 9
# bytes budgeted per held state; no key may be wider
STATE_BYTES = 1024

BRUTEFORCE_MAX_CELLS = 12
BRUTEFORCE_MAX_ROWSUM = 20
# C(s+n-1, n-1)^m, the row tuples the enumeration may visit: (4,6,3,8), the
# largest shape the tests check, visits 614656; (2,12,6,4), at 3.8e7, ran
# 28 s on a 2-vCPU x86_64 VM
BRUTEFORCE_MAX_ROW_TUPLES = 10 ** 6


def count_exact(spec: TableSpec, *, max_states: int = DEFAULT_MAX_STATES,
                max_work: int = DEFAULT_MAX_WORK) -> int:
    """Exact number of matrices with the given margins.

    max_states caps the states held in one column layer (default 2**20);
    max_work caps the total number of enumerated column allocations
    (default 10**9).  A negative cap is an InvalidSpecError.
    """
    if max_states < 0 or max_work < 0:
        raise InvalidSpecError(
            f"caps must be nonnegative, got max_states={max_states}, max_work={max_work}")
    if spec.s == 0:
        return 1
    sp = spec if spec.m <= spec.n else spec.transpose()
    m, s, n, t = sp.m, sp.s, sp.n, sp.t
    if m == 1:
        return 1
    if m == 2:
        return _two_rows(s, n, t)
    if m == 3:
        return _three_rows(spec, s, n, t, max_states, max_work)
    # stop with h columns left; mirror becomes the layer with n - h left
    h = n // 2
    # no row needs a lower bound (module notes); m = 2 breaks this: (2,5,5,2)
    assert s <= h * t, "a deficit may need a lower bound"
    b = m.bit_length()
    width = (b * (s + 1) + 7) // 8
    if width > STATE_BYTES:
        raise ResourceLimitError(
            f"state cap exhausted counting {spec}: a state key of {width} bytes "
            f"exceeds the {STATE_BYTES} budgeted per state",
            kind="states", limit=0, used=1)

    layer = {(m << b * s).to_bytes(width, "little"): 1}
    work = 0
    memo = _Moves(t, b, max_states)
    for cols in range(n, h, -1):
        nxt: dict[bytes, int] = {}
        for key, ways in layer.items():
            vs, mus = _decode(int.from_bytes(key, "little"), b)
            assert sum(map(int.__mul__, vs, mus)) == cols * t, \
                "mass conservation violated"
            for child, labelings in memo.allocations(vs, mus):
                work += 1
                if work > max_work:
                    raise ResourceLimitError(
                        f"work budget exhausted counting {spec}: "
                        f"{work} allocation steps > {max_work} "
                        f"({len(nxt)} states in the layer being built)",
                        kind="work", limit=max_work, used=work)
                # one lookup and one store: hashing the key is much of a step
                child = child.to_bytes(width, "little")
                known = nxt.get(child)
                if known is not None:
                    nxt[child] = known + ways * labelings
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
    for key, ways in layer.items():
        vs, mus = _decode(int.from_bytes(key, "little"), b)
        assert sum(map(int.__mul__, vs, mus)) == h * t, \
            "mass conservation violated"
        # ways = orbit * fillings of the n - h spent columns; the mirror
        # state counts the fillings of the h columns left, times the orbit
        rest = _complement(vs, mus, s, m, b).to_bytes(width, "little")
        assert rest in mirror, \
            f"complement of {list(zip(vs, mus))} missing from its layer"
        fillings, r = divmod(ways, _orbit(mus, m))
        assert r == 0, "layer count not divisible by its orbit"
        total += fillings * mirror[rest]
    return total


def _three_rows(spec: TableSpec, s: int, n: int, t: int, max_states: int,
                max_work: int) -> int:
    """Three rows of sum s over n columns of sum t, by the binomial double sum.

    Term (k, j) is C(n - 1 + j, j) q_k[s + n - k + j] q_(n-k)[s - n + k - j],
    signed (-1)**(n - k) and weighted C(n, k), where q_k lists the
    coefficients of Q**k, Q = 1 + z + ... + z**t (module notes).
    """
    def window(k: int) -> tuple[int, int]:
        # the j whose both indices fall inside q_k and q_(n-k)
        top = s - n + k
        return max(0, top - (n - k) * t), min(top, k * t - s - n + k)

    h = n // 2
    # two rolling rows and the row being built, at most 2 (n t + 1)
    # coefficients, and the binomials; each is a list slot and an int of 28
    # bytes plus 4 per 30 bits, and every one is below max(t + 1, n + s) ** n
    bits = n * max(t + 1, n + s).bit_length()
    held = (2 * (n * t + 1) + s + 1) * (36 + 4 * (bits // 30))
    states = -(-held // STATE_BYTES)
    if states > max_states:
        raise ResourceLimitError(
            f"state cap exhausted counting {spec}: {held} bytes of coefficients "
            f"> {max_states} states of {STATE_BYTES} bytes",
            kind="states", limit=max_states, used=states)
    work = (s + 1 + sum(i * t + 1 for i in range(1, n + 1))
            + sum(i * t + 1 for i in range(h))
            + sum(max(0, last - first + 1) for first, last in map(window, range(n + 1))))
    if work > max_work:
        raise ResourceLimitError(
            f"work budget exhausted counting {spec}: {work} coefficients and "
            f"terms > {max_work}",
            kind="work", limit=max_work, used=work)

    binoms = list(accumulate(range(1, s + 1), lambda c, j: c * (n - 1 + j) // j,
                             initial=1))

    def term(k: int, qk: list[int], rest: list[int]) -> int:
        first, last = window(k)
        if first > last:
            return 0
        off, top = s + n - k, s - n + k
        inner = sum(map(mul, binoms[first:last + 1],
                        map(mul, qk[off + first:off + last + 1],
                            reversed(rest[top - last:top - first + 1]))))
        return -comb(n, k) * inner if (n - k) % 2 else comb(n, k) * inner

    # out from the middle: down = Q**k falls by division, up = Q**(n-k) rises
    down = [1]
    for _ in range(h):
        down = _times_q(down, t)
    up = down if n == 2 * h else _times_q(down, t)
    total = 0
    for k in range(h, -1, -1):
        total += term(k, down, up)
        if n - k != k:
            total += term(n - k, up, down)
        if k:
            down = _over_q(down, t)
            up = _times_q(up, t)
    return total


def _times_q(a: list[int], t: int) -> list[int]:
    """Coefficients of a(z) (1 + z + ... + z**t): prefix sums over a window of t + 1."""
    out = list(accumulate(chain(a, repeat(0, t))))
    for i in range(len(out) - 1, t, -1):
        out[i] -= out[i - t - 1]
    return out


def _over_q(a: list[int], t: int) -> list[int]:
    """Coefficients of a(z) / (1 + z + ... + z**t), which divides it.

    Q = (1 - z**(t+1)) / (1 - z): times 1 - z, then over 1 - z**(t+1).
    """
    out = [a[0]]
    out += map(sub, islice(a, 1, len(a) - t), a)
    for i in range(t + 1, len(out)):
        out[i] += out[i - t - 1]
    return out


class _Moves:
    """The option lists of one count_exact pass, memoized under one budget.

    options maps a class key (mu, hi, hi == v) to a dict from the class
    total A to its option list: (code, labelings) pairs, the code relative
    to digit v - hi (see the module notes).  held counts the option entries
    stored, at most max_states; nothing is evicted before the pass ends.
    """

    def __init__(self, t: int, b: int, max_states: int):
        self.t, self.b, self.max_states = t, b, max_states
        self.options: dict[tuple, dict] = {}
        self.held = 0

    def allocations(self, vs: list[int], mus: list[int]):
        """(child code, labelings) for every way to spend one column.

        mus[i] rows have deficit vs[i], the deficits increasing; each row
        takes an amount in [0, min(v, t)] and the amounts sum to t.
        """
        b, t = self.b, self.t
        last = len(vs) - 1
        hi = [v if v < t else t for v in vs]
        if last == 0:
            # one class: its options are the moves, used once, so not stored
            v, high = vs[0], hi[0]
            options = _class_options(mus[0], high, high == v, t, b)
            shift = b * (v - high)
            return options if shift == 0 else (
                (code << shift, labelings) for code, labelings in options)
        return self._walk(vs, mus, hi, last)

    def _walk(self, vs: list[int], mus: list[int], hi: list[int], last: int):
        """Yield the moves of a state of several classes, class by class.

        A stack entry (ci, rem, code, ways, a) has placed the classes before
        ci with rem units left; with a >= 0 it still has to take each option
        of class ci at total a, already counted in rem.  Class ci takes the
        totals that the classes after it can complete, and the last class
        takes rem in one lookup.
        """
        b = self.b
        # most units the classes from ci on can absorb
        max_after = [0] * (last + 2)
        tables = [None] * (last + 1)
        for ci in range(last, -1, -1):
            max_after[ci] = max_after[ci + 1] + mus[ci] * hi[ci]
            tables[ci] = self.options.setdefault((mus[ci], hi[ci], hi[ci] == vs[ci]), {})
        v2, mu2, hi2, table2 = vs[last], mus[last], hi[last], tables[last]
        shift2 = b * (v2 - hi2)
        stack = [(0, self.t, 0, 1, -1)]
        while stack:
            ci, rem, code, ways, a = stack.pop()
            v, mu, high, table = vs[ci], mus[ci], hi[ci], tables[ci]
            shift = b * (v - high)
            if a >= 0:
                for option, labelings in table.get(a) or self._build(table, mu, high, v, a):
                    stack.append((ci + 1, rem, code + (option << shift), ways * labelings, -1))
                continue
            # plain comparisons, not min()/max(): this runs once per partial
            a_min = rem - max_after[ci + 1]
            if a_min < 0:
                a_min = 0
            a_max = mu * high
            if a_max > rem:
                a_max = rem
            if ci + 1 < last:
                # one list at a time on the stack: a class's lists over all
                # its totals can be far longer than one
                for a in range(a_max, a_min - 1, -1):
                    stack.append((ci, rem - a, code, ways, a))
                continue
            for a in range(a_max, a_min - 1, -1):
                r = rem - a
                options = table.get(a) or self._build(table, mu, high, v, a)
                options2 = table2.get(r) or self._build(table2, mu2, hi2, v2, r)
                for option, labelings in options:
                    head, w = code + (option << shift), ways * labelings
                    for option2, labelings2 in options2:
                        yield head + (option2 << shift2), w * labelings2

    def _build(self, table: dict, mu: int, hi: int, v: int, total: int) -> list:
        """The option list of a class at one total, stored if the budget has room."""
        options = list(_class_options(mu, hi, hi == v, total, self.b))
        if len(options) <= self.max_states - self.held:
            table[total] = options
            self.held += len(options)
        return options


def _class_options(mu: int, hi: int, fin: bool, total: int, b: int):
    """Yield (code, labelings) for each multiset of mu amounts in [0, hi] summing to total.

    A row taking x adds 1 << b * (hi - x) to the code, except that with fin
    (hi is the class's deficit) a row taking hi finishes and adds nothing;
    labelings = mu! / prod k_x!, the ways to hand the amounts to labeled
    rows.  A stack entry (a, rows, rem, ways, code) still has to hand
    amounts <= a to `rows` rows with rem units left; only entries that can
    still be completed are pushed.
    """
    stack = [(hi, mu, total, 1, 0)]
    while stack:
        a, rows, rem, ways, code = stack.pop()
        if a > rem:
            a = rem
        # every remaining row takes nothing; hi >= 1, so none finishes
        if rem == 0:
            yield code + (rows << b * hi), ways
            continue
        # k >= 1 rows take amount x, the rest take less
        for x in range(a, 0, -1):
            kmin = rem - rows * (x - 1)
            if kmin > rows:
                break
            kmax = rem // x
            if kmin < 1:
                kmin = 1
            if kmax > rows:
                kmax = rows
            shift = b * (hi - x)
            for k in range(kmin, kmax + 1):
                child = code + (k << shift) if x < hi or not fin else code
                if k == rows:
                    yield child, ways
                else:
                    stack.append((x - 1, rows - k, rem - k * x, ways * comb(rows, k), child))


def _decode(code: int, b: int) -> tuple[list[int], list[int]]:
    """The deficits of a code, increasing, and their multiplicities."""
    vs, mus = [], []
    while code:
        # the highest set bit lies in the digit of the largest deficit left
        v = (code.bit_length() - 1) // b
        mu = code >> b * v
        vs.append(v)
        mus.append(mu)
        code ^= mu << b * v
    return vs[::-1], mus[::-1]


def _complement(vs: list[int], mus: list[int], s: int, m: int, b: int) -> int:
    """Code of the state s - D: each deficit v becomes s - v, finished rows become s."""
    code = (m - sum(mus)) << b * s
    for v, mu in zip(vs, mus):
        if v < s:
            code += mu << b * (s - v)
    return code


def _orbit(mus: list[int], m: int) -> int:
    """Labeled deficit vectors with these multiplicities: m! / (z! * prod mu!)."""
    return factorial(m) // (factorial(m - sum(mus)) * prod(map(factorial, mus)))


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


def _two_rows(s: int, n: int, t: int) -> int:
    """Two rows: inclusion exclusion over the j entries of the first above t."""
    return sum((-1) ** j * comb(n, j) * comb(s - j * (t + 1) + n - 1, n - 1)
               for j in range(s // (t + 1) + 1))


def _compositions(total: int, parts: int):
    """All tuples of `parts` nonnegative ints summing to `total`."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest
