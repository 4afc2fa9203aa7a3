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
A class of mu rows sharing deficit v takes a multiset of mu amounts with
some total A, weighted by its labelings mu! / prod k_x! (k_x rows take x).
Its part of the child code and its labelings depend only on
(mu, hi, hi == v, A), so each such option list is built once per pass, by a
stack walk over the rows that pushes only choices that can still be
completed, and then looked up; its codes are relative to digit v - hi, a
row taking hi = v finishes and adds nothing, and k rows landing at deficit
d add k << (b * d).  Many allocations share a child (7 each in the capped
(10,20,10,20) stretch, 20 under a 3e6 budget), so a state's children are
summed class by class, and each child costs one key, one product with
the state's count and one insert: each class but the last two folds into
one {partial code: labelings} dict per total taken, the next to last takes
each total it can and the last the units left, in one lookup.  These
dicts keep int keys, whose collisions need rows 61 apart (at most 5 keys
to a hash on (5,200,10,100)).  A state of one class has no two moves with
one child and streams them unstored.  Stored options are bounded by
max_states entries in all and never evicted; past that, lists go unstored.

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
inclusion exclusion over its j <= s // (t + 1) entries above t counts it,
every term and partial sum below 2^n C(s+n-1, n-1) < min((2 (s+n))^n, 2^(s+2n)).

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
H_3(r) = (r+1)(r+2)(r^2+3r+4)/8 at r = 100, an independent check; its
coefficients and binomials are all below max(t+1, n+s)^n.

Counts are exact Python ints throughout.  One Budget (core) per call holds
both caps, and any cap hit raises ResourceLimitError, never a wrong answer.
The closed forms charge it before they build anything: the ints they hold
(three rows: two rolling rows, the one being built and s + 1 binomials; two
rows: a few), and their coefficients and terms as work, a two-row term at n
units, as its comb calls take up to n big-int steps each.  The pass of four
rows or more (the join adds no work) caps the states held in the layer being
built, checked at each insert and on each dict of one total that a state
sums, and charges column allocations from the option-list lengths before the
children they make are formed (per move for one class).  The state cap is
the memory guard: STATE_BYTES, about a kilobyte, per state, the layer being
expanded included, so the default 2**20 keeps a pass near a gigabyte.  A
held state costs its key, ceil(b * (s + 1) / 8) bytes plus 33 of header
(11 + 33 on (10,20,10,20)), a dict slot and its count; a stored option costs
a code and its labelings.  Width rule: a shape whose keys would outgrow the
kilobyte, b * (s + 1) > 8192 bits, fits no state in its budget, so the pass
raises ResourceLimitError (kind "states", limit 0) before it builds any key.

count_bruteforce enumerates matrices row by row and exists purely as an
independent oracle for small instances.
"""

from __future__ import annotations

from itertools import accumulate, chain, combinations, islice, repeat
from math import comb, factorial, prod
from operator import mul, sub

from .core import STATE_BYTES, Budget, InvalidSpecError, TableSpec

DEFAULT_MAX_STATES = 2 ** 20
DEFAULT_MAX_WORK = 10 ** 9

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
    max_work caps the column allocations, the ways to spend one column
    from one state (default 10**9).  A negative cap is an InvalidSpecError.
    """
    budget = Budget(spec, states=max_states, work=max_work)
    if spec.s == 0:
        return 1
    sp = spec if spec.m <= spec.n else spec.transpose()
    m, s, n, t = sp.m, sp.s, sp.n, sp.t
    if m == 1:
        return 1
    if m == 2:  # inclusion exclusion over the j entries of row 1 above t
        budget.charge(4, min(n * (2 * (s + n)).bit_length(), s + 2 * n),
                      [(s // (t + 1) + 1) * n])
        return sum((-1) ** j * comb(n, j) * comb(s - j * (t + 1) + n - 1, n - 1)
                   for j in range(s // (t + 1) + 1))
    if m == 3:
        return _three_rows(budget, s, n, t)
    # stop with h columns left; mirror becomes the layer with n - h left
    h = n // 2
    # no row needs a lower bound (module notes); m = 2 breaks this: (2,5,5,2)
    assert s <= h * t, "a deficit may need a lower bound"
    b = m.bit_length()
    width = (b * (s + 1) + 7) // 8
    if width > STATE_BYTES:  # no key may be wider than the bytes budgeted per state
        raise budget.error("states", 1, f"a state key of {width} bytes exceeds "
                           f"the {STATE_BYTES} budgeted per state", limit=0)

    layer = {(m << b * s).to_bytes(width, "little"): 1}
    work = 0
    memo = _Moves(budget, t, b)
    for cols in range(n, h, -1):
        nxt: dict[bytes, int] = {}
        for key, ways in layer.items():
            vs, mus = _decode(int.from_bytes(key, "little"), b)
            assert sum(map(int.__mul__, vs, mus)) == cols * t, \
                "mass conservation violated"
            if len(vs) == 1:  # each move its own child, one step of work
                v, hi = vs[0], min(vs[0], t)
                moves, step = _class_options(mus[0], hi, hi == v, t, b, b * (v - hi)), 1
            else:
                children, allocations = memo.children(vs, mus, max_work - work)
                moves, step, work = children.items(), 0, work + allocations
            for child, labelings in moves:
                work += step
                if work > max_work:
                    break
                # one lookup and one store: hashing the key is much of a step
                child = child.to_bytes(width, "little")
                known = nxt.get(child)
                if known is not None:
                    nxt[child] = known + ways * labelings
                elif len(nxt) < max_states:
                    nxt[child] = ways * labelings
                else:
                    raise budget.error("states", len(nxt) + 1,
                                       f"{len(nxt) + 1} states in one layer > {max_states}")
            if work > max_work:
                raise budget.error("work", max_work + 1, f"over {max_work} allocations "
                                   f"({len(nxt)} states in the layer being built)")
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


def _three_rows(budget: Budget, s: int, n: int, t: int) -> int:
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
    # coefficients, and the binomials, every one below max(t + 1, n + s) ** n
    budget.charge(2 * (n * t + 1) + s + 1, n * max(t + 1, n + s).bit_length(),
                  chain((s + 1,), (i * t + 1 for i in range(1, n + 1)),
                        (i * t + 1 for i in range(h)),
                        (max(0, last - first + 1) for first, last in map(window, range(n + 1)))))

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

    options maps a class key (mu, hi, hi == v) to {class total A: option
    list of (code relative to digit v - hi, labelings) pairs}; held counts
    the entries stored, at most the state cap, none evicted before the pass ends.
    """

    def __init__(self, budget: Budget, t: int, b: int):
        self.budget, self.t, self.b, self.max_states = budget, t, b, budget.caps["states"]
        self.options: dict[tuple, dict] = {}
        self.held = 0

    def children(self, vs: list[int], mus: list[int], room: int) -> tuple[dict, int]:
        """{child code: summed labelings} of a state of several classes, and its allocations.

        mus[i] rows have deficit vs[i], increasing.  Once the allocations,
        counted from the option-list lengths, pass room, no child is formed:
        the dict is empty and the count only known to pass room.
        """
        b, t, cap, memo = self.b, self.t, self.max_states, self.options
        rest = sum(map(mul, mus, map(min, vs, repeat(t))))  # what later classes absorb
        # partials maps the units u taken so far to (code, weight) pairs and
        # counts to their partial allocations, each a floor on the allocations
        partials, counts = {0: ((0, 1),)}, {0: 1}
        for v, mu in zip(vs[:-2], mus[:-2]):
            hi = v if v < t else t
            table, top, shift = memo.setdefault((mu, hi, hi == v), {}), mu * hi, b * (v - hi)
            rest -= top
            folded, grown, floor = {}, {}, 0
            for u, ways in counts.items():
                items, rem = partials[u], t - u
                lo = rem - rest  # plain comparisons below: this runs once per total
                for a in range(lo if lo > 0 else 0, (top if top < rem else rem) + 1):
                    options = table.get(a) or self._build(table, mu, hi, v, a)
                    floor += ways * len(options)
                    if floor > room:
                        return {}, floor
                    grown[u + a] = grown.get(u + a, 0) + ways * len(options)
                    acc = folded.setdefault(u + a, {})
                    get = acc.get
                    for code, lab in options:
                        code <<= shift
                        for key, weight in items:
                            key += code
                            acc[key] = get(key, 0) + weight * lab
                    if len(acc) > cap:
                        raise self.budget.error("states", cap + 1,
                                                f"over {cap} partial children of one state")
            partials = {w: acc.items() for w, acc in folded.items()}
            counts = grown
        # the last two classes at once, the last taking the units left
        (v1, v2), (mu1, mu2) = vs[-2:], mus[-2:]
        hi1, hi2 = v1 if v1 < t else t, v2 if v2 < t else t
        table1 = memo.setdefault((mu1, hi1, hi1 == v1), {})
        table2 = memo.setdefault((mu2, hi2, hi2 == v2), {})
        top, allocations, pairs = mu1 * hi1, 0, []
        for u, ways in counts.items():
            rem = t - u
            lo = rem - mu2 * hi2
            for a in range(lo if lo > 0 else 0, (top if top < rem else rem) + 1):
                options1 = table1.get(a) or self._build(table1, mu1, hi1, v1, a)
                options2 = table2.get(rem - a) or self._build(table2, mu2, hi2, v2, rem - a)
                pairs.append((partials[u], options1, options2))
                allocations += ways * len(options1) * len(options2)
        if allocations > room:
            return {}, allocations
        acc, s1, s2 = {}, b * (v1 - hi1), b * (v2 - hi2)
        get = acc.get
        for items, options1, options2 in pairs:
            for code1, lab1 in options1:
                code1 <<= s1
                for code2, lab2 in options2:
                    code, lab = code1 + (code2 << s2), lab1 * lab2
                    for key, weight in items:
                        key += code
                        acc[key] = get(key, 0) + weight * lab
            if len(acc) > cap:
                raise self.budget.error("states", cap + 1, f"over {cap} children of one state")
        return acc, allocations

    def _build(self, table: dict, mu: int, hi: int, v: int, total: int) -> list:
        """The option list of a class at one total, stored if the budget has room."""
        options = list(_class_options(mu, hi, hi == v, total, self.b))
        if len(options) <= self.max_states - self.held:
            table[total] = options
            self.held += len(options)
        return options


def _class_options(mu: int, hi: int, fin: bool, total: int, b: int, low: int = 0):
    """Yield (code, labelings) for each multiset of mu amounts in [0, hi] summing to total.

    A row taking x adds 1 << low + b * (hi - x) to the code, except that
    with fin (hi is the class's deficit) a row taking hi finishes and adds
    nothing; labelings = mu! / prod k_x!, the ways to hand the amounts to
    labeled rows.  A stack entry (a, rows, rem, ways, code) still has to
    hand amounts <= a to `rows` rows with rem units left; only entries that
    can still be completed are pushed.
    """
    stack = [(hi, mu, total, 1, 0)]
    while stack:
        a, rows, rem, ways, code = stack.pop()
        if a > rem:
            a = rem
        # every remaining row takes nothing; hi >= 1, so none finishes
        if rem == 0:
            yield code + (rows << low + b * hi), ways
            continue
        # k >= 1 rows take amount x, the rest take less
        for x in range(a, 0, -1):
            kmin = rem - rows * (x - 1)
            if kmin > rows:
                break
            kmax = rem // x  # <= rows: kmin <= rows means rem <= rows * x
            if kmin < 1:
                kmin = 1
            shift = low + b * (hi - x)
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
    rows = [tuple(hi - lo - 1 for lo, hi in zip((-1, *bars), (*bars, s + n - 1)))
            for bars in combinations(range(s + n - 1), n - 1)]  # stars and bars

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
