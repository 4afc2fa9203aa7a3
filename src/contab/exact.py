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
alike and wide shapes fill a dict with collisions.  The layer dicts are
therefore keyed by the code's little-endian bytes, which hash as a byte
string.  A key is decoded into (deficit, multiplicity) lists once per
expanded state, one step per class by jumping to the highest set bit.

Spending one column distributes t units over the rows, each row receiving
0 <= x <= deficit.  Allocations are enumerated aggregated by deficit value:
for each class of mu rows sharing deficit v we choose a multiset of mu
amounts and weight it by the number of ways to hand those amounts to
labeled rows (a product of binomials), on an explicit stack that holds
only partial choices that can still be completed (a new deficit must be
<= (columns remaining - 1) * t).  A stack entry carries its child's code so
far; k rows landing at deficit d add k << (b * d): no sort, no merge.

When s is much larger than t, most states are interior: every deficit v
has t < v <= (c - 1) * t with c columns left, so every row may take any
amount 0..t and none finishes.  The moves of an interior state then depend
on its shape alone (the code shifted down by its smallest deficit, the
base): each child is a fixed code shifted up by base - t digits.  They are
enumerated once per shape and replayed, one shift each, while the shape
recurs (11847 of the 13168 interior states of (3,98,49,6)).  A shape of k
live rows keeps its mass only if its base drops by t / k per layer, so it
recurs only every k // gcd(k, t) layers; the cache keeps the shapes of the
last m // gcd(m, t) layers and stores only a shape that is interior again
when it can recur.  A pass too short for any shape to recur before the join
treats no state as interior.  A replayed move counts one unit of work and
meets the state cap in the enumeration's order.  The cache holds at most
max_states moves; a shape met past that bound is expanded uncached.

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
runs to two columns left instead, which are finished in closed form.  Two
rows (m <= n after the transpose) are that closed form read the other way,
n rows of deficit t filling two columns of total s; no key is built.

Counts are exact Python ints throughout.  Two budgets bound the forward
pass (the join adds no work): a cap on the states held in the layer being
built, checked at each insert, and a budget on enumerated allocations.
Exceeding either raises ResourceLimitError, never a wrong answer.  The
state cap is the memory guard: it budgets STATE_BYTES, about a kilobyte,
per state, the layer being expanded included, so the default 2**20 keeps a
pass near a gigabyte.  A held state costs its key, ceil(b * (s + 1) / 8)
bytes plus 33 of header (11 + 33 on (10,20,10,20)), a dict slot and its
count; a cached move costs a code and its labelings.  Width rule: a shape
whose keys would outgrow the kilobyte, b * (s + 1) > 8192 bits, fits no
state in its budget, so the pass raises ResourceLimitError (kind "states")
before it builds any key.

count_bruteforce enumerates matrices row by row and exists purely as an
independent oracle for small instances.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, islice
from math import comb, factorial, gcd, prod

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
    (default 10**9).
    """
    if spec.s == 0:
        return 1
    sp = spec if spec.m <= spec.n else spec.transpose()
    m, s, n, t = sp.m, sp.s, sp.n, sp.t
    if m == 1:
        return 1
    if m == 2:
        return _two_column_count([t], [n], s)
    b = m.bit_length()
    width = (b * (s + 1) + 7) // 8
    if width > STATE_BYTES:
        raise ResourceLimitError(
            f"state cap exhausted counting {spec}: a state key of {width} bytes "
            f"exceeds the {STATE_BYTES} budgeted per state",
            kind="states", limit=0, used=1)

    # stop with h columns left; mirror becomes the layer with n - h left
    h = max(2, n // 2)
    layer = {(m << b * s).to_bytes(width, "little"): 1}
    mirror = layer
    work = 0
    interior = _InteriorMoves(m, t, h, b, width, max_states)
    # interior needs t < base; if no shape recurs before the join, none is (base <= s)
    interior_above = t if n - interior.window > h else s
    for cols in range(n, h, -1):
        cap_next = (cols - 1) * t
        nxt: dict[bytes, int] = {}
        for key, ways in layer.items():
            code = int.from_bytes(key, "little")
            vs, mus = _decode(code, b)
            assert sum(map(int.__mul__, vs, mus)) == cols * t, \
                "mass conservation violated"
            if interior_above < vs[0] and vs[-1] <= cap_next:
                moves = interior.moves(code, vs, mus, cols)
            else:
                moves = _allocations(vs, mus, b, t, cap_next)
            for child, labelings in moves:
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
        interior.next_layer()
        if cols - 1 == n - h:
            mirror = nxt
        layer = nxt

    total = 0
    for key, ways in layer.items():
        vs, mus = _decode(int.from_bytes(key, "little"), b)
        assert sum(map(int.__mul__, vs, mus)) == h * t, \
            "mass conservation violated"
        if h == 2:
            total += ways * _two_column_count(vs, mus, t)
            continue
        # ways = orbit * fillings of the n - h spent columns; the mirror
        # state counts the fillings of the h columns left, times the orbit
        rest = _complement(vs, mus, s, m, b).to_bytes(width, "little")
        assert rest in mirror, \
            f"complement of {list(zip(vs, mus))} missing from its layer"
        fillings, r = divmod(ways, _orbit(mus, m))
        assert r == 0, "layer count not divisible by its orbit"
        total += fillings * mirror[rest]
    return total


class _InteriorMoves:
    """The moves of interior states, stored by shape (see the module notes).

    layers holds one dict per layer, the newest last, for the current layer
    and the m // gcd(m, t) before it; each maps a shape met in that layer
    to two parallel tuples: the child codes shifted down by base - t, and
    their labelings.  held counts the moves stored, at most max_states.
    """

    def __init__(self, m: int, t: int, h: int, b: int, width: int, max_states: int):
        self.t, self.h, self.b, self.width, self.max_states = t, h, b, width, max_states
        self.window = m // gcd(m, t)
        self.layers: deque[dict] = deque([{}])
        self.held = 0

    def moves(self, code: int, vs: list[int], mus: list[int], cols: int):
        """(child code, labelings) pairs of an interior state with cols left."""
        t, b, layers = self.t, self.b, self.layers
        base = vs[0]
        shape = (code >> b * base).to_bytes(self.width, "little")
        # every child deficit is at least base - t
        shift = b * (base - t)
        rows = sum(mus)
        period = rows // gcd(rows, t)
        entry = layers[-1 - period].pop(shape, None) if period < len(layers) else None
        if entry is not None:
            layers[-1][shape] = entry
            codes, labels = entry
            return zip(map(shift.__rlshift__, codes), labels)
        cap_next = (cols - 1) * t
        moves = _allocations(vs, mus, b, t, cap_next)
        # cache only a shape that is interior again `period` layers on
        drop = period * t // rows
        if (period > self.window or cols - period <= self.h or base - drop <= t
                or vs[-1] - drop > cap_next - period * t):
            return moves
        room = self.max_states - self.held
        first = list(islice(moves, room + 1))
        if len(first) > room:
            return chain(first, moves)
        self.held += len(first)
        layers[-1][shape] = (tuple(child >> shift for child, _ in first),
                             tuple(labelings for _, labelings in first))
        return first

    def next_layer(self) -> None:
        """Start a layer; drop the one that fell out of the window."""
        self.layers.append({})
        if len(self.layers) > self.window + 1:
            self.held -= sum(len(entry[0]) for entry in self.layers.popleft().values())


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


def _allocations(vs: list[int], mus: list[int], b: int, t: int, cap_next: int):
    """Yield (child code, labelings) for every way to spend one column.

    mus[i] rows have deficit vs[i], the deficits increasing; each row takes
    an amount in [max(0, v - cap_next), min(v, t)] and the amounts sum to t.
    A stack entry (ci, a, rows, rem, ways, code) still has to hand amounts
    <= a to `rows` rows of class ci, then fill the later classes, with rem
    units left; code holds the rows placed so far.  Only entries that can
    still be completed are pushed.
    """
    last = len(vs) - 1
    # the largest deficit is the last; most states have no positive bound
    if vs[-1] > cap_next:
        lo = [v - cap_next if v > cap_next else 0 for v in vs]
    else:
        lo = [0] * (last + 1)
    # fewest and most units the classes after ci can absorb
    min_after = [0] * (last + 2)
    max_after = [0] * (last + 2)
    for ci in range(last, 0, -1):
        v, mu = vs[ci], mus[ci]
        min_after[ci] = min_after[ci + 1] + mu * lo[ci]
        max_after[ci] = max_after[ci + 1] + mu * (v if v < t else t)
    stack = [(0, t, mus[0], t, 1, 0)]
    while stack:
        ci, a, rows, rem, ways, code = stack.pop()
        if rows == 0:
            ci += 1
            rows, a = mus[ci], rem
        v = vs[ci]
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
            child = code + (rows << b * (v - low)) if v > low else code
            if ci == last:
                yield child, ways
            else:
                stack.append((ci, low, 0, left, ways, child))
        # k >= 1 rows take amount x, the rest of the class takes less
        for x in range(a, low, -1):
            kmin = rem - hi_after - rows * (x - 1)
            if kmin > rows:
                break
            kmax = (left - lo_after) // (x - low)
            if kmin < 1:
                kmin = 1
            if kmax > rows:
                kmax = rows
            shift = b * (v - x)
            for k in range(kmin, kmax + 1):
                child = code + (k << shift) if v > x else code
                if k == rows and ci == last:
                    yield child, ways * comb(rows, k)
                else:
                    stack.append((ci, x - 1, rows - k, rem - k * x,
                                  ways * comb(rows, k), child))


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


def _two_column_count(vs: list[int], mus: list[int], t: int) -> int:
    """Labeled solutions of sum(x_i) = t with max(0, v_i - t) <= x_i <= min(v_i, t).

    mus[i] rows have deficit vs[i].  Standard inclusion exclusion over
    per-class bound violations after shifting each x to its lower bound;
    terms are keyed by the units they leave, equal remainders summed once.
    """
    rows = 0
    shifted = t
    caps = []
    for v, mu in zip(vs, mus):
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
