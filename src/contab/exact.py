"""Exact counting of nonnegative integer matrices with constant margins.

count_exact fills the matrix column by column in one forward pass.  All
rows have the same target sum, so rows are interchangeable up to their
remaining deficit, and the DP state is the multiset of positive deficits;
a row whose deficit reaches zero is finished and drops out.  A state is
keyed (base, shape): base is its smallest deficit and shape the sorted
(deficit - base, multiplicity) pairs.  The pass keeps one dict per column
layer mapping each reachable state to the number of ways to reach it,
starting from every row at deficit s.  Mass conservation fixes the number of columns
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

When s is much larger than t, most states are interior: every deficit v
has t < v <= (c - 1) * t with c columns left, so every row may take any
amount 0..t and none finishes.  The moves of an interior state then depend
on its shape alone, and each child is the parent's base plus a fixed
offset, with a fixed shape.  They are enumerated once per shape and
replayed while the shape recurs: 11847 of the 13168 interior states of
(3,98,49,6) replay stored moves.  A shape of k live rows keeps its mass
only if its base drops by t / k per layer, so it recurs only every
k // gcd(k, t) layers; the cache keeps the shapes of the last m // gcd(m, t)
layers and stores only a shape that is interior again when it can recur.
A pass too short for any shape to recur before the join treats no state as
interior.  Each replayed move still counts one unit of work and goes
through the state cap, in the order the enumeration would give.  The cache
holds at most max_states moves, about 50 bytes each (three tuple slots, the
child shapes shared); a shape met past that bound is expanded without
storing its moves.

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
more states than that; the move cache adds at most about 50 MB to that.

count_bruteforce enumerates matrices row by row and exists purely as an
independent oracle for small instances.
"""

from __future__ import annotations

from collections import deque
from itertools import chain, islice
from math import comb, gcd

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
    layer = {(s, ((0, m),)): 1}
    mirror = layer
    work = 0
    interior = _InteriorMoves(m, t, h, max_states)
    # interior states need t < base; when no shape can come back before the
    # join, none is treated as one (base <= s)
    interior_above = t if n - interior.window > h else s
    for cols in range(n, h, -1):
        cap_next = (cols - 1) * t
        nxt: dict[tuple[int, tuple[tuple[int, int], ...]], int] = {}
        for (base, shape), ways in layer.items():
            assert sum((base + d) * mu for d, mu in shape) == cols * t, \
                "mass conservation violated"
            if interior_above < base and base + shape[-1][0] <= cap_next:
                moves = interior.moves(base, shape, cols)
            else:
                moves = _allocations(base, shape, t, cap_next)
            for child, labelings in moves:
                work += 1
                if work > max_work:
                    raise ResourceLimitError(
                        f"work budget exhausted counting {spec}: "
                        f"{work} allocation steps > {max_work} "
                        f"({len(nxt)} states in the layer being built)",
                        kind="work", limit=max_work, used=work)
                # one lookup and one store: hashing the key is a large part
                # of a step
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
    for (base, shape), ways in layer.items():
        assert sum((base + d) * mu for d, mu in shape) == h * t, \
            "mass conservation violated"
        if h == 2:
            total += ways * _two_column_count(base, shape, t)
            continue
        # ways = orbit * fillings of the n - h spent columns; the mirror
        # state counts the fillings of the h columns left, times the orbit
        rest = _complement(base, shape, s, m)
        assert rest in mirror, \
            f"complement {rest} of {(base, shape)} missing from its layer"
        fillings, r = divmod(ways, _orbit(shape, m))
        assert r == 0, "layer count not divisible by its orbit"
        total += fillings * mirror[rest]
    return total


class _InteriorMoves:
    """The moves of interior states, stored by shape (see the module notes).

    layers holds one dict per layer, the newest last, for the current layer
    and the m // gcd(m, t) before it; each maps a shape met in that layer
    to three parallel tuples: child base offset, child shape, labelings.
    held counts the moves stored, at most max_states.
    """

    def __init__(self, m: int, t: int, h: int, max_states: int):
        self.t, self.h, self.max_states = t, h, max_states
        self.window = m // gcd(m, t)
        self.layers: deque[dict] = deque([{}])
        self.held = 0
        self.interned: dict = {}

    def moves(self, base: int, shape, cols: int):
        """(child key, labelings) pairs of an interior state with cols left."""
        t, layers = self.t, self.layers
        rows = sum(mu for _, mu in shape)
        period = rows // gcd(rows, t)
        entry = layers[-1 - period].pop(shape, None) if period < len(layers) else None
        if entry is not None:
            layers[-1][shape] = entry
            offsets, shapes, labels = entry
            return zip(zip(map(base.__add__, offsets), shapes), labels)
        cap_next = (cols - 1) * t
        moves = _allocations(base, shape, t, cap_next)
        # cache only a shape that is interior again `period` layers on
        drop = period * t // rows
        if (period > self.window or cols - period <= self.h or base - drop <= t
                or base - drop + shape[-1][0] > cap_next - period * t):
            return moves
        room = self.max_states - self.held
        first = list(islice(moves, room + 1))
        if len(first) > room:
            return chain(first, moves)
        self.held += len(first)
        intern = self.interned.setdefault
        layers[-1][shape] = (tuple(key[0] - base for key, _ in first),
                             tuple(intern(key[1], key[1]) for key, _ in first),
                             tuple(labelings for _, labelings in first))
        return first

    def next_layer(self) -> None:
        """Start a layer; drop the one that fell out of the window."""
        self.layers.append({})
        self.interned = {}
        if len(self.layers) > self.window + 1:
            self.held -= sum(len(entry[0]) for entry in self.layers.popleft().values())


def _complement(base: int, shape, s: int, m: int):
    """Key of the state s - D: each deficit v becomes s - v, finished rows become s."""
    done = m - sum(mu for _, mu in shape)
    rest = [(s - base - d, mu) for d, mu in shape if base + d < s]
    if done:
        rest.append((s, done))
    return _merge(rest)


def _orbit(shape, m: int) -> int:
    """Labeled deficit vectors with these multiplicities: m! / (z! * prod mu!)."""
    orbit, left = 1, m
    for _, mu in shape:
        orbit *= comb(left, mu)
        left -= mu
    return orbit


def _allocations(base: int, shape, t: int, cap_next: int):
    """Yield (child key, labelings) for every way to spend one column.

    The state's rows have deficits v = base + d for the (d, multiplicity)
    pairs in shape; each row takes an amount in [max(0, v - cap_next),
    min(v, t)] and the amounts sum to t.
    A stack entry (ci, a, rows, rem, ways, parts) still has to hand amounts
    <= a to `rows` rows of class ci, then fill the later classes, with rem
    units left; parts holds the (new deficit, count) pairs chosen so far.
    Only entries that can still be completed are pushed.
    """
    last = len(shape) - 1
    vs = [base + d for d, _ in shape]
    # the largest deficit is the last; most states have no positive bound
    if vs[-1] > cap_next:
        lo = [v - cap_next if v > cap_next else 0 for v in vs]
    else:
        lo = [0] * (last + 1)
    # fewest and most units the classes after ci can absorb
    min_after = [0] * (last + 2)
    max_after = [0] * (last + 2)
    for ci in range(last, 0, -1):
        v, mu = vs[ci], shape[ci][1]
        min_after[ci] = min_after[ci + 1] + mu * lo[ci]
        max_after[ci] = max_after[ci + 1] + mu * (v if v < t else t)
    stack = [(0, t, shape[0][1], t, 1, ())]
    while stack:
        ci, a, rows, rem, ways, parts = stack.pop()
        if rows == 0:
            ci += 1
            rows, a = shape[ci][1], rem
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


def _merge(parts) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Canonical (base, shape) key of the (deficit, count) pairs in parts.

    base is the smallest deficit; shape holds the (deficit - base, count)
    pairs sorted, equal deficits merged.
    """
    if len(parts) < 3:
        # one or two pairs, most children: no sort, no list
        if len(parts) == 1:
            (base, c), = parts
            return base, ((0, c),)
        (d, c), (e, k) = parts
        if d < e:
            return d, ((0, c), (e - d, k))
        if e < d:
            return e, ((0, k), (d - e, c))
        return d, ((0, c + k),)
    parts = sorted(parts)
    base = parts[0][0]
    out = [(0, parts[0][1])]
    for d, c in parts[1:]:
        d -= base
        if d == out[-1][0]:
            out[-1] = (d, out[-1][1] + c)
        else:
            out.append((d, c))
    return base, tuple(out)


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


def _two_column_count(base: int, shape, t: int) -> int:
    """Labeled solutions of sum(x_i) = t with max(0, v_i - t) <= x_i <= min(v_i, t).

    The deficits v are base + d for the (d, multiplicity) pairs in shape.
    Standard inclusion exclusion over per-class bound violations after
    shifting each x to its lower bound; terms are keyed by the units they
    leave, so equal remainders are summed once.
    """
    rows = 0
    shifted = t
    caps = []
    for d, mu in shape:
        v = base + d
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
