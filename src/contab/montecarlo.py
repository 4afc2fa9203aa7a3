"""Sequential importance sampling for contingency-table counts.

The sampler fills the table column by column, top to bottom inside each
column.  The proposal treats rows as independent: if the current column
were struck, row i could spread a leftover budget u over the nl remaining
columns in C(u + nl - 1, nl - 1) ways.  Within a column the joint over
entries (x_1..x_m), sum fixed to the column total, is proportional to the
product of those counts; entries are drawn one at a time from the exact
sequential conditionals

    P(x_i = x) ~ C(r_i - x + nl - 1, nl - 1) * W_below(t_rem - x),

where W_below(v) counts the budget-respecting ways the rows below can
absorb v into this column, each weighted by its own spread count.  W_below
is a short convolution computed by dynamic programming per column.  The
cruder surrogate that replaces W_below by the unbudgeted composition count
C(v + mb - 1, mb - 1) has the same support but catastrophically heavy
weight tails already at a 10 x 10, margin-20 table (effective sample sizes
of ~2 out of 1e5); the exact lookahead keeps the effective sample size
above 98% there.

The support at each step is lo = max(0, t_rem - sum of budgets below) ..
hi = min(r_i, t_rem): within it every value leads to at least one valid
completion, outside it none does, so the proposal never dead-ends and
reaches every valid table.  In the last column the range collapses to
x = r_i by conservation.

Each sample carries the weight 1/q(table); averaging the weights gives an
unbiased estimate of the count.  The weights are accumulated in log space
since the counts of interest reach 1e127, but the lookahead is linear and
scaled: row i's entry weights are kept as the ratios
C(r_i - x + nl - 1, nl - 1) / C(r_i + nl - 1, nl - 1), which are 1 at x = 0,
and each convolution is rescaled to a per-sample maximum of 1.  Each ratio
is the running product over x of the steps (r_i - x + 1) / (r_i - x + nl),
each a quotient of exact integers.  The ratios are computed per column, only
for the budgets r_i present in the chunk, into a table of
(t+1) x (budgets present) values that counts against the chunk's byte
budget, so besides the chunk's own arrays only the budget index, of length
s + 1, grows with the margins.  That table is gathered along its budget axis
into the column's entry weights, a C-contiguous (t+1) x m x samples array,
so the lookahead and the draw read each sample's value next to the next
sample's.  A factor that is constant for a sample cancels from every
conditional, so only the draw's log z - log p(x) leaves linear space.  The
last row of a column and the whole last column are forced and cost no draw.
In the first column every row of every sample has budget s, so that
column's entry weights and lookahead are computed once, in one sample's
lane, and broadcast to the chunk.

Sample i is a pure function of (seed, i).  Samples run in chunks sized by a
fixed byte budget; each chunk draws m*n uniforms per sample from the
counter-based Philox stream where the previous chunk left it, and all
per-sample arithmetic is independent of batching, so results do not depend
on chunk sizes.  mc_estimate folds each chunk's weights into a running
maximum and two running sums before it draws the next, so no array grows
with the sample count.

numpy is imported inside the functions that compute with arrays, so
`import contab` and the subcommands that never sample do not pay for it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cache

from .core import InvalidSpecError, LogEstimate, TableSpec

# working set of one chunk of samples; of 2 to 64 MiB, 16 MiB ran the
# 10x10, 3x100 and 30x30 benchmark shapes fastest together
_CHUNK_BYTES = 16 << 20


@dataclass(frozen=True)
class McEstimate:
    """Importance-sampling estimate of a table count, kept in log space."""

    log_mean: float
    log_standard_error: float
    sample_count: int
    seed: int
    effective_sample_size: float

    @property
    def mean(self) -> LogEstimate:
        return LogEstimate(self.log_mean)

    @property
    def standard_error(self) -> float:
        return math.exp(self.log_standard_error)

    @property
    def relative_standard_error(self) -> float:
        return math.exp(self.log_standard_error - self.log_mean)


def mc_estimate(spec: TableSpec, samples: int, seed: int = 0) -> McEstimate:
    """Estimate the count from `samples` importance-sampling draws."""
    if not isinstance(samples, int) or samples < 2:
        raise InvalidSpecError(
            f"need at least 2 samples for a standard error, got {samples}")
    import numpy as np
    # fold each chunk into a running maximum and the sums of e^(w - top) and
    # e^(2w - 2top), so memory is bounded by the chunk budget, not by samples
    top, sum1, sum2 = -math.inf, 0.0, 0.0
    for logw, _tables in _weight_chunks(spec, samples, seed):
        new_top = max(top, float(logw.max()))
        rescale = math.exp(top - new_top)
        shifted = logw - new_top
        sum1 = sum1 * rescale + float(np.exp(shifted).sum())
        sum2 = sum2 * rescale * rescale + float(np.exp(2.0 * shifted).sum())
        top = new_top
        # release this chunk before the next one is drawn
        del logw, shifted
    lse1 = top + math.log(sum1)
    lse2 = 2.0 * top + math.log(sum2)
    log_n = math.log(samples)
    log_mean = lse1 - log_n
    # sample variance: (sum w^2 - n mean^2) / (n - 1); Cauchy-Schwarz keeps
    # the difference nonnegative up to roundoff
    spread = -math.expm1(min(0.0, 2.0 * lse1 - log_n - lse2))
    if spread <= 0.0:
        log_se = -math.inf
    else:
        log_var = lse2 + math.log(spread) - math.log(samples - 1)
        log_se = 0.5 * (log_var - log_n)
    ess = math.exp(min(0.0, 2.0 * lse1 - lse2 - log_n)) * samples
    return McEstimate(log_mean=log_mean, log_standard_error=log_se,
                      sample_count=samples, seed=seed,
                      effective_sample_size=ess)


def sample_table(spec: TableSpec, seed: int) -> tuple[tuple[tuple[int, ...], ...], float]:
    """Draw one table; returns (matrix as row tuples, log importance weight).

    `seed` is a nonnegative integer; the draw is sample 0 of mc_estimate's
    stream for the same seed.
    """
    logw, tables = next(_weight_chunks(spec, 1, seed, want_tables=True))
    matrix = tuple(tuple(int(v) for v in row) for row in tables[0])
    return matrix, float(logw[0])


def enumerate_proposal(spec: TableSpec):
    """All (table, proposal probability) pairs, in exact rational arithmetic.

    Walks every decision path of the sampler with the same conditionals the
    float code uses.  The lookahead W_below is a table over v = 0..t, built
    once per (budgets of the rows below, columns left) from the next
    suffix's table by one exact-int convolution and cached for the call.
    Paths are in bijection with valid tables, the probabilities sum to 1,
    and the weighted average of the weights 1/q reproduces the exact count;
    these are the facts the unbiasedness tests assert.  Desk-scale specs
    only.
    """
    spec.positive_density()
    m, s, n, t = spec.m, spec.s, spec.n, spec.t
    results: list[tuple[tuple[tuple[int, ...], ...], Fraction]] = []
    column_major: list[list[int]] = [[0] * m for _ in range(n)]

    @cache
    def absorb_below(rest: tuple[int, ...], nl: int) -> tuple[int, ...]:
        # entry v: ways rows with budgets `rest` can absorb v = 0..t into this
        # column, weighted by their later-column spread counts; the first row's
        # weights convolved with the next suffix's table
        if not rest:
            return (1,) + (0,) * t
        tail = absorb_below(rest[1:], nl)
        spread = [_spread_count(rest[0] - x, nl) for x in range(rest[0] + 1)]
        return tuple(sum(spread[x] * tail[v - x] for x in range(min(rest[0], v) + 1))
                     for v in range(t + 1))

    def fill(j: int, i: int, budgets: tuple[int, ...], t_rem: int, q: Fraction):
        if j == n:
            table = tuple(tuple(column_major[jj][ii] for jj in range(n))
                          for ii in range(m))
            results.append((table, q))
            return
        if i == m:
            assert t_rem == 0
            fill(j + 1, 0, budgets, t, q)
            return
        nl = n - 1 - j
        below = absorb_below(budgets[i + 1:], nl)
        support = []
        for x in range(min(budgets[i], t_rem) + 1):
            w = _spread_count(budgets[i] - x, nl) * below[t_rem - x]
            if w:
                support.append((x, w))
        z = sum(w for _x, w in support)
        assert support and z > 0
        for x, w in support:
            column_major[j][i] = x
            new_budgets = budgets[:i] + (budgets[i] - x,) + budgets[i + 1:]
            fill(j, i + 1, new_budgets, t_rem - x, q * Fraction(w, z))
        column_major[j][i] = 0

    fill(0, 0, (s,) * m, t, Fraction(1))
    return results


def _spread_count(v: int, parts: int) -> int:
    """Ways to spread v over `parts` ordered nonnegative cells (1 way if none left)."""
    if parts == 0:
        return 1 if v == 0 else 0
    return math.comb(v + parts - 1, parts - 1)


def _weight_chunks(spec: TableSpec, samples: int, seed: int, want_tables: bool = False):
    """Vectorized sampler core: yields (log weights, tables or None) chunk by chunk.

    The chunks of one call hold `samples` draws in sample order.  Margins of
    every sampled table are asserted before its chunk is yielded.
    """
    import numpy as np
    spec.positive_density()
    m, s, n, t = spec.m, spec.s, spec.n, spec.t
    if int(seed) < 0:
        raise InvalidSpecError(f"seed must be nonnegative, got {seed}")
    rng = np.random.Generator(np.random.Philox(int(seed)))
    # 8-byte values per sample in a chunk: entry weights (m rows of t+1), the
    # padded lookahead (m - 1 rows of t+2), the uniforms, the budgets and
    # their gathered ratio slots (m each), and the draw's (t+1)-row temporaries
    per_sample = 8 * (m * (t + 1) + (m - 1) * (t + 2) + m * n + 2 * m + 6 * (t + 1))
    # each column's ratio table, the two integer grids it is divided from and
    # their mask: 25 bytes for each of (t+1) x (budgets present), and at most
    # s+1 and at most m*chunk budgets are present; either bound gives a chunk
    # that fits, take the larger
    per_budget = 25 * (t + 1)
    chunk = max(1, (_CHUNK_BYTES - per_budget * (s + 1)) // per_sample,
                _CHUNK_BYTES // (per_sample + per_budget * m))
    # numpy refuses an array past the address space with a ValueError, so one
    # sample's arrays are sized first and reported out of memory; margins
    # past the floats raise OverflowError here instead
    needed = float(per_sample)
    if needed > np.iinfo(np.intp).max:
        raise MemoryError(f"one sample needs {needed:.3g} bytes of arrays")
    for start in range(0, samples, chunk):
        size = min(chunk, samples - start)
        tables = np.zeros((size, m, n), dtype=np.int64) if want_tables else None
        # consecutive blocks continue one stream: row i is always sample i's;
        # passed straight in, so no chunk's uniforms outlive its call
        yield _sample_chunk(m, s, n, t, rng.random((size, m * n)), tables), tables


def _entry_weights(budgets, nl: int, t: int):
    """Scaled entry weights a[x, i, k] of rows with budgets u = budgets[i, k].

    a[x, i, k] = C(u - x + nl - 1, nl - 1) / C(u + nl - 1, nl - 1) for
    x = 0..min(t, largest budget), so a[0] = 1 and a[x] = 0 for x > u, with
    nl columns left after this one.  The ratios are computed once per budget
    present and gathered along the budget axis, so `a` is C-contiguous with
    the sample axis k innermost.
    """
    import numpy as np
    top = int(budgets.max())
    present = np.zeros(top + 1, dtype=bool)
    present[budgets] = True
    slot = np.cumsum(present) - 1
    # ratio[x, slot[u]] is the product over y = 1..x of the step
    # C(u - y + nl - 1, nl - 1) / C(u - y + nl, nl - 1) = left / (left + nl - 1)
    # with left = u - y + 1; the step is 0 at y = u + 1, so is every ratio past
    left = np.flatnonzero(present) - np.arange(min(t, top))[:, None]
    ratio = np.zeros((left.shape[0] + 1, left.shape[1]))
    ratio[0] = 1.0
    np.divide(left, left + (nl - 1), out=ratio[1:], where=left > 0)
    np.multiply.accumulate(ratio, axis=0, out=ratio)
    return ratio.take(slot[budgets], axis=1)


def _sample_chunk(m, s, n, t, uniforms, tables):
    """Log weights of one chunk of samples, filled column by column.

    Arrays are C-contiguous with the sample axis last, so every step below
    runs over contiguous rows of one value per sample.  In column 0 every
    sample has budgets (s, ..., s): its entry weights and lookahead are
    computed in one lane and broadcast to the others.
    """
    import numpy as np
    size = uniforms.shape[0]
    width = t + 1
    budgets = np.full((m, size), s, dtype=np.int64)
    logw = np.zeros(size, dtype=np.float64)
    cols = np.arange(size)
    xs = np.arange(width)[:, None]
    # pad[i][1 + v]: scaled weighted ways rows i + 1.. can absorb v into the
    # column, read by the draw of row i; pad[i][0] stays 0 and stands for
    # every v < 0 in the draw.  Only the m - 1 drawn rows have one
    pad = np.zeros((m - 1, width + 1, size))
    look = pad[:, 1:]
    for j in range(n - 1):
        # the samples whose weights differ: one lane in column 0, all later
        lanes = budgets[:, :1] if j == 0 else budgets
        k = lanes.shape[1]
        a = _entry_weights(lanes, n - 1 - j, t)   # a[x, i, lane]
        # the last row absorbs v alone (an empty slice when m = 1); rows above
        # convolve in their weights
        look[-1:, :, :k] = 0.0
        look[-1:, :a.shape[0], :k] = a[:, m - 1]
        # out[v] = sum over x of a[x, i] * below[v - x], summed in x order
        for i in range(m - 2, 0, -1):
            below, out = look[i, :, :k], look[i - 1, :, :k]
            last = min(t, int(lanes[i].max()))
            for v in range(width):
                span = min(v, last) + 1
                np.einsum("xk,xk->k", a[:span, i], below[v::-1][:span], out=out[v])
            out /= out.max(axis=0)
        # one lane stands for every sample; empty once each sample has its own
        look[:, :, k:] = look[:, :, :1]
        t_rem = np.full(size, t, dtype=np.int64)
        for i in range(m - 1):
            hi = np.minimum(budgets[i], t_rem)
            rows = int(hi.max()) + 1
            # p[x] = a[x] * look[i][t_rem - x], gathered from the flat padded
            # table; mode="clip" sends every v < -1 to the zero row too
            at = (t_rem + 1) * size + cols - xs[:rows] * size
            p = a[:rows, i] * pad[i].reshape(-1).take(at, mode="clip")
            # cumsum runs down the strided axis, so it wins only when the
            # draw has more rows than samples; both add in x order
            if rows > size:
                cdf = np.cumsum(p, axis=0)
            else:
                cdf = p.copy()
                for x in range(1, rows):
                    cdf[x] += cdf[x - 1]
            z = cdf[-1]
            assert (z > 0).all(), "proposal support vanished"
            # x is the first entry whose CDF exceeds u * z: with <=, a
            # uniform of exactly 0 skips the leading entries of weight 0
            idx = (cdf <= uniforms[:, j * m + i] * z).sum(axis=0)
            x = np.minimum(idx, hi)
            logw += np.log(z) - np.log(p[x, cols])
            budgets[i] -= x
            t_rem -= x
            if tables is not None:
                tables[:, i, j] = x
        # the last row takes what the column still needs, with weight 1
        assert (budgets[m - 1] >= t_rem).all(), "column sum not met"
        budgets[m - 1] -= t_rem
        if tables is not None:
            tables[:, m - 1, j] = t_rem
        # drop this column's weights before the next column gathers its own
        del a
    # the last column takes what every row still has, with weight 1
    assert (budgets.sum(axis=0) == t).all(), "row sum not met"
    if tables is not None:
        tables[:, :, n - 1] = budgets.T
    return logw
