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
and each convolution is rescaled to a per-sample maximum of 1.  The ratios
are evaluated per column with gammaln, only for the budgets r_i present in
the chunk, so besides the chunk's own arrays only vectors of length s grow
with the margins.  A factor that is constant for a sample cancels from
every conditional, so only the draw's log z - log p(x) leaves linear space.
The last row of a column and the whole last column are forced and cost no
draw.

Sample i is a pure function of (seed, i).  Samples run in chunks sized by a
fixed byte budget; each chunk draws m*n uniforms per sample from the
counter-based Philox stream where the previous chunk left it, and all
per-sample arithmetic is independent of batching, so results do not depend
on chunk sizes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np
from scipy.special import gammaln, logsumexp

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
    logw = _batch_log_weights(spec, samples, seed)
    lse1 = float(logsumexp(logw))
    lse2 = float(logsumexp(2.0 * logw))
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


def sample_table(spec: TableSpec, rng) -> tuple[tuple[tuple[int, ...], ...], float]:
    """Draw one table; returns (matrix as row tuples, log importance weight).

    `rng` is either a nonnegative integer seed or a numpy Generator.
    """
    logw, tables = _batch_log_weights(spec, 1, rng, want_tables=True)
    matrix = tuple(tuple(int(v) for v in row) for row in tables[0])
    return matrix, float(logw[0])


def enumerate_proposal(spec: TableSpec):
    """All (table, proposal probability) pairs, in exact rational arithmetic.

    Walks every decision path of the sampler with the same conditionals the
    float code uses.  Paths are in bijection with valid tables, the
    probabilities sum to 1, and the weighted average of the weights 1/q
    reproduces the exact count; these are the facts the unbiasedness tests
    assert.  Desk-scale specs only.
    """
    spec.positive_density()
    m, s, n, t = spec.m, spec.s, spec.n, spec.t
    results: list[tuple[tuple[tuple[int, ...], ...], Fraction]] = []
    column_major: list[list[int]] = [[0] * m for _ in range(n)]

    def absorb_below(budgets: tuple[int, ...], i: int, v: int, nl: int) -> int:
        # ways rows i.. can absorb v into this column, weighted by their
        # later-column spread counts
        if i == len(budgets):
            return 1 if v == 0 else 0
        total = 0
        for x in range(min(budgets[i], v) + 1):
            rest = absorb_below(budgets, i + 1, v - x, nl)
            if rest:
                total += _spread_count(budgets[i] - x, nl) * rest
        return total

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
        support = []
        for x in range(min(budgets[i], t_rem) + 1):
            w = (_spread_count(budgets[i] - x, nl)
                 * absorb_below(budgets, i + 1, t_rem - x, nl))
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


def _batch_log_weights(spec: TableSpec, samples: int, seed_or_rng,
                       want_tables: bool = False):
    """Vectorized sampler core: log weights for `samples` draws.

    Margins of every sampled table are asserted before returning.
    """
    spec.positive_density()
    m, s, n, t = spec.m, spec.s, spec.n, spec.t
    if isinstance(seed_or_rng, np.random.Generator):
        rng = seed_or_rng
    elif int(seed_or_rng) < 0:
        raise InvalidSpecError(f"seed must be nonnegative, got {seed_or_rng}")
    else:
        rng = np.random.Generator(np.random.Philox(int(seed_or_rng)))
    # doubles per sample in a chunk: entry weights and lookahead tables
    # (m rows of t+1 each), the uniforms, and the draw's (t+1)-row temporaries
    per_sample = 8 * (2 * m * (t + 1) + m * n + 6 * (t + 1))
    chunk = max(1, _CHUNK_BYTES // per_sample)
    logw = np.empty(samples, dtype=np.float64)
    tables = np.zeros((samples, m, n), dtype=np.int64) if want_tables else None
    for start in range(0, samples, chunk):
        stop = min(samples, start + chunk)
        chunk_tables = tables[start:stop] if want_tables else None
        # consecutive blocks continue one stream: row i is always sample i's
        uniforms = rng.random((stop - start, m * n))
        logw[start:stop] = _sample_chunk(m, s, n, t, uniforms, chunk_tables)
    return (logw, tables) if want_tables else logw


def _sample_chunk(m, s, n, t, uniforms, tables):
    """Log weights of one chunk of samples, filled column by column.

    Arrays keep the sample axis last, so every step below runs over
    contiguous rows of one value per sample.
    """
    size = uniforms.shape[0]
    width = t + 1
    budgets = np.full((m, size), s, dtype=np.int64)
    logw = np.zeros(size, dtype=np.float64)
    cols = np.arange(size)
    xs = np.arange(width)[:, None]
    # pad[i][1 + v]: scaled weighted ways rows i.. can absorb v into the
    # column; pad[i][0] stays 0 and stands for every v < 0 in the draw
    pad = np.zeros((m, width + 1, size))
    look = pad[:, 1:]
    tmp = np.empty((width, size))
    for j in range(n - 1):
        # log_spread[v] = log C(v + nl - 1, nl - 1) up to a constant, for
        # nl = n - 1 - j columns left
        top = int(budgets.max())
        values = np.arange(top + 1)
        log_spread = gammaln(values + n - 1 - j) - gammaln(values + 1)
        # ratio[x, k] = spread(u - x) / spread(u) for the k-th budget u present
        # in the chunk: the weight of entry x for a row with budget u, scaled
        # so that ratio[0, k] = 1; slot[u] is k
        present = np.zeros(top + 1, dtype=bool)
        present[budgets] = True
        slot = np.cumsum(present) - 1
        u = np.flatnonzero(present)
        gap = u - xs[:min(t, top) + 1]
        ratio = np.where(gap >= 0, np.exp(
            log_spread[np.maximum(gap, 0)] - log_spread[u]), 0.0)
        a = ratio[:, slot[budgets]]   # a[x, i]
        # the last row absorbs v alone; rows above convolve in their weights
        look[m - 1] = 0.0
        look[m - 1][:a.shape[0]] = a[:, m - 1]
        for i in range(m - 2, 0, -1):
            below, out = look[i + 1], look[i]
            np.multiply(a[0, i], below, out=out)
            for x in range(1, min(t, int(budgets[i].max())) + 1):
                np.multiply(a[x, i], below[:width - x], out=tmp[x:])
                out[x:] += tmp[x:]
            out /= out.max(axis=0)
        t_rem = np.full(size, t, dtype=np.int64)
        for i in range(m - 1):
            hi = np.minimum(budgets[i], t_rem)
            rows = int(hi.max()) + 1
            # p[x] = a[x] * look[i + 1][t_rem - x], gathered from the flat
            # padded table; mode="clip" sends every v < -1 to the zero row too
            at = (t_rem + 1) * size + cols - xs[:rows] * size
            p = a[:rows, i] * pad[i + 1].reshape(-1).take(at, mode="clip")
            cdf = p.copy()
            for x in range(1, rows):
                cdf[x] += cdf[x - 1]
            z = cdf[-1]
            assert (z > 0).all(), "proposal support vanished"
            idx = (cdf < uniforms[:, j * m + i] * z).sum(axis=0)
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
    # the last column takes what every row still has, with weight 1
    assert (budgets.sum(axis=0) == t).all(), "row sum not met"
    if tables is not None:
        tables[:, :, n - 1] = budgets.T
    return logw
