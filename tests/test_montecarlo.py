"""Sequential importance sampling: unbiasedness, variance, determinism."""

import math
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from contab import montecarlo
from contab.core import InvalidSpecError, make_spec
from contab.exact import count_exact
from contab.montecarlo import enumerate_proposal, mc_estimate, sample_table


def _log_weights(spec, samples, seed):
    # every chunk's log weights, in sample order
    return np.concatenate([w for w, _ in montecarlo._weight_chunks(spec, samples, seed)])


def margins_ok(table, spec):
    rows = [sum(r) for r in table]
    cols = [sum(c) for c in zip(*table)]
    return rows == [spec.s] * spec.m and cols == [spec.t] * spec.n


def test_forced_specs_have_single_unit_weight_path():
    # one row, or one column: the table is fully determined
    # (12,4,1,48) has twelve rows: exponential without the per-suffix lookahead
    for quad in [(1, 6, 3, 2), (1, 2, 2, 1), (2, 4, 1, 8), (1, 5, 5, 1), (12, 4, 1, 48)]:
        spec = make_spec(*quad)
        paths = enumerate_proposal(spec)
        assert len(paths) == 1
        table, q = paths[0]
        assert q == 1
        assert margins_ok(table, spec)


def test_forced_spec_sample_weight_is_zero_log():
    table, logw = sample_table(make_spec(1, 6, 3, 2), 0)
    assert table == ((2, 2, 2),)
    assert logw == 0.0


def test_permutation_spec_is_uniform_over_both_tables():
    paths = enumerate_proposal(make_spec(2, 1, 2, 1))
    assert sorted(paths) == [
        (((0, 1), (1, 0)), Fraction(1, 2)),
        (((1, 0), (0, 1)), Fraction(1, 2)),
    ]


def test_proposal_is_exactly_normalized_and_complete_small_sweep():
    # over every reachable table: probabilities sum to 1 in exact arithmetic,
    # every table is distinct with correct margins, and the support size
    # equals the exact count, so 1/q is an unbiased count estimator;
    # (8,2,2,8) adds eight rows and 1107 tables
    quads = [(m, s, n, m * s // n) for m in range(1, 10) for n in range(1, 10)
             if m * n <= 9 for s in range(1, 5) if (m * s) % n == 0]
    assert len(quads) > 40
    for quad in quads + [(8, 2, 2, 8)]:
        spec = make_spec(*quad)
        paths = enumerate_proposal(spec)
        assert sum(q for _, q in paths) == 1, spec
        assert len(paths) == count_exact(spec), spec
        assert len({t for t, _ in paths}) == len(paths), spec
        for table, q in paths:
            assert q > 0
            assert margins_ok(table, spec), spec


def test_exact_variance_matches_sampled_standard_error():
    # proposal enumeration gives the exact estimator variance; the sampled
    # standard error at n = 20000 must land within 5 percent of it and the
    # mean within 4 true standard errors
    spec = make_spec(3, 4, 3, 4)
    paths = enumerate_proposal(spec)
    count = count_exact(spec)
    var_true = sum(q * (float(1 / q) - count) ** 2 for _, q in paths)
    n = 20000
    rel_se_true = math.sqrt(var_true / n) / count
    est = mc_estimate(spec, n, seed=11)
    assert abs(est.relative_standard_error - rel_se_true) <= 0.05 * rel_se_true
    assert abs(est.mean.value - count) <= 4 * rel_se_true * count


def test_near_deterministic_estimate_2x2():
    # the proposal is close to uniform here, so the weights barely vary
    est = mc_estimate(make_spec(2, 2, 2, 2), 1000, seed=7)
    assert abs(est.mean.value - 3) < 1e-8
    assert est.relative_standard_error < 1e-8
    assert est.effective_sample_size > 999.99
    assert est.sample_count == 1000
    assert est.seed == 7


def test_estimates_are_bitwise_deterministic():
    spec = make_spec(4, 3, 3, 4)
    a = mc_estimate(spec, 5000, seed=3)
    b = mc_estimate(spec, 5000, seed=3)
    assert a == b
    t1, w1 = sample_table(spec, 42)
    t2, w2 = sample_table(spec, 42)
    assert t1 == t2 and w1 == w2


def test_different_seeds_draw_different_tables():
    spec = make_spec(3, 4, 3, 4)
    seen = {sample_table(spec, seed)[0] for seed in range(30)}
    assert len(seen) > 5


def test_seed_change_moves_estimate_within_noise():
    spec = make_spec(4, 3, 3, 4)
    count = count_exact(spec)
    for seed in range(4):
        est = mc_estimate(spec, 4000, seed=seed)
        se = est.relative_standard_error * count
        assert abs(est.mean.value - count) <= 5 * se, seed


def test_chunked_batches_keep_ess_below_n(monkeypatch):
    # a byte budget that splits 25000 samples into 16 chunks
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 1 << 20)
    est = mc_estimate(make_spec(4, 3, 3, 4), 25000, seed=2)
    assert est.sample_count == 25000
    assert 0 < est.effective_sample_size <= 25000
    assert est.standard_error >= 0


def test_sampled_tables_always_have_exact_margins():
    for quad in [(3, 4, 3, 4), (2, 3, 3, 2), (4, 3, 3, 4), (2, 6, 4, 3)]:
        spec = make_spec(*quad)
        for seed in range(10):
            table, logw = sample_table(spec, seed)
            assert margins_ok(table, spec)
            assert math.isfinite(logw)


def test_permutation_spec_samples_cover_both_tables():
    spec = make_spec(2, 1, 2, 1)
    seen = {sample_table(spec, seed)[0] for seed in range(20)}
    assert seen == {((0, 1), (1, 0)), ((1, 0), (0, 1))}


def test_sample_count_validation():
    spec = make_spec(2, 2, 2, 2)
    for bad in (0, 1, -3, 2.0):
        with pytest.raises(InvalidSpecError):
            mc_estimate(spec, bad)


def test_zero_density_rejected():
    with pytest.raises(InvalidSpecError):
        mc_estimate(make_spec(2, 0, 2, 0), 100)
    with pytest.raises(InvalidSpecError):
        sample_table(make_spec(2, 0, 2, 0), 0)
    with pytest.raises(InvalidSpecError):
        enumerate_proposal(make_spec(3, 0, 3, 0))


def test_negative_seed_rejected():
    spec = make_spec(2, 2, 2, 2)
    with pytest.raises(InvalidSpecError):
        mc_estimate(spec, 10, seed=-1)
    with pytest.raises(InvalidSpecError):
        sample_table(spec, -1)


def _warm_up(spec):
    # the first sampler call pays once for numpy's import and its caches;
    # an untraced call keeps that out of a traced peak, whatever ran before
    mc_estimate(spec, 2)


def test_wide_margins_in_bounded_memory():
    # entry weights are built per chunk for the budgets it holds, so nothing
    # grows with the margins outside the chunk budget
    spec = make_spec(2, 3000, 2, 3000)
    _warm_up(spec)
    tracemalloc.start()
    try:
        est = mc_estimate(spec, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.log_mean == pytest.approx(math.log(3001))
    assert peak < 32 << 20


def test_ratio_table_counts_against_the_chunk_budget(monkeypatch):
    # each column's ratio table holds (t+1) x (budgets present) values, and
    # with wide columns and a small budget it is the largest array
    budget = 256 << 10
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", budget)
    spec = make_spec(4, 400, 4, 400)
    _warm_up(spec)
    tracemalloc.start()
    try:
        mc_estimate(spec, 12, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # outside the budget: a handful of float vectors of length s + t
    assert peak < budget + 8 * 8 * (spec.s + spec.t)


def test_chunk_stays_within_its_byte_budget():
    # the m-long per-sample arrays (budgets, their gathered ratio slots, the
    # padded lookahead's extra row) count against the budget, and a column's
    # entry weights are dropped before the next column's are gathered; 5000
    # samples of (30,3,30,3) take at least two full chunks, so one chunk's
    # uniforms must be freed before the next chunk's are drawn
    for quad, samples in [((30, 3, 30, 3), 5000), ((10, 20, 10, 20), 2000)]:
        spec = make_spec(*quad)
        _warm_up(spec)
        tracemalloc.start()
        try:
            mc_estimate(spec, samples, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < montecarlo._CHUNK_BYTES + 8 * 8 * (spec.s + spec.t), (quad, samples)


def test_sample_memory_stays_within_the_budget(monkeypatch):
    # mc_estimate folds each chunk into running sums, so no array grows with
    # the sample count: 400000 samples are 3.2 MB of log weights alone
    budget = 1 << 20
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", budget)
    spec = make_spec(2, 2, 2, 2)
    _warm_up(spec)
    tracemalloc.start()
    try:
        est = mc_estimate(spec, 400_000, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert abs(est.mean.value - 3) < 1e-8
    assert peak < budget + 8 * 8 * (spec.s + spec.t)


def test_log_weight_matches_enumerated_probability():
    # the sampled log weight must equal -log q of the drawn table; beyond
    # 2x2 this covers the multi-row lookahead and the forced last row and
    # last column.  A chunk of 300 samples shares its first column's weights
    # and lookahead across samples; one sample alone does not
    for quad in [(2, 2, 2, 2), (3, 4, 3, 4), (4, 3, 3, 4), (2, 6, 4, 3)]:
        spec = make_spec(*quad)
        by_table = {t: q for t, q in enumerate_proposal(spec)}
        drawn = [sample_table(spec, seed) for seed in range(12)]
        (logw, tables), = montecarlo._weight_chunks(spec, 300, 5, want_tables=True)
        drawn += [(tuple(map(tuple, table.tolist())), w) for table, w in zip(tables, logw)]
        assert len(drawn) == 312
        for table, logw in drawn:
            expected = -math.log(float(by_table[table]))
            assert math.isclose(logw, expected, rel_tol=1e-12,
                                abs_tol=1e-12), (quad, table)


def test_entry_weights_are_spread_count_ratios():
    # ratio[x, slots[i, k]] = C(u - x + nl - 1, nl - 1) / C(u + nl - 1, nl - 1)
    # for budget u = budgets[i, k], and 0 past the budget; on the wide budgets
    # the running product over up to 3000 steps must stay within 1e-13
    top = 12
    small = np.array([range(top + 1), range(top, -1, -1)])
    wide = np.array([[0, 1, 49, 50, 51, 999, 2999, 3000]])
    cases = [(small, t, nl) for t in (4, 15) for nl in range(1, 8)]
    cases += [(wide, t, nl) for t in (50, 3000) for nl in (2, 5, 40)]
    # budgets that exclude 0: the table has a column for each budget present only
    cases += [(np.array([[7, 9, 12]]), t, nl) for t in (3, 15) for nl in (1, 4)]
    for budgets, t, nl in cases:
        ratio, slots = montecarlo._entry_weights(budgets, nl, t)
        assert ratio.shape == (min(t, int(budgets.max())) + 1, len(np.unique(budgets)))
        assert slots.shape == budgets.shape
        a = ratio.take(slots, axis=1)
        assert a.flags.c_contiguous
        for (x, i, k), got in np.ndenumerate(a):
            u = int(budgets[i, k])
            want = (math.comb(u - x + nl - 1, nl - 1) / math.comb(u + nl - 1, nl - 1)
                    if x <= u else 0.0)
            assert math.isclose(got, want, rel_tol=1e-13, abs_tol=0.0), (t, nl, u, x)


def test_entry_weights_memory_spans_the_budgets_range_only():
    # the budget index runs over min..max of the budgets, not 0..max: two
    # budgets near 10^7 take four slots, where an index from 0 held 10^7 + 1
    budgets = np.array([[10**7, 10**7 - 3]])
    montecarlo._entry_weights(budgets, 5, 20)
    tracemalloc.start()
    try:
        ratio, slots = montecarlo._entry_weights(budgets, 5, 20)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ratio.shape == (21, 2) and slots.tolist() == [[1, 0]]
    assert peak < 1 << 20


def test_rescaling_every_row_keeps_weights_and_tables(monkeypatch):
    # the lookahead is rescaled only near overflow, and the column normalizer
    # gets back what each rescale takes out; forced to rescale after every
    # row, the weights are still -log q and the draws do not move
    for quad in [(2, 2, 2, 2), (3, 4, 3, 4), (4, 3, 3, 4), (2, 6, 4, 3)]:
        spec = make_spec(*quad)
        by_table = {t: q for t, q in enumerate_proposal(spec)}
        (_w, tables), = montecarlo._weight_chunks(spec, 300, 5, want_tables=True)
        with monkeypatch.context() as patched:
            patched.setattr(montecarlo, "_RESCALE_BITS", (spec.t + 1).bit_length())
            (logw, forced), = montecarlo._weight_chunks(spec, 300, 5, want_tables=True)
        assert forced.tobytes() == tables.tobytes(), quad
        for table, w in zip(forced, logw):
            expected = -math.log(float(by_table[tuple(map(tuple, table.tolist()))]))
            assert math.isclose(w, expected, rel_tol=1e-12, abs_tol=1e-12), quad


def test_zero_uniform_draws_a_feasible_entry():
    # rng.random() returns exactly 0.0 with probability 2**-53; the draw must
    # then take the first entry of positive weight, not x = 0 when p[0] = 0
    for quad in [(3, 2, 2, 3), (3, 4, 3, 4), (4, 3, 3, 4), (2, 6, 4, 3)]:
        spec = make_spec(*quad)
        m, s, n, t = quad
        tables = np.zeros((1, m, n), dtype=np.int64)
        logw = montecarlo._sample_chunk(m, s, n, t, np.zeros((1, m * n)), tables)
        table = tuple(tuple(int(v) for v in row) for row in tables[0])
        q = dict(enumerate_proposal(spec))[table]
        assert math.isclose(logw[0], -math.log(q), rel_tol=1e-12, abs_tol=1e-12), quad


def test_chunk_size_does_not_change_any_weight(monkeypatch):
    spec = make_spec(4, 3, 3, 4)
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 1 << 40)
    whole = _log_weights(spec, 25000, 9)
    # about a hundred samples per chunk, the last one ragged
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 1 << 16)
    split = _log_weights(spec, 25000, 9)
    assert whole.tobytes() == split.tobytes()


def test_sample_weight_depends_only_on_seed_and_index():
    spec = make_spec(4, 3, 3, 4)
    head = _log_weights(spec, 300, 4)
    assert (_log_weights(spec, 25000, 4)[:300].tobytes()
            == head.tobytes())


def test_cumulative_draw_matches_the_row_loop():
    # 10 samples of (3,100,3,100) draw up to 101 rows each, so their CDFs
    # come from cumsum; in a 2000-sample run the chunk is wider than the
    # draw and the row loop builds them; both add in x order
    spec = make_spec(3, 100, 3, 100)
    few = _log_weights(spec, 10, 5)
    many = _log_weights(spec, 2000, 5)
    assert few.tobytes() == many[:10].tobytes()


def test_draw_on_wide_margins_is_not_a_row_loop():
    # a row loop over the 10**5 + 1 amounts of one draw took 2.1-2.5 s on a
    # 2-vCPU VM
    started = time.perf_counter()
    est = mc_estimate(make_spec(2, 10 ** 5, 2, 10 ** 5), 10)
    assert time.perf_counter() - started < 1
    assert est.log_mean == pytest.approx(math.log(10 ** 5 + 1))


def test_wide_column_totals():
    # t + 1 = 101 and 301 lookahead entries per column
    est = mc_estimate(make_spec(3, 100, 3, 100), 20000)
    assert abs(est.mean.value - 13268976) <= 5 * est.standard_error
    est = mc_estimate(make_spec(2, 300, 2, 300), 1000)
    assert math.isclose(est.mean.value, 301, rel_tol=1e-9)
