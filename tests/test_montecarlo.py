"""Sequential importance sampling: unbiasedness, variance, determinism."""

import math
import tracemalloc
from fractions import Fraction

import pytest

from contab import montecarlo
from contab.core import InvalidSpecError, make_spec
from contab.exact import count_exact
from contab.montecarlo import enumerate_proposal, mc_estimate, sample_table


def margins_ok(table, spec):
    rows = [sum(r) for r in table]
    cols = [sum(c) for c in zip(*table)]
    return rows == [spec.s] * spec.m and cols == [spec.t] * spec.n


def test_forced_specs_have_single_unit_weight_path():
    # one row, or one column: the table is fully determined
    for quad in [(1, 6, 3, 2), (1, 2, 2, 1), (2, 4, 1, 8), (1, 5, 5, 1)]:
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
    # equals the exact count, so 1/q is an unbiased count estimator
    checked = 0
    for m in range(1, 10):
        for n in range(1, 10):
            if m * n > 9:
                continue
            for s in range(1, 5):
                if (m * s) % n:
                    continue
                spec = make_spec(m, s, n, m * s // n)
                paths = enumerate_proposal(spec)
                assert sum(q for _, q in paths) == 1, spec
                assert len(paths) == count_exact(spec), spec
                assert len({t for t, _ in paths}) == len(paths), spec
                for table, q in paths:
                    assert q > 0
                    assert margins_ok(table, spec), spec
                checked += 1
    assert checked > 40


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


def test_wide_margins_in_bounded_memory():
    # entry weights are built per chunk for the budgets it holds, so nothing
    # grows with the margins outside the chunk budget
    tracemalloc.start()
    try:
        est = mc_estimate(make_spec(2, 3000, 2, 3000), 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert est.log_mean == pytest.approx(math.log(3001))
    assert peak < 32 << 20


def test_log_weight_matches_enumerated_probability():
    # the sampled log weight must equal -log q of the drawn table; beyond
    # 2x2 this covers the multi-row lookahead and the forced last row and
    # last column
    for quad in [(2, 2, 2, 2), (3, 4, 3, 4), (4, 3, 3, 4), (2, 6, 4, 3)]:
        spec = make_spec(*quad)
        by_table = {t: q for t, q in enumerate_proposal(spec)}
        for seed in range(12):
            table, logw = sample_table(spec, seed)
            expected = -math.log(float(by_table[table]))
            assert math.isclose(logw, expected, rel_tol=1e-12,
                                abs_tol=1e-12), (quad, seed)


def test_chunk_size_does_not_change_any_weight(monkeypatch):
    spec = make_spec(4, 3, 3, 4)
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 1 << 40)
    whole = montecarlo._batch_log_weights(spec, 25000, 9)
    # about a hundred samples per chunk, the last one ragged
    monkeypatch.setattr(montecarlo, "_CHUNK_BYTES", 1 << 16)
    split = montecarlo._batch_log_weights(spec, 25000, 9)
    assert whole.tobytes() == split.tobytes()


def test_sample_weight_depends_only_on_seed_and_index():
    spec = make_spec(4, 3, 3, 4)
    head = montecarlo._batch_log_weights(spec, 300, 4)
    assert (montecarlo._batch_log_weights(spec, 25000, 4)[:300].tobytes()
            == head.tobytes())


def test_wide_column_totals():
    # t + 1 = 101 and 301 lookahead entries per column
    est = mc_estimate(make_spec(3, 100, 3, 100), 20000)
    assert abs(est.mean.value - 13268976) <= 5 * est.standard_error
    est = mc_estimate(make_spec(2, 300, 2, 300), 1000)
    assert math.isclose(est.mean.value, 301, rel_tol=1e-9)
