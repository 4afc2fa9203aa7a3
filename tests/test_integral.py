"""Torus quadrature cross-check of the counts, plus envelope and peak bounds."""

import itertools
import math
import time
import tracemalloc

import numpy as np
import pytest

from contab.core import InvalidSpecError, ResourceLimitError, make_spec
from contab.exact import count_exact
from contab.integral import (
    arc_step,
    envelope_check,
    integral_numeric,
    integrand,
    modulus_factor,
    peak_integral_check,
    quartic_envelope,
    reconstruct_count,
)

DESK_SPECS = [(2, 2, 2, 2), (2, 1, 2, 1), (2, 3, 3, 2), (1, 2, 2, 1)]

# one spec per density used in the bound checks: 1/30, 1, 5, 100/3
DENSITY_SPECS = [(30, 1, 30, 1), (2, 2, 2, 2), (3, 20, 4, 15), (3, 100, 3, 100)]


def test_integrand_is_one_at_origin():
    for quad in DESK_SPECS:
        spec = make_spec(*quad)
        v = integrand(spec, (0.0,) * spec.m, (0.0,) * spec.n)
        assert v == 1 + 0j


def test_integrand_validates_angles():
    spec = make_spec(2, 2, 2, 2)
    with pytest.raises(InvalidSpecError):
        integrand(spec, (0.0,), (0.0, 0.0))
    with pytest.raises(InvalidSpecError):
        integrand(spec, (0.0, 0.0, 0.0), (0.0, 0.0))
    with pytest.raises(InvalidSpecError):
        integrand(spec, (0.0, math.nan), (0.0, 0.0))
    with pytest.raises(InvalidSpecError):
        integrand(spec, (0.0, 0.0), (math.inf, 0.0))


def test_modulus_identity_at_random_torus_points():
    # |F(theta, phi)| equals the product of the single-angle modulus factors
    # over all cells; 100 random points per density
    rng = np.random.default_rng(20)
    for quad in DENSITY_SPECS:
        spec = make_spec(*quad)
        lam = float(spec.density)
        for _ in range(100):
            theta = rng.uniform(-math.pi, math.pi, spec.m)
            phi = rng.uniform(-math.pi, math.pi, spec.n)
            f_abs = abs(integrand(spec, theta, phi))
            z = np.add.outer(theta, phi).ravel()
            prod = float(np.prod(modulus_factor(z, lam)))
            assert abs(f_abs - prod) <= 1e-12 * prod


def test_phase_shift_invariance():
    # moving mass c from every column angle to every row angle leaves the
    # integrand unchanged because the margins are balanced
    rng = np.random.default_rng(3)
    for quad in [(2, 2, 2, 2), (2, 3, 3, 2)]:
        spec = make_spec(*quad)
        theta = rng.uniform(-math.pi, math.pi, spec.m)
        phi = rng.uniform(-math.pi, math.pi, spec.n)
        base = integrand(spec, theta, phi)
        for c in (0.7, -2.1, math.pi / 3):
            shifted = integrand(spec, theta + c, phi - c)
            assert abs(shifted - base) <= 1e-12 * abs(base)


@pytest.mark.parametrize("quad, p", [((2, 2, 2, 2), 5), ((2, 3, 3, 2), 4),
                                     ((3, 2, 2, 3), 4), ((1, 3, 3, 1), 5),
                                     ((2, 1, 2, 1), 7)])
def test_folded_quadrature_equals_full_grid_sum(quad, p):
    # unconverged grids, so a wrong fold factor or phase cannot hide behind
    # convergence; (3,2,2,3) goes through the transpose
    spec = make_spec(*quad)
    x = -math.pi + 2 * math.pi * np.arange(p) / p
    full = sum(integrand(spec, point[:spec.m], point[spec.m:])
               for point in itertools.product(x, repeat=spec.m + spec.n))
    want = full * (2 * math.pi / p) ** (spec.m + spec.n)
    assert abs(integral_numeric(spec, p) - want) <= 1e-12 * abs(want)


def test_two_pi_periodicity():
    rng = np.random.default_rng(4)
    spec = make_spec(2, 3, 3, 2)
    theta = rng.uniform(-math.pi, math.pi, 2)
    phi = rng.uniform(-math.pi, math.pi, 3)
    base = integrand(spec, theta, phi)
    assert abs(integrand(spec, theta + 2 * math.pi, phi) - base) <= 1e-12 * abs(base)
    assert abs(integrand(spec, theta, phi - 4 * math.pi) - base) <= 1e-12 * abs(base)


@pytest.mark.parametrize("quad", DESK_SPECS)
def test_reconstruction_matches_exact_at_64_points(quad):
    spec = make_spec(*quad)
    exact = count_exact(spec)
    value = integral_numeric(spec, 64)
    count = reconstruct_count(spec, value)
    assert abs(count - exact) <= 1e-12 * exact
    assert abs(value.imag) <= 1e-12 * abs(value.real)


@pytest.mark.parametrize("quad", DESK_SPECS)
def test_reconstruction_converges_spectrally(quad):
    spec = make_spec(*quad)
    exact = count_exact(spec)
    errs = []
    for p in (16, 32, 64):
        value = integral_numeric(spec, p)
        errs.append(abs(reconstruct_count(spec, value) - exact) / exact)
    assert errs[0] < 1e-3
    assert errs[1] < max(errs[0] * 1e-3, 1e-14)
    assert errs[2] <= max(errs[1], 1e-14)


def test_reconstruction_sweep_all_small_shapes():
    # every balanced spec with m + n <= 6 and 1 <= s <= 4; the uniform grid
    # recovers the count plus an alias sum over margin vectors shifted by the
    # grid size, whose leading term is m * (lam/(1+lam))**64; below density 4
    # that is under 1e-6, and for the single-column density-4 family
    # (m, 4, 1, 4m) the error matches the alias term itself to 1%
    for m in range(1, 6):
        for n in range(1, 7 - m):
            for s in range(1, 5):
                if (m * s) % n:
                    continue
                spec = make_spec(m, s, n, m * s // n)
                exact = count_exact(spec)
                value = integral_numeric(spec, 64)
                count = reconstruct_count(spec, value)
                err = abs(count - exact) / exact
                lam = spec.density
                if lam <= 3:
                    assert err <= 1e-6, spec
                else:
                    alias = m * float(lam / (1 + lam)) ** 64
                    assert abs(err - alias) <= 0.01 * alias, spec
                assert abs(value.imag) <= 1e-8 * abs(value.real), spec


def test_wide_shape_contraction():
    # m + n = 8 folds in two middle rows before the closing matrix product
    spec = make_spec(4, 1, 4, 1)
    value = integral_numeric(spec, 16)
    count = reconstruct_count(spec, value)
    assert abs(count - 24) <= 1e-8 * 24


@pytest.mark.traced
def test_one_row_quadrature_builds_one_factor_row():
    # a 2000 x 2000 factor table would be 61 MiB; one row reads only its first
    spec = make_spec(1, 3, 1, 3)
    tracemalloc.start()
    try:
        value = integral_numeric(spec, 2000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20
    assert abs(reconstruct_count(spec, value) - 1) <= 1e-9


@pytest.mark.traced
@pytest.mark.parametrize("quad, p, per_term", [((1, 3, 3, 1), 2 ** 20, 44),
                                               ((2, 2, 2, 2), 2 ** 11, 20)],
                         ids=["one_row", "two_rows"])
def test_quadrature_peak_per_term(quad, p, per_term):
    # the factor table and the phases are each built in one complex buffer:
    # one row peaks at the grid, its one g row and one phase row, 40 bytes a
    # term, and two rows at the p x p table of g, 16 bytes a term
    spec = make_spec(*quad)
    integral_numeric(spec, 4)  # first-call costs stay out of the peak
    tracemalloc.start()
    try:
        value = integral_numeric(spec, p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= per_term * p ** spec.m
    assert abs(reconstruct_count(spec, value) - count_exact(spec)) <= 1e-9 * count_exact(spec)


@pytest.mark.traced
@pytest.mark.parametrize("m, used", [(26, 2**26), (10**18, 2**23 + 1)],
                         ids=["26_rows", "1e18_rows"])
def test_many_rows_stop_at_the_eval_budget(m, used):
    # no row count is refused as such: 26 rows at 2 points are 2^26 terms,
    # past the default budget, and that is raised before any array is built.
    # 2^m with m near 10^18 would not finish forming, so used is then the
    # budget plus one, all the record can say
    started = time.perf_counter()
    tracemalloc.start()
    try:
        with pytest.raises(ResourceLimitError) as err:
            integral_numeric(make_spec(m, 1, m, 1), 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (err.value.kind, err.value.limit, err.value.used) == ("evals", 2**23, used)
    assert peak < 1 << 20
    assert time.perf_counter() - started < 1


def test_eval_budget_enforced():
    spec = make_spec(2, 2, 2, 2)
    with pytest.raises(ResourceLimitError) as err:
        integral_numeric(spec, 64, max_evals=1000)
    assert err.value.kind == "evals"
    assert err.value.limit == 1000
    assert err.value.used == 64**2
    # the message names the spec, as every cap error does
    assert str(err.value) == f"quadrature budget exhausted counting {spec}: 64^2 terms > 1000"


def test_grid_size_validated():
    with pytest.raises(InvalidSpecError):
        integral_numeric(make_spec(2, 2, 2, 2), 1)


def test_reconstruct_overflow_rejected():
    # log scale factor beyond float range must be a hard error, not inf
    with pytest.raises(InvalidSpecError):
        reconstruct_count(make_spec(30, 100, 30, 100), 1 + 0j)


def test_envelope_zero_violations_at_reference_densities():
    for quad in DENSITY_SPECS:
        lam = make_spec(*quad).density
        report = envelope_check(lam, samples=100_000, seed=0)
        assert report.violations == 0
        assert report.passed
        assert report.violating_z == ()
        # the bound is not slack by more than ~1e-6 anywhere on the window
        assert 0 < report.max_slack < 1e-6
        assert report.min_slack > -1e-11
        assert report.samples == 100_000


def test_envelope_seed_independent_conclusion():
    for seed in (1, 7):
        report = envelope_check(1.0, samples=20_000, seed=seed)
        assert report.violations == 0


def test_envelope_tight_at_origin():
    # the bound exponent is 0 at z = 0, so both sides equal 1 there
    assert quartic_envelope(0.0, 1.0) == 0.0
    assert modulus_factor(np.array([0.0]), 1.0)[0] == 1.0


def test_envelope_validation():
    with pytest.raises(InvalidSpecError):
        envelope_check(0.0)
    with pytest.raises(InvalidSpecError):
        envelope_check(-1.0)
    with pytest.raises(InvalidSpecError):
        envelope_check(1.0, samples=0)


def test_arc_step_value():
    assert math.isclose(arc_step(1.0), 2 * math.pi / 12000, rel_tol=1e-15)


def test_peak_ratio_pinned_trajectory():
    # truncated Gaussian-with-quartic integral over the peak arc vs the full
    # Gaussian; the ratio climbs toward 1 from below as K grows
    want = {1e2: 0.175805, 1e3: 0.517789, 1e4: 0.974947, 1e5: 1.000220}
    gaps = []
    for k, ratio in sorted(want.items()):
        report = peak_integral_check(1.0, k)
        assert math.isclose(report.ratio, ratio, rel_tol=1e-4)
        gaps.append(abs(1.0 - report.ratio))
    assert gaps == sorted(gaps, reverse=True)


def test_peak_bound_flags_small_excess_at_large_k():
    # at K = 1e5 the quartic term pushes the ratio 2.2e-4 above 1, just past
    # the bound of 2.0e-4 that C = 10 gives; the report flags it rather than
    # hiding it
    report = peak_integral_check(1.0, 1e5)
    assert report.ratio > 1
    assert not report.within_bound
    assert report.log_ratio > report.log_bound


def test_peak_within_bound_at_moderate_k():
    for k in (1e2, 1e3, 1e4):
        assert peak_integral_check(1.0, k).within_bound
    for lam in (1 / 30, 5.0, 100 / 3):
        assert peak_integral_check(lam, 1e4).within_bound


def test_peak_ratio_at_huge_k():
    # at K = 1e12 the peak is a millionth of the arc wide; the ratio is
    # 1 + 3 (9/4 + 27 A) / (4 A K) to first order in 1/K, with A = 1 at lam = 1
    report = peak_integral_check(1.0, 1e12)
    assert math.isclose(report.ratio - 1.0, 3 * (9 / 4 + 27) / 4e12, rel_tol=1e-2)
    assert math.isclose(report.log_ratio, report.ratio - 1.0, rel_tol=1e-4)


def test_peak_validation():
    for k in (0.0, math.inf, math.nan):
        with pytest.raises(InvalidSpecError):
            peak_integral_check(1.0, k)
    with pytest.raises(InvalidSpecError):
        peak_integral_check(-2.0, 10.0)


def test_modulus_factor_bounded_by_one():
    z = np.linspace(-math.pi, math.pi, 4001)
    for lam in (1 / 30, 1.0, 5.0, 100 / 3):
        f = modulus_factor(z, lam)
        assert np.all(f <= 1.0)
        assert np.all(f > 0.0)
