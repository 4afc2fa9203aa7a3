"""Counting and estimating nonnegative integer matrices with constant margins.

An (m, s, n, t) specification describes m x n matrices of nonnegative
integers whose rows all sum to s and whose columns all sum to t.  The
package counts them exactly (dynamic programming over column deficits),
estimates them (binomial-ratio and saddle-point closed forms, a two-sided
bracket, sequential importance sampling), analyzes the underlying polytope
(Ehrhart polynomial and h-vector), and verifies the contour-integral
identity the estimates rest on.  The `contab` console script exposes all
of it.
"""

from .core import (
    EstimateInterval,
    InvalidSpecError,
    LogEstimate,
    ResourceLimitError,
    TableSpec,
    leading_digits,
    log_binomial,
    make_spec,
)
from .ehrhart import EhrhartPolynomial, ehrhart_polynomial, evaluate, leading_coefficient
from .estimators import (
    CountDecomposition,
    bracket_delta,
    bracket_interval,
    bracket_log_value,
    closed_form_estimate,
    good_estimate,
    good_log,
    high_density_estimate,
    hypothesis_lhs,
    hypothesis_min_coefficient,
    independence_decomposition,
    refined_estimate,
)
from .exact import count_bruteforce, count_exact
from .integral import (
    EnvelopeReport,
    PeakIntegralReport,
    envelope_check,
    integral_numeric,
    integrand,
    modulus_factor,
    peak_integral_check,
    reconstruct_count,
)
from .montecarlo import McEstimate, enumerate_proposal, mc_estimate, sample_table

__version__ = "0.1.0"
