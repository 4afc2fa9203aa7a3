"""Numerical verification of the contour-integral identity behind the estimates.

With lam = s/n = t/m and the entropy factor (lam^-lam (1+lam)^(1+lam))^(mn),
the count M(m, s; n, t) equals

    (2*pi)^-(m+n) * (lam^-lam (1+lam)^(1+lam))^(mn) * I(m, n),

    I = integral over [-pi, pi]^(m+n) of
        exp(-i s sum(theta) - i t sum(phi))
        * prod_{j,k} (1 - lam*(exp(i(theta_j + phi_k)) - 1))^-1.

integral_numeric evaluates I by the tensor-product trapezoid rule, which is
spectrally accurate here because the integrand is analytic and periodic.
The integrand factors through the pairwise angle sums, so the grid sum
collapses to an (m+1)-dimensional contraction and desk-scale grids are
cheap; the advertised budget is still counted as points^(m+n) because that
is the conceptual evaluation count the caller reasons about.

The modulus of the integrand splits as prod f(theta_j + phi_k) with
f(z) = (1 + 4A(1 - cos z))^-1/2 and A = lam(1+lam)/2.  envelope_check
verifies by sampling that f stays below its quartic Gaussian envelope
exp(-A z^2 + (A/12 + A^2) z^4) on |z| <= (1/10)(1+lam)^-1.

peak_integral_check integrates exp(K*g(x)) with
g(x) = -A x^2 + (9A/4 + 27A^2) x^4 over the central 60 arcs of the circle
split into ceil(6000(1+lam)) arcs, and compares against sqrt(pi/(A K)).
The underlying claim is one sided (the ratio is bounded by
exp(C*(K^-1 + (A K)^-1))); the ratio itself is reported because the
truncated range genuinely pushes it below 1.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad

from .core import (InvalidSpecError, ResourceLimitError, TableSpec, cell_entropy,
                   gaussian_coeff)

DEFAULT_MAX_EVALS = 10 ** 9
MAX_DIMENSIONS = 6
TWO_PI = 2.0 * math.pi


def integrand(spec: TableSpec, theta, phi) -> complex:
    """The integrand F at a single torus point (theta: m angles, phi: n angles).

    Angle sums are reduced modulo 2*pi before the complex exponential so the
    phase stays accurate for large margins.
    """
    lam = float(spec.positive_density())
    theta = [float(x) for x in theta]
    phi = [float(x) for x in phi]
    if len(theta) != spec.m or len(phi) != spec.n:
        raise InvalidSpecError(
            f"expected {spec.m} row angles and {spec.n} column angles, "
            f"got {len(theta)} and {len(phi)}")
    if not all(map(math.isfinite, theta + phi)):
        raise InvalidSpecError("torus angles must be finite")
    phase = math.fmod(spec.s * math.fsum(theta) + spec.t * math.fsum(phi), TWO_PI)
    value = cmath.exp(-1j * phase)
    for th in theta:
        for ph in phi:
            w = 1.0 + lam - lam * cmath.exp(1j * (th + ph))
            # |w| >= 1/(1+2 lam) > 0 on the torus, but guard anyway
            if w == 0:
                raise ArithmeticError("integrand factor vanished on the torus")
            value /= w
    return value


def modulus_factor(z, lam) -> float:
    """f(z) = (1 + 4A(1 - cos z))^-1/2, the modulus of one integrand factor."""
    a = gaussian_coeff(float(lam))
    return (1.0 + 4.0 * a * (1.0 - np.cos(z))) ** -0.5


def integral_numeric(spec: TableSpec, points_per_dim: int, *,
                     max_evals: int | None = None,
                     max_dims: int = MAX_DIMENSIONS) -> complex:
    """Trapezoid value of I on a uniform (points_per_dim)^(m+n) grid."""
    lam = float(spec.positive_density())
    max_evals = DEFAULT_MAX_EVALS if max_evals is None else max_evals
    if spec.m + spec.n > max_dims:
        raise InvalidSpecError(
            f"torus quadrature restricted to m+n <= {max_dims}, "
            f"got {spec.m}+{spec.n} = {spec.m + spec.n}")
    if points_per_dim < 2:
        raise InvalidSpecError(f"need at least 2 points per dim, got {points_per_dim}")
    conceptual = points_per_dim ** (spec.m + spec.n)
    if conceptual > max_evals:
        raise ResourceLimitError(
            f"quadrature budget exceeded: {points_per_dim}^{spec.m + spec.n} "
            f"= {conceptual} grid evaluations > {max_evals}",
            kind="evals", limit=max_evals, used=conceptual)

    sp = spec if spec.m <= spec.n else spec.transpose()
    m, s, n, t = sp.m, sp.s, sp.n, sp.t
    p = points_per_dim
    x = -math.pi + TWO_PI * np.arange(p) / p
    # one factor as a function of the two grid angles
    g = 1.0 / (1.0 + lam - lam * np.exp(1j * np.add.outer(x, x)))
    w = np.exp(-1j * ((t * x) % TWO_PI))       # column phase
    u = np.exp(-1j * ((s * x) % TWO_PI))       # row phase

    # h(theta) = sum_b w_b prod_j g(theta_j + x_b); then
    # I = (2 pi / p)^(m+n) sum_theta (prod_j u_{a_j}) h(theta)^n
    row_axes = [chr(ord("a") + k) for k in range(m)]
    h = np.einsum(",".join(f"{ax}z" for ax in row_axes) + ",z->" + "".join(row_axes),
                  *([g] * m), w, optimize=True)
    total = np.einsum(",".join(row_axes) + "," + "".join(row_axes) + "->",
                      *([u] * m), h ** n, optimize=True)
    return complex(total * (TWO_PI / p) ** (m + n))


def reconstruct_count(spec: TableSpec, integral_value: complex) -> float:
    """Turn a numeric integral into the count it represents."""
    lam = spec.positive_density()
    log_scale = (spec.m * spec.n * cell_entropy(lam)
                 - (spec.m + spec.n) * math.log(TWO_PI))
    if log_scale > 700.0:
        raise InvalidSpecError(
            "reconstructed count overflows a float; this check is for desk-size specs")
    return math.exp(log_scale) * integral_value.real


@dataclass(frozen=True)
class EnvelopeReport:
    """Sampled comparison of the modulus factor against its quartic envelope."""

    lam: float
    samples: int
    violations: int
    violating_z: tuple[float, ...]   # sample points where the bound failed
    max_slack: float     # max of envelope - f (how loose it gets)
    min_slack: float     # min of envelope - f (negative only on violation)

    @property
    def passed(self) -> bool:
        return self.violations == 0


def envelope_check(lam, samples: int = 100_000, seed: int = 0) -> EnvelopeReport:
    """Sample |z| <= (1/10)(1+lam)^-1 and compare f(z) to its envelope.

    A violation means f < 0 or f > envelope * (1 + 1e-12); the slack shrinks
    like z^6 near the origin, far below double roundoff, so an exact float
    comparison would flag pure rounding noise.
    """
    a = gaussian_coeff(float(lam))
    lam_f = float(lam)
    if samples < 1:
        raise InvalidSpecError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    half_range = 0.1 / (1.0 + lam_f)
    z = rng.uniform(-half_range, half_range, size=samples)
    f = modulus_factor(z, lam)
    envelope = np.exp(-a * z ** 2 + (a / 12.0 + a * a) * z ** 4)
    slack = envelope - f
    bad = (f > envelope * (1.0 + 1e-12)) | (f < 0.0)
    return EnvelopeReport(lam=lam_f, samples=samples,
                          violations=int(np.count_nonzero(bad)),
                          violating_z=tuple(float(v) for v in z[bad][:32]),
                          max_slack=float(slack.max()), min_slack=float(slack.min()))


def quartic_envelope(x, lam) -> float:
    """g(x) = -A x^2 + (9A/4 + 27A^2) x^4 from the peak-width analysis."""
    a = gaussian_coeff(float(lam))
    return -a * x ** 2 + (2.25 * a + 27.0 * a * a) * x ** 4


def arc_step(lam) -> float:
    """Grid step 2*pi/N with the circle cut into N = ceil(6000(1+lam)) arcs."""
    return TWO_PI / math.ceil(6000.0 * (1.0 + float(lam)))


@dataclass(frozen=True)
class PeakIntegralReport:
    """Quadrature of exp(K g) over the central 60 arcs vs sqrt(pi/(A K))."""

    lam: float
    k: float
    ratio: float
    log_ratio: float
    log_bound: float      # C * (K^-1 + (A K)^-1)
    envelope_constant: float

    @property
    def within_bound(self) -> bool:
        return self.log_ratio <= self.log_bound


def peak_integral_check(lam, k: float, envelope_constant: float = 10.0) -> PeakIntegralReport:
    """Check integral of exp(K g(x)) over |x| <= 30*arc_step against the peak value."""
    a = gaussian_coeff(float(lam))
    if k <= 0:
        raise InvalidSpecError(f"need K > 0, got {k}")
    half = 30.0 * arc_step(lam)
    value, _err = quad(lambda x: math.exp(k * quartic_envelope(x, lam)),
                       -half, half, limit=200)
    reference = math.sqrt(math.pi / (a * k))
    ratio = value / reference
    return PeakIntegralReport(
        lam=float(lam), k=float(k), ratio=ratio, log_ratio=math.log(ratio),
        log_bound=envelope_constant * (1.0 / k + 1.0 / (a * k)),
        envelope_constant=envelope_constant)
