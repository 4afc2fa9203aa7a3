"""Numerical verification of the contour-integral identity behind the estimates.

With lam = s/n = t/m and the entropy factor (lam^-lam (1+lam)^(1+lam))^(mn),
the count M(m, s; n, t) equals

    (2*pi)^-(m+n) * (lam^-lam (1+lam)^(1+lam))^(mn) * I(m, n),

    I = integral over [-pi, pi]^(m+n) of
        exp(-i s sum(theta) - i t sum(phi))
        * prod_{j,k} (1 - lam*(exp(i(theta_j + phi_k)) - 1))^-1.

integral_numeric evaluates I by the tensor-product trapezoid rule, which is
spectrally accurate here because the integrand is analytic and periodic.
Because ms = nt the integrand is unchanged by theta_j -> theta_j + a,
phi_k -> phi_k - a, and a shift by one grid step maps the grid onto itself,
so the sum is p times its part with the first row angle at the first grid
point.  With p points per dimension and m the smaller side (after a
transpose), summing out the column angles leaves h of the other m - 1 row
angles, a chain of matrix products that adds one row angle each; h^n is then
summed against the row phases.  The budget counts the p^m terms summed and is
the only bound on m.  The factor table and each phase row are built in place
in one complex buffer, so the traced peak per term is 40 bytes at m = 1 (the
grid, the one g row and one phase row), 16 at m = 2 (the p x p table of g)
and up to about 16 at m >= 3: the default budget of 2^23 terms peaks below a
third of a GiB.

The modulus of the integrand splits as prod f(theta_j + phi_k) with
f(z) = (1 + 4A(1 - cos z))^-1/2 and A = lam(1+lam)/2.  envelope_check
verifies by sampling that f stays below its quartic Gaussian envelope
exp(-A z^2 + (A/12 + A^2) z^4) on |z| <= (1/10)(1+lam)^-1.

peak_integral_check integrates exp(K*g(x)) with
g(x) = -A x^2 + (9A/4 + 27A^2) x^4 over the central 60 arcs of the circle
split into ceil(6000(1+lam)) arcs, by a 128-node Gauss-Legendre rule over
the part of that range within 12 peak widths, and compares against
sqrt(pi/(A K)).
The underlying claim is one sided (the ratio is bounded by
exp(C*(K^-1 + (A K)^-1))); the ratio itself is reported because the
truncated range genuinely pushes it below 1.

numpy is imported inside the functions that compute with arrays, so
`import contab` and the subcommands that never integrate do not pay for it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .core import Budget, InvalidSpecError, TableSpec, cell_entropy, gaussian_coeff

DEFAULT_MAX_EVALS = 2 ** 23
PEAK_BOUND_CONSTANT = 10.0   # C in the peak-width bound exp(C*(K^-1 + (A K)^-1))
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
    import numpy as np
    a = gaussian_coeff(float(lam))
    return (1.0 + 4.0 * a * (1.0 - np.cos(z))) ** -0.5


def integral_numeric(spec: TableSpec, points_per_dim: int, *,
                     max_evals: int = DEFAULT_MAX_EVALS) -> complex:
    """Trapezoid value of I on a uniform (points_per_dim)^(m+n) grid.

    max_evals caps the terms the contraction sums, p^m with p points per
    dimension and m the smaller side; past it ResourceLimitError reports p^m,
    or max_evals + 1 where p^m has over 2L + 64 bits, L those of max_evals.
    """
    import numpy as np
    budget = Budget(spec, evals=max_evals)
    lam = float(spec.positive_density())
    if points_per_dim < 2:
        raise InvalidSpecError(f"need at least 2 points per dim, got {points_per_dim}")
    sp = spec if spec.m <= spec.n else spec.transpose()
    m, s, n, t = sp.m, sp.s, sp.n, sp.t
    p = points_per_dim
    # p ** m would not finish for m near 10^18; past 2L + 64 bits, L those of
    # max_evals, it is over the budget anyway (p >= 2), and used says only that
    used = p ** m if m * p.bit_length() <= 2 * max_evals.bit_length() + 64 else max_evals + 1
    if used > max_evals:
        raise budget.error("evals", used, f"{p}^{m} terms > {max_evals}")

    x = -math.pi + TWO_PI * np.arange(p) / p

    def phases(k: int):
        """exp(-i ((k x) mod 2 pi)) on the grid, built in one complex buffer."""
        out = np.zeros(p, complex)
        np.multiply(k, x, out=out.imag)
        np.remainder(out.imag, TWO_PI, out=out.imag)
        np.negative(out.imag, out=out.imag)
        return np.exp(out, out=out)

    # wide margins overflow the floats (1 + lam rounds to lam, h ** n passes
    # 1e308), and the sum is then not finite; that is raised below, so
    # numpy's warnings on the way would only add lines to stderr
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        # one factor g(theta + phi) on the grid, built in its own buffer; one
        # row reads only theta = x_0
        g = np.zeros((1 if m == 1 else p, p), complex)
        np.add.outer(x[:1] if m == 1 else x, x, out=g.imag)
        np.exp(g, out=g)
        g *= -lam
        g += 1.0 + lam
        np.divide(1.0, g, out=g)
        # h(theta) = sum_b w_b prod_j g(theta_j + x_b) with theta_1 = x_0 and
        # w the column phase; one row is g itself, so w scales it in place
        h = g if m == 1 else g[:1].copy()
        h *= phases(t)
        for _ in range(m - 2):
            h = (h[:, None, :] * g).reshape(-1, p)
        h = h.sum(axis=1) if m == 1 else h @ g.T
        h **= n  # in place, so the peak does not hold h twice
        # I = (2 pi / p)^(m+n) sum_theta (prod_j u_{a_j}) h(theta)^n, u the row
        # phase, which the diagonal rotation folds to p u_0 times the sum over
        # the free angles
        u = phases(s)
        for _ in range(m - 1):
            h = h.reshape(-1, p) @ u
        value = complex(p * u[0] * h[0] * (TWO_PI / p) ** (m + n))
    if not (math.isfinite(value.real) and math.isfinite(value.imag)):
        raise OverflowError(f"the quadrature sum is {value}")
    return value


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
    import numpy as np
    a = gaussian_coeff(float(lam))
    lam_f = float(lam)
    if samples < 1:
        raise InvalidSpecError(f"need at least one sample, got {samples}")
    rng = np.random.default_rng(seed)
    half_range = 0.1 / (1.0 + lam_f)
    z = rng.uniform(-half_range, half_range, size=samples)
    f = modulus_factor(z, lam)
    # products, not a generic pow: z ** 4 took over half of the call
    z2 = z * z
    envelope = np.exp(-a * z2 + (a / 12.0 + a * a) * (z2 * z2))
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

    @property
    def within_bound(self) -> bool:
        return self.log_ratio <= self.log_bound


def peak_integral_check(lam, k: float = 1e4) -> PeakIntegralReport:
    """Check integral of exp(K g(x)) over |x| <= 30*arc_step against the peak value."""
    import numpy as np
    a = gaussian_coeff(float(lam))
    if not 0 < k < math.inf:
        raise InvalidSpecError(f"need finite K > 0, got {k}")
    # On the arc (9/4 + 27A) x^2 <= 0.016, so K g(x) <= -0.98 A K x^2: past
    # 12 peak widths 1/sqrt(A K) the integrand is below e^-141, and a
    # Gauss-Legendre rule over the rest resolves the peak at any K
    half = min(30.0 * arc_step(lam), 12.0 / math.sqrt(a * k))
    nodes, weights = np.polynomial.legendre.leggauss(128)
    value = half * float(weights @ np.exp(k * quartic_envelope(half * nodes, lam)))
    reference = math.sqrt(math.pi / (a * k))
    ratio = value / reference
    return PeakIntegralReport(
        lam=float(lam), k=float(k), ratio=ratio, log_ratio=math.log(ratio),
        log_bound=PEAK_BOUND_CONSTANT * (1.0 / k + 1.0 / (a * k)))
