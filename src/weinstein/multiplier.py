"""Dilated-symbol multiplier operators and their diagnostics.

An operator in this family multiplies the transform of its argument by a
dilated symbol m(sigma * .) and transforms back.  The family is governed
by the admissibility condition: the dilation average

    integral over sigma of |m(sigma x)|^q  d(sigma)/sigma

should equal 1 at almost every frequency x (q = 2 in the default
"modulus_squared" variant, q = 1 in the "modulus" variant, which is kept
selectable for fidelity experiments but fails for the standard bump).

Every symbol is radial and owned by its radius profile u -> m(u): the
spectral route evaluates that profile at the dilated radii sigma*|x|, so
no symbol is ever interpolated.  A sweep over the sigma grid runs each
scale on the transform's FFT and radial-product core and keeps only the
moments of |T_sigma phi|^2.  The kernel route (``kernel_psi`` /
``apply_multiplier_kernel``) realizes the same operator through an
explicit integral kernel with the dilation moved into analytically
evaluated kernel arguments, applied through the kernel's per-axis factors
on the tensor grid; it cross-validates the spectral route and exhibits the
sigma^{-(2*alpha+d+2)} prefactor bound used by the concentration
certificates.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _accel
from .core import Field, Grid, SigmaGrid, build_sigma_grid, norm_p
from .errors import SigmaRangeError
from .transform import (_apply_factors, _fft_gemm, _kernel_factors,
                        _radial_first, _synthesis_source, forward, inverse)

ADMISSIBILITY_VARIANTS = ("modulus", "modulus_squared")

# Widening of a derived sigma range in ln(sigma) beyond the tail brackets.
# Below, the profile's u^2 edge (u^4 for quadratic_bump) drops to ~1e-12;
# above, its super-exponential decay moves off the Gregory edge nodes.
LOG_PAD_BELOW = 5.0
LOG_PAD_ABOVE = 1.0
# Probe radii per period of log-radius, and the scale counts searched.
PROBES_PER_PERIOD = 16
MIN_SIGMA_COUNT = 16
MAX_SIGMA_COUNT = 1024


@dataclass(frozen=True)
class MultiplierProfile:
    """A radial symbol m(|x|) on a frequency grid plus its dilation scales.

    The symbol is owned by its radius profile ``radial_profile`` (a
    vectorized callable u -> m(u)); ``symbol`` is that profile sampled on
    ``grid``, and dilation evaluates the profile at the dilated radii.
    Interpolating the samples instead would saturate near the coordinate
    origin, where a |x|-type symbol is never resolved, and the scale
    integral d(sigma)/sigma amplifies that floor without bound.
    """

    grid: Grid
    radial_profile: object           # radius profile u -> m(u)
    sigma_grid: SigmaGrid
    admissibility_variant: str = "modulus_squared"
    tail_mass: object = None         # optional closed-form out-of-range mass

    def __post_init__(self):
        if self.admissibility_variant not in ADMISSIBILITY_VARIANTS:
            raise ValueError(
                f"unknown admissibility variant {self.admissibility_variant!r}"
            )

    @cached_property
    def radius(self):
        return np.sqrt(self.grid.radius_sq)

    @cached_property
    def symbol(self):
        return Field(grid=self.grid, values=self.radial_profile(self.radius))

    @property
    def power(self):
        return 1.0 if self.admissibility_variant == "modulus" else 2.0

    @cached_property
    def defect_report(self):
        """Admissibility defect report, cached (the sigma sweep over all
        dilations is the expensive part)."""
        return admissibility_defect(self)


def dilate_symbol(profile, sigma):
    """The dilated symbol m(sigma * .) on the frequency grid: the radius
    profile evaluated at the dilated radii.  sigma = 1 returns the symbol."""
    if sigma <= 0:
        raise ValueError(f"dilation scale must be positive, got {sigma}")
    if sigma == 1.0:
        return profile.symbol
    return Field(grid=profile.grid,
                 values=profile.radial_profile(sigma * profile.radius))


@dataclass(frozen=True)
class AdmissibilityReport:
    """Per-frequency-point defect of the dilation average against 1."""

    defect: Field
    max_defect: float
    mean_defect: float
    variant: str


def admissibility_defect(profile):
    """|sum_j w_j |m(sigma_j x)|^q - 1| per frequency point.

    The integral runs over the configured sigma range only; mass of the
    dilation profile outside it shows up as defect (use a wide range, or
    the closed-form tail estimate of a constructed profile, to separate
    truncation from quadrature).  Radial nodes are strictly positive, so
    the degenerate point x = 0 never occurs on the grid.
    """
    q = profile.power
    acc = np.zeros(profile.grid.shape)
    for sigma, lw in zip(profile.sigma_grid.sigmas, profile.sigma_grid.log_weights):
        acc += lw * np.abs(profile.radial_profile(sigma * profile.radius)) ** q
    defect = np.abs(acc - 1.0)
    return AdmissibilityReport(
        defect=Field(grid=profile.grid, values=defect),
        max_defect=float(defect.max()),
        mean_defect=float(defect.mean()),
        variant=profile.admissibility_variant,
    )


def apply_multiplier(plan, profile, sigma, phi):
    """T phi = inverse(m(sigma .) * forward(phi)); linear in phi."""
    if sigma <= 0:
        raise ValueError(f"dilation scale must be positive, got {sigma}")
    F = forward(plan, phi)
    dil = dilate_symbol(profile, float(sigma))
    return inverse(plan, Field(grid=plan.grid_out, values=dil.values * F.values))


@dataclass(frozen=True)
class SweepStats:
    """One multiplier sweep of a field phi, reduced as it ran.

    ``moments[j, i]`` = sum_x w |x|^{2 betas[i]} |T_{sigma_j} phi|^2 is all
    that the norm identity and the certificates read of the sweep.  phi's
    ``transform`` is kept, so a field is transformed once for all of its
    certificates, and so is its energy-weighted admissibility defect.
    """

    profile: MultiplierProfile
    weights_out: object              # WeightField of the plan's frequency grid
    betas: tuple
    moments: np.ndarray              # (n_sigma, len(betas))
    transform: Field

    def column(self, beta):
        """Per-scale moments of one swept beta, shape (n_sigma,)."""
        if float(beta) not in self.betas:
            raise ValueError(f"beta={beta:g} was not swept (have {self.betas})")
        return self.moments[:, self.betas.index(float(beta))]

    @cached_property
    def admissibility_defect(self):
        """Admissibility defect (in the profile's variant) averaged against
        the energy density |F|^2 of phi's transform: the aggregate that
        controls the dilation-averaged norm identity, and that the
        hypothesis certificates gate on."""
        dens = self.weights_out.weights * np.abs(self.transform.values) ** 2
        total = dens.sum()
        if total == 0:
            raise ValueError("zero field has no energy distribution")
        defect = self.profile.defect_report.defect.values.real
        return float((dens * defect).sum() / total)


def multiplier_sweep(plan, profile, phi, betas=(0.0,)):
    """Sweep the family over the profile's sigma grid, reducing each output
    |T_sigma phi|^2 against the matrix of w |x|^{2 beta} as soon as it is
    computed, so no (n_sigma, size) array is formed.

    phi is transformed once, and the radial-first synthesis block of its
    transform, the dilated radii and the weights are laid out once.  Per
    scale, the real profile values m(sigma r) scale that block and the
    transform's FFT and radial product run on it (``_fft_gemm``); the
    per-Euclidean-index phase that would follow is unimodular and cannot
    change |T|^2, so it is skipped, and so is the move back to grid layout.
    """
    betas = tuple(float(b) for b in betas)
    F = forward(plan, phi)
    src = _synthesis_source(plan, F)
    radius = _radial_first(profile.radius, dtype=np.float64)
    rsq = _radial_first(plan.grid_in.radius_sq, dtype=np.float64).reshape(-1)
    w = _radial_first(plan.weights_in.weights, dtype=np.float64).reshape(-1)
    # one row per real and imaginary part of each output value
    wb = np.repeat(np.stack([w * rsq ** b for b in betas], axis=1), 2, axis=0)
    moments = np.empty((len(profile.sigma_grid), len(betas)))
    for j, sigma in enumerate(profile.sigma_grid.sigmas):
        out = _fft_gemm(plan, profile.radial_profile(sigma * radius) * src, +1)
        moments[j] = (out * out).reshape(-1) @ wb
    if not np.all(np.isfinite(moments)):
        raise ValueError("multiplier sweep produced non-finite moments")
    return SweepStats(profile=profile, weights_out=plan.weights_out,
                      betas=betas, moments=moments, transform=F)


def multiplier_densities(plan, profile, phi):
    """The densities |T_sigma phi|^2 as an (n_sigma, size) matrix, one
    ``apply_multiplier`` per scale: the dense oracle for the sweep's
    moments.  No production path calls it."""
    return np.array([np.abs(apply_multiplier(plan, profile, s, phi).flat) ** 2
                     for s in profile.sigma_grid.sigmas])


def multiplier_plancherel_defect(plan, profile, phi, stats=None):
    """Relative defect of the dilation-averaged norm identity

        sum_j w_j ||T_{sigma_j} phi||^2  =  ||phi||^2,

    read from ``stats`` (phi's ``multiplier_sweep``; swept when omitted).
    """
    n2 = norm_p(phi, plan.weights_in, 2) ** 2
    if n2 == 0:
        raise ValueError("phi must be nonzero")
    stats = stats or multiplier_sweep(plan, profile, phi)
    total = float(profile.sigma_grid.log_weights @ stats.column(0.0))
    return abs(total - n2) / n2


# ---------------------------------------------------------------------------
# kernel route
# ---------------------------------------------------------------------------

def kernel_psi(profile, plan, sigma, x, y):
    """The integral kernel value at a single point pair

        Psi(x, y) = sum_u w_u m(u) K(u, y/sigma) K(u, (-x', x_r)/sigma)

    with K the analysis kernel; the dilation lives in the kernel arguments,
    so the symbol itself is never interpolated."""
    if sigma <= 0:
        raise ValueError(f"dilation scale must be positive, got {sigma}")
    x = np.asarray(x, dtype=np.float64).reshape(-1) / sigma
    y = np.asarray(y, dtype=np.float64).reshape(-1) / sigma
    d = profile.grid.params.d
    x_reflected = np.concatenate([-x[:d], x[d:]])
    k = _accel.kernel_matrix(profile.grid.points, np.stack([y, x_reflected]),
                             profile.grid.params.alpha, sign=-1.0)
    # frequency-side quadrature weights under the plan's normalization
    wm = plan.weights_out.flat * profile.symbol.flat
    return complex(k[:, 1] @ (wm * k[:, 0]))


def apply_multiplier_kernel(plan, profile, sigma, phi, region_mask=None):
    """Kernel-route application

        (T phi)(x) = sigma^{-(2 alpha + d + 2)} * sum_y w_y Psi(x, y) phi(y),

    optionally restricted to chi_Omega * phi via ``region_mask``.  On the
    grid the reflected kernel is the conjugate one, K(u, (-x', x_r)/sigma)
    = conj K(u, x/sigma), so with A = K(u, x/sigma) the sum is

        sigma^{-deg} * A^H ((w_out m) * (A (w_in * phi))),

    with A applied through its per-axis factors on the tensor grids (and
    A^H through their conjugate transposes): neither Psi nor A is formed.
    The modulus of the result obeys
    |T(chi phi)(x)| <= sigma^{-deg} ||m||_1 ||phi||_2 sqrt(mu(Omega)).
    """
    if sigma <= 0:
        raise ValueError(f"dilation scale must be positive, got {sigma}")
    grid = phi.grid
    factors = _kernel_factors(plan, -1.0, sigma)
    vals = phi.values if region_mask is None \
        else phi.values * np.reshape(region_mask, grid.shape)
    wm = plan.weights_out.weights * profile.symbol.values
    inner = wm * _apply_factors(factors, plan.weights_in.weights * vals)
    out = _apply_factors([m.conj().T for m in factors], inner)
    deg = grid.params.homogeneity_degree
    return Field(grid=grid, values=sigma ** (-deg) * out)


# ---------------------------------------------------------------------------
# admissible profile construction
# ---------------------------------------------------------------------------

def gaussian_bump_profile(u):
    """Radial profile sqrt(2) u exp(-u^2/2); its squared dilation average is 1."""
    u = np.asarray(u, dtype=np.float64)
    return math.sqrt(2.0) * u * np.exp(-0.5 * u * u)


def gaussian_bump_tail_mass(u_lo, u_hi):
    """Squared-profile mass of the gaussian bump outside [u_lo, u_hi]."""
    return 1.0 - (math.exp(-u_lo ** 2) - math.exp(-u_hi ** 2))


def quadratic_bump_profile(u):
    """Radial profile sqrt(2) u^2 exp(-u^2/2): admissible like the linear
    bump but smooth at the origin (|x|^2 is a polynomial), so multiplier
    outputs decay fast in space instead of carrying the cone's algebraic
    tails."""
    u = np.asarray(u, dtype=np.float64)
    return math.sqrt(2.0) * u * u * np.exp(-0.5 * u * u)


def quadratic_bump_tail_mass(u_lo, u_hi):
    """Squared-profile mass of the quadratic bump outside [u_lo, u_hi]."""
    def anti(u):
        return 0.0 if math.isinf(u) else (u ** 2 + 1.0) * math.exp(-u ** 2)

    return 1.0 - (anti(u_lo) - anti(u_hi))


def radial_admissibility_quadrature(radial_profile, sg, radius, q=2.0):
    """1-D dilation-average quadrature sum_j w_j |g(sigma_j * radius)|^q.

    This is the oracle the sampled-symbol defect is validated against: no
    grid interpolation enters, only the log-grid rule.  ``radius`` may be
    an array of radii, giving one sum per radius.
    """
    u = np.multiply.outer(np.asarray(radius, dtype=np.float64), sg.sigmas)
    out = np.abs(radial_profile(u)) ** q @ sg.log_weights
    return float(out) if out.ndim == 0 else out


PROFILE_FAMILIES = {
    # profile, closed-form squared-mass outside [u_lo, u_hi]
    "gaussian_bump": (gaussian_bump_profile, gaussian_bump_tail_mass),
    "quadratic_bump": (quadratic_bump_profile, quadratic_bump_tail_mass),
}


def _tail_bracket(tail, target, start, direction):
    """Smallest scale (direction=+1) or largest (direction=-1) at which a
    monotone tail-mass function drops below ``target``; bisection after a
    doubling bracket."""
    u = start
    for _ in range(200):
        if tail(u) <= target:
            break
        u = u * 2.0 if direction > 0 else u / 2.0
    else:
        raise SigmaRangeError("could not bracket the profile's tail mass")
    lo, hi = (u / 2.0, u) if direction > 0 else (u, u * 2.0)
    for _ in range(80):
        mid = math.sqrt(lo * hi)
        # keep the side where the tail still exceeds the target
        if (tail(mid) <= target) == (direction > 0):
            hi = mid
        else:
            lo = mid
    return hi if direction > 0 else lo


def _probe(profile_fn, tail_fn, sg, x_lo, x_hi):
    """Quadrature and closed-form out-of-range mass at the radii a sigma
    grid is checked on: one period h (the grid's log-step) of log-radius
    above x_lo, where the trapezoid error is h-periodic once the integrand
    is negligible at both ends of the range, plus sqrt(x_lo*x_hi) and x_hi."""
    h = math.log(sg.sigma_max / sg.sigma_min) / (len(sg) - 1)
    steps = np.exp(h * np.arange(PROBES_PER_PERIOD) / PROBES_PER_PERIOD)
    radii = np.append(np.minimum(x_lo * steps, x_hi),
                      [math.sqrt(x_lo * x_hi), x_hi])
    quad = radial_admissibility_quadrature(profile_fn, sg, radii)
    tail = np.array([tail_fn(sg.sigma_min * r, sg.sigma_max * r)
                     for r in radii])
    return quad, tail


def _smallest_sigma_count(profile_fn, tail_fn, s_min, s_max, x_lo, x_hi,
                          target):
    """Smallest scale count whose quadrature defect |quad + tail - 1| at
    the probe radii is <= ``target`` (MAX_SIGMA_COUNT if none is)."""
    for count in range(MIN_SIGMA_COUNT, MAX_SIGMA_COUNT):
        sg = build_sigma_grid(s_min, s_max, count)
        quad, tail = _probe(profile_fn, tail_fn, sg, x_lo, x_hi)
        if np.max(np.abs(quad + tail - 1.0)) <= target:
            return count
    return MAX_SIGMA_COUNT


def make_admissible_radial(plan, family="gaussian_bump", sigma_range=None,
                           sigma_count=None, tolerance=1e-6):
    """Construct a radial symbol satisfying the modulus-squared
    admissibility condition over its sigma grid.

    When no range is given, one is derived: the tail brackets put the
    closed-form mass of the dilation profile outside [sigma_min*|x|,
    sigma_max*|x|] below ``tolerance``/16 for every frequency-grid radius
    |x|, and ln(sigma) is then widened by LOG_PAD_BELOW below and
    LOG_PAD_ABOVE above, so the integrand is negligible at both ends and
    the rule converges geometrically in the count.  When no count is
    given, the smallest one whose quadrature defect at the probe radii is
    <= ``tolerance``/16 is used.  A range too narrow for ``tolerance``
    raises SigmaRangeError with the achieved defect.
    """
    if family not in PROFILE_FAMILIES:
        raise ValueError(f"unknown profile family {family!r}")
    profile_fn, tail_fn = PROFILE_FAMILIES[family]
    grid_f = plan.grid_out
    rsq = grid_f.radius_sq
    x_lo = math.sqrt(float(rsq.min()))
    x_hi = math.sqrt(float(rsq.max()))
    if sigma_range is None:
        u_lo = _tail_bracket(lambda u: tail_fn(u, math.inf), tolerance / 16.0,
                             start=1.0, direction=-1)
        u_hi = _tail_bracket(lambda u: tail_fn(0.0, u), tolerance / 16.0,
                             start=1.0, direction=+1)
        sigma_range = (u_lo / x_hi * math.exp(-LOG_PAD_BELOW),
                       u_hi / x_lo * math.exp(LOG_PAD_ABOVE))
    s_min, s_max = float(sigma_range[0]), float(sigma_range[1])
    if sigma_count is None:
        sigma_count = _smallest_sigma_count(profile_fn, tail_fn, s_min, s_max,
                                            x_lo, x_hi, tolerance / 16.0)
    sg = build_sigma_grid(s_min, s_max, sigma_count)
    quad, tail = _probe(profile_fn, tail_fn, sg, x_lo, x_hi)
    worst = max(float(np.max(np.abs(quad - 1.0))), float(np.max(tail)))
    if worst > tolerance:
        raise SigmaRangeError(
            f"sigma range [{s_min:g}, {s_max:g}] too narrow: achieved "
            f"admissibility defect {worst:.3e} > tolerance {tolerance:g}"
        )
    return MultiplierProfile(grid=grid_f, radial_profile=profile_fn,
                             sigma_grid=sg, tail_mass=tail_fn)
