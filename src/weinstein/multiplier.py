"""Dilated-symbol multiplier operators and their diagnostics.

An operator in this family multiplies the transform of its argument by a
dilated symbol m(sigma * .) and transforms back.  The family is governed
by the admissibility condition: the dilation average

    integral over sigma of |m(sigma x)|^2  d(sigma)/sigma

should equal 1 at almost every frequency x.

Every symbol is radial and owned by its radius profile u -> m(u): the
spectral route evaluates that profile at the dilated radii sigma*|x|, so
no symbol is ever interpolated.  A sweep over the sigma grid picks its
scales and runs each on the transform's synthesis core, keeping only the
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

from .core import (Field, Grid, SigmaGrid, _check_mask, _check_positive,
                   build_sigma_grid, norm_p)
from .errors import GridMismatchError, MeasureRangeError, SigmaRangeError
from .transform import (TransformPlan, _apply_factors, _kernel_factors,
                        _synthesis_moments, forward, inverse,
                        weinstein_kernel)

# Widening of a derived sigma range in ln(sigma) beyond the tail brackets.
# Below, the profile's u^2 edge (u^4 for quadratic_bump) drops to ~1e-12;
# above, its super-exponential decay moves off the Gregory edge nodes.
LOG_PAD_BELOW = 5.0
LOG_PAD_ABOVE = 1.0
# Probe radii per period of log-radius, and the scale counts searched
# (MAX_SIGMA_COUNT also bounds a configured count).
PROBES_PER_PERIOD = 16
MIN_SIGMA_COUNT = 16
MAX_SIGMA_COUNT = 1024
# Largest dilated radius sigma * |x| a profile is evaluated at: the
# profiles and their tail masses square it, and 2^1022 is a float.
DILATED_RADIUS_MAX = 2.0 ** 511
# Largest tau = sigma * max|x| of the scales whose sweep moments are
# interpolated (``_chebyshev_count`` gives 8 nodes at tau = 0.3).
INTERP_TAU_MAX = 0.3


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

    @cached_property
    def radius(self):
        return np.sqrt(self.grid.radius_sq)

    @cached_property
    def symbol(self):
        return Field(grid=self.grid, values=self.radial_profile(self.radius))

    @cached_property
    def defect(self):
        """Per-frequency-point admissibility defect, cached (the sigma sweep
        over all dilations is the expensive part)."""
        return admissibility_defect(self)


def _check_profile(plan, profile):
    if not profile.grid.same_geometry(plan.grid_out):
        raise GridMismatchError(
            "profile does not live on the plan's output grid")


def dilate_symbol(profile, sigma):
    """The dilated symbol m(sigma * .) on the frequency grid: the radius
    profile evaluated at the dilated radii.  sigma = 1 returns the symbol."""
    _check_positive(sigma, "dilation scale")
    if sigma == 1.0:
        return profile.symbol
    return Field(grid=profile.grid,
                 values=profile.radial_profile(sigma * profile.radius))


def admissibility_defect(profile):
    """|sum_j w_j |m(sigma_j x)|^2 - 1| per frequency point, as a real
    array of the frequency grid's shape.

    The integral runs over the configured sigma range only; mass of the
    dilation profile outside it shows up as defect (use a wide range, or
    the closed-form tail estimate of a constructed profile, to separate
    truncation from quadrature).  Radial nodes are strictly positive, so
    the degenerate point x = 0 never occurs on the grid.

    The defect depends on |x| alone, so the sigma terms are added, in
    order, once per distinct radius and read back at every point.
    """
    sg = profile.sigma_grid
    radius, at = np.unique(profile.radius, return_inverse=True)
    acc = np.zeros(radius.shape)
    for sigma, lw in zip(sg.sigmas, sg.log_weights):
        acc += lw * np.abs(profile.radial_profile(sigma * radius)) ** 2
    return np.abs(acc - 1.0, out=acc)[at].reshape(profile.grid.shape)


def apply_multiplier(plan, profile, sigma, phi):
    """T phi = inverse(m(sigma .) * forward(phi)); linear in phi."""
    _check_profile(plan, profile)
    dil = dilate_symbol(profile, float(sigma))
    F = forward(plan, phi)
    return inverse(plan, Field(grid=plan.grid_out, values=dil.values * F.values))


@dataclass(frozen=True)
class SweepStats:
    """One multiplier sweep of a field phi, reduced as it ran.

    ``moments[j, i]`` = sum_x w |x|^{2 betas[i]} |T_{sigma_j} phi|^2 is all
    that the norm identity and the certificates read of the sweep.  The
    sweep owns the plan, profile and field it was made from, so every
    sigma-side quantity takes the sweep alone and cannot be handed a plan,
    profile or field it does not belong to.  phi's ``transform`` is kept,
    so a field is transformed once for all of its certificates, and so is
    its energy-weighted admissibility defect.
    """

    plan: TransformPlan
    profile: MultiplierProfile
    phi: Field
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
        """Admissibility defect averaged against the energy density |F|^2
        of phi's transform: the aggregate that controls the dilation-averaged
        norm identity, and that the hypothesis certificates gate on."""
        dens = self.plan.weights_out.weights \
            * np.abs(self.transform.values) ** 2
        total = dens.sum()
        if total == 0:
            raise ValueError("zero field has no energy distribution")
        return float((dens * self.profile.defect).sum() / total)


def _chebyshev_count(T):
    """Node count n of the sweep's interpolation on [0, T] in t = tau^2:
    the smallest n with 2 e^T (T/4)^n / n! <= 2^-53.

    A ``BumpProfile`` is m(u) = u^p h(u^2) with h(s) = sqrt(2) e^{-s/2} =
    sum_k c_k s^k, |c_k| = sqrt(2) 2^-k / k!.  With rho = r / max r <= 1,
    the squared symbol over tau^{2p} is

        |m(sigma r)|^2 / tau^{2p} = rho^{2p} sum_{k,l} c_k c_l (t rho^2)^{k+l}
                                  = 2 rho^{2p} e^{-t rho^2},

    since sum_{k+l=j} |c_k c_l| = 2/j!.  Its n-th t-derivative is at most
    2 rho^{2p}, its value on [0, T] at least e^{-T} 2 rho^{2p}, so the
    Plancherel moment f(t) = M_0 / tau^{2p} (the squared symbol against
    w |F phi|^2, a positive sum) has |f^(n)| <= e^T min f.  The
    first-kind Chebyshev interpolant in n nodes misses f by at most
    max |f^(n)| / n! * 2 (T/4)^n, a relative error <= 2 e^T (T/4)^n / n!.
    The beta > 0 moments are entire in t too (|T_sigma phi(x)|^2 / tau^{2p}
    is a power series in t at every x) and share the nodes, but this bound
    does not cover them: the tests hold them to the dense oracle at
    relative 1e-12, on a centred Gaussian and on a run's random bump field.
    """
    n = 1
    while 2.0 * math.exp(T) * (T / 4.0) ** n / math.factorial(n) > 2.0 ** -53:
        n += 1
    return n


def _chebyshev_rule(T):
    """The ``_chebyshev_count(T)`` first-kind Chebyshev nodes of [0, T]
    and their barycentric weights."""
    n = _chebyshev_count(T)
    theta = (2.0 * np.arange(n) + 1.0) * math.pi / (2.0 * n)
    return (0.5 * T * (1.0 + np.cos(theta)),
            (-1.0) ** np.arange(n) * np.sin(theta))


def _chebyshev_moments(node_moments, nodes, bary, t, p):
    """Moments at the scales t = tau^2 (ascending, in (0, T]) by
    barycentric interpolation of M / t^p from the exact moments
    ``node_moments`` at the nodes of ``_chebyshev_rule(T)`` (``nodes``,
    weights ``bary``), multiplied back by t^p."""
    values = np.stack([m / tn ** p for m, tn in zip(node_moments, nodes)])
    diff = t[:, None] - nodes
    on_node = diff == 0.0
    diff[on_node] = 1.0
    c = bary / diff
    # a scale on a node takes that node's value
    hit = on_node.any(axis=1)
    c[hit] = on_node[hit]
    c /= c.sum(axis=1, keepdims=True)
    return np.einsum("sn,nb->sb", c, values) * (t ** p)[:, None]


def multiplier_sweep(plan, profile, phi, betas=(0.0,)):
    """Sweep the family over the profile's sigma grid, reducing each output
    |T_sigma phi|^2 against the rows of w |x|^{2 beta} as soon as it is
    computed, so no (n_sigma, size) array is formed.

    phi is transformed once, and each chosen scale is one synthesis
    (``transform._synthesis_moments``), whole on one thread.

    A ``BumpProfile`` (m(u) = u^p h(u^2), see ``_chebyshev_count``) has the
    moments of its scales with tau = sigma * max|x| <= INTERP_TAU_MAX
    interpolated in t = tau^2 from ``_chebyshev_count(T)`` syntheses (T the
    largest such t), when that is fewer than the scales it replaces; every
    other scale, and every scale of any other profile, is one synthesis.

    Non-finite moments are classified from the data, not from floating-point
    flags (a threaded BLAS product does not report a worker's overflow):
    with finite profile values (a Field is always finite) they mean the
    transform left the float range (MeasureRangeError); otherwise
    ValueError.  An input grid whose |x|^2 leaves the float range, and
    weights w |x|^{2 beta} that do, are a MeasureRangeError naming the
    grid or beta.
    """
    _check_profile(plan, profile)
    rsq = plan.grid_in.radius_sq
    if not rsq.max() < math.inf:
        raise MeasureRangeError(f"the input grid's |x|^2 spans [{rsq.min():g}, "
                                f"{rsq.max():g}]: it leaves the float range")
    betas = tuple(float(b) for b in betas)
    if not all(0.0 <= b < math.inf for b in betas):
        raise ValueError(f"each beta must be finite and >= 0, got {betas}")
    w = plan.weights_in.weights

    def weight(b):
        with np.errstate(over="ignore", invalid="ignore"):
            wb = w * rsq ** b
        if not np.isfinite(wb).all():
            raise MeasureRangeError(
                "multiplier sweep weights w |x|^(2 beta) leave the float "
                f"range at beta={b:g}")
        return wb

    F = forward(plan, phi)
    radius = profile.radius
    r_max = float(radius.max())
    sigmas = profile.sigma_grid.sigmas
    t = (sigmas * r_max) ** 2
    bump = profile.radial_profile
    n_small = int(np.count_nonzero(t <= INTERP_TAU_MAX ** 2)) \
        if isinstance(bump, BumpProfile) else 0
    if n_small and n_small <= _chebyshev_count(float(t[n_small - 1])):
        n_small = 0
    nodes = bary = np.empty(0)
    if n_small:
        nodes, bary = _chebyshev_rule(float(t[n_small - 1]))
    scales = [math.sqrt(tn) / r_max for tn in nodes] + list(sigmas[n_small:])
    moments = np.empty((len(sigmas), len(betas)))
    done = _synthesis_moments(plan, F, profile.radial_profile, radius, scales,
                              weight, betas)
    with np.errstate(over="ignore", invalid="ignore"):
        if n_small:
            moments[:n_small] = _chebyshev_moments(
                done[:len(nodes)], nodes, bary, t[:n_small], bump.p)
        for j, m in enumerate(done[len(nodes):], start=n_small):
            moments[j] = m
    if not np.all(np.isfinite(moments)):
        if all(np.all(np.isfinite(profile.radial_profile(s * radius)))
               for s in sigmas):
            raise MeasureRangeError(
                "multiplier sweep leaves the float range: the field, profile "
                "and weights are finite, but the moments sum_x w |x|^(2 beta) "
                "|T_sigma phi|^2 are not")
        raise ValueError("multiplier sweep produced non-finite moments")
    return SweepStats(plan=plan, profile=profile, phi=phi, betas=betas,
                      moments=moments, transform=F)


def multiplier_densities(plan, profile, phi):
    """The densities |T_sigma phi|^2 as an (n_sigma, size) matrix, one
    ``apply_multiplier`` per scale: the dense oracle for the sweep's
    moments.  No production path calls it."""
    return np.array([np.abs(apply_multiplier(plan, profile, s, phi).flat) ** 2
                     for s in profile.sigma_grid.sigmas])


def multiplier_plancherel_defect(stats):
    """Relative defect of the dilation-averaged norm identity

        sum_j w_j ||T_{sigma_j} phi||^2  =  ||phi||^2,

    read from ``stats``, phi's ``multiplier_sweep``.
    """
    n2 = norm_p(stats.phi, stats.plan.weights_in, 2) ** 2
    if n2 == 0:
        raise ValueError("phi must be nonzero")
    total = float(stats.profile.sigma_grid.log_weights @ stats.column(0.0))
    return abs(total - n2) / n2


# ---------------------------------------------------------------------------
# kernel route
# ---------------------------------------------------------------------------

def kernel_psi(profile, plan, sigma, x, y):
    """The integral kernel value at a single point pair

        Psi(x, y) = sum_u w_u m(u) K(u, y/sigma) K(u, (-x', x_r)/sigma)

    with K the analysis kernel; the dilation lives in the kernel arguments,
    so the symbol itself is never interpolated."""
    _check_positive(sigma, "dilation scale")
    _check_profile(plan, profile)
    points = [np.asarray(p, dtype=np.float64).reshape(-1) for p in (x, y)]
    with np.errstate(over="ignore"):
        x, y = (p / sigma for p in points)
    # a non-finite point is weinstein_kernel's to refuse
    if any(np.any(np.isinf(q) & np.isfinite(p))
           for p, q in zip(points, (x, y))):
        raise ValueError(f"dilation scale {sigma!r}: x/sigma or y/sigma "
                         "leaves the float range")
    params, u = profile.grid.params, profile.grid.points
    x_reflected = np.concatenate([-x[:params.d], x[params.d:]])
    # frequency-side quadrature weights under the plan's normalization
    wm = plan.weights_out.flat * profile.symbol.flat
    return complex(weinstein_kernel(params, u, x_reflected)
                   @ (wm * weinstein_kernel(params, u, y)))


def apply_multiplier_kernel(plan, profile, sigma, phi, region_mask=None):
    """Kernel-route application

        (T phi)(x) = sigma^{-(2 alpha + d + 2)} * sum_y w_y Psi(x, y) phi(y),

    optionally restricted to chi_Omega * phi (``region_mask``: a boolean mask
    of phi's grid).  On the grid, K(u, (-x', x_r)/sigma) = conj K(u, x/sigma)
    is the reflected kernel, so with A = K(u, x/sigma) the sum is

        sigma^{-deg} * A^H ((w_out m) * (A (w_in * phi))),

    with A applied through its per-axis factors on the tensor grids (and
    A^H through their conjugate transposes): neither Psi nor A is formed.
    The modulus of the result obeys
    |T(chi phi)(x)| <= sigma^{-deg} ||m||_1 ||phi||_2 sqrt(mu(Omega)).
    """
    _check_positive(sigma, "dilation scale")
    _check_profile(plan, profile)
    if not phi.grid.same_geometry(plan.grid_in):
        raise GridMismatchError("field does not live on the plan's input grid")
    grid = phi.grid
    factors = _kernel_factors(plan, -1.0, sigma)
    vals = phi.values if region_mask is None \
        else phi.values * _check_mask(grid, region_mask)
    wm = plan.weights_out.weights * profile.symbol.values
    inner = wm * _apply_factors(factors, plan.weights_in.weights * vals)
    out = _apply_factors([m.conj().T for m in factors], inner)
    deg = grid.params.homogeneity_degree
    return Field(grid=grid, values=sigma ** (-deg) * out)


# ---------------------------------------------------------------------------
# admissible profile construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BumpProfile:
    """The admissible bump m(u) = sqrt(2) u^p e^{-u^2/2}, p = 1 or 2: the
    squared dilation average int |m(u)|^2 du/u is Gamma(p) = 1.  p = 2 is
    smooth at the origin (|x|^2 is a polynomial), so multiplier outputs
    decay fast in space instead of carrying the cone's algebraic tails.
    The sweep's interpolation (``_chebyshev_count``) holds for this form."""

    p: int

    def __post_init__(self):
        if type(self.p) is not int or self.p not in (1, 2):
            raise ValueError(f"a bump's origin power is 1 or 2, got {self.p!r}")

    def __call__(self, u):
        u = np.asarray(u, dtype=np.float64)
        m = math.sqrt(2.0) * u
        for _ in range(self.p - 1):
            m = m * u
        return m * np.exp(-0.5 * u * u)

    def tail_mass(self, u_lo, u_hi):
        """Squared-profile mass outside [u_lo, u_hi] (u_hi may be inf):
        1 - (anti(u_lo) - anti(u_hi)), with the mass above u
        anti(u) = e^{-u^2} sum_{k<p} u^{2k} / k!."""
        def anti(u):
            if math.isinf(u):
                return 0.0
            u2 = u ** 2
            return sum(u2 ** k / math.factorial(k)
                       for k in range(self.p)) * math.exp(-u2)

        return 1.0 - (anti(u_lo) - anti(u_hi))


def radial_admissibility_quadrature(radial_profile, sg, radius):
    """1-D dilation-average quadrature sum_j w_j |g(sigma_j * radius)|^2.

    This is the oracle the sampled-symbol defect is validated against: no
    grid interpolation enters, only the log-grid rule.  ``radius`` may be
    an array of radii, giving one sum per radius.
    """
    u = np.multiply.outer(np.asarray(radius, dtype=np.float64), sg.sigmas)
    out = np.abs(radial_profile(u)) ** 2 @ sg.log_weights
    return float(out) if out.ndim == 0 else out


PROFILE_FAMILIES = {"gaussian_bump": BumpProfile(1),
                    "quadratic_bump": BumpProfile(2)}


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


def _probe(bump, sg, x_lo, x_hi):
    """Quadrature and closed-form out-of-range mass at the radii a sigma
    grid is checked on: one period h (the grid's log-step) of log-radius
    above x_lo, where the trapezoid error is h-periodic once the integrand
    is negligible at both ends of the range, plus sqrt(x_lo*x_hi) and x_hi."""
    h = math.log(sg.sigma_max / sg.sigma_min) / (len(sg) - 1)
    steps = np.exp(h * np.arange(PROBES_PER_PERIOD) / PROBES_PER_PERIOD)
    radii = np.append(np.minimum(x_lo * steps, x_hi),
                      [math.sqrt(x_lo * x_hi), x_hi])
    quad = radial_admissibility_quadrature(bump, sg, radii)
    tail = np.array([bump.tail_mass(sg.sigma_min * r, sg.sigma_max * r)
                     for r in radii])
    return quad, tail


def _smallest_sigma_count(bump, s_min, s_max, x_lo, x_hi, target):
    """Smallest scale count whose quadrature defect |quad + tail - 1| at
    the probe radii is <= ``target`` (MAX_SIGMA_COUNT if none is)."""
    for count in range(MIN_SIGMA_COUNT, MAX_SIGMA_COUNT):
        sg = build_sigma_grid(s_min, s_max, count)
        quad, tail = _probe(bump, sg, x_lo, x_hi)
        if np.max(np.abs(quad + tail - 1.0)) <= target:
            return count
    return MAX_SIGMA_COUNT


def make_admissible_radial(plan, family="gaussian_bump", sigma_range=None,
                           sigma_count=None, tolerance=1e-6):
    """Construct a radial symbol satisfying the admissibility condition
    over its sigma grid.

    When no range is given, one is derived: the tail brackets put the
    closed-form mass of the dilation profile outside [sigma_min*|x|,
    sigma_max*|x|] below ``tolerance``/16 for every frequency-grid radius
    |x|, and ln(sigma) is then widened by LOG_PAD_BELOW below and
    LOG_PAD_ABOVE above, so the integrand is negligible at both ends and
    the rule converges geometrically in the count.  When no count is
    given, the smallest one whose quadrature defect at the probe radii is
    <= ``tolerance``/16 is used.  A range too narrow for ``tolerance``
    raises SigmaRangeError with the achieved defect, and so do frequency
    radii or dilated radii sigma*|x| whose squares leave the float range.
    """
    tolerance = _check_positive(tolerance, "tolerance")
    if family not in PROFILE_FAMILIES:
        raise ValueError(f"unknown profile family {family!r}")
    bump = PROFILE_FAMILIES[family]
    grid_f = plan.grid_out
    rsq = grid_f.radius_sq
    rsq_lo, rsq_hi = float(rsq.min()), float(rsq.max())
    if not (0.0 < rsq_lo and rsq_hi < math.inf):
        raise SigmaRangeError(
            f"the frequency grid's |x|^2 spans [{rsq_lo:g}, {rsq_hi:g}]: it "
            "leaves the float range")
    x_lo, x_hi = math.sqrt(rsq_lo), math.sqrt(rsq_hi)
    if sigma_range is None:
        u_lo = _tail_bracket(lambda u: bump.tail_mass(u, math.inf),
                             tolerance / 16.0, start=1.0, direction=-1)
        u_hi = _tail_bracket(lambda u: bump.tail_mass(0.0, u),
                             tolerance / 16.0, start=1.0, direction=+1)
        sigma_range = (u_lo / x_hi * math.exp(-LOG_PAD_BELOW),
                       u_hi / x_lo * math.exp(LOG_PAD_ABOVE))
    s_min, s_max = float(sigma_range[0]), float(sigma_range[1])
    if not (0.0 < s_min and s_max / s_min < math.inf
            and s_max * x_hi <= DILATED_RADIUS_MAX):
        raise SigmaRangeError(
            f"sigma range [{s_min:g}, {s_max:g}] at frequency radii up to "
            f"{x_hi:g}: sigma*|x| or the range's width leaves the float range")
    if sigma_count is None:
        sigma_count = _smallest_sigma_count(bump, s_min, s_max, x_lo, x_hi,
                                            tolerance / 16.0)
    sg = build_sigma_grid(s_min, s_max, sigma_count)
    quad, tail = _probe(bump, sg, x_lo, x_hi)
    worst = max(float(np.max(np.abs(quad - 1.0))), float(np.max(tail)))
    if worst > tolerance:
        raise SigmaRangeError(
            f"sigma range [{s_min:g}, {s_max:g}] too narrow: achieved "
            f"admissibility defect {worst:.3e} > tolerance {tolerance:g}"
        )
    return MultiplierProfile(grid=grid_f, radial_profile=bump, sigma_grid=sg)
