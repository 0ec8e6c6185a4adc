"""Dilated-symbol multiplier operators and their diagnostics.

An operator in this family multiplies the transform of its argument by a
dilated symbol m(sigma * .) and transforms back.  The family is governed
by the admissibility condition: the dilation average

    integral over sigma of |m(sigma x)|^q  d(sigma)/sigma

should equal 1 at almost every frequency x (q = 2 in the default
"modulus_squared" variant, q = 1 in the "modulus" variant, which is kept
selectable for fidelity experiments but fails for the standard bump).

The spectral route evaluates a radial symbol's radius profile at the
dilated radii, so it carries no symbol interpolation either; only generic
(non-radial) symbols are interpolated on the frequency grid.  The kernel
route (``kernel_psi`` / ``apply_multiplier_kernel``) realizes the same
operator through an explicit integral kernel with the dilation moved into
analytically evaluated kernel arguments; it cross-validates the spectral
route and exhibits the sigma^{-(2*alpha+d+2)} prefactor bound used by the
concentration certificates.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _accel
from .core import (Field, SigmaGrid, build_sigma_grid, field_from_function,
                   measure_weights, norm_p)
from .errors import SizeGuardError, SigmaRangeError
from .interp import (apply_axis_matrix, radial_cubic_matrix,
                     uniform_linear_matrix)
from .transform import DIRECT_PAIR_GUARD, forward, inverse

ADMISSIBILITY_VARIANTS = ("modulus", "modulus_squared")


@dataclass(frozen=True)
class MultiplierProfile:
    """A sampled symbol on the frequency grid plus its dilation scales.

    A radial symbol m(|x|) also carries its radius profile
    ``radial_profile`` (a vectorized callable u -> m(u)), and dilation
    evaluates that profile instead of interpolating the tensor samples.
    Tensor-grid interpolation of a profile like sqrt(2)|x|exp(-|x|^2/2)
    saturates near the coordinate origin (the cone is never resolved by a
    fixed tensor grid), and the scale integral d(sigma)/sigma amplifies
    that floor without bound, so radial symbols must dilate radially.
    """

    symbol: Field
    sigma_grid: SigmaGrid
    admissibility_variant: str = "modulus_squared"
    radial_profile: object = None    # radius profile m(u) of a radial symbol
    tail_mass: object = None         # optional closed-form out-of-range mass

    def __post_init__(self):
        if self.admissibility_variant not in ADMISSIBILITY_VARIANTS:
            raise ValueError(
                f"unknown admissibility variant {self.admissibility_variant!r}"
            )

    @cached_property
    def weights(self):
        return measure_weights(self.symbol.grid)

    @property
    def power(self):
        return 1.0 if self.admissibility_variant == "modulus" else 2.0

    @cached_property
    def defect_report(self):
        """Admissibility defect report, cached (the sigma sweep over all
        dilations is the expensive part)."""
        return admissibility_defect(self)


def dilate_symbol(profile, sigma):
    """The dilated symbol m(sigma * .) sampled back on the frequency grid.

    Radial profiles evaluate their radius profile at the dilated radii;
    generic symbols use separable interpolation, linear along the
    Euclidean axes and cubic along the radial axis, with points outside
    the sampled range giving 0.  sigma = 1 returns the symbol unchanged.
    """
    if sigma <= 0:
        raise ValueError(f"dilation scale must be positive, got {sigma}")
    grid = profile.symbol.grid
    if sigma == 1.0:
        return profile.symbol
    if profile.radial_profile is not None:
        return Field(grid=grid, values=profile.radial_profile(
            sigma * np.sqrt(grid.radius_sq)))
    v = profile.symbol.values
    for ax, nodes in enumerate(grid.euclid_axes):
        v = apply_axis_matrix(
            v, uniform_linear_matrix(nodes, sigma * np.asarray(nodes)), ax)
    radial_queries = sigma * np.asarray(grid.radial_nodes)
    v = apply_axis_matrix(
        v, radial_cubic_matrix(grid.radial_nodes, grid.radial_extent, radial_queries),
        grid.params.d,
    )
    return Field(grid=grid, values=v)


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
    grid = profile.symbol.grid
    q = profile.power
    acc = np.zeros(grid.shape)
    for sigma, lw in zip(profile.sigma_grid.sigmas, profile.sigma_grid.log_weights):
        dil = dilate_symbol(profile, float(sigma))
        acc += lw * np.abs(dil.values) ** q
    defect = np.abs(acc - 1.0)
    return AdmissibilityReport(
        defect=Field(grid=grid, values=defect),
        max_defect=float(defect.max()),
        mean_defect=float(defect.mean()),
        variant=profile.admissibility_variant,
    )


def energy_weighted_defect(profile, F, weights):
    """Admissibility defect averaged against the energy density |F|^2.

    This is the aggregate that controls the dilation-averaged Plancherel
    identity for an input with transform F, and the quantity certificates
    gate their hypothesis on.
    """
    rep = profile.defect_report
    dens = weights.weights * np.abs(F.values) ** 2
    total = dens.sum()
    if total == 0:
        raise ValueError("zero field has no energy distribution")
    return float((dens * rep.defect.values.real).sum() / total)


def apply_multiplier(plan, profile, sigma, phi):
    """T phi = inverse(m(sigma .) * forward(phi)); linear in phi."""
    if sigma <= 0:
        raise ValueError(f"dilation scale must be positive, got {sigma}")
    F = forward(plan, phi)
    dil = dilate_symbol(profile, float(sigma))
    return inverse(plan, Field(grid=plan.grid_out, values=dil.values * F.values))


def multiplier_sweep(plan, profile, phi):
    """The energy density |T_sigma phi|^2 for every sigma in the profile's
    grid, as an (n_sigma, size) real matrix (forward transform computed
    once)."""
    F = forward(plan, phi)
    out = np.empty((len(profile.sigma_grid), plan.grid_in.size))
    for j, sigma in enumerate(profile.sigma_grid.sigmas):
        dil = dilate_symbol(profile, float(sigma))
        T = inverse(plan, Field(grid=plan.grid_out, values=dil.values * F.values))
        out[j] = np.abs(T.flat) ** 2
    return out


def multiplier_plancherel_defect(plan, profile, phi):
    """Relative defect of the dilation-averaged norm identity

        sum_j w_j ||T_{sigma_j} phi||^2  =  ||phi||^2.
    """
    n2 = norm_p(phi, plan.weights_in, 2) ** 2
    if n2 == 0:
        raise ValueError("phi must be nonzero")
    per_sigma = multiplier_sweep(plan, profile, phi) @ plan.weights_in.flat
    total = float(profile.sigma_grid.log_weights @ per_sigma)
    return abs(total - n2) / n2


# ---------------------------------------------------------------------------
# kernel route
# ---------------------------------------------------------------------------

def _psi_matrix(profile, plan, sigma, x_pts, y_pts):
    """Psi[x, y] = sum_u w_u m(u) K(u, y/sigma) K(u, -x/sigma) with K the
    analysis kernel; the dilation lives in the kernel arguments, so the
    symbol itself is never interpolated."""
    grid_f = profile.symbol.grid
    u_pts = grid_f.points
    n_u = u_pts.shape[0]
    if n_u * max(x_pts.shape[0], y_pts.shape[0]) > DIRECT_PAIR_GUARD:
        raise SizeGuardError("kernel route exceeds the dense-size guard")
    alpha = grid_f.params.alpha
    d = grid_f.params.d
    y_scaled = y_pts / sigma
    x_scaled = x_pts / sigma
    x_reflected = np.concatenate([-x_scaled[:, :d], x_scaled[:, d:]], axis=1)
    a = _accel.kernel_matrix(u_pts, y_scaled, alpha, sign=-1.0)
    b = _accel.kernel_matrix(u_pts, x_reflected, alpha, sign=-1.0)
    # frequency-side quadrature weights under the plan's normalization
    wm = plan.weights_out.flat * profile.symbol.flat
    return b.T @ (wm[:, None] * a)


def kernel_psi(profile, plan, sigma, x, y):
    """The integral kernel value Psi(x, y) at a single point pair."""
    if sigma <= 0:
        raise ValueError(f"dilation scale must be positive, got {sigma}")
    x = np.atleast_2d(np.asarray(x, dtype=np.float64))
    y = np.atleast_2d(np.asarray(y, dtype=np.float64))
    return complex(_psi_matrix(profile, plan, float(sigma), x, y)[0, 0])


def apply_multiplier_kernel(plan, profile, sigma, phi, region_mask=None):
    """Kernel-route application

        (T phi)(x) = sigma^{-(2 alpha + d + 2)} * sum_y w_y Psi(x, y) phi(y),

    optionally restricted to chi_Omega * phi via ``region_mask``.  Dense in
    (x, y, u); guarded to small grids.  The modulus of the result obeys
    |T(chi phi)(x)| <= sigma^{-deg} ||m||_1 ||phi||_2 sqrt(mu(Omega)).
    """
    if sigma <= 0:
        raise ValueError(f"dilation scale must be positive, got {sigma}")
    grid = phi.grid
    pts = grid.points
    psi = _psi_matrix(profile, plan, float(sigma), pts, pts)
    w = plan.weights_in.flat
    vals = phi.flat if region_mask is None else phi.flat * region_mask.ravel()
    deg = grid.params.homogeneity_degree
    out = sigma ** (-deg) * (psi @ (w * vals))
    return Field(grid=grid, values=out.reshape(grid.shape))


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
    grid interpolation enters, only the log-grid rule.
    """
    u = sg.sigmas * float(radius)
    return float(sg.log_weights @ np.abs(radial_profile(u)) ** q)


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


def make_admissible_radial(plan, family="gaussian_bump", sigma_range=None,
                           sigma_count=None, tolerance=1e-6):
    """Construct a radial symbol satisfying the modulus-squared
    admissibility condition over its sigma grid.

    When no range is given, one is derived so that the closed-form mass of
    the dilation profile outside [sigma_min*|x|, sigma_max*|x|] stays below
    ``tolerance`` for every frequency-grid radius |x|.  An explicitly
    narrow range raises SigmaRangeError with the achieved defect.
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
        sigma_range = (u_lo / x_hi, u_hi / x_lo)
    s_min, s_max = float(sigma_range[0]), float(sigma_range[1])
    if sigma_count is None:
        sigma_count = max(int(math.ceil(math.log(s_max / s_min) / 0.06)) + 1, 16)
    sg = build_sigma_grid(s_min, s_max, sigma_count)
    worst = 0.0
    for radius in (x_lo, math.sqrt(x_lo * x_hi), x_hi):
        tail = tail_fn(s_min * radius, s_max * radius)
        quad = radial_admissibility_quadrature(profile_fn, sg, radius)
        worst = max(worst, abs(quad - 1.0), tail)
    if worst > tolerance:
        raise SigmaRangeError(
            f"sigma range [{s_min:g}, {s_max:g}] too narrow: achieved "
            f"admissibility defect {worst:.3e} > tolerance {tolerance:g}"
        )
    symbol = field_from_function(
        grid_f, lambda pts: profile_fn(np.sqrt(np.sum(pts ** 2, axis=1)))
    )
    return MultiplierProfile(
        symbol=symbol,
        sigma_grid=sg,
        admissibility_variant="modulus_squared",
        radial_profile=profile_fn,
        tail_mass=tail_fn,
    )
