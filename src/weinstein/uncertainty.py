"""Dispersion functionals, concentration measures, and inequality
certificates.

Every certificate packages one proved inequality evaluated on concrete
inputs: the constrained quantity, the bounding quantity, their ratio
(always constrained/bound, so ``satisfied`` means ratio <= 1 + slack),
and a digest of the inputs.  A certificate whose hypotheses fail (a
non-admissible symbol) is flagged ``hypothesis_violated`` and never
counts as evidence either way.

The uncertainty product bounds compare the squared norm against the
dispersion product: the Gaussian family saturates the plain product bound
(ratio 1), which pins the constant 2/(2*alpha+d+2) numerically.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .core import norm_p, theta_integral
from .errors import IntegrabilityGuardError
from .multiplier import energy_weighted_defect, multiplier_sweep
from .transform import forward

DEFAULT_SLACK = 1e-3


@dataclass(frozen=True)
class Region:
    """Measurable subset of the spatial box as a boolean mask."""

    mask: np.ndarray
    measure: float


def region_from_mask(grid, w, mask):
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != grid.shape:
        raise ValueError("mask shape does not match grid")
    return Region(mask=mask, measure=float(w.weights[mask].sum()))


def ball_region(grid, w, radius):
    """Region |x| <= radius."""
    return region_from_mask(grid, w, grid.radius_sq <= radius * radius)


def ball_region_for_mass(f, w, fraction):
    """Smallest centered ball holding at least ``fraction`` of |f|^2 mass."""
    rsq = f.grid.radius_sq.reshape(-1)
    dens = (w.flat * np.abs(f.flat) ** 2)
    order = np.argsort(rsq)
    csum = np.cumsum(dens[order])
    total = csum[-1]
    if total == 0:
        raise ValueError("zero field has no mass distribution")
    idx = int(np.searchsorted(csum, fraction * total))
    idx = min(idx, len(rsq) - 1)
    threshold = float(rsq[order][idx])
    return region_from_mask(f.grid, w, f.grid.radius_sq <= threshold)


@dataclass(frozen=True)
class SigmaRegion:
    """Measurable subset of (0, inf) x spatial box as an (n_sigma, size) mask."""

    mask: np.ndarray
    theta_measure: float


def sigma_region_from_mask(sg, grid, w, mask):
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != (len(sg), grid.size):
        raise ValueError(f"mask must be shaped ({len(sg)}, {grid.size})")
    measure = theta_integral(mask.astype(float), sg, w)
    return SigmaRegion(mask=mask, theta_measure=measure)


def sigma_halfline_region(sg, grid, w, sigma_floor):
    """The product region {sigma >= sigma_floor} x (full box)."""
    mask = np.outer(sg.sigmas >= sigma_floor, np.ones(grid.size, dtype=bool))
    return sigma_region_from_mask(sg, grid, w, mask)


@dataclass(frozen=True)
class InequalityCertificate:
    """Outcome of one inequality evaluation."""

    name: str
    d: int
    alpha: float
    lhs: float
    rhs: float
    ratio: float
    satisfied: bool
    slack: float
    input_digest: str
    flags: dict = field(default_factory=dict)

    def to_json(self):
        doc = {
            "name": self.name,
            "d": self.d,
            "alpha": self.alpha,
            "lhs": self.lhs,
            "rhs": self.rhs,
            "ratio": self.ratio,
            "satisfied": self.satisfied,
            "slack": self.slack,
            "input_digest": self.input_digest,
        }
        if self.flags:
            doc["flags"] = self.flags
        return doc

    @property
    def hypothesis_violated(self):
        return bool(self.flags.get("hypothesis_violated", False))

    @property
    def vacuous(self):
        return bool(self.flags.get("vacuous", False))


def _certificate(name, params, lhs, rhs, slack, digest, flags=None):
    ratio = lhs / rhs if rhs != 0 else math.inf if lhs > 0 else 0.0
    return InequalityCertificate(
        name=name, d=params.d, alpha=params.alpha,
        lhs=float(lhs), rhs=float(rhs), ratio=float(ratio),
        satisfied=bool(ratio <= 1.0 + slack), slack=slack,
        input_digest=digest, flags=flags or {},
    )


def _norm2(plan, f):
    n2 = norm_p(f, plan.weights_in, 2) ** 2
    if n2 == 0:
        raise ValueError("certificate needs a nonzero field")
    return n2


def dispersion(f, w, beta=1.0):
    """Weighted spread (integral of |x|^{2 beta} |f|^2)^{1/2}; beta >= 1."""
    if beta < 1.0:
        raise ValueError(f"dispersion power must be >= 1, got {beta}")
    vals = w.weights * f.grid.radius_sq ** beta * np.abs(f.values) ** 2
    return float(np.sqrt(vals.sum()))


def heisenberg_certificate(plan, f, slack=DEFAULT_SLACK, digest=""):
    """Product uncertainty bound for the transform pair:

        ||f||^2 <= (2 / (2 alpha + d + 2)) * ||x| f|| * ||y| F f||,

    with equality on the Gaussian family.
    """
    params = plan.grid_in.params
    n2 = _norm2(plan, f)
    F = forward(plan, f)
    d_space = dispersion(f, plan.weights_in, 1.0)
    d_freq = dispersion(F, plan.weights_out, 1.0)
    rhs = (2.0 / params.homogeneity_degree) * d_space * d_freq
    return _certificate("heisenberg", params, n2, rhs, slack,
                        digest or f"norm2={n2:.6e}")


def aggregated_dispersion(plan, profile, f, beta=1.0, sweep=None):
    """Dilation-averaged spread of the multiplier family output:

        ( sum_j w_j * || |x|^beta T_{sigma_j} f ||^2 )^{1/2}.

    ``sweep`` is a precomputed ``multiplier_sweep(plan, profile, f)`` (the
    densities |T_sigma f|^2).
    """
    if sweep is None:
        sweep = multiplier_sweep(plan, profile, f)
    rb = plan.grid_in.radius_sq.reshape(-1) ** beta
    per_sigma = (sweep * rb[None, :]) @ plan.weights_in.flat
    total = float(profile.sigma_grid.log_weights @ per_sigma)
    return math.sqrt(total)


def _admissibility_gate(plan, profile, F):
    if profile.admissibility_variant != "modulus_squared":
        return math.inf
    return energy_weighted_defect(profile, F, plan.weights_out)


def multiplier_heisenberg_certificate(plan, profile, f, slack=DEFAULT_SLACK,
                                      admissibility_tol=1e-3, digest="",
                                      sweep=None):
    """Product uncertainty bound with the multiplier family on the spatial
    side:

        ||f||^2 <= (2/(2 alpha + d + 2)) * ||y| F f|| * A,

    where A aggregates ||x| T_sigma f|| over the dilation scales.  A
    profile failing the squared-modulus admissibility gate yields a
    hypothesis_violated certificate (numbers still reported).
    """
    params = plan.grid_in.params
    n2 = _norm2(plan, f)
    F = forward(plan, f)
    defect = _admissibility_gate(plan, profile, F)
    a = aggregated_dispersion(plan, profile, f, 1.0, sweep=sweep)
    b = dispersion(F, plan.weights_out, 1.0)
    rhs = (2.0 / params.homogeneity_degree) * b * a
    flags = {}
    if defect > admissibility_tol:
        flags = {"hypothesis_violated": True, "admissibility_defect": defect}
    return _certificate("multiplier_heisenberg", params, n2, rhs, slack,
                        digest or f"norm2={n2:.6e}", flags)


def general_heisenberg_certificate(plan, profile, f, beta, delta,
                                   slack=DEFAULT_SLACK, admissibility_tol=1e-3,
                                   digest="", sweep=None):
    """General-exponent product bound.  With eps = delta/(beta+delta) (the
    unique solution of beta*eps = (1-eps)*delta),

        ||f|| <= (2/(2a+d+2))^{beta*eps} * A_beta^eps * B_delta^{1-eps},

    where A_beta aggregates ||x|^beta T_sigma f|| over scales and B_delta
    = ||y|^delta F f||.  Reported in squared form so beta = delta = 1
    reproduces the plain multiplier certificate identically.
    """
    if beta < 1.0 or delta < 1.0:
        raise ValueError("exponents must satisfy beta, delta >= 1")
    params = plan.grid_in.params
    n2 = _norm2(plan, f)
    eps = delta / (beta + delta)
    F = forward(plan, f)
    defect = _admissibility_gate(plan, profile, F)
    a = aggregated_dispersion(plan, profile, f, beta, sweep=sweep)
    b = dispersion(F, plan.weights_out, float(delta))
    const = 2.0 / params.homogeneity_degree
    rhs = const ** (2.0 * beta * eps) * a ** (2.0 * eps) * b ** (2.0 * (1.0 - eps))
    flags = {"beta": beta, "delta": delta, "eps": eps}
    if defect > admissibility_tol:
        flags["hypothesis_violated"] = True
        flags["admissibility_defect"] = defect
    return _certificate("general_heisenberg", params, n2, rhs, slack,
                        digest or f"norm2={n2:.6e}", flags)


def concentration_defect(f, w, region):
    """Smallest eps with ||f - chi f|| <= eps ||f||; in [0, 1]."""
    total = norm_p(f, w, 2) ** 2
    if total == 0:
        raise ValueError("zero field has no concentration defect")
    outside = float((w.weights * np.abs(f.values) ** 2)[~region.mask].sum())
    return math.sqrt(min(max(outside / total, 0.0), 1.0))


def sigma_concentration_defect(plan, profile, f, sigma_region, sweep=None):
    """Concentration defect of the multiplier family output on a
    (sigma, x) region, in the product-measure norm."""
    if sweep is None:
        sweep = multiplier_sweep(plan, profile, f)
    sg = profile.sigma_grid
    total = theta_integral(sweep, sg, plan.weights_in)
    if total == 0:
        raise ValueError("zero multiplier output has no concentration defect")
    outside = theta_integral(np.where(sigma_region.mask, 0.0, sweep), sg,
                             plan.weights_in)
    return math.sqrt(min(max(outside / total, 0.0), 1.0))


def donoho_stark_certificate(plan, profile, f, region, sigma_region,
                             slack=DEFAULT_SLACK, admissibility_tol=1e-3,
                             digest="", sweep=None):
    """Concentration bound: if f is eps-concentrated on the spatial region
    and the multiplier output nu-concentrated on the (sigma, x) region,

      ||m||_1 * mu(Omega)^{1/2} * (int_Sigma sigma^{-2(2a+d+2)} dTheta)^{1/2}
          >= 1 - (eps + nu).

    The bound side is reported as rhs and the constrained side 1-(eps+nu)
    as lhs, so ratio = lhs/rhs keeps the satisfied convention.  Vacuous
    instances (eps + nu >= 1) are flagged and never count as evidence.
    The sigma^{-2 deg} integrand explodes toward sigma -> 0; masks touching
    the smallest scale are rejected rather than silently truncated.
    """
    params = plan.grid_in.params
    sg = profile.sigma_grid
    if sigma_region.mask[0].any():
        raise IntegrabilityGuardError(
            "sigma-region reaches the integrability boundary (mask touches "
            "the smallest sampled scale)"
        )
    F = forward(plan, f)
    defect = _admissibility_gate(plan, profile, F)
    if sweep is None:
        sweep = multiplier_sweep(plan, profile, f)
    eps = concentration_defect(f, plan.weights_in, region)
    nu = sigma_concentration_defect(plan, profile, f, sigma_region, sweep=sweep)
    deg = params.homogeneity_degree
    # sigma^{-2 deg} on the region's rows only (at large alpha it overflows
    # on the small scales below them)
    rows = sigma_region.mask.any(axis=1)
    weight = np.where(rows, sg.sigmas, 1.0) ** (-2.0 * deg)
    decay = np.where(sigma_region.mask, weight[:, None], 0.0)
    theta_decay = theta_integral(decay, sg, plan.weights_in)
    if not math.isfinite(theta_decay):
        raise IntegrabilityGuardError("sigma-region integral is not finite")
    m_norm1 = norm_p(profile.symbol, plan.weights_out, 1)
    bound = m_norm1 * math.sqrt(region.measure) * math.sqrt(theta_decay)
    constrained = 1.0 - (eps + nu)
    flags = {"eps": eps, "nu": nu, "m_norm1": m_norm1,
             "theta_decay_integral": theta_decay}
    if defect > admissibility_tol:
        flags["hypothesis_violated"] = True
        flags["admissibility_defect"] = defect
    if constrained <= 0:
        flags["vacuous"] = True
    # corollary form for half-line sigma regions: with rho = 1/min(sigma
    # over the region), rho^{2 deg} * Theta(Sigma) dominates the decay
    # integral, so its bound is implied by the main one
    if rows.any():
        rho = 1.0 / float(sg.sigmas[rows][0])
        corollary_bound = (rho ** deg) * m_norm1 \
            * math.sqrt(region.measure) * math.sqrt(sigma_region.theta_measure)
        flags["corollary_bound"] = corollary_bound
        flags["corollary_satisfied"] = bool(
            corollary_bound >= constrained - slack * abs(constrained)
        )
        flags["corollary_dominates"] = bool(corollary_bound >= bound * (1 - 1e-12))
    return _certificate("donoho_stark", params, constrained, bound, slack,
                        digest or f"eps={eps:.4f},nu={nu:.4f}", flags)
