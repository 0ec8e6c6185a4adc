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

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from ._accel import si
from .core import _check_mask, _check_pair, _check_positive, norm_p
from .errors import IntegrabilityGuardError, MeasureRangeError
from .transform import forward

DEFAULT_SLACK = 1e-3
DEFAULT_ADMISSIBILITY_TOL = 1e-3
LOG_FLOAT_MAX = math.log(np.finfo(np.float64).max)
LOG_FLOAT_TINY = math.log(np.finfo(np.float64).tiny)


def ball_region_for_mass(f, w, fraction):
    """Boolean mask of the smallest centered ball holding at least
    ``fraction`` in (0, 1] of the |f|^2 mass."""
    _check_pair(f, w)
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"mass fraction must be in (0, 1], got {fraction}")
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
    return f.grid.radius_sq <= threshold


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
        doc = dataclasses.asdict(self)
        if not self.flags:
            del doc["flags"]
        return doc

    @property
    def hypothesis_violated(self):
        return bool(self.flags.get("hypothesis_violated", False))

    @property
    def vacuous(self):
        return bool(self.flags.get("vacuous", False))


def _certificate(name, params, lhs, rhs, slack, digest, flags=None):
    slack = _check_positive(slack, "slack")
    if not (math.isfinite(lhs) and math.isfinite(rhs)):
        raise MeasureRangeError(f"{name} certificate leaves the float "
                                f"range: lhs {lhs:g}, rhs {rhs:g}")
    ratio = lhs / rhs if rhs != 0 else math.inf if lhs > 0 else 0.0
    return InequalityCertificate(
        name=name, d=params.d, alpha=params.alpha,
        lhs=float(lhs), rhs=float(rhs), ratio=float(ratio),
        satisfied=bool(ratio <= 1.0 + slack), slack=slack,
        input_digest=digest, flags=flags or {},
    )


def _product_certificate(name, plan, f, a, b, beta, delta, slack, digest,
                         flags=None):
    """The Heisenberg-Pauli-Weyl product bound in squared form,

        ||f||^2 <= c^{2 beta eps} * a^{2 eps} * b^{2 (1-eps)},

    with c = 2/(2 alpha + d + 2) and eps = delta/(beta+delta) (the unique
    solution of beta*eps = (1-eps)*delta), for a spatial spread ``a`` of
    order beta and a frequency spread ``b`` of order delta.  At beta =
    delta = 1 every exponent is 1 and the bound is (c * a) * b exactly.
    """
    params = plan.grid_in.params
    n2 = norm_p(f, plan.weights_in, 2) ** 2
    if n2 == 0:
        raise ValueError("certificate needs a nonzero field")
    eps = delta / (beta + delta)
    c = 2.0 / params.homogeneity_degree
    rhs = c ** (2.0 * beta * eps) * a ** (2.0 * eps) * b ** (2.0 * (1.0 - eps))
    return _certificate(name, params, n2, rhs, slack,
                        digest or f"norm2={n2:.6e}", flags)


def dispersion(f, w, beta=1.0):
    """Weighted spread (integral of |x|^{2 beta} |f|^2)^{1/2}; beta >= 1
    and finite."""
    _check_pair(f, w)
    if not 1.0 <= beta < math.inf:
        raise ValueError(
            f"dispersion power must be >= 1 and finite, got {beta}")
    # |x|^{2 beta} may leave the float range: the certificate refuses the
    # inf or nan spread this gives
    with np.errstate(over="ignore", invalid="ignore"):
        vals = w.weights * f.grid.radius_sq ** beta * np.abs(f.values) ** 2
        return float(np.sqrt(vals.sum()))


def heisenberg_certificate(plan, f, slack=DEFAULT_SLACK, digest="",
                           stats=None):
    """Product uncertainty bound for the transform pair:

        ||f||^2 <= (2 / (2 alpha + d + 2)) * ||x| f|| * ||y| F f||,

    with equality on the Gaussian family.  F is read from ``stats`` (f's
    ``multiplier_sweep``) when given; a sweep of another plan, or of a
    field with other values, is a ValueError.
    """
    if stats is not None and (stats.plan is not plan or not np.array_equal(
            stats.phi.values, f.values)):
        raise ValueError("stats is not the sweep of f on this plan")
    F = forward(plan, f) if stats is None else stats.transform
    return _product_certificate(
        "heisenberg", plan, f, dispersion(f, plan.weights_in, 1.0),
        dispersion(F, plan.weights_out, 1.0), 1.0, 1.0, slack, digest)


def _hypothesis_flags(stats, admissibility_tol):
    """Flags of a certificate whose hypotheses fail, else {}: the
    certificates admit only profiles that pass the admissibility gate."""
    tol = _check_positive(admissibility_tol, "admissibility_tol")
    defect = stats.admissibility_defect
    if defect > tol:
        return {"hypothesis_violated": True, "admissibility_defect": defect}
    return {}


def aggregated_dispersion(stats, beta=1.0):
    """Dilation-averaged spread of the multiplier family output:

        ( sum_j w_j * || |x|^beta T_{sigma_j} f ||^2 )^{1/2},

    read from ``stats``, f's ``multiplier_sweep``.
    """
    lw = stats.profile.sigma_grid.log_weights
    return math.sqrt(float(lw @ stats.column(beta)))


def multiplier_heisenberg_certificate(
        stats, slack=DEFAULT_SLACK,
        admissibility_tol=DEFAULT_ADMISSIBILITY_TOL, digest=""):
    """Product uncertainty bound with the multiplier family on the spatial
    side:

        ||f||^2 <= (2/(2 alpha + d + 2)) * A * ||y| F f||,

    where A aggregates ||x| T_sigma f|| over the dilation scales, read
    with everything else from ``stats``, f's ``multiplier_sweep``.  A
    profile failing the admissibility gate yields a hypothesis_violated
    certificate (numbers still reported).
    """
    plan = stats.plan
    return _product_certificate(
        "multiplier_heisenberg", plan, stats.phi,
        aggregated_dispersion(stats, 1.0),
        dispersion(stats.transform, plan.weights_out, 1.0), 1.0, 1.0, slack,
        digest, _hypothesis_flags(stats, admissibility_tol))


def general_heisenberg_certificate(
        stats, beta, delta, slack=DEFAULT_SLACK,
        admissibility_tol=DEFAULT_ADMISSIBILITY_TOL, digest=""):
    """General-exponent product bound (``_product_certificate``) with a =
    A_beta, which aggregates ||x|^beta T_sigma f|| over scales, and b =
    B_delta = ||y|^delta F f||, all read from ``stats`` (f's
    ``multiplier_sweep``, which must have swept ``beta``).  beta = delta =
    1 gives the multiplier certificate identically.
    """
    if not (1.0 <= beta < math.inf and 1.0 <= delta < math.inf):
        raise ValueError("exponents must satisfy beta, delta >= 1 and be "
                         f"finite, got beta={beta}, delta={delta}")
    plan = stats.plan
    flags = {"beta": beta, "delta": delta, "eps": delta / (beta + delta),
             **_hypothesis_flags(stats, admissibility_tol)}
    return _product_certificate(
        "general_heisenberg", plan, stats.phi,
        aggregated_dispersion(stats, beta),
        dispersion(stats.transform, plan.weights_out, float(delta)), beta,
        delta, slack, digest, flags)


def concentration_defect(f, w, region):
    """Smallest eps with ||f - chi f|| <= eps ||f||, for the spatial region
    given as a boolean mask of f's grid; in [0, 1]."""
    region = _check_mask(f.grid, region)
    total = norm_p(f, w, 2) ** 2
    if total == 0:
        raise ValueError("zero field has no concentration defect")
    outside = float((w.weights * np.abs(f.values) ** 2)[~region].sum())
    return math.sqrt(min(max(outside / total, 0.0), 1.0))


def _halfline_concentration_defect(per_sigma, sg, floor):
    """Concentration defect on {sigma >= floor} x box.

    The per-sigma totals of the densities are analytic in t = ln(sigma)
    and negligible at both ends of a derived range, so their sinc
    interpolant on the uniform t grid (step h) is integrated exactly up to
    ln(floor) itself, not to a grid node: node j contributes
    h * (1/2 + Si(pi * (ln(floor) - t_j) / h) / pi), and over the whole
    line each contributes h, the trapezoid sum.  A floor at or above
    sigma_max has every sampled scale below it, so nu = 1: the interpolant
    is not carried past the last node.
    """
    t = np.log(sg.sigmas)
    h = (t[-1] - t[0]) / (len(t) - 1)
    total = float(per_sigma.sum())
    if total == 0:
        raise ValueError("zero multiplier output has no concentration defect")
    if floor >= sg.sigma_max:
        return 1.0
    below = 0.5 + si(math.pi * (math.log(floor) - t) / h) / math.pi
    outside = float(per_sigma @ below)
    return math.sqrt(min(max(outside / total, 0.0), 1.0))


def _halfline_measure(sg, w, floor):
    """Measure of {sigma >= floor} x (full box): the log-weight of the
    sampled scales >= floor times mu(box)."""
    return float(sg.log_weights[sg.sigmas >= floor].sum()) * w.total


def donoho_stark_certificate(
        stats, region, floor, slack=DEFAULT_SLACK,
        admissibility_tol=DEFAULT_ADMISSIBILITY_TOL, digest=""):
    """Concentration bound: if f is eps-concentrated on the spatial region
    Omega and the multiplier output nu-concentrated on the (sigma, x) region,

      ||m||_1 * mu(Omega)^{1/2} * (int_Sigma sigma^{-2(2a+d+2)} dTheta)^{1/2}
          >= 1 - (eps + nu).

    The bound side is reported as rhs and the constrained side 1-(eps+nu)
    as lhs, so ratio = lhs/rhs keeps the satisfied convention.  Vacuous
    instances (eps + nu >= 1) are flagged and never count as evidence.
    Omega is ``region``, a boolean mask of the plan's input grid, which eps
    and mu(Omega) both weigh with the plan's input weights.

    The sigma-region is the half-line {sigma >= floor} x box, given by its
    ``floor``.  Its decay integral has the closed form mu(box) *
    floor^{-2 deg} / (2 deg), evaluated in log space, so it does not depend
    on the sigma grid; nu is integrated exactly up to the floor from the
    per-scale totals in ``stats`` (f's ``multiplier_sweep``, which also
    gives the plan, profile and f); a floor at or above the largest
    sampled scale leaves every sampled scale outside the region, so nu = 1.
    The sigma^{-2 deg} integrand explodes toward sigma -> 0: half-lines
    reaching the smallest sampled scale (floor <= sigma_min), or whose
    decay integral overflows or underflows the float range, raise
    IntegrabilityGuardError; a NaN floor is a ValueError.
    """
    plan, profile = stats.plan, stats.profile
    params = plan.grid_in.params
    sg = profile.sigma_grid
    region = _check_mask(plan.grid_in, region)
    if math.isnan(floor):
        raise ValueError("sigma floor must be a number, got nan")
    if floor <= sg.sigma_min:
        raise IntegrabilityGuardError(
            "sigma-region reaches the integrability boundary (floor <= the "
            "smallest sampled scale)")
    deg = params.homogeneity_degree
    log_rho = -math.log(floor)
    log_decay = math.log(plan.weights_in.total) \
        + 2.0 * deg * log_rho - math.log(2.0 * deg)
    if max(log_decay, deg * log_rho) > LOG_FLOAT_MAX:
        raise IntegrabilityGuardError("sigma-region integral is not finite")
    if log_decay < LOG_FLOAT_TINY:
        # the bound would read 0 and the ratio inf
        raise IntegrabilityGuardError(
            "sigma-region decay integral underflows (floor too large)")
    theta_decay = math.exp(log_decay)
    eps = concentration_defect(stats.phi, plan.weights_in, region)
    nu = _halfline_concentration_defect(stats.column(0.0), sg, floor)
    m_norm1 = norm_p(profile.symbol, plan.weights_out, 1)
    measure = float(plan.weights_in.weights[region].sum())
    bound = m_norm1 * math.sqrt(measure) * math.sqrt(theta_decay)
    constrained = 1.0 - (eps + nu)
    flags = {"eps": eps, "nu": nu, "m_norm1": m_norm1,
             "theta_decay_integral": theta_decay,
             **_hypothesis_flags(stats, admissibility_tol)}
    if constrained <= 0:
        flags["vacuous"] = True
    # corollary form: with rho = 1/floor, rho^{2 deg} * Theta(Sigma)
    # dominates the decay integral, so its bound is implied by the main one
    corollary_bound = math.exp(deg * log_rho) * m_norm1 * math.sqrt(measure) \
        * math.sqrt(_halfline_measure(sg, plan.weights_in, floor))
    flags["corollary_bound"] = corollary_bound
    flags["corollary_satisfied"] = bool(
        corollary_bound >= constrained - slack * abs(constrained)
    )
    flags["corollary_dominates"] = bool(corollary_bound >= bound * (1 - 1e-12))
    return _certificate("donoho_stark", params, constrained, bound, slack,
                        digest or f"eps={eps:.4f},nu={nu:.4f}", flags)
