import dataclasses
import math

import numpy as np
import pytest

from weinstein import (Field, GridMismatchError, IntegrabilityGuardError,
                       MeasureRangeError, WeinsteinParams,
                       ball_region_for_mass, build_grid,
                       concentration_defect, dispersion,
                       donoho_stark_certificate, forward, gaussian_field,
                       general_heisenberg_certificate, heisenberg_certificate,
                       make_admissible_radial, make_plan, measure_weights,
                       multiplier_heisenberg_certificate, multiplier_sweep,
                       norm_p)
from weinstein.multiplier import MultiplierProfile
from weinstein.uncertainty import _halfline_measure
from weinstein.report import report_csv


def test_dispersion_zero_and_validation(plan_half):
    g = plan_half.grid_in
    w = plan_half.weights_in
    zero = Field(grid=g, values=np.zeros(g.shape))
    assert dispersion(zero, w, 1.0) == 0.0
    with pytest.raises(ValueError):
        dispersion(gaussian_field(g), w, 0.5)


def test_dispersion_gaussian_moment(plan_half):
    # dispersion^2 / norm^2 = (2 alpha + d + 2)/2 for the unit gaussian:
    # Gamma-moment ratio alpha+1 radially plus 1/2 per euclid axis
    g = plan_half.grid_in
    w = plan_half.weights_in
    f = gaussian_field(g)
    ratio = dispersion(f, w, 1.0) ** 2 / norm_p(f, w, 2) ** 2
    assert ratio == pytest.approx(g.params.homogeneity_degree / 2.0, rel=1e-8)


def test_dispersion_scaling():
    # dispersion(f(./s), beta) = s^{beta + deg/2} dispersion(f, beta)
    p = WeinsteinParams(d=1, alpha=1.0)
    s, beta = 1.3, 1.5
    g1 = build_grid(p, (9.0, 9.0), (160, 160), radial_scheme="collocation")
    g2 = build_grid(p, (9.0 * s, 9.0 * s), (160, 160), radial_scheme="collocation")
    d1 = dispersion(gaussian_field(g1), measure_weights(g1), beta)
    d2 = dispersion(gaussian_field(g2, scale=s), measure_weights(g2), beta)
    expected = s ** (beta + p.homogeneity_degree / 2.0) * d1
    assert d2 == pytest.approx(expected, rel=1e-4)


def test_heisenberg_gaussian_equality(plan_half):
    cert = heisenberg_certificate(plan_half, gaussian_field(plan_half.grid_in))
    assert abs(cert.ratio - 1.0) < 1e-4
    assert cert.satisfied


def test_heisenberg_dilated_gaussian_equality():
    p = WeinsteinParams(d=1, alpha=1.0)
    for s in (0.5, 2.0):
        L = 7.5 * s
        R = 7.5 * max(s, 1.0 / s)
        g = build_grid(p, (L, R), (128, 128), radial_scheme="collocation")
        plan = make_plan(g)
        cert = heisenberg_certificate(plan, gaussian_field(g, scale=s))
        assert abs(cert.ratio - 1.0) < 1e-4


def test_heisenberg_random_fields_bounded(plan_half, rng):
    g = plan_half.grid_in
    for _ in range(8):
        w = rng.uniform(0.8, 1.5)
        ce = rng.uniform(-1.0, 1.0)
        cr = rng.uniform(0.0, 1.5)
        pts = g.points
        vals = np.exp(-0.5 * ((pts[:, 0] - ce) ** 2
                              + (pts[:, 1] - cr) ** 2) / w ** 2) \
            + np.exp(-0.5 * ((pts[:, 0] - ce) ** 2 + (pts[:, 1] + cr) ** 2) / w ** 2)
        f = Field(grid=g, values=vals.reshape(g.shape))
        cert = heisenberg_certificate(plan_half, f)
        assert cert.ratio <= 1.0 + 1e-3
        assert cert.satisfied


def test_heisenberg_scale_invariance(plan_half):
    f = gaussian_field(plan_half.grid_in)
    c1 = heisenberg_certificate(plan_half, f)
    c2 = heisenberg_certificate(plan_half, 5.5 * f)
    assert c1.ratio == pytest.approx(c2.ratio, rel=1e-12)
    with pytest.raises(ValueError):
        heisenberg_certificate(plan_half, 0.0 * f)


def test_heisenberg_refuses_another_fields_sweep(plan_mult, bump_profile):
    # the sweep lends its transform to the certificate, so it must be f's
    # on this plan; a sweep of an equal field (a run shares one sweep
    # between equal fields) gives the certificate of f itself
    f = gaussian_field(plan_mult.grid_in)
    stats = multiplier_sweep(plan_mult, bump_profile, f)
    with pytest.raises(ValueError, match="not the sweep of f"):
        heisenberg_certificate(
            plan_mult, gaussian_field(plan_mult.grid_in, scale=1.2),
            stats=stats)
    with pytest.raises(ValueError, match="not the sweep of f"):
        heisenberg_certificate(make_plan(plan_mult.grid_in), f, stats=stats)
    equal = gaussian_field(plan_mult.grid_in)
    assert heisenberg_certificate(plan_mult, equal, stats=stats) \
        == heisenberg_certificate(plan_mult, f)


def test_multiplier_heisenberg(plan_mult, bump_profile):
    f = gaussian_field(plan_mult.grid_in)
    cert = multiplier_heisenberg_certificate(
        multiplier_sweep(plan_mult, bump_profile, f, (1.0,)))
    assert cert.satisfied and not cert.hypothesis_violated
    assert cert.ratio <= 1.0


def test_multiplier_heisenberg_zero_symbol_flagged(plan_mult, bump_profile):
    zero_prof = MultiplierProfile(
        grid=plan_mult.grid_out, radial_profile=np.zeros_like,
        sigma_grid=bump_profile.sigma_grid)
    f = gaussian_field(plan_mult.grid_in)
    cert = multiplier_heisenberg_certificate(
        multiplier_sweep(plan_mult, zero_prof, f, (1.0,)))
    assert cert.hypothesis_violated
    assert cert.flags["admissibility_defect"] == pytest.approx(1.0, abs=1e-12)


def test_general_heisenberg_collapses_at_unit_exponents(plan_mult, bump_profile):
    # one product formula: every exponent is 1, so the numbers are equal.
    # c = 2/(2 alpha + d + 2) is 1/2 at alpha = 1/2, where (c A) B and
    # (c B) A agree whatever the rounding; at alpha = 2 (c = 2/7) on this
    # 32x32 grid they differ by one ulp
    plan_2 = make_plan(build_grid(WeinsteinParams(d=1, alpha=2.0), (8.0, 8.0),
                                  (32, 32)))
    for plan, profile in ((plan_mult, bump_profile),
                          (plan_2, make_admissible_radial(plan_2))):
        f = gaussian_field(plan.grid_in)
        stats = multiplier_sweep(plan, profile, f, (1.0,))
        c31 = multiplier_heisenberg_certificate(stats)
        c32 = general_heisenberg_certificate(stats, 1.0, 1.0)
        assert (c32.lhs, c32.rhs, c32.ratio) == (c31.lhs, c31.rhs, c31.ratio)


@pytest.mark.parametrize("beta,delta", [(2.0, 1.0), (1.0, 2.0), (2.0, 2.0)])
def test_general_heisenberg_exponents(plan_mult, bump_profile, beta, delta):
    f = gaussian_field(plan_mult.grid_in)
    stats = multiplier_sweep(plan_mult, bump_profile, f, (beta,))
    cert = general_heisenberg_certificate(stats, beta, delta)
    assert cert.satisfied and not cert.hypothesis_violated
    assert cert.flags["eps"] == pytest.approx(delta / (beta + delta))
    with pytest.raises(ValueError):
        general_heisenberg_certificate(stats, 0.5, 1.0)


def test_general_heisenberg_refuses_nan_exponents(plan_mult, bump_profile):
    # a NaN exponent is refused by the exponent check, not reported as a
    # float-range failure of the bound
    f = gaussian_field(plan_mult.grid_in)
    stats = multiplier_sweep(plan_mult, bump_profile, f, (1.0,))
    for beta, delta in ((1.0, math.nan), (math.nan, 1.0), (1.0, math.inf)):
        with pytest.raises(ValueError, match="exponents") as info:
            general_heisenberg_certificate(stats, beta, delta)
        assert not isinstance(info.value, MeasureRangeError)


def test_holder_step_on_frequency_side(plan_mult):
    # || |y| F f || <= || |y|^2 F f ||^{1/2} ||f||^{1/2} (the delta-side
    # interpolation step behind the general-exponent bound)
    f = gaussian_field(plan_mult.grid_in, scale=1.1)
    F = forward(plan_mult, f)
    w = plan_mult.weights_out
    lhs = dispersion(F, w, 1.0)
    rhs = math.sqrt(dispersion(F, w, 2.0)) * math.sqrt(norm_p(f, plan_mult.weights_in, 2))
    assert lhs <= rhs * (1 + 1e-3)


def test_concentration_defect_limits(plan_half):
    g = plan_half.grid_in
    w = plan_half.weights_in
    f = gaussian_field(g)
    full = np.ones(g.shape, dtype=bool)
    empty = np.zeros(g.shape, dtype=bool)
    assert concentration_defect(f, w, full) < 1e-12
    assert concentration_defect(f, w, empty) == pytest.approx(1.0, abs=1e-12)


def test_concentration_defect_ball_formula(plan_half):
    g = plan_half.grid_in
    w = plan_half.weights_in
    f = gaussian_field(g)
    ball = g.radius_sq <= 1.5 * 1.5
    inside = float((w.weights * np.abs(f.values) ** 2)[ball].sum())
    total = norm_p(f, w, 2) ** 2
    expected = math.sqrt(1.0 - inside / total)
    assert concentration_defect(f, w, ball) == pytest.approx(expected, rel=1e-12)


def test_concentration_monotone_under_region_growth(plan_half):
    g = plan_half.grid_in
    w = plan_half.weights_in
    f = gaussian_field(g)
    r_prev = 1.0
    prev = concentration_defect(f, w, g.radius_sq <= r_prev * r_prev)
    for r in (1.5, 2.0, 3.0):
        cur = concentration_defect(f, w, g.radius_sq <= r * r)
        assert cur <= prev + 1e-15
        prev = cur


def test_ball_region_for_mass(plan_half):
    g = plan_half.grid_in
    w = plan_half.weights_in
    f = gaussian_field(g)
    for q in (0.5, 0.9, 0.99):
        omega = ball_region_for_mass(f, w, q)
        eps = concentration_defect(f, w, omega)
        assert eps <= math.sqrt(1 - q) + 1e-6


def test_spatial_functionals_refuse_foreign_weights(plan_half):
    # the field and the weights must sample one measure: other parameters
    # on the same nodes, another box of the same shape and another shape
    # are all GridMismatchError
    g = plan_half.grid_in
    f = gaussian_field(g)
    others = [build_grid(WeinsteinParams(d=1, alpha=2.0), (8.0, 8.0), g.shape),
              build_grid(g.params, (6.0, 6.0), g.shape),
              build_grid(g.params, (8.0, 8.0), (32, 32))]
    for other in others:
        w = measure_weights(other)
        with pytest.raises(GridMismatchError):
            dispersion(f, w, 1.0)
        with pytest.raises(GridMismatchError):
            ball_region_for_mass(f, w, 0.9)
        with pytest.raises(GridMismatchError):
            concentration_defect(f, w, g.radius_sq <= 4.0)


def test_donoho_stark_weighs_its_region_with_the_plan(plan_mult, bump_profile,
                                                      rng):
    # mu(Omega) is read with the sweep's plan weights, the ones eps uses:
    # the rhs is m_norm1 * mu(Omega)^{1/2} * theta_decay^{1/2} on any mask;
    # a 0/1 mask is the boolean one, and a mask of another shape is refused
    g = plan_mult.grid_in
    f = gaussian_field(g)
    stats = multiplier_sweep(plan_mult, bump_profile, f)
    for _ in range(3):
        mask = rng.uniform(size=g.shape) < rng.uniform(0.2, 0.9)
        cert = donoho_stark_certificate(stats, mask, 1.0)
        measure = stats.plan.weights_in.weights[mask].sum()
        assert cert.rhs == cert.flags["m_norm1"] * math.sqrt(measure) \
            * math.sqrt(cert.flags["theta_decay_integral"])
        assert cert.flags["eps"] == concentration_defect(
            f, stats.plan.weights_in, mask)
        assert donoho_stark_certificate(stats, mask.astype(int), 1.0) == cert
    for bad in (mask.ravel(), mask[:-1], mask[..., None]):
        with pytest.raises(GridMismatchError):
            donoho_stark_certificate(stats, bad, 1.0)
        with pytest.raises(GridMismatchError):
            concentration_defect(f, stats.plan.weights_in, bad)


def test_donoho_stark_designed_family(plan_mult, bump_profile):
    g = plan_mult.grid_in
    w = plan_mult.weights_in
    f = gaussian_field(g)
    stats = multiplier_sweep(plan_mult, bump_profile, f)
    saw_nonvacuous = False
    for q in (0.9, 0.99):
        omega = ball_region_for_mass(f, w, q)
        for floor in (0.5, 1.0, 2.0):
            cert = donoho_stark_certificate(stats, omega, floor)
            assert cert.satisfied
            assert cert.flags["corollary_dominates"]
            if not cert.vacuous:
                saw_nonvacuous = True
                assert cert.lhs > 0
                assert cert.rhs >= cert.lhs
    assert saw_nonvacuous


def test_donoho_stark_halfline_matches_fine_grid(plan_mult, bump_profile):
    # the decay integral over {sigma >= floor} has the closed form
    # mu(box) floor^{-2 deg} / (2 deg), and nu read at the floor itself
    # agrees with a 600-scale grid; for the unit Gaussian and the gaussian
    # bump, nu^2 = 1 - (1 + floor^2)^{-deg/2} exactly
    g = plan_mult.grid_in
    w = plan_mult.weights_in
    f = gaussian_field(g)
    deg = g.params.homogeneity_degree
    box = float(w.flat.sum())
    fine = make_admissible_radial(plan_mult, sigma_count=600)
    assert len(bump_profile.sigma_grid) < 128
    omega = ball_region_for_mass(f, w, 0.99)
    stats = multiplier_sweep(plan_mult, bump_profile, f)
    stats_fine = multiplier_sweep(plan_mult, fine, f)
    for floor in (0.5, 1.0, 2.0):
        cert = donoho_stark_certificate(stats, omega, floor)
        ref = donoho_stark_certificate(stats_fine, omega, floor)
        closed = box * floor ** (-2.0 * deg) / (2.0 * deg)
        assert cert.flags["theta_decay_integral"] == pytest.approx(
            closed, rel=1e-12)
        assert cert.flags["nu"] == pytest.approx(ref.flags["nu"], abs=5e-3)
        exact = math.sqrt(1.0 - (1.0 + floor ** 2) ** (-deg / 2.0))
        assert cert.flags["nu"] == pytest.approx(exact, abs=2e-4)


def test_donoho_stark_integrability_guard(plan_mult, bump_profile):
    # a half-line reaching the smallest sampled scale is refused; one just
    # above it is certified
    g = plan_mult.grid_in
    w = plan_mult.weights_in
    f = gaussian_field(g)
    sg = bump_profile.sigma_grid
    omega = ball_region_for_mass(f, w, 0.9)
    stats = multiplier_sweep(plan_mult, bump_profile, f)
    for floor in (sg.sigma_min, 0.5 * sg.sigma_min):
        with pytest.raises(IntegrabilityGuardError):
            donoho_stark_certificate(stats, omega, floor)
    cert = donoho_stark_certificate(stats, omega, float(sg.sigmas[1]))
    assert math.isfinite(cert.flags["theta_decay_integral"])


def test_halfline_measure_matches_mask(plan_mult, bump_profile):
    # the mask-free half-line measure equals the iterated sum over the
    # product measure (d(sigma)/sigma) x (weighted dx) of the materialized
    # mask of the same scales
    g = plan_mult.grid_in
    w = plan_mult.weights_in
    sg = bump_profile.sigma_grid
    for floor in (sg.sigma_min, 0.5, 1.0, 2.0, float(sg.sigmas[7]) * 1.01):
        mask = np.outer(sg.sigmas >= floor, np.ones(g.size, dtype=bool))
        ref = float(sg.log_weights @ (mask.astype(float) @ w.flat))
        assert _halfline_measure(sg, w, floor) == pytest.approx(ref, rel=1e-13)


def test_certificate_csv_shape(plan_half):
    cert = heisenberg_certificate(plan_half, gaussian_field(plan_half.grid_in))
    csv = report_csv({"runs": [{"certificates": [cert.to_json()]}]})
    lines = csv.strip().split("\n")
    assert lines[0] == "name,d,alpha,lhs,rhs,ratio,satisfied,slack,input_digest"
    assert lines[1].startswith("heisenberg,1,0.5,")
    assert len(lines) == 2
    # an unflagged certificate's JSON is the CSV columns, a flagged one's
    # keeps its flags
    assert list(cert.to_json()) == lines[0].split(",")
    flagged = dataclasses.replace(cert, flags={"vacuous": True})
    assert flagged.to_json()["flags"] == {"vacuous": True}
    assert list(flagged.to_json())[:-1] == lines[0].split(",")
