import math

import numpy as np
import pytest

from weinstein import (Field, IntegrabilityGuardError, WeinsteinParams,
                       ball_region, ball_region_for_mass, build_grid,
                       concentration_defect, dispersion,
                       donoho_stark_certificate, forward, gaussian_field,
                       general_heisenberg_certificate, heisenberg_certificate,
                       make_plan, measure_weights,
                       multiplier_heisenberg_certificate, multiplier_sweep,
                       norm_p, region_from_mask, sigma_concentration_defect,
                       sigma_halfline_region, sigma_region_from_mask)
from weinstein.multiplier import MultiplierProfile
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


def test_multiplier_heisenberg(plan_mult, bump_profile):
    f = gaussian_field(plan_mult.grid_in)
    cert = multiplier_heisenberg_certificate(plan_mult, bump_profile, f)
    assert cert.satisfied and not cert.hypothesis_violated
    assert cert.ratio <= 1.0


def test_multiplier_heisenberg_zero_symbol_flagged(plan_mult, bump_profile):
    grid = plan_mult.grid_out
    zero_prof = MultiplierProfile(
        symbol=Field(grid=grid, values=np.zeros(grid.shape)),
        sigma_grid=bump_profile.sigma_grid)
    f = gaussian_field(plan_mult.grid_in)
    cert = multiplier_heisenberg_certificate(plan_mult, zero_prof, f)
    assert cert.hypothesis_violated
    assert cert.flags["admissibility_defect"] == pytest.approx(1.0, abs=1e-12)


def test_general_heisenberg_collapses_at_unit_exponents(plan_mult, bump_profile):
    f = gaussian_field(plan_mult.grid_in)
    sweep = multiplier_sweep(plan_mult, bump_profile, f)
    c31 = multiplier_heisenberg_certificate(plan_mult, bump_profile, f, sweep=sweep)
    c32 = general_heisenberg_certificate(plan_mult, bump_profile, f, 1.0, 1.0,
                                         sweep=sweep)
    assert abs(c32.ratio - c31.ratio) < 1e-12 * c31.ratio


@pytest.mark.parametrize("beta,delta", [(2.0, 1.0), (1.0, 2.0), (2.0, 2.0)])
def test_general_heisenberg_exponents(plan_mult, bump_profile, beta, delta):
    f = gaussian_field(plan_mult.grid_in)
    cert = general_heisenberg_certificate(plan_mult, bump_profile, f, beta, delta)
    assert cert.satisfied and not cert.hypothesis_violated
    assert cert.flags["eps"] == pytest.approx(delta / (beta + delta))
    with pytest.raises(ValueError):
        general_heisenberg_certificate(plan_mult, bump_profile, f, 0.5, 1.0)


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
    full = region_from_mask(g, w, np.ones(g.shape, dtype=bool))
    empty = region_from_mask(g, w, np.zeros(g.shape, dtype=bool))
    assert concentration_defect(f, w, full) < 1e-12
    assert concentration_defect(f, w, empty) == pytest.approx(1.0, abs=1e-12)


def test_concentration_defect_ball_formula(plan_half):
    g = plan_half.grid_in
    w = plan_half.weights_in
    f = gaussian_field(g)
    ball = ball_region(g, w, 1.5)
    inside = float((w.weights * np.abs(f.values) ** 2)[ball.mask].sum())
    total = norm_p(f, w, 2) ** 2
    expected = math.sqrt(1.0 - inside / total)
    assert concentration_defect(f, w, ball) == pytest.approx(expected, rel=1e-12)


def test_concentration_monotone_under_region_growth(plan_half):
    g = plan_half.grid_in
    w = plan_half.weights_in
    f = gaussian_field(g)
    r_prev = 1.0
    prev = concentration_defect(f, w, ball_region(g, w, r_prev))
    for r in (1.5, 2.0, 3.0):
        cur = concentration_defect(f, w, ball_region(g, w, r))
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


def test_sigma_concentration_limits(plan_mult, bump_profile):
    g = plan_mult.grid_in
    w = plan_mult.weights_in
    f = gaussian_field(g)
    sweep = multiplier_sweep(plan_mult, bump_profile, f)
    sg = bump_profile.sigma_grid
    full = sigma_region_from_mask(sg, g, w,
                                  np.ones((len(sg), g.size), dtype=bool))
    empty = sigma_region_from_mask(sg, g, w,
                                   np.zeros((len(sg), g.size), dtype=bool))
    assert sigma_concentration_defect(plan_mult, bump_profile, f, full,
                                      sweep=sweep) < 1e-12
    assert sigma_concentration_defect(plan_mult, bump_profile, f, empty,
                                      sweep=sweep) == 1.0


def test_sigma_concentration_top_mass(plan_mult, bump_profile):
    # keeping the top-q fraction of the output's product-measure mass gives
    # defect sqrt(1-q) up to the mass captured at the threshold cell
    g = plan_mult.grid_in
    w = plan_mult.weights_in
    f = gaussian_field(g)
    sweep = multiplier_sweep(plan_mult, bump_profile, f)
    sg = bump_profile.sigma_grid
    dens = sweep * np.outer(sg.log_weights, w.flat)
    order = np.argsort(dens.ravel())[::-1]
    csum = np.cumsum(dens.ravel()[order])
    q = 0.9
    k = int(np.searchsorted(csum, q * csum[-1]))
    mask = np.zeros(dens.size, dtype=bool)
    mask[order[:k + 1]] = True
    region = sigma_region_from_mask(sg, g, w, mask.reshape(dens.shape))
    nu = sigma_concentration_defect(plan_mult, bump_profile, f, region, sweep=sweep)
    assert nu == pytest.approx(math.sqrt(1 - q), abs=5e-3)


def test_donoho_stark_designed_family(plan_mult, bump_profile):
    g = plan_mult.grid_in
    w = plan_mult.weights_in
    f = gaussian_field(g)
    sweep = multiplier_sweep(plan_mult, bump_profile, f)
    saw_nonvacuous = False
    for q in (0.9, 0.99):
        omega = ball_region_for_mass(f, w, q)
        for floor in (0.5, 1.0, 2.0):
            sig = sigma_halfline_region(bump_profile.sigma_grid, g, w, floor)
            cert = donoho_stark_certificate(plan_mult, bump_profile, f,
                                            omega, sig, sweep=sweep)
            assert cert.satisfied
            assert cert.flags["corollary_dominates"]
            if not cert.vacuous:
                saw_nonvacuous = True
                assert cert.lhs > 0
                assert cert.rhs >= cert.lhs
    assert saw_nonvacuous


def test_donoho_stark_integrability_guard(plan_mult, bump_profile):
    g = plan_mult.grid_in
    w = plan_mult.weights_in
    f = gaussian_field(g)
    sg = bump_profile.sigma_grid
    touching = sigma_region_from_mask(
        sg, g, w, np.ones((len(sg), g.size), dtype=bool))
    omega = ball_region_for_mass(f, w, 0.9)
    with pytest.raises(IntegrabilityGuardError):
        donoho_stark_certificate(plan_mult, bump_profile, f, omega, touching)


def test_certificate_csv_shape(plan_half):
    cert = heisenberg_certificate(plan_half, gaussian_field(plan_half.grid_in))
    csv = report_csv({"runs": [{"certificates": [cert.to_json()]}]})
    lines = csv.strip().split("\n")
    assert lines[0] == "name,d,alpha,lhs,rhs,ratio,satisfied,slack,input_digest"
    assert lines[1].startswith("heisenberg,1,0.5,")
    assert len(lines) == 2
