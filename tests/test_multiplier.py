import dataclasses
import math
import sys
import threading

import numpy as np
import pytest

import weinstein.multiplier
import weinstein.transform

from weinstein import (BumpProfile, Field, GridMismatchError,
                       MeasureRangeError, MultiplierProfile, SigmaRangeError,
                       WeinsteinParams, admissibility_defect, apply_multiplier,
                       apply_multiplier_kernel, build_grid, build_sigma_grid,
                       dilate_symbol, forward,
                       gaussian_field, kernel_psi, make_admissible_radial,
                       make_plan, multiplier_densities,
                       multiplier_plancherel_defect, multiplier_sweep, norm_p)
from weinstein.multiplier import (PROFILE_FAMILIES,
                                  radial_admissibility_quadrature)
from weinstein.report import _random_bump


# ---------------------------------------------------------------------------
# dilation
# ---------------------------------------------------------------------------

def test_dilate_identity(bump_profile):
    assert dilate_symbol(bump_profile, 1.0) is bump_profile.symbol


def test_dilate_rejects_nonpositive(plan_mult, bump_profile):
    # every entry point taking a dilation scale refuses 0, negative and
    # non-finite ones before computing anything
    f = gaussian_field(plan_mult.grid_in)
    x = np.array([0.5, 0.5])
    for sigma in (0.0, -2.0, math.nan, math.inf):
        for call in (lambda: dilate_symbol(bump_profile, sigma),
                     lambda: apply_multiplier(plan_mult, bump_profile, sigma, f),
                     lambda: kernel_psi(bump_profile, plan_mult, sigma, x, x),
                     lambda: apply_multiplier_kernel(plan_mult, bump_profile,
                                                     sigma, f)):
            with pytest.raises(ValueError,
                               match="dilation scale must be positive"):
                call()


def test_dilate_support_shrinks(bump_profile):
    # dilation by 2 halves the support radius of the bump
    grid = bump_profile.symbol.grid
    r = np.sqrt(grid.radius_sq)
    d2 = dilate_symbol(bump_profile, 2.0)
    level = 1e-8
    r_orig = float(r[np.abs(bump_profile.symbol.values) > level].max())
    r_half = float(r[np.abs(d2.values) > level].max())
    assert r_half == pytest.approx(r_orig / 2.0, rel=0.05)


def test_dilate_matches_analytic_profile(bump_profile):
    grid = bump_profile.symbol.grid
    r = np.sqrt(grid.radius_sq)
    for s in (0.35, 2.4):
        dil = dilate_symbol(bump_profile, s)
        # the radius profile is evaluated at the dilated radii, not
        # interpolated
        assert np.array_equal(dil.values, BumpProfile(1)(s * r))


def test_dilate_norm_homogeneity(plan_mult, bump_profile):
    # ||m_s||^2 = s^{-deg} ||m||^2 for resolved dilations
    grid = bump_profile.symbol.grid
    w = plan_mult.weights_out
    deg = grid.params.homogeneity_degree
    base = norm_p(bump_profile.symbol, w, 2) ** 2
    for s in (0.8, 1.25):
        n2 = norm_p(dilate_symbol(bump_profile, s), w, 2) ** 2
        assert n2 == pytest.approx(s ** (-deg) * base, rel=1e-3)


# ---------------------------------------------------------------------------
# admissibility
# ---------------------------------------------------------------------------

def test_admissibility_oracle_closed_form():
    # the squared-modulus dilation average of the bump is exactly 1; the
    # log-grid quadrature plus closed-form tail mass certifies it at radii
    # where the sigma range covers the dilation profile
    sg = build_sigma_grid(1e-2, 1e2, 128)
    for bump, radii in ((BumpProfile(1), (0.1, 0.2, 1.0, 3.0, 8.0)),
                        (BumpProfile(2), (0.2, 1.0, 5.0))):
        for radius in radii:
            quad = radial_admissibility_quadrature(bump, sg, radius)
            tail = bump.tail_mass(1e-2 * radius, 1e2 * radius)
            assert abs(quad + tail - 1.0) < 1e-8


def test_bump_profiles_match_closed_forms():
    # the family is one type: each origin power gives its explicit formula
    # bit for bit, and its tail mass the closed form, 0 and inf included
    u = np.append(0.0, np.geomspace(1e-6, 40.0, 4001))
    assert np.array_equal(BumpProfile(1)(u),
                          math.sqrt(2.0) * u * np.exp(-0.5 * u * u))
    assert np.array_equal(BumpProfile(2)(u),
                          math.sqrt(2.0) * u * u * np.exp(-0.5 * u * u))

    def above(p, v):
        if v == math.inf:
            return 0.0
        return (1.0 if p == 1 else v ** 2 + 1.0) * math.exp(-v ** 2)

    for lo, hi in ((0.0, 0.5), (0.3, 2.0), (1e-3, 1e3), (2.5, 7.0),
                   (0.0, math.inf), (1.5, math.inf)):
        for p in (1, 2):
            assert BumpProfile(p).tail_mass(lo, hi) \
                == 1.0 - (above(p, lo) - above(p, hi))
    assert BumpProfile(1) == PROFILE_FAMILIES["gaussian_bump"]
    assert BumpProfile(2) == PROFILE_FAMILIES["quadratic_bump"]
    for p in (0, 3):
        with pytest.raises(ValueError, match="origin power"):
            BumpProfile(p)


def test_admissibility_defect_sampled(bump_profile):
    defect = admissibility_defect(bump_profile)
    assert defect.max() < 1e-5
    assert defect.mean() <= defect.max()


def test_admissibility_zero_symbol(plan_mult):
    prof = MultiplierProfile(grid=plan_mult.grid_out, radial_profile=np.zeros_like,
                             sigma_grid=build_sigma_grid(1e-2, 1e2, 64))
    defect = admissibility_defect(prof)
    assert np.all(np.abs(defect - 1.0) < 1e-15)


def test_admissibility_scaling_invariance(bump_profile):
    # the dilation-average is invariant under m -> m(c .): substitution
    # invariance of the scale measure, checked on the sampled machinery
    c = 1.7
    grid = bump_profile.symbol.grid
    base = bump_profile
    scaled = MultiplierProfile(
        grid=grid,
        radial_profile=lambda u: BumpProfile(1)(c * u),
        sigma_grid=base.sigma_grid,
    )
    r_interior = (np.sqrt(grid.radius_sq) > 0.5) & (np.sqrt(grid.radius_sq) < 5.0)
    d1 = admissibility_defect(base)[r_interior]
    d2 = admissibility_defect(scaled)[r_interior]
    assert np.max(np.abs(d1 - d2)) < 1e-6


def test_sampled_defect_matches_radial_oracle(plan_mult, bump_profile):
    # the sampled defect is the 1-D quadrature's |sum - 1| at every
    # frequency point; both sums round off at rel 1e-12 of the dilation
    # average, which the defect (down to ~1e-12) inherits absolutely
    quad = radial_admissibility_quadrature(
        bump_profile.radial_profile, bump_profile.sigma_grid,
        np.sqrt(plan_mult.grid_out.radius_sq))
    defect = admissibility_defect(bump_profile)
    assert np.all(np.abs(defect - np.abs(quad - 1.0)) <= 1e-12 * quad)


def test_make_admissible_families(plan_mult):
    for family in ("gaussian_bump", "quadratic_bump"):
        prof = make_admissible_radial(plan_mult, family=family)
        assert prof.radial_profile is PROFILE_FAMILIES[family]
        assert prof.defect.max() < 1e-5
    with pytest.raises(ValueError):
        make_admissible_radial(plan_mult, family="bogus")


@pytest.fixture(scope="module")
def plan_default():
    """The grid of configs/default.json."""
    params = WeinsteinParams(d=1, alpha=0.5)
    grid = build_grid(params, (15.0, 15.0), (256, 256),
                      radial_scheme="collocation")
    return make_plan(grid)


@pytest.mark.parametrize("tolerance", [1e-6, 1e-8])
@pytest.mark.parametrize("family", ["gaussian_bump", "quadratic_bump"])
def test_derived_sigma_grid_meets_tolerance(plan_default, family, tolerance):
    # the derived range and count hold the full dilation average (no tail
    # mass added back) within tolerance/16 at every distinct frequency
    # radius of the grid, not only at the probe radii the count is chosen on
    prof = make_admissible_radial(plan_default, family=family,
                                  tolerance=tolerance)
    sg = prof.sigma_grid
    assert len(sg) < 128
    radii = np.unique(np.sqrt(plan_default.grid_out.radius_sq))
    quad = radial_admissibility_quadrature(PROFILE_FAMILIES[family], sg, radii)
    assert np.max(np.abs(quad - 1.0)) <= tolerance / 16.0


def test_radial_quadrature_vectorized():
    sg = build_sigma_grid(1e-2, 1e2, 64)
    radii = np.array([0.3, 1.0, 4.0])
    bump = BumpProfile(1)
    quad = radial_admissibility_quadrature(bump, sg, radii)
    assert quad.shape == (3,)
    for r, v in zip(radii, quad):
        assert v == pytest.approx(radial_admissibility_quadrature(
            bump, sg, float(r)), rel=1e-14)


def test_make_admissible_narrow_range_errors(plan_mult):
    with pytest.raises(SigmaRangeError, match="too narrow"):
        make_admissible_radial(plan_mult, sigma_range=(0.9, 1.1))


def test_make_admissible_range_out_of_float_range(plan_mult):
    # (sigma |x|)^2, or sigma_max / sigma_min, would leave the float range
    for sigma_range in ((1e-300, 1e300), (1e-300, 1e10), (1.0, 1e160)):
        with pytest.raises(SigmaRangeError, match="float range"):
            make_admissible_radial(plan_mult, sigma_range=sigma_range)
    # frequency radii whose squares overflow: no sigma range is derived
    params = WeinsteinParams(d=1, alpha=0.5)
    for extent in (1e200, 1e-200):
        plan = make_plan(build_grid(params, (extent, extent), (16, 16)))
        with pytest.raises(SigmaRangeError, match="frequency grid"):
            make_admissible_radial(plan)


# ---------------------------------------------------------------------------
# operator application
# ---------------------------------------------------------------------------

def test_apply_constant_symbol_is_identity(plan_mult):
    prof = MultiplierProfile(grid=plan_mult.grid_out, radial_profile=np.ones_like,
                             sigma_grid=build_sigma_grid(0.5, 2, 16))
    f = gaussian_field(plan_mult.grid_in)
    out = apply_multiplier(plan_mult, prof, 1.0, f)
    assert np.max(np.abs(out.values - f.values)) < 1e-10


def test_apply_zero_symbol(plan_mult):
    prof = MultiplierProfile(grid=plan_mult.grid_out, radial_profile=np.zeros_like,
                             sigma_grid=build_sigma_grid(0.5, 2, 16))
    f = gaussian_field(plan_mult.grid_in)
    out = apply_multiplier(plan_mult, prof, 1.0, f)
    assert np.max(np.abs(out.values)) == 0.0


def test_apply_rejects_nonpositive_sigma(plan_mult, bump_profile):
    f = gaussian_field(plan_mult.grid_in)
    with pytest.raises(ValueError):
        apply_multiplier(plan_mult, bump_profile, -1.0, f)


def test_apply_linear(plan_mult, bump_profile, rng):
    g = plan_mult.grid_in
    f1 = gaussian_field(g, scale=1.1)
    f2 = Field(grid=g, values=gaussian_field(g).values * np.cos(g.radius_sq))
    a, b = 0.7 + 0.1j, -1.2
    lhs = apply_multiplier(plan_mult, bump_profile, 1.3,
                           Field(grid=g, values=a * f1.values + b * f2.values))
    rhs = a * apply_multiplier(plan_mult, bump_profile, 1.3, f1).values \
        + b * apply_multiplier(plan_mult, bump_profile, 1.3, f2).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12


def test_apply_preserves_radial_symmetry(plan_mult, bump_profile):
    # radial symbol and even input give an output even in the euclid axis
    f = gaussian_field(plan_mult.grid_in)
    out = apply_multiplier(plan_mult, bump_profile, 1.4, f)
    flipped = out.values[::-1, :]
    assert np.max(np.abs(out.values - flipped)) < 1e-10 * np.max(np.abs(out.values))


def test_operator_norm_bound(plan_mult, bump_profile):
    # ||T f||_2 <= max |m_sigma| ||f||_2
    f = gaussian_field(plan_mult.grid_in)
    w = plan_mult.weights_in
    for s in (0.7, 1.0, 1.6):
        dil = dilate_symbol(bump_profile, s)
        bound = float(np.max(np.abs(dil.values))) * norm_p(f, w, 2)
        assert norm_p(apply_multiplier(plan_mult, bump_profile, s, f), w, 2) \
            <= bound * (1 + 1e-6)


# ---------------------------------------------------------------------------
# dilation-averaged norm identity
# ---------------------------------------------------------------------------

def test_plancherel_defect_small_for_admissible(plan_mult, bump_profile):
    # this moderate grid leaves ~1e-4 of box truncation; the acceptance
    # suite pins 1e-4 on the larger production grid
    f = gaussian_field(plan_mult.grid_in)
    stats = multiplier_sweep(plan_mult, bump_profile, f)
    assert multiplier_plancherel_defect(stats) < 2e-4


def test_plancherel_defect_scale_invariant(plan_mult, bump_profile):
    f = gaussian_field(plan_mult.grid_in)
    d1 = multiplier_plancherel_defect(
        multiplier_sweep(plan_mult, bump_profile, f))
    d2 = multiplier_plancherel_defect(
        multiplier_sweep(plan_mult, bump_profile, 3.7 * f))
    assert d1 == pytest.approx(d2, rel=1e-10)
    zero = Field(grid=plan_mult.grid_in,
                 values=np.zeros(plan_mult.grid_in.shape))
    with pytest.raises(ValueError):
        multiplier_plancherel_defect(
            multiplier_sweep(plan_mult, bump_profile, zero))


def test_plancherel_defect_tracks_admissibility_defect(plan_mult, bump_profile):
    # scaling the symbol by sqrt(1 + delta) shifts the dilation average to
    # 1 + delta, and the norm identity defect follows linearly
    delta = 0.05
    scaled = MultiplierProfile(
        grid=bump_profile.grid,
        radial_profile=lambda u: math.sqrt(1 + delta) * BumpProfile(1)(u),
        sigma_grid=bump_profile.sigma_grid,
    )
    f = gaussian_field(plan_mult.grid_in)
    defect = multiplier_plancherel_defect(
        multiplier_sweep(plan_mult, scaled, f))
    assert defect == pytest.approx(delta, rel=1e-2)


# ---------------------------------------------------------------------------
# kernel route
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_setup():
    params = WeinsteinParams(d=1, alpha=1.0)
    grid = build_grid(params, (5.6, 5.6), (16, 16))
    plan = make_plan(grid)
    prof = make_admissible_radial(plan)
    return plan, prof


def test_kernel_route_matches_spectral_at_unit_scale(small_setup):
    plan, prof = small_setup
    f = gaussian_field(plan.grid_in)
    w = plan.weights_in
    t_spec = apply_multiplier(plan, prof, 1.0, f)
    t_kern = apply_multiplier_kernel(plan, prof, 1.0, f)
    assert norm_p(t_spec - t_kern, w, 2) / norm_p(t_spec, w, 2) < 1e-4


def test_kernel_route_sigma_sweep_smooth_family():
    # a smooth admissible family keeps the operator output inside the box,
    # so the two routes agree across dilation scales
    params = WeinsteinParams(d=1, alpha=0.5)
    grid = build_grid(params, (8.0, 8.0), (32, 32))
    plan = make_plan(grid)
    prof = make_admissible_radial(plan, family="quadratic_bump")
    f = gaussian_field(grid)
    w = plan.weights_in
    for s in (0.9, 1.1, 1.25):
        t_spec = apply_multiplier(plan, prof, s, f)
        t_kern = apply_multiplier_kernel(plan, prof, s, f)
        assert norm_p(t_spec - t_kern, w, 2) / norm_p(t_spec, w, 2) < 1e-4


def test_kernel_psi_zero_symbol(small_setup):
    plan, _ = small_setup
    zero_prof = MultiplierProfile(
        grid=plan.grid_out, radial_profile=np.zeros_like,
        sigma_grid=build_sigma_grid(0.5, 2, 16))
    v = kernel_psi(zero_prof, plan, 1.0, np.array([0.3, 0.4]), np.array([0.1, 0.2]))
    assert v == 0


def test_kernel_psi_modulus_bound(small_setup):
    # |Psi(x, y)| <= ||m||_1 since the kernel factors have modulus <= 1
    plan, prof = small_setup
    m1 = norm_p(prof.symbol, plan.weights_out, 1)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = np.array([rng.uniform(-4, 4), rng.uniform(0.1, 4)])
        y = np.array([rng.uniform(-4, 4), rng.uniform(0.1, 4)])
        assert abs(kernel_psi(prof, plan, 1.2, x, y)) <= m1 * (1 + 1e-12)


def test_kernel_route_pointwise_bound(small_setup, rng):
    # |T(chi_Omega f)(x)| <= sigma^{-deg} ||m||_1 ||f||_2 mu(Omega)^{1/2}
    plan, prof = small_setup
    grid = plan.grid_in
    w = plan.weights_in
    m1 = norm_p(prof.symbol, plan.weights_out, 1)
    deg = grid.params.homogeneity_degree
    f = gaussian_field(grid)
    n2 = norm_p(f, w, 2)
    for s in (0.8, 1.0, 1.5):
        for _ in range(3):
            mask = rng.uniform(size=grid.shape) < rng.uniform(0.2, 0.9)
            measure = float(w.weights[mask].sum())
            out = apply_multiplier_kernel(plan, prof, s, f, region_mask=mask)
            bound = s ** (-deg) * m1 * n2 * math.sqrt(measure)
            assert np.max(np.abs(out.values)) <= bound * (1 + 1e-10)


def test_kernel_route_refuses_foreign_masks(small_setup):
    # the region mask must have the field's grid shape: a flattened mask,
    # one of another shape and one with an extra axis are refused
    plan, prof = small_setup
    grid = plan.grid_in
    f = gaussian_field(grid)
    mask = grid.radius_sq <= 4.0
    for bad in (mask.ravel(), mask[:-1], mask[..., None]):
        with pytest.raises(GridMismatchError):
            apply_multiplier_kernel(plan, prof, 1.0, f, region_mask=bad)
    out = apply_multiplier_kernel(plan, prof, 1.0, f, region_mask=mask)
    ones = apply_multiplier_kernel(plan, prof, 1.0, f,
                                   region_mask=mask.astype(int))
    assert np.array_equal(out.values, ones.values)


@pytest.mark.parametrize("d, counts", [(1, (8, 8)), (2, (8, 8, 8))])
def test_kernel_route_matches_assembled_psi(d, counts, kernel_calls):
    # the two matrix-vector products equal the kernel sum assembled from
    # kernel_psi, whose reflected point is built explicitly: this checks
    # K(u, (-x', x_r)/sigma) = conj K(u, x/sigma) on the grid
    params = WeinsteinParams(d=d, alpha=0.5)
    grid = build_grid(params, (4.0,) * (d + 1), counts,
                      radial_scheme="collocation")
    plan = make_plan(grid)
    prof = make_admissible_radial(plan)
    # a field with no symmetry, so a reflection error cannot cancel
    gen = np.random.default_rng(5)
    f = Field(grid=grid, values=gen.normal(size=grid.shape)
              + 1j * gen.normal(size=grid.shape))
    w = plan.weights_in.flat
    pts = grid.points
    deg = params.homogeneity_degree
    mask = (np.arange(grid.size) % 3 != 0).reshape(grid.shape)
    # a few x spread over the grid; each row sums over every y
    rows = np.linspace(0, grid.size - 1, 8 if d == 1 else 2).astype(int)
    for s in (0.8, 1.0, 1.5):
        psi = np.array([[kernel_psi(prof, plan, s, pts[i], pts[k])
                         for k in range(grid.size)] for i in rows])
        for region in (None, mask):
            vals = f.flat if region is None else f.flat * region.ravel()
            assembled = s ** (-deg) * (psi @ (w * vals))
            kernel_calls.clear()
            out = apply_multiplier_kernel(plan, prof, s, f,
                                          region_mask=region)
            # applied through per-axis factors: the pointwise kernel is
            # never evaluated
            assert kernel_calls == []
            got = out.flat[rows]
            assert np.linalg.norm(got - assembled) \
                <= 1e-12 * np.linalg.norm(assembled)


def test_multiplier_sweep_shape(plan_mult, bump_profile):
    f = gaussian_field(plan_mult.grid_in)
    stats = multiplier_sweep(plan_mult, bump_profile, f, (0, 1, 2))
    assert stats.betas == (0.0, 1.0, 2.0)
    assert stats.moments.shape == (len(bump_profile.sigma_grid), 3)
    # the sweep keeps the moments sum w |x|^{2 beta} |T_sigma f|^2 per scale
    assert stats.moments.dtype == np.float64
    assert np.all(stats.moments >= 0)
    assert np.array_equal(stats.transform.values,
                          forward(plan_mult, f).values)
    w = plan_mult.weights_in.flat
    rsq = plan_mult.grid_in.radius_sq.reshape(-1)
    for j in (0, len(bump_profile.sigma_grid) // 2):
        sigma = float(bump_profile.sigma_grid.sigmas[j])
        dens = np.abs(apply_multiplier(plan_mult, bump_profile, sigma, f).flat) ** 2
        expected = [dens @ (w * rsq ** b) for b in (0, 1, 2)]
        np.testing.assert_allclose(stats.moments[j], expected, rtol=1e-12)
        np.testing.assert_allclose(stats.column(1)[j], expected[1], rtol=1e-12)
    with pytest.raises(ValueError, match="not swept"):
        stats.column(1.5)


@pytest.fixture(scope="module")
def plan_alpha_100():
    """alpha = 100 on a 16^2 collocation grid: the measure's 1/C is ~1e-188
    and the radial weights ~r^201, so unscaled outputs overflow when
    squared."""
    params = WeinsteinParams(d=1, alpha=100.0)
    grid = build_grid(params, (15.0, 15.0), (16, 16),
                      radial_scheme="collocation")
    return make_plan(grid)


def _oracle_case(name, family, field):
    parts = [name] + [s for s in (family, field)
                      if s not in ("gaussian_bump", "gaussian")]
    return pytest.param(name, family, field, id="-".join(parts))


@pytest.mark.parametrize("plan_name,family,field", [
    _oracle_case(name, family, field)
    for field in ("gaussian", "random_bump")
    for family in ("gaussian_bump", "quadratic_bump")
    for name in ("plan_mult", "plan_2d_small", "plan_alpha_100")])
def test_sweep_stats_match_density_oracle(plan_name, family, field, request):
    # the streamed moments (interpolated at the small scales) equal the
    # materialized densities reduced afterwards, on a d=1 and a d=2 grid
    # and at alpha = 100, for both profile families, and for a run's
    # random bump field (complex, off-centre Gaussians) as well as a
    # centred Gaussian
    plan = request.getfixturevalue(plan_name)
    profile = make_admissible_radial(plan, family=family)
    if field == "gaussian":
        f = gaussian_field(plan.grid_in, scale=0.9)
    else:
        f = _random_bump(plan.grid_in, np.random.default_rng(20240501))
    betas = (0.0, 1.0, 1.5, 2.0)
    stats = multiplier_sweep(plan, profile, f, betas)
    dens = multiplier_densities(plan, profile, f)
    assert dens.shape == (len(profile.sigma_grid), plan.grid_in.size)
    rsq = plan.grid_in.radius_sq.reshape(-1)
    for i, beta in enumerate(betas):
        oracle = dens @ (plan.weights_in.flat * rsq ** beta)
        np.testing.assert_allclose(stats.moments[:, i], oracle, rtol=1e-12)
        np.testing.assert_allclose(stats.column(beta), oracle, rtol=1e-12)


def test_sweep_rejects_non_finite_profile(plan_mult, bump_profile):
    # a profile that is NaN at one radius (the largest dilated one) makes
    # non-finite moments, which the sweep refuses
    def broken(u):
        out = BumpProfile(1)(u)
        out[u == u.max()] = np.nan
        return out

    prof = MultiplierProfile(grid=bump_profile.grid, radial_profile=broken,
                             sigma_grid=bump_profile.sigma_grid)
    with pytest.raises(ValueError, match="non-finite"):
        multiplier_sweep(plan_mult, prof, gaussian_field(plan_mult.grid_in))


def test_sweep_overflow_is_a_measure_range_error(plan_mult, bump_profile):
    # a finite field and profile whose squared outputs overflow are a
    # numeric guard, told from the data, not from floating-point flags
    # (which a threaded BLAS product does not carry back from its workers)
    f = gaussian_field(plan_mult.grid_in)
    huge = Field(grid=f.grid, values=1e160 * f.values)
    with pytest.raises(MeasureRangeError, match="float range"):
        multiplier_sweep(plan_mult, bump_profile, huge)


def test_sweep_refuses_input_grid_past_float_range():
    # every euclidean |x|^2 of the input grid is inf: the sweep names the
    # grid, even for beta = 0 alone, whose weights w |x|^0 stay finite
    grid = build_grid(WeinsteinParams(d=1, alpha=0.5), (1e200, 15.0),
                      (16, 16))
    plan = make_plan(grid)
    f = Field(grid=grid, values=np.ones(grid.shape))
    with pytest.raises(MeasureRangeError,
                       match=r"input grid's \|x\|\^2 spans \[inf, inf\]"):
        multiplier_sweep(plan, make_admissible_radial(plan), f)


def test_sweep_builds_no_per_scale_field(plan_mult, bump_profile,
                                         monkeypatch):
    # the sweep runs on the transform's FFT and GEMM core: no dilated
    # symbol, inverse transform or Field per scale
    def refuse(*args, **kwargs):
        raise AssertionError("called per scale")

    f = gaussian_field(plan_mult.grid_in)
    expected = multiplier_sweep(plan_mult, bump_profile, f).moments
    for name in ("dilate_symbol", "inverse", "Field"):
        monkeypatch.setattr(f"weinstein.multiplier.{name}", refuse)
    stats = multiplier_sweep(plan_mult, bump_profile, f)
    assert np.array_equal(stats.moments, expected)


@pytest.mark.parametrize("T", [1e-6, 0.01, 0.05, 0.09, 0.3, 1.0])
def test_chebyshev_count_is_smallest_meeting_bound(T):
    # n is the smallest node count whose relative interpolation bound
    # 2 e^T (T/4)^n / n! is at most 2^-53; 8 nodes at tau = 0.3
    def bound(n):
        return 2.0 * math.exp(T) * (T / 4.0) ** n / math.factorial(n)

    n = weinstein.multiplier._chebyshev_count(T)
    assert bound(n) <= 2.0 ** -53 < bound(n - 1)
    if T == 0.09:
        assert n == 8


def test_sweep_interpolation_needs_its_nodes(plan_alpha_100, monkeypatch):
    # the node count is not slack: five nodes miss the dense oracle by
    # more than 1e-12 at alpha = 100
    profile = make_admissible_radial(plan_alpha_100)
    f = gaussian_field(plan_alpha_100.grid_in, scale=0.9)
    oracle = multiplier_densities(plan_alpha_100, profile, f) \
        @ plan_alpha_100.weights_in.flat
    monkeypatch.setattr(weinstein.multiplier, "_chebyshev_count",
                        lambda T: 5)
    moments = multiplier_sweep(plan_alpha_100, profile, f).moments[:, 0]
    assert np.max(np.abs(moments / oracle - 1.0)) > 1e-12


def test_sweep_synthesis_count(plan_mult, bump_profile, monkeypatch):
    # the scales with tau = sigma max|x| <= 0.3 cost n syntheses in all,
    # for any BumpProfile; any other profile, even a wrapped bump, is
    # synthesized at every scale.  A synthesis is counted by its FFTs of sign +1, one call per
    # scale; the sweep's forward transform runs the analysis sign only
    calls = []
    ffts = weinstein.transform._ffts

    def counted(v, sign):
        if sign > 0:
            calls.append(1)
        return ffts(v, sign)

    monkeypatch.setattr(weinstein.transform, "_ffts", counted)
    f = gaussian_field(plan_mult.grid_in)
    sigmas = bump_profile.sigma_grid.sigmas
    t = (sigmas * bump_profile.radius.max()) ** 2
    n_small = int(np.count_nonzero(t <= 0.3 ** 2))
    n = weinstein.multiplier._chebyshev_count(float(t[n_small - 1]))
    stats = multiplier_sweep(plan_mult, bump_profile, f)
    assert (n_small, n) == (49, 8)
    assert len(calls) == len(sigmas) - n_small + n
    calls.clear()
    fresh = dataclasses.replace(bump_profile, radial_profile=BumpProfile(1))
    assert fresh.radial_profile is not bump_profile.radial_profile
    assert np.array_equal(multiplier_sweep(plan_mult, fresh, f).moments,
                          stats.moments)
    assert len(calls) == len(sigmas) - n_small + n
    calls.clear()
    ad_hoc = dataclasses.replace(
        bump_profile, radial_profile=lambda u: BumpProfile(1)(u))
    per_scale = multiplier_sweep(plan_mult, ad_hoc, f)
    assert len(calls) == len(sigmas)
    np.testing.assert_allclose(stats.moments, per_scale.moments, rtol=1e-12)
    # a family profile with no more small scales than nodes synthesizes
    # every scale, and matches the dense oracle
    r_max = float(bump_profile.radius.max())
    coarse = dataclasses.replace(
        bump_profile, sigma_grid=build_sigma_grid(0.1 / r_max, 10.0 / r_max, 16))
    t = (coarse.sigma_grid.sigmas * r_max) ** 2
    n_small = int(np.count_nonzero(t <= 0.3 ** 2))
    assert 0 < n_small <= weinstein.multiplier._chebyshev_count(
        float(t[n_small - 1]))
    calls.clear()
    moments = multiplier_sweep(plan_mult, coarse, f).moments[:, 0]
    assert len(calls) == len(coarse.sigma_grid)
    oracle = multiplier_densities(plan_mult, coarse, f) @ plan_mult.weights_in.flat
    np.testing.assert_allclose(moments, oracle, rtol=1e-12)


# ---------------------------------------------------------------------------
# the split across CPUs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("plan_name", ["plan_mult", "plan_2d_small"])
def test_sweep_and_defect_independent_of_cpu_count(plan_name, request,
                                                   monkeypatch):
    # each scale is computed whole by one thread, so the moments are bit
    # for bit the same on 1, 2, 3 and 5 CPUs; the defect runs on the
    # calling thread, once per distinct radius, and equals the per-point
    # sum with its scales added in order
    plan = request.getfixturevalue(plan_name)
    profile = make_admissible_radial(plan)
    f = _random_bump(plan.grid_in, np.random.default_rng(20240501))
    results = []
    for n in (1, 2, 3, 5):
        monkeypatch.setattr(weinstein.transform, "_cpu_count", lambda: n)
        stats = multiplier_sweep(plan, profile, f, (0.0, 1.0, 2.0))
        results.append((stats.moments, admissibility_defect(profile)))
    for moments, defect in results[1:]:
        assert np.array_equal(moments, results[0][0])
        assert np.array_equal(defect, results[0][1])
    radius = np.sqrt(plan.grid_out.radius_sq)
    acc = np.zeros(radius.shape)
    for sigma, lw in zip(profile.sigma_grid.sigmas,
                         profile.sigma_grid.log_weights):
        acc += lw * np.abs(profile.radial_profile(sigma * radius)) ** 2
    assert np.array_equal(results[0][1], np.abs(acc - 1.0))


@pytest.mark.parametrize("check", [
    test_sweep_overflow_is_a_measure_range_error,
    test_sweep_rejects_non_finite_profile], ids=["overflow", "nan_profile"])
def test_sweep_errors_on_three_workers(plan_mult, bump_profile, monkeypatch,
                                       check):
    # a worker's overflow is still a MeasureRangeError and a NaN profile a
    # ValueError; the workers run under the sweep's np.errstate, or
    # pytest's RuntimeWarning filter would turn their warnings into errors
    monkeypatch.setattr(weinstein.transform, "_cpu_count", lambda: 3)
    check(plan_mult, bump_profile)


def test_cpu_map_runs_items_concurrently_in_order(monkeypatch):
    # three items on three CPUs meet at a three-party barrier, which no
    # serial run can pass; results come back in item order
    monkeypatch.setattr(weinstein.transform, "_cpu_count", lambda: 3)
    barrier = threading.Barrier(3, timeout=10)

    def meet(x):
        barrier.wait()
        return x * x

    assert weinstein.transform._cpu_map(meet, [3, 1, 2]) == [9, 1, 4]


def test_cpu_map_gives_helpers_the_callers_errstate_and_errors(monkeypatch):
    # at a three-party barrier each of three threads holds one item: every
    # helper runs under the caller's np.errstate, and an exception raised
    # on a helper alone reaches the caller
    monkeypatch.setattr(weinstein.transform, "_cpu_count", lambda: 3)
    barrier = threading.Barrier(3, timeout=10)

    def errstate(x):
        barrier.wait()
        return np.geterr()["over"]

    with np.errstate(over="raise"):
        assert weinstein.transform._cpu_map(errstate, range(3)) \
            == ["raise"] * 3

    def fail_on_helpers(x):
        barrier.wait()
        if threading.current_thread() is not threading.main_thread():
            raise KeyError(x)
        return x

    with pytest.raises(KeyError):
        weinstein.transform._cpu_map(fail_on_helpers, range(3))


def test_cpu_map_stress_each_item_once(monkeypatch):
    # more threads than cores and a short switch interval: every item is
    # taken exactly once and lands at its own index
    monkeypatch.setattr(weinstein.transform, "_cpu_count", lambda: 8)
    seen = []

    def record(x):
        seen.append(x)
        return -x

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        out = weinstein.transform._cpu_map(record, range(20000))
    finally:
        sys.setswitchinterval(interval)
    assert out == [-x for x in range(20000)]
    assert sorted(seen) == list(range(20000))


# ---------------------------------------------------------------------------
# grid pairs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def two_boxes():
    """Plans and profiles on two 32x32 d=1 grids of extents 8 and 6, whose
    shapes agree but whose nodes do not."""
    params = WeinsteinParams(d=1, alpha=0.5)
    plans = {L: make_plan(build_grid(params, (L, L), (32, 32)))
             for L in (8.0, 6.0)}
    return {L: (plan, make_admissible_radial(plan))
            for L, plan in plans.items()}


def test_sweep_rejects_profile_of_another_grid(two_boxes):
    profile_8, plan_6 = two_boxes[8.0][1], two_boxes[6.0][0]
    with pytest.raises(GridMismatchError, match="profile"):
        multiplier_sweep(plan_6, profile_8, gaussian_field(plan_6.grid_in))


def test_apply_multiplier_rejects_profile_of_another_grid(two_boxes):
    profile_8, plan_6 = two_boxes[8.0][1], two_boxes[6.0][0]
    with pytest.raises(GridMismatchError, match="profile"):
        apply_multiplier(plan_6, profile_8, 1.0,
                         gaussian_field(plan_6.grid_in))


def test_apply_multiplier_kernel_rejects_grids_of_another_plan(two_boxes):
    (plan_8, profile_8), (plan_6, profile_6) = two_boxes[8.0], two_boxes[6.0]
    with pytest.raises(GridMismatchError, match="field"):
        apply_multiplier_kernel(plan_6, profile_6, 1.0,
                                gaussian_field(plan_8.grid_in))
    with pytest.raises(GridMismatchError, match="profile"):
        apply_multiplier_kernel(plan_6, profile_8, 1.0,
                                gaussian_field(plan_6.grid_in))


def test_kernel_psi_rejects_profile_of_another_grid(two_boxes):
    profile_8, plan_6 = two_boxes[8.0][1], two_boxes[6.0][0]
    with pytest.raises(GridMismatchError, match="profile"):
        kernel_psi(profile_8, plan_6, 1.0, [0.5, 1.0], [0.0, 2.0])
