import math

import numpy as np
import pytest
from scipy.special import ive

from weinstein import (Field, SizeGuardError, TranslationRule, WeinsteinParams,
                       build_grid, convolve, convolve_direct, forward,
                       gaussian_field, make_plan, measure_weights, norm_p,
                       translate_direct, translate_spectral, weinstein_kernel)
from weinstein.translation import radial_mix_matrix


def translated_gaussian(grid, x):
    """Closed form for the translate of exp(-|.|^2/2): the Euclidean factor
    shifts, the radial factor is exp(-(x_r^2+y_r^2)/2) i_a(x_r y_r) with i_a
    the normalized modified Bessel function (scipy's scaled ive keeps the
    product stable)."""
    a = grid.params.alpha
    d = grid.params.d
    pts = grid.points
    eu = np.exp(-0.5 * np.sum((pts[:, :d] + x[:d]) ** 2, axis=1))
    yr = pts[:, d]
    z = x[d] * yr
    if x[d] == 0:
        rad = np.exp(-0.5 * yr ** 2)
    else:
        scaled = 2 ** a * math.gamma(a + 1) * ive(a, z) / z ** a
        rad = np.exp(-0.5 * (x[d] - yr) ** 2) * scaled
    return Field(grid=grid, values=(eu * rad).reshape(grid.shape))


def signed_field(grid, k=1.7):
    f = gaussian_field(grid)
    return Field(grid=grid, values=f.values * np.cos(k * grid.radius_sq))


def test_rule_normalization():
    for alpha in (-0.3, 0.5, 1.0, 2.5):
        rule = TranslationRule(alpha=alpha)
        total = rule.c_alpha * rule.theta_weights.sum()
        assert total == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        TranslationRule(alpha=-0.6)


def test_translate_zero_is_identity(plan_half):
    rule = TranslationRule(alpha=0.5)
    f = gaussian_field(plan_half.grid_in)
    t0 = translate_direct(rule, f, np.zeros(2))
    assert np.max(np.abs(t0.values - f.values)) == 0.0
    ts = translate_spectral(plan_half, f, np.zeros(2))
    assert np.max(np.abs(ts.values - f.values)) < 1e-10


def test_translate_outside_box_rejected(plan_half):
    rule = TranslationRule(alpha=0.5)
    f = gaussian_field(plan_half.grid_in)
    with pytest.raises(ValueError, match="outside the grid box"):
        translate_direct(rule, f, np.array([9.5, 1.0]))
    with pytest.raises(ValueError, match="outside the grid box"):
        translate_direct(rule, f, np.array([1.0, 9.5]))
    with pytest.raises(ValueError, match="outside the grid box"):
        translate_spectral(plan_half, f, np.array([0.0, -0.5]))


def test_rule_alpha_must_match_grid(plan_half):
    # a rule built for another alpha would average with the wrong density;
    # both routes into the angular average refuse it, including a purely
    # Euclidean shift that never builds the radial matrix
    rule = TranslationRule(alpha=3.0)
    g = plan_half.grid_in
    with pytest.raises(ValueError, match="disagree on alpha"):
        radial_mix_matrix(rule, g, 1.0)
    with pytest.raises(ValueError, match="disagree on alpha"):
        translate_direct(rule, gaussian_field(g), np.array([0.5, 0.0]))


@pytest.mark.parametrize("alpha", [0.5, 1.0])
def test_translate_gaussian_closed_form(alpha):
    params = WeinsteinParams(d=1, alpha=alpha)
    g = build_grid(params, (8.0, 8.0), (128, 128))
    w = measure_weights(g)
    rule = TranslationRule(alpha=alpha)
    f = gaussian_field(g)
    step = g.euclid_spacings()[0]
    x = np.array([10 * step, 0.9])
    exact = translated_gaussian(g, x)
    scale = norm_p(exact, w, 2)
    td = translate_direct(rule, f, x)
    assert norm_p(td - exact, w, 2) / scale < 3e-6


def test_direct_vs_spectral_translation(plan_half):
    # grid-aligned Euclidean shift (linear interpolation is exact there);
    # the radial offset is unconstrained
    rule = TranslationRule(alpha=0.5)
    w = plan_half.weights_in
    f = gaussian_field(plan_half.grid_in)
    step = plan_half.grid_in.euclid_spacings()[0]
    for x in (np.array([8 * step, 0.9]), np.array([-16 * step, 1.7]),
              np.array([0.0, 0.45])):
        td = translate_direct(rule, f, x)
        ts = translate_spectral(plan_half, f, x)
        assert norm_p(td - ts, w, 2) / norm_p(ts, w, 2) < 1e-5


def test_direct_vs_spectral_offgrid_shift(plan_half):
    # off-grid Euclidean shifts carry the linear-interpolation error budget
    rule = TranslationRule(alpha=0.5)
    w = plan_half.weights_in
    f = gaussian_field(plan_half.grid_in)
    x = np.array([0.53, 1.21])
    td = translate_direct(rule, f, x)
    ts = translate_spectral(plan_half, f, x)
    assert norm_p(td - ts, w, 2) / norm_p(ts, w, 2) < 2e-3


def test_spectral_characterization_identity(plan_half):
    # F(tau_x f) = Lambda(-x, .) F(f) with -x the Euclidean reflection
    f = gaussian_field(plan_half.grid_in)
    x = np.array([0.7, 1.1])
    ts = translate_spectral(plan_half, f, x)
    lhs = forward(plan_half, ts)
    params = plan_half.grid_in.params
    xr = np.array([-x[0], x[1]])
    mult = weinstein_kernel(params, xr, plan_half.grid_out.points)
    rhs = mult.reshape(lhs.values.shape) * forward(plan_half, f).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-10


def test_translation_symmetry_in_arguments(plan_half):
    # tau_x f(y) = tau_y f(x) on grid-point pairs
    rule = TranslationRule(alpha=0.5)
    g = plan_half.grid_in
    f = gaussian_field(g)
    ij_a, ij_b = (70, 20), (75, 40)
    xa = np.array([g.euclid_axes[0][ij_a[0]], g.radial_nodes[ij_a[1]]])
    xb = np.array([g.euclid_axes[0][ij_b[0]], g.radial_nodes[ij_b[1]]])
    ta = translate_direct(rule, f, xa)
    tb = translate_direct(rule, f, xb)
    assert ta.values[ij_b] == pytest.approx(tb.values[ij_a], rel=1e-6)


def test_norm_contraction(plan_half):
    rule = TranslationRule(alpha=0.5)
    w = plan_half.weights_in
    f = signed_field(plan_half.grid_in)
    step = plan_half.grid_in.euclid_spacings()[0]
    for x in (np.array([8 * step, 0.8]), np.array([-24 * step, 2.0])):
        td = translate_direct(rule, f, x)
        for p in (1, 2):
            assert norm_p(td, w, p) <= norm_p(f, w, p) * (1 + 1e-10)
    # spectral route contracts in L2 by |kernel| <= 1
    ts = translate_spectral(plan_half, f, np.array([1.3, 0.9]))
    assert norm_p(ts, w, 2) <= norm_p(f, w, 2) * (1 + 1e-6)


def test_convolution_commutative(plan_half_wide):
    f = gaussian_field(plan_half_wide.grid_in, scale=1.0)
    g = gaussian_field(plan_half_wide.grid_in, scale=1.3)
    assert np.max(np.abs(convolve(plan_half_wide, f, g).values
                         - convolve(plan_half_wide, g, f).values)) < 1e-12


def test_convolution_theorem_pointwise(plan_half_wide):
    f = gaussian_field(plan_half_wide.grid_in, scale=1.0)
    g = signed_field(plan_half_wide.grid_in, k=0.8)
    c = convolve(plan_half_wide, f, g)
    lhs = forward(plan_half_wide, c)
    rhs = forward(plan_half_wide, f).values * forward(plan_half_wide, g).values
    assert np.max(np.abs(lhs.values - rhs)) < 1e-10


def test_convolution_norm_identity(plan_half_wide):
    w = plan_half_wide.weights_in
    wf = plan_half_wide.weights_out
    f = gaussian_field(plan_half_wide.grid_in, scale=1.0)
    g = gaussian_field(plan_half_wide.grid_in, scale=1.2)
    c = convolve(plan_half_wide, f, g)
    prod = Field(grid=plan_half_wide.grid_out,
                 values=forward(plan_half_wide, f).values
                 * forward(plan_half_wide, g).values)
    assert abs(norm_p(c, w, 2) - norm_p(prod, wf, 2)) / norm_p(prod, wf, 2) < 1e-10


def test_convolution_associative(plan_half_wide):
    f = gaussian_field(plan_half_wide.grid_in, scale=1.0)
    g = gaussian_field(plan_half_wide.grid_in, scale=1.2)
    h = signed_field(plan_half_wide.grid_in, k=0.5)
    left = convolve(plan_half_wide, convolve(plan_half_wide, f, g), h)
    right = convolve(plan_half_wide, f, convolve(plan_half_wide, g, h))
    scale = np.max(np.abs(left.values))
    assert np.max(np.abs(left.values - right.values)) < 1e-8 * scale


def test_young_inequalities(plan_half_wide):
    w = plan_half_wide.weights_in
    f = signed_field(plan_half_wide.grid_in, k=1.7)
    g = signed_field(plan_half_wide.grid_in, k=0.9)
    c = convolve(plan_half_wide, f, g)
    # (p, q, r) = (1, 1, 1)
    assert norm_p(c, w, 1) <= norm_p(f, w, 1) * norm_p(g, w, 1) * (1 + 1e-10)
    # (p, q, r) = (2, 1, 2)
    assert norm_p(c, w, 2) <= norm_p(f, w, 2) * norm_p(g, w, 1) * (1 + 1e-10)


def test_young_equality_case_positive_fields(plan_half_wide):
    # positive factors saturate the L1 Young inequality (mass conservation);
    # the superconvergent alpha=1/2 grid keeps the discrete defect tiny
    w = plan_half_wide.weights_in
    f = gaussian_field(plan_half_wide.grid_in, scale=1.0)
    g = gaussian_field(plan_half_wide.grid_in, scale=1.2)
    c = convolve(plan_half_wide, f, g)
    ratio = norm_p(c, w, 1) / (norm_p(f, w, 1) * norm_p(g, w, 1))
    assert ratio <= 1 + 1e-10
    assert ratio == pytest.approx(1.0, abs=1e-10)


def test_convolve_direct_small_grid_oracle():
    params = WeinsteinParams(d=1, alpha=0.5)
    rule = TranslationRule(alpha=0.5)
    g16 = build_grid(params, (5.6, 5.6), (16, 16))
    w16 = measure_weights(g16)
    plan16 = make_plan(g16)
    f = gaussian_field(g16)
    h = gaussian_field(g16, scale=1.2)
    cd = convolve_direct(rule, f, h, w16)
    cs = convolve(plan16, f, h)
    # 16 points per axis resolve the integrand only to the interpolation
    # floor; the refined grid below shows the routes converging
    assert norm_p(cd - cs, w16, 2) / norm_p(cs, w16, 2) < 5e-2

    g48 = build_grid(params, (8.0, 8.0), (48, 48))
    w48 = measure_weights(g48)
    plan48 = make_plan(g48)
    f48, h48 = gaussian_field(g48), gaussian_field(g48, scale=1.2)
    cd48 = convolve_direct(rule, f48, h48, w48)
    cs48 = convolve(plan48, f48, h48)
    assert norm_p(cd48 - cs48, w48, 2) / norm_p(cs48, w48, 2) < 5e-3


def test_convolve_direct_guard(plan_half):
    rule = TranslationRule(alpha=0.5)
    f = gaussian_field(plan_half.grid_in)
    with pytest.raises(SizeGuardError):
        convolve_direct(rule, f, f, plan_half.weights_in)


def test_collocation_radial_translation_rejected():
    params = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(params, (6.0, 6.0), (32, 32), radial_scheme="collocation")
    rule = TranslationRule(alpha=0.5)
    f = gaussian_field(g)
    with pytest.raises(ValueError, match="uniform-offset"):
        translate_direct(rule, f, np.array([0.0, 0.5]))
