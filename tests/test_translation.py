import math

import numpy as np
import pytest

from weinstein import (Field, GridMismatchError, SizeGuardError,
                       TranslationRule, WeightField, WeinsteinParams,
                       build_grid, convolve, convolve_direct, forward,
                       gaussian_field, make_plan, measure_weights, norm_p,
                       translate_direct, translate_spectral, weinstein_kernel)
from weinstein.interp import radial_cubic_matrix
from weinstein import translation
from weinstein.translation import radial_mix_matrix, spectral_multiplier


def normalized_bessel_i(a, z):
    """Gamma(a+1) (2/z)^a I_a(z) by its power series, finite at any a."""
    q = z ** 2 / 4.0
    term = np.ones_like(z)
    total = term.copy()
    for k in range(1, 60):
        term = term * q / (k * (a + k))
        total = total + term
    return total


def translated_gaussian(grid, x):
    """Closed form for the translate of exp(-|.|^2/2): the Euclidean factor
    shifts, the radial factor is exp(-(x_r^2+y_r^2)/2) i_a(x_r y_r) with i_a
    the normalized modified Bessel function."""
    d = grid.params.d
    pts = grid.points
    eu = np.exp(-0.5 * np.sum((pts[:, :d] + x[:d]) ** 2, axis=1))
    yr = pts[:, d]
    rad = np.exp(-0.5 * (x[d] ** 2 + yr ** 2)) \
        * normalized_bessel_i(grid.params.alpha, x[d] * yr)
    return Field(grid=grid, values=(eu * rad).reshape(grid.shape))


def signed_field(grid, k=1.7):
    f = gaussian_field(grid)
    return Field(grid=grid, values=f.values * np.cos(k * grid.radius_sq))


def test_rule_normalization():
    # the rule's weights are the probability density c_a (1-t^2)^{a-1/2}:
    # they sum to 1 and reproduce its second moment E[t^2] = 1/(2a+2), also
    # at alpha = 200, where Gamma(alpha + 1) leaves the float range
    for alpha in (-0.3, 0.5, 1.0, 2.5, 200.0):
        t, w = TranslationRule(alpha=alpha)._nodes
        assert w.sum() == pytest.approx(1.0, abs=1e-14)
        assert w @ t ** 2 == pytest.approx(1.0 / (2.0 * alpha + 2.0),
                                           rel=1e-12)
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
    for x in ([math.nan, 0.5], [0.5, math.nan]):
        with pytest.raises(ValueError, match="outside the grid box"):
            translate_direct(rule, f, np.array(x))
        with pytest.raises(ValueError, match="outside the grid box"):
            translate_spectral(plan_half, f, np.array(x))


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


@pytest.fixture(scope="module")
def plan_2d_uniform():
    """d=2, alpha=1 on a uniform-offset radial axis (translate_direct needs
    it), radially refined like plan_half."""
    params = WeinsteinParams(d=2, alpha=1.0)
    return make_plan(build_grid(params, (8.0, 8.0, 8.0), (32, 32, 128)))


@pytest.fixture(scope="module")
def plan_2d_half():
    """d=2, alpha=1/2 on axes of three lengths; at alpha=1/2 the
    uniform-offset radial transform is its own exact inverse, as on
    plan_half."""
    params = WeinsteinParams(d=2, alpha=0.5)
    return make_plan(build_grid(params, (8.0, 7.0, 8.0), (40, 32, 96)))


def test_spectral_characterization_identity(plan_half, plan_2d_half):
    # F(tau_x f) = Lambda(-x, .) F(f) with -x the Euclidean reflection; the
    # factorized multiplier is the kernel on the full frequency grid, bit
    # for bit
    for plan, x in ((plan_half, np.array([0.7, 1.1])),
                    (plan_2d_half, np.array([0.7, -1.3, 1.1]))):
        params = plan.grid_in.params
        d = params.d
        xr = np.concatenate([-x[:d], x[d:]])
        kernel = weinstein_kernel(params, xr, plan.grid_out.points)
        mult = spectral_multiplier(plan, x)
        assert mult.shape == plan.grid_out.shape
        assert np.array_equal(mult.ravel(), kernel)
        f = gaussian_field(plan.grid_in)
        lhs = forward(plan, translate_spectral(plan, f, x))
        rhs = mult * forward(plan, f).values
        assert np.max(np.abs(lhs.values - rhs)) < 1e-10


def test_direct_vs_spectral_translation_2d(plan_2d_uniform):
    # grid-aligned Euclidean shifts along both axes; measured ratios are
    # 2.9e-6 to 4.6e-6 (radial cubic interpolation at dr = 1/16)
    plan = plan_2d_uniform
    rule = TranslationRule(alpha=1.0)
    w = plan.weights_in
    f = gaussian_field(plan.grid_in)
    s0, s1 = plan.grid_in.euclid_spacings()
    for x in (np.array([4 * s0, -6 * s1, 0.9]),
              np.array([-4 * s0, 3 * s1, 1.7]), np.array([0.0, 0.0, 0.45])):
        td = translate_direct(rule, f, x)
        ts = translate_spectral(plan, f, x)
        assert norm_p(td - ts, w, 2) / norm_p(ts, w, 2) < 1e-5


@pytest.mark.parametrize("extent, n", [(8.0, 48), (16.0, 256)])
def test_radial_mix_matrix_matches_dense_interpolation(extent, n):
    # oracle: sum_t w_t * (rows of the dense cubic matrix at the
    # angular points); 0.9 R sends queries past the extent, and every
    # offset reflects some of them through 0
    params = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(params, (extent, extent), (n, n))
    rule = TranslationRule(alpha=0.5)
    cos_t, w_t = rule._nodes
    r = g.radial_nodes
    for x_r in (0.37, extent / 2, 0.9 * extent):
        rho = np.sqrt(r[:, None] ** 2 + x_r ** 2
                      + 2.0 * x_r * r[:, None] * cos_t[None, :])
        dense = radial_cubic_matrix(r, extent, rho.ravel())
        oracle = np.einsum(
            "t,kti->ki", w_t, dense.reshape(n, len(cos_t), n))
        mix = radial_mix_matrix(rule, g, x_r)
        assert mix.shape == (n, n)
        assert np.max(np.abs(mix - oracle)) < 1e-15


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


def convolve_direct_reference(rule, f, g, w):
    """The convolution sum one translate_direct per grid point: the
    translate's Euclidean flip dotted with w * g."""
    flip = tuple(range(f.grid.params.d))
    gw = (w.weights * g.values).ravel()
    out = [np.flip(translate_direct(rule, f, x).values, axis=flip).ravel() @ gw
           for x in f.grid.points]
    return np.array(out).reshape(f.grid.shape)


@pytest.mark.parametrize("alpha, extents, counts", [
    (0.5, (5.6, 5.6), (16, 16)),
    (0.5, (8.0, 8.0), (48, 48)),
    # 9 Euclidean nodes of step 1 put one at exactly 0, a shift
    # translate_direct skips
    (1.0, (4.5, 4.0, 5.0), (9, 8, 10)),
])
def test_convolve_direct_matches_translate_direct(alpha, extents, counts):
    # the per-offset operators reproduce the per-point translations bit for
    # bit
    g = build_grid(WeinsteinParams(d=len(counts) - 1, alpha=alpha),
                   extents, counts)
    if len(counts) == 3:
        assert 0.0 in g.euclid_axes[0]
    w = measure_weights(g)
    rule = TranslationRule(alpha=alpha)
    f = signed_field(g)
    f = Field(grid=g, values=f.values * np.exp(0.3j * g.points[:, 0]).reshape(
        g.shape))
    h = gaussian_field(g, scale=1.2)
    assert np.array_equal(convolve_direct(rule, f, h, w).values,
                          convolve_direct_reference(rule, f, h, w))


def test_convolve_direct_builds_one_operator_per_offset(monkeypatch):
    # 48 radial nodes and 48 Euclidean coordinates: 48 radial mixes and 48
    # Euclidean shifts for the 2304 translations
    counts = {}

    def counted(fn):
        def call(*args):
            counts[fn.__name__] = counts.get(fn.__name__, 0) + 1
            return fn(*args)
        return call

    for name in ("radial_mix_matrix", "linear_shift"):
        monkeypatch.setattr(translation, name,
                            counted(getattr(translation, name)))
    g = build_grid(WeinsteinParams(d=1, alpha=0.5), (8.0, 8.0), (48, 48))
    f = gaussian_field(g)
    convolve_direct(TranslationRule(alpha=0.5), f, f, measure_weights(g))
    assert counts == {"radial_mix_matrix": 48, "linear_shift": 48}


def test_translation_at_large_alpha():
    # at alpha = 200 Gamma(alpha + 1) leaves the float range, but the
    # angular rule does not need it: the translated Gaussian matches its
    # closed form (to the radial extent's truncation of the Gaussian), and
    # convolve_direct the per-point translations (under unit weights, as
    # this measure's normalization constant leaves the float range)
    alpha = 200.0
    g = build_grid(WeinsteinParams(d=1, alpha=alpha), (4.0, 4.0), (32, 32))
    rule = TranslationRule(alpha=alpha)
    f = gaussian_field(g)
    x = np.array([4 * g.euclid_spacings()[0], 1.5])
    exact = translated_gaussian(g, x).values
    td = translate_direct(rule, f, x).values
    assert np.max(np.abs(td - exact)) < 1e-3 * np.max(np.abs(exact))
    unit = WeightField(grid=g, weights=np.ones(g.shape),
                       normalization_constant=1.0)
    h = gaussian_field(g, scale=1.2)
    assert np.array_equal(convolve_direct(rule, f, h, unit).values,
                          convolve_direct_reference(rule, f, h, unit))


def test_convolve_direct_rejects_factors_of_another_grid():
    params = WeinsteinParams(d=1, alpha=0.5)
    rule = TranslationRule(alpha=0.5)
    g16 = build_grid(params, (5.6, 5.6), (16, 16))
    other = build_grid(params, (4.0, 4.0), (16, 16))
    f = gaussian_field(g16)
    with pytest.raises(GridMismatchError):
        convolve_direct(rule, f, gaussian_field(other), measure_weights(g16))
    with pytest.raises(GridMismatchError):
        convolve_direct(rule, f, f, measure_weights(other))


def test_convolve_rejects_factors_of_another_grid(plan_half):
    f = gaussian_field(plan_half.grid_in)
    other = gaussian_field(build_grid(WeinsteinParams(d=1, alpha=0.5),
                                      (4.0, 4.0), (16, 16)))
    for a, b in ((f, other), (other, f)):
        with pytest.raises(GridMismatchError, match="different grids"):
            convolve(plan_half, a, b)


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
