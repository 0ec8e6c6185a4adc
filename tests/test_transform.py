import math

import numpy as np
import pytest

from weinstein import (Field, WeinsteinParams, build_grid,
                       direct_quadrature, forward, frequency_grid,
                       gaussian_field, inner_product, inverse, make_plan,
                       norm_p, weinstein_kernel)
from weinstein._accel import kernel_matrix


def resolved_field(grid, rng, n_terms=3):
    """Random superposition of moderately wide gaussians: decays inside the
    box and is band-limited for the conjugate grid."""
    pts = grid.points
    d = grid.params.d
    vals = np.zeros(pts.shape[0], dtype=np.complex128)
    for _ in range(n_terms):
        w = rng.uniform(0.9, 1.6)
        ce = rng.uniform(-1.0, 1.0, size=d)
        cr = rng.uniform(0.0, 1.5)
        amp = rng.normal() + 1j * rng.normal()
        de = np.sum((pts[:, :d] - ce) ** 2, axis=1)
        r = pts[:, d]
        rad = np.exp(-0.5 * (r - cr) ** 2 / w ** 2) \
            + np.exp(-0.5 * (r + cr) ** 2 / w ** 2)
        vals += amp * np.exp(-0.5 * de / w ** 2) * rad
    return Field(grid=grid, values=vals.reshape(grid.shape))


def test_frequency_grid_is_conjugate(plan_half):
    g = plan_half.grid_in
    gf = plan_half.grid_out
    dx = g.euclid_spacings()[0]
    dlam = gf.euclid_spacings()[0]
    n = g.shape[0]
    assert dlam == pytest.approx(2 * math.pi / (n * dx), rel=1e-12)
    assert np.array_equal(gf.radial_nodes, g.radial_nodes)


def test_gaussian_is_fixed_point(plan_half):
    f = gaussian_field(plan_half.grid_in)
    F = forward(plan_half, f)
    expected = gaussian_field(plan_half.grid_out)
    err = np.max(np.abs(F.values - expected.values))
    assert err < 1e-6


def test_forward_zero(plan_half):
    z = Field(grid=plan_half.grid_in, values=np.zeros(plan_half.grid_in.shape))
    assert np.all(forward(plan_half, z).values == 0)
    assert np.all(inverse(plan_half, forward(plan_half, z)).values == 0)


def test_dilated_gaussian_scaling_law():
    # forward of exp(-|x|^2/(2 s^2)) is s^deg exp(-s^2 |lam|^2 / 2)
    p = WeinsteinParams(d=1, alpha=1.0)
    s = 1.4
    g = build_grid(p, (10.0, 10.0), (128, 128), radial_scheme="collocation")
    plan = make_plan(g)
    F = forward(plan, gaussian_field(g, scale=s))
    expected = s ** p.homogeneity_degree \
        * gaussian_field(plan.grid_out, scale=1.0 / s).values
    assert np.max(np.abs(F.values - expected)) < 1e-8 * s ** p.homogeneity_degree


def test_roundtrip_gaussian(plan_half):
    f = gaussian_field(plan_half.grid_in)
    back = inverse(plan_half, forward(plan_half, f))
    assert np.max(np.abs(back.values - f.values)) < 1e-6


def test_inverse_of_gaussian(plan_half):
    F = gaussian_field(plan_half.grid_out)
    f = inverse(plan_half, F)
    expected = gaussian_field(plan_half.grid_in)
    assert np.max(np.abs(f.values - expected.values)) < 1e-6


def test_plancherel_and_parseval(plan_half, rng):
    w_in, w_out = plan_half.weights_in, plan_half.weights_out
    for _ in range(5):
        f = resolved_field(plan_half.grid_in, rng)
        g = resolved_field(plan_half.grid_in, rng)
        F, G = forward(plan_half, f), forward(plan_half, g)
        n2 = norm_p(f, w_in, 2) ** 2
        assert abs(norm_p(F, w_out, 2) ** 2 - n2) / n2 < 1e-6
        ip = inner_product(f, g, w_in)
        ipf = inner_product(F, G, w_out)
        assert abs(ip - ipf) / abs(ip) < 1e-6


def test_sup_norm_bound(plan_one_colloc, rng):
    # ||F f||_inf <= ||f||_1 for nonnegative f (and in fact any f)
    for _ in range(5):
        f = resolved_field(plan_one_colloc.grid_in, rng)
        f = Field(grid=f.grid, values=np.abs(f.values))
        F = forward(plan_one_colloc, f)
        assert norm_p(F, plan_one_colloc.weights_out, math.inf) \
            <= norm_p(f, plan_one_colloc.weights_in, 1) * (1 + 1e-10)


def test_direct_quadrature_matches_fast(rng):
    for d, alpha, n in ((1, 0.5, 16), (1, 1.0, 16), (2, 2.0, 12)):
        p = WeinsteinParams(d=d, alpha=alpha)
        g = build_grid(p, (5.6,) * (d + 1), (n,) * (d + 1))
        plan = make_plan(g)
        f = resolved_field(g, rng)
        fast = forward(plan, f)
        dense = direct_quadrature(plan, f)
        w = plan.weights_out
        assert norm_p(fast - dense, w, 2) / norm_p(fast, w, 2) < 1e-8
        # inverse direction too
        fb_fast = inverse(plan, fast)
        fb_dense = direct_quadrature(plan, fast, inverse=True)
        wi = plan.weights_in
        assert norm_p(fb_fast - fb_dense, wi, 2) / norm_p(fb_fast, wi, 2) < 1e-8


@pytest.mark.parametrize("normalization", ["self-reciprocal", "squared", 2.75])
def test_fast_matches_direct_nonsquare(rng, normalization):
    # axes of different lengths catch axis mix-ups in the separable route
    # (radial axis moved first, Euclidean FFTs along the rest) that the
    # cubic grids above cannot; both routes evaluate the same discrete sum
    for d, extents, counts, scheme in (
            (1, (5.0, 6.0), (12, 20), "uniform-offset"),
            (1, (5.0, 6.0), (12, 20), "collocation"),
            (2, (5.0, 4.0, 6.0), (10, 8, 14), "uniform-offset")):
        p = WeinsteinParams(d=d, alpha=0.75)
        g = build_grid(p, extents, counts, radial_scheme=scheme)
        plan = make_plan(g, normalization=normalization)
        f = Field(grid=g, values=rng.normal(size=g.shape)
                  + 1j * rng.normal(size=g.shape))
        fast = forward(plan, f)
        dense = direct_quadrature(plan, f)
        w = plan.weights_out
        assert norm_p(fast - dense, w, 2) / norm_p(dense, w, 2) < 1e-12
        back = inverse(plan, fast)
        back_dense = direct_quadrature(plan, fast, inverse=True)
        wi = plan.weights_in
        assert norm_p(back - back_dense, wi, 2) \
            / norm_p(back_dense, wi, 2) < 1e-12


def test_direct_quadrature_one_hot():
    # a single-point field transforms to weight * kernel sampled over lam
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (4.0, 4.0), (12, 12))
    plan = make_plan(g)
    vals = np.zeros(g.shape)
    vals[3, 4] = 1.0
    f = Field(grid=g, values=vals)
    out = direct_quadrature(plan, f)
    x0 = np.array([g.euclid_axes[0][3], g.radial_nodes[4]])
    w0 = plan.weights_in.weights[3, 4]
    expected = w0 * weinstein_kernel(p, plan.grid_out.points, x0)
    assert np.max(np.abs(out.flat - expected)) < 1e-14


def test_direct_quadrature_linearity(rng):
    p = WeinsteinParams(d=1, alpha=1.0)
    g = build_grid(p, (5.0, 5.0), (12, 12))
    plan = make_plan(g)
    f1 = resolved_field(g, rng)
    f2 = resolved_field(g, rng)
    a, b = 1.3 - 0.2j, -0.7 + 0.9j
    lhs = direct_quadrature(plan, Field(grid=g, values=a * f1.values + b * f2.values))
    rhs = a * direct_quadrature(plan, f1).values + b * direct_quadrature(plan, f2).values
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12 * scale


@pytest.mark.parametrize("scheme", ["uniform-offset", "collocation"])
@pytest.mark.parametrize("alpha", [-0.45, 0.5, 100.0])
@pytest.mark.parametrize("d, counts", [(1, (9, 11)), (2, (8, 9, 10))])
def test_direct_quadrature_equals_dense_kernel_sum(d, counts, alpha, scheme,
                                                   rng):
    # the per-axis quadrature is the dense weighted sum over all point
    # pairs, K(dst, src) @ (w * f), in both directions
    p = WeinsteinParams(d=d, alpha=alpha)
    g = build_grid(p, (4.0,) * (d + 1), counts, radial_scheme=scheme)
    plan = make_plan(g)
    for inv, src, dst, w, sign in (
            (False, plan.grid_in, plan.grid_out, plan.weights_in, -1.0),
            (True, plan.grid_out, plan.grid_in, plan.weights_out, +1.0)):
        f = Field(grid=src, values=rng.normal(size=src.shape)
                  + 1j * rng.normal(size=src.shape))
        dense = kernel_matrix(dst.points, src.points, alpha, sign) \
            @ (w.flat * f.flat)
        got = direct_quadrature(plan, f, inverse=inv).flat
        assert np.linalg.norm(got - dense) <= 1e-13 * np.linalg.norm(dense)


def test_reflection_identity(plan_half, rng):
    # the inverse realized through conjugate phases equals the dense
    # synthesis quadrature with the reflected kernel
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (5.6, 5.6), (16, 16))
    plan = make_plan(g)
    F = resolved_field(plan.grid_out, rng)
    via_fast = inverse(plan, F)
    via_dense = direct_quadrature(plan, F, inverse=True)
    w = plan.weights_in
    assert norm_p(via_fast - via_dense, w, 2) / norm_p(via_fast, w, 2) < 1e-8


def test_plan_validation():
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (8.0, 8.0), (32, 32))
    with pytest.raises(ValueError):
        make_plan(g, method="bogus")
    plan = make_plan(g)
    other = build_grid(p, (7.0, 8.0), (32, 32))
    from weinstein import GridMismatchError
    with pytest.raises(GridMismatchError):
        forward(plan, gaussian_field(other))


def test_plan_method_direct_dispatch(rng):
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (5.0, 5.0), (12, 12))
    plan_fast = make_plan(g)
    plan_dense = make_plan(g, method="direct_quadrature")
    f = resolved_field(g, rng)
    a = forward(plan_fast, f)
    b = forward(plan_dense, f)
    assert np.max(np.abs(a.values - b.values)) < 1e-10


def test_kernel_cache_structure(plan_half):
    cache = plan_half.kernel_cache
    r = plan_half.grid_in.radial_nodes
    w = plan_half.grid_in.radial_weights()
    # real, and symmetric once the folded weights are divided out
    assert np.isrealobj(cache)
    bare = cache / w[None, :]
    assert np.max(np.abs(bare - bare.T)) < 1e-12


def test_squared_normalization_variant_measured():
    # the "squared" normalization breaks self-reciprocity by the constant
    # ratio, which the norm-identity defect then measures
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (8.0, 8.0), (64, 64))
    plan = make_plan(g, normalization="squared")
    f = gaussian_field(g)
    F = forward(plan, f)
    base = (2 * math.pi) ** 0.5 * 2 ** 0.5 * math.gamma(1.5)
    n_in = norm_p(f, plan.weights_in, 2)
    n_out = norm_p(F, plan.weights_out, 2)
    # the forward sum carries 1/C^2 instead of 1/C, so the norm ratio of the
    # pair drops to 1/C_self exactly
    assert n_out / n_in == pytest.approx(1.0 / base, rel=1e-10)
