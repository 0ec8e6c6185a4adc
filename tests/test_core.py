import math

import numpy as np
import pytest

from weinstein import (Field, GridMismatchError, MeasureRangeError,
                       WeinsteinParams, build_grid, build_sigma_grid,
                       gaussian_field, inner_product, measure_weights, norm_p,
                       normalization_constant)


def test_params_homogeneity_degree():
    p = WeinsteinParams(d=1, alpha=0.5)
    assert p.homogeneity_degree == 2 * 0.5 + 1 + 2
    p2 = WeinsteinParams(d=2, alpha=1.0)
    assert p2.homogeneity_degree == 6.0


def test_params_alpha_out_of_range():
    with pytest.raises(ValueError, match="alpha out of range"):
        WeinsteinParams(d=1, alpha=-0.6)
    with pytest.raises(ValueError, match="alpha out of range"):
        WeinsteinParams(d=1, alpha=-0.5)


def test_params_bad_dimension():
    with pytest.raises(ValueError):
        WeinsteinParams(d=0, alpha=0.5)


def test_normalization_constants():
    p = WeinsteinParams(d=1, alpha=0.5)
    base = math.sqrt(2 * math.pi) * 2 ** 0.5 * math.gamma(1.5)
    assert normalization_constant(p) == pytest.approx(base, rel=1e-15)


def test_build_grid_shapes():
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (8.0, 8.0), (64, 64))
    assert g.shape == (64, 64)
    assert np.all(g.radial_nodes > 0)
    assert np.all(g.radial_nodes <= 8.0)
    # euclid axes symmetric about 0: reflection is an index flip
    ax = g.euclid_axes[0]
    assert np.allclose(ax, -ax[::-1])

    p2 = WeinsteinParams(d=2, alpha=1.0)
    g2 = build_grid(p2, (6.0, 6.0, 6.0), (32, 32, 48))
    assert g2.shape == (32, 32, 48)
    assert g2.size == 32 * 32 * 48


def test_build_grid_rejects_bad_inputs():
    p = WeinsteinParams(d=1, alpha=0.5)
    with pytest.raises(ValueError):
        build_grid(p, (8.0, -1.0), (64, 64))
    with pytest.raises(ValueError):
        build_grid(p, (8.0, 8.0), (64, 4))
    with pytest.raises(ValueError):
        build_grid(p, (8.0, 8.0), (64,))
    with pytest.raises(ValueError):
        build_grid(p, (8.0, 8.0), (64, 64), radial_scheme="bogus")
    for extents in ((8.0, math.nan), (math.nan, 8.0), (8.0, math.inf),
                    (math.inf, 8.0), (8.0, 0.0)):
        with pytest.raises(ValueError, match="extents must be positive and "
                                             "finite"):
            build_grid(p, extents, (64, 64))


def test_same_geometry_needs_equal_parameters():
    # one set of nodes under two alphas samples two measures: fields and
    # weights of the two do not combine
    g1 = build_grid(WeinsteinParams(d=1, alpha=0.5), (8.0, 8.0), (16, 16))
    g2 = build_grid(WeinsteinParams(d=1, alpha=2.0), (8.0, 8.0), (16, 16))
    assert g1.same_geometry(g1) and not g1.same_geometry(g2)
    with pytest.raises(GridMismatchError):
        norm_p(gaussian_field(g1), measure_weights(g2), 2)


def test_measure_weights_box_volume():
    # weighted volume of [-1,1] x (0,1] is 2 * (1/3) / C, and the midpoint
    # rule converges to it at second order
    p = WeinsteinParams(d=1, alpha=0.5)
    errs = []
    for n in (64, 128):
        g = build_grid(p, (1.0, 1.0), (n, n))
        w = measure_weights(g)
        exact = 2.0 * (1.0 / 3.0) / w.normalization_constant
        errs.append(abs(w.total - exact) / exact)
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)
    assert errs[1] < 2e-5


def test_weights_nonnegative_random_grids(rng):
    for _ in range(5):
        d = int(rng.integers(1, 3))
        alpha = float(rng.uniform(-0.4, 3.0))
        n = int(rng.integers(8, 24))
        p = WeinsteinParams(d=d, alpha=alpha)
        g = build_grid(p, (4.0,) * (d + 1), (n,) * (d + 1))
        assert np.all(measure_weights(g).weights >= 0)


def test_measure_out_of_float_range():
    # alpha = 200: the radial weights overflow on a wide box and
    # Gamma(alpha + 1) on a narrow one; alpha = 100 on a tiny box
    # underflows every weight to 0
    for alpha, extent, scheme in ((200.0, 7.0, "collocation"),
                                  (200.0, 7.0, "uniform-offset"),
                                  (200.0, 1.0, "collocation"),
                                  (100.0, 0.01, "uniform-offset")):
        g = build_grid(WeinsteinParams(d=1, alpha=alpha), (extent, extent),
                       (16, 16), radial_scheme=scheme)
        with pytest.raises(MeasureRangeError):
            measure_weights(g)
    # the public constant itself leaves the float range past alpha ~ 171
    with pytest.raises(MeasureRangeError, match="alpha=200"):
        normalization_constant(WeinsteinParams(d=1, alpha=200.0))
    # alpha = 140: the constant is finite, and the radial weights r^281
    # (uniform-offset) or (R/2)^282 (collocation) overflow
    for extent, scheme in ((15.0, "uniform-offset"), (30.0, "collocation")):
        g = build_grid(WeinsteinParams(d=1, alpha=140.0), (extent, extent),
                       (16, 16), radial_scheme=scheme)
        assert math.isfinite(normalization_constant(g.params))
        with pytest.raises(MeasureRangeError,
                           match="radial weights overflow at alpha=140"):
            measure_weights(g)


def test_gaussian_scale_out_of_float_range():
    g = build_grid(WeinsteinParams(d=1, alpha=0.5), (8.0, 8.0), (16, 16))
    for scale in (1e300, 1e154, 1e-200):
        with pytest.raises(MeasureRangeError, match="2 scale\\^2"):
            gaussian_field(g, scale=scale)


def test_gaussian_norm_closed_form():
    # product of 1-D integrals: int exp(-t^2) dt = sqrt(pi) and
    # int_0^inf exp(-r^2) r^{2a+1} dr = Gamma(a+1)/2
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (8.0, 8.0), (128, 128))
    w = measure_weights(g)
    f = gaussian_field(g)
    exact = math.sqrt(math.pi) * math.gamma(p.alpha + 1.0) / 2.0 \
        / w.normalization_constant
    assert norm_p(f, w, 2) ** 2 == pytest.approx(exact, rel=1e-10)


def test_norms_basic():
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (8.0, 8.0), (32, 32))
    w = measure_weights(g)
    zero = Field(grid=g, values=np.zeros(g.shape))
    for q in (1, 2, math.inf):
        assert norm_p(zero, w, q) == 0.0
    f = gaussian_field(g)
    assert norm_p(2.5 * f, w, 2) == pytest.approx(2.5 * norm_p(f, w, 2), rel=1e-13)
    assert norm_p(f, w, math.inf) == pytest.approx(np.max(np.abs(f.values)))
    with pytest.raises(ValueError):
        norm_p(f, w, 0.5)


def test_norms_out_of_float_range():
    # at these scales |f|^2 over- or underflows; the norm then scales
    # max|f| by a power of two and multiplies back, so it is the scaled
    # norm of the unit field, with no overflow warning
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (8.0, 8.0), (32, 32))
    w = measure_weights(g)
    f = gaussian_field(g)
    f = Field(grid=g, values=f.values * np.exp(1j * g.radius_sq)
              / np.max(f.values))
    for scale in (1e200, 1e-200):
        big = Field(grid=g, values=scale * f.values)
        assert np.max(np.abs(big.values)) == pytest.approx(scale)
        for q in (1, 2, 3.5):
            assert norm_p(big, w, q) == pytest.approx(
                scale * norm_p(f, w, q), rel=1e-14)


def test_norm2_matches_inner_product():
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (8.0, 8.0), (48, 48))
    w = measure_weights(g)
    f = gaussian_field(g, scale=1.2)
    ip = inner_product(f, f, w)
    assert ip.imag == pytest.approx(0.0, abs=1e-15)
    assert ip.real == pytest.approx(norm_p(f, w, 2) ** 2, rel=1e-12)


def test_inner_product_properties(rng):
    p = WeinsteinParams(d=1, alpha=1.0)
    g = build_grid(p, (6.0, 6.0), (24, 24))
    w = measure_weights(g)
    a = Field(grid=g, values=rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    b = Field(grid=g, values=rng.normal(size=g.shape) + 1j * rng.normal(size=g.shape))
    assert inner_product(a, b, w) == pytest.approx(np.conj(inner_product(b, a, w)))
    zero = Field(grid=g, values=np.zeros(g.shape))
    assert inner_product(a, zero, w) == 0
    c = 1.7 - 0.3j
    assert inner_product(c * a, b, w) == pytest.approx(c * inner_product(a, b, w))


@pytest.mark.parametrize("scheme,rel", [("uniform-offset", 1e-6),
                                        ("collocation", 1e-13)])
def test_gaussian_radial_moment_inner_product(scheme, rel):
    # <exp(-|x|^2/2), x_r exp(-|x|^2/2)> = sqrt(pi) * Gamma(a + 3/2) / 2 / C
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (8.0, 8.0), (128, 128), radial_scheme=scheme)
    w = measure_weights(g)
    f = gaussian_field(g)
    rfield = Field(grid=g, values=f.values * g.points[:, 1].reshape(g.shape))
    exact = math.sqrt(math.pi) * math.gamma(p.alpha + 1.5) / 2.0 \
        / w.normalization_constant
    assert inner_product(f, rfield, w).real == pytest.approx(exact, rel=rel)


def test_norm_triangle_inequality(rng):
    p = WeinsteinParams(d=1, alpha=0.8)
    g = build_grid(p, (5.0, 5.0), (24, 24))
    w = measure_weights(g)
    for _ in range(10):
        a = Field(grid=g, values=rng.normal(size=g.shape))
        b = Field(grid=g, values=rng.normal(size=g.shape))
        for q in (1, 2, math.inf):
            assert norm_p(a + b, w, q) <= norm_p(a, w, q) + norm_p(b, w, q) + 1e-12


def test_field_validation():
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (8.0, 8.0), (32, 32))
    with pytest.raises(GridMismatchError):
        Field(grid=g, values=np.zeros((16, 32)))
    bad = np.zeros(g.shape)
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        Field(grid=g, values=bad)
    g2 = build_grid(p, (7.0, 8.0), (32, 32))
    w = measure_weights(g)
    f2 = gaussian_field(g2)
    with pytest.raises(GridMismatchError):
        norm_p(f2, w, 2)


def test_field_accepts_noncontiguous_complex_views(rng):
    # transposed and strided complex views (tensordot outputs, slices) are
    # valid values; the finiteness check must not need a contiguous last axis
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (8.0, 8.0), (32, 32))
    base = rng.normal(size=(64, 96)) + 1j * rng.normal(size=(64, 96))
    for view in (base[:32, :32].T, base[::2, ::3]):
        assert not view.flags.c_contiguous
        f = Field(grid=g, values=view)
        assert f.values.flags.c_contiguous
        assert not f.values.flags.writeable
        assert np.array_equal(f.values, view)
    base[0, 0] = complex(1.0, np.nan)
    with pytest.raises(ValueError, match="finite"):
        Field(grid=g, values=base[::2, ::3])


def test_sigma_grid_weights():
    sg = build_sigma_grid(1e-2, 1e2, 128)
    assert sg.log_weights.sum() == pytest.approx(math.log(1e4), rel=1e-14)
    assert np.all(np.diff(sg.sigmas) > 0)
    sg_t = build_sigma_grid(0.5, 2.0, 8)
    assert sg_t.log_weights.sum() == pytest.approx(math.log(4.0), rel=1e-14)
    with pytest.raises(ValueError):
        build_sigma_grid(1.0, 0.5, 16)


def test_measure_scaling_homogeneity():
    # quadrature estimate of mu(sigma B)/mu(B) approaches sigma^deg as the
    # scaled box is refined (the reference box is held at high resolution)
    p = WeinsteinParams(d=1, alpha=0.7)
    sigma = 1.5
    ref = measure_weights(build_grid(p, (1.0, 1.0), (512, 512))).total
    errs = []
    exact = sigma ** p.homogeneity_degree
    for n in (16, 32, 64):
        g2 = build_grid(p, (sigma, sigma), (n, n))
        errs.append(abs(measure_weights(g2).total / ref - exact) / exact)
    assert errs[-1] < 2e-4
    assert errs[0] > errs[-1]


def test_collocation_scheme_weights_exact():
    # Gauss-Jacobi radial weights integrate the gaussian to near machine
    p = WeinsteinParams(d=1, alpha=1.3)
    g = build_grid(p, (8.0, 8.0), (64, 64), radial_scheme="collocation")
    w = measure_weights(g)
    f = gaussian_field(g)
    exact = math.sqrt(math.pi) * math.gamma(p.alpha + 1.0) / 2.0 \
        / w.normalization_constant
    assert norm_p(f, w, 2) ** 2 == pytest.approx(exact, rel=1e-13)
