import math

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jn_zeros

from weinstein import WeinsteinParams, bessel_j_normalized, weinstein_kernel

mp.mp.dps = 80


def j_reference(alpha, x, terms=200):
    """Truncated power series in extended precision."""
    x = mp.mpf(x)
    a = mp.mpf(alpha)
    total = mp.mpf(0)
    for k in range(terms):
        total += (-1) ** k * (x / 2) ** (2 * k) / (mp.factorial(k) * mp.gamma(a + k + 1))
    return float(mp.gamma(a + 1) * total)


def test_j_at_zero_is_one():
    for alpha in (-0.3, 0.5, 1.0, 2.7):
        assert bessel_j_normalized(alpha, 0.0) == 1.0


def test_half_integer_closed_form():
    # j_{1/2}(x) = sin(x)/x
    for x in (0.5, 1.0, 2.0, 5.0):
        assert bessel_j_normalized(0.5, x) == pytest.approx(
            math.sin(x) / x, rel=1e-12)


def test_first_zero_of_order_one():
    z = float(jn_zeros(1, 1)[0])
    assert abs(bessel_j_normalized(1.0, z)) < 1e-10


@pytest.mark.parametrize("alpha", [-0.45, -0.1, 0.5, 1.0, 2.0, 3.7,
                                   6.0, 10.0, 20.0])
def test_against_extended_precision_series(alpha):
    xs = np.concatenate([
        np.linspace(0.0, 14.0, 57),
        np.linspace(10.0, 100.0, 91),
        # both sides of the series / scipy switchover at 12
        np.linspace(11.5, 12.5, 41),
    ])
    vals = bessel_j_normalized(alpha, xs)
    for x, v in zip(xs, vals):
        assert v == pytest.approx(j_reference(alpha, x), abs=1e-10)


def test_even_and_bounded(rng):
    for alpha in (0.0, 0.5, 2.0):
        xs = rng.uniform(-80, 80, size=500)
        vals = bessel_j_normalized(alpha, xs)
        assert np.allclose(vals, bessel_j_normalized(alpha, -xs), rtol=0, atol=0)
        assert np.all(np.abs(vals) <= 1.0 + 1e-14)


def test_evaluator_validation():
    with pytest.raises(ValueError, match="alpha out of range"):
        bessel_j_normalized(-0.7, 1.0)


# ---------------------------------------------------------------------------
# kernel properties
# ---------------------------------------------------------------------------

def _random_points(rng, d, n, spread=3.0):
    pts = rng.normal(scale=spread, size=(n, d + 1))
    return pts


@pytest.mark.parametrize("d,alpha", [(1, 0.5), (1, 1.0), (1, 2.0),
                                     (2, 0.5), (2, 1.0), (2, 2.0)])
def test_kernel_identities_randomized(d, alpha, rng):
    params = WeinsteinParams(d=d, alpha=alpha)
    n = 10_000
    lam = _random_points(rng, d, n)
    x = _random_points(rng, d, n)

    val = weinstein_kernel(params, lam, x)
    # symmetry in the two slots
    sym = weinstein_kernel(params, x, lam)
    assert np.max(np.abs(val - sym)) < 1e-12
    # reflection: Lambda(lam, -x) = Lambda(-lam, x) with -x = (-x', x_r)
    def reflect(p):
        q = p.copy()
        q[:, :d] = -q[:, :d]
        return q
    refl1 = weinstein_kernel(params, lam, reflect(x))
    refl2 = weinstein_kernel(params, reflect(lam), x)
    assert np.max(np.abs(refl1 - refl2)) < 1e-12
    # normalization at the origin
    zero = np.zeros((n, d + 1))
    ones = weinstein_kernel(params, lam, zero)
    assert np.max(np.abs(ones - 1.0)) < 1e-12
    # modulus bound on real arguments
    assert np.max(np.abs(val)) <= 1.0 + 1e-12


def test_kernel_single_point():
    params = WeinsteinParams(d=1, alpha=0.5)
    v = weinstein_kernel(params, np.array([1.0, 2.0]), np.array([0.5, 0.3]))
    expected = np.exp(-1j * 0.5 * 1.0) * (math.sin(0.6) / 0.6)
    assert v == pytest.approx(expected, rel=1e-12)
    with pytest.raises(ValueError):
        weinstein_kernel(params, np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.3]))


def test_radial_eigen_equation_residual():
    # u(r) = j_a(lam r) solves u'' + ((2a+1)/r) u' = -lam^2 u; centered
    # differences converge at second order
    alpha, lam = 0.8, 1.7

    def residual(h):
        r = np.arange(1, 2001) * h
        u = bessel_j_normalized(alpha, lam * r)
        d2 = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2
        d1 = (u[2:] - u[:-2]) / (2 * h)
        mid = r[1:-1]
        res = d2 + (2 * alpha + 1) / mid * d1 + lam ** 2 * u[1:-1]
        sl = slice(200, 1200)  # interior window away from r -> 0
        return float(np.max(np.abs(res[sl])))

    r1, r2 = residual(2e-3), residual(1e-3)
    assert r1 / r2 == pytest.approx(4.0, rel=0.15)
    assert r2 < 1e-5
