import functools
import math
import tracemalloc
import warnings

import mpmath as mp
import numpy as np
import pytest
from scipy.special import jn_zeros

from weinstein import MeasureRangeError, SizeGuardError, WeinsteinParams, \
    _accel, j_alpha, weinstein_kernel

mp.mp.dps = 80


def j_reference(alpha, x, terms=200):
    """Truncated power series in extended precision, sum_k t_k with t_0 = 1
    and the term recurrence t_{k+1} = -t_k (x/2)^2 / ((k+1)(alpha+k+1))."""
    q = (mp.mpf(x) / 2) ** 2
    a = mp.mpf(alpha)
    t = total = mp.mpf(1)
    for k in range(1, terms):
        t = -t * q / (k * (a + k))
        total += t
    return float(total)


def test_j_at_zero_is_one():
    for alpha in (-0.3, 0.5, 1.0, 2.7):
        # a float argument gives a float
        assert type(j_alpha(alpha, 0.0)) is float
        assert j_alpha(alpha, 0.0) == 1.0


def test_half_integer_closed_form():
    # j_{1/2}(x) = sin(x)/x
    for x in (0.5, 1.0, 2.0, 5.0):
        assert j_alpha(0.5, x) == pytest.approx(
            math.sin(x) / x, rel=1e-12)


def test_first_zero_of_order_one():
    z = float(jn_zeros(1, 1)[0])
    assert abs(j_alpha(1.0, z)) < 1e-10


@pytest.mark.parametrize("alpha", [-0.45, -0.1, 0.5, 1.0, 2.0, 3.7,
                                   6.0, 10.0, 20.0])
def test_against_extended_precision_series(alpha):
    xs = np.concatenate([
        np.linspace(0.0, 14.0, 57),
        np.linspace(10.0, 100.0, 91),
        # a dense window around x = 12
        np.linspace(11.5, 12.5, 41),
    ])
    vals = j_alpha(alpha, xs)
    for x, v in zip(xs, vals):
        assert v == pytest.approx(j_reference(alpha, x), abs=1e-10)


def test_even_and_bounded(rng):
    for alpha in (0.0, 0.5, 2.0):
        xs = rng.uniform(-80, 80, size=500)
        vals = j_alpha(alpha, xs)
        assert np.allclose(vals, j_alpha(alpha, -xs), rtol=0, atol=0)
        assert np.all(np.abs(vals) <= 1.0 + 1e-14)


def test_evaluator_validation():
    with pytest.raises(ValueError, match="alpha out of range"):
        j_alpha(-0.7, 1.0)


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
        u = j_alpha(alpha, lam * r)
        d2 = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2
        d1 = (u[2:] - u[:-2]) / (2 * h)
        mid = r[1:-1]
        res = d2 + (2 * alpha + 1) / mid * d1 + lam ** 2 * u[1:-1]
        sl = slice(200, 1200)  # interior window away from r -> 0
        return float(np.max(np.abs(res[sl])))

    r1, r2 = residual(2e-3), residual(1e-3)
    assert r1 / r2 == pytest.approx(4.0, rel=0.15)
    assert r2 < 1e-5


# ---------------------------------------------------------------------------
# numpy kernels against mpmath: j_alpha, Gauss-Jacobi rules, Si
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("alpha", [-0.45, 0.0, 0.5, 2.0, 20.0, 100.0])
def test_j_alpha_against_mpmath_besselj(alpha):
    # the 80-digit series of j_reference cancels past x ~ 150, so the
    # reference is 2^a Gamma(a+1) J_a(x) / x^a from mpmath's besselj;
    # past x = 256 the table comes from Bessel's equation, not Poisson's
    # integral, so both sides of that seam are checked, and x up to 9e4
    # (radial extents of 300)
    xs = np.concatenate([np.linspace(0.0, 250.0, 301),
                         [1e-9, 3.999999, 4.0, 127.999999, 128.0, 249.9,
                          255.999999, 256.0, 256.000001, 259.9, 260.0],
                         np.linspace(261.0, 4096.0, 60),
                         [8190.0, 40000.25, 90000.0]])
    vals = _accel.j_alpha(alpha, xs)
    with mp.workdps(30):
        a = mp.mpf(alpha)
        ref = [1.0 if x == 0 else
               float(mp.besselj(a, x) * mp.gamma(a + 1) * (2 / mp.mpf(x)) ** a)
               for x in xs]
    assert np.max(np.abs(vals - np.array(ref))) <= 1e-10
    assert j_alpha(alpha, 0.0) == 1.0
    assert np.array_equal(_accel.j_alpha(alpha, -xs), vals)


@pytest.mark.parametrize("alpha", [1000.0, 1500.0, 3000.0, 1e5])
def test_j_alpha_large_index_past_poisson_panels(alpha):
    # past x = 256 the march starts in the monotone range x < alpha, and
    # from alpha ~ 1000 on it cuts its first panels into short steps; the
    # reference is Poisson's integral on a Gauss-Gegenbauer rule large
    # enough for x <= 1200 (mpmath's besselj does not converge here)
    xs = np.linspace(250.0, 1200.0, 96)
    t, w = _accel.roots_jacobi(700, alpha - 0.5, alpha - 0.5)
    ref = np.cos(np.outer(xs, t)) @ (w / w.sum())
    assert np.max(np.abs(_accel.j_alpha(alpha, xs) - ref)) <= 1e-12


def test_j_alpha_one_poisson_rule_per_alpha(monkeypatch):
    # calls with largest arguments 10, 100 and 1000 share one
    # Gauss-Gegenbauer rule, and a longer table extends a shorter one, so
    # j_alpha(x) does not depend on the other arguments of its call
    rules = functools.cache(_accel._gauss_jacobi.__wrapped__)
    monkeypatch.setattr(_accel, "_gauss_jacobi", rules)
    monkeypatch.setattr(_accel, "_j_table",
                        functools.cache(_accel._j_table.__wrapped__))
    alpha = 0.7
    for x_max in (10.0, 100.0, 1000.0):
        _accel.j_alpha(alpha, np.linspace(0.0, x_max, 50))
    assert rules.cache_info().currsize == 1
    assert np.array_equal(_accel._j_table(alpha, 128)[:, :64],
                          _accel._j_table(alpha, 64))
    xs = np.linspace(0.0, 250.0, 101)
    assert np.array_equal(_accel.j_alpha(alpha, np.append(xs, 3000.0))[:-1],
                          _accel.j_alpha(alpha, xs))


def test_j_alpha_march_step_budget(monkeypatch):
    # alpha = 1e7 at x = 400 needs ~1.7 million Taylor steps past x = 256
    # (GBs of series); the march counts its steps first and refuses before
    # any series or per-step array exists
    def no_series(*args):
        raise AssertionError("a Taylor series was built")

    monkeypatch.setattr(_accel, "_bessel_taylor", no_series)
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError,
                           match=r"alpha=1e\+07 .* 1\.74\de\+06 Taylor steps"
                                 r" .* budget of 131072"):
            _accel.j_alpha(1e7, np.array([400.0]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20


def test_j_alpha_march_refuses_panels_before_counting():
    # |x| = 1e8 needs 2^25 panels, each at least one step: refused on the
    # panel count, before the per-panel arrays (256 MB each) are built
    tracemalloc.start()
    try:
        with pytest.raises(SizeGuardError,
                           match=r"at least 3\.355e\+07 Taylor steps"):
            _accel.j_alpha(0.5, np.array([1e8]))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_j_alpha_rejects_non_finite():
    with pytest.raises(ValueError, match="finite"):
        j_alpha(0.5, np.array([1.0, np.nan]))


def _gauss_jacobi_reference(n, a, b):
    """Node and weight of the n-point Gauss-Jacobi rule in the working
    precision, as a function of a float starting node: Newton on the
    orthonormal recurrence, then the Christoffel number
    mass / sum_{k<n} p_k(t)^2."""
    a, b = mp.mpf(a), mp.mpf(b)
    s = a + b
    diag = [(b - a) / (s + 2)] + [(b - a) * s / ((2 * k + s) * (2 * k + s + 2))
                                  for k in range(1, n)]
    off = [mp.sqrt(4 * (1 + a) * (1 + b) / ((2 + s) ** 2 * (3 + s)))] + [
        mp.sqrt(4 * k * (k + a) * (k + b) * (k + s)
                / ((2 * k + s) ** 2 * (2 * k + s + 1) * (2 * k + s - 1)))
        for k in range(2, n + 1)]
    mass = 2 ** (s + 1) * mp.gamma(a + 1) * mp.gamma(b + 1) / mp.gamma(s + 2)

    def recurrence(t):
        p_prev, p, dp_prev, dp = mp.mpf(0), mp.mpf(1), mp.mpf(0), mp.mpf(0)
        total, b_prev = mp.mpf(0), mp.mpf(0)
        for dk, ok in zip(diag, off):
            total += p * p
            p_prev, p, dp_prev, dp, b_prev = (
                p, ((t - dk) * p - b_prev * p_prev) / ok,
                dp, ((t - dk) * dp + p - b_prev * dp_prev) / ok, ok)
        return p, dp, total

    def rule_at(t0):
        t = mp.mpf(t0)
        for _ in range(2):  # a float start has ~16 digits; two steps give 40
            p, dp, _total = recurrence(t)
            t -= p / dp
        return t, mass / recurrence(t)[2]

    return rule_at


@pytest.mark.parametrize("n", [16, 64, 256])
@pytest.mark.parametrize("alpha", [0.0, 0.5, 100.0])
def test_gauss_jacobi_against_mpmath(n, alpha):
    for a, b in ((0.0, 2.0 * alpha + 1.0), (alpha - 0.5, alpha - 0.5)):
        t, w = _accel.roots_jacobi(n, a, b)
        assert t.shape == w.shape == (n,)
        assert np.all(np.diff(t) > 0) and np.all(w > 0)
        # both ends of the rule and n/16 nodes between them
        idx = sorted(set(range(0, n, n // 16)) | {1, 2, n - 3, n - 2, n - 1})
        with mp.workdps(40):
            rule_at = _gauss_jacobi_reference(n, a, b)
            for i in idx:
                t_ref, w_ref = rule_at(t[i])
                assert abs(t[i] - float(t_ref)) <= 1e-15
                assert abs((w[i] - w_ref) / w_ref) <= 1e-11
        # memoized: the same rule is not computed twice
        assert _accel.roots_jacobi(n, a, b)[0] is t


def test_gauss_jacobi_large_rule_stays_finite():
    # at n = 1024, alpha = 100, p_k^2 overflows without rescaling
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for a, b in ((0.0, 201.0), (99.5, 99.5)):
            t, w = _accel.roots_jacobi(1024, a, b)
            assert np.all(np.isfinite(w)) and np.all(np.isfinite(t))
            assert np.all(np.diff(t) > 0)


def test_gauss_jacobi_out_of_float_range():
    # b = 2e4 + 1: the weights overflow to inf, as documented, with no
    # warning; b = 2e300: the recurrence itself overflows (alpha = 1e300
    # on a collocation grid), and b = 1e17 cancels the Christoffel sums
    t, w = _accel.roots_jacobi(16, 0.0, 2e4 + 1.0)
    assert np.all(np.isfinite(t)) and np.all(np.isinf(w))
    for b in (2e300, 1e17):
        with pytest.raises(MeasureRangeError, match="Gauss-Jacobi"):
            _accel.roots_jacobi(16, 0.0, b)


def test_si_against_mpmath():
    z = np.concatenate([np.linspace(-300.0, 300.0, 1201), [0.0, 1e-9, -1e-9]])
    vals = _accel.si(z)
    with mp.workdps(30):
        ref = np.array([float(mp.si(x)) for x in z])
    assert np.max(np.abs(vals - ref)) <= 1e-13
    assert np.array_equal(_accel.si(-z), -vals)
