"""Generalized translation and convolution.

The translation by x averages the field over the angle between the radial
components,

    (tau_x f)(y) = c_a * integral over [0, pi] of
                   f(x' + y', sqrt(x_r^2 + y_r^2 + 2 x_r y_r cos(theta)))
                   * sin(theta)^{2*alpha} d(theta),

realized with Gauss-Jacobi nodes in t = cos(theta) (the density is exactly
the Jacobi weight) and separable interpolation of the field: an exact or
linear shift along the Euclidean axes, cubic along the radial axis.  The
spectral route multiplies the transform by the kernel at x instead and is
exact on the grid by construction; the two are cross-validated.

Convolution is the spectral product route, with a brute-force double-sum
realization (translation against one factor, then a weighted sum) kept as
a small-grid oracle.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import roots_jacobi

from .bessel import weinstein_kernel
from .core import Field, field_from_function
from .errors import GridMismatchError, SizeGuardError
from .interp import apply_axis_matrix, radial_cubic_matrix, uniform_linear_matrix
from .transform import forward, inverse

CONVOLVE_DIRECT_GUARD = 4096
N_THETA = 64


@dataclass(frozen=True)
class TranslationRule:
    """Angular quadrature (N_THETA Gauss-Jacobi nodes) for the translation
    average."""

    alpha: float

    def __post_init__(self):
        if not self.alpha > -0.5:
            raise ValueError("alpha out of range: need alpha > -1/2")

    @cached_property
    def c_alpha(self):
        """Normalization making the angular density a probability weight."""
        from math import gamma, pi, sqrt

        return gamma(self.alpha + 1.0) / (sqrt(pi) * gamma(self.alpha + 0.5))

    @cached_property
    def _nodes(self):
        # integral over [0, pi] with density sin(theta)^{2 alpha} equals the
        # Jacobi integral over t = cos(theta) with weight (1-t^2)^{alpha-1/2}
        return roots_jacobi(N_THETA, self.alpha - 0.5, self.alpha - 0.5)

    @property
    def theta_weights(self):
        return self._nodes[1]


def _check_alpha(rule, grid):
    if abs(rule.alpha - grid.params.alpha) > 1e-14:
        raise ValueError("rule and grid disagree on alpha")


def _check_point(grid, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (grid.params.d + 1,):
        raise ValueError(f"translation point needs {grid.params.d + 1} coordinates")
    for xj, L in zip(x[:-1], grid.euclid_halfwidths):
        if abs(xj) > L:
            raise ValueError("translation point lies outside the grid box")
    if not 0.0 <= x[-1] <= grid.radial_extent:
        raise ValueError("translation point lies outside the grid box")
    return x


def radial_mix_matrix(rule, grid, x_r):
    """Matrix M with (M f)(r_k) = c_a * sum_t w_t f(rho(k, t)) for the
    angular average at radial offset ``x_r``; cubic interpolation rows."""
    _check_alpha(rule, grid)
    if grid.radial_scheme != "uniform-offset":
        raise ValueError("direct translation needs the uniform-offset radial axis")
    r = grid.radial_nodes
    cos_t, w_t = rule._nodes
    rho = np.sqrt(r[:, None] ** 2 + x_r ** 2 + 2.0 * x_r * r[:, None] * cos_t[None, :])
    interp = radial_cubic_matrix(grid.radial_nodes, grid.radial_extent, rho.ravel())
    interp = interp.reshape(len(r), len(cos_t), len(r))
    return rule.c_alpha * np.einsum("t,kti->ki", w_t, interp)


def translate_direct(rule, f, x):
    """Translate ``f`` by the point ``x`` through the angular-average integral."""
    grid = f.grid
    _check_alpha(rule, grid)
    x = _check_point(grid, x)
    v = f.values
    for ax, (nodes, s) in enumerate(zip(grid.euclid_axes, x[:-1])):
        if s == 0.0:
            continue
        v = apply_axis_matrix(v, uniform_linear_matrix(nodes, nodes + s), ax)
    if x[-1] == 0.0:
        return Field(grid=grid, values=v)
    mix = radial_mix_matrix(rule, grid, x[-1])
    v = apply_axis_matrix(v, mix, grid.params.d)
    return Field(grid=grid, values=v)


def translate_spectral(plan, f, x):
    """Translate by multiplying the transform with the kernel at the
    Euclidean reflection of ``x``.

    The multiplier is Lambda(-x, .) with -x = (-x', x_r): this is the
    spectral characterization consistent with the angular-average integral
    (the adjoint of a Euclidean shift is the opposite shift), and it makes
    the two translation routes coincide.
    """
    x = _check_point(plan.grid_in, x)
    xr = np.concatenate([-x[:-1], x[-1:]])
    F = forward(plan, f)
    mult = field_from_function(
        plan.grid_out,
        lambda pts: weinstein_kernel(plan.grid_in.params, xr, pts),
    )
    return inverse(plan, Field(grid=plan.grid_out, values=mult.values * F.values))


def convolve(plan, f, g):
    """Convolution through the spectral product: inverse(F(f) * F(g))."""
    if not f.grid.same_geometry(g.grid):
        raise GridMismatchError("convolution factors live on different grids")
    Ff = forward(plan, f)
    Fg = forward(plan, g)
    return inverse(plan, Field(grid=plan.grid_out, values=Ff.values * Fg.values))


def convolve_direct(rule, f, g, w):
    """Brute-force convolution sum over translations; small grids only.

    (f * g)(x) = sum_y w(y) * (tau_x f)(-y) * g(y), with -y the Euclidean
    reflection of y.
    """
    grid = f.grid
    if grid.size > CONVOLVE_DIRECT_GUARD:
        raise SizeGuardError(
            f"direct convolution over {grid.size} points exceeds the guard "
            f"({CONVOLVE_DIRECT_GUARD})"
        )
    flip = tuple(range(grid.params.d))
    gw = (w.weights * g.values).ravel()
    out = np.empty(grid.size, dtype=np.complex128)
    for i, x in enumerate(grid.points):
        tf = translate_direct(rule, f, x)
        reflected = np.flip(tf.values, axis=flip) if flip else tf.values
        out[i] = reflected.ravel() @ gw
    return Field(grid=grid, values=out.reshape(grid.shape))
