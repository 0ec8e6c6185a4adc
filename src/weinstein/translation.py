"""Generalized translation and convolution.

The translation by x averages the field over the angle between the radial
components,

    (tau_x f)(y) = c_a * integral over [0, pi] of
                   f(x' + y', sqrt(x_r^2 + y_r^2 + 2 x_r y_r cos(theta)))
                   * sin(theta)^{2*alpha} d(theta),

realized with Gauss-Jacobi nodes in t = cos(theta) (the density is exactly
the Jacobi weight, and the normalized rule weights absorb c_a) and
separable interpolation of the field: a two-point linear stencil along
each Euclidean axis, cubic along the radial axis.  The
spectral route multiplies the transform by the kernel at x, built per axis,
and is exact on the grid by construction; the two are cross-validated.

Convolution is the spectral product route, with a brute-force double-sum
realization (translation against one factor, then a weighted sum) kept as
a small-grid oracle.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ._accel import check_alpha, j_alpha, roots_jacobi
from .core import Field, _axis_view
from .errors import GridMismatchError, SizeGuardError
from .interp import apply_axis_matrix, linear_shift, radial_cubic_stencil
from .transform import forward, inverse

CONVOLVE_DIRECT_GUARD = 4096
N_THETA = 64


@dataclass(frozen=True)
class TranslationRule:
    """Angular quadrature (N_THETA Gauss-Jacobi nodes) for the translation
    average."""

    alpha: float

    def __post_init__(self):
        check_alpha(self.alpha)

    @cached_property
    def _nodes(self):
        """Nodes t = cos(theta) and probability weights of the average: the
        integral over [0, pi] with density sin(theta)^{2 alpha} is the
        Jacobi integral over t with weight (1-t^2)^{alpha-1/2}, and
        dividing by the weights' sum is the normalization c_a."""
        t, w = roots_jacobi(N_THETA, self.alpha - 0.5, self.alpha - 0.5)
        return t, w / w.sum()


def _check_alpha(rule, grid):
    if abs(rule.alpha - grid.params.alpha) > 1e-14:
        raise ValueError("rule and grid disagree on alpha")


def _check_point(grid, x):
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (grid.params.d + 1,):
        raise ValueError(f"translation point needs {grid.params.d + 1} coordinates")
    for xj, L in zip(x[:-1], grid.euclid_halfwidths):
        if not abs(xj) <= L:
            raise ValueError("translation point lies outside the grid box")
    if not 0.0 <= x[-1] <= grid.radial_extent:
        raise ValueError("translation point lies outside the grid box")
    return x


def radial_mix_matrix(rule, grid, x_r):
    """Matrix M with (M f)(r_k) = sum_t w_t f(rho(k, t)) for the angular
    average at radial offset ``x_r``, w_t the rule's probability weights.

    Each of the n_r * N_THETA points rho(k, t) has a 4-point cubic stencil
    (``radial_cubic_stencil``); w_t is folded into its weights, which
    one bincount scatters into the (n_r, n_r) matrix, so no dense
    interpolation matrix over all points is built.
    """
    _check_alpha(rule, grid)
    if grid.radial_scheme != "uniform-offset":
        raise ValueError("direct translation needs the uniform-offset radial axis")
    r = grid.radial_nodes
    n = len(r)
    cos_t, w_t = rule._nodes
    rho = np.sqrt(r[:, None] ** 2 + x_r ** 2 + 2.0 * x_r * r[:, None] * cos_t[None, :])
    idx, wts = radial_cubic_stencil(r, grid.radial_extent, rho)
    wts = wts * w_t[None, :, None]
    flat = idx + (n * np.arange(n))[:, None, None]
    return np.bincount(flat.ravel(), weights=wts.ravel(),
                       minlength=n * n).reshape(n, n)


def _shift_euclid(grid, values, offsets):
    """``linear_shift`` along each Euclidean axis with a nonzero offset."""
    for ax, (step, s) in enumerate(zip(grid.euclid_spacings(), offsets)):
        if s != 0.0:
            values = linear_shift(values, ax, step, s)
    return values


def translate_direct(rule, f, x):
    """Translate ``f`` by the point ``x`` through the angular-average integral:
    a linear shift along each Euclidean axis with a nonzero offset, then the
    radial mix unless x_r = 0."""
    grid = f.grid
    _check_alpha(rule, grid)
    x = _check_point(grid, x)
    values = _shift_euclid(grid, f.values, x[:-1])
    if x[-1] != 0.0:
        values = apply_axis_matrix(values, radial_mix_matrix(rule, grid, x[-1]),
                                   grid.params.d)
    return Field(grid=grid, values=values)


def spectral_multiplier(plan, x):
    """Lambda(-x, .) on plan.grid_out, grid-shaped, with -x = (-x', x_r)
    the Euclidean reflection of ``x``:

        exp(-1j * sum_a (-x_a) lam_a) * j_alpha(x_r lam_r).

    The phases -x_a lam_a of the Euclidean axes are summed by broadcasting
    and exponentiated once, as ``weinstein_kernel`` does at each point, so
    the result is the pointwise kernel bit for bit; the radial factor is
    one j_alpha per radial node.
    """
    grid = plan.grid_out
    x = _check_point(plan.grid_in, x)
    nd = len(grid.shape)
    phase = sum(_axis_view(lam * -xa, ax, nd)
                for ax, (lam, xa) in enumerate(zip(grid.euclid_axes, x)))
    return np.exp(-1j * phase) \
        * j_alpha(grid.params.alpha, x[-1] * grid.radial_nodes)


def translate_spectral(plan, f, x):
    """Translate by multiplying the transform with the kernel at the
    Euclidean reflection of ``x`` (``spectral_multiplier``).

    The multiplier is Lambda(-x, .) with -x = (-x', x_r): this is the
    spectral characterization consistent with the angular-average integral
    (the adjoint of a Euclidean shift is the opposite shift), and it makes
    the two translation routes coincide.
    """
    mult = spectral_multiplier(plan, x)
    F = forward(plan, f)
    return inverse(plan, Field._own(plan.grid_out, mult * F.values))


def convolve(plan, f, g):
    """Convolution through the spectral product: inverse(F(f) * F(g))."""
    if not f.grid.same_geometry(g.grid):
        raise GridMismatchError("convolution factors live on different grids")
    Ff = forward(plan, f)
    Fg = forward(plan, g)
    return inverse(plan, Field._own(plan.grid_out, Ff.values * Fg.values))


def convolve_direct(rule, f, g, w):
    """Brute-force convolution sum over translations; small grids only.

    (f * g)(x) = sum_y w(y) * (tau_x f)(-y) * g(y), with -y the Euclidean
    reflection of y.  Each tau_x f is ``translate_direct``'s, bit for bit,
    but one radial mix is built per radial node, and a Euclidean point's
    shifted field is shared by its radial line.
    """
    grid = f.grid
    if not (grid.same_geometry(g.grid) and grid.same_geometry(w.grid)):
        raise GridMismatchError(
            "convolution factors and weights live on different grids")
    if grid.size > CONVOLVE_DIRECT_GUARD:
        raise SizeGuardError(
            f"direct convolution over {grid.size} points exceeds the guard "
            f"({CONVOLVE_DIRECT_GUARD})"
        )
    d = grid.params.d
    # radial nodes of the uniform-offset axis (the only one
    # radial_mix_matrix accepts) are > 0, so translate_direct mixes at each
    mixes = [radial_mix_matrix(rule, grid, r) for r in grid.radial_nodes]
    flip = tuple(range(d))
    gw = (w.weights * g.values).ravel()
    out = np.empty(grid.shape, dtype=np.complex128)
    for euclid in np.ndindex(grid.shape[:-1]):
        shifted = _shift_euclid(grid, f.values, [
            nodes[j] for nodes, j in zip(grid.euclid_axes, euclid)])
        for k, mix in enumerate(mixes):
            tf = apply_axis_matrix(shifted, mix, d)
            out[euclid + (k,)] = np.flip(tf, axis=flip).ravel() @ gw
    return Field(grid=grid, values=out)
