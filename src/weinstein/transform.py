"""Forward and inverse transforms for the Bessel-weighted kernel.

Two routes compute the same integral transform

    F(lam) = integral of f(x) * exp(-1j*<x', lam'>) * j_alpha(x_r lam_r)

against the weighted measure:

* ``fast_separable``: an FFT over each Euclidean axis (with phase
  corrections for the midpoint-symmetric grids) and a dense cached
  Bessel-kernel matrix over the radial axis.
* ``direct_quadrature``: the weighted quadrature sum itself, with the
  kernel factored over the tensor grid into one explicit matrix per axis,
  exp(-+1j*x_a*lam_a) on each Euclidean axis and j_alpha(r*rho) on the
  radial one, applied one axis at a time.  No FFT, phase correction or
  folded constant enters, so it is the oracle the fast route is validated
  against.

The inverse is the forward composed with the Euclidean reflection
lam -> (-lam', lam_r), i.e. the conjugate-phase Fourier factor; the radial
factor is its own inverse kernel on the mirrored frequency axis.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _accel
from .core import Field, Grid, build_grid, measure_weights
from .errors import GridMismatchError

METHODS = ("fast_separable", "direct_quadrature")


def frequency_grid(grid):
    """The grid conjugate to ``grid``: reciprocal Euclidean axes (spacing
    2*pi/(N*dx), same midpoint-symmetric layout), mirrored radial axis."""
    ext = []
    for L, n in zip(grid.euclid_halfwidths, grid.shape[:-1]):
        dx = 2.0 * L / n
        ext.append(np.pi / dx)
    ext.append(grid.radial_extent)
    return build_grid(grid.params, ext, grid.shape,
                      radial_scheme=grid.radial_scheme)


@dataclass(frozen=True)
class TransformPlan:
    """Cached machinery for applying the transform on one grid pair."""

    grid_in: Grid
    grid_out: Grid
    method: str
    normalization: object = "self-reciprocal"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ValueError(f"unknown method {self.method!r}")
        if self.grid_in.shape != self.grid_out.shape:
            raise ValueError("input and output grids must have matching shapes")

    @cached_property
    def weights_in(self):
        return measure_weights(self.grid_in, self.normalization)

    @cached_property
    def weights_out(self):
        return measure_weights(self.grid_out, self.normalization)

    @cached_property
    def radial_table(self):
        """Radial kernel matrix j_alpha(rho_m r_k), unweighted: the only
        evaluation of j_alpha on the plan's radial axes."""
        r = self.grid_in.radial_nodes
        rho = self.grid_out.radial_nodes
        return _accel.j_alpha(self.grid_in.params.alpha, np.outer(rho, r))

    @cached_property
    def kernel_cache(self):
        """``radial_table`` with the radial quadrature weights of the input
        axis folded in (the mirrored output axis carries identical weights,
        so one cache serves both directions)."""
        return self.radial_table * self.grid_in.radial_weights()[None, :]

    @cached_property
    def _euclid_factors(self):
        """Per-direction tuples of per-axis (pre, post, modulus) factors
        around the plain FFT (analysis, index 0) or the unscaled inverse FFT
        (synthesis, index 1) giving the midpoint-symmetric-grid Fourier sum
        sum_k f_k exp(-+1j x_k lam_m).  The source grid's spacing is folded
        into each post factor and the source measure's 1/C into the first
        axis' one, so the separable route returns the normalized transform;
        ``modulus`` is that constant |post|.
        """
        directions = []
        for grid_src, weights, synthesis in (
                (self.grid_in, self.weights_in, False),
                (self.grid_out, self.weights_out, True)):
            factors = []
            for ax, (n, step) in enumerate(zip(grid_src.shape[:-1],
                                               grid_src.euclid_spacings())):
                c = (n - 1) / 2.0
                k = np.arange(n)
                pre = np.exp(2j * np.pi * c * k / n)
                post = np.exp(2j * np.pi * c * (k - c) / n)
                scale = step / weights.normalization_constant if ax == 0 else step
                if synthesis:
                    pre, post = np.conj(post), np.conj(pre)
                factors.append((pre, post * scale, scale))
            directions.append(tuple(factors))
        return tuple(directions)


def make_plan(grid, method="fast_separable", normalization="self-reciprocal"):
    """Plan the transform from ``grid`` to its conjugate frequency grid; the
    Bessel index is the grid's alpha."""
    return TransformPlan(grid_in=grid, grid_out=frequency_grid(grid),
                         method=method, normalization=normalization)


def _axis_view(vec, axis, ndim):
    sh = [1] * ndim
    sh[axis] = len(vec)
    return vec.reshape(sh)


def _radial_first(values, dtype=np.complex128):
    """C-order copy of grid-shaped ``values`` with the radial axis moved
    first: the layout the separable core works in."""
    return np.array(np.moveaxis(values, -1, 0), dtype=dtype, order="C")


def _fft_gemm(plan, v, sign, factors=None):
    """The separable core on a radial-first complex block ``v`` (consumed):
    each Euclidean axis' FFT (analysis sign=-1, unscaled synthesis
    sign=+1), between that axis' (pre, post) factors when ``factors`` is
    given, then one real matrix product over the radial axis.

    The (n_r, rest) complex block, viewed as an (n_r, 2 * rest) real
    block, is multiplied by the real ``kernel_cache``: a real GEMM instead
    of a complex one against an upcast kernel.  Returns the real
    (n_r, 2 * rest) product, the radial-first complex result viewed as
    real.
    """
    nd = v.ndim
    for ax in range(1, nd):
        if factors is not None:
            v *= _axis_view(factors[ax - 1][0], ax, nd)
        if sign < 0:
            v = np.fft.fft(v, axis=ax)
        else:
            v = np.fft.ifft(v, axis=ax, norm="forward")
        if factors is not None:
            v *= _axis_view(factors[ax - 1][1], ax, nd)
    return plan.kernel_cache @ v.reshape(v.shape[0], -1).view(np.float64)


def _separable_apply(plan, values, sign):
    """Normalized transform (analysis sign=-1 / synthesis sign=+1): the
    radial axis moved first (one C-order copy), ``_fft_gemm`` with the
    direction's phase factors, and the radial axis moved back last; the
    result is C-contiguous."""
    shape = values.shape[-1:] + values.shape[:-1]
    # no reference to the copy is kept here: it is freed after the first FFT
    out = _fft_gemm(plan, _radial_first(values), sign,
                    plan._euclid_factors[0 if sign < 0 else 1])
    out = out.view(np.complex128).reshape(shape)
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def _synthesis_source(plan, F):
    """``F`` (on plan.grid_out) as the radial-first block the synthesis
    FFTs start from: every axis' pre-phase applied and the constant modulus
    of the post factors (spacings, 1/C) folded in.

    For a real radial-first gain g, ``_fft_gemm(plan, g * block, +1)`` is
    inverse(g * F) in radial-first layout times a unimodular factor per
    Euclidean index, so its squared modulus is that of the inverse.  The
    modulus goes into F, not into the squares: at large alpha 1/C is far
    below 1 and the unscaled outputs would overflow when squared.
    """
    v = _radial_first(F.values)
    nd = v.ndim
    modulus = 1.0
    for ax, (pre, _, scale) in enumerate(plan._euclid_factors[1], start=1):
        v *= _axis_view(pre, ax, nd)
        modulus *= scale
    v *= modulus
    return v


def forward(plan, f):
    """Transform of ``f`` (on plan.grid_in), sampled on plan.grid_out."""
    if not f.grid.same_geometry(plan.grid_in):
        raise GridMismatchError("field does not live on the plan's input grid")
    if plan.method == "direct_quadrature":
        return direct_quadrature(plan, f)
    return Field(grid=plan.grid_out, values=_separable_apply(plan, f.values, -1))


def inverse(plan, F):
    """Inverse transform of ``F`` (on plan.grid_out), sampled on plan.grid_in.

    Realized as the forward transform composed with the Euclidean
    reflection, i.e. conjugate plane-wave phases with the frequency-side
    quadrature.
    """
    if not F.grid.same_geometry(plan.grid_out):
        raise GridMismatchError("field does not live on the plan's output grid")
    if plan.method == "direct_quadrature":
        return direct_quadrature(plan, F, inverse=True)
    # Mirrored radial axes make kernel_cache (weights included) self-paired.
    return Field(grid=plan.grid_in, values=_separable_apply(plan, F.values, +1))


def _kernel_factors(plan, sign, sigma=1.0):
    """Per-axis factors of the kernel from plan.grid_in, its coordinates
    divided by ``sigma``, to plan.grid_out: exp(1j*sign*lam_a*x_a/sigma) on
    each Euclidean axis, then j_alpha(rho*r/sigma) on the radial axis (the
    plan's ``radial_table`` at sigma = 1).  Their tensor product is the
    (n_out, n_in) kernel matrix; ``_apply_factors`` applies it."""
    src, dst = plan.grid_in, plan.grid_out
    factors = [np.exp(1j * sign * np.outer(lam, x / sigma))
               for lam, x in zip(dst.euclid_axes, src.euclid_axes)]
    if sigma == 1.0:
        factors.append(plan.radial_table)
    else:
        factors.append(_accel.j_alpha(
            src.params.alpha,
            np.outer(dst.radial_nodes, src.radial_nodes / sigma)))
    return factors


def _apply_factors(factors, values):
    """sum_k K[i, k] values[k] for the tensor-product matrix K of
    ``factors`` (one per axis, row index on the output grid), applied one
    axis at a time.  Each step contracts the leading axis and appends the
    new one last, so after all axes the order and C layout are restored."""
    for m in factors:
        values = np.tensordot(values, m, axes=(0, 1))
    return values


def direct_quadrature(plan, f, inverse=False):
    """Quadrature-sum oracle realizing the transform (or its inverse) with
    no FFT, phase correction or folded constant: the weights times ``f``,
    then the kernel's per-axis factors.  The inverse applies the transposed
    synthesis factors with the frequency-side weights.
    """
    if inverse:
        src_grid, dst_grid, w = plan.grid_out, plan.grid_in, plan.weights_out
        factors = [m.T for m in _kernel_factors(plan, +1.0)]
    else:
        src_grid, dst_grid, w = plan.grid_in, plan.grid_out, plan.weights_in
        factors = _kernel_factors(plan, -1.0)
    if not f.grid.same_geometry(src_grid):
        raise GridMismatchError("field does not live on the expected grid")
    return Field(grid=dst_grid,
                 values=_apply_factors(factors, w.weights * f.values))
