"""Forward and inverse transforms for the Bessel-weighted kernel.

Two routes compute the same integral transform

    F(lam) = integral of f(x) * exp(-1j*<x', lam'>) * j_alpha(x_r lam_r)

against the weighted measure:

* ``forward`` / ``inverse`` (the fast separable route, the only one a
  plan runs): a pre-factor (the midpoint-symmetric grids' index phases,
  the spacings and 1/C), an FFT over each Euclidean axis, one real
  product with the dense cached Bessel-kernel matrix over the radial
  axis, and a unimodular post-factor.  The synthesis source block
  (``_source``) is also where every multiplier sweep starts.
* ``direct_quadrature``: the weighted quadrature sum itself, with the
  kernel factored over the tensor grid into one explicit matrix per axis,
  exp(-+1j*x_a*lam_a) on each Euclidean axis and j_alpha(r*rho) on the
  radial one, applied one axis at a time.  No FFT, phase correction or
  folded constant enters, so it is the oracle the fast route is validated
  against; the self-tests and the tests call it directly.

The inverse is the forward composed with the Euclidean reflection
lam -> (-lam', lam_r), i.e. the conjugate-phase Fourier factor; the radial
factor is its own inverse kernel on the mirrored frequency axis.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar

import numpy as np

from . import _accel
from .core import Field, Grid, _axis_view, build_grid, measure_weights
from .errors import GridMismatchError


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
    """Cached machinery for applying the transform on one grid pair; its
    one route and one normalization are class constants."""

    grid_in: Grid
    grid_out: Grid
    method: ClassVar[str] = "fast_separable"
    normalization: ClassVar[str] = "self-reciprocal"

    def __post_init__(self):
        if self.grid_in.shape != self.grid_out.shape:
            raise ValueError("input and output grids must have matching shapes")

    @cached_property
    def weights_in(self):
        return measure_weights(self.grid_in)

    @cached_property
    def weights_out(self):
        return measure_weights(self.grid_out)

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
    def _phases(self):
        """Per-direction (pre, post) factors around the plain FFTs
        (analysis, index 0) or the unscaled inverse FFTs (synthesis, index
        1) giving the midpoint-symmetric-grid Fourier sum
        sum_k f_k exp(-+1j x_k lam_m), as radial-first arrays broadcasting
        over the Euclidean axes.  ``pre`` carries the per-axis index phases,
        the source grid's spacings and the source measure's 1/C, so the
        separable route returns the normalized transform (and a sweep never
        squares unscaled outputs, which overflow at large alpha); ``post``
        is unimodular.  A factor along one Euclidean axis commutes with the
        FFTs along the others and with the radial product, so every axis'
        factors are applied at once, before and after the core.
        """
        directions = []
        for grid_src, weights, synthesis in (
                (self.grid_in, self.weights_in, False),
                (self.grid_out, self.weights_out, True)):
            nd = len(grid_src.shape)
            pre = np.full((1,) * nd, 1.0 / weights.normalization_constant,
                          dtype=np.complex128)
            post = np.ones((1,) * nd, dtype=np.complex128)
            for ax, (n, step) in enumerate(zip(grid_src.shape[:-1],
                                               grid_src.euclid_spacings()),
                                           start=1):
                c = (n - 1) / 2.0
                k = np.arange(n)
                a = np.exp(2j * np.pi * c * k / n)
                b = np.exp(2j * np.pi * c * (k - c) / n)
                if synthesis:
                    a, b = np.conj(b), np.conj(a)
                pre = pre * _axis_view(step * a, ax, nd)
                post = post * _axis_view(b, ax, nd)
            directions.append((pre, post))
        return tuple(directions)


def make_plan(grid, normalization="self-reciprocal"):
    """Plan the transform from ``grid`` to its conjugate frequency grid; the
    Bessel index is the grid's alpha, and the one normalization is
    "self-reciprocal", under which the transform is an isometry."""
    if normalization != TransformPlan.normalization:
        raise ValueError(f"unknown normalization {normalization!r}")
    return TransformPlan(grid_in=grid, grid_out=frequency_grid(grid))


def _radial_first(values, dtype=np.complex128):
    """C-order copy of grid-shaped ``values`` with the radial axis moved
    first: the layout the separable core works in."""
    return np.array(np.moveaxis(values, -1, 0), dtype=dtype, order="C")


def _source(plan, values, sign):
    """Grid-shaped ``values`` on the source grid of the direction (analysis
    sign=-1 / synthesis sign=+1) as the radial-first complex block the
    separable core starts from: one C-order copy times that direction's
    ``pre`` factor.

    For a real radial-first gain g, ``_fft_gemm(plan, g * block, +1)`` on
    the synthesis block is the inverse of g times ``values`` in
    radial-first layout, up to the unimodular ``post`` factor.
    """
    v = _radial_first(values)
    v *= plan._phases[0 if sign < 0 else 1][0]
    return v


def _fft_gemm(plan, v, sign):
    """The separable core on a radial-first complex block ``v``
    (overwritten): each Euclidean axis' FFT in place (analysis sign=-1,
    unscaled synthesis sign=+1), then one real matrix product over the
    radial axis.

    The (n_r, rest) complex block, viewed as an (n_r, 2 * rest) real
    block, is multiplied by the real ``kernel_cache``: a real GEMM instead
    of a complex one against an upcast kernel.  Returns the real
    (n_r, 2 * rest) product, the radial-first complex result viewed as
    real.
    """
    for ax in range(1, v.ndim):
        if sign < 0:
            np.fft.fft(v, axis=ax, out=v)
        else:
            np.fft.ifft(v, axis=ax, norm="forward", out=v)
    return plan.kernel_cache @ v.reshape(v.shape[0], -1).view(np.float64)


def _separable_apply(plan, values, sign):
    """Normalized transform (analysis sign=-1 / synthesis sign=+1): the
    direction's ``_source`` block, ``_fft_gemm``, its ``post`` factor, and
    the radial axis moved back last; the result is C-contiguous."""
    shape = values.shape[-1:] + values.shape[:-1]
    # no reference to the source block is kept here: the FFTs run in it,
    # and it is freed once the radial product has read it
    out = _fft_gemm(plan, _source(plan, values, sign), sign)
    out = out.view(np.complex128).reshape(shape)
    out *= plan._phases[0 if sign < 0 else 1][1]
    return np.ascontiguousarray(np.moveaxis(out, 0, -1))


def forward(plan, f):
    """Transform of ``f`` (on plan.grid_in), sampled on plan.grid_out."""
    if not f.grid.same_geometry(plan.grid_in):
        raise GridMismatchError("field does not live on the plan's input grid")
    return Field(grid=plan.grid_out, values=_separable_apply(plan, f.values, -1))


def inverse(plan, F):
    """Inverse transform of ``F`` (on plan.grid_out), sampled on plan.grid_in.

    Realized as the forward transform composed with the Euclidean
    reflection, i.e. conjugate plane-wave phases with the frequency-side
    quadrature.
    """
    if not F.grid.same_geometry(plan.grid_out):
        raise GridMismatchError("field does not live on the plan's output grid")
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
