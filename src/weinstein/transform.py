"""Forward and inverse transforms for the Bessel-weighted kernel.

Two routes compute the same integral transform

    F(lam) = integral of f(x) * exp(-1j*<x', lam'>) * j_alpha(x_r lam_r)

against the weighted measure:

* ``fast_separable``: an FFT over each Euclidean axis (with phase
  corrections for the midpoint-symmetric grids) and a dense cached
  Bessel-kernel matrix over the radial axis.
* ``direct_quadrature``: the dense weighted sum over all point pairs,
  evaluated on the fly.  O(N_in * N_out), guarded, and the oracle the
  fast route is validated against.

The inverse is the forward composed with the Euclidean reflection
lam -> (-lam', lam_r), i.e. the conjugate-phase Fourier factor; the radial
factor is its own inverse kernel on the mirrored frequency axis.
"""

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _accel
from .core import Field, Grid, build_grid, measure_weights
from .errors import GridMismatchError, SizeGuardError

METHODS = ("fast_separable", "direct_quadrature")

# Largest n_in * n_out the dense route will accept.
DIRECT_PAIR_GUARD = 10 ** 8


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
    def kernel_cache(self):
        """Radial kernel matrix j_alpha(rho_m r_k) with the radial quadrature
        weights of the input axis folded in (the mirrored output axis carries
        identical weights, so one cache serves both directions)."""
        r = self.grid_in.radial_nodes
        rho = self.grid_out.radial_nodes
        j = _accel.j_alpha(self.grid_in.params.alpha, np.outer(rho, r))
        return j * self.grid_in.radial_weights()[None, :]

    @cached_property
    def _euclid_phases(self):
        """Per-axis (pre, post) phase vectors turning the plain FFT into the
        midpoint-symmetric-grid Fourier sum  sum_k f_k exp(-1j x_k lam_m)."""
        phases = []
        for n in self.grid_in.shape[:-1]:
            c = (n - 1) / 2.0
            k = np.arange(n)
            pre = np.exp(2j * np.pi * c * k / n)
            post = np.exp(2j * np.pi * c * (k - c) / n)
            phases.append((pre, post))
        return tuple(phases)


def make_plan(grid, method="fast_separable", normalization="self-reciprocal"):
    """Plan the transform from ``grid`` to its conjugate frequency grid; the
    Bessel index is the grid's alpha."""
    return TransformPlan(grid_in=grid, grid_out=frequency_grid(grid),
                         method=method, normalization=normalization)


def _axis_view(vec, axis, ndim):
    sh = [1] * ndim
    sh[axis] = len(vec)
    return vec.reshape(sh)


def _separable_apply(plan, values, sign):
    """Euclidean FFTs (analysis sign=-1 / synthesis sign=+1) then the radial
    kernel matmul; returns unnormalized sums (caller divides by C)."""
    grid_src = plan.grid_in if sign < 0 else plan.grid_out
    v = np.ascontiguousarray(values, dtype=np.complex128)
    nd = v.ndim
    for ax, (pre, post) in enumerate(plan._euclid_phases):
        step = grid_src.euclid_spacings()[ax]
        if sign < 0:
            v = v * _axis_view(pre, ax, nd)
            v = np.fft.fft(v, axis=ax)
            v = v * _axis_view(post * step, ax, nd)
        else:
            n = v.shape[ax]
            v = v * _axis_view(np.conj(post), ax, nd)
            v = np.fft.ifft(v, axis=ax) * n
            v = v * _axis_view(np.conj(pre) * step, ax, nd)
    v = np.tensordot(v, plan.kernel_cache, axes=([nd - 1], [1]))
    return v


def forward(plan, f):
    """Transform of ``f`` (on plan.grid_in), sampled on plan.grid_out."""
    if not f.grid.same_geometry(plan.grid_in):
        raise GridMismatchError("field does not live on the plan's input grid")
    if plan.method == "direct_quadrature":
        return direct_quadrature(plan, f)
    v = _separable_apply(plan, f.values, sign=-1)
    return Field(grid=plan.grid_out,
                 values=v / plan.weights_in.normalization_constant)


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
    v = _separable_apply(plan, F.values, sign=+1)
    return Field(grid=plan.grid_in,
                 values=v / plan.weights_out.normalization_constant)


def direct_quadrature(plan, f, inverse=False):
    """Dense-sum oracle realizing the transform (or its inverse) without the
    separable factorization; bitwise-deterministic given the summation order.
    """
    n_pairs = plan.grid_in.size * plan.grid_out.size
    if n_pairs > DIRECT_PAIR_GUARD:
        raise SizeGuardError(
            f"direct quadrature over {n_pairs} point pairs exceeds the guard "
            f"({DIRECT_PAIR_GUARD}); use the fast_separable method"
        )
    if inverse:
        src_grid, dst_grid = plan.grid_out, plan.grid_in
        w = plan.weights_out
        sign = +1.0
    else:
        src_grid, dst_grid = plan.grid_in, plan.grid_out
        w = plan.weights_in
        sign = -1.0
    if not f.grid.same_geometry(src_grid):
        raise GridMismatchError("field does not live on the expected grid")
    out = _accel.direct_transform(f.flat, w.flat, src_grid.points,
                                  dst_grid.points, src_grid.params.alpha,
                                  sign=sign)
    return Field(grid=dst_grid, values=out.reshape(dst_grid.shape))
