"""Forward and inverse transforms for the Bessel-weighted kernel.

Two routes compute the same integral transform

    F(lam) = integral of f(x) * exp(-1j*<x', lam'>) * j_alpha(x_r lam_r)

against the weighted measure:

* ``forward`` / ``inverse`` (the fast separable route, the only one a
  plan runs): a pre-factor (the midpoint-symmetric grids' index phases,
  the spacings and 1/C), an FFT over each Euclidean axis, one real
  product with the dense cached Bessel-kernel matrix over the radial
  axis, and a unimodular post-factor.  A multiplier sweep runs the
  synthesis core once per scale (``_synthesis_moments``).
* ``direct_quadrature``: the weighted quadrature sum itself, with the
  kernel factored over the tensor grid into one explicit matrix per axis,
  exp(-+1j*x_a*lam_a) on each Euclidean axis and j_alpha(r*rho) on the
  radial one, applied one axis at a time.  No FFT, phase correction or
  folded constant enters, so it is the oracle the fast route is validated
  against; the self-tests and the tests call it directly.

The inverse is the forward composed with the Euclidean reflection
lam -> (-lam', lam_r), i.e. the conjugate-phase Fourier factor; the radial
factor is its own inverse kernel on the mirrored frequency axis.

Every ``forward`` and ``inverse`` runs on all the CPUs the process may use:
its radial rows (layout, pre-factor, FFTs) and then its output columns
(radial product, post-factor, layout) are split across the calling thread
and persistent helper threads (``_cpu_map``, the package's one CPU map; a
sweep's items are its scales).  Each row, column and scale is computed
whole by one thread, so the bits do not depend on the CPU count.
"""

import os
import queue
import threading
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
    """Cached machinery for applying the transform from ``grid_in`` to its
    frequency grid; its one route and normalization are class constants."""

    grid_in: Grid
    method: ClassVar[str] = "fast_separable"
    normalization: ClassVar[str] = "self-reciprocal"

    @cached_property
    def grid_out(self):
        return frequency_grid(self.grid_in)

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
    return TransformPlan(grid_in=grid)


def _cpu_count():
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # a platform without CPU affinity
        return os.cpu_count() or 1


# The helper threads of ``_cpu_map``: started on first use, then kept, each
# running the jobs of one shared queue.  A forked child has none of them and
# starts its own.
_pool_lock = threading.Lock()
_jobs = queue.SimpleQueue()
_helpers = 0


def _helper(jobs):
    while True:
        jobs.get()()


def _reset_pool():
    global _pool_lock, _jobs, _helpers
    _pool_lock, _jobs, _helpers = threading.Lock(), queue.SimpleQueue(), 0


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_reset_pool)


def _cpu_map(fn, items):
    """[fn(item) for item in items] on up to min(_cpu_count(), len(items))
    threads: the calling thread and the pool's helpers, each taking the next
    item in turn from one shared iterator.  Each call runs whole on one
    thread, under the caller's np.errstate (NumPy's error state does not
    pass to other threads), and the first exception raised is re-raised
    here once every started item has stopped.

    The caller waits only for items that have started, and a helper that
    comes late finds none left, so a call made from inside an item, or from
    several threads at once, runs on whatever threads are free and cannot
    deadlock.
    """
    global _helpers
    items = list(items)
    results = [None] * len(items)
    errors = []
    # one iterator shared by the threads: each next() hands out one item
    todo = enumerate(items)
    errstate = np.geterr()
    done = threading.Condition()
    running = 0
    closed = False

    def work():
        nonlocal running
        with np.errstate(**errstate):
            while True:
                with done:
                    if closed or errors:
                        return
                    i, item = next(todo, (None, None))
                    if i is None:
                        return
                    running += 1
                try:
                    results[i] = fn(item)
                except BaseException as exc:
                    errors.append(exc)
                finally:
                    with done:
                        running -= 1
                        done.notify_all()

    n_helpers = min(_cpu_count(), len(items)) - 1
    if n_helpers > 0:
        with _pool_lock:
            while _helpers < n_helpers:
                threading.Thread(target=_helper, args=(_jobs,), daemon=True,
                                 name="weinstein-cpu-map").start()
                _helpers += 1
            for _ in range(n_helpers):
                _jobs.put(work)
    work()
    with done:
        closed = True
        done.wait_for(lambda: running == 0)
    if errors:
        raise errors[0]
    return results


def _chunks(n, parts, align=1):
    """range(n) as up to ``parts`` consecutive slices of near-equal length,
    each starting on a multiple of ``align``."""
    step = -(-n // (parts * align)) * align
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


def _radial_first(values):
    """C-order float64 copy of grid-shaped real ``values`` with the radial
    axis moved first: the layout the separable core works in."""
    return np.array(np.moveaxis(values, -1, 0), dtype=np.float64, order="C")


def _source_rows(pre, values, v, rows):
    """Radial rows ``rows`` of a direction's source block written into
    ``v``: grid-shaped ``values`` in radial-first layout times the
    direction's ``pre`` factor."""
    v[rows] = np.moveaxis(values[..., rows], -1, 0)
    v[rows] *= pre


def _ffts(v, sign):
    """Each Euclidean axis' FFT of the radial-first complex block ``v``, in
    place (analysis sign=-1, unscaled synthesis sign=+1).  Every radial row
    is transformed on its own, so any split of the rows gives the same
    bits."""
    for ax in range(1, v.ndim):
        if sign < 0:
            np.fft.fft(v, axis=ax, out=v)
        else:
            np.fft.ifft(v, axis=ax, norm="forward", out=v)


# Real columns per block of the radial product split across CPUs.  Blocks
# that start on multiples of 16 give the bits of one whole product under
# the BLAS kernels; blocks on multiples of 2 alone do not.
GEMM_COLUMN_ALIGN = 16


def _separable_apply(plan, values, sign):
    """Normalized transform (analysis sign=-1 / synthesis sign=+1), split
    across the CPUs the process may use (``_cpu_map``) in two phases:

    * per chunk of radial rows, those rows of the direction's source block
      (``_source_rows``) and their Euclidean FFTs (``_ffts``);
    * per chunk of real columns (starting on multiples of
      GEMM_COLUMN_ALIGN), ``kernel_cache`` times those columns, the
      direction's ``post`` factor, and the write to grid layout.

    Every radial row's FFTs and every output column's radial product are
    computed whole, by one thread, from the same operands, so the result
    does not depend on the CPU count.  It is C-contiguous.
    """
    n_r = values.shape[-1]
    n_cpu = _cpu_count()
    # the plan's cached parts are built here, on the calling thread
    pre, post = plan._phases[0 if sign < 0 else 1]
    kernel = plan.kernel_cache
    post = np.broadcast_to(post, (1,) + values.shape[:-1]).reshape(-1)
    v = np.empty((n_r,) + values.shape[:-1], dtype=np.complex128)
    real = v.reshape(n_r, -1).view(np.float64)
    out = np.empty(values.shape, dtype=np.complex128)
    # grid layout with the Euclidean points flattened: (rest, n_r)
    out_rows = out.reshape(-1, n_r)

    def rows(r):
        _source_rows(pre, values, v, r)
        _ffts(v[r], sign)

    def columns(c):
        block = (kernel @ real[:, c]).view(np.complex128)
        cols = slice(c.start // 2, c.stop // 2)
        block *= post[cols]
        out_rows[cols] = block.T

    _cpu_map(rows, _chunks(n_r, n_cpu))
    _cpu_map(columns, _chunks(real.shape[1], n_cpu, GEMM_COLUMN_ALIGN))
    return out


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


# Slabs of radial rows in which ``_synthesis_moments`` evaluates the
# profile into a block: its temporaries are then a third of the block.
PROFILE_SLABS = 3


def _synthesis_moments(plan, F, radial_profile, radius, scales, weight,
                       betas):
    """Moments sum_x weight(b) |T_sigma phi|^2 for each scale sigma, an
    array over ``betas`` each: T_sigma phi is the synthesis of m(sigma .) F,
    m the real ``radial_profile`` at the frequency radii ``radius``, F =
    forward(plan, phi), and ``weight(b)`` is grid-shaped on plan.grid_in.

    F's synthesis source block, the radii and the weights (one column per
    real and imaginary part of an output value) are laid out radial-first
    once.  Each scale is one ``_cpu_map`` item, run whole by one thread:
    the profile scales the block a slab of radial rows at a time, then come
    ``_ffts`` and the real radial product with ``kernel_cache``, squared in
    place.  ``post`` is unimodular and cannot change |T|^2, so it and the
    move back to grid layout are skipped.  The reduction is an einsum, not
    a BLAS product, so its summation order does not depend on the BLAS
    thread count.  Overflow is ignored: it shows as non-finite moments.
    """
    values = F.values
    n_r = values.shape[-1]
    # the plan's cached parts are built here, on the calling thread
    kernel = plan.kernel_cache
    src = np.empty((n_r,) + values.shape[:-1], dtype=np.complex128)
    _source_rows(plan._phases[1][0], values, src, slice(None))
    radius = _radial_first(radius)
    # one weight at a time, so no grid-layout stack of them is held
    wb = np.empty((len(betas), 2 * radius.size))
    for row, b in zip(wb, betas):
        row[0::2] = row[1::2] = _radial_first(weight(b)).reshape(-1)

    def moments(sigma):
        v = np.empty_like(src)
        for rows in _chunks(n_r, PROFILE_SLABS):
            np.multiply(radial_profile(sigma * radius[rows]), src[rows],
                        out=v[rows])
        _ffts(v, +1)
        out = kernel @ v.reshape(n_r, -1).view(np.float64)
        out *= out
        return np.einsum("i,bi->b", out.reshape(-1), wb)

    with np.errstate(over="ignore", invalid="ignore"):
        return _cpu_map(moments, scales)


def weinstein_kernel(params, lam, x):
    """Kernel value exp(-1j*<x', lam'>) * j_alpha(x_{d+1} * lam_{d+1}) at
    alpha = params.alpha, point by point: ``_kernel_factors`` is its form
    per axis of a tensor grid.

    ``lam`` and ``x`` are finite points of R^{d+1} (single points or (n, d+1)
    arrays); the modulus never exceeds 1 on real arguments.
    """
    lam = np.asarray(lam, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    single = lam.ndim == 1 and x.ndim == 1
    lam = np.atleast_2d(lam)
    x = np.atleast_2d(x)
    if lam.shape[-1] != params.d + 1 or x.shape[-1] != params.d + 1:
        raise ValueError(f"points must have {params.d + 1} coordinates")
    if not (np.isfinite(lam).all() and np.isfinite(x).all()):
        raise ValueError("kernel points must be finite")
    lam, x = np.broadcast_arrays(lam, x)
    d = params.d
    phase = np.einsum("ij,ij->i", x[:, :d], lam[:, :d])
    radial = _accel.j_alpha(params.alpha, lam[:, d] * x[:, d])
    vals = radial * np.exp(-1j * phase)
    if single:
        return complex(vals[0])
    return vals


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
