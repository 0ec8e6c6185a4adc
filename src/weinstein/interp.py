"""Separable interpolation of sampled fields, used by translation.

Each rule is a 1-D stencil.  A Euclidean shift by a constant offset is
linear interpolation with the same two weights at every node
(``linear_shift``), applied by slicing; the radial rule is a 4-point cubic
stencil per query (``radial_cubic_stencil``), which translation contracts
into its radial mix.  ``radial_cubic_matrix``, the radial stencil's dense
form, is the reference the contracted radial mix is tested against.

Radial interpolation assumes the half-step-offset uniform sampling of
(0, R] and extends fields evenly through 0 (fields here are even in the
last variable, and the mirrored offset nodes continue the uniform grid
seamlessly); queries beyond the sampled extent evaluate to 0, as do
shifted Euclidean nodes beyond the node range.
"""

import math

import numpy as np


def linear_shift(values, axis, step, shift):
    """``values`` linearly interpolated at nodes + ``shift`` along ``axis``
    of a uniform axis of spacing ``step``; 0 beyond the node range.

    Every node has the stencil (1 - frac, frac) at offsets (k, k + 1), with
    k + frac = shift / step, so each weight scales one slice.  A ratio
    within 1e-12 of a whole number is snapped to it, which keeps
    node-aligned shifts exact whichever way they round.
    """
    t = shift / step
    if abs(t - round(t)) < 1e-12:
        t = float(round(t))
    k = math.floor(t)
    frac = t - k
    n = values.shape[axis]
    out = np.zeros(values.shape, dtype=np.complex128)
    for off, wt in ((k, 1.0 - frac), (k + 1, frac)):
        lo, hi = max(0, -off), min(n, n - off)
        if wt != 0.0 and lo < hi:
            dst = [slice(None)] * values.ndim
            src = list(dst)
            dst[axis], src[axis] = slice(lo, hi), slice(lo + off, hi + off)
            out[tuple(dst)] += wt * values[tuple(src)]
    return out


_CUBIC_OFFSETS = np.array([-1, 0, 1, 2])


def _cubic_weights(u):
    """4-point Lagrange weights on equispaced stencil {-1, 0, 1, 2} at u in [0,1)."""
    return np.stack([
        -u * (u - 1.0) * (u - 2.0) / 6.0,
        (u + 1.0) * (u - 1.0) * (u - 2.0) / 2.0,
        -(u + 1.0) * u * (u - 2.0) / 2.0,
        (u + 1.0) * u * (u - 1.0) / 6.0,
    ], axis=-1)


def radial_cubic_stencil(radial_nodes, radial_extent, queries):
    """Cubic interpolation stencils on offset-uniform radial nodes
    (i+1/2)*dr: (indices, weights), each of shape queries.shape + (4,),
    with sum_s weights[..., s] * f[indices[..., s]] the interpolant.

    Fields are extended evenly through r=0 (mirrored nodes continue the
    uniform spacing, so indices reflect) and as 0 beyond the sampled
    extent (those stencil points carry weight 0 on a clipped index).
    """
    queries = np.abs(np.asarray(queries, dtype=np.float64))
    n = len(radial_nodes)
    dr = radial_extent / n
    t = queries / dr - 0.5
    base = np.floor(t).astype(np.int64)
    u = t - base
    on_node = np.abs(u) < 1e-12
    u = np.where(on_node, 0.0, u)
    w = _cubic_weights(u)
    w[on_node] = np.array([0.0, 1.0, 0.0, 0.0])
    idx = base[..., None] + _CUBIC_OFFSETS
    idx = np.where(idx < 0, -idx - 1, idx)  # even reflection through 0
    beyond = idx >= n
    w[beyond] = 0.0
    idx[beyond] = n - 1
    return idx, w


def radial_cubic_matrix(radial_nodes, radial_extent, queries):
    """Dense (n_query, n_nodes) form of ``radial_cubic_stencil``."""
    idx, w = radial_cubic_stencil(radial_nodes, radial_extent, np.ravel(queries))
    m = np.zeros((len(idx), len(radial_nodes)))
    np.add.at(m, (np.arange(len(idx))[:, None], idx), w)
    return m


def apply_axis_matrix(values, matrix, axis):
    """Apply a real (n_out, n_in) interpolation matrix along one axis of a
    complex array.

    The axis is moved first and the C-ordered (n_in, rest) complex block,
    viewed as an (n_in, 2 * rest) real block, is multiplied by the matrix:
    one real product instead of a complex one against an upcast matrix.
    """
    moved = np.ascontiguousarray(np.moveaxis(values, axis, 0),
                                 dtype=np.complex128)
    out = matrix @ moved.reshape(moved.shape[0], -1).view(np.float64)
    out = out.view(np.complex128).reshape((len(matrix),) + moved.shape[1:])
    return np.moveaxis(out, 0, axis)

