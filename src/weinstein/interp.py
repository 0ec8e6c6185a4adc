"""Separable interpolation of sampled fields, used by translation.

Each rule is one 1-D interpolation: the Euclidean shifts apply a dense
(n_query, n_nodes) linear matrix per axis, and the radial rule is its
4-point cubic stencil, which translation contracts before building any
matrix.  ``radial_cubic_matrix``, the stencil's dense form, is the
reference the contracted radial mix is tested against.

Radial interpolation assumes the half-step-offset uniform sampling of
(0, R] and extends fields evenly through 0 (fields here are even in the
last variable, and the mirrored offset nodes continue the uniform grid
seamlessly); queries beyond the sampled extent evaluate to 0.
"""

import numpy as np


def uniform_linear_matrix(nodes, queries):
    """Linear interpolation on a uniform axis; 0 outside the node range."""
    nodes = np.asarray(nodes)
    queries = np.asarray(queries, dtype=np.float64)
    n = len(nodes)
    h = nodes[1] - nodes[0]
    t = (queries - nodes[0]) / h
    base = np.floor(t).astype(np.int64)
    frac = t - base
    # snap queries that land on nodes (keeps aligned shifts exact)
    on_node = np.abs(frac) < 1e-12
    frac = np.where(on_node, 0.0, frac)
    m = np.zeros((len(queries), n))
    rows = np.arange(len(queries))
    for off, wt in ((0, 1.0 - frac), (1, frac)):
        idx = base + off
        ok = (idx >= 0) & (idx < n) & (wt != 0.0)
        np.add.at(m, (rows[ok], idx[ok]), wt[ok])
    return m


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

