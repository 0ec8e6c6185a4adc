"""Hot numerical kernels of the transform, in numpy/scipy.

Kernels
-------
j_alpha            normalized Bessel function of index alpha, array-valued
kernel_matrix      matrix of plane-wave x Bessel kernel values at point pairs

``kernel_matrix`` calls the private ``_j_alpha``, not ``j_alpha``, so a
tracer wrapping public names (perfbench/tracer.py) counts each once.
"""

import math

import numpy as np
from scipy import special

# The power series for the normalized Bessel function alternates; in float64
# its partial sums reach ~e^x/(pi*x), so beyond |x| ~ 12 cancellation eats
# more than 5 of the 16 digits and scipy's J_alpha takes over.
SERIES_MAX_TERMS = 200
SWITCHOVER = 12.0


def _j_alpha(alpha, x):
    ax = np.abs(x)
    out = np.empty_like(ax)
    small = ax <= SWITCHOVER
    if small.any():
        xs = ax[small]
        q = 0.25 * xs * xs
        s = np.ones_like(xs)
        t = np.ones_like(xs)
        active = np.ones(xs.shape, dtype=bool)
        for k in range(SERIES_MAX_TERMS):
            t = np.where(active, -t * q / ((k + 1.0) * (alpha + k + 1.0)), 0.0)
            s = s + t
            active = np.abs(t) >= 1e-17 * np.abs(s)
            if not active.any():
                break
        out[small] = s
    big = ~small
    if big.any():
        xb = ax[big]
        scale = np.exp(
            alpha * np.log(2.0) + math.lgamma(alpha + 1.0) - alpha * np.log(xb)
        )
        out[big] = scale * special.jv(alpha, xb)
    return out


def j_alpha(alpha, x):
    """Normalized Bessel function of index ``alpha`` on a float array."""
    x = np.asarray(x, dtype=np.float64)
    return _j_alpha(float(alpha), x.ravel()).reshape(x.shape)


def kernel_matrix(lam_pts, x_pts, alpha, sign=-1.0):
    """Matrix K[i, k] = exp(1j*sign*<lam'_i, x'_k>) * j_alpha(lam_i[-1]*x_k[-1]).

    ``lam_pts`` and ``x_pts`` are (m, d+1) and (n, d+1) coordinate arrays;
    the first d columns carry the plane-wave phase, the last the Bessel
    argument.  sign=-1 gives the analysis kernel, sign=+1 the synthesis one.
    """
    lam = np.ascontiguousarray(lam_pts, dtype=np.float64)
    x = np.ascontiguousarray(x_pts, dtype=np.float64)
    d = lam.shape[1] - 1
    phase = lam[:, :d] @ x[:, :d].T
    # a tensor grid repeats each radial coordinate across the Euclidean
    # axes: evaluate j on the distinct radial products and gather
    lam_r, lam_idx = np.unique(lam[:, d], return_inverse=True)
    x_r, x_idx = np.unique(x[:, d], return_inverse=True)
    radial = _j_alpha(float(alpha), np.outer(lam_r, x_r).ravel())
    radial = radial.reshape(len(lam_r), len(x_r))[np.ix_(lam_idx, x_idx)]
    return radial * np.exp(1j * float(sign) * phase)
