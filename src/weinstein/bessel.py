"""Normalized Bessel function and the plane-wave x Bessel product kernel.

j_alpha is the entire even function with j_alpha(0) = 1 solving the radial
eigen-equation u'' + ((2*alpha+1)/r) u' = -u; it equals
2^alpha * Gamma(alpha+1) * J_alpha(x) / x^alpha and Poisson's integral
c_alpha * int_{-1}^{1} (1-t^2)^{alpha-1/2} cos(x t) dt.  ``_accel``
tabulates it as Chebyshev series on panels of x: Poisson's integral on a
Gauss-Gegenbauer rule for x < 256, the radial eigen-equation carrying it
further.
"""

import numpy as np

from . import _accel


def bessel_j_normalized(alpha, x):
    """j_alpha at a float or array of floats (even in x, values in [-1, 1]);
    needs alpha > -1/2."""
    if not alpha > -0.5:
        raise ValueError(f"alpha out of range: need alpha > -1/2, got {alpha}")
    out = _accel.j_alpha(alpha, x)
    if np.ndim(x) == 0:
        return float(out)
    return out


def weinstein_kernel(params, lam, x):
    """Kernel value exp(-1j*<x', lam'>) * j_alpha(x_{d+1} * lam_{d+1}) at
    alpha = params.alpha.

    ``lam`` and ``x`` are real points of R^{d+1} (single points or (n, d+1)
    arrays); the modulus never exceeds 1 on real arguments.
    """
    lam = np.asarray(lam, dtype=np.float64)
    x = np.asarray(x, dtype=np.float64)
    single = lam.ndim == 1 and x.ndim == 1
    lam = np.atleast_2d(lam)
    x = np.atleast_2d(x)
    if lam.shape[-1] != params.d + 1 or x.shape[-1] != params.d + 1:
        raise ValueError(f"points must have {params.d + 1} coordinates")
    lam, x = np.broadcast_arrays(lam, x)
    d = params.d
    phase = np.einsum("ij,ij->i", x[:, :d], lam[:, :d])
    radial = _accel.j_alpha(params.alpha, lam[:, d] * x[:, d])
    vals = radial * np.exp(-1j * phase)
    if single:
        return complex(vals[0])
    return vals
