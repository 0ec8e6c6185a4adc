"""Hot numerical kernels of the transform, in numpy alone.

Kernels
-------
roots_jacobi       Gauss-Jacobi nodes and weights, memoized per rule
j_alpha            normalized Bessel function of index alpha, float- or
                   array-valued
si                 sine integral Si(z), array-valued

Gauss-Jacobi rules follow Golub & Welsch (Math. Comp. 1969): the nodes are
the eigenvalues of the Jacobi matrix, polished by one Newton step on the
orthonormal three-term recurrence, and the weights are Christoffel numbers
from the same recurrence pass.  j_alpha is tabulated as Chebyshev series on
fixed-width panels of x.  Up to POISSON_PANELS panels the table holds
Poisson's integral

    j_alpha(x) = c_alpha * int_{-1}^{1} (1 - t^2)^{alpha - 1/2} cos(x t) dt

on the Gauss-Gegenbauer rule of that weight; beyond, Bessel's equation
x j'' + (2 alpha + 1) j' + x j = 0 carries j and j' from panel to panel by
Taylor series, so the table costs O(x), up to MARCH_STEP_BUDGET steps.  Si
is Gauss-Legendre on the sinc over the same panels.

"""

import functools
import math

import numpy as np

from .errors import MeasureRangeError, SizeGuardError

# Chebyshev panels for j_alpha: on a panel of half-width 2 the series
# coefficients of cos(x t), |t| <= 1, are bounded by 2|J_k(2)| < 1e-18
# from k = PANEL_DEGREE on, so PANEL_DEGREE terms reach round-off.
PANEL_WIDTH = 4.0
PANEL_DEGREE = 20
# Panels whose values come from Poisson's integral (x < 256); every table
# has at least these, and continues from there by Bessel's equation.
POISSON_PANELS = 64
# Nodes of the one Gauss-Gegenbauer rule per alpha for Poisson's integral:
# an n-node rule is exact to degree 2n - 1, and the Chebyshev coefficients
# 2 J_k(x) of cos(x t) on [-1, 1] drop below 1e-17 once k exceeds x by
# ~13 x^(1/3) (measured n - x/2 is at most 6.5 x^(1/3) up to x = 1024), so
# n = x/2 + 7 x^(1/3) + 8 integrates cos(x t) to round-off up to x; at
# x = POISSON_PANELS * PANEL_WIDTH = 256 that is 180.
POISSON_NODES = 180
# Largest m h / x0 of a Taylor step of Bessel's equation (m = 2 alpha + 1,
# step h from x0): the series' terms then stay below e^8 ~ 3000 times the
# solution, so round-off keeps ~12 digits of it.
MARCH_REACH = 8.0
# Most Taylor steps one table may take (up to ~1.6 kB each while it is
# built).  Panels past x = 256 take at least one step each, plus about
# (alpha / 4) ln(x / 256) in all, so this admits x < 524,288 at small alpha
# and alpha = 1e5 at x = 1200 (52,385 steps, the most any test takes), and
# refuses alpha = 1e7 at x = 400 (1.7 million steps).
MARCH_STEP_BUDGET = 1 << 17
# Rescaling step of the recurrence, so that p_k^2 and the Christoffel sums
# stay in the float range for large rules and parameters.
_RESCALE_LOG2 = 400


def _jacobi_recurrence(n, a, b):
    """Diagonal alpha_0..alpha_{n-1} and off-diagonal beta_1..beta_n of the
    Jacobi matrix for the weight (1-t)^a (1+t)^b, written without the 0/0
    that the textbook forms hit at a + b = 0 (alpha_0) and a + b = -1
    (beta_1)."""
    s = a + b
    k = np.arange(1.0, n)
    diag = np.empty(n)
    diag[0] = (b - a) / (s + 2.0)
    diag[1:] = (b - a) * s / ((2.0 * k + s) * (2.0 * k + s + 2.0))
    off = np.empty(n)
    off[0] = math.sqrt(4.0 * (1.0 + a) * (1.0 + b)
                       / ((2.0 + s) ** 2 * (3.0 + s)))
    k = np.arange(2.0, n + 1)
    off[1:] = np.sqrt(4.0 * k * (k + a) * (k + b) * (k + s)
                      / ((2.0 * k + s) ** 2 * (2.0 * k + s + 1.0)
                         * (2.0 * k + s - 1.0)))
    return diag, off


@functools.cache
def _gauss_jacobi(n, a, b):
    """Nodes and log2 Christoffel numbers of the n-point rule for the
    probability measure proportional to (1-t)^a (1+t)^b on [-1, 1]
    (read-only arrays, shared by every caller).

    The recurrence runs once at the eigenvalues t of the Jacobi matrix and
    gives p_n, p_n' and S = sum_{k<n} p_k^2 with its derivative S'.  The
    Newton step delta = -p_n/p_n' polishes the nodes and S + delta S'
    (error O(delta^2)) is S at the polished nodes; the weight is 1/S.
    """
    diag, off = _jacobi_recurrence(n, a, b)
    jacobi = np.diag(diag)
    i = np.arange(n - 1)
    jacobi[i, i + 1] = jacobi[i + 1, i] = off[:-1]
    t = np.linalg.eigvalsh(jacobi)
    p_prev, p = np.zeros(n), np.ones(n)
    dp_prev, dp = np.zeros(n), np.zeros(n)
    s, ds = np.zeros(n), np.zeros(n)
    log2_scale = np.zeros(n)
    big = 2.0 ** _RESCALE_LOG2
    b_prev = 0.0
    for k in range(n):
        s += p * p
        ds += p * dp
        p_next = ((t - diag[k]) * p - b_prev * p_prev) / off[k]
        dp_next = ((t - diag[k]) * dp + p - b_prev * dp_prev) / off[k]
        p_prev, p, dp_prev, dp, b_prev = p, p_next, dp, dp_next, off[k]
        over = np.abs(p) > big
        if over.any():
            f = np.where(over, 1.0 / big, 1.0)
            p_prev *= f
            p *= f
            dp_prev *= f
            dp *= f
            s *= f * f
            ds *= f * f
            log2_scale += np.where(over, 2.0 * _RESCALE_LOG2, 0.0)
    delta = -p / dp
    nodes = t + delta
    log2_weights = -np.log2(s + 2.0 * delta * ds) - log2_scale
    nodes.flags.writeable = False
    log2_weights.flags.writeable = False
    return nodes, log2_weights


def roots_jacobi(n, a, b):
    """Nodes (ascending) and weights of the n-point Gauss-Jacobi rule for
    the weight (1-t)^a (1+t)^b on [-1, 1]; needs a, b > -1.  The rule is
    computed once per (n, a, b) and the nodes are shared and read-only.
    Weights beyond the float range come out inf (or 0), never nan; a, b
    so large that the recurrence itself leaves the float range (or loses
    the Christoffel sums to cancellation) raise MeasureRangeError."""
    a, b = float(a), float(b)
    try:
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            nodes, log2_weights = _gauss_jacobi(int(n), a, b)
        finite = np.all(np.isfinite(nodes)) \
            and np.all(np.isfinite(log2_weights))
    except OverflowError:
        finite = False
    if not finite:
        raise MeasureRangeError(
            f"the {n}-node Gauss-Jacobi rule for (1-t)^{a:g} (1+t)^{b:g} "
            "leaves the float range")
    log2_mass = a + b + 1.0 + (math.lgamma(a + 1.0) + math.lgamma(b + 1.0)
                               - math.lgamma(a + b + 2.0)) / math.log(2.0)
    with np.errstate(over="ignore"):
        return nodes, np.exp2(log2_mass + log2_weights)


@functools.cache
def _chebyshev_panel():
    """First-kind Chebyshev nodes u_j on [-1, 1] and the matrix taking
    values at them to the coefficients of the interpolating series."""
    theta = np.pi * (np.arange(PANEL_DEGREE) + 0.5) / PANEL_DEGREE
    to_coef = (2.0 / PANEL_DEGREE) * np.cos(
        np.outer(np.arange(PANEL_DEGREE), theta))
    to_coef[0] *= 0.5
    return np.cos(theta), to_coef


def _bessel_taylor(m, x0, h, value, slope):
    """Scaled Taylor coefficients b_k = a_k h^k about x0, one row per k and
    one column per x0, of the solution of Bessel's equation
    x j'' + m j' + x j = 0 with j = value and j' = slope at x0 (x0, the
    step h, value and slope are arrays of one shape):

        x0 (k+1)(k+2) b_{k+2} = -(k+1)(k+m) h b_{k+1} - x0 h^2 b_k - h^3 b_{k-1}.

    The terms peak near exp(m h / x0) times the solution, so steps keep
    m h / x0 <= MARCH_REACH; from k = 2 MARCH_REACH on the recurrence
    contracts, and the series is cut once three successive b_k fall below
    round-off."""
    b_prev, b, b_next = np.zeros_like(x0), value, slope * h
    terms = [b, b_next]
    peak = np.maximum(np.abs(b), np.abs(b_next))
    small, k = 0, 0
    while small < 3 or k < 2 * MARCH_REACH:
        b_prev, b, b_next = b, b_next, -(
            (k + 1) * (k + m) * h * b_next + x0 * h * h * b
            + h ** 3 * b_prev) / (x0 * (k + 1) * (k + 2))
        terms.append(b_next)
        size = np.abs(b_next)
        peak = np.maximum(peak, size)
        small = small + 1 if np.all(size <= 2.0 ** -60 * peak) else 0
        k += 1
    return np.array(terms)


def _bessel_march(alpha, first, panels, t, w):
    """j_alpha at the Chebyshev nodes of the panels first..panels-1, as a
    (panels - first, PANEL_DEGREE) array.

    j and j' at x = first * W come from Poisson's integral on the rule
    (t, w).  Each panel is cut into the fewest equal steps h with
    m h / x0 <= MARCH_REACH (one step once x0 >= m W / MARCH_REACH); the
    steps' transfer matrices (both fundamental solutions one step on)
    carry j and j' from step to step, and each node sums the Taylor
    series of the step it lies in."""
    m = 2.0 * alpha + 1.0
    # each panel takes at least one step, so a table with more panels than
    # the budget is refused before any per-panel array exists
    steps = float(panels - first)
    if steps <= MARCH_STEP_BUDGET:
        left = np.arange(first, panels) * PANEL_WIDTH
        # counted in floats, so that a huge alpha cannot wrap the count
        cuts = np.ceil(m * PANEL_WIDTH / (MARCH_REACH * left))
        steps = float(cuts.sum())
    if steps > MARCH_STEP_BUDGET:
        raise SizeGuardError(
            f"j_alpha at alpha={alpha:g} for |x| up to "
            f"{panels * PANEL_WIDTH:g} needs at least {steps:.4g} Taylor "
            f"steps of Bessel's equation, over the budget of "
            f"{MARCH_STEP_BUDGET}")
    cuts = cuts.astype(np.intp)
    start = np.cumsum(cuts) - cuts              # each panel's first step
    panel = np.repeat(np.arange(len(left)), cuts)
    h = PANEL_WIDTH / cuts[panel]
    x0 = left[panel] + (np.arange(len(panel)) - start[panel]) * h
    ones, zeros = np.ones_like(x0), np.zeros_like(x0)
    transfer = []
    for b in (_bessel_taylor(m, x0, h, ones, zeros),
              _bessel_taylor(m, x0, h, zeros, ones)):
        transfer += [b.sum(axis=0), np.arange(len(b)) @ b / h]
    j = float(w @ np.cos(left[0] * t))
    dj = float(-(w * t) @ np.sin(left[0] * t))
    steps = []
    for a, c, b, d in np.stack(transfer, axis=1).tolist():
        steps.append((j, dj))
        j, dj = a * j + b * dj, c * j + d * dj
    value, slope = np.array(steps).T
    # each node's step, and its offset there in units of the step
    u, _ = _chebyshev_panel()
    offset = np.multiply.outer(cuts, 0.5 * (1.0 + u))
    within = offset.astype(np.intp)
    index = start[:, None] + within
    sigma = offset - within
    nodes = np.zeros_like(sigma)
    for row in _bessel_taylor(m, x0, h, value, slope)[::-1]:
        nodes = nodes * sigma + row[index]
    return nodes


@functools.cache
def _j_table(alpha, panels):
    """Chebyshev coefficients of j_alpha on the panels
    [k*PANEL_WIDTH, (k+1)*PANEL_WIDTH], k < ``panels`` (at least
    POISSON_PANELS), as a read-only (PANEL_DEGREE, panels) array: Poisson's
    integral at the Chebyshev nodes of the first POISSON_PANELS panels on
    the POISSON_NODES-node Gauss-Gegenbauer rule, and Bessel's equation
    beyond (``_bessel_march``).  A longer table extends a shorter one and
    agrees with it on their common panels."""
    u, to_coef = _chebyshev_panel()
    x = (np.arange(POISSON_PANELS)[:, None] + 0.5 + 0.5 * u) * PANEL_WIDTH
    t, log2_w = _gauss_jacobi(POISSON_NODES, alpha - 0.5, alpha - 0.5)
    w = np.exp2(log2_w)
    values = np.zeros_like(x)
    for tk, wk in zip(t, w):
        values += wk * np.cos(tk * x)
    if panels > POISSON_PANELS:
        values = np.concatenate(
            [values, _bessel_march(alpha, POISSON_PANELS, panels, t, w)])
    coef = to_coef @ values.T
    coef.flags.writeable = False
    return coef


def _j_alpha(alpha, x):
    ax = np.abs(x)
    if ax.size == 0:
        return ax
    x_max = float(ax.max())
    if not math.isfinite(x_max):
        raise ValueError("j_alpha needs finite arguments")
    # a power-of-two panel count, so calls over similar ranges share tables
    coef = _j_table(alpha, max(POISSON_PANELS,
                               1 << int(x_max // PANEL_WIDTH).bit_length()))
    panel = (ax // PANEL_WIDTH).astype(np.intp)
    u = (2.0 / PANEL_WIDTH) * ax - (2.0 * panel + 1.0)
    # Clenshaw's recurrence on each point's own panel series
    b1 = np.zeros_like(ax)
    b2 = np.zeros_like(ax)
    two_u = 2.0 * u
    for row in coef[:0:-1]:
        b1, b2 = row[panel] + two_u * b1 - b2, b1
    out = coef[0][panel] + u * b1 - b2
    # j_alpha(0) = 1 exactly, not to the series' round-off
    out[ax == 0.0] = 1.0
    return out


def check_alpha(alpha):
    """A Bessel index as a float: finite and > -1/2, else ValueError."""
    if not -0.5 < alpha < math.inf:
        raise ValueError(f"alpha out of range: need a finite alpha > -1/2, "
                         f"got {alpha}")
    return float(alpha)


def j_alpha(alpha, x):
    """Normalized Bessel function of index ``alpha`` > -1/2 at a float or
    a float array (a float gives a float): the entire even function with
    j_alpha(0) = 1 solving u'' + ((2 alpha + 1)/r) u' = -u, equal to
    2^alpha Gamma(alpha+1) J_alpha(x) / x^alpha, with values in [-1, 1].

    The accuracy is absolute: within 1e-12 of mpmath's 2^a Gamma(a+1)
    J_a(x) / x^a for alpha from -0.45 to 100 and x up to 65,536.  It is
    not relative: where j_alpha is tiny the relative error is large (at
    alpha = 100 and x = 250, j_alpha is 7.8e-54 and the table gives
    5.4e-17), and no caller divides by the values.  Arguments whose table
    needs more than MARCH_STEP_BUDGET Taylor steps raise SizeGuardError."""
    x = np.asarray(x, dtype=np.float64)
    out = _j_alpha(check_alpha(alpha), x.ravel()).reshape(x.shape)
    return float(out) if out.ndim == 0 else out


def si(z):
    """Sine integral Si(z) = int_0^z sin(s)/s ds on a float array: the
    whole panels of width PANEL_WIDTH below |z|, summed cumulatively, plus
    the part of the last one, each on the PANEL_DEGREE-node Gauss-Legendre
    rule (exact to degree 2 PANEL_DEGREE - 1, past the sinc's round-off
    degree on a panel).  Non-finite arguments are a ValueError."""
    z = np.asarray(z, dtype=np.float64)
    if not np.all(np.isfinite(z)):
        raise ValueError("si needs finite arguments")
    az = np.abs(z).ravel()
    t, log2_w = _gauss_jacobi(PANEL_DEGREE, 0.0, 0.0)
    w, s = np.exp2(log2_w), 0.5 * (1.0 + t)
    panel = (az // PANEL_WIDTH).astype(np.intp)
    start = panel * PANEL_WIDTH
    edges = np.arange(panel.max() + 1 if panel.size else 0) * PANEL_WIDTH
    whole = PANEL_WIDTH * (
        np.sinc(np.add.outer(edges, PANEL_WIDTH * s) / np.pi) @ w)
    below = np.concatenate([[0.0], np.cumsum(whole)])[panel]
    part = (az - start) * (np.sinc(
        (start[:, None] + np.multiply.outer(az - start, s)) / np.pi) @ w)
    return np.copysign((below + part).reshape(z.shape), z)

