"""Parameters, grids, quadrature weights, and norms for the weighted measure.

The underlying domain is R^d x (0, inf) with the measure

    x_{d+1}^{2*alpha+1} dx / C,

where C is a normalization constant.  The default C = (2*pi)^{d/2} * 2^alpha
* Gamma(alpha+1) makes the transform pair self-reciprocal (the "squared"
variant C^2 is also selectable, as is any explicit positive value).
Everything downstream (transforms, translations, multiplier operators,
certificates) consumes the weighted sums defined here.

All container types are immutable after construction; operations are pure.
"""

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.special import roots_jacobi

from .errors import GridMismatchError, MeasureRangeError

RADIAL_SCHEMES = ("uniform-offset", "collocation")
NORMALIZATION_KINDS = ("self-reciprocal", "squared")
MIN_AXIS_POINTS = 8

# Gregory endpoint corrections for uniform-step trapezoid sums (sixth
# order); they preserve the total weight (n-1)*h exactly.
_GREGORY_EDGE = np.array([95.0 / 288.0, 317.0 / 240.0, 23.0 / 30.0,
                          793.0 / 720.0, 157.0 / 160.0])


@dataclass(frozen=True)
class WeinsteinParams:
    """Dimension count d and Bessel index alpha of the radial weight."""

    d: int
    alpha: float

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise ValueError(f"d must be a positive integer, got {self.d!r}")
        if not self.alpha > -0.5:
            raise ValueError(f"alpha out of range: need alpha > -1/2, got {self.alpha}")

    @property
    def homogeneity_degree(self):
        """Scaling exponent of the measure under dilation: 2*alpha + d + 2."""
        return 2.0 * self.alpha + self.d + 2.0


def normalization_constant(params, kind="self-reciprocal"):
    """Resolve the measure normalization constant.

    ``kind`` is "self-reciprocal" (default), "squared" (its square), or an
    explicit positive number.
    """
    if isinstance(kind, (int, float)) and not isinstance(kind, bool):
        value = float(kind)
        if value <= 0:
            raise ValueError("normalization constant must be positive")
        return value
    if kind not in NORMALIZATION_KINDS:
        raise ValueError(f"unknown normalization kind {kind!r}")
    base = (2.0 * math.pi) ** (params.d / 2.0) * 2.0 ** params.alpha \
        * math.gamma(params.alpha + 1.0)
    return base if kind == "self-reciprocal" else base * base


def _readonly(a):
    a = np.ascontiguousarray(a)
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class Grid:
    """Tensor sampling of R^d x (0, inf).

    Euclidean axes are uniform midpoint samplings symmetric about 0 (so the
    reflection x -> (-x', x_{d+1}) permutes grid points); the radial axis is
    strictly positive, either a half-step-offset uniform sampling of (0, R]
    or Gauss-Jacobi collocation nodes for the radial density.
    """

    params: WeinsteinParams
    euclid_axes: tuple
    euclid_halfwidths: tuple
    radial_nodes: np.ndarray
    radial_extent: float
    radial_scheme: str

    def __post_init__(self):
        if len(self.euclid_axes) != self.params.d:
            raise ValueError("need one euclidean axis per dimension")
        for nodes in self.euclid_axes:
            if not np.allclose(nodes, -nodes[::-1], atol=1e-12):
                raise ValueError("euclidean axes must be symmetric about 0")
        r = self.radial_nodes
        if r[0] <= 0 or np.any(np.diff(r) <= 0):
            raise ValueError("radial nodes must be strictly positive and increasing")
        if self.radial_scheme not in RADIAL_SCHEMES:
            raise ValueError(f"unknown radial scheme {self.radial_scheme!r}")

    @property
    def shape(self):
        return tuple(len(a) for a in self.euclid_axes) + (len(self.radial_nodes),)

    @property
    def size(self):
        return int(np.prod(self.shape))

    @property
    def axes(self):
        return self.euclid_axes + (self.radial_nodes,)

    def euclid_spacings(self):
        return tuple(a[1] - a[0] for a in self.euclid_axes)

    def radial_weights(self):
        """Radial quadrature weights with the density r^{2*alpha+1} folded in.

        Raises MeasureRangeError when they overflow the float range (large
        alpha on a radial extent above 2).
        """
        r = self.radial_nodes
        alpha = self.params.alpha
        with np.errstate(over="ignore"):
            if self.radial_scheme == "uniform-offset":
                dr = self.radial_extent / len(r)
                w = r ** (2.0 * alpha + 1.0) * dr
            else:
                # collocation: Gauss-Jacobi for weight (1+t)^{2*alpha+1} on
                # [-1, 1], mapped to [0, R]; the density is exact inside the
                # rule.
                _, w = roots_jacobi(len(r), 0.0, 2.0 * alpha + 1.0)
                try:
                    scale = (self.radial_extent / 2.0) ** (2.0 * alpha + 2.0)
                except OverflowError:
                    scale = math.inf
                w = w * scale
        if not np.all(np.isfinite(w)):
            raise MeasureRangeError(f"radial weights overflow at alpha={alpha:g}")
        return w

    @cached_property
    def points(self):
        """All grid points packed as an (size, d+1) array, C-order."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        return _readonly(np.stack([m.ravel() for m in mesh], axis=-1))

    @cached_property
    def radius_sq(self):
        """|x|^2 = |x'|^2 + x_{d+1}^2 per grid point, grid-shaped."""
        out = np.zeros(self.shape)
        nd = len(self.shape)
        for j, nodes in enumerate(self.axes):
            sh = [1] * nd
            sh[j] = len(nodes)
            out = out + (nodes ** 2).reshape(sh)
        return _readonly(out)

    def same_geometry(self, other):
        if self.shape != other.shape:
            return False
        return all(
            np.array_equal(a, b) for a, b in zip(self.axes, other.axes)
        )


def build_grid(params, extents, counts, radial_scheme="uniform-offset"):
    """Build a Grid from per-axis extents (d half-widths + radial extent)
    and point counts.

    Euclidean axis j samples [-L_j, L_j] at midpoints of N_j equal cells;
    the radial axis samples (0, R] the same way (so 0 itself is never a
    node), or at collocation nodes when requested.
    """
    extents = tuple(float(e) for e in extents)
    counts = tuple(int(n) for n in counts)
    if len(extents) != params.d + 1 or len(counts) != params.d + 1:
        raise ValueError("need d+1 extents and d+1 counts")
    if any(e <= 0 for e in extents):
        raise ValueError("extents must be positive")
    if any(n < MIN_AXIS_POINTS for n in counts):
        raise ValueError(f"need at least {MIN_AXIS_POINTS} points per axis")
    euclid_axes = []
    for L, n in zip(extents[:-1], counts[:-1]):
        step = 2.0 * L / n
        euclid_axes.append(_readonly(-L + (np.arange(n) + 0.5) * step))
    R, n_r = extents[-1], counts[-1]
    if radial_scheme == "uniform-offset":
        radial = (np.arange(n_r) + 0.5) * (R / n_r)
    elif radial_scheme == "collocation":
        t, _ = roots_jacobi(n_r, 0.0, 2.0 * params.alpha + 1.0)
        radial = R * (t + 1.0) / 2.0
    else:
        raise ValueError(f"unknown radial scheme {radial_scheme!r}")
    return Grid(
        params=params,
        euclid_axes=tuple(euclid_axes),
        euclid_halfwidths=extents[:-1],
        radial_nodes=_readonly(radial),
        radial_extent=R,
        radial_scheme=radial_scheme,
    )


@dataclass(frozen=True)
class WeightField:
    """Per-point quadrature weights realizing the weighted measure."""

    grid: Grid
    weights: np.ndarray
    normalization_constant: float

    @cached_property
    def flat(self):
        return _readonly(self.weights.reshape(-1))

    @property
    def total(self):
        """Measure of the full sampled box."""
        return float(self.weights.sum())


def measure_weights(grid, normalization="self-reciprocal"):
    """Quadrature weights for the weighted measure on ``grid``.

    Raises MeasureRangeError when the normalization constant or the
    weights leave the float range (for large alpha, Gamma(alpha+1)
    overflows, and on a small box every weight underflows to 0).
    """
    try:
        const = normalization_constant(grid.params, normalization)
    except OverflowError:
        const = math.inf
    nd = grid.params.d + 1
    w = np.ones(grid.shape)
    for j, step in enumerate(grid.euclid_spacings()):
        sh = [1] * nd
        sh[j] = grid.shape[j]
        w = w * np.full(grid.shape[j], step).reshape(sh)
    sh = [1] * nd
    sh[-1] = grid.shape[-1]
    w = w * grid.radial_weights().reshape(sh)
    with np.errstate(over="ignore"):
        w = w / const
    if not (math.isfinite(const) and np.all(np.isfinite(w)) and w.any()):
        raise MeasureRangeError(
            f"measure leaves the float range at alpha={grid.params.alpha:g} "
            f"(normalization constant {const:g})")
    return WeightField(grid=grid, weights=_readonly(w),
                       normalization_constant=const)


@dataclass(frozen=True)
class Field:
    """Complex-valued sampled function on a Grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values)
        if v.shape != self.grid.shape:
            raise GridMismatchError(
                f"values shape {v.shape} does not match grid shape {self.grid.shape}"
            )
        # one C-ordered complex copy, whose float view checks every part
        v = np.array(v, dtype=np.complex128, order="C")
        if not np.all(np.isfinite(v.view(np.float64))):
            raise ValueError("field values must be finite")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @cached_property
    def flat(self):
        return _readonly(self.values.reshape(-1))

    def __add__(self, other):
        self._check(other)
        return Field(grid=self.grid, values=self.values + other.values)

    def __sub__(self, other):
        self._check(other)
        return Field(grid=self.grid, values=self.values - other.values)

    def __mul__(self, scalar):
        return Field(grid=self.grid, values=self.values * scalar)

    __rmul__ = __mul__

    def _check(self, other):
        if other.grid is not self.grid and not self.grid.same_geometry(other.grid):
            raise GridMismatchError("fields live on different grids")


def gaussian_field(grid, scale=1.0):
    """The Gaussian exp(-|x|^2 / (2 scale^2)) on the grid."""
    return Field(grid=grid, values=np.exp(-grid.radius_sq / (2.0 * scale ** 2)))


def norm_p(f, w, p):
    """L^p norm of a Field against a WeightField (p = inf gives max |values|)."""
    _check_pair(f, w)
    if p == math.inf or p == "inf":
        return float(np.max(np.abs(f.values)))
    p = float(p)
    if p < 1.0:
        raise ValueError(f"norms require p >= 1, got {p}")
    return float(np.sum(w.weights * np.abs(f.values) ** p) ** (1.0 / p))


def inner_product(f, g, w):
    """Weighted inner product <f, g> = sum w * f * conj(g)."""
    _check_pair(f, w)
    _check_pair(g, w)
    return complex(np.sum(w.weights * f.values * np.conj(g.values)))


def _check_pair(f, w):
    if f.grid is not w.grid and not f.grid.same_geometry(w.grid):
        raise GridMismatchError("field and weights live on different grids")


@dataclass(frozen=True)
class SigmaGrid:
    """Logarithmically spaced dilation scales with weights for d(sigma)/sigma."""

    sigmas: np.ndarray
    log_weights: np.ndarray

    def __post_init__(self):
        s = self.sigmas
        if s[0] <= 0 or np.any(np.diff(s) <= 0):
            raise ValueError("sigmas must be strictly positive and increasing")
        target = math.log(s[-1] / s[0])
        if abs(float(self.log_weights.sum()) - target) > 1e-12 * abs(target):
            raise ValueError("log weights must sum to log(sigma_max/sigma_min)")

    @property
    def sigma_min(self):
        return float(self.sigmas[0])

    @property
    def sigma_max(self):
        return float(self.sigmas[-1])

    def __len__(self):
        return len(self.sigmas)


def build_sigma_grid(sigma_min, sigma_max, count):
    """Log-spaced scales on [sigma_min, sigma_max] with d(sigma)/sigma weights.

    The trapezoid rule, with Gregory endpoint corrections once there are at
    least 10 scales; the weights sum to log(sigma_max/sigma_min) exactly.
    """
    if not 0 < sigma_min < sigma_max:
        raise ValueError("need 0 < sigma_min < sigma_max")
    count = int(count)
    if count < 2:
        raise ValueError("need at least 2 sigma points")
    s = np.exp(np.linspace(math.log(sigma_min), math.log(sigma_max), count))
    h = math.log(sigma_max / sigma_min) / (count - 1)
    w = np.full(count, h)
    w[0] = w[-1] = h / 2.0
    k = len(_GREGORY_EDGE)
    if count >= 2 * k:
        w[:k] = _GREGORY_EDGE * h
        w[-k:] = _GREGORY_EDGE[::-1] * h
    return SigmaGrid(sigmas=_readonly(s), log_weights=_readonly(w))


def theta_integral(values, sg, w):
    """Iterated sum over the product measure (d(sigma)/sigma) x (weighted dx).

    ``values`` is shaped (len(sg), grid size) or (len(sg),) + grid shape.
    """
    values = np.asarray(values)
    flat = values.reshape(values.shape[0], -1) if values.ndim > 1 else values.reshape(1, -1)
    if values.ndim == 1 or flat.shape[0] != len(sg) or flat.shape[1] != w.grid.size:
        raise ValueError(
            f"values must be shaped ({len(sg)}, {w.grid.size}), got {values.shape}"
        )
    return float(sg.log_weights @ (flat @ w.flat))

