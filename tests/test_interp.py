import numpy as np
import pytest

from weinstein.interp import (apply_axis_matrix, radial_cubic_matrix,
                              uniform_linear_matrix)


def test_linear_exact_on_nodes():
    nodes = np.linspace(-3, 3, 13)
    m = uniform_linear_matrix(nodes, nodes.copy())
    assert np.allclose(m, np.eye(13))


def test_linear_zero_outside():
    nodes = np.linspace(-3, 3, 13)
    m = uniform_linear_matrix(nodes, np.array([-5.0, 4.1]))
    assert np.all(m == 0)


def test_radial_even_reflection():
    # an even function interpolates smoothly through r = 0, with the error
    # shrinking at the cubic rate under refinement
    errs = []
    for n in (64, 128):
        extent = 8.0
        dr = extent / n
        r = (np.arange(n) + 0.5) * dr
        samples = np.exp(-r ** 2)
        queries = np.linspace(0.001, 0.3, 40)
        m = radial_cubic_matrix(r, extent, queries)
        errs.append(np.max(np.abs(m @ samples - np.exp(-queries ** 2))))
    assert errs[0] < 1e-4
    assert errs[0] / errs[1] == pytest.approx(16.0, rel=0.4)


def test_radial_zero_beyond_extent():
    n, extent = 32, 4.0
    r = (np.arange(n) + 0.5) * (extent / n)
    m = radial_cubic_matrix(r, extent, np.array([5.0, 7.5]))
    assert np.all(m == 0)


def test_apply_axis_matrix_matches_complex_product():
    # the real product on the float view equals the complex product against
    # the upcast matrix, along every axis, for square and non-square
    # matrices and for a non-contiguous (transposed) input
    rng = np.random.default_rng(7)
    for shape in ((6, 9), (5, 4, 7)):
        base = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        for v in (base, base.T):
            for axis in range(v.ndim):
                n_in = v.shape[axis]
                for n_out in (n_in, n_in + 3):
                    m = rng.normal(size=(n_out, n_in))
                    ref = np.moveaxis(np.moveaxis(v, axis, -1) @ m.T, -1, axis)
                    out = apply_axis_matrix(v, m, axis)
                    assert out.shape == ref.shape
                    assert np.max(np.abs(out - ref)) \
                        <= 1e-15 * np.max(np.abs(ref))
