import numpy as np
import pytest

from weinstein.interp import (apply_axis_matrix, linear_shift,
                              radial_cubic_matrix)


def test_linear_exact_on_nodes():
    # a node-aligned shift moves the samples k nodes and fills with 0; a
    # ratio left by rounding on either side of a node (2.1 / 0.3 = 7 + 9e-16,
    # 2.0999999999999996 / 0.7 = 3 - 4e-16) is snapped, so the copy is exact
    rng = np.random.default_rng(3)
    values = rng.normal(size=(13, 5)) + 1j * rng.normal(size=(13, 5))
    assert 2.1 / 0.3 > 7 and 2.0999999999999996 / 0.7 < 3
    for step, shift, k in ((0.5, 0.0, 0), (0.5, 1.5, 3), (0.5, -1.0, -2),
                           (0.5, 4.0, 8), (0.3, 2.1, 7),
                           (0.7, 2.0999999999999996, 3)):
        out = linear_shift(values, 0, step, shift)
        ref = np.zeros_like(values)
        src = values[max(k, 0):13 + min(k, 0)]
        ref[max(-k, 0):max(-k, 0) + len(src)] = src
        assert np.array_equal(out, ref)


def test_linear_zero_outside():
    values = np.ones((6, 13), dtype=np.complex128)
    for shift in (-6.5, 6.5, 40.0):
        assert np.all(linear_shift(values, 1, 0.5, shift) == 0)


def test_linear_shift_matches_interp():
    # off-node shifts along every axis equal np.interp on the zero-extended
    # axis (one 0 node beyond each end), at nodes + shift
    rng = np.random.default_rng(5)
    values = rng.normal(size=(7, 9, 4)) + 1j * rng.normal(size=(7, 9, 4))
    step = 0.25
    for axis in range(3):
        n = values.shape[axis]
        nodes = step * np.arange(-1, n + 1)
        moved = np.moveaxis(values, axis, 0).reshape(n, -1)
        for shift in (0.3 * step, -1.7 * step, 2.5 * step, (n - 0.4) * step):
            out = np.moveaxis(linear_shift(values, axis, step, shift), axis, 0)
            for j in range(moved.shape[1]):
                col = np.concatenate([[0], moved[:, j], [0]])
                ref = np.interp(nodes[1:-1] + shift, nodes, col.real) \
                    + 1j * np.interp(nodes[1:-1] + shift, nodes, col.imag)
                assert np.max(np.abs(out.reshape(n, -1)[:, j] - ref)) < 1e-14


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
