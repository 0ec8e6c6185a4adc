import ast
import dataclasses
import math
import os
import pathlib
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

import weinstein.transform
from weinstein import (Field, TransformPlan, WeinsteinParams, build_grid,
                       direct_quadrature, forward, frequency_grid,
                       gaussian_field, inner_product, inverse, make_plan,
                       norm_p, weinstein_kernel)


def resolved_field(grid, rng, n_terms=3):
    """Random superposition of moderately wide gaussians: decays inside the
    box and is band-limited for the conjugate grid."""
    pts = grid.points
    d = grid.params.d
    vals = np.zeros(pts.shape[0], dtype=np.complex128)
    for _ in range(n_terms):
        w = rng.uniform(0.9, 1.6)
        ce = rng.uniform(-1.0, 1.0, size=d)
        cr = rng.uniform(0.0, 1.5)
        amp = rng.normal() + 1j * rng.normal()
        de = np.sum((pts[:, :d] - ce) ** 2, axis=1)
        r = pts[:, d]
        rad = np.exp(-0.5 * (r - cr) ** 2 / w ** 2) \
            + np.exp(-0.5 * (r + cr) ** 2 / w ** 2)
        vals += amp * np.exp(-0.5 * de / w ** 2) * rad
    return Field(grid=grid, values=vals.reshape(grid.shape))


def test_frequency_grid_is_conjugate(plan_half):
    g = plan_half.grid_in
    gf = plan_half.grid_out
    dx = g.euclid_spacings()[0]
    dlam = gf.euclid_spacings()[0]
    n = g.shape[0]
    assert dlam == pytest.approx(2 * math.pi / (n * dx), rel=1e-12)
    assert np.array_equal(gf.radial_nodes, g.radial_nodes)


def test_gaussian_is_fixed_point(plan_half):
    f = gaussian_field(plan_half.grid_in)
    F = forward(plan_half, f)
    expected = gaussian_field(plan_half.grid_out)
    err = np.max(np.abs(F.values - expected.values))
    assert err < 1e-6


def test_forward_zero(plan_half):
    z = Field(grid=plan_half.grid_in, values=np.zeros(plan_half.grid_in.shape))
    assert np.all(forward(plan_half, z).values == 0)
    assert np.all(inverse(plan_half, forward(plan_half, z)).values == 0)


def test_dilated_gaussian_scaling_law():
    # forward of exp(-|x|^2/(2 s^2)) is s^deg exp(-s^2 |lam|^2 / 2)
    p = WeinsteinParams(d=1, alpha=1.0)
    s = 1.4
    g = build_grid(p, (10.0, 10.0), (128, 128), radial_scheme="collocation")
    plan = make_plan(g)
    F = forward(plan, gaussian_field(g, scale=s))
    expected = s ** p.homogeneity_degree \
        * gaussian_field(plan.grid_out, scale=1.0 / s).values
    assert np.max(np.abs(F.values - expected)) < 1e-8 * s ** p.homogeneity_degree


def test_roundtrip_gaussian(plan_half):
    f = gaussian_field(plan_half.grid_in)
    back = inverse(plan_half, forward(plan_half, f))
    assert np.max(np.abs(back.values - f.values)) < 1e-6


def test_inverse_of_gaussian(plan_half):
    F = gaussian_field(plan_half.grid_out)
    f = inverse(plan_half, F)
    expected = gaussian_field(plan_half.grid_in)
    assert np.max(np.abs(f.values - expected.values)) < 1e-6


def test_plancherel_and_parseval(plan_half, rng):
    w_in, w_out = plan_half.weights_in, plan_half.weights_out
    for _ in range(5):
        f = resolved_field(plan_half.grid_in, rng)
        g = resolved_field(plan_half.grid_in, rng)
        F, G = forward(plan_half, f), forward(plan_half, g)
        n2 = norm_p(f, w_in, 2) ** 2
        assert abs(norm_p(F, w_out, 2) ** 2 - n2) / n2 < 1e-6
        ip = inner_product(f, g, w_in)
        ipf = inner_product(F, G, w_out)
        assert abs(ip - ipf) / abs(ip) < 1e-6


def test_sup_norm_bound(plan_one_colloc, rng):
    # ||F f||_inf <= ||f||_1 for nonnegative f (and in fact any f)
    for _ in range(5):
        f = resolved_field(plan_one_colloc.grid_in, rng)
        f = Field(grid=f.grid, values=np.abs(f.values))
        F = forward(plan_one_colloc, f)
        assert norm_p(F, plan_one_colloc.weights_out, math.inf) \
            <= norm_p(f, plan_one_colloc.weights_in, 1) * (1 + 1e-10)


def test_direct_quadrature_matches_fast(rng):
    for d, alpha, n in ((1, 0.5, 16), (1, 1.0, 16), (2, 2.0, 12)):
        p = WeinsteinParams(d=d, alpha=alpha)
        g = build_grid(p, (5.6,) * (d + 1), (n,) * (d + 1))
        plan = make_plan(g)
        f = resolved_field(g, rng)
        fast = forward(plan, f)
        dense = direct_quadrature(plan, f)
        w = plan.weights_out
        assert norm_p(fast - dense, w, 2) / norm_p(fast, w, 2) < 1e-8
        # inverse direction too
        fb_fast = inverse(plan, fast)
        fb_dense = direct_quadrature(plan, fast, inverse=True)
        wi = plan.weights_in
        assert norm_p(fb_fast - fb_dense, wi, 2) / norm_p(fb_fast, wi, 2) < 1e-8


@pytest.mark.parametrize("alpha", [
    0.75,
    # 1/C ~ 1e-188 enters the separable route's pre-factor
    100.0,
], ids=["self-reciprocal", "self-reciprocal-alpha100"])
def test_fast_matches_direct_nonsquare(rng, alpha):
    # axes of different lengths catch axis mix-ups in the separable route
    # (radial axis moved first, Euclidean FFTs along the rest) that the
    # cubic grids above cannot; both routes evaluate the same discrete sum
    for d, extents, counts, scheme in (
            (1, (5.0, 6.0), (12, 20), "uniform-offset"),
            (1, (5.0, 6.0), (12, 20), "collocation"),
            (2, (5.0, 4.0, 6.0), (10, 8, 14), "uniform-offset")):
        p = WeinsteinParams(d=d, alpha=alpha)
        g = build_grid(p, extents, counts, radial_scheme=scheme)
        plan = make_plan(g)
        f = Field(grid=g, values=rng.normal(size=g.shape)
                  + 1j * rng.normal(size=g.shape))
        fast = forward(plan, f)
        dense = direct_quadrature(plan, f)
        w = plan.weights_out
        assert norm_p(fast - dense, w, 2) / norm_p(dense, w, 2) < 1e-12
        back = inverse(plan, fast)
        back_dense = direct_quadrature(plan, fast, inverse=True)
        wi = plan.weights_in
        assert norm_p(back - back_dense, wi, 2) \
            / norm_p(back_dense, wi, 2) < 1e-12


def test_direct_quadrature_one_hot():
    # a single-point field transforms to weight * kernel sampled over lam
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (4.0, 4.0), (12, 12))
    plan = make_plan(g)
    vals = np.zeros(g.shape)
    vals[3, 4] = 1.0
    f = Field(grid=g, values=vals)
    out = direct_quadrature(plan, f)
    x0 = np.array([g.euclid_axes[0][3], g.radial_nodes[4]])
    w0 = plan.weights_in.weights[3, 4]
    expected = w0 * weinstein_kernel(p, plan.grid_out.points, x0)
    assert np.max(np.abs(out.flat - expected)) < 1e-14


def test_direct_quadrature_linearity(rng):
    p = WeinsteinParams(d=1, alpha=1.0)
    g = build_grid(p, (5.0, 5.0), (12, 12))
    plan = make_plan(g)
    f1 = resolved_field(g, rng)
    f2 = resolved_field(g, rng)
    a, b = 1.3 - 0.2j, -0.7 + 0.9j
    lhs = direct_quadrature(plan, Field(grid=g, values=a * f1.values + b * f2.values))
    rhs = a * direct_quadrature(plan, f1).values + b * direct_quadrature(plan, f2).values
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs.values - rhs)) < 1e-12 * scale


@pytest.mark.parametrize("scheme", ["uniform-offset", "collocation"])
@pytest.mark.parametrize("alpha", [-0.45, 0.5, 100.0])
@pytest.mark.parametrize("d, counts", [(1, (9, 11)), (2, (8, 9, 10))])
def test_direct_quadrature_equals_dense_kernel_sum(d, counts, alpha, scheme,
                                                   rng):
    # the per-axis quadrature is the dense weighted sum over all point
    # pairs, K(dst, src) @ (w * f), in both directions; K is the pointwise
    # kernel at every (dst, src) pair, conjugated for the synthesis sign
    p = WeinsteinParams(d=d, alpha=alpha)
    g = build_grid(p, (4.0,) * (d + 1), counts, radial_scheme=scheme)
    plan = make_plan(g)
    for inv, src, dst, w in (
            (False, plan.grid_in, plan.grid_out, plan.weights_in),
            (True, plan.grid_out, plan.grid_in, plan.weights_out)):
        f = Field(grid=src, values=rng.normal(size=src.shape)
                  + 1j * rng.normal(size=src.shape))
        pairs = weinstein_kernel(p, np.repeat(dst.points, src.size, axis=0),
                                 np.tile(src.points, (dst.size, 1)))
        kernel = pairs.reshape(dst.size, src.size)
        if inv:
            kernel = kernel.conj()
        dense = kernel @ (w.flat * f.flat)
        got = direct_quadrature(plan, f, inverse=inv).flat
        assert np.linalg.norm(got - dense) <= 1e-13 * np.linalg.norm(dense)


def test_reflection_identity(plan_half, rng):
    # the inverse realized through conjugate phases equals the dense
    # synthesis quadrature with the reflected kernel
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (5.6, 5.6), (16, 16))
    plan = make_plan(g)
    F = resolved_field(plan.grid_out, rng)
    via_fast = inverse(plan, F)
    via_dense = direct_quadrature(plan, F, inverse=True)
    w = plan.weights_in
    assert norm_p(via_fast - via_dense, w, 2) / norm_p(via_fast, w, 2) < 1e-8


def test_plan_validation():
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (8.0, 8.0), (32, 32))
    # the self-reciprocal measure is the one normalization
    for normalization in ("squared", 2.75, 1.0, None):
        with pytest.raises(ValueError, match="unknown normalization"):
            make_plan(g, normalization=normalization)
    plan = make_plan(g)
    other = build_grid(p, (7.0, 8.0), (32, 32))
    from weinstein import GridMismatchError
    f = gaussian_field(other)
    for call in (lambda: forward(plan, f), lambda: inverse(plan, f),
                 lambda: direct_quadrature(plan, f),
                 lambda: direct_quadrature(plan, f, inverse=True)):
        with pytest.raises(GridMismatchError):
            call()


def test_kernel_cache_structure(plan_half):
    cache = plan_half.kernel_cache
    r = plan_half.grid_in.radial_nodes
    w = plan_half.grid_in.radial_weights()
    # real, and symmetric once the folded weights are divided out
    assert np.isrealobj(cache)
    bare = cache / w[None, :]
    assert np.max(np.abs(bare - bare.T)) < 1e-12


# ---------------------------------------------------------------------------
# the split across CPUs
# ---------------------------------------------------------------------------

SPLIT_GRIDS = {
    "d1_256_collocation": (1, (8.0, 8.0), (256, 256), "collocation"),
    "d1_256_uniform": (1, (8.0, 8.0), (256, 256), "uniform-offset"),
    "d2_48": (2, (6.5, 6.5, 6.5), (48, 48, 48), "collocation"),
    "d1_250x37": (1, (8.0, 8.0), (250, 37), "uniform-offset"),
    "d2_17x31x23": (2, (6.0, 6.0, 6.0), (17, 31, 23), "collocation"),
}


def _split_case(name):
    d, extents, counts, scheme = SPLIT_GRIDS[name]
    plan = make_plan(build_grid(WeinsteinParams(d=d, alpha=0.5), extents,
                                counts, radial_scheme=scheme))
    rng = np.random.default_rng(20261020)
    values = rng.standard_normal(counts) + 1j * rng.standard_normal(counts)
    return (plan, Field(grid=plan.grid_in, values=values),
            Field(grid=plan.grid_out, values=values))


@pytest.mark.parametrize("name", sorted(SPLIT_GRIDS))
def test_transforms_independent_of_cpu_count(name, monkeypatch):
    # each radial row's FFTs and each output column's radial product run
    # whole on one thread, the product in column blocks aligned to 16 real
    # columns, so any CPU count gives the same bits
    plan, f, F = _split_case(name)
    results = []
    for n in (1, 2, 3, 5, 8):
        monkeypatch.setattr(weinstein.transform, "_cpu_count", lambda: n)
        results.append((forward(plan, f).values, inverse(plan, F).values))
    for fwd, inv in results[1:]:
        assert np.array_equal(fwd, results[0][0])
        assert np.array_equal(inv, results[0][1])
    assert results[-1][0].flags.c_contiguous


def test_cpu_map_item_may_run_a_split_transform(plan_half, rng, monkeypatch):
    # a map item that calls forward splits it again on whatever threads are
    # free; the caller waits only for started items, so it cannot deadlock
    monkeypatch.setattr(weinstein.transform, "_cpu_count", lambda: 2)
    fields = [resolved_field(plan_half.grid_in, rng) for _ in range(4)]
    expected = [forward(plan_half, f).values for f in fields]
    got = []
    thread = threading.Thread(daemon=True, target=lambda: got.extend(
        weinstein.transform._cpu_map(
            lambda f: forward(plan_half, f).values, fields)))
    thread.start()
    thread.join(60)
    assert not thread.is_alive(), "deadlock"
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert np.array_equal(a, b)


def test_concurrent_callers_get_identical_transforms(monkeypatch):
    # four user threads transform at once, sharing the helper threads
    monkeypatch.setattr(weinstein.transform, "_cpu_count", lambda: 2)
    plan, f, _ = _split_case("d1_256_uniform")
    expected = forward(plan, f).values
    barrier = threading.Barrier(4, timeout=30)
    results = [None] * 4

    def user(i):
        barrier.wait()
        results[i] = [forward(plan, f).values for _ in range(5)]

    threads = [threading.Thread(target=user, args=(i,), daemon=True)
               for i in range(4)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(60)
    assert not any(thread.is_alive() for thread in threads)
    for per_user in results:
        assert all(np.array_equal(out, expected) for out in per_user)


@pytest.mark.parametrize("other", (None, "d1_250x37"))
@pytest.mark.parametrize("n_cpu", (1, 2))
def test_two_threads_keep_their_own_scratch(n_cpu, other, monkeypatch):
    # one thread runs forward and another inverse on the same plan, at once;
    # with ``other`` the second alternates with a plan of another grid
    # shape, so its kept blocks are reallocated mid-run.  Every result has
    # the serial bits.
    monkeypatch.setattr(weinstein.transform, "_cpu_count", lambda: n_cpu)
    plan, f, F = _split_case("d1_256_uniform")
    jobs = [[(forward, plan, f)], [(inverse, plan, F)]]
    if other is not None:
        plan2, f2, _ = _split_case(other)
        jobs[1].append((forward, plan2, f2))
    expected = [[fn(p, x).values for fn, p, x in job] for job in jobs]
    barrier = threading.Barrier(2, timeout=30)
    mismatches = []

    def user(job, want):
        barrier.wait()
        for i in range(24):
            fn, p, x = job[i % len(job)]
            if not np.array_equal(fn(p, x).values, want[i % len(job)]):
                mismatches.append((fn.__name__, i))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=user, args=args, daemon=True)
                   for args in zip(jobs, expected)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert not mismatches


@pytest.mark.parametrize("n_cpu", (1, 2))
def test_forward_allocates_only_its_output(n_cpu, monkeypatch):
    # after a warm-up call, a 256^2 forward allocates one grid-sized block,
    # its output, and at no time holds a second one beside it: the source
    # block and the radial product are the thread's kept scratch, and the
    # output becomes the Field's values without a copy.  Outputs never
    # alias one another (nor, so, a scratch block) and are read-only.
    monkeypatch.setattr(weinstein.transform, "_cpu_count", lambda: n_cpu)
    plan, f, _ = _split_case("d1_256_uniform")
    block = 16 * plan.grid_out.size
    first = forward(plan, f)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        second = forward(plan, f)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert block <= kept - before < 1.5 * block
    assert peak - before < 2 * block
    assert not np.shares_memory(first.values, second.values)
    assert not first.values.flags.writeable
    assert not second.values.flags.writeable
    assert np.array_equal(first.values, second.values)


def test_split_transform_passes_errstate_and_errors(monkeypatch):
    # at a two-party barrier each of two threads builds one half of the
    # source rows: the caller's np.errstate holds on the helper, and an
    # exception raised on the helper alone reaches the caller
    monkeypatch.setattr(weinstein.transform, "_cpu_count", lambda: 2)
    rows = weinstein.transform._source_rows
    barrier = threading.Barrier(2, timeout=10)

    def meet(*args):
        barrier.wait()
        return rows(*args)

    monkeypatch.setattr(weinstein.transform, "_source_rows", meet)
    # a spacing of 31 times 1e308 overflows in the pre factor, on every row
    grid = build_grid(WeinsteinParams(d=1, alpha=0.5), (1000.0, 8.0), (64, 64))
    plan = make_plan(grid)
    huge = Field(grid=grid, values=np.full(grid.shape, 1e308))
    with np.errstate(over="raise"):
        with pytest.raises(FloatingPointError):
            forward(plan, huge)
    # ignored, no thread warns (a RuntimeWarning is an error here); the
    # non-finite output is refused by Field
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(ValueError, match="finite"):
            forward(plan, huge)

    def fail_on_helper(*args):
        barrier.wait()
        if threading.current_thread() is not threading.main_thread():
            raise KeyError("helper")
        return rows(*args)

    monkeypatch.setattr(weinstein.transform, "_source_rows", fail_on_helper)
    with pytest.raises(KeyError, match="helper"):
        forward(plan, gaussian_field(grid))


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_gets_its_own_helpers(plan_half, monkeypatch):
    # the parent's helper threads do not exist in a forked child; it starts
    # its own, so a split transform there runs (a two-party barrier needs a
    # live helper) and the child exits 0
    monkeypatch.setattr(weinstein.transform, "_cpu_count", lambda: 2)
    f = gaussian_field(plan_half.grid_in)
    expected = forward(plan_half, f).values
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            barrier = threading.Barrier(2, timeout=10)
            weinstein.transform._cpu_map(lambda _: barrier.wait(), range(2))
            if np.array_equal(forward(plan_half, f).values, expected):
                code = 0
        finally:
            os._exit(code)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, 9)
            os.waitpid(pid, 0)
            pytest.fail("forked child did not finish")
        time.sleep(0.02)
    assert os.waitstatus_to_exitcode(status) == 0


def test_plan_output_grid_is_derived():
    # a plan is its input grid: the output grid is always the conjugate one
    # (a given grid of the same shape but other extents would transform
    # onto the wrong nodes)
    params = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(params, (8.0, 8.0), (32, 32))
    g2 = build_grid(params, (3.0, 5.0), (32, 32))
    with pytest.raises(TypeError):
        TransformPlan(grid_in=g, grid_out=g2)
    assert [f.name for f in dataclasses.fields(TransformPlan)] == ["grid_in"]
    assert make_plan(g).grid_out.same_geometry(frequency_grid(g))


# The separable core's layout, FFTs, scratch, column alignment and CPU
# map: no module but transform.py names them (report.py reads
# transform._cpu_count for the report's environment).
TRANSFORM_INTERNALS = {"_cpu_map", "_radial_first", "_source_rows", "_ffts",
                       "_scratch_block", "GEMM_COLUMN_ALIGN"}


def test_transform_internals_stay_in_transform():
    package = pathlib.Path(weinstein.transform.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "transform.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.alias):
                name = node.name
            else:
                continue
            if name in TRANSFORM_INTERNALS:
                found.append(f"{path.name}:{node.lineno} {name}")
    assert not found
