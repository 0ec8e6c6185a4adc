"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Grid selections per criterion (boxes hold the relevant functions to below
1e-12 at the boundary; radial collocation nodes are used where the
half-step uniform radial rule's low-order endpoint term would dominate):

* transforms: d=1 at 128 points/axis, d=2 at 96, boxes of half-width 8
* scale sweeps: dilation-covariant boxes (euclid 7.5 s, radial 7.5 max(s,1/s))
* multiplier norm identity: half-width 15, 256 points (the family output
  spreads with the dilation scale)
* certificate sweeps: half-width 10-12 boxes
"""

import math

import numpy as np

from weinstein import (Field, TranslationRule, WeinsteinParams, build_grid,
                       build_sigma_grid, convolve, direct_quadrature, forward,
                       gaussian_field, inverse, make_admissible_radial,
                       make_plan, measure_weights, norm_p,
                       translate_direct, translate_spectral,
                       ball_region_for_mass, donoho_stark_certificate,
                       general_heisenberg_certificate, heisenberg_certificate,
                       multiplier_heisenberg_certificate,
                       multiplier_plancherel_defect, multiplier_sweep,
                       apply_multiplier, apply_multiplier_kernel,
                       BumpProfile, j_alpha, weinstein_kernel)
from weinstein.multiplier import radial_admissibility_quadrature
from weinstein.report import report_json_bytes, run


def report_line(criterion, ok, detail):
    print(f"[criterion {criterion:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def random_bump(grid, rng):
    pts = grid.points
    d = grid.params.d
    vals = np.zeros(pts.shape[0], dtype=np.complex128)
    for _ in range(rng.integers(1, 4)):
        w = rng.uniform(0.6, 1.6)
        ce = rng.uniform(-1.5, 1.5, size=d)
        cr = rng.uniform(0.0, 2.0)
        amp = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
        de = np.sum((pts[:, :d] - ce) ** 2, axis=1)
        rad = np.exp(-0.5 * (pts[:, d] - cr) ** 2 / w ** 2) \
            + np.exp(-0.5 * (pts[:, d] + cr) ** 2 / w ** 2)
        vals += amp * np.exp(-0.5 * de / w ** 2) * rad
    return Field(grid=grid, values=vals.reshape(grid.shape))


def test_criterion_01_transform_self_consistency():
    worst_planch, worst_rt, worst_fvd = 0.0, 0.0, 0.0
    for d in (1, 2):
        n = 128 if d == 1 else 96
        for alpha in (0.5, 1.0, 2.0):
            params = WeinsteinParams(d=d, alpha=alpha)
            # the half-step uniform radial rule carries a low-order endpoint
            # term for odd radial densities; collocation nodes remove it
            scheme = "uniform-offset" if alpha == 0.5 else "collocation"
            grid = build_grid(params, (8.0,) * (d + 1), (n,) * (d + 1),
                              radial_scheme=scheme)
            plan = make_plan(grid)
            f = gaussian_field(grid)
            F = forward(plan, f)
            n_in = norm_p(f, plan.weights_in, 2)
            n_out = norm_p(F, plan.weights_out, 2)
            worst_planch = max(worst_planch,
                               abs(n_out ** 2 - n_in ** 2) / n_in ** 2)
            back = inverse(plan, F)
            worst_rt = max(worst_rt, float(np.max(np.abs(back.values - f.values))))
            # dense-sum oracle on a small instance (<= 16^3 points)
            n_small = 16 if d == 1 else 12
            small = build_grid(params, (5.6,) * (d + 1), (n_small,) * (d + 1),
                               radial_scheme=scheme)
            small_plan = make_plan(small)
            sf = gaussian_field(small)
            fast = forward(small_plan, sf)
            dense = direct_quadrature(small_plan, sf)
            w = small_plan.weights_out
            worst_fvd = max(worst_fvd,
                            norm_p(fast - dense, w, 2) / norm_p(fast, w, 2))
    ok = worst_planch <= 1e-6 and worst_rt <= 1e-6 and worst_fvd <= 1e-8
    report_line(1, ok,
                f"plancherel {worst_planch:.2e} (<=1e-6), "
                f"roundtrip {worst_rt:.2e} (<=1e-6), "
                f"fast-vs-direct {worst_fvd:.2e} (<=1e-8)")


def test_criterion_02_kernel_properties():
    rng = np.random.default_rng(2024)
    worst_id = 0.0
    for d in (1, 2):
        for alpha in (0.5, 1.0, 2.0):
            params = WeinsteinParams(d=d, alpha=alpha)
            n = 10_000
            lam = rng.normal(scale=3.0, size=(n, d + 1))
            x = rng.normal(scale=3.0, size=(n, d + 1))
            val = weinstein_kernel(params, lam, x)
            sym = weinstein_kernel(params, x, lam)
            refl_x = np.concatenate([-x[:, :d], x[:, d:]], axis=1)
            refl_lam = np.concatenate([-lam[:, :d], lam[:, d:]], axis=1)
            r1 = weinstein_kernel(params, lam, refl_x)
            r2 = weinstein_kernel(params, refl_lam, x)
            ones = weinstein_kernel(params, lam, np.zeros((n, d + 1)))
            worst_id = max(
                worst_id,
                float(np.max(np.abs(val - sym))),
                float(np.max(np.abs(r1 - r2))),
                float(np.max(np.abs(ones - 1.0))),
                float(np.max(np.abs(val)) - 1.0),
            )
    # second-order eigen-equation residual under step refinement
    alpha, lam_r = 1.0, 1.7

    def residual(h):
        r = np.arange(1, 2001) * h
        u = j_alpha(alpha, lam_r * r)
        d2 = (u[2:] - 2 * u[1:-1] + u[:-2]) / h ** 2
        d1 = (u[2:] - u[:-2]) / (2 * h)
        res = d2 + (2 * alpha + 1) / r[1:-1] * d1 + lam_r ** 2 * u[1:-1]
        return float(np.max(np.abs(res[200:1200])))

    ratio = residual(2e-3) / residual(1e-3)
    ok = worst_id <= 1e-12 and 3.0 <= ratio <= 5.0
    report_line(2, ok,
                f"kernel identity defect {worst_id:.2e} (<=1e-12), "
                f"eigen-residual refinement ratio {ratio:.2f} (~4)")


def test_criterion_03_gaussian_sharpness():
    worst = 0.0
    for d in (1, 2):
        n = 128 if d == 1 else 64
        for alpha in (0.5, 1.0, 2.0):
            for s in (0.5, 1.0, 2.0):
                params = WeinsteinParams(d=d, alpha=alpha)
                L = 7.5 * s
                R = 7.5 * max(s, 1.0 / s)
                grid = build_grid(params, (L,) * d + (R,), (n,) * (d + 1),
                                  radial_scheme="collocation")
                plan = make_plan(grid)
                cert = heisenberg_certificate(plan, gaussian_field(grid, scale=s))
                worst = max(worst, abs(cert.ratio - 1.0))
    ok = worst <= 1e-4
    report_line(3, ok, f"max |ratio - 1| over (d, alpha, s) sweep "
                       f"{worst:.2e} (<=1e-4)")


def test_criterion_04_admissibility_oracle():
    from scipy.integrate import quad

    # full-line closed form: integral of 2 u exp(-u^2) du over (0, inf) = 1
    full, quad_err = quad(lambda u: 2 * u * math.exp(-u * u), 0, np.inf)
    sg = build_sigma_grid(1e-2, 1e2, 128)
    bump = BumpProfile(1)
    worst = 0.0
    for radius in np.geomspace(0.1, 8.0, 25):
        q = radial_admissibility_quadrature(bump, sg, radius)
        tail = bump.tail_mass(1e-2 * radius, 1e2 * radius)
        worst = max(worst, abs(q + tail - 1.0))
    ok = worst <= 1e-8 and abs(full - 1.0) <= 1e-10
    report_line(4, ok,
                f"squared-modulus dilation average defect {worst:.2e} "
                f"(<=1e-8) over sigma [1e-2, 1e2] x 128, radii [0.1, 8]; "
                f"closed form {full:.12f}")


def test_criterion_05_multiplier_plancherel():
    params = WeinsteinParams(d=1, alpha=0.5)
    grid = build_grid(params, (15.0, 15.0), (256, 256))
    plan = make_plan(grid)
    profile = make_admissible_radial(plan)
    defect = multiplier_plancherel_defect(
        multiplier_sweep(plan, profile, gaussian_field(grid)))
    ok = defect <= 1e-4
    report_line(5, ok, f"dilation-averaged norm identity defect "
                       f"{defect:.2e} (<=1e-4)")


def test_criterion_06_certificate_sweep():
    params = WeinsteinParams(d=1, alpha=0.5)
    grid = build_grid(params, (10.0, 10.0), (160, 160))
    plan = make_plan(grid)
    profile = make_admissible_radial(plan)
    rng = np.random.default_rng(60)
    fields = [gaussian_field(grid, scale=s) for s in (0.8, 1.0, 1.25)]
    fields += [random_bump(grid, rng) for _ in range(10)]
    exponents = ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0), (2.0, 2.0))
    n_instances = 0
    worst_ratio = 0.0
    worst_collapse = 0.0
    for f in fields:
        stats = multiplier_sweep(plan, profile, f, (1.0, 2.0))
        c31 = multiplier_heisenberg_certificate(stats)
        assert not c31.hypothesis_violated
        for beta, delta in exponents:
            cert = general_heisenberg_certificate(stats, beta, delta)
            n_instances += 1
            worst_ratio = max(worst_ratio, cert.ratio)
            if (beta, delta) == (1.0, 1.0):
                worst_collapse = max(worst_collapse,
                                     abs(cert.ratio - c31.ratio))
    ok = n_instances >= 50 and worst_ratio <= 1.0 + 1e-3 \
        and worst_collapse <= 1e-12
    report_line(6, ok,
                f"{n_instances} instances, max ratio {worst_ratio:.4f} "
                f"(<=1+1e-3), (1,1) collapse {worst_collapse:.2e} (<=1e-12)")


def test_criterion_07_kernel_representation():
    # executable integral-kernel identity on the small 16x16 instance
    params = WeinsteinParams(d=1, alpha=1.0)
    grid16 = build_grid(params, (5.6, 5.6), (16, 16))
    plan16 = make_plan(grid16)
    prof16 = make_admissible_radial(plan16)
    f16 = gaussian_field(grid16)
    w16 = plan16.weights_in
    t_spec = apply_multiplier(plan16, prof16, 1.0, f16)
    t_kern = apply_multiplier_kernel(plan16, prof16, 1.0, f16)
    agree16 = norm_p(t_spec - t_kern, w16, 2) / norm_p(t_spec, w16, 2)

    # dilation-scale sweep with the smooth admissible family (its operator
    # output decays fast enough for the box to hold both routes)
    params_h = WeinsteinParams(d=1, alpha=0.5)
    grid32 = build_grid(params_h, (8.0, 8.0), (32, 32))
    plan32 = make_plan(grid32)
    prof32 = make_admissible_radial(plan32, family="quadratic_bump")
    f32 = gaussian_field(grid32)
    w32 = plan32.weights_in
    agree_sweep = 0.0
    for s in (0.9, 1.1, 1.25):
        a = apply_multiplier(plan32, prof32, s, f32)
        b = apply_multiplier_kernel(plan32, prof32, s, f32)
        agree_sweep = max(agree_sweep, norm_p(a - b, w32, 2) / norm_p(a, w32, 2))

    # pointwise bound with the sigma^{-deg} prefactor on random regions
    rng = np.random.default_rng(7)
    m1 = norm_p(prof16.symbol, plan16.weights_out, 1)
    deg = params.homogeneity_degree
    bound_ok = True
    n2 = norm_p(f16, w16, 2)
    for s in (0.8, 1.0, 1.5):
        for _ in range(4):
            mask = rng.uniform(size=grid16.shape) < rng.uniform(0.2, 0.9)
            measure = float(w16.weights[mask].sum())
            out = apply_multiplier_kernel(plan16, prof16, s, f16,
                                          region_mask=mask)
            bound = s ** (-deg) * m1 * n2 * math.sqrt(measure)
            bound_ok &= bool(np.max(np.abs(out.values)) <= bound * (1 + 1e-10))

    ok = agree16 <= 1e-4 and agree_sweep <= 1e-4 and bound_ok
    report_line(7, ok,
                f"kernel-vs-spectral 16x16 {agree16:.2e}, scale sweep "
                f"{agree_sweep:.2e} (<=1e-4), pointwise bound "
                f"{'held' if bound_ok else 'violated'}")


def test_criterion_08_concentration_certificates():
    params = WeinsteinParams(d=1, alpha=0.5)
    grid = build_grid(params, (12.0, 12.0), (192, 192))
    plan = make_plan(grid)
    profile = make_admissible_radial(plan)
    f = gaussian_field(grid)
    stats = multiplier_sweep(plan, profile, f)
    w = plan.weights_in
    n_total, n_vacuous, all_ok, corollary_ok = 0, 0, True, True
    for q in (0.5, 0.9, 0.99):
        omega = ball_region_for_mass(f, w, q)
        for floor in (0.5, 1.0, 2.0):
            cert = donoho_stark_certificate(stats, omega, floor)
            n_total += 1
            n_vacuous += int(cert.vacuous)
            all_ok &= cert.satisfied and not cert.hypothesis_violated
            corollary_ok &= cert.flags["corollary_dominates"] \
                and cert.flags["corollary_satisfied"]
    ok = all_ok and corollary_ok and (n_total - n_vacuous) >= 3
    report_line(8, ok,
                f"{n_total} instances ({n_vacuous} vacuous, flagged), all "
                f"satisfied, corollary bound dominates on every instance")


def test_criterion_09_translation_convolution():
    params = WeinsteinParams(d=1, alpha=0.5)
    grid = build_grid(params, (8.0, 8.0), (128, 128))
    plan = make_plan(grid)
    w = plan.weights_in
    rule = TranslationRule(alpha=0.5)
    f = gaussian_field(grid)

    # spectral characterization as an identity of the implementation
    x = np.array([0.7, 1.1])
    ts = translate_spectral(plan, f, x)
    mult = weinstein_kernel(params, np.array([-x[0], x[1]]),
                            plan.grid_out.points)
    ident = float(np.max(np.abs(
        forward(plan, ts).values
        - mult.reshape(grid.shape) * forward(plan, f).values)))

    # direct vs spectral translation (grid-aligned euclid component; the
    # euclid linear-interpolation budget is quadratic in the step otherwise)
    step = grid.euclid_spacings()[0]
    dvs = 0.0
    for xt in (np.array([8 * step, 0.9]), np.array([-20 * step, 1.7]),
               np.array([0.0, 0.45])):
        td = translate_direct(rule, f, xt)
        tsx = translate_spectral(plan, f, xt)
        dvs = max(dvs, norm_p(td - tsx, w, 2) / norm_p(tsx, w, 2))

    # norm contraction with 1e-10 slack on sign-mixing fields
    signed = Field(grid=grid, values=f.values * np.cos(1.7 * grid.radius_sq))
    contraction_ok = True
    for xt in (np.array([8 * step, 0.8]), np.array([-16 * step, 2.0])):
        td = translate_direct(rule, signed, xt)
        for p in (1, 2):
            contraction_ok &= bool(
                norm_p(td, w, p) <= norm_p(signed, w, p) * (1 + 1e-10))

    # convolution identities on a box holding the convolution
    wide = build_grid(params, (13.0, 13.0), (128, 128))
    wplan = make_plan(wide)
    ww = wplan.weights_in
    wwf = wplan.weights_out
    a = gaussian_field(wide)
    b = Field(grid=wide, values=gaussian_field(wide, scale=1.2).values
              * np.cos(0.9 * wide.radius_sq))
    c = convolve(wplan, a, b)
    prod = Field(grid=wplan.grid_out,
                 values=forward(wplan, a).values * forward(wplan, b).values)
    conv_thm = float(np.max(np.abs(forward(wplan, c).values - prod.values)))
    norm_id = abs(norm_p(c, ww, 2) - norm_p(prod, wwf, 2)) / norm_p(prod, wwf, 2)
    young_ok = True
    pos_b = gaussian_field(wide, scale=1.2)
    c_pos = convolve(wplan, a, pos_b)
    young_ok &= bool(norm_p(c_pos, ww, 1)
                     <= norm_p(a, ww, 1) * norm_p(pos_b, ww, 1) * (1 + 1e-10))
    c_signed = convolve(wplan, a, b)
    young_ok &= bool(norm_p(c_signed, ww, 1)
                     <= norm_p(a, ww, 1) * norm_p(b, ww, 1) * (1 + 1e-10))
    young_ok &= bool(norm_p(c_signed, ww, 2)
                     <= norm_p(a, ww, 2) * norm_p(b, ww, 1) * (1 + 1e-10))

    ok = ident <= 1e-10 and dvs <= 1e-5 and contraction_ok \
        and conv_thm <= 1e-10 and norm_id <= 1e-10 and young_ok
    report_line(9, ok,
                f"spectral identity {ident:.2e} (<=1e-10), direct-vs-spectral "
                f"{dvs:.2e} (<=1e-5), contraction/young slack 1e-10 "
                f"{'held' if contraction_ok and young_ok else 'violated'}, "
                f"convolution identities {max(conv_thm, norm_id):.2e} (<=1e-10)")


def test_criterion_10_determinism():
    config = {
        "params": {"d": 1, "alpha": [0.5]},
        "grid": {"extents": [7.0, 7.0], "counts": [48, 48],
                 "radial_scheme": "collocation"},
        "multiplier": {"family": "gaussian_bump"},
        "test_functions": {"gaussian_scales": [1.0], "random_bumps": 2},
        "certificates": ["heisenberg", "multiplier_heisenberg"],
        "tolerances": {"multiplier_plancherel": 1e-2},
        "seed": 4242,
    }
    b1 = report_json_bytes(run(dict(config)), strip_timings=True)
    b2 = report_json_bytes(run(dict(config)), strip_timings=True)
    ok = b1 == b2
    report_line(10, ok, f"two runs, identical config+seed: "
                        f"{len(b1)} bytes, byte-identical={ok}")
