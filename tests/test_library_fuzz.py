"""Scalar inputs the library's public entry points must refuse.

Each row of ``REFUSED`` names one scalar argument of one public entry point
and the values it must refuse: NaN, +-inf, 0, -1 and non-whole counts,
where the argument's range excludes them.  Every call must raise a
ValueError or an ArithmeticError subclass (the numeric guards
MeasureRangeError and IntegrabilityGuardError are one or the other).  None
may raise anything else, IndexError and TypeError among them, and none may
return at all, which rules out a non-finite result.  A row with a fourth
entry also requires the message to match it, so that the refusal names the
argument instead of a later guard's symptom.  Every name of
``weinstein.__all__`` has a row or is ``EXEMPT``.  The config-side
counterpart is ``tests/test_config_fuzz.py``.
"""

import math
import re
from types import SimpleNamespace

import numpy as np
import pytest

import weinstein
from weinstein import (BumpProfile, TranslationRule, WeinsteinParams,
                       apply_multiplier, apply_multiplier_kernel,
                       ball_region_for_mass, build_grid, build_sigma_grid,
                       dilate_symbol, dispersion, donoho_stark_certificate,
                       gaussian_field, general_heisenberg_certificate,
                       heisenberg_certificate, j_alpha, kernel_psi,
                       make_admissible_radial, make_plan,
                       multiplier_heisenberg_certificate, multiplier_sweep,
                       norm_p, translate_direct, translate_spectral,
                       weinstein_kernel)
from weinstein._accel import si

NAN, INF = math.nan, math.inf
NON_FINITE = (NAN, INF, -INF)
NOT_POSITIVE = (0.0, -1.0)
BELOW_ONE = (0.5, 0.0, -1.0, NAN, INF, -INF)
BAD_COUNTS = (8.7, 9.9, NAN, INF, -INF, 0, -1)
BAD_ALPHAS = (-0.5, -1.0, NAN, INF, -INF)
# the certificate gates slack and admissibility_tol, and the tolerance of
# make_admissible_radial, take what their config keys take
BAD_GATES = NON_FINITE + NOT_POSITIVE

PARAMS = WeinsteinParams(d=1, alpha=0.5)


@pytest.fixture(scope="module")
def s():
    """A 16x16 plan with its measure, a Gaussian, a symbol and their sweep."""
    grid = build_grid(PARAMS, (4.0, 4.0), (16, 16))
    plan = make_plan(grid)
    f = gaussian_field(grid)
    profile = make_admissible_radial(plan)
    return SimpleNamespace(
        grid=grid, plan=plan, w=plan.weights_in, f=f, profile=profile,
        stats=multiplier_sweep(plan, profile, f, (0.0, 1.0)),
        ball=grid.radius_sq <= 4.0, rule=TranslationRule(0.5))


def _gate(name):
    """Rows for one certificate gate ``name`` on every certificate that
    takes it."""
    calls = {
        "heisenberg_certificate": lambda s, kw: heisenberg_certificate(
            s.plan, s.f, **kw),
        "multiplier_heisenberg_certificate":
            lambda s, kw: multiplier_heisenberg_certificate(s.stats, **kw),
        "general_heisenberg_certificate":
            lambda s, kw: general_heisenberg_certificate(s.stats, 1.0, 1.0,
                                                         **kw),
        "donoho_stark_certificate": lambda s, kw: donoho_stark_certificate(
            s.stats, s.ball, 1.0, **kw),
    }
    return [(f"{cert}({name})",
             lambda s, v, call=call: call(s, {name: v}), BAD_GATES,
             f"^{name} must be positive and finite")
            for cert, call in calls.items()
            if name == "slack" or cert != "heisenberg_certificate"]


# (argument, call taking the fixture and the value, values it must refuse,
#  optionally a pattern the refusal's message must match)
REFUSED = [
    ("si(z)", lambda s, v: si(v), NON_FINITE),
    ("si([1, z])", lambda s, v: si([1.0, v]), NON_FINITE),
    ("j_alpha(alpha)", lambda s, v: j_alpha(v, 1.0),
     (-0.5, -1.0, NAN, INF, -INF)),
    ("j_alpha(x)", lambda s, v: j_alpha(0.5, v), NON_FINITE),
    ("WeinsteinParams(alpha)", lambda s, v: WeinsteinParams(1, v),
     BAD_ALPHAS, "alpha out of range"),
    ("TranslationRule(alpha)", lambda s, v: TranslationRule(v), BAD_ALPHAS,
     "alpha out of range"),
    ("WeinsteinParams(d)", lambda s, v: WeinsteinParams(v, 0.5),
     (1.5, 0, -1, NAN, INF)),
    ("build_grid(extent)", lambda s, v: build_grid(PARAMS, (4.0, v), (8, 8)),
     NON_FINITE + NOT_POSITIVE),
    ("build_grid(count)",
     lambda s, v: build_grid(PARAMS, (4.0, 4.0), (8, v)), BAD_COUNTS),
    ("build_sigma_grid(sigma_min)",
     lambda s, v: build_sigma_grid(v, 2.0, 8), NON_FINITE + NOT_POSITIVE),
    ("build_sigma_grid(sigma_max)", lambda s, v: build_sigma_grid(1.0, v, 8),
     NON_FINITE + NOT_POSITIVE + (1.0,)),
    ("build_sigma_grid(count)", lambda s, v: build_sigma_grid(1.0, 2.0, v),
     (2.9, 1) + BAD_COUNTS),
    ("gaussian_field(scale)", lambda s, v: gaussian_field(s.grid, v),
     (NAN, INF, 0.0)),
    ("norm_p(p)", lambda s, v: norm_p(s.f, s.w, v),
     (0.5, 0.0, -1.0, NAN, -INF)),
    ("dispersion(beta)", lambda s, v: dispersion(s.f, s.w, v), BELOW_ONE),
    ("dilate_symbol(sigma)", lambda s, v: dilate_symbol(s.profile, v),
     NON_FINITE + NOT_POSITIVE),
    ("apply_multiplier(sigma)",
     lambda s, v: apply_multiplier(s.plan, s.profile, v, s.f),
     NON_FINITE + NOT_POSITIVE, "dilation scale must be positive"),
    ("apply_multiplier_kernel(sigma)",
     lambda s, v: apply_multiplier_kernel(s.plan, s.profile, v, s.f),
     NON_FINITE + NOT_POSITIVE, "dilation scale must be positive"),
    ("kernel_psi(sigma)",
     lambda s, v: kernel_psi(s.profile, s.plan, v, [0.0, 1.0], [0.0, 1.0]),
     NON_FINITE + NOT_POSITIVE, "dilation scale must be positive"),
    ("kernel_psi(x)",
     lambda s, v: kernel_psi(s.profile, s.plan, 1.0, [v, 1.0], [0.0, 1.0]),
     NON_FINITE, "kernel points must be finite"),
    ("kernel_psi(y)",
     lambda s, v: kernel_psi(s.profile, s.plan, 1.0, [0.0, 1.0], [1.0, v]),
     NON_FINITE, "kernel points must be finite"),
    ("weinstein_kernel(lam)",
     lambda s, v: weinstein_kernel(PARAMS, [v, 0.0], [1.0, 1.0]),
     NON_FINITE, "kernel points must be finite"),
    ("weinstein_kernel(x)",
     lambda s, v: weinstein_kernel(PARAMS, [1.0, 1.0], [0.0, v]),
     NON_FINITE, "kernel points must be finite"),
    ("BumpProfile(p)", lambda s, v: BumpProfile(v),
     (2.0, 1.0, True, 0, 3, NAN, INF), "origin power is 1 or 2"),
    ("multiplier_sweep(betas)",
     lambda s, v: multiplier_sweep(s.plan, s.profile, s.f, (0.0, v)),
     NON_FINITE + (-1.0,), "beta must be finite and >= 0"),
    ("make_admissible_radial(tolerance)",
     lambda s, v: make_admissible_radial(s.plan, tolerance=v), BAD_GATES,
     "^tolerance must be positive and finite"),
    *_gate("slack"),
    *_gate("admissibility_tol"),
    ("make_plan(normalization)", lambda s, v: make_plan(s.grid, v),
     (NAN, "unitary"), "unknown normalization"),
    ("translate_direct(x)",
     lambda s, v: translate_direct(s.rule, s.f, [0.0, v]),
     NON_FINITE + (-1.0,), "outside the grid box"),
    ("translate_spectral(x)",
     lambda s, v: translate_spectral(s.plan, s.f, [v, 1.0]), NON_FINITE,
     "outside the grid box"),
    ("general_heisenberg_certificate(beta)",
     lambda s, v: general_heisenberg_certificate(s.stats, v, 1.0), BELOW_ONE),
    ("general_heisenberg_certificate(delta)",
     lambda s, v: general_heisenberg_certificate(s.stats, 1.0, v), BELOW_ONE),
    ("donoho_stark_certificate(floor / sigma_min)",
     lambda s, v: donoho_stark_certificate(
         s.stats, s.ball, v * s.profile.sigma_grid.sigma_min),
     NON_FINITE + NOT_POSITIVE + (1.0,)),
    ("ball_region_for_mass(fraction)",
     lambda s, v: ball_region_for_mass(s.f, s.w, v),
     NON_FINITE + NOT_POSITIVE + (2.0, 1.0 + 1e-12)),
]

CASES = [pytest.param(call, value, match[0] if match else None,
                      id=f"{name}={value!r}")
         for name, call, values, *match in REFUSED for value in values]

# Public names with no row: the error types, the plain containers (built
# and checked by the entry points above), and the functions whose only
# arguments are fields, grids, plans, masks, profiles and sweeps (and
# direct_quadrature's bool ``inverse``).
EXEMPT = {
    "ConfigError", "GridMismatchError", "IntegrabilityGuardError",
    "MeasureRangeError", "SigmaRangeError", "SizeGuardError",
    "Field", "Grid", "SigmaGrid", "WeightField", "MultiplierProfile",
    "SweepStats", "TransformPlan", "InequalityCertificate",
    "inner_product", "measure_weights", "normalization_constant",
    "admissibility_defect", "multiplier_densities",
    "multiplier_plancherel_defect", "frequency_grid", "forward", "inverse",
    "direct_quadrature", "convolve", "convolve_direct",
    "concentration_defect",
}


@pytest.mark.parametrize("call, value, match", CASES)
def test_entry_point_refuses(s, call, value, match):
    try:
        out = call(s, value)
    except (ValueError, ArithmeticError) as exc:
        if match is not None and not re.search(match, str(exc)):
            pytest.fail(f"refused {value!r} with {exc!r}, which does not "
                        f"match {match!r}")
        return
    pytest.fail(f"accepted {value!r} and returned {out!r:.80}")


def test_every_public_name_has_a_row_or_is_exempt():
    rows = {name.split("(")[0] for name, *_ in REFUSED}
    public = set(weinstein.__all__)
    assert public - rows - EXEMPT == set()
    # an exemption names a public entry point that has no row
    assert EXEMPT <= public and not EXEMPT & rows


def test_refused_inputs_leave_valid_ones_working(s):
    # the guards refuse only the values above: the neighbours they bound
    # still compute finite results
    assert math.isfinite(si(1e6)) and math.isfinite(j_alpha(0.5, 1e3))
    assert build_grid(PARAMS, (4.0, 4.0), (8.0, 9)).shape == (8, 9)
    assert len(build_sigma_grid(1.0, 2.0, 3.0)) == 3
    for p in (1, 2.5, INF):
        assert math.isfinite(norm_p(s.f, s.w, p))
    assert math.isfinite(dispersion(s.f, s.w, 1.0))
    assert ball_region_for_mass(s.f, s.w, 1.0).all()
    assert np.any(ball_region_for_mass(s.f, s.w, 1e-300))
    assert WeinsteinParams(1, 1e3).alpha == TranslationRule(1e3).alpha
    for gate in (1e-300, 1e300):
        assert heisenberg_certificate(s.plan, s.f, slack=gate).slack == gate
        for cert in (multiplier_heisenberg_certificate(
                         s.stats, slack=gate, admissibility_tol=gate),
                     general_heisenberg_certificate(
                         s.stats, 1.0, 1.0, slack=gate,
                         admissibility_tol=gate),
                     donoho_stark_certificate(
                         s.stats, s.ball, 1.0, slack=gate,
                         admissibility_tol=gate)):
            assert math.isfinite(cert.ratio) and cert.slack == gate
            assert cert.hypothesis_violated == (gate < 1.0)
    assert len(make_admissible_radial(s.plan, tolerance=1e-3).sigma_grid) \
        <= len(s.profile.sigma_grid)
    assert abs(weinstein_kernel(PARAMS, [1e3, 2.0], [1e300, 0.5])) <= 1.0
    assert math.isfinite(abs(kernel_psi(s.profile, s.plan, 1e-3, [4.0, 4.0],
                                        [0.0, 0.0])))
    assert BumpProfile(1)(1.0) > 0 and BumpProfile(2)(1.0) > 0
    sweep = multiplier_sweep(s.plan, s.profile, s.f, (0.0, 0.5, 2.5))
    assert np.all(np.isfinite(sweep.moments))
