"""Scalar inputs the library's public entry points must refuse.

Each row of ``REFUSED`` names one scalar argument of one public entry point
and the values it must refuse: NaN, +-inf, 0, -1 and non-whole counts,
where the argument's range excludes them.  Every call must raise a
ValueError or an ArithmeticError subclass (the numeric guards
MeasureRangeError and IntegrabilityGuardError are one or the other).  None
may raise anything else, IndexError and TypeError among them, and none may
return at all, which rules out a non-finite result.  The config-side
counterpart is ``tests/test_config_fuzz.py``.
"""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from weinstein import (WeinsteinParams, ball_region_for_mass, build_grid,
                       build_sigma_grid, dilate_symbol, dispersion,
                       donoho_stark_certificate, gaussian_field,
                       general_heisenberg_certificate, j_alpha,
                       make_admissible_radial, make_plan, multiplier_sweep,
                       norm_p)
from weinstein._accel import si

NAN, INF = math.nan, math.inf
NON_FINITE = (NAN, INF, -INF)
NOT_POSITIVE = (0.0, -1.0)
BELOW_ONE = (0.5, 0.0, -1.0, NAN, INF, -INF)
BAD_COUNTS = (8.7, 9.9, NAN, INF, -INF, 0, -1)

PARAMS = WeinsteinParams(d=1, alpha=0.5)


@pytest.fixture(scope="module")
def s():
    """A 16x16 plan with its measure, a Gaussian, a symbol and their sweep."""
    grid = build_grid(PARAMS, (4.0, 4.0), (16, 16))
    plan = make_plan(grid)
    f = gaussian_field(grid)
    profile = make_admissible_radial(plan)
    return SimpleNamespace(
        grid=grid, w=plan.weights_in, f=f, profile=profile,
        stats=multiplier_sweep(plan, profile, f, (0.0, 1.0)),
        ball=grid.radius_sq <= 4.0)


# (argument, call taking the fixture and the value, values it must refuse)
REFUSED = [
    ("si(z)", lambda s, v: si(v), NON_FINITE),
    ("si([1, z])", lambda s, v: si([1.0, v]), NON_FINITE),
    ("j_alpha(alpha)", lambda s, v: j_alpha(v, 1.0),
     (-0.5, -1.0, NAN, INF, -INF)),
    ("j_alpha(x)", lambda s, v: j_alpha(0.5, v), NON_FINITE),
    ("WeinsteinParams(alpha)", lambda s, v: WeinsteinParams(1, v),
     (-0.5, -1.0, NAN, -INF)),
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

CASES = [pytest.param(call, value, id=f"{name}={value!r}")
         for name, call, values in REFUSED for value in values]


@pytest.mark.parametrize("call, value", CASES)
def test_entry_point_refuses(s, call, value):
    try:
        out = call(s, value)
    except (ValueError, ArithmeticError):
        return
    pytest.fail(f"accepted {value!r} and returned {out!r:.80}")


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
