"""Config-driven experiment runner: grids, test functions, multiplier
profiles, certificate suites, oracle cross-checks, machine-readable reports.

A single JSON document configures one run.  All randomness comes from one
seeded generator recorded in the report, so identical config + seed give
byte-identical reports up to the timing section.
"""

import dataclasses
import json
import math
import time
from dataclasses import dataclass

import numpy as np

from .core import (MIN_AXIS_POINTS, NORMALIZATION_KINDS, RADIAL_SCHEMES, Field,
                   WeinsteinParams, build_grid, gaussian_field, norm_p)
from .errors import ConfigError
from .multiplier import (ADMISSIBILITY_VARIANTS, PROFILE_FAMILIES,
                         apply_multiplier, apply_multiplier_kernel,
                         make_admissible_radial,
                         multiplier_plancherel_defect, multiplier_sweep,
                         radial_admissibility_quadrature)
from .transform import direct_quadrature, forward, inverse, make_plan
from .uncertainty import (ball_region_for_mass, donoho_stark_certificate,
                          general_heisenberg_certificate,
                          heisenberg_certificate,
                          multiplier_heisenberg_certificate,
                          sigma_halfline_region)

KNOWN_CERTIFICATES = (
    "heisenberg",
    "multiplier_heisenberg",
    "general_heisenberg",
    "donoho_stark",
)

DEFAULT_TOLERANCES = {
    "certificate_slack": 1e-3,
    "plancherel": 1e-6,
    "roundtrip": 1e-6,
    "fast_vs_direct": 1e-8,
    "multiplier_plancherel": 1e-4,
    "admissibility": 1e-3,
}

CSV_HEADER = "name,d,alpha,lhs,rhs,ratio,satisfied,slack,input_digest"


@dataclass(frozen=True)
class ExperimentConfig:
    d: int
    alphas: tuple
    extents: tuple
    counts: tuple
    radial_scheme: str
    normalization: object
    multiplier: dict
    gaussian_scales: tuple
    random_bumps: int
    certificates: tuple
    general_exponents: tuple
    donoho_stark: dict
    tolerances: dict
    seed: int

    @staticmethod
    def from_dict(doc):
        def need(section, key, desc):
            if not isinstance(section, dict) or key not in section:
                raise ConfigError(f"missing config field: {desc}")
            return section[key]

        def optional_section(key):
            section = doc.get(key, {})
            if not isinstance(section, dict):
                raise ConfigError(f"{key} must be a JSON object")
            return section

        def real_list(value, desc, ok=lambda v: True):
            if not isinstance(value, (list, tuple)) \
                    or not all(_real(v) and ok(v) for v in value):
                raise ConfigError(desc)
            return [float(v) for v in value]

        if not isinstance(doc, dict):
            raise ConfigError("config document must be a JSON object")
        params = need(doc, "params", "params")
        d = need(params, "d", "params.d")
        if not _whole(d) or d < 1:
            raise ConfigError("params.d must be a positive integer")
        alphas = params.get("alpha", 0.5)
        if not isinstance(alphas, (list, tuple)):
            alphas = [alphas]
        if not alphas or not all(_real(a) and a > -0.5 for a in alphas):
            raise ConfigError("params.alpha entries must be numbers > -1/2")
        grid = need(doc, "grid", "grid")
        extents = need(grid, "extents", "grid.extents")
        counts = need(grid, "counts", "grid.counts")
        if not isinstance(extents, (list, tuple)) or len(extents) != d + 1 \
                or not all(_real(e) and e > 0 for e in extents):
            raise ConfigError("grid.extents: need d+1 entries, all positive")
        if not isinstance(counts, (list, tuple)) or len(counts) != d + 1 \
                or not all(_whole(n) and n >= MIN_AXIS_POINTS for n in counts):
            raise ConfigError("grid.counts: need d+1 entries, all whole "
                              f"numbers >= {MIN_AXIS_POINTS}")
        scheme = grid.get("radial_scheme", "uniform-offset")
        if not isinstance(scheme, str) or scheme not in RADIAL_SCHEMES:
            raise ConfigError(f"grid.radial_scheme: unknown scheme {scheme!r}")
        normalization = doc.get("normalization", "self-reciprocal")
        if normalization not in NORMALIZATION_KINDS \
                and not (_real(normalization) and normalization > 0):
            raise ConfigError(f"normalization: unknown kind {normalization!r}")
        tf = optional_section("test_functions")
        scales = tuple(real_list(
            tf.get("gaussian_scales", [1.0]),
            "test_functions.gaussian_scales must be a list of positive numbers",
            lambda s: s > 0))
        bumps = tf.get("random_bumps", 0)
        if not _whole(bumps) or bumps < 0:
            raise ConfigError("test_functions.random_bumps must be a whole "
                              "number >= 0")
        certs = doc.get("certificates", ["heisenberg"])
        if not isinstance(certs, (list, tuple)):
            raise ConfigError("certificates must be a list of names")
        if not certs:
            raise ConfigError("certificates: select at least one certificate")
        for c in certs:
            if c not in KNOWN_CERTIFICATES:
                raise ConfigError(
                    f"certificates: unknown certificate {c!r} "
                    f"(known: {', '.join(KNOWN_CERTIFICATES)})"
                )
        exponents = doc.get("general_exponents",
                            [[1, 1], [2, 1], [1, 2], [2, 2]])
        if not isinstance(exponents, (list, tuple)) or not all(
                isinstance(e, (list, tuple)) and len(e) == 2
                and all(_real(v) and v >= 1 for v in e) for e in exponents):
            raise ConfigError("general_exponents entries must be [beta, "
                              "delta] pairs of numbers >= 1")
        exponents = tuple((float(b), float(dd)) for b, dd in exponents)
        ds = optional_section("donoho_stark")
        ds_conf = {
            "mass_fractions": real_list(
                ds.get("mass_fractions", [0.9, 0.99]),
                "donoho_stark.mass_fractions must be a list of numbers in "
                "(0, 1]", lambda q: 0 < q <= 1),
            "sigma_floors": real_list(
                ds.get("sigma_floors", [1.0, 2.0]),
                "donoho_stark.sigma_floors must be a list of numbers"),
        }
        tol = dict(DEFAULT_TOLERANCES)
        tol.update(optional_section("tolerances"))
        mult = optional_section("multiplier")
        mult_tol = mult.get("tolerance", 1e-6)
        if not all(_real(v) and v > 0 for v in [*tol.values(), mult_tol]):
            raise ConfigError("tolerances and multiplier.tolerance must all "
                              "be positive numbers")
        family = mult.get("family", "gaussian_bump")
        if not isinstance(family, str) or family not in PROFILE_FAMILIES:
            raise ConfigError(f"multiplier.family: unknown family {family!r}")
        variant = mult.get("variant", "modulus_squared")
        if variant not in ADMISSIBILITY_VARIANTS:
            raise ConfigError(f"multiplier.variant: unknown variant {variant!r}")
        sigma_range = mult.get("sigma_range")
        if sigma_range is not None and not (
                isinstance(sigma_range, (list, tuple)) and len(sigma_range) == 2
                and all(_real(s) for s in sigma_range)
                and 0 < sigma_range[0] < sigma_range[1]):
            raise ConfigError("multiplier.sigma_range must be [lo, hi] with "
                              "0 < lo < hi")
        sigma_count = mult.get("sigma_count")
        if sigma_count is not None and not (_whole(sigma_count)
                                            and sigma_count >= 2):
            raise ConfigError("multiplier.sigma_count must be a whole number "
                              ">= 2")
        seed = doc.get("seed", 0)
        if not _whole(seed) or seed < 0:
            raise ConfigError("seed must be a whole number >= 0")
        return ExperimentConfig(
            d=int(d), alphas=tuple(float(a) for a in alphas),
            extents=tuple(float(e) for e in extents),
            counts=tuple(int(n) for n in counts),
            radial_scheme=scheme, normalization=normalization,
            multiplier={
                "family": family,
                "variant": variant,
                "sigma_range": sigma_range,
                "sigma_count": sigma_count,
                "tolerance": float(mult_tol),
            },
            gaussian_scales=scales, random_bumps=int(bumps),
            certificates=tuple(certs), general_exponents=exponents,
            donoho_stark=ds_conf, tolerances=tol, seed=int(seed),
        )


def _real(v):
    """True for a finite int or float (bool excluded)."""
    return isinstance(v, (int, float)) and not isinstance(v, bool) \
        and math.isfinite(v)


def _whole(v):
    """True for a finite number with no fractional part (bool excluded)."""
    return _real(v) and v == int(v)


def _random_bump(grid, rng):
    """A random even-in-the-last-variable superposition of Gaussians."""
    pts = grid.points
    d = grid.params.d
    vals = np.zeros(pts.shape[0], dtype=np.complex128)
    for _ in range(rng.integers(1, 4)):
        width = rng.uniform(0.6, 1.6)
        center_e = rng.uniform(-1.5, 1.5, size=d)
        center_r = rng.uniform(0.0, 2.0)
        amp = rng.uniform(0.3, 1.0) * np.exp(2j * np.pi * rng.uniform())
        de = np.sum((pts[:, :d] - center_e) ** 2, axis=1)
        r = pts[:, d]
        rad = np.exp(-0.5 * (r - center_r) ** 2 / width ** 2) \
            + np.exp(-0.5 * (r + center_r) ** 2 / width ** 2)
        vals += amp * np.exp(-0.5 * de / width ** 2) * rad
    return Field(grid=grid, values=vals.reshape(grid.shape))


def _self_tests(plan, profile, cfg, timings):
    """Oracle-consistency block: transform Plancherel/round-trip, fast vs
    dense quadrature on a small instance, multiplier Plancherel, 1-D
    admissibility oracle."""
    t0 = time.perf_counter()
    f = gaussian_field(plan.grid_in)
    F = forward(plan, f)
    n_in = norm_p(f, plan.weights_in, 2)
    n_out = norm_p(F, plan.weights_out, 2)
    plancherel = abs(n_out ** 2 - n_in ** 2) / n_in ** 2
    back = inverse(plan, F)
    roundtrip = float(np.max(np.abs(back.values - f.values)))

    params = plan.grid_in.params
    small_counts = tuple(min(n, 12 if params.d >= 2 else 16) for n in plan.grid_in.shape)
    small_grid = build_grid(params, plan.grid_in.euclid_halfwidths
                            + (plan.grid_in.radial_extent,), small_counts,
                            radial_scheme=plan.grid_in.radial_scheme)
    small_plan = make_plan(small_grid, normalization=plan.normalization)
    sf = gaussian_field(small_grid)
    fast = forward(small_plan, sf)
    dense = direct_quadrature(small_plan, sf)
    wsm = small_plan.weights_out
    fast_vs_direct = norm_p(fast - dense, wsm, 2) / norm_p(fast, wsm, 2)

    small_profile = make_admissible_radial(small_plan,
                                           family=cfg.multiplier["family"])
    kern = apply_multiplier_kernel(small_plan, small_profile, 1.0, sf)
    spec = apply_multiplier(small_plan, small_profile, 1.0, sf)
    kernel_vs_spectral = norm_p(kern - spec, small_plan.weights_in, 2) \
        / norm_p(spec, small_plan.weights_in, 2)

    mp_defect = multiplier_plancherel_defect(plan, profile, f)
    quad = radial_admissibility_quadrature(profile.radial_profile,
                                           profile.sigma_grid, 1.0,
                                           q=profile.power)
    if profile.admissibility_variant == "modulus_squared":
        # the closed-form tail mass separates truncation from quadrature
        tail = profile.tail_mass(profile.sigma_grid.sigma_min,
                                 profile.sigma_grid.sigma_max)
        oracle_defect = abs(quad + tail - 1.0)
    else:
        oracle_defect = abs(quad - 1.0)
    timings["self_tests"] = time.perf_counter() - t0
    return {
        "plancherel_defect": plancherel,
        "roundtrip_max_abs": roundtrip,
        "fast_vs_direct_rel_l2": float(fast_vs_direct),
        "kernel_vs_spectral_rel_l2": float(kernel_vs_spectral),
        "multiplier_plancherel_defect": float(mp_defect),
        "admissibility_oracle_defect": float(oracle_defect),
        "sampled_admissibility_max_defect": profile.defect_report.max_defect,
        "sampled_admissibility_mean_defect": profile.defect_report.mean_defect,
    }


def run(config):
    """Execute the configured suites; returns the report dictionary.

    Order: grid, transform self-tests, multiplier admissibility, then
    certificates, per alpha value.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    rng = np.random.default_rng(config.seed)
    timings = {}
    per_alpha = []
    all_certs = []
    t_start = time.perf_counter()
    for alpha in config.alphas:
        params = WeinsteinParams(d=config.d, alpha=alpha)
        t0 = time.perf_counter()
        grid = build_grid(params, config.extents, config.counts,
                          radial_scheme=config.radial_scheme)
        plan = make_plan(grid, normalization=config.normalization)
        profile = make_admissible_radial(
            plan, family=config.multiplier["family"],
            sigma_range=config.multiplier["sigma_range"],
            sigma_count=config.multiplier["sigma_count"],
            tolerance=config.multiplier["tolerance"],
        )
        if config.multiplier["variant"] != profile.admissibility_variant:
            # same symbol and scales, admissibility read in the selected
            # variant (its defect is then measured, not assumed)
            profile = dataclasses.replace(
                profile, admissibility_variant=config.multiplier["variant"])
        timings[f"setup_alpha_{alpha:g}"] = time.perf_counter() - t0
        self_tests = _self_tests(plan, profile, config, timings)

        fields = [("gaussian_s%g" % s, gaussian_field(grid, scale=s))
                  for s in config.gaussian_scales]
        fields += [("bump_%d" % i, _random_bump(grid, rng))
                   for i in range(config.random_bumps)]

        slack = config.tolerances["certificate_slack"]
        adm_tol = config.tolerances["admissibility"]
        certs = []
        t0 = time.perf_counter()
        for name, f in fields:
            sweep = None
            needs_sweep = any(c in config.certificates for c in
                              ("multiplier_heisenberg", "general_heisenberg",
                               "donoho_stark"))
            if needs_sweep:
                sweep = multiplier_sweep(plan, profile, f)
            if "heisenberg" in config.certificates:
                certs.append(heisenberg_certificate(plan, f, slack=slack,
                                                    digest=name))
            if "multiplier_heisenberg" in config.certificates:
                certs.append(multiplier_heisenberg_certificate(
                    plan, profile, f, slack=slack, admissibility_tol=adm_tol,
                    digest=name, sweep=sweep))
            if "general_heisenberg" in config.certificates:
                for beta, delta in config.general_exponents:
                    certs.append(general_heisenberg_certificate(
                        plan, profile, f, beta, delta, slack=slack,
                        admissibility_tol=adm_tol,
                        digest=f"{name};beta={beta:g};delta={delta:g}",
                        sweep=sweep))
            if "donoho_stark" in config.certificates:
                for q in config.donoho_stark["mass_fractions"]:
                    for floor in config.donoho_stark["sigma_floors"]:
                        omega = ball_region_for_mass(f, plan.weights_in, q)
                        sig_reg = sigma_halfline_region(
                            profile.sigma_grid, grid, plan.weights_in, floor)
                        certs.append(donoho_stark_certificate(
                            plan, profile, f, omega, sig_reg, slack=slack,
                            admissibility_tol=adm_tol,
                            digest=f"{name};q={q:g};floor={floor:g}",
                            sweep=sweep))
        timings[f"certificates_alpha_{alpha:g}"] = time.perf_counter() - t0
        per_alpha.append({
            "alpha": alpha,
            "self_tests": self_tests,
            "certificates": [c.to_json() for c in certs],
        })
        all_certs.extend(certs)

    tol = config.tolerances
    self_ok = all(
        block["self_tests"]["plancherel_defect"] <= tol["plancherel"]
        and block["self_tests"]["roundtrip_max_abs"] <= tol["roundtrip"]
        and block["self_tests"]["fast_vs_direct_rel_l2"] <= tol["fast_vs_direct"]
        and block["self_tests"]["multiplier_plancherel_defect"]
        <= tol["multiplier_plancherel"]
        and block["self_tests"]["sampled_admissibility_mean_defect"]
        <= tol["admissibility"]
        for block in per_alpha
    )
    certs_ok = all(c.satisfied for c in all_certs if not c.hypothesis_violated)
    timings["total"] = time.perf_counter() - t_start
    report = {
        "config": _config_echo(config),
        "seed": config.seed,
        "runs": per_alpha,
        "self_tests_ok": self_ok,
        "certificates_ok": certs_ok,
        "ok": bool(self_ok and certs_ok),
        "timings": timings,
    }
    return report


def _config_echo(config):
    return {
        "params": {"d": config.d, "alpha": list(config.alphas)},
        "grid": {"extents": list(config.extents), "counts": list(config.counts),
                 "radial_scheme": config.radial_scheme},
        "normalization": config.normalization,
        "multiplier": config.multiplier,
        "test_functions": {"gaussian_scales": list(config.gaussian_scales),
                           "random_bumps": config.random_bumps},
        "certificates": list(config.certificates),
        "general_exponents": [list(e) for e in config.general_exponents],
        "donoho_stark": config.donoho_stark,
        "tolerances": config.tolerances,
        "seed": config.seed,
    }


def report_json_bytes(report, strip_timings=False):
    doc = dict(report)
    if strip_timings:
        doc.pop("timings", None)
    return (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode()


def report_csv(report):
    """One CSV row per certificate, fixed column set."""
    lines = [CSV_HEADER]
    for block in report["runs"]:
        for c in block["certificates"]:
            lines.append(
                f"{c['name']},{c['d']},{c['alpha']!r},"
                f"{c['lhs']!r},{c['rhs']!r},{c['ratio']!r},"
                f"{str(c['satisfied']).lower()},{c['slack']!r},{c['input_digest']}"
            )
    return "\n".join(lines) + "\n"


def emit(report, out_dir, fmt="both"):
    """Write report files; returns the list of paths written."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    written = []
    if fmt in ("json", "both"):
        path = os.path.join(out_dir, "report.json")
        with open(path, "wb") as fh:
            fh.write(report_json_bytes(report))
        written.append(path)
    if fmt in ("csv", "both"):
        path = os.path.join(out_dir, "certificates.csv")
        with open(path, "w") as fh:
            fh.write(report_csv(report))
        written.append(path)
    return written
