"""Config-driven experiment runner: grids, test functions, multiplier
profiles, certificate suites, oracle cross-checks, machine-readable reports.

A single JSON document configures one run.  All randomness comes from one
seeded generator recorded in the report, so identical config + seed give
byte-identical reports up to the timing section.
"""

import dataclasses
import hashlib
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
from .transform import direct_quadrature, inverse, make_plan
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
                "donoho_stark.sigma_floors must be a list of positive "
                "numbers", lambda s: s > 0),
        }
        tol_doc = optional_section("tolerances")
        tol = {k: tol_doc.get(k, v) for k, v in DEFAULT_TOLERANCES.items()}
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
        config = ExperimentConfig(
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
        _reject_unknown_keys(doc, _config_echo(config))
        return config


def _reject_unknown_keys(doc, echo, prefix=""):
    """Raise ConfigError naming the first key of ``doc``, at any depth, that
    the parsed config's echo lacks: a key that no setting reads."""
    for key, value in doc.items():
        if key not in echo:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        if isinstance(value, dict):
            _reject_unknown_keys(value, echo[key], f"{prefix}{key}.")


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


def _self_tests(plan, profile, f, stats):
    """Oracle-consistency block on the Gaussian ``f``, on the run's own
    grid, plan and profile: transform Plancherel/round-trip, the fast
    transform against the per-axis quadrature sum, the kernel route against
    the spectral one at sigma = 1, multiplier Plancherel, 1-D admissibility
    oracle.  ``stats`` is f's multiplier sweep, which also holds f's
    transform."""
    F = stats.transform
    n_in = norm_p(f, plan.weights_in, 2)
    n_out = norm_p(F, plan.weights_out, 2)
    plancherel = abs(n_out ** 2 - n_in ** 2) / n_in ** 2
    back = inverse(plan, F)
    roundtrip = float(np.max(np.abs(back.values - f.values)))

    dense = direct_quadrature(plan, f)
    fast_vs_direct = norm_p(F - dense, plan.weights_out, 2) / n_out

    kern = apply_multiplier_kernel(plan, profile, 1.0, f)
    spec = apply_multiplier(plan, profile, 1.0, f)
    kernel_vs_spectral = norm_p(kern - spec, plan.weights_in, 2) \
        / norm_p(spec, plan.weights_in, 2)

    mp_defect = multiplier_plancherel_defect(plan, profile, f, stats)
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


def self_tests_pass(self_tests, config):
    """True when every gated self-test value is within its tolerance.

    The two oracle comparisons (fast vs dense transform, kernel vs spectral
    multiplier) share ``fast_vs_direct``; the admissibility oracle and the
    sampled maximum defect are held to ``multiplier.tolerance``, the
    accuracy the sigma quadrature is built for, and the sampled mean defect
    to ``admissibility``.
    """
    tol = config.tolerances
    mult_tol = config.multiplier["tolerance"]
    bounds = {
        "plancherel_defect": tol["plancherel"],
        "roundtrip_max_abs": tol["roundtrip"],
        "fast_vs_direct_rel_l2": tol["fast_vs_direct"],
        "kernel_vs_spectral_rel_l2": tol["fast_vs_direct"],
        "multiplier_plancherel_defect": tol["multiplier_plancherel"],
        "admissibility_oracle_defect": mult_tol,
        "sampled_admissibility_max_defect": mult_tol,
        "sampled_admissibility_mean_defect": tol["admissibility"],
    }
    return all(self_tests[key] <= bound for key, bound in bounds.items())


def run(config):
    """Execute the configured suites; returns the report dictionary.

    Order, per alpha value: grid and multiplier profile, the self-test
    Gaussian's sweep, the self-tests, the other fields' sweeps, then the
    certificates.  ``timings`` keys each stage by alpha
    (``setup_alpha_<a>``, ``sweeps_alpha_<a>``, ``self_tests_alpha_<a>``,
    ``certificates_alpha_<a>``); every sweep counts under ``sweeps`` only,
    so the stages are disjoint.
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
        sweeps = {}
        betas = sorted({0.0, 1.0, *(b for b, _ in config.general_exponents)})
        sweep_key = f"sweeps_alpha_{alpha:g}"
        timings[sweep_key] = 0.0

        def stats_of(f):
            # one sweep per distinct field, keyed by a digest of its values
            key = hashlib.blake2b(f.values).digest()
            if key not in sweeps:
                t = time.perf_counter()
                sweeps[key] = multiplier_sweep(plan, profile, f, betas)
                timings[sweep_key] += time.perf_counter() - t
            return sweeps[key]

        gauss = gaussian_field(grid)
        gauss_stats = stats_of(gauss)
        t0 = time.perf_counter()
        self_tests = _self_tests(plan, profile, gauss, gauss_stats)
        timings[f"self_tests_alpha_{alpha:g}"] = time.perf_counter() - t0

        fields = [("gaussian_s%g" % s, gaussian_field(grid, scale=s))
                  for s in config.gaussian_scales]
        fields += [("bump_%d" % i, _random_bump(grid, rng))
                   for i in range(config.random_bumps)]
        needs_sweep = any(c in config.certificates for c in
                          ("multiplier_heisenberg", "general_heisenberg",
                           "donoho_stark"))
        field_stats = [stats_of(f) if needs_sweep else None
                       for _, f in fields]

        slack = config.tolerances["certificate_slack"]
        adm_tol = config.tolerances["admissibility"]
        certs = []
        t0 = time.perf_counter()
        halflines = [sigma_halfline_region(profile.sigma_grid,
                                           plan.weights_in, floor)
                     for floor in config.donoho_stark["sigma_floors"]]
        for (name, f), stats in zip(fields, field_stats):
            if "heisenberg" in config.certificates:
                certs.append(heisenberg_certificate(
                    plan, f, slack=slack, digest=name, stats=stats))
            if "multiplier_heisenberg" in config.certificates:
                certs.append(multiplier_heisenberg_certificate(
                    plan, profile, f, slack=slack, admissibility_tol=adm_tol,
                    digest=name, stats=stats))
            if "general_heisenberg" in config.certificates:
                for beta, delta in config.general_exponents:
                    certs.append(general_heisenberg_certificate(
                        plan, profile, f, beta, delta, slack=slack,
                        admissibility_tol=adm_tol,
                        digest=f"{name};beta={beta:g};delta={delta:g}",
                        stats=stats))
            if "donoho_stark" in config.certificates:
                for q in config.donoho_stark["mass_fractions"]:
                    omega = ball_region_for_mass(f, plan.weights_in, q)
                    for sig_reg in halflines:
                        certs.append(donoho_stark_certificate(
                            plan, profile, f, omega, sig_reg, slack=slack,
                            admissibility_tol=adm_tol,
                            digest=f"{name};q={q:g};floor={sig_reg.floor:g}",
                            stats=stats))
        timings[f"certificates_alpha_{alpha:g}"] = time.perf_counter() - t0
        per_alpha.append({
            "alpha": alpha,
            "self_tests": self_tests,
            "certificates": [c.to_json() for c in certs],
        })
        all_certs.extend(certs)

    self_ok = all(self_tests_pass(block["self_tests"], config)
                  for block in per_alpha)
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
    return (json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
            + "\n").encode()


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
