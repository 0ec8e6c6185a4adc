"""Config-driven experiment runner: grids, test functions, multiplier
profiles, certificate suites, oracle cross-checks, machine-readable reports.

A single JSON document configures one run.  All randomness comes from one
seeded generator recorded in the report, so identical config + seed give
byte-identical reports up to the timing and environment sections.
"""

import hashlib
import json
import math
import platform
import time
from dataclasses import dataclass

import numpy as np

from . import transform
from .core import (MIN_AXIS_POINTS, RADIAL_SCHEMES, Field, WeinsteinParams,
                   build_grid, gaussian_field, norm_p)
from .errors import ConfigError, MeasureRangeError
from .multiplier import (MAX_SIGMA_COUNT, PROFILE_FAMILIES,
                         apply_multiplier_kernel, dilate_symbol,
                         make_admissible_radial, multiplier_plancherel_defect,
                         multiplier_sweep, radial_admissibility_quadrature)
from .transform import direct_quadrature, inverse, make_plan
from .uncertainty import (ball_region_for_mass, donoho_stark_certificate,
                          general_heisenberg_certificate,
                          heisenberg_certificate,
                          multiplier_heisenberg_certificate)

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

# Size budgets of a config (exit 2 past them).  A sweep holds a few
# grid-sized complex blocks (16 bytes a point) per thread, 64 MiB each at
# MAX_GRID_POINTS; the plan's radial kernel and the oracle's per-axis
# factors are dense in one axis' count, 256 MiB complex at MAX_AXIS_POINTS;
# and each random bump keeps its values and its sweep's transform, two
# grid-sized blocks, for the whole run: 512 MiB at MAX_BUMP_POINTS.
MAX_GRID_POINTS = 1 << 22
MAX_AXIS_POINTS = 1 << 12
MAX_BUMP_POINTS = 1 << 24


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
        if len({float(a) for a in alphas}) < len(alphas):
            raise ConfigError("params.alpha entries must be distinct")
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
        points = math.prod(int(n) for n in counts)
        if max(counts) > MAX_AXIS_POINTS or points > MAX_GRID_POINTS:
            raise ConfigError(f"grid.counts: at most {MAX_AXIS_POINTS} per "
                              f"axis and {MAX_GRID_POINTS} points in all")
        scheme = grid.get("radial_scheme", "uniform-offset")
        if not isinstance(scheme, str) or scheme not in RADIAL_SCHEMES:
            raise ConfigError(f"grid.radial_scheme: unknown scheme {scheme!r}")
        normalization = doc.get("normalization", "self-reciprocal")
        if normalization != "self-reciprocal":
            raise ConfigError(f"normalization: unknown kind {normalization!r} "
                              "(the one kind is 'self-reciprocal')")
        tf = optional_section("test_functions")
        scales = tuple(real_list(
            tf.get("gaussian_scales", [1.0]),
            "test_functions.gaussian_scales must be a list of positive numbers",
            lambda s: s > 0))
        bumps = tf.get("random_bumps", 0)
        if not _whole(bumps) or bumps < 0:
            raise ConfigError("test_functions.random_bumps must be a whole "
                              "number >= 0")
        if bumps * points > MAX_BUMP_POINTS:
            raise ConfigError("test_functions.random_bumps: at most "
                              f"{MAX_BUMP_POINTS // points} on this grid")
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
        sigma_range = mult.get("sigma_range")
        if sigma_range is not None and not (
                isinstance(sigma_range, (list, tuple)) and len(sigma_range) == 2
                and all(_real(s) for s in sigma_range)
                and 0 < sigma_range[0] < sigma_range[1]):
            raise ConfigError("multiplier.sigma_range must be [lo, hi] with "
                              "0 < lo < hi")
        sigma_count = mult.get("sigma_count")
        if sigma_count is not None and not (
                _whole(sigma_count) and 2 <= sigma_count <= MAX_SIGMA_COUNT):
            raise ConfigError("multiplier.sigma_count must be a whole number "
                              f"in [2, {MAX_SIGMA_COUNT}]")
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


def _self_tests(stats):
    """Oracle-consistency block on the self-test Gaussian's sweep
    ``stats``, on the run's own grid, plan and profile: transform
    Plancherel/round-trip, the fast transform against the per-axis
    quadrature sum, the kernel route against the spectral one at sigma = 1,
    multiplier Plancherel, 1-D admissibility oracle.  The Gaussian, its
    transform, the plan and the profile are all read from the sweep."""
    plan, profile, f, F = stats.plan, stats.profile, stats.phi, stats.transform
    n_in = norm_p(f, plan.weights_in, 2)
    n_out = norm_p(F, plan.weights_out, 2)
    if n_out == 0:
        raise MeasureRangeError(
            "the self-test Gaussian's transform has norm 0: the Gaussian "
            "or its transform underflows to 0 on the grid")
    plancherel = abs(n_out ** 2 - n_in ** 2) / n_in ** 2
    back = inverse(plan, F)
    roundtrip = float(np.max(np.abs(back.values - f.values)))

    dense = direct_quadrature(plan, f)
    fast_vs_direct = norm_p(F - dense, plan.weights_out, 2) / n_out

    kern = apply_multiplier_kernel(plan, profile, 1.0, f)
    m = dilate_symbol(profile, 1.0).values
    spec = inverse(plan, Field(grid=plan.grid_out, values=m * F.values))
    n_spec = norm_p(spec, plan.weights_in, 2)
    if n_spec == 0:
        raise MeasureRangeError(
            "the kernel_vs_spectral self-test's spectral output has norm 0: "
            "the symbol times the self-test Gaussian's transform is below "
            "the float range")
    kernel_vs_spectral = norm_p(kern - spec, plan.weights_in, 2) / n_spec

    mp_defect = multiplier_plancherel_defect(stats)
    quad = radial_admissibility_quadrature(profile.radial_profile,
                                           profile.sigma_grid, 1.0)
    # the closed-form tail mass separates truncation from quadrature
    tail = profile.tail_mass(profile.sigma_grid.sigma_min,
                             profile.sigma_grid.sigma_max)
    oracle_defect = abs(quad + tail - 1.0)
    return {
        "plancherel_defect": plancherel,
        "roundtrip_max_abs": roundtrip,
        "fast_vs_direct_rel_l2": float(fast_vs_direct),
        "kernel_vs_spectral_rel_l2": float(kernel_vs_spectral),
        "multiplier_plancherel_defect": float(mp_defect),
        "admissibility_oracle_defect": float(oracle_defect),
        "sampled_admissibility_max_defect": float(profile.defect.max()),
        "sampled_admissibility_mean_defect": float(profile.defect.mean()),
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
    certificates.  ``timings`` keys each stage by alpha, with <a> the
    repr of alpha (``setup_alpha_<a>``, ``sweeps_alpha_<a>``,
    ``self_tests_alpha_<a>``, ``certificates_alpha_<a>``); every sweep
    counts under ``sweeps`` only, so the stages are disjoint.
    """
    if isinstance(config, dict):
        config = ExperimentConfig.from_dict(config)
    rng = np.random.default_rng(config.seed)
    timings = {}
    per_alpha = []
    all_certs = []
    t_start = time.perf_counter()
    for alpha in config.alphas:
        tag = f"alpha_{alpha!r}"
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
        timings[f"setup_{tag}"] = time.perf_counter() - t0
        sweeps = {}
        betas = sorted({0.0, 1.0, *(b for b, _ in config.general_exponents)})
        sweep_key = f"sweeps_{tag}"
        timings[sweep_key] = 0.0

        def stats_of(f):
            # one sweep per distinct field, keyed by a digest of its values
            key = hashlib.blake2b(f.values).digest()
            if key not in sweeps:
                t = time.perf_counter()
                sweeps[key] = multiplier_sweep(plan, profile, f, betas)
                timings[sweep_key] += time.perf_counter() - t
            return sweeps[key]

        gauss_stats = stats_of(gaussian_field(grid))
        t0 = time.perf_counter()
        self_tests = _self_tests(gauss_stats)
        timings[f"self_tests_{tag}"] = time.perf_counter() - t0

        fields = [("gaussian_s%g" % s, gaussian_field(grid, scale=s))
                  for s in config.gaussian_scales]
        fields += [("bump_%d" % i, _random_bump(grid, rng))
                   for i in range(config.random_bumps)]
        for name, f in fields:
            if not f.values.any():
                raise MeasureRangeError(
                    f"test field {name} is 0 at every grid point (its "
                    "values underflow)")
        needs_sweep = any(c in config.certificates for c in
                          ("multiplier_heisenberg", "general_heisenberg",
                           "donoho_stark"))
        field_stats = [stats_of(f) if needs_sweep else None
                       for _, f in fields]

        slack = config.tolerances["certificate_slack"]
        adm_tol = config.tolerances["admissibility"]
        certs = []
        t0 = time.perf_counter()
        for (name, f), stats in zip(fields, field_stats):
            if "heisenberg" in config.certificates:
                certs.append(heisenberg_certificate(
                    plan, f, slack=slack, digest=name, stats=stats))
            if "multiplier_heisenberg" in config.certificates:
                certs.append(multiplier_heisenberg_certificate(
                    stats, slack=slack, admissibility_tol=adm_tol,
                    digest=name))
            if "general_heisenberg" in config.certificates:
                for beta, delta in config.general_exponents:
                    certs.append(general_heisenberg_certificate(
                        stats, beta, delta, slack=slack,
                        admissibility_tol=adm_tol,
                        digest=f"{name};beta={beta:g};delta={delta:g}"))
            if "donoho_stark" in config.certificates:
                for q in config.donoho_stark["mass_fractions"]:
                    omega = ball_region_for_mass(f, plan.weights_in, q)
                    for floor in config.donoho_stark["sigma_floors"]:
                        certs.append(donoho_stark_certificate(
                            stats, omega, floor, slack=slack,
                            admissibility_tol=adm_tol,
                            digest=f"{name};q={q:g};floor={floor:g}"))
        timings[f"certificates_{tag}"] = time.perf_counter() - t0
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
        "environment": _environment(),
    }
    return report


def _environment():
    """What ran: the Python and numpy versions, the BLAS numpy was built
    against, and ``cpus``, the CPU count the transforms and sweeps split
    across."""
    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cpus": transform._cpu_count(),
    }


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
    """The report as strict JSON bytes; ``strip_timings`` drops the volatile
    ``timings`` and ``environment`` sections, leaving what a config and seed
    determine."""
    doc = dict(report)
    if strip_timings:
        doc.pop("timings", None)
        doc.pop("environment", None)
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
