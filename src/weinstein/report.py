"""Config-driven experiment runner: grids, test functions, multiplier
profiles, certificate suites, oracle cross-checks, machine-readable reports.

A single JSON document configures one run.  All randomness comes from one
seeded generator recorded in the report, so identical config + seed give
byte-identical reports up to the timing and environment sections.
"""

import functools
import hashlib
import json
import math
import platform
import time
from dataclasses import dataclass
from typing import NamedTuple

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
from .uncertainty import (DEFAULT_ADMISSIBILITY_TOL, DEFAULT_SLACK,
                          ball_region_for_mass, donoho_stark_certificate,
                          general_heisenberg_certificate,
                          heisenberg_certificate,
                          multiplier_heisenberg_certificate)

KNOWN_CERTIFICATES = (
    "heisenberg",
    "multiplier_heisenberg",
    "general_heisenberg",
    "donoho_stark",
)

CSV_HEADER = "name,d,alpha,lhs,rhs,ratio,satisfied,slack,input_digest"

# Size budgets of a config (exit 2 past them).  A sweep holds a few
# grid-sized complex blocks (16 bytes a point) per thread, 64 MiB each at
# MAX_GRID_POINTS; the plan's radial kernel and the oracle's per-axis
# factors are dense in one axis' count, 256 MiB complex at MAX_AXIS_POINTS;
# each Gaussian scale and random bump keeps its values and its sweep's
# transform, two grid-sized blocks, for the whole run (512 MiB of either at
# MAX_BUMP_POINTS), and each swept beta a 16-byte-a-point weight row.  An
# alpha costs a plan, a profile and their sweeps, and a certificate a report
# entry: a list has at most MAX_LIST_ENTRIES, a run MAX_CERTIFICATES.
MAX_GRID_POINTS = 1 << 22
MAX_AXIS_POINTS = 1 << 12
MAX_BUMP_POINTS = 1 << 24
MAX_LIST_ENTRIES = 64
MAX_CERTIFICATES = 1024
REQUIRED = object()


class ConfigKey(NamedTuple):
    """One settable key: its dotted path, its default (REQUIRED if none; a
    None default admits null), its check, ``check(key, value)``, which parses
    the value or calls ``refuse``, and what the value must be."""
    path: str
    default: object
    check: object
    must_be: str = ""

    def refuse(self, why=None):
        raise ConfigError(f"{self.path}: {why}" if why
                          else f"{self.path} must be {self.must_be}")


def _number(lo=-math.inf, hi=math.inf, above=False, whole=False):
    """A finite int or float (not bool) in [lo, hi], or (lo, hi] if
    ``above``, as a float; a ``whole`` one has no fraction and is an int."""
    def check(key, v):
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        try:  # float() overflows on an integer literal past the float range
            x = float(v) if number else math.nan
        except OverflowError:
            key.refuse("an integer past the float range")
        if not (math.isfinite(x) and (x > lo if above else x >= lo)
                and x <= hi and (x.is_integer() or not whole)):
            key.refuse()
        return int(v) if whole else x
    return check


def _choice(options, noun):
    """One of the strings ``options``."""
    def check(key, v):
        if not isinstance(v, str) or v not in options:
            key.refuse(f"unknown {noun} {v!r} (known: {', '.join(options)})")
        return v
    return check


def _entries(entry, length=None, min_len=0, distinct=True):
    """A tuple of at most MAX_LIST_ENTRIES values that ``entry`` parses,
    ``length`` if given, at least ``min_len``, distinct if ``distinct``."""
    def check(key, v):
        if not isinstance(v, (list, tuple)) or len(v) < min_len \
                or length is not None and len(v) != length:
            key.refuse()
        if len(v) > MAX_LIST_ENTRIES:
            key.refuse(f"at most {MAX_LIST_ENTRIES} entries")
        out = tuple(entry(key, e) for e in v)
        if distinct and len(set(out)) < len(out):
            key.refuse("entries must be distinct")
        return out
    return check


def _one_or_many(check):
    """``check`` on a list, or on a bare value as a one-entry list."""
    return lambda key, v: check(key, v if isinstance(v, (list, tuple))
                                else [v])


_POSITIVE = _number(0, above=True)

# The settable keys, in the order they are parsed and refused.
CONFIG_KEYS = (
    ConfigKey("params.d", REQUIRED, _number(1, whole=True),
              "a positive integer"),
    ConfigKey("params.alpha", [0.5], _one_or_many(
        _entries(_number(-0.5, above=True), min_len=1)),
        "a list of numbers > -1/2"),
    ConfigKey("grid.extents", REQUIRED, _entries(_POSITIVE, distinct=False),
              "a list of positive numbers"),
    ConfigKey("grid.counts", REQUIRED,
              _entries(_number(MIN_AXIS_POINTS, whole=True), distinct=False),
              f"a list of whole numbers >= {MIN_AXIS_POINTS}"),
    ConfigKey("grid.radial_scheme", "uniform-offset",
              _choice(RADIAL_SCHEMES, "scheme")),
    ConfigKey("normalization", "self-reciprocal",
              _choice(("self-reciprocal",), "kind")),
    ConfigKey("multiplier.family", "gaussian_bump",
              _choice(PROFILE_FAMILIES, "family")),
    ConfigKey("multiplier.sigma_range", None,
              _entries(_POSITIVE, length=2, distinct=False),
              "[lo, hi] with 0 < lo < hi"),
    ConfigKey("multiplier.sigma_count", None,
              _number(2, MAX_SIGMA_COUNT, whole=True),
              f"a whole number in [2, {MAX_SIGMA_COUNT}]"),
    ConfigKey("multiplier.tolerance", 1e-6, _POSITIVE, "a positive number"),
    ConfigKey("test_functions.gaussian_scales", [1.0], _entries(_POSITIVE),
              "a list of positive numbers"),
    ConfigKey("test_functions.random_bumps", 0, _number(0, whole=True),
              "a whole number >= 0"),
    ConfigKey("certificates", ["heisenberg"],
              _entries(_choice(KNOWN_CERTIFICATES, "certificate"),
                       min_len=1),
              "a list of at least one certificate name"),
    ConfigKey("general_exponents", [[1, 1], [2, 1], [1, 2], [2, 2]],
              _entries(_entries(_number(1), length=2, distinct=False)),
              "a list of [beta, delta] pairs of numbers >= 1"),
    ConfigKey("donoho_stark.mass_fractions", [0.9, 0.99],
              _entries(_number(0, 1, above=True)),
              "a list of numbers in (0, 1]"),
    ConfigKey("donoho_stark.sigma_floors", [1.0, 2.0], _entries(_POSITIVE),
              "a list of positive numbers"),
    *(ConfigKey(f"tolerances.{k}", v, _POSITIVE, "a positive number")
      for k, v in (("certificate_slack", DEFAULT_SLACK), ("plancherel", 1e-6),
                   ("roundtrip", 1e-6), ("fast_vs_direct", 1e-8),
                   ("multiplier_plancherel", 1e-4),
                   ("admissibility", DEFAULT_ADMISSIBILITY_TOL))),
    ConfigKey("seed", 0, _number(0, whole=True), "a whole number >= 0"),
)


def _at(*path):
    """A property reading ``document`` at ``path``."""
    return property(lambda c: functools.reduce(dict.get, path, c.document))


@dataclass(frozen=True)
class ExperimentConfig:
    """A parsed config: ``document`` has every key of CONFIG_KEYS filled in
    and is the report's ``config`` echo; the attributes read it."""
    document: dict

    d, alphas = _at("params", "d"), _at("params", "alpha")
    extents, counts = _at("grid", "extents"), _at("grid", "counts")
    radial_scheme = _at("grid", "radial_scheme")
    normalization, multiplier = _at("normalization"), _at("multiplier")
    gaussian_scales = _at("test_functions", "gaussian_scales")
    random_bumps = _at("test_functions", "random_bumps")
    certificates, seed = _at("certificates"), _at("seed")
    general_exponents = _at("general_exponents")
    donoho_stark, tolerances = _at("donoho_stark"), _at("tolerances")

    @staticmethod
    def from_dict(doc):
        filled = _fill(doc)
        _check_across_keys(filled)
        _reject_unknown_keys(doc, filled)
        return ExperimentConfig(filled)


def _fill(doc):
    """``doc`` with each key of CONFIG_KEYS parsed or set to its default."""
    if not isinstance(doc, dict):
        raise ConfigError("config document must be a JSON object")
    filled = {}
    for key in CONFIG_KEYS:
        section, _, name = key.path.rpartition(".")
        src = doc.get(section, {}) if section else doc
        if not isinstance(src, dict):
            raise ConfigError(f"{section} must be a JSON object")
        value = src.get(name, key.default)
        if value is REQUIRED:
            raise ConfigError(f"missing config field: {key.path}")
        if value is not None or key.default is not None:
            value = key.check(key, value)
        (filled.setdefault(section, {}) if section else filled)[name] = value
    return filled


def _check_across_keys(c):
    """d+1 entries per grid axis, sigma_range lo < hi and the size budgets,
    checked before anything grid-sized is allocated."""
    counts, tf = c["grid"]["counts"], c["test_functions"]
    if not len(c["grid"]["extents"]) == len(counts) == c["params"]["d"] + 1:
        raise ConfigError("grid.extents and grid.counts: need d+1 entries "
                          "each")
    lo_hi = c["multiplier"]["sigma_range"]
    if lo_hi is not None and not lo_hi[0] < lo_hi[1]:
        raise ConfigError("multiplier.sigma_range: need lo < hi")
    points = math.prod(counts)
    if max(counts) > MAX_AXIS_POINTS or points > MAX_GRID_POINTS:
        raise ConfigError(f"grid.counts: at most {MAX_AXIS_POINTS} per "
                          f"axis and {MAX_GRID_POINTS} points in all")
    scales, bumps = len(tf["gaussian_scales"]), tf["random_bumps"]
    exponents = c["general_exponents"]
    for path, n, what in (
            ("test_functions.gaussian_scales", scales, ""),
            ("test_functions.random_bumps", bumps, ""),
            ("general_exponents", len(_sweep_betas(exponents)),
             " distinct beta, counting the swept 0 and 1,")):
        if n * points > MAX_BUMP_POINTS:
            raise ConfigError(f"{path}: at most {MAX_BUMP_POINTS // points}"
                              f"{what} on this grid")
    ds = c["donoho_stark"]
    per_field = {"heisenberg": 1, "multiplier_heisenberg": 1,
                 "general_heisenberg": len(exponents), "donoho_stark":
                 len(ds["mass_fractions"]) * len(ds["sigma_floors"])}
    n = len(c["params"]["alpha"]) * (scales + bumps) \
        * sum(per_field[name] for name in c["certificates"])
    if n > MAX_CERTIFICATES:
        raise ConfigError(
            f"certificates: at most {MAX_CERTIFICATES} in all (params.alpha "
            f"x test functions x certificates per function), not {n}")


def _sweep_betas(exponents):
    """A run's swept betas: 0, 1 and each general exponent's beta."""
    return sorted({0.0, 1.0, *(b for b, _ in exponents)})


def _reject_unknown_keys(doc, echo, prefix=""):
    """Raise ConfigError naming the first key of ``doc``, at any depth, that
    the filled-in config lacks: a key that no setting reads."""
    for key, value in doc.items():
        if key not in echo:
            raise ConfigError(f"unknown config key: {prefix}{key}")
        if isinstance(value, dict):
            _reject_unknown_keys(value, echo[key], f"{prefix}{key}.")


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
    tail = profile.radial_profile.tail_mass(profile.sigma_grid.sigma_min,
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
        profile = make_admissible_radial(plan, **config.multiplier)
        timings[f"setup_{tag}"] = time.perf_counter() - t0
        sweeps = {}
        betas = _sweep_betas(config.general_exponents)
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
        # every certificate but the plain Heisenberg one reads a sweep
        needs_sweep = set(config.certificates) != {"heisenberg"}
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
        "config": config.document,
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
