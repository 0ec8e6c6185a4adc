import json
import os
import pathlib
import re
import subprocess
import sys
import tracemalloc
import warnings

import pytest

from weinstein.cli import main
from weinstein.errors import ConfigError, MeasureRangeError
from weinstein.report import (CONFIG_KEYS, ExperimentConfig, _self_tests,
                              emit, report_csv, report_json_bytes, run,
                              self_tests_pass)

DEFAULT_CONFIG = pathlib.Path(__file__).resolve().parents[1] / "configs" \
    / "default.json"

SMALL_CONFIG = {
    "params": {"d": 1, "alpha": [0.5]},
    "grid": {"extents": [7.0, 7.0], "counts": [48, 48],
             "radial_scheme": "collocation"},
    "multiplier": {"family": "gaussian_bump"},
    "test_functions": {"gaussian_scales": [1.0], "random_bumps": 1},
    "certificates": ["heisenberg", "multiplier_heisenberg"],
    "tolerances": {"multiplier_plancherel": 1e-2},
    "seed": 99,
}


@pytest.fixture(scope="module")
def small_report():
    return run(dict(SMALL_CONFIG))


def test_config_validation_errors():
    with pytest.raises(ConfigError, match="params"):
        ExperimentConfig.from_dict({})
    with pytest.raises(ConfigError, match="d must be"):
        ExperimentConfig.from_dict({"params": {"d": 0}, "grid": {}})
    with pytest.raises(ConfigError, match="alpha"):
        ExperimentConfig.from_dict(
            {"params": {"d": 1, "alpha": [-0.8]}, "grid": {}})
    with pytest.raises(ConfigError, match="d\\+1 entries"):
        ExperimentConfig.from_dict(
            {"params": {"d": 1}, "grid": {"extents": [1.0], "counts": [16, 16]}})
    base = {"params": {"d": 1}, "grid": {"extents": [5.0, 5.0],
                                          "counts": [16, 16]}}
    with pytest.raises(ConfigError, match="at least one certificate"):
        ExperimentConfig.from_dict({**base, "certificates": []})
    with pytest.raises(ConfigError, match="unknown certificate"):
        ExperimentConfig.from_dict({**base, "certificates": ["bogus"]})
    with pytest.raises(ConfigError, match="tolerances"):
        ExperimentConfig.from_dict({**base, "tolerances": {"plancherel": -1}})
    with pytest.raises(ConfigError, match="unknown family"):
        ExperimentConfig.from_dict({**base, "multiplier": {"family": "nope"}})
    # malformed values that used to reach the run and fail there
    with pytest.raises(ConfigError, match="grid.counts"):
        ExperimentConfig.from_dict(
            {**base, "grid": {"extents": [5.0, 5.0], "counts": [4, 4]}})
    with pytest.raises(ConfigError, match="normalization"):
        ExperimentConfig.from_dict({**base, "normalization": "bogus"})
    with pytest.raises(ConfigError, match="radial_scheme"):
        ExperimentConfig.from_dict(
            {**base, "grid": {**base["grid"], "radial_scheme": "nope"}})
    with pytest.raises(ConfigError, match="alpha"):
        ExperimentConfig.from_dict({**base, "params": {"d": 1, "alpha": ["x"]}})
    with pytest.raises(ConfigError, match="tolerances"):
        ExperimentConfig.from_dict({**base, "tolerances": {"plancherel": "1e-6"}})
    with pytest.raises(ConfigError, match="tolerance"):
        ExperimentConfig.from_dict(
            {**base, "multiplier": {"family": "gaussian_bump",
                                    "tolerance": "tight"}})
    # wrong types in the remaining fields and sections
    for bad, match in (
            ({"seed": "abc"}, "seed"),
            ({"seed": -1}, "seed"),
            ({"general_exponents": [[1]]}, "general_exponents"),
            ({"general_exponents": [["x", 1]]}, "general_exponents"),
            ({"test_functions": [1]}, "test_functions"),
            ({"donoho_stark": [1]}, "donoho_stark"),
            ({"tolerances": [1]}, "tolerances"),
            ({"multiplier": [1]}, "multiplier"),
            ({"multiplier": "x"}, "multiplier"),
            ({"multiplier": {"sigma_range": "x"}}, "sigma_range"),
            ({"multiplier": {"sigma_range": [2.0, 1.0]}}, "sigma_range"),
            ({"multiplier": {"sigma_count": "many"}}, "sigma_count"),
            ({"multiplier": {"family": {}}}, "family"),
            ({"test_functions": {"gaussian_scales": ["x"]}}, "gaussian_scales"),
            ({"test_functions": {"gaussian_scales": 1.0}}, "gaussian_scales"),
            ({"test_functions": {"random_bumps": "x"}}, "random_bumps"),
            ({"donoho_stark": {"mass_fractions": ["x"]}}, "mass_fractions"),
            ({"donoho_stark": {"sigma_floors": [None]}}, "sigma_floors"),
            ({"donoho_stark": {"sigma_floors": [-1]}}, "sigma_floors"),
            ({"donoho_stark": {"sigma_floors": [1.0, 0]}}, "sigma_floors"),
            ({"certificates": 1}, "certificates"),
            # every list key refuses a repeated entry
            ({"params": {"d": 1, "alpha": [0.5, 0.5]}},
             "params.alpha: entries must be distinct"),
            ({"test_functions": {"gaussian_scales": [1, 1.0]}},
             "test_functions.gaussian_scales: entries must be distinct"),
            ({"certificates": ["heisenberg", "heisenberg"]},
             "certificates: entries must be distinct"),
            ({"general_exponents": [[2, 1], [2.0, 1]]},
             "general_exponents: entries must be distinct"),
            ({"donoho_stark": {"mass_fractions": [0.9, 0.9]}},
             "donoho_stark.mass_fractions: entries must be distinct"),
            ({"donoho_stark": {"sigma_floors": [2.0, 2]}},
             "donoho_stark.sigma_floors: entries must be distinct"),
            # unknown keys, named, at the top level and in every section
            ({"certificate": ["heisenberg"]}, "unknown config key: certificate"),
            ({"params": {"d": 1, "alpha_": 0.5}}, "params.alpha_"),
            ({"grid": {**base["grid"], "count": [16, 16]}}, "grid.count"),
            ({"multiplier": {"famly": "gaussian_bump"}}, "multiplier.famly"),
            ({"test_functions": {"random_bump": 1}},
             "test_functions.random_bump"),
            ({"donoho_stark": {"sigma_floor": [1.0]}},
             "donoho_stark.sigma_floor"),
            ({"tolerances": {"plancherell": 1e-6}}, "tolerances.plancherell")):
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_dict({**base, **bad})


def test_report_structure(small_report):
    r = small_report
    assert r["ok"] is True
    assert r["self_tests_ok"] is True
    assert r["certificates_ok"] is True
    st = r["runs"][0]["self_tests"]
    assert st["plancherel_defect"] < 1e-6
    assert st["fast_vs_direct_rel_l2"] < 1e-8
    certs = r["runs"][0]["certificates"]
    assert len(certs) == 4  # 2 fields x 2 certificates
    assert {c["name"] for c in certs} == {"heisenberg", "multiplier_heisenberg"}


def test_self_tests_pass_gates_every_oracle():
    # each of these keys alone, just above its tolerance, fails the run's
    # self-tests; at the tolerance it passes
    config = ExperimentConfig.from_dict(json.loads(DEFAULT_CONFIG.read_text()))
    tol = config.tolerances
    mult_tol = config.multiplier["tolerance"]
    gated = {
        "kernel_vs_spectral_rel_l2": tol["fast_vs_direct"],
        "admissibility_oracle_defect": mult_tol,
        "sampled_admissibility_max_defect": mult_tol,
    }
    keys = ("plancherel_defect", "roundtrip_max_abs", "fast_vs_direct_rel_l2",
            "multiplier_plancherel_defect",
            "sampled_admissibility_mean_defect", *gated)
    zeros = dict.fromkeys(keys, 0.0)
    assert self_tests_pass(zeros, config)
    for key, bound in gated.items():
        assert self_tests_pass({**zeros, key: bound}, config)
        assert not self_tests_pass({**zeros, key: bound * (1 + 1e-9)}, config)


def test_default_run_sweeps_each_distinct_field_once(monkeypatch):
    # the self-test Gaussian and gaussian_s1 are one field, so the default
    # run sweeps twice (with bump_0); each field is transformed once for
    # all of its certificates and self-tests
    import weinstein.multiplier
    import weinstein.transform
    import weinstein.uncertainty

    calls = {"sweep": [], "forward": 0}
    sweep = weinstein.multiplier.multiplier_sweep
    forward = weinstein.transform.forward

    def counted_sweep(plan, profile, phi, betas=(0.0,)):
        calls["sweep"].append(tuple(betas))
        return sweep(plan, profile, phi, betas)

    def counted_forward(plan, f):
        calls["forward"] += 1
        return forward(plan, f)

    for module in ("report", "multiplier"):
        monkeypatch.setattr(f"weinstein.{module}.multiplier_sweep",
                            counted_sweep)
    for module in ("uncertainty", "multiplier", "transform"):
        monkeypatch.setattr(f"weinstein.{module}.forward", counted_forward)
    report = run(json.loads(DEFAULT_CONFIG.read_text()))
    assert report["ok"] is True
    assert calls["sweep"] == [(0.0, 1.0, 2.0)] * 2
    # one per sweep: the fast-vs-direct and kernel-vs-spectral checks read
    # the sweep's transform
    assert calls["forward"] == 2


def test_report_determinism():
    r1 = run(dict(SMALL_CONFIG))
    r2 = run(dict(SMALL_CONFIG))
    assert report_json_bytes(r1, strip_timings=True) \
        == report_json_bytes(r2, strip_timings=True)
    r3 = run({**SMALL_CONFIG, "seed": 100})
    assert report_json_bytes(r1, strip_timings=True) \
        != report_json_bytes(r3, strip_timings=True)


D2_CONFIG = {
    "params": {"d": 2, "alpha": [0.5]},
    "grid": {"extents": [8.0, 8.0, 8.0], "counts": [24, 24, 24],
             "radial_scheme": "collocation"},
    "test_functions": {"gaussian_scales": [1.0], "random_bumps": 1},
    "certificates": ["heisenberg", "multiplier_heisenberg",
                     "general_heisenberg", "donoho_stark"],
    "seed": 7,
}


def test_d2_run_oracles_and_determinism():
    # a d=2 run end to end: both oracle cross-checks within tolerance, every
    # certificate present, and the report reproducible.  The 24^3 box is
    # too coarse for the round-trip tolerance, so `ok` is not asserted.
    r1 = run(dict(D2_CONFIG))
    st = r1["runs"][0]["self_tests"]
    tol = r1["config"]["tolerances"]["fast_vs_direct"]
    assert st["fast_vs_direct_rel_l2"] <= tol
    assert st["kernel_vs_spectral_rel_l2"] <= tol
    # 2 fields x (1 + 1 + 4 exponent pairs + 2 mass fractions x 2 floors)
    assert len(r1["runs"][0]["certificates"]) == 20
    r2 = run(dict(D2_CONFIG))
    assert report_json_bytes(r1, strip_timings=True) \
        == report_json_bytes(r2, strip_timings=True)


@pytest.mark.parametrize("doc", [json.loads(DEFAULT_CONFIG.read_text()),
                                 D2_CONFIG], ids=["default", "d2"])
def test_run_builds_no_point_pair_kernel_matrix(doc, kernel_calls):
    # both oracles run on the run's grid through per-axis factors, so the
    # pointwise kernel is never evaluated over point pairs
    report = run(dict(doc))
    tol = report["config"]["tolerances"]["fast_vs_direct"]
    st = report["runs"][0]["self_tests"]
    assert st["fast_vs_direct_rel_l2"] <= tol
    assert st["kernel_vs_spectral_rel_l2"] <= tol
    assert kernel_calls == []


def test_environment_recorded_and_stripped(small_report, monkeypatch):
    # the report names what ran; the environment, like the timings, is not
    # part of what a config and seed determine, so the stripped bytes hold
    # neither, and a run on another CPU count strips to the same bytes
    import numpy as np
    import platform

    import weinstein.transform

    env = small_report["environment"]
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    assert env == {"python": platform.python_version(),
                   "numpy": np.__version__,
                   "blas": {"name": blas["name"], "version": blas["version"]},
                   "cpus": weinstein.transform._cpu_count()}
    doc = json.loads(report_json_bytes(small_report, strip_timings=True))
    assert "environment" not in doc and "timings" not in doc
    assert json.loads(report_json_bytes(small_report))["environment"] == env
    monkeypatch.setattr(weinstein.transform, "_cpu_count", lambda: 3)
    other = run(dict(SMALL_CONFIG))
    assert other["environment"]["cpus"] == 3
    assert report_json_bytes(other, strip_timings=True) \
        == report_json_bytes(small_report, strip_timings=True)


def test_timings_keyed_per_alpha():
    # every stage keeps one time per alpha; no alpha overwrites another,
    # not even one that agrees with it to six digits
    stages = ("setup", "sweeps", "self_tests", "certificates")
    for alphas, tags in (([0.5, 1.5], ("0.5", "1.5")),
                         ([0.5, 0.5000001], ("0.5", "0.5000001"))):
        report = run({**SMALL_CONFIG, "params": {"d": 1, "alpha": alphas}})
        timings = report["timings"]
        assert set(timings) == {"total"} | {
            f"{stage}_alpha_{a}" for stage in stages for a in tags}
        assert all(timings[f"sweeps_alpha_{a}"] > 0 for a in tags)
        assert all(t >= 0 for t in timings.values())
    # a repeated alpha would run twice under one key: it is refused
    with pytest.raises(ConfigError, match="params.alpha"):
        run({**SMALL_CONFIG, "params": {"d": 1, "alpha": [0.5, 0.5]}})


def test_report_csv_columns(small_report):
    csv = report_csv(small_report)
    lines = csv.strip().split("\n")
    assert lines[0] == "name,d,alpha,lhs,rhs,ratio,satisfied,slack,input_digest"
    assert len(lines) == 1 + len(small_report["runs"][0]["certificates"])
    assert lines[1].startswith("heisenberg,1,0.5,")
    for line in lines[1:]:
        assert len(line.split(",")) == 9


def test_emit_roundtrip(small_report, tmp_path):
    paths = emit(small_report, str(tmp_path), "both")
    assert len(paths) == 2
    with open(paths[0], "rb") as fh:
        parsed = json.loads(fh.read())
    assert parsed == json.loads(report_json_bytes(small_report))
    with open(paths[1]) as fh:
        assert fh.readline().strip() == \
            "name,d,alpha,lhs,rhs,ratio,satisfied,slack,input_digest"


def test_cli_list_certificates(capsys):
    assert main(["run", "--list-certificates"]) == 0
    out = capsys.readouterr().out
    assert "heisenberg" in out
    assert "donoho_stark" in out


def test_cli_missing_config(capsys):
    assert main(["run"]) == 2
    assert main(["run", "--config", "/nonexistent.json"]) == 2


def test_cli_config_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"params": {"d": 1}, "grid": {},
                               "certificates": []}))
    assert main(["run", "--config", str(bad)]) == 2
    notjson = tmp_path / "notjson.json"
    notjson.write_text("{")
    assert main(["run", "--config", str(notjson)]) == 2
    # exit 1 is kept for certificate failures: a malformed value is a config
    # error even though it only breaks the run once the grid is built
    small_counts = tmp_path / "small_counts.json"
    small_counts.write_text(json.dumps(
        {**SMALL_CONFIG, "grid": {"extents": [7.0, 7.0], "counts": [4, 4]}}))
    assert main(["run", "--config", str(small_counts)]) == 2
    bad_seed = tmp_path / "bad_seed.json"
    bad_seed.write_text(json.dumps({**SMALL_CONFIG, "seed": "abc"}))
    assert main(["run", "--config", str(bad_seed)]) == 2
    # a document that is not an object, with the seed overridden
    listdoc = tmp_path / "list.json"
    listdoc.write_text("[1]")
    assert main(["run", "--config", str(listdoc), "--seed", "3"]) == 2
    # a byte that is not UTF-8, and nesting deeper than the parser recurses,
    # are one line on stderr, not a traceback
    capsys.readouterr()
    for name, data in (("latin1.json", b'{"seed": "\xe9"}'),
                       ("deep.json", b"[" * 100000)):
        path = tmp_path / name
        path.write_bytes(data)
        assert main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error:") and len(err.splitlines()) == 1


def test_cli_guard_error(tmp_path):
    cfg = dict(SMALL_CONFIG)
    cfg["multiplier"] = {"family": "gaussian_bump", "sigma_range": [0.9, 1.1]}
    path = tmp_path / "guard.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3


def test_cli_large_alpha_guard(tmp_path):
    # (R/2)^{2 alpha + 2} and Gamma(alpha + 1) overflow at alpha = 200: a
    # numeric guard, not a traceback
    cfg = {**SMALL_CONFIG, "params": {"d": 1, "alpha": [200]},
           "grid": {"extents": [7.0, 7.0], "counts": [16, 16],
                    "radial_scheme": "collocation"}}
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 3


def _set(*path_and_value):
    """A config edit setting the value at ``path`` (dotted keys)."""
    *path, value = path_and_value

    def edit(cfg):
        section = cfg
        for key in path[:-1]:
            section = section[key]
        section[path[-1]] = value
    return edit


def _distinct(n, step=1.0):
    """n distinct positive numbers: step, 2 step, ..., n step."""
    return [step * (i + 1) for i in range(n)]


def _edits(*edits):
    """A config edit making ``edits`` in order."""
    def edit(cfg):
        for e in edits:
            e(cfg)
    return edit


@pytest.mark.parametrize("edit,full_grid,code,message", [
    (_set("test_functions", "gaussian_scales", [1e300]), False, 3,
     "gaussian scale 1e+300: 2 scale^2 leaves the float range"),
    (_set("params", "alpha", [1e300]), False, 3,
     "Gauss-Jacobi rule for (1-t)^0 (1+t)^2e+300 leaves the float range"),
    (_set("multiplier", "sigma_range", [1e-300, 1e300]), False, 3,
     "sigma*|x| or the range's width leaves the float range"),
    (_set("test_functions", "gaussian_scales", [0.001]), False, 3,
     "test field gaussian_s0.001 is 0 at every grid point"),
    (_set("test_functions", "gaussian_scales", [0.001]), True, 3,
     "test field gaussian_s0.001 is 0 at every grid point"),
    (_set("grid", "extents", [1e200, 1e200]), False, 3,
     "|x|^2 spans [inf, inf]: it leaves the float range"),
    (_set("grid", "extents", [1e-200, 1e-200]), False, 3,
     "|x|^2 spans [inf, inf]: it leaves the float range"),
    (_set("general_exponents", [[1, 1e6]]), False, 3,
     "general_heisenberg certificate leaves the float range"),
    (_set("multiplier", "sigma_count", 1e300), False, 2,
     "multiplier.sigma_count must be a whole number in [2, 1024]"),
    (_set("grid", "extents", [15, 1e5]), False, 3,
     "Taylor steps of Bessel's equation, over the budget of 131072"),
    (_set("grid", "extents", [1e-8, 15]), False, 3,
     "the kernel_vs_spectral self-test's spectral output has norm 0"),
    (_set("general_exponents", [[1e6, 1]]), False, 3,
     "multiplier sweep weights w |x|^(2 beta) leave the float range at "
     "beta=1e+06"),
    # every euclidean |x|^2 of the input grid overflows to inf (not a
    # RuntimeWarning), and the sweep refuses the grid
    (_set("grid", "extents", [1e200, 15]), False, 3,
     "the input grid's |x|^2 spans [inf, inf]: it leaves the float range"),
    (_set("grid", "extents", [1e300, 15]), False, 3,
     "the input grid's |x|^2 spans [inf, inf]: it leaves the float range"),
    # the removed admissibility variant and non-unitary normalizations
    (_set("multiplier", "variant", "modulus"), False, 2,
     "unknown config key: multiplier.variant"),
    (_set("normalization", "squared"), False, 2,
     "normalization: unknown kind 'squared'"),
    (_set("normalization", 2.75), False, 2,
     "normalization: unknown kind 2.75"),
    # integer literals past the float range used to raise OverflowError
    (_set("seed", 10**400), False, 2,
     "seed: an integer past the float range"),
    (_set("params", "d", 10**400), False, 2,
     "params.d: an integer past the float range"),
    (_set("test_functions", "random_bumps", 10**400), False, 2,
     "test_functions.random_bumps: an integer past the float range"),
], ids=["gaussian_scale_1e300", "alpha_1e300", "sigma_range_1e300",
        "gaussian_scale_0.001",
        "gaussian_scale_0.001_default_grid", "extents_1e200",
        "extents_1e-200", "delta_1e6", "sigma_count_1e300",
        "radial_extent_1e5", "euclid_extent_1e-8", "beta_1e6",
        "extents_1e200_15", "extents_1e300_15", "variant_modulus",
        "normalization_squared", "normalization_2.75", "seed_400_digits",
        "d_400_digits", "random_bumps_400_digits"])
def test_cli_out_of_range_inputs_exit_with_one_line(tmp_path, capsys, edit,
                                                    full_grid, code, message):
    # each input used to end in a traceback (exit 4): an OverflowError, a
    # ZeroDivisionError, a ValueError from a zero field or an empty sigma
    # range, or a report that no JSON can hold; pytest's RuntimeWarning
    # filter also makes any warning before the guard an exit 4 here.  The
    # removed options used to run and fail (exit 1)
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    if not full_grid:
        cfg["grid"]["counts"] = [16, 16]
    edit(cfg)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == code
    err = capsys.readouterr().err
    prefix = "numeric guard: " if code == 3 else "config error: "
    assert err.count("\n") == 1 and err.startswith(prefix), err
    assert message in err
    assert "Traceback" not in err
    assert not out.exists()


def test_report_independent_of_blas_threads(run_cli):
    # 2 * 48 * 48 * 36 real output values per scale are enough for OpenBLAS
    # to split a matrix-vector product over two threads, which changes its
    # summation order; the sweep's reduction is an einsum, so one and two
    # BLAS threads write the same report and CSV
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    cfg["params"]["d"] = 2
    cfg["grid"].update(extents=[12.0, 12.0, 9.0], counts=[48, 48, 36])
    runs = [run_cli(cfg, blas_threads=n, name=f"threads_{n}") for n in (1, 2)]
    assert [code for code, _, _ in runs] == [0, 0], runs[0][2] + runs[1][2]
    (_, one, _), (_, two, _) = runs
    reports = [json.loads((out / "report.json").read_text())
               for out in (one, two)]
    assert report_json_bytes(reports[0], strip_timings=True) \
        == report_json_bytes(reports[1], strip_timings=True)
    assert (one / "certificates.csv").read_bytes() \
        == (two / "certificates.csv").read_bytes()


def test_cli_alpha_100_runs_without_warnings(tmp_path):
    # at alpha = 100 the measure still fits the float range, the self-tests
    # fail (exit 1 with a report) and sigma^{-2 deg} below the Donoho-Stark
    # regions must not overflow (pytest turns RuntimeWarnings into errors)
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    cfg["params"]["alpha"] = [100]
    cfg["grid"]["counts"] = [16, 16]
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    assert main(["run", "--config", str(path), "--out", str(out)]) == 1
    report = json.loads((out / "report.json").read_text())
    assert report["ok"] is False
    assert any(c["name"] == "donoho_stark"
               for c in report["runs"][0]["certificates"])


def test_cli_alpha_100_floor_guard_no_warnings(tmp_path):
    # sigma^{-2 deg} integrated from a floor of 0.05 leaves the float range
    # at alpha = 100: the guard says so (exit 3) and no overflow warning
    # comes before it
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    cfg["params"]["alpha"] = [100]
    cfg["grid"]["counts"] = [16, 16]
    cfg["donoho_stark"]["sigma_floors"] = [0.05]
    path = tmp_path / "alpha.json"
    path.write_text(json.dumps(cfg))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["run", "--config", str(path), "--out",
                     str(tmp_path / "out")])
    assert code == 3
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("alpha,counts,floor", [(0.5, 32, 1e45),
                                                (100, 16, 1e3)])
def test_cli_donoho_stark_decay_underflow_guard(tmp_path, capsys, alpha,
                                                counts, floor):
    # floor^{-2 deg} underflows: the decay integral would read 0 and the
    # ratio inf, which no JSON report can hold; the guard says so (exit 3)
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    cfg["params"]["alpha"] = [alpha]
    cfg["grid"]["counts"] = [counts, counts]
    cfg["donoho_stark"] = {"mass_fractions": [1.0], "sigma_floors": [floor]}
    path = tmp_path / "floor.json"
    path.write_text(json.dumps(cfg))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == 3
    assert "underflows" in capsys.readouterr().err


def test_cli_donoho_stark_floor_above_sampled_scales_is_vacuous(tmp_path):
    # sigma_max is ~81 on this 32^2 grid: a floor of 1000 leaves every
    # sampled scale below it, so nu = 1 and each certificate is vacuous
    # (integrating the sinc interpolant past the last node gave the
    # Gaussian nu = 0.99999973 and a violated certificate, ratio 181)
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    cfg["grid"]["counts"] = [32, 32]
    cfg["donoho_stark"] = {"mass_fractions": [1.0], "sigma_floors": [1000.0]}
    path = tmp_path / "ds.json"
    path.write_text(json.dumps(cfg))
    out = tmp_path / "out"
    main(["run", "--config", str(path), "--out", str(out)])
    report = json.loads((out / "report.json").read_text())
    ds = [c for c in report["runs"][0]["certificates"]
          if c["name"] == "donoho_stark"]
    assert {c["input_digest"].split(";")[0] for c in ds} == \
        {"gaussian_s1", "bump_0"}
    for c in ds:
        assert c["flags"]["nu"] == 1.0
        assert c["flags"]["vacuous"] is True
        assert c["satisfied"] is True
    assert report["certificates_ok"] is True


def test_cli_run_imports_no_scipy(tmp_path):
    # the runtime is numpy alone: with scipy unimportable a run still
    # succeeds, and no scipy module (not even a lazy import) gets loaded
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from weinstein.cli import main\n"
        f"code = main(['run', '--config', {str(path)!r}, '--out', "
        f"{str(tmp_path / 'out')!r}, '--format', 'json'])\n"
        "loaded = [m for m, v in sys.modules.items()\n"
        "          if m.startswith('scipy') and v is not None]\n"
        "print(code, loaded)\n"
    )
    src = pathlib.Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, cwd=tmp_path,
                          env=dict(os.environ, PYTHONPATH=str(src)))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[-2] == "0 []"


def test_cli_internal_error_exit(tmp_path, monkeypatch, capsys):
    # an unexpected exception is neither a certificate failure (1) nor a
    # config or guard error: exit 4 with the traceback on stderr
    def broken(config):
        raise RuntimeError("unexpected")

    monkeypatch.setattr("weinstein.cli.run", broken)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: unexpected" in err


def test_cli_run_and_seed_override(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(SMALL_CONFIG))
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o1"),
                 "--format", "json", "--seed", "7"])
    assert code == 0
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o2"),
                 "--format", "json", "--seed", "7"])
    assert code == 0
    b1 = (tmp_path / "o1" / "report.json").read_bytes()
    b2 = (tmp_path / "o2" / "report.json").read_bytes()
    d1 = json.loads(b1)
    d2 = json.loads(b2)
    assert d1["seed"] == 7
    d1.pop("timings")
    d2.pop("timings")
    assert json.dumps(d1, sort_keys=True) == json.dumps(d2, sort_keys=True)
    capsys.readouterr()
    code = main(["run", "--config", str(path), "--out", str(tmp_path / "o3"),
                 "--seed", "9" * 400])
    assert code == 2
    assert capsys.readouterr().err \
        == "config error: seed: an integer past the float range\n"


def test_cli_certificate_failure_exit(tmp_path):
    # an impossible tolerance forces a self-test failure and exit 1
    cfg = dict(SMALL_CONFIG)
    cfg["tolerances"] = {"multiplier_plancherel": 1e-15}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_cli_flagged_certificates_reported_not_failed(tmp_path):
    # an admissibility tolerance below the bump's sampled defect: the
    # mean-defect self-test fails and every multiplier certificate is
    # flagged hypothesis-violated, reported in strict JSON and not counted
    # as a certificate failure
    cfg = dict(SMALL_CONFIG)
    cfg["tolerances"] = {**cfg["tolerances"], "admissibility": 1e-15}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "flagged")]) == 1

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads((tmp_path / "flagged" / "report.json").read_text(),
                        parse_constant=reject)
    assert not report["self_tests_ok"]
    mult_certs = [c for c in report["runs"][0]["certificates"]
                  if c["name"] == "multiplier_heisenberg"]
    assert mult_certs
    assert all(c["flags"]["hypothesis_violated"]
               and c["flags"]["admissibility_defect"] > 1e-15
               for c in mult_certs)
    assert report["certificates_ok"]


@pytest.mark.parametrize("edit,message", [
    (_set("grid", "counts", [1e9, 16]), "grid.counts: at most 4096 per axis"),
    (_set("grid", "counts", [1e300, 16]), "grid.counts: at most 4096 per axis"),
    # under the points budget, but one axis' dense factors are 1 GiB
    (_set("grid", "counts", [16, 8192]), "grid.counts: at most 4096 per axis"),
    (_set("grid", "counts", [2048, 4096]),
     "and 4194304 points in all"),
    (_set("test_functions", "random_bumps", 1e9),
     "test_functions.random_bumps: at most 65536 on this grid"),
    # on the largest grid a Gaussian field each, or a weight row per
    # distinct beta (0 and 1 always swept), fit four times
    (_edits(_set("grid", "counts", [4096, 1024]),
            _set("test_functions", "gaussian_scales", [1, 2, 3, 4, 5])),
     "test_functions.gaussian_scales: at most 4 on this grid"),
    (_edits(_set("grid", "counts", [4096, 1024]),
            _set("general_exponents", [[1, 1], [2, 1], [3, 2], [4, 1]])),
     "general_exponents: at most 4 distinct beta"),
    # every list holds at most 64 entries, and a run makes at most 1024
    # certificates (here 1 Gaussian + 1024 bumps, one certificate each)
    (_set("params", "alpha", _distinct(65)),
     "params.alpha: at most 64 entries"),
    (_set("test_functions", "gaussian_scales", _distinct(65)),
     "test_functions.gaussian_scales: at most 64 entries"),
    (_set("certificates", ["heisenberg"] * 65),
     "certificates: at most 64 entries"),
    (_set("general_exponents", [[b, 1] for b in _distinct(65)]),
     "general_exponents: at most 64 entries"),
    (_set("donoho_stark", "mass_fractions", _distinct(65, 1 / 65)),
     "donoho_stark.mass_fractions: at most 64 entries"),
    (_set("donoho_stark", "sigma_floors", _distinct(65)),
     "donoho_stark.sigma_floors: at most 64 entries"),
    (_edits(_set("test_functions", "random_bumps", 1024),
            _set("certificates", ["heisenberg"])),
     "certificates: at most 1024 in all"),
], ids=["counts_1e9", "counts_1e300", "counts_axis_8192",
        "counts_2048x4096", "random_bumps_1e9", "gaussian_scales_5",
        "general_exponents_5_betas", "alpha_65", "gaussian_scales_65",
        "certificates_65", "general_exponents_65", "mass_fractions_65",
        "sigma_floors_65", "certificates_1025"])
def test_size_budgets_refuse_before_allocating(edit, message):
    # each is refused while the config is parsed, before any grid-sized
    # array exists (a 1e9 x 16 grid's |x|^2 alone is 128 GB)
    cfg = json.loads(DEFAULT_CONFIG.read_text())
    cfg["grid"]["counts"] = [16, 16]
    edit(cfg)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigError, match=message):
            ExperimentConfig.from_dict(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


# (config edit, attributes it must parse to) at the limits of the budgets
ADMITTED = [
    (_edits(_set("grid", "counts", [1024, 4096]),
            _set("test_functions", "random_bumps", 4),
            _set("test_functions", "gaussian_scales", [1, 2, 3, 4]),
            _set("general_exponents", [[1, 1], [2, 1], [3, 2], [3, 1]])),
     {"counts": (1024, 4096), "random_bumps": 4,
      "gaussian_scales": (1.0, 2.0, 3.0, 4.0)}),
    # 64 entries in each list (four distinct certificate names are all
    # there are), and exactly 1024 certificates
    (_edits(_set("params", "alpha", _distinct(64)),
            _set("certificates", ["heisenberg"])),
     {"alphas": tuple(_distinct(64))}),
    (_set("test_functions", "gaussian_scales", _distinct(64)),
     {"gaussian_scales": tuple(_distinct(64))}),
    (_set("general_exponents", [[b, 1] for b in _distinct(64)]),
     {"general_exponents": tuple((b, 1.0) for b in _distinct(64))}),
    (_set("donoho_stark", "mass_fractions", _distinct(64, 1 / 64)),
     {"donoho_stark": {"mass_fractions": tuple(_distinct(64, 1 / 64)),
                       "sigma_floors": (1.0, 2.0)}}),
    (_set("donoho_stark", "sigma_floors", _distinct(64)),
     {"donoho_stark": {"mass_fractions": (0.9, 0.99),
                       "sigma_floors": tuple(_distinct(64))}}),
    (_edits(_set("test_functions", "random_bumps", 1023),
            _set("certificates", ["heisenberg"])),
     {"random_bumps": 1023, "certificates": ("heisenberg",)}),
]


def test_size_budgets_admit_their_limits():
    for edit, expect in ADMITTED:
        cfg = json.loads(DEFAULT_CONFIG.read_text())
        cfg["grid"]["counts"] = [16, 16]
        edit(cfg)
        config = ExperimentConfig.from_dict(cfg)
        assert {name: getattr(config, name) for name in expect} == expect


def test_self_test_zero_norm_guard():
    # on a box this wide the self-test Gaussian is 0 at every grid point,
    # so its transform's norm is 0: a numeric guard, not a ZeroDivisionError
    from weinstein import (WeinsteinParams, build_grid, gaussian_field,
                           make_admissible_radial, make_plan,
                           multiplier_sweep)
    grid = build_grid(WeinsteinParams(d=1, alpha=0.5), (1e4, 15.0), (16, 16),
                      radial_scheme="collocation")
    plan = make_plan(grid)
    f = gaussian_field(grid)
    assert not f.values.any()
    stats = multiplier_sweep(plan, make_admissible_radial(plan), f)
    with pytest.raises(MeasureRangeError,
                       match="self-test Gaussian's transform has norm 0"):
        _self_tests(stats)


REPO = DEFAULT_CONFIG.parents[1]
PERFBENCH_D2 = REPO / "perfbench" / "configs" / "d2_cube.json"


@pytest.mark.parametrize("args", [
    ["--config", str(DEFAULT_CONFIG), "--seed", "1"],
    ["--config", str(PERFBENCH_D2), "--seed", "1"],
    ["--lib"]], ids=["default", "d2_cube", "lib"])
def test_benchmark_contract_plan_names(args):
    # the benchmark's set-up (perfbench/child.py) still runs against the
    # package: it parses each run config and plans with the config's
    # normalization, or builds the library workload's plans, and prints
    # one JSON line.  Its traces key on the plan's normalization and method
    from weinstein import WeinsteinParams, build_grid, make_plan
    proc = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "child.py"), "setup", *args],
        capture_output=True, text=True, timeout=120, cwd=REPO,
        env=dict(os.environ, PYTHONPATH=str(REPO / "src"),
                 OPENBLAS_NUM_THREADS="1"))
    assert proc.returncode == 0, proc.stderr
    assert "setup_s" in json.loads(proc.stdout.splitlines()[-1])
    plan = make_plan(build_grid(WeinsteinParams(d=1, alpha=0.5), (8.0, 8.0),
                                (16, 16)), normalization="self-reciprocal")
    assert (plan.normalization, plan.method) \
        == ("self-reciprocal", "fast_separable")


def test_readme_lists_every_config_key():
    # README's table of config keys names exactly the paths of CONFIG_KEYS
    readme = (REPO / "README.md").read_text()
    table = readme.split("| Key | Default | Accepted values |\n")[1]
    table = table.split("\n\n")[0]
    listed = re.findall(r"^\| `([\w.]+)` \|", table, re.MULTILINE)
    assert sorted(listed) == sorted(key.path for key in CONFIG_KEYS)
