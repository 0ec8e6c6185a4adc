import json
import pathlib
import warnings

import pytest

from weinstein.cli import main
from weinstein.errors import ConfigError
from weinstein.report import (ExperimentConfig, emit, report_csv,
                              report_json_bytes, run, self_tests_pass)

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
    # all of its certificates
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

    for module in ("report", "uncertainty", "multiplier"):
        monkeypatch.setattr(f"weinstein.{module}.multiplier_sweep",
                            counted_sweep)
    for module in ("uncertainty", "multiplier", "transform"):
        monkeypatch.setattr(f"weinstein.{module}.forward", counted_forward)
    report = run(json.loads(DEFAULT_CONFIG.read_text()))
    assert report["ok"] is True
    assert calls["sweep"] == [(0.0, 1.0, 2.0)] * 2
    # 2 sweeps + the spectral route of the kernel-vs-spectral check; the
    # fast-vs-direct check reads the sweep's transform
    assert calls["forward"] == 3


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
def test_run_builds_no_point_pair_kernel_matrix(doc, monkeypatch):
    # both oracles run on the run's grid through per-axis factors, so no
    # kernel matrix over point pairs (grid size squared entries) is built
    import weinstein._accel

    calls = []

    def counted(lam_pts, x_pts, alpha, sign=-1.0):
        calls.append((len(lam_pts), len(x_pts)))
        return kernel_matrix(lam_pts, x_pts, alpha, sign)

    kernel_matrix = weinstein._accel.kernel_matrix
    monkeypatch.setattr(weinstein._accel, "kernel_matrix", counted)
    report = run(dict(doc))
    tol = report["config"]["tolerances"]["fast_vs_direct"]
    st = report["runs"][0]["self_tests"]
    assert st["fast_vs_direct_rel_l2"] <= tol
    assert st["kernel_vs_spectral_rel_l2"] <= tol
    assert calls == []


def test_timings_keyed_per_alpha():
    # every stage keeps one time per alpha; no alpha overwrites another
    report = run({**SMALL_CONFIG, "params": {"d": 1, "alpha": [0.5, 1.5]}})
    stages = ("setup", "sweeps", "self_tests", "certificates")
    assert set(report["timings"]) == {"total"} | {
        f"{stage}_alpha_{a}" for stage in stages for a in ("0.5", "1.5")}
    assert all(t >= 0 for t in report["timings"].values())


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


def test_cli_config_error(tmp_path):
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


def test_cli_certificate_failure_exit(tmp_path):
    # an impossible tolerance forces a self-test failure and exit 1
    cfg = dict(SMALL_CONFIG)
    cfg["tolerances"] = {"multiplier_plancherel": 1e-15}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path), "--out", str(tmp_path)]) == 1


def test_cli_modulus_variant_reported_and_fails(tmp_path):
    # the bump is not admissible in the first-power variant: the sampled
    # defect blows past tolerance, multiplier certificates are flagged
    # hypothesis-violated (not counted), and the run exits nonzero
    cfg = dict(SMALL_CONFIG)
    cfg["multiplier"] = {"family": "gaussian_bump", "variant": "modulus"}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    assert main(["run", "--config", str(path),
                 "--out", str(tmp_path / "mod")]) == 1

    def reject(name):
        raise ValueError(f"non-standard JSON constant {name}")

    report = json.loads((tmp_path / "mod" / "report.json").read_text(),
                        parse_constant=reject)
    st = report["runs"][0]["self_tests"]
    assert st["sampled_admissibility_mean_defect"] > 0.1
    assert not report["self_tests_ok"]
    mult_certs = [c for c in report["runs"][0]["certificates"]
                  if c["name"] == "multiplier_heisenberg"]
    assert mult_certs
    assert all(c.get("flags", {}).get("hypothesis_violated")
               and c["flags"]["admissibility_variant"] == "modulus"
               for c in mult_certs)
    assert report["certificates_ok"]  # flagged certs are not failures


def test_modulus_variant_flags_certificates(tmp_path):
    # selecting the first-power admissibility variant for the bump leaves
    # the dilation average far from 1: multiplier certificates get the
    # hypothesis-violated flag and do not count as failures
    from weinstein import (MultiplierProfile, build_grid, gaussian_field,
                           make_plan, WeinsteinParams,
                           multiplier_heisenberg_certificate,
                           make_admissible_radial)
    p = WeinsteinParams(d=1, alpha=0.5)
    g = build_grid(p, (7.0, 7.0), (48, 48), radial_scheme="collocation")
    plan = make_plan(g)
    base = make_admissible_radial(plan)
    modulus = MultiplierProfile(
        grid=base.grid, radial_profile=base.radial_profile,
        sigma_grid=base.sigma_grid, admissibility_variant="modulus")
    cert = multiplier_heisenberg_certificate(plan, modulus, gaussian_field(g))
    assert cert.hypothesis_violated
