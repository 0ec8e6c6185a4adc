import json
import pathlib

import pytest

from weinstein.cli import main
from weinstein.errors import ConfigError
from weinstein.report import (ExperimentConfig, emit, report_csv,
                              report_json_bytes, run)

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
            ({"certificates": 1}, "certificates")):
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


def test_report_determinism():
    r1 = run(dict(SMALL_CONFIG))
    r2 = run(dict(SMALL_CONFIG))
    assert report_json_bytes(r1, strip_timings=True) \
        == report_json_bytes(r2, strip_timings=True)
    r3 = run({**SMALL_CONFIG, "seed": 100})
    assert report_json_bytes(r1, strip_timings=True) \
        != report_json_bytes(r3, strip_timings=True)


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
    report = json.loads((tmp_path / "mod" / "report.json").read_text())
    st = report["runs"][0]["self_tests"]
    assert st["sampled_admissibility_mean_defect"] > 0.1
    assert not report["self_tests_ok"]
    mult_certs = [c for c in report["runs"][0]["certificates"]
                  if c["name"] == "multiplier_heisenberg"]
    assert mult_certs
    assert all(c.get("flags", {}).get("hypothesis_violated")
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
        symbol=base.symbol, sigma_grid=base.sigma_grid,
        admissibility_variant="modulus",
        radial_profile=base.radial_profile)
    cert = multiplier_heisenberg_certificate(plan, modulus, gaussian_field(g))
    assert cert.hypothesis_violated
