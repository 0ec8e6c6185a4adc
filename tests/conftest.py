import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import weinstein.transform
from weinstein import (WeinsteinParams, build_grid, make_admissible_radial,
                       make_plan)

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def plan_half():
    """Workhorse d=1, alpha=1/2 plan on the default uniform-offset grid."""
    params = WeinsteinParams(d=1, alpha=0.5)
    grid = build_grid(params, (8.0, 8.0), (128, 128))
    return make_plan(grid)


@pytest.fixture(scope="session")
def plan_half_wide():
    """Wider box for convolution tests (convolutions outgrow their factors)."""
    params = WeinsteinParams(d=1, alpha=0.5)
    grid = build_grid(params, (13.0, 13.0), (128, 128))
    return make_plan(grid)


@pytest.fixture(scope="session")
def plan_one_colloc():
    """alpha=1 plan on a collocation radial axis (spectrally exact weights)."""
    params = WeinsteinParams(d=1, alpha=1.0)
    grid = build_grid(params, (8.0, 8.0), (96, 96), radial_scheme="collocation")
    return make_plan(grid)


@pytest.fixture(scope="session")
def plan_2d():
    params = WeinsteinParams(d=2, alpha=1.0)
    grid = build_grid(params, (6.5, 6.5, 6.5), (48, 48, 48),
                      radial_scheme="collocation")
    return make_plan(grid)


@pytest.fixture(scope="session")
def plan_2d_small():
    """A small d=2 plan for checks that materialize every sigma scale."""
    params = WeinsteinParams(d=2, alpha=1.0)
    grid = build_grid(params, (6.5, 6.5, 6.5), (24, 24, 24),
                      radial_scheme="collocation")
    return make_plan(grid)


@pytest.fixture(scope="session")
def bump_profile(plan_mult):
    return make_admissible_radial(plan_mult)


@pytest.fixture(scope="session")
def plan_mult():
    """Grid sized so the multiplier family's output fits the box."""
    params = WeinsteinParams(d=1, alpha=0.5)
    grid = build_grid(params, (12.0, 12.0), (192, 192))
    return make_plan(grid)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)


@pytest.fixture()
def kernel_calls(monkeypatch):
    """The list of (lam, x) argument pairs of every ``weinstein_kernel``
    call made while the test runs, through any of the package's module
    namespaces."""
    calls = []
    kernel = weinstein.transform.weinstein_kernel

    def counted(params, lam, x):
        calls.append((lam, x))
        return kernel(params, lam, x)

    for name, mod in list(sys.modules.items()):
        if name == "weinstein" or name.startswith("weinstein."):
            if getattr(mod, "weinstein_kernel", None) is kernel:
                monkeypatch.setattr(mod, "weinstein_kernel", counted)
    return calls


@pytest.fixture()
def run_cli(tmp_path):
    """A function running ``weinstein run`` on a config document in a fresh
    interpreter (PYTHONPATH=src) with a given BLAS thread count, so no
    in-process warning filter decides its exit code.  It returns the exit
    code, the output directory and stderr."""
    def run(config, blas_threads=1, name="run"):
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(config))
        out = tmp_path / name
        threads = str(blas_threads)
        env = dict(os.environ, PYTHONPATH=str(SRC),
                   OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   MKL_NUM_THREADS=threads)
        proc = subprocess.run(
            [sys.executable, "-m", "weinstein.cli", "run", "--config",
             str(path), "--out", str(out)],
            capture_output=True, text=True, timeout=300, cwd=tmp_path,
            env=env)
        return proc.returncode, out, proc.stderr

    return run
