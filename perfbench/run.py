#!/usr/bin/env python3
"""Benchmark of the weinstein package.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout: it imports the package from
``src/`` and reads ``configs/default.json``, and exits with code 2 when
either is missing.  Every workload is a closed loop with one client: one
pass runs after another, each ``run_*`` pass in a child process and the
library passes in one long-lived child, all with one BLAS thread.

``--trace 0`` measures the end-to-end metrics with tracing off: set-up in
its own child processes (median of several, half before the passes and half
after), then passes until the next one would overrun ``--seconds`` (at
least one); ``wall_s`` is the fastest pass (see perfbench/README.md for
how the library pass is timed).  ``--trace 1`` runs one
untraced pass and one traced pass and reports per-layer metrics from the
traced one; ``trace.overhead_s`` is the difference of the two walls.

Human-readable lines go first; the last stdout line is one JSON object
with the keys correct, attempted, failed and metrics.  Environment, samples
and the traced spans are written under ``.bench_out/<workload>/``.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OUT_ROOT = ".bench_out"
DEADLINE_S = 170.0          # a run must end within 180 s
SETUP_REPEATS = 10
# On a 2-core host a second BLAS thread shortened a pass by less than a
# tenth (library pass 5.4 s against 5.8 s, run_d1_default 13.3 s against
# 13.9 s) but doubled its CPU time, as the idle thread spins; the library
# workload's wall_s spread over ten seeds was 0.26 with two threads against
# 0.12 and 0.17 with one (IQR/median).
BLAS_THREADS = 1

# Certificates every run_* pass must produce (2 fields x 10 per field), and
# the seed-independent Gaussian-field certificates that are already vacuous
# at the baseline; any other vacuous Gaussian certificate is a regression.
# Vacuity of the seeded bump field's certificates depends on the seed and
# is not judged.
RUN_CERTIFICATES = {"heisenberg": 2, "multiplier_heisenberg": 2,
                    "general_heisenberg": 8, "donoho_stark": 8}
WORKLOADS = {
    "run_d1_default": {
        "config": "configs/default.json",
        "vacuous_reference": {"gaussian_s1;q=0.9;floor=1",
                              "gaussian_s1;q=0.9;floor=2",
                              "gaussian_s1;q=0.99;floor=2"},
    },
    "run_d2_cube": {
        "config": os.path.join(HERE, "configs", "d2_cube.json"),
        "vacuous_reference": {"gaussian_s1;q=0.9;floor=1",
                              "gaussian_s1;q=0.9;floor=2",
                              "gaussian_s1;q=0.99;floor=1",
                              "gaussian_s1;q=0.99;floor=2"},
    },
    "lib_translate_convolve": {"config": None},
}

# self-test value -> tolerance key, as report.run judges self_tests_ok
SELF_TEST_TOLERANCES = {
    "plancherel_defect": "plancherel",
    "roundtrip_max_abs": "roundtrip",
    "fast_vs_direct_rel_l2": "fast_vs_direct",
    "multiplier_plancherel_defect": "multiplier_plancherel",
    "sampled_admissibility_mean_defect": "admissibility",
}

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
                    "tol_margin_max": "ratio"}


# ---------------------------------------------------------------------------
# per-layer metrics from the traced pass
# ---------------------------------------------------------------------------

def _fn(span, stat):
    return [span], lambda t: t["functions"].get(span, {}).get(stat, 0)


def _unique_ratio(span):
    def value(t):
        calls = t["functions"].get(span, {}).get("calls", 0)
        return t["unique"].get(span, 0) / calls if calls else 0.0
    return [span], value


def _make_plan_s():
    spans = ["transform.make_plan", "transform.TransformPlan.kernel_cache"]

    def value(t):
        return sum(t["functions"].get(s, {}).get("total_s", 0.0)
                   for s in spans)
    return spans, value


# name -> (unit, label, spans it needs, value from the trace summary)
# label: "counted" is an exact count made at the call boundary, "computed"
# is derived from array sizes, "measured" is a size that varies slightly
# between runs, "timed" is a wall-clock measurement.
LAYER_METRICS = {}


def _layer(name, unit, label, spec):
    LAYER_METRICS[name] = (unit, label) + tuple(spec)


for _span in ("multiplier.dilate_symbol", "multiplier.multiplier_sweep",
              "transform.forward", "transform.inverse"):
    _layer(f"{_span}.calls", "count", "counted", _fn(_span, "calls"))
for _span in ("multiplier.dilate_symbol", "interp.interp_offset_1d",
              "multiplier.multiplier_sweep",
              "multiplier.admissibility_defect",
              "uncertainty.heisenberg_certificate",
              "uncertainty.multiplier_heisenberg_certificate",
              "uncertainty.general_heisenberg_certificate",
              "uncertainty.donoho_stark_certificate",
              "uncertainty.aggregated_dispersion",
              "uncertainty.sigma_concentration_defect",
              "core.theta_integral", "transform.forward", "transform.inverse",
              "transform.direct_quadrature", "accel.direct_transform",
              "multiplier.apply_multiplier_kernel", "accel.j_alpha",
              "accel.kernel_matrix", "bessel.weinstein_kernel",
              "translation.translate_direct", "translation.translate_spectral",
              "translation.convolve", "translation.convolve_direct",
              "translation.radial_mix_matrix", "interp.radial_cubic_matrix",
              "interp.uniform_linear_matrix", "report.run"):
    _layer(f"{_span}.self_s", "s", "timed", _fn(_span, "self_s"))
_layer("multiplier.sweep.unique_ratio", "ratio", "counted",
       _unique_ratio("multiplier.multiplier_sweep"))
_layer("transform.forward.unique_ratio", "ratio", "counted",
       _unique_ratio("transform.forward"))
_layer("multiplier.sweep.bytes_max", "B", "computed",
       (["multiplier.multiplier_sweep"],
        lambda t: t["maxima"].get("multiplier.sweep.bytes", 0)))
_layer("transform.direct_quadrature.pairs", "count", "computed",
       (["transform.direct_quadrature"],
        lambda t: t["counters"].get("transform.direct_quadrature.pairs", 0)))
_layer("accel.j_alpha.args", "count", "counted",
       (["accel.j_alpha"],
        lambda t: t["counters"].get("accel.j_alpha.args", 0)))
_layer("transform.make_plan.s", "s", "timed", _make_plan_s())
_layer("multiplier.make_admissible_radial.s", "s", "timed",
       _fn("multiplier.make_admissible_radial", "total_s"))
_layer("report.emit.s", "s", "timed", _fn("report.emit", "total_s"))
_layer("report.emit.bytes", "B", "measured",
       (["report.emit"], lambda t: t["counters"].get("report.emit.bytes", 0)))
# trace.overhead_s is added from the two pass walls
TRACE_OVERHEAD = "trace.overhead_s"


# ---------------------------------------------------------------------------
# child processes
# ---------------------------------------------------------------------------

class Runner:
    """Starts children one at a time and reaps each with its rusage."""

    def __init__(self, root, out_dir):
        self.root = root
        self.out_dir = out_dir
        self.start = time.perf_counter()
        self.nproc = len(os.sched_getaffinity(0)) \
            if hasattr(os, "sched_getaffinity") else os.cpu_count()
        self.threads = BLAS_THREADS
        env = dict(os.environ)
        src = os.path.join(root, "src")
        env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                                   if env.get("PYTHONPATH") else "")
        for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                    "MKL_NUM_THREADS"):
            env[var] = str(self.threads)
        self.env = env
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def remaining(self):
        return DEADLINE_S - (time.perf_counter() - self.start)

    def spawn(self, argv, tag):
        """Run one child to exit: (exit code, wall s, peak RSS MB, stdout)."""
        out_path = os.path.join(self.out_dir, tag + ".stdout")
        err_path = os.path.join(self.out_dir, tag + ".stderr")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, cwd=self.root, env=self.env,
                                    stdout=out, stderr=err)
        watchdog = threading.Timer(max(self.remaining(), 1.0), proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path) as fh:
            stdout = fh.read()
        return proc.returncode, wall, usage.ru_maxrss / 1024.0, stdout

    def fail(self, tag, *messages):
        """Count one failed operation and log why."""
        self.failed += 1
        for message in messages:
            self.problems.append(f"{tag}: {message}")
            print(f"FAILED {tag}: {message}", file=sys.stderr)


def _last_json(stdout):
    lines = stdout.strip().splitlines()
    if not lines:
        return None
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return None


def run_setup(runner, workload, seed, tag):
    """One set-up child: (set-up seconds, environment) or None on failure."""
    argv = [sys.executable, CHILD, "setup"]
    cfg = WORKLOADS[workload]["config"]
    argv += ["--lib"] if cfg is None else ["--config", cfg, "--seed", str(seed)]
    runner.attempted += 1
    code, _wall, _rss, stdout = runner.spawn(argv, tag)
    doc = _last_json(stdout)
    if code != 0 or doc is None:
        runner.fail(tag, f"set-up child exited with {code}")
        return None
    src = os.path.join(runner.root, "src") + os.sep
    if not doc["env"]["weinstein_file"].startswith(src):
        runner.fail(tag, "imported weinstein from outside the checkout: "
                    + doc["env"]["weinstein_file"])
        return None
    return doc["setup_s"], doc["env"]


def check_report(path, workload):
    """Problems found in one run report, and its worst self-test margin."""
    with open(path) as fh:
        report = json.load(fh)
    problems = []
    if not report.get("ok"):
        problems.append("report ok is false")
    if not report.get("self_tests_ok"):
        problems.append("self_tests_ok is false")
    tol = report["config"]["tolerances"]
    margin = 0.0
    certs = []
    for block in report["runs"]:
        for key, tol_key in SELF_TEST_TOLERANCES.items():
            ratio = block["self_tests"][key] / tol[tol_key]
            margin = max(margin, ratio)
            if ratio > 1.0:
                problems.append(f"self-test {key} exceeds its tolerance")
        certs.extend(block["certificates"])
    counts = {}
    for c in certs:
        counts[c["name"]] = counts.get(c["name"], 0) + 1
    if counts != RUN_CERTIFICATES:
        problems.append(f"certificate counts {counts} != {RUN_CERTIFICATES}")
    reference = WORKLOADS[workload]["vacuous_reference"]
    for c in certs:
        flags = c.get("flags", {})
        digest = c["input_digest"]
        if flags.get("hypothesis_violated"):
            problems.append(f"{c['name']} {digest} hypothesis violated")
        if flags.get("vacuous") and (c["name"] != "donoho_stark" or (
                digest.startswith("gaussian_") and digest not in reference)):
            problems.append(f"{c['name']} {digest} turned vacuous")
        if not c["satisfied"]:
            problems.append(f"{c['name']} {digest} not satisfied")
    return problems, margin


def run_cli_pass(runner, workload, seed, tag, trace_path=None):
    """One `weinstein run` child: dict with ok, wall_s, peak_rss_mb, margin."""
    out = os.path.join(runner.out_dir, tag)
    cli = ["run", "--config", WORKLOADS[workload]["config"], "--seed",
           str(seed), "--out", out, "--format", "both"]
    if trace_path is None:
        argv = [sys.executable, "-m", "weinstein.cli"] + cli
    else:
        argv = [sys.executable, CHILD, "cli", "--trace", trace_path, "--"] + cli
    report_path = os.path.join(out, "report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    runner.attempted += 1
    code, wall, rss, _stdout = runner.spawn(argv, tag)
    res = {"ok": False, "wall_s": wall, "peak_rss_mb": rss, "margin": None}
    if code != 0:
        runner.fail(tag, f"weinstein run exited with {code}")
        return res
    if not os.path.isfile(report_path):
        runner.fail(tag, "weinstein run wrote no report.json")
        return res
    try:
        problems, res["margin"] = check_report(report_path, workload)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        problems = [f"report.json lacks an expected field: {exc!r}"]
    if problems:
        runner.fail(tag, *problems)
    res["ok"] = not problems
    return res


def run_lib_child(runner, seed, seconds, tag, trace_path=None):
    """One library-driver child: dict with the pass wall estimated from its
    timed calls (None when a part was never timed), the worst check margin,
    per-part call counts and times, and the child's wall and peak RSS."""
    with open(os.path.join(runner.root, "configs", "default.json")) as fh:
        roundtrip_tol = json.load(fh)["tolerances"]["roundtrip"]
    argv = [sys.executable, CHILD, "lib", "--seed", str(seed), "--seconds",
            repr(float(seconds)), "--roundtrip-tol", repr(roundtrip_tol)]
    if trace_path is not None:
        argv += ["--trace", trace_path]
    code, wall, rss, stdout = runner.spawn(argv, tag)
    res = {"ok": False, "wall_s": None, "margin": None, "child_wall_s": wall,
           "peak_rss_mb": rss}
    doc = _last_json(stdout)
    if code != 0 or doc is None:
        runner.attempted += 1
        runner.fail(tag, f"library driver exited with {code}")
        return res
    failed = runner.failed
    for i, checks in enumerate(doc["checks"]):
        runner.attempted += 1
        bad = [f"{k} {value:.3e} exceeds its tolerance {tol:g}"
               for k, (value, tol) in checks.items() if value > tol]
        if bad:
            runner.fail(f"{tag} pass {i}", *bad)
        res["margin"] = max([value / tol for value, tol in checks.values()]
                            + [res["margin"] or 0.0])
    times = doc["times"]
    res["parts"] = {part: {"calls": len(t), "min_s": min(t),
                           "median_s": statistics.median(t)}
                    for part, t in times.items() if t}
    if times and all(times.values()):
        # A whole pass, each part's calls at that part's fastest call.  On
        # a shared host, contention only ever slows a call, and it comes in
        # phases of seconds to minutes that slow every part by up to 1.5x;
        # over 30 s the per-call minimum moved by a tenth where the mean
        # and the median moved by over a quarter.
        res["wall_s"] = sum(n * res["parts"][part]["min_s"]
                            for part, n in doc["pass_counts"].items())
    res["ok"] = runner.failed == failed
    return res


# ---------------------------------------------------------------------------
# the two kinds of run
# ---------------------------------------------------------------------------

def measure(runner, workload, seed, seconds):
    """Tracing off: end-to-end samples."""
    samples = {"setup_s": [], "wall_s": [], "peak_rss_mb": [],
               "tol_margin": []}
    env = None

    def setup(indices):
        nonlocal env
        for i in indices:
            got = run_setup(runner, workload, seed, f"setup{i}")
            if got is not None:
                samples["setup_s"].append(got[0])
                env = env or got[1]

    half = SETUP_REPEATS // 2
    setup(range(half))
    if WORKLOADS[workload]["config"] is None:
        # one long-lived process that times every library call
        res = run_lib_child(runner, seed, seconds, "lib")
        passes = [res] if res["wall_s"] is not None else []
        samples["peak_rss_mb"].append(res["peak_rss_mb"])
        samples["lib_parts"] = res.get("parts")
        if res["margin"] is not None:
            samples["tol_margin"].append(res["margin"])
    else:
        passes = []
        start = time.perf_counter()
        while True:
            res = run_cli_pass(runner, workload, seed, f"pass{len(passes)}")
            passes.append(res)
            samples["peak_rss_mb"].append(res["peak_rss_mb"])
            if res["margin"] is not None:
                samples["tol_margin"].append(res["margin"])
            spent = time.perf_counter() - start
            expected = spent / len(passes)
            if spent + expected > seconds or runner.remaining() < 2 * expected:
                break
    samples["wall_s"] = [p["wall_s"] for p in passes]
    # the rest of the set-up children after the passes, so that the set-up
    # median samples the host at both ends of the run
    setup(range(half, SETUP_REPEATS))
    metrics = {}
    if samples["wall_s"]:
        # the fastest pass: contention from other tenants only slows one
        metrics["wall_s"] = min(samples["wall_s"])
    for name in ("setup_s", "peak_rss_mb"):
        if samples[name]:
            metrics[name] = statistics.median(samples[name])
    if samples["tol_margin"]:
        metrics["tol_margin_max"] = max(samples["tol_margin"])
    return metrics, samples, env


def trace(runner, workload, seed):
    """One untraced and one traced pass: per-layer metrics, and the traced
    names that are missing or could not be counted."""
    got = run_setup(runner, workload, seed, "setup0")
    env = got[1] if got else None
    spans_path = os.path.join(runner.out_dir, f"spans-seed{seed}.json")
    if os.path.exists(spans_path):
        os.remove(spans_path)
    if WORKLOADS[workload]["config"] is None:
        plain = run_lib_child(runner, seed, 0, "plain")
        traced = run_lib_child(runner, seed, 0, "traced", spans_path)
        plain_wall, traced_wall = plain["child_wall_s"], traced["child_wall_s"]
        ok = plain["ok"] and traced["ok"]
    else:
        plain = run_cli_pass(runner, workload, seed, "plain")
        traced = run_cli_pass(runner, workload, seed, "traced", spans_path)
        plain_wall, traced_wall = plain["wall_s"], traced["wall_s"]
        ok = plain["ok"] and traced["ok"]
    metrics, absent = {}, []
    if ok and os.path.exists(spans_path):
        with open(spans_path) as fh:
            summary = json.load(fh)
        wrapped = set(summary["wrapped"])
        for name, (_unit, _label, spans, value) in LAYER_METRICS.items():
            absent.extend(s for s in spans if s not in wrapped)
            metrics[name] = value(summary)
        metrics[TRACE_OVERHEAD] = traced_wall - plain_wall
        for name, error in summary["hook_errors"].items():
            # a changed signature leaves that count incomplete, not the run
            absent.append(f"{name} (count hook: {error})")
    elif ok:
        runner.fail("traced", "the traced pass wrote no spans")
    return metrics, sorted(set(absent)), env


# ---------------------------------------------------------------------------

def git_commit(root):
    if not os.path.isdir(os.path.join(root, ".git")):
        return None
    try:
        res = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    root = os.getcwd()
    for need in (os.path.join("src", "weinstein", "__init__.py"),
                 os.path.join("configs", "default.json")):
        if not os.path.isfile(os.path.join(root, need)):
            print(f"error: {need} not found; run from the root of a weinstein "
                  "source checkout", file=sys.stderr)
            return 2
    out_dir = os.path.join(root, OUT_ROOT, args.workload)
    os.makedirs(out_dir, exist_ok=True)
    runner = Runner(root, out_dir)

    if args.trace:
        metrics, absent, env = trace(runner, args.workload, args.seed)
        units = {name: spec[0] for name, spec in LAYER_METRICS.items()}
        units[TRACE_OVERHEAD] = "s"
        labels = {name: spec[1] for name, spec in LAYER_METRICS.items()}
        labels[TRACE_OVERHEAD] = "timed"
        samples = None
    else:
        metrics, samples, env = measure(runner, args.workload, args.seed,
                                        args.seconds)
        units, labels, absent = END_TO_END_UNITS, None, []

    failed = runner.failed
    correct = failed == 0 and set(metrics) == set(units)
    environment = dict(env or {}, nproc=runner.nproc,
                       blas_threads=runner.threads,
                       git_commit=git_commit(root))
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": environment, "samples": samples,
              "metrics": metrics, "labels": labels, "absent": absent,
              "attempted": runner.attempted, "failed": failed,
              "problems": runner.problems}
    detail_path = os.path.join(out_dir,
                               f"result-seed{args.seed}-trace{args.trace}.json")
    with open(detail_path, "w") as fh:
        json.dump(detail, fh, indent=1)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}")
    print("environment " + json.dumps(environment, sort_keys=True))
    for name in sorted(metrics):
        extra = ""
        if samples is not None:
            key = "tol_margin" if name == "tol_margin_max" else name
            extra = f"  (n={len(samples[key])})"
        elif labels is not None:
            extra = f"  [{labels[name]}]"
        print(f"  {name:48s} {metrics[name]:.6g} {units[name]}{extra}")
    for part, row in sorted(((samples or {}).get("lib_parts") or {}).items()):
        print(f"  library part {part:12s} {row['calls']:6d} calls, "
              f"min {row['min_s']:.6g} s, median {row['median_s']:.6g} s")
    if absent:
        print("absent or not counted (reported as 0 or partial): "
              + ", ".join(absent))
    print(f"  failed_frac {failed}/{runner.attempted}")
    print(json.dumps({
        "correct": correct,
        "attempted": max(runner.attempted, 1),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
