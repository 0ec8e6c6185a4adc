"""Child-process side of the benchmark; started by run.py, never by hand.

    child.py setup --config FILE --seed N     time the set-up of a run
    child.py setup --lib                      time the library plans
    child.py lib --seed N --seconds S --roundtrip-tol T [--trace FILE]
    child.py cli --trace FILE -- <weinstein cli arguments>

Each mode prints one JSON object as its last stdout line.  Set-up time runs
from before ``import weinstein`` to the end of the set-up calls, so it
includes importing numpy and scipy.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402


def environment():
    import platform

    import numpy
    import scipy

    import weinstein

    try:
        from weinstein import _accel
    except ImportError:  # the numba twin backend may be removed
        _accel = None
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}) \
        .get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "use_numba": bool(getattr(_accel, "USE_NUMBA", False)),
        "weinstein_file": weinstein.__file__,
    }


def setup_cli(config_path, seed):
    from weinstein import (WeinsteinParams, build_grid, make_admissible_radial,
                           make_plan)
    from weinstein.report import ExperimentConfig

    with open(config_path) as fh:
        doc = json.load(fh)
    doc["seed"] = seed
    cfg = ExperimentConfig.from_dict(doc)
    for alpha in cfg.alphas:
        grid = build_grid(WeinsteinParams(d=cfg.d, alpha=alpha), cfg.extents,
                          cfg.counts, radial_scheme=cfg.radial_scheme)
        plan = make_plan(grid, normalization=cfg.normalization)
        plan.kernel_cache  # noqa: B018 - built lazily on first access
        make_admissible_radial(plan, family=cfg.multiplier["family"],
                               sigma_range=cfg.multiplier["sigma_range"],
                               sigma_count=cfg.multiplier["sigma_count"],
                               tolerance=cfg.multiplier["tolerance"])


class OutOfTime(Exception):
    """The next library call would overrun the run's time budget."""


def run_lib(args):
    """Library passes for --seconds, each library call timed on its own.

    With --seconds 0 (and always with --trace) it runs one whole pass; the
    traced pass's spans are written before the output checks run.
    Otherwise one untimed call of each part but the oracle warms caches
    first, and passes repeat until the next call would overrun --seconds;
    the last pass may end part-way.
    """
    tr = start_tracer() if args.trace else None
    import lib_workload

    plans = lib_workload.make_plans()
    inputs = lib_workload.make_inputs(plans, args.seed)
    times = {part: [] for part in lib_workload.PASS_COUNTS}
    deadline = None

    def timed(part, call, *fargs):
        t = time.perf_counter()
        done = times[part]
        if deadline is not None and t + (
                sum(done) / len(done) if done else 0.0) > deadline:
            raise OutOfTime
        result = call(*fargs)
        if deadline is not None:
            done.append(time.perf_counter() - t)
        return result

    if args.seconds > 0 and tr is None:
        lib_workload.warm_up(plans, inputs)
        deadline = time.perf_counter() + args.seconds
    passes = []
    while True:
        out = {}
        try:
            lib_workload.run_pass(plans, inputs, timed, out)
            ended = False
        except OutOfTime:
            ended = True
        if tr is not None:
            tr.dump(args.trace)
        t = time.perf_counter()
        passes.append(lib_workload.check(plans, inputs, out,
                                         args.roundtrip_tol))
        if ended or deadline is None:
            break
        deadline += time.perf_counter() - t   # checks are not measured
    return {"checks": passes, "times": times,
            "pass_counts": lib_workload.PASS_COUNTS}


def start_tracer():
    import tracer as tracing

    import weinstein  # noqa: F401 - the package must be loaded to be wrapped

    tr = tracing.Tracer()
    tracing.install(tr)
    return tr


def main(argv):
    parser = argparse.ArgumentParser()
    sub = parser.add_subparsers(dest="mode", required=True)
    sp = sub.add_parser("setup")
    sp.add_argument("--config")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--lib", action="store_true")
    lp = sub.add_parser("lib")
    lp.add_argument("--seed", type=int, required=True)
    lp.add_argument("--seconds", type=float, default=0.0)
    lp.add_argument("--roundtrip-tol", type=float, required=True)
    lp.add_argument("--trace")
    cp = sub.add_parser("cli")
    cp.add_argument("--trace", required=True)
    cp.add_argument("cli_args", nargs=argparse.REMAINDER)
    args = parser.parse_args(argv)

    if args.mode == "setup":
        if args.lib:
            import lib_workload

            lib_workload.make_plans()
        else:
            setup_cli(args.config, args.seed)
        setup_s = time.perf_counter() - T0
        print(json.dumps({"setup_s": setup_s, "env": environment()}))
        return 0
    if args.mode == "lib":
        print(json.dumps(run_lib(args)))
        return 0

    tr = start_tracer()
    import weinstein.cli

    cli_args = args.cli_args[1:] if args.cli_args[:1] == ["--"] \
        else args.cli_args
    try:
        code = weinstein.cli.main(cli_args)
    finally:
        tr.dump(args.trace)
    print(json.dumps({"exit_code": code}))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
