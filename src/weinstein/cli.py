"""Command-line experiment runner.

    weinstein run --config cfg.json [--out DIR] [--format json|csv|both]
                  [--seed N] [--list-certificates]

Exit codes: 0 success, 1 certificate or self-test failure, 2 config error,
3 numeric guard error, 4 internal error (any other exception; the traceback
goes to stderr).  The only environment override is WEINSTEIN_OUT for
the default output directory.
"""

import argparse
import json
import os
import sys
import traceback

from .errors import (ConfigError, IntegrabilityGuardError, MeasureRangeError,
                     SigmaRangeError, SizeGuardError)
from .report import KNOWN_CERTIFICATES, ExperimentConfig, emit, run

EXIT_OK = 0
EXIT_CERT_FAILURE = 1
EXIT_CONFIG_ERROR = 2
EXIT_GUARD_ERROR = 3
EXIT_INTERNAL_ERROR = 4


def build_parser():
    parser = argparse.ArgumentParser(
        prog="weinstein",
        description="Certificate suites and oracle cross-checks for the "
                    "Bessel-weighted harmonic-analysis stack.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run a configured experiment")
    runp.add_argument("--config", help="path to the JSON config document")
    runp.add_argument("--out", default=None, help="output directory "
                      "(default: WEINSTEIN_OUT or ./out)")
    runp.add_argument("--format", default="both",
                      choices=("json", "csv", "both"))
    runp.add_argument("--seed", type=int, default=None,
                      help="override the config seed")
    runp.add_argument("--list-certificates", action="store_true",
                      help="list known certificate names and exit")
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return _main(args)
    except Exception:
        traceback.print_exc()
        return EXIT_INTERNAL_ERROR


def _main(args):
    if args.command != "run":  # pragma: no cover - argparse enforces
        return EXIT_CONFIG_ERROR
    if args.list_certificates:
        for name in KNOWN_CERTIFICATES:
            print(name)
        return EXIT_OK
    if not args.config:
        print("error: --config is required", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    try:
        with open(args.config, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, UnicodeDecodeError, RecursionError,
            json.JSONDecodeError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    if args.seed is not None and isinstance(doc, dict):
        doc["seed"] = args.seed
    try:
        config = ExperimentConfig.from_dict(doc)
        report = run(config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (SizeGuardError, IntegrabilityGuardError, SigmaRangeError,
            MeasureRangeError) as exc:
        print(f"numeric guard: {exc}", file=sys.stderr)
        return EXIT_GUARD_ERROR
    out_dir = args.out or os.environ.get("WEINSTEIN_OUT", "out")
    written = emit(report, out_dir, args.format)
    for path in written:
        print(f"wrote {path}")
    n_cert = sum(len(b["certificates"]) for b in report["runs"])
    status = "ok" if report["ok"] else "FAILED"
    print(f"{n_cert} certificates, self-tests "
          f"{'ok' if report['self_tests_ok'] else 'FAILED'}, "
          f"overall {status}")
    return EXIT_OK if report["ok"] else EXIT_CERT_FAILURE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
