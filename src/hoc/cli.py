"""Command line front end.

Exit codes: 0 every check in the experiment passed, 1 at least one
domination check failed, 2 the config was invalid (in which case nothing is
written to the output directory), 3 the run crashed (one ``error:`` line;
an output directory the run created is removed).
"""

from __future__ import annotations

import argparse
import sys

from . import fixtures
from .experiments import ConfigError, load_config, run_config


def _add_common(parser):
    parser.add_argument("--out", default="hoc-out",
                        help="output directory for artifacts (default hoc-out)")
    parser.add_argument("--seed", type=int, default=None,
                        help="override the master seed")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="hoc",
        description="numerical concentration certificates and their Monte Carlo checks")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run an experiment config")
    run.add_argument("--config", required=True, help="path to a JSON config")
    run.add_argument("--samples", type=int, default=None,
                     help="override the evaluation sample count")
    _add_common(run)

    lst = sub.add_parser("list-fixtures", help="list the shipped fixtures")
    lst.add_argument("--route", default=None, help="only fixtures of one route")

    tn = sub.add_parser("tensor-norm",
                        help="compare iterative and certified tensor operator norms")
    tn.add_argument("--count", type=int, default=50, help="number of random tensors")
    _add_common(tn)

    co = sub.add_parser("catalog-oracle",
                        help="re-certify catalog spectral-gap constants")
    co.add_argument("--dist", default="all",
                    help="one catalog law, or 'all' (default)")
    _add_common(co)
    return parser


def _finish(code, report):
    summary = "PASS" if code == 0 else "FAIL"
    print("%s (%s): see report.json" % (summary, report.get("kind", "?")))
    return code


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        if args.command == "run":
            cfg = load_config(args.config)
            code, report = run_config(cfg, args.out, seed_override=args.seed,
                                      samples_override=args.samples)
            return _finish(code, report)
        if args.command == "list-fixtures":
            for fx in fixtures.inventory():
                if args.route and fx.route != args.route:
                    continue
                print("%-32s  %-15s  %-13s  %s" % (fx.name, fx.route, fx.kind,
                                                  fx.description))
            return 0
        if args.command == "tensor-norm":
            cfg = {"kind": "tensor-norm", "seed": 0, "count": args.count}
            code, report = run_config(cfg, args.out, seed_override=args.seed)
            return _finish(code, report)
        if args.command == "catalog-oracle":
            cfg = {"kind": "catalog-oracle", "seed": 0, "dist": args.dist}
            code, report = run_config(cfg, args.out, seed_override=args.seed)
            return _finish(code, report)
    except ConfigError as exc:
        print("config error: %s%s" % (exc.location(), exc), file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a failed check (exit 1)
        print("error: %s: %s" % (type(exc).__name__, exc), file=sys.stderr)
        return 3
    raise AssertionError("unreachable command %r" % (args.command,))


if __name__ == "__main__":
    sys.exit(main())
