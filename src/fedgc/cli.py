"""Command-line entry point.

  fedgc run <config>       train every grid cell in the config, write metrics
  fedgc validate <config>  check a config file and draw its data; report every problem
  fedgc gradcheck          run the analytic-gradient verification suite

Exit status: 0 success, 1 config error, 2 every grid cell diverged,
3 a gradient check failed.
"""

from __future__ import annotations

import argparse
import sys

from . import experiments
from .config import ConfigError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fedgc",
        description="Federated embedding training with server-side gradient correction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_p = sub.add_parser("run", help="run the experiment grid from a config file")
    run_p.add_argument("config", help="path to an INI-style experiment config")
    run_p.add_argument("--seed", type=int, default=None, help="override the run seed")
    run_p.add_argument("--out", default=None, help="override the output directory")
    run_p.add_argument("--mode", default=None, help="replace the mode grid with one mode")
    run_p.add_argument(
        "--lambda", dest="lam", type=float, default=None,
        help="replace the correction-multiplier grid with one value",
    )
    run_p.add_argument(
        "--fraction", type=float, default=None,
        help="replace the participation-fraction grid with one value",
    )

    val_p = sub.add_parser("validate", help="check a config file without running anything")
    val_p.add_argument("config")

    gc_p = sub.add_parser("gradcheck", help="verify analytic gradients against finite differences")
    gc_p.add_argument("--seed", type=int, default=0)
    return parser


def _load(config, **overrides):
    """(spec, dataset, problems) for a config file: the data is drawn, as a run
    would draw it, so that every problem is found before anything is written."""
    spec, problems = experiments.parse_config(config)
    if not problems:
        spec, problems = experiments.apply_overrides(spec, **overrides)
    if not problems:
        try:
            return spec, experiments.make_dataset(spec, spec.fed), []
        except ConfigError as exc:  # data whose draws overflow, found once they are drawn
            problems = experiments.file_problems(exc)
    for p in problems:
        print(f"config error: {p}", file=sys.stderr)
    return None, None, problems


def _cmd_run(args) -> int:
    spec, dataset, problems = _load(
        args.config, seed=args.seed, out=args.out, mode=args.mode, lam=args.lam, fraction=args.fraction
    )
    return 1 if problems else experiments.run_experiment(spec, dataset, echo=print)


def _cmd_validate(args) -> int:
    if _load(args.config)[2]:
        return 1
    print(f"{args.config}: ok")
    return 0


def _cmd_gradcheck(args) -> int:
    # imported here so that `fedgc run` does not load (and compile) the suite
    from . import gradcheck

    try:
        rows = gradcheck.verification_suite(args.seed)
    except ConfigError as exc:  # a negative seed, refused before any check runs
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    width = max(len(r.name) for r in rows)
    failed = 0
    for r in rows:
        verdict = "pass" if r.passed else "FAIL"
        print(f"{r.name:<{width}}  max_err={r.max_err:.3e}  tol={r.tol:.1e}  {verdict}")
        failed += not r.passed
    print(f"{len(rows) - failed}/{len(rows)} checks passed")
    return 0 if failed == 0 else 3


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "validate":
        return _cmd_validate(args)
    return _cmd_gradcheck(args)


if __name__ == "__main__":
    sys.exit(main())
