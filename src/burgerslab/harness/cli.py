"""Command-line entry point: ``burgerslab <study> [--config PATH] ...``.

Runs one study from a JSON experiment config (or the built-in defaults),
prints a PASS/FAIL line per check, and exits 0 exactly when every declared
tolerance passed.  Exit code 1 means checks failed; 2 means the invocation
or config was invalid.  Artifacts land in --out, else the config's output
directory, else $BURGERSLAB_OUT, else ./burgerslab-out.
"""

from __future__ import annotations

import argparse
import sys

from burgerslab.harness.config import ConfigError, ExperimentConfig, STUDY_KINDS
from burgerslab.harness.reports import resolve_out_dir
from burgerslab.harness.studies import run_study

__all__ = ["main"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="burgerslab",
        description="Run one verification study of the lattice Cole-Hopf laboratory.",
    )
    parser.add_argument(
        "study",
        nargs="?",
        help=f"study kind: one of {', '.join(STUDY_KINDS)}",
    )
    parser.add_argument("--config", metavar="PATH",
                        help="JSON experiment config (defaults apply if omitted)")
    parser.add_argument("--seed", type=int, metavar="S",
                        help="override the config seed")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides config and $BURGERSLAB_OUT)")
    parser.add_argument("--list-studies", action="store_true",
                        help="print the available study kinds and exit")
    args = parser.parse_args(argv)

    if args.list_studies:
        for kind in STUDY_KINDS:
            print(kind)
        return 0
    if args.study is None:
        parser.print_usage(sys.stderr)
        print("error: a study kind is required (or --list-studies)", file=sys.stderr)
        return 2

    try:
        if args.config:
            cfg = ExperimentConfig.load(args.config)
            if cfg.study != args.study:
                raise ConfigError([("study", f"the command line runs {args.study!r}, "
                                             f"but the config is for {cfg.study!r}")])
        else:
            cfg = ExperimentConfig(study=args.study)
        if args.seed is not None:
            cfg = cfg.replace(seed=args.seed)
        report = run_study(cfg, out_dir=args.out)
    except (ConfigError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for item in report.items:
        status = "PASS" if item["passed"] else "FAIL"
        print(f"{status} {item['name']}: value={item['value']!r}")
    out = resolve_out_dir(args.out if args.out else cfg.out_dir)
    verdict = "PASS" if report.passed else "FAIL"
    print(f"{verdict} {report.study}: {len(report.items)} checks "
          f"({report.wallclock_s:.2f}s, artifacts in {out})")
    return 0 if report.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
