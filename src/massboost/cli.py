"""Command line entry point.

    massboost run <config> [--seed-range a..b] [--out DIR] [--mode exact|mc]

Each flag overrides its config key (seeds, out, mode) and is parsed and
checked with the config's own lines, before any seed runs. Exit code 0 once
the batch completes (per-seed failures are recorded in the summary), 2 on
config errors, 1 on IO errors.
"""

from __future__ import annotations

import argparse
import sys

from .harness import ConfigParse, emit_metrics, load_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="massboost")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a seeded experiment batch from a config file")
    run.add_argument("config", help="path to a flat key = value config file")
    run.add_argument(
        "--seed-range", dest="seeds", metavar="SEED_RANGE", help="seeds a..b (inclusive) or a seed list, overriding the config"
    )
    run.add_argument("--out", help="output directory for summary.json and trace CSVs")
    run.add_argument("--mode", choices=["exact", "mc"], help="override the execution mode")
    return parser


def main(argv=None) -> int:
    args = vars(_build_parser().parse_args(argv))  # each flag's dest is the config key it overrides
    del args["command"]  # argparse requires the one subcommand, run
    path = args.pop("config")
    try:
        cfg = load_config(path, {key: value for key, value in args.items() if value is not None})
        report = run_experiment(cfg)
    except ConfigParse as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if cfg.out:
        try:
            written = emit_metrics(report, cfg.out)
        except OSError as exc:
            print(f"io error: {exc}", file=sys.stderr)
            return 1
        print(f"wrote {len(written)} files under {cfg.out}")
    failures = sum(1 for r in report.results if not r.ok)
    print(
        f"seeds={len(report.results)} success_fraction={report.success_fraction:.3f} "
        f"failures={failures} mean_lerr={report.mean_lerr}"
    )
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
