"""Command line entry point.

    massboost run <config> [--seed-range a..b] [--out DIR] [--mode exact|mc]
                           [--sample-scale F] [--ablate-no-withholding]

Exit code 0 once the batch completes (per-seed failures are recorded in the
summary), 2 on config errors, 1 on IO errors. MB_THREADS caps seed-parallel
workers.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace

from .harness import ConfigParse, IoFailure, UnknownWeakLearner, _parse_seeds
from .harness import emit_metrics, load_config, run_experiment


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="massboost")
    sub = parser.add_subparsers(dest="command", required=True)
    run = sub.add_parser("run", help="run a seeded experiment batch from a config file")
    run.add_argument("config", help="path to a flat key = value config file")
    run.add_argument("--seed-range", help="seeds a..b (inclusive) or a seed list, overriding the config")
    run.add_argument("--out", help="output directory for summary.json and trace CSVs")
    run.add_argument("--mode", choices=["exact", "mc"], help="override the execution mode")
    run.add_argument("--sample-scale", type=float, help="override the subroutine sample multiplier")
    run.add_argument(
        "--ablate-no-withholding",
        action="store_true",
        help="disable risky-set withholding (noise-violation demonstration)",
    )
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    if args.command != "run":  # pragma: no cover - argparse enforces this
        return 2
    try:
        cfg = load_config(args.config)
        if args.seed_range:
            cfg = replace(cfg, seeds=_parse_seeds(args.seed_range))
        if args.mode:
            cfg = replace(cfg, mode=args.mode)
        if args.sample_scale is not None:
            cfg = replace(cfg, sample_scale=args.sample_scale)
        if args.ablate_no_withholding:
            cfg = replace(cfg, ablate_no_withholding=True)
        if args.out:
            cfg = replace(cfg, out=args.out)
    except (ConfigParse, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    try:
        report = run_experiment(cfg)
    except (ConfigParse, UnknownWeakLearner) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if cfg.out:
        try:
            written = emit_metrics(report, cfg.out)
        except IoFailure as exc:
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
