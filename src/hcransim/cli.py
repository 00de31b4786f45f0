"""Command-line entry points for the simulator."""

from __future__ import annotations

import argparse
import dataclasses
import sys

from .beamforming import DUAL_COUNTERS, ConvergenceError
from .experiments import (
    ExperimentConfig,
    load_config,
    run_mse_sweep,
    run_se_sweep,
    run_tightness,
    schedule_one,
    solve_one,
)

_SWEEP_RUNNERS = {"mse-sweep": run_mse_sweep, "se-sweep": run_se_sweep, "tightness": run_tightness}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hcransim",
        description="Link-level pilot-scheduling and robust-beamforming simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in [
        ("mse-sweep", "sum channel-estimation MSE vs a swept parameter"),
        ("se-sweep", "sum spectral efficiency vs a swept parameter"),
        ("tightness", "rate lower bound vs exact ergodic rate"),
        ("schedule", "pilot-schedule one instance and report its sum MSE"),
        ("solve-one", "full single-instance pipeline with artifact dump"),
    ]:
        cmd = sub.add_parser(name, help=text)
        cmd.add_argument("--config", help="JSON experiment config")
        cmd.add_argument("--seed", type=int, help="override the master seed")
        cmd.add_argument("--out", help="output CSV path (or directory for solve-one)")
        cmd.add_argument(
            "--realizations", type=int, help="override the ensemble size"
        )
        cmd.add_argument("--jobs", type=int, help="worker processes")
    return parser


def _configure(args) -> ExperimentConfig:
    cfg = load_config(args.config) if args.config else ExperimentConfig()
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.realizations is not None:
        overrides["num_realizations"] = args.realizations
    if args.jobs is not None:
        overrides["jobs"] = args.jobs
    if args.out is not None and args.command != "solve-one":
        overrides["output_path"] = args.out
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    if cfg.output_path is None and args.command in _SWEEP_RUNNERS:
        cfg = dataclasses.replace(cfg, output_path=f"{args.command}.csv")
    return cfg


def _counter_line(counters: dict) -> str:
    """The RRH-side dual solver's work over a design and the last QCQP's
    final residuals (``RtdState.counters``), as one line of key=value."""
    fields = [f"{key}={counters[key]}" for key in ("dual_updates",) + DUAL_COUNTERS]
    fields += [f"{key}={counters[key]:.3e}" for key in ("violation", "gap", "mbs_violation")]
    return "solver counters: " + " ".join(fields)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = _configure(args)
        if args.command in _SWEEP_RUNNERS:
            result = _SWEEP_RUNNERS[args.command](cfg)
            print(f"{len(result.rows)} rows written to {result.path}")
        elif args.command == "schedule":
            results = schedule_one(cfg, args.out)
            for scheduler, assignment, mse in results:
                print(f"{scheduler}: tau={assignment.tau} sum_mse={mse:.6e}")
            if args.out and results:
                print(f"assignment written to {args.out}")
        elif args.command == "solve-one":
            out_dir = args.out or "solve-one-out"
            state = solve_one(cfg, out_dir).state
            print(
                f"solved in {state.iterations} iterations "
                f"(converged={state.converged}); artifacts in {out_dir}"
            )
            print(_counter_line(state.counters))
    except (ValueError, ConvergenceError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
