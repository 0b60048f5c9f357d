"""Command-line surface: simulate -> check -> fine plus sweeps and the
random-model campaign.

Exit codes are stable across subcommands: 0 for pass/success, 1 when a
checked condition fails (failed verdict, infeasible joint, campaign
violation), 2 for usage or validation errors.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .conditions import mr_int, mr_strong, mr_weak
from .errors import MrtestError
from .fine import d_interval
from .harness import (
    load_model,
    load_moments,
    load_sweep_spec,
    run_campaign,
    simulate,
    sweep_blocks,
    write_sweep_csv,
)
from .measurement import measure_all
from .tolerances import TOL

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_ERROR = 2


def _emit(payload: dict, out_path: str | None) -> None:
    text = json.dumps(payload, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _epsilon(args: argparse.Namespace) -> float:
    value = TOL.verdict if args.epsilon is None else args.epsilon
    if not (math.isfinite(value) and value >= 0.0):
        raise MrtestError(f"--epsilon must be a finite number >= 0, got {value!r}")
    return value


def _cmd_simulate(args: argparse.Namespace) -> int:
    _emit(simulate(load_model(args.model)), args.out)
    return EXIT_PASS


def _cmd_check(args: argparse.Namespace) -> int:
    epsilon = _epsilon(args)
    if args.which == "weak":
        moments = load_moments(args.moments) if args.moments else measure_all(load_model(args.model)).moments
        report = mr_weak(moments, epsilon)
    else:
        if not args.model:
            raise MrtestError(f"check --which {args.which} needs --model (sequential runs required)")
        tables = measure_all(load_model(args.model))
        report = (mr_int if args.which == "int" else mr_strong)(tables, epsilon)
    _emit(report.to_jsonable(), args.out)
    return EXIT_PASS if report.verdict else EXIT_FAIL


def _cmd_fine(args: argparse.Namespace) -> int:
    result = d_interval(load_moments(args.moments), _epsilon(args))
    _emit(result.to_jsonable(), args.out)
    return EXIT_PASS if result.feasible else EXIT_FAIL


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = load_sweep_spec(args.spec)
    write_sweep_csv(sweep_blocks(spec, _epsilon(args)), args.out)
    return EXIT_PASS


def _cmd_campaign(args: argparse.Namespace) -> int:
    summary = run_campaign(
        seed=args.seed,
        count=args.count,
        dim_min=args.dim_min,
        dim_max=args.dim_max,
        epsilon=_epsilon(args),
    )
    print(json.dumps(summary, indent=2))
    return EXIT_PASS if summary["passed"] else EXIT_FAIL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrtest",
        description=(
            "Decide which notions of macrorealism the statistics of a "
            "dichotomic variable at 2-4 times admit."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="emit moments and all measurement tables for a model")
    p_sim.add_argument("--model", required=True, help="model JSON file")
    p_sim.add_argument("--out", help="output JSON file (default stdout)")
    p_sim.set_defaults(func=_cmd_simulate)

    p_check = sub.add_parser("check", help="evaluate a macrorealism condition set")
    group = p_check.add_mutually_exclusive_group(required=True)
    group.add_argument("--model", help="model JSON file")
    group.add_argument("--moments", help="moments JSON file (weak only)")
    p_check.add_argument("--which", required=True, choices=("weak", "int", "strong"))
    p_check.add_argument("--epsilon", type=float, help=f"verdict tolerance (default {TOL.verdict})")
    p_check.add_argument("--out", help="output JSON file (default stdout)")
    p_check.set_defaults(func=_cmd_check)

    p_fine = sub.add_parser("fine", help="joint-probability feasibility for a moment set")
    p_fine.add_argument("--moments", required=True, help="moments JSON file")
    p_fine.add_argument("--epsilon", type=float, help=f"verdict tolerance (default {TOL.verdict})")
    p_fine.add_argument("--out", help="output JSON file (default stdout)")
    p_fine.set_defaults(func=_cmd_fine)

    p_sweep = sub.add_parser("sweep", help="run a parameter sweep to CSV")
    p_sweep.add_argument("--spec", required=True, help="sweep spec JSON file")
    p_sweep.add_argument("--out", required=True, help="output CSV file")
    p_sweep.add_argument("--epsilon", type=float, help="verdict tolerance for verdict columns")
    p_sweep.set_defaults(func=_cmd_sweep)

    p_camp = sub.add_parser("campaign", help="random-model invariant campaign")
    p_camp.add_argument("--seed", type=int, required=True)
    p_camp.add_argument("--count", type=int, required=True)
    p_camp.add_argument("--dim-min", type=int, default=2)
    p_camp.add_argument("--dim-max", type=int, default=4)
    p_camp.add_argument("--epsilon", type=float, help="verdict tolerance for the implication chain")
    p_camp.set_defaults(func=_cmd_campaign)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MrtestError, OSError) as exc:
        print(f"mrtest: error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
