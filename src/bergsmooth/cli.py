"""Command-line entry point: run scenarios from a JSON config, emit reports.

Exit codes: 0 all checks passed, 1 a check failed, 2 configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConditioningError, ParameterError
from .scenarios import SCENARIOS, ScenarioConfig, emit_report, run_scenario


def build_parser():
    p = argparse.ArgumentParser(prog="bergsmooth",
                                description="Desk-scale smoothing experiments for the "
                                            "Bergman projection on model domains")
    sub = p.add_subparsers(dest="command", required=True)
    runp = sub.add_parser("run", help="run one scenario")
    runp.add_argument("scenario", choices=SCENARIOS)
    runp.add_argument("--config", help="JSON config file", default=None)
    runp.add_argument("--out", help="output directory (overrides config)", default=None)
    runp.add_argument("--seed", type=int, help="seed override", default=None)
    sub.add_parser("list", help="print available scenarios")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "list":
        for s in SCENARIOS:
            print(s)
        return 0
    try:
        data = {}
        if args.config is not None:
            with open(args.config, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        if not isinstance(data, dict):
            raise ParameterError("config must be a JSON object")
        data.setdefault("scenario", args.scenario)
        if data["scenario"] != args.scenario:
            raise ParameterError("config scenario disagrees with the command line")
        if args.seed is not None:
            data["seed"] = args.seed
        if args.out is not None:
            data["output_dir"] = args.out
        cfg = ScenarioConfig.from_dict(data)
    except (OSError, UnicodeDecodeError, json.JSONDecodeError, ParameterError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        bundle = run_scenario(cfg)
    except ConditioningError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    try:
        paths = emit_report(bundle, cfg.output_dir)
    except OSError as exc:
        print(f"i/o error writing report to {cfg.output_dir}: {exc}", file=sys.stderr)
        return 2
    for line in bundle.summary_lines():
        print(line)
    print(f"report files: {', '.join(paths)}")
    return 0 if bundle.all_passed else 1


if __name__ == "__main__":
    sys.exit(main())
