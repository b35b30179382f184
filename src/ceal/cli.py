"""Command line front end: run one cell, sweep a grid, or compare models.

Subcommands:
    run    one learning session, result printed as text or JSON
    grid   full sweep from a grid config file, report as CSV or JSON
    check  language-compare two DOT models (exit 0 equal, 1 different)

Exit codes: 0 success, 1 check found a difference, 2 bad configuration.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

from .harness import (
    FRAMEWORKS,
    GRID_KEYS,
    LEARNER_NAMES,
    STRATEGIES,
    ExperimentConfig,
    emit_report,
    expand_grid,
    load_target,
    parse_grid_config,
    run,
    run_grid,
)
from .mealy import DotParseError, find_counterexample
from .sul import NOISE_KINDS


def _cmd_run(args: argparse.Namespace) -> int:
    options = {k: v for k, v in vars(args).items() if k in GRID_KEYS and v is not None}
    cells = expand_grid(options)
    if len(cells) != 1 or len(cells[0].seeds) != 1:
        raise ValueError("run takes one cell and one seed; sweep several with 'ceal grid'")
    cfg = cells[0]
    result = run(cfg, cfg.seeds[0])
    if args.json:
        print(json.dumps(asdict(result)))
    else:
        print(f"success: {'yes' if result.success else 'no'}")
        print(f"tests: {result.tests}")
        print(f"symbols: {result.symbols}")
        print(f"eq_fraction: {result.eq_fraction:.4f}")
        print(f"hypothesis_states: {result.hypothesis_states}")
        print(f"prunes: {result.prunes}")
        print(f"terminated_by: {result.terminated_by}")
    return 0


def _cmd_grid(args: argparse.Namespace) -> int:
    config_path = Path(args.config)
    options = parse_grid_config(config_path.read_text(encoding="utf-8"))
    cells = expand_grid(options, base_dir=config_path.parent)

    log_handle = open(args.run_log, "w", encoding="utf-8") if args.run_log else None

    def on_result(cfg: ExperimentConfig, seed: int, result) -> None:
        if log_handle is not None:
            record = {
                "target": cfg.target,
                "framework": cfg.framework,
                "learner": cfg.learner,
                "noise_kind": cfg.noise_kind,
                "noise_level": cfg.noise_rate,
                "repeats": f"{cfg.repeats.min_repeats}:{cfg.repeats.max_repeats}",
                "seed": seed,
            }
            record.update(asdict(result))
            log_handle.write(json.dumps(record) + "\n")

    try:
        rows = run_grid(cells, on_result=on_result)
    finally:
        if log_handle is not None:
            log_handle.close()
    report = emit_report(rows, args.format)
    if args.out:
        Path(args.out).write_text(report, encoding="utf-8")
    else:
        print(report, end="")
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    left = load_target(args.left)
    right = load_target(args.right)
    if left.inputs.symbols != right.inputs.symbols:
        print("different input alphabets")
        return 1
    if left.outputs.symbols != right.outputs.symbols:
        print("different output alphabets")
        return 1
    cex = find_counterexample(left, right)
    if cex is None:
        print("equivalent")
        return 0
    shown = left.inputs.format(cex.inputs)
    print(f"counterexample: {shown}")
    print(f"  left:  {left.outputs.format(cex.outputs)}")
    print(f"  right: {right.outputs.format(right.run(cex.inputs))}")
    return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ceal",
        description="Learn state-machine models from noisy systems; conflicting "
                    "observations prune and restart the learner instead of corrupting it.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser(
        "run", help="run one learning session",
        description="Run one cell for one seed. A flag sets one entry of the grid key it "
                    "names (--target sets targets, --k-survive k_survive); a flag left out "
                    "takes ExperimentConfig's default.",
    )
    p_run.add_argument("--target", dest="targets", required=True, metavar="DOT",
                       help="model file")
    p_run.add_argument("--framework", dest="frameworks", metavar="|".join(FRAMEWORKS))
    p_run.add_argument("--learner", dest="learners", metavar="|".join(LEARNER_NAMES))
    p_run.add_argument("--seed", dest="seeds", default="0", metavar="SEED")
    p_run.add_argument("--noise", metavar="KIND:RATE", help=f"kinds: {', '.join(NOISE_KINDS)}")
    p_run.add_argument("--repeats", metavar="MIN:MAX", help="voting repeats per query")
    p_run.add_argument("--update-strategy", metavar="|".join(STRATEGIES),
                       help="observation tree under ceal; ignored under mat")
    p_run.add_argument("--selection", metavar="|".join(STRATEGIES),
                       help="final-model selection under ceal; ignored under mat, "
                            "which keeps its latest hypothesis")
    p_run.add_argument("--mean-infix")
    p_run.add_argument("--max-len")
    p_run.add_argument("--k-survive")
    p_run.add_argument("--max-queries")
    p_run.add_argument("--json", action="store_true", help="print the result as JSON")
    p_run.set_defaults(func=_cmd_run)

    p_grid = sub.add_parser("grid", help="sweep a parameter grid from a config file")
    p_grid.add_argument("--config", required=True, help="grid config file")
    p_grid.add_argument("--format", default="csv", choices=("csv", "json"))
    p_grid.add_argument("--out", help="write the report here instead of stdout")
    p_grid.add_argument("--run-log", help="write one JSON line per run here")
    p_grid.set_defaults(func=_cmd_grid)

    p_check = sub.add_parser("check", help="language-compare two DOT models")
    p_check.add_argument("left")
    p_check.add_argument("right")
    p_check.set_defaults(func=_cmd_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, DotParseError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
