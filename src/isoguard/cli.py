"""Command-line entry point.

Subcommands mirror the stages of ``pipeline.STAGES``, plus `pipeline` for
the whole experiment and `synth` for the synthetic dataset generator.
Exit codes: 0 success, 1 usage error, 2 data/contract error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import IsoguardError
from .evaluation import render_table
from .parallel import worker_count
from .pipeline import STAGES, PipelineConfig, load_config, run_pipeline, run_stage, run_synth


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(f"{self.format_usage()}{self.prog}: error: {message}")


def build_parser() -> _Parser:
    parser = _Parser(prog="isoguard", description="Outlier-removal experiment pipeline")
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    def common(p: _Parser, config_required: bool) -> None:
        p.add_argument("--config", type=Path, required=config_required, help="pipeline config JSON")
        p.add_argument("--seed", type=int, help="master seed (required here or in the config)")
        p.add_argument("--out", type=Path, help="output directory (default: config out_dir)")

    for name, text in (("pipeline", "run every stage end to end"), *((s.name, s.help) for s in STAGES)):
        p = sub.add_parser(name, help=text, add_help=True)
        common(p, config_required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset, sized by the config's 'synthetic' section")
    common(p, config_required=False)
    return parser


def _resolve(args: argparse.Namespace, need_input: bool) -> PipelineConfig:
    cfg = load_config(args.config) if args.config is not None else PipelineConfig()
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.out is not None:
        cfg = replace(cfg, out_dir=str(args.out))
    if cfg.seed is None:
        raise UsageError("a master seed is required: pass --seed or set 'seed' in the config")
    if cfg.out_dir is None:
        raise UsageError("an output directory is required: pass --out or set 'out_dir' in the config")
    if need_input and not cfg.input:
        raise UsageError("the config must name an input CSV path")
    return cfg


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise UsageError(parser.format_usage() + "isoguard: error: a subcommand is required")
        worker_count()  # reject a bad ISOGUARD_THREADS before any stage writes an artifact
        cfg = _resolve(args, need_input=args.command != "synth")
        if args.command == "synth":
            print(run_synth(cfg))
        elif args.command == "pipeline":
            print(render_table(run_pipeline(cfg)), end="")
        else:
            run_stage(args.command, cfg)
        return 0
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except (IsoguardError, OSError) as e:
        print(f"isoguard: error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
