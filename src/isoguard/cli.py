"""Command-line entry point.

Subcommands mirror the pipeline stages (ingest, select, detect, train,
evaluate), plus `pipeline` for the whole experiment and `synth` for the
synthetic dataset generator. Exit codes: 0 success, 1 usage error, 2
data/contract error.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from .errors import IsoguardError
from .parallel import worker_count
from .pipeline import (
    PipelineConfig,
    config_to_json,
    load_config,
    run_pipeline,
    run_synth,
    stage_detect,
    stage_evaluate,
    stage_ingest,
    stage_select,
    stage_train,
)

STAGE_COMMANDS = {
    "ingest": stage_ingest,
    "select": stage_select,
    "detect": stage_detect,
    "train": stage_train,
    "evaluate": stage_evaluate,
}


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

    for name, text in (
        ("pipeline", "run every stage end to end"),
        ("ingest", "load, split and transform the input CSV"),
        ("select", "recursive feature elimination on train.csv"),
        ("detect", "fit the isolation forest and emit verdicts"),
        ("train", "train both classifier arms"),
        ("evaluate", "score both arms on the test partition"),
    ):
        p = sub.add_parser(name, help=text, add_help=True)
        common(p, config_required=True)

    p = sub.add_parser("synth", help="generate a synthetic labeled dataset")
    common(p, config_required=False)
    p.add_argument("--n-normal", type=int, help="normal-class row count")
    p.add_argument("--n-anomaly", type=int, help="anomaly-class row count")
    p.add_argument("--n-informative", type=int, help="informative feature count")
    p.add_argument("--n-noise", type=int, help="noise feature count")
    p.add_argument("--separation", type=float, help="class cluster separation per informative feature")
    p.add_argument("--magnitude", type=float, help="planted outlier coordinate magnitude")
    p.add_argument("--outlier-fraction", type=float, help="fraction of rows replaced by planted outliers")
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
        if args.command == "synth":
            cfg = _resolve(args, need_input=False)
            overrides = {
                "n_normal": args.n_normal,
                "n_anomaly": args.n_anomaly,
                "n_informative": args.n_informative,
                "n_noise": args.n_noise,
                "separation": args.separation,
                "outlier_magnitude": args.magnitude,
                "outlier_fraction": args.outlier_fraction,
            }
            spec = replace(cfg.synthetic, **{k: v for k, v in overrides.items() if v is not None})
            cfg = replace(cfg, synthetic=spec)
            path = run_synth(cfg)
            print(path)
            return 0
        cfg = _resolve(args, need_input=True)
        out = Path(cfg.out_dir)  # _resolve guarantees it is set
        out.mkdir(parents=True, exist_ok=True)
        if args.command == "pipeline":
            report = run_pipeline(cfg)
            print((out / "report.txt").read_text(encoding="utf-8"), end="")
            return 0
        (out / "config.resolved.json").write_text(config_to_json(cfg) + "\n", encoding="utf-8")
        STAGE_COMMANDS[args.command](cfg, out)
        return 0
    except UsageError as e:
        print(str(e), file=sys.stderr)
        return 1
    except IsoguardError as e:
        print(f"isoguard: error: {e}", file=sys.stderr)
        return 2
    except OSError as e:
        print(f"isoguard: error: {e}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(cli_dispatch(sys.argv[1:]))
