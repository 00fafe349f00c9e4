"""Command-line interface.

Subcommands mirror the pipeline stages (train, explain, report) plus run,
which executes all three; each stage reads the serialized artifacts of the
upstream stages under the output directory.  Exit codes: 0 success,
1 stage failure, 2 usage error.
"""

from __future__ import annotations

import argparse
import sys

from . import __version__
from .data import PERTURBATION_KINDS
from .datasets import DEFAULT_SEED, write_synthetic_diabetes
from .explainers import EXPLAINERS
from .models import MODEL_KINDS
from .pipeline import STAGES, PipelineError, RunConfig, run_all, run_stage


def _csv_list(value: str) -> tuple:
    return tuple(s.strip() for s in value.split(",") if s.strip())


def _percents(value: str) -> tuple:
    return tuple(float(v) / 100.0 for v in _csv_list(value))


# config-file key -> (RunConfig field, value parser, flag help); the flag is
# "--" + key with "_" -> "-"
_KEYS = {
    "dataset": ("dataset", str, "input CSV (header row, class column last)"),
    "seed": ("master_seed", int, "master seed (default 7)"),
    "out": ("out_dir", str, "output directory for all artifacts"),
    "models": ("models", _csv_list, f"comma list from {','.join(MODEL_KINDS)}"),
    "explainers": ("explainers", _csv_list, f"comma list from {','.join(EXPLAINERS)}"),
    "levels": ("fractions", _percents, "comma list of perturbation percents, e.g. 0,4,6,10"),
    "perturbation_kind": ("perturbation_kind", str, None),
    "train_fraction": ("train_fraction", float, None),
    "noise_scale": ("noise_scale", float, None),
    "cv_folds": ("cv_folds", int, None),
    "repetitions": ("repetitions", int, None),
    "coalition_budget": ("coalition_budget", int, None),
    "bootstrap_respondents": ("bootstrap_respondents", int, None),
}


def parse_config_file(path) -> dict:
    """Flat key = value format; '#' starts a comment.  A value that does not
    parse, or that ``RunConfig`` refuses on its own, and a key set twice are
    refused with the file, the line and the key."""
    out, lines = {}, {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, value = (s.strip() for s in line.split("=", 1))
            if key not in _KEYS:
                raise ValueError(f"{path}:{lineno}: unknown key {key!r}")
            if lines.setdefault(key, lineno) != lineno:
                raise ValueError(f"{path}:{lineno}: key {key!r} already set on line {lines[key]}")
            field, parse, _ = _KEYS[key]
            try:
                out[key] = parse(value)
                RunConfig(**{"dataset": "", "out_dir": "", field: out[key]})
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return out


def build_config(args) -> RunConfig:
    settings = parse_config_file(args.config) if args.config else {}
    for key in _KEYS:
        if getattr(args, key) is not None:
            settings[key] = getattr(args, key)
    if "dataset" not in settings:
        raise ValueError("a dataset is required (--dataset or config file)")
    if "out" not in settings:
        raise ValueError("an output directory is required (--out or config file)")
    return RunConfig(**{_KEYS[key][0]: value for key, value in settings.items()})


def _add_common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="flat key = value config file; CLI flags override it")
    for key, (_, parse, help_text) in _KEYS.items():
        p.add_argument("--" + key.replace("_", "-"), type=parse, help=help_text,
                       choices=PERTURBATION_KINDS if key == "perturbation_kind" else None)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="xaibench",
        description="Model-reliability (3PL IRT) and explainer-stability benchmark")
    parser.add_argument("--version", action="version", version=f"xaibench {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute the full pipeline")
    _add_common_flags(run_p)
    for stage in STAGES:
        sp = sub.add_parser(stage, help=f"run only the {stage} stage")
        _add_common_flags(sp)
    synth = sub.add_parser("synth-data", help="write the bundled synthetic dataset")
    synth.add_argument("--out", required=True, help="CSV path to write")
    synth.add_argument("--seed", type=int, default=DEFAULT_SEED)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "synth-data":
            write_synthetic_diabetes(args.out, seed=args.seed)
            return 0
        cfg = build_config(args)
        if args.command == "run":
            run_all(cfg)
        else:
            run_stage(cfg, args.command)
        return 0
    except (PipelineError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
