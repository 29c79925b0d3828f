"""Command-line entry point.

Every subcommand reads the same JSON config (see README for the schema) and
writes its artifacts into the configured output directory, so stages can be
run one at a time or all at once with `run`. Exit codes: 0 success, 1 config
error, 2 data error, 3 stage failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path
from typing import Optional, Sequence

from . import pipeline
from .corpus import CorpusError
from .pipeline import (
    ConfigError,
    PipelineConfig,
    StageError,
    config_from_obj,
    read_config_obj,
    run_pipeline,
)
from .validate import JT_METHODS

log = logging.getLogger("patimpact")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_STAGE = 3

# subcommands that run a stage of another name; every other single-stage
# subcommand runs the stage of its own name
COMMAND_STAGE = {"synth": "corpus", "ingest": "corpus", "jt-test": "validate"}


# Options whose dest starts with "cfg." override the config entry named by
# the rest of the dest: a top-level key or "block.key".
def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline config JSON")
    parser.add_argument("--seed", dest="cfg.seed", metavar="SEED", type=int,
                        help="override global seed")
    parser.add_argument("--out", dest="cfg.out_dir", metavar="DIR",
                        help="override output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patimpact",
        description="Time-variant patent impact analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("run", "execute the full pipeline"),
        ("synth", "generate the synthetic corpus snapshot"),
        ("ingest", "normalize an existing corpus file into the run directory"),
        ("features", "extract indicator vectors for labeled patents"),
        ("gridsearch", "exhaustive hyperparameter search"),
        ("train", "fit the multi-task model (and single-task ablations)"),
        ("evaluate", "predict on the test split and export metric tables"),
        ("report", "merge stage outputs into report.md"),
    ]:
        _add_common(sub.add_parser(name, help=help_text))

    p = sub.add_parser("label", help="derive thresholds and impact classes")
    _add_common(p)
    p.add_argument("--mode", dest="cfg.threshold_mode", choices=["fixed", "stanine"])

    p = sub.add_parser("cv", help="stratified k-fold cross-validation")
    _add_common(p)
    p.add_argument("--folds", type=int, default=5)

    p = sub.add_parser("explain", help="Shapley attributions on test patents")
    _add_common(p)
    p.add_argument("--n-permutations", dest="cfg.explain.n_permutations", metavar="N",
                   type=int)
    p.add_argument("--top-k", dest="cfg.explain.top_k", metavar="K", type=int)

    p = sub.add_parser("jt-test", help="ordered-trend tests of value indicators")
    _add_common(p)
    p.add_argument("--method", dest="cfg.validation.method", choices=JT_METHODS)
    p.add_argument("--n-permutations", dest="cfg.validation.n_permutations",
                   metavar="N", type=int)

    p = sub.add_parser("topic-score", help="topic impact scores per grant year")
    _add_common(p)
    p.add_argument("--horizon", dest="cfg.topic.horizon", choices=["short", "mid", "long"])

    return parser


def _load_config_with_overrides(args: argparse.Namespace) -> PipelineConfig:
    path = Path(args.config)
    obj = read_config_obj(path)
    for dest, value in vars(args).items():
        if dest.startswith("cfg.") and value is not None:
            block, _, key = dest[len("cfg."):].rpartition(".")
            (obj.setdefault(block, {}) if block else obj)[key] = value
    return config_from_obj(obj, base_dir=path.parent)


def main(argv: Optional[Sequence[str]] = None) -> int:
    logging.basicConfig(
        level=logging.INFO, format="%(levelname)s %(name)s: %(message)s"
    )
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config_with_overrides(args)
        if args.command == "synth" and cfg.synth is None:
            raise ConfigError("synth subcommand requires a synth block in the config")
        if args.command == "ingest" and cfg.corpus_path is None:
            raise ConfigError("ingest subcommand requires corpus_path in the config")
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG

    try:
        if args.command == "run":
            manifest = run_pipeline(cfg)
            log.info(
                "pipeline complete: %d stages, outputs in %s",
                len(manifest.stages), cfg.out_dir,
            )
        else:
            kwargs = {"k": args.folds} if args.command == "cv" else {}
            stage = pipeline.STAGES[COMMAND_STAGE.get(args.command, args.command)]
            for name in stage(cfg, **kwargs):
                log.info("wrote %s", name)
    except CorpusError as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except StageError as exc:
        log.error("%s", exc)
        return EXIT_STAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
