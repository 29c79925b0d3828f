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

from .corpus import CorpusError
from .pipeline import (
    ConfigError,
    PipelineConfig,
    StageError,
    config_from_obj,
    read_config_obj,
    run_pipeline,
    stage_corpus,
    stage_cv,
    stage_evaluate,
    stage_explain,
    stage_features,
    stage_gridsearch,
    stage_label,
    stage_report,
    stage_topic_score,
    stage_train,
    stage_validate,
)
from .validate import JT_METHODS

log = logging.getLogger("patimpact")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_STAGE = 3


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", required=True, help="pipeline config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override global seed")
    parser.add_argument("--out", default=None, help="override output directory")


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
    p.add_argument("--mode", choices=["fixed", "stanine"], default=None)

    p = sub.add_parser("cv", help="stratified k-fold cross-validation")
    _add_common(p)
    p.add_argument("--folds", type=int, default=5)

    p = sub.add_parser("explain", help="Shapley attributions on test patents")
    _add_common(p)
    p.add_argument("--n-permutations", type=int, default=None)
    p.add_argument("--top-k", type=int, default=None)

    p = sub.add_parser("jt-test", help="ordered-trend tests of value indicators")
    _add_common(p)
    p.add_argument("--method", choices=JT_METHODS, default=None)
    p.add_argument("--n-permutations", type=int, default=None)

    p = sub.add_parser("topic-score", help="topic impact scores per grant year")
    _add_common(p)
    p.add_argument("--horizon", choices=["short", "mid", "long"], default=None)

    return parser


def _load_config_with_overrides(args: argparse.Namespace) -> PipelineConfig:
    path = Path(args.config)
    obj = read_config_obj(path)
    if args.seed is not None:
        obj["seed"] = args.seed
    if args.out is not None:
        obj["out_dir"] = args.out
    if getattr(args, "mode", None) is not None:
        obj["threshold_mode"] = args.mode
    if getattr(args, "n_permutations", None) is not None:
        if args.command == "explain":
            obj.setdefault("explain", {})["n_permutations"] = args.n_permutations
        else:
            obj.setdefault("validation", {})["n_permutations"] = args.n_permutations
    if getattr(args, "top_k", None) is not None:
        obj.setdefault("explain", {})["top_k"] = args.top_k
    if getattr(args, "method", None) is not None:
        obj.setdefault("validation", {})["method"] = args.method
    if getattr(args, "horizon", None) is not None:
        obj.setdefault("topic", {})["horizon"] = args.horizon
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
        elif args.command in ("synth", "ingest"):
            _report_outputs(stage_corpus(cfg))
        elif args.command == "label":
            _report_outputs(stage_label(cfg))
        elif args.command == "features":
            _report_outputs(stage_features(cfg))
        elif args.command == "gridsearch":
            _report_outputs(stage_gridsearch(cfg))
        elif args.command == "train":
            _report_outputs(stage_train(cfg))
        elif args.command == "evaluate":
            _report_outputs(stage_evaluate(cfg))
        elif args.command == "cv":
            _report_outputs(stage_cv(cfg, k=args.folds))
        elif args.command == "explain":
            _report_outputs(stage_explain(cfg))
        elif args.command == "jt-test":
            _report_outputs(stage_validate(cfg))
        elif args.command == "topic-score":
            _report_outputs(stage_topic_score(cfg))
        elif args.command == "report":
            _report_outputs(stage_report(cfg))
    except CorpusError as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except StageError as exc:
        log.error("%s", exc)
        return EXIT_STAGE
    return EXIT_OK


def _report_outputs(names: list[str]) -> None:
    for name in names:
        log.info("wrote %s", name)


if __name__ == "__main__":
    sys.exit(main())
