"""Command-line entry point.

Every subcommand reads the same JSON config (see README for the schema) and
writes its artifacts into the configured output directory, so stages can be
run one at a time or all at once with `run`. The stage subcommands and their
flags come from the stage table, `pipeline.STAGE_SPECS`. Exit codes: 0
success, 1 config or usage error, 2 data error, 3 stage failure.
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

log = logging.getLogger("patimpact")

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_DATA = 2
EXIT_STAGE = 3


def build_parser() -> argparse.ArgumentParser:
    # Options whose dest starts with "cfg." override the config entry named by
    # the rest of the dest: a top-level key or "block.key".
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", required=True, help="pipeline config JSON")
    common.add_argument("--seed", dest="cfg.seed", metavar="SEED", type=int,
                        help="override global seed")
    common.add_argument("--out", dest="cfg.out_dir", metavar="DIR",
                        help="override output directory")
    parser = argparse.ArgumentParser(
        prog="patimpact",
        description="Time-variant patent impact analysis pipeline",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("run", help="execute the full pipeline", parents=[common])
    for name, spec in pipeline.STAGE_SPECS.items():
        for command, help_text, requires in spec.commands:
            p = sub.add_parser(command, help=help_text, parents=[common])
            # a flag that names no config entry passes its value to the stage
            keywords = {}
            for flag, target, kwargs in spec.flags:
                if target.split(".")[0] in pipeline.CONFIG_TOP_LEVEL_KEYS:
                    p.add_argument(flag, dest=f"cfg.{target}", **kwargs)
                else:
                    keywords[p.add_argument(flag, **kwargs).dest] = target
            p.set_defaults(stage=name, requires=requires, keywords=keywords)
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse printed the help, or the usage and the error
        return EXIT_OK if exc.code == 0 else EXIT_CONFIG
    try:
        cfg = _load_config_with_overrides(args)
        if args.command == "run":
            manifest = run_pipeline(cfg)
            log.info(
                "pipeline complete: %d stages, outputs in %s",
                len(manifest.stages), cfg.out_dir,
            )
        elif args.requires and getattr(cfg, args.requires) is None:
            raise ConfigError(f"{args.command} subcommand requires {args.requires} in the config")
        else:
            kwargs = {keyword: getattr(args, dest) for dest, keyword in args.keywords.items()}
            for name in pipeline.STAGES[args.stage](cfg, **kwargs):
                log.info("wrote %s", name)
    except ConfigError as exc:
        log.error("config error: %s", exc)
        return EXIT_CONFIG
    except CorpusError as exc:
        log.error("data error: %s", exc)
        return EXIT_DATA
    except StageError as exc:
        log.error("%s", exc)
        return EXIT_STAGE
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
