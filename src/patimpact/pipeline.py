"""End-to-end run orchestration.

A single JSON config drives every stage: corpus (ingest or synthesize),
label, features, optional grid search, train, evaluate, explain, validate,
topic-score, report. Each stage is independently runnable, consumes only
prior-stage files from the output directory, and derives its RNG seed from
the global seed and its stage name, so a full run and a manual stage-by-stage
run produce identical artifacts.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional

import numpy as np

from . import corpus as corpus_mod
from . import explain as explain_mod
from . import indicators as ind
from . import metrics as metrics_mod
from . import mtl as mtl_mod
from . import validate as validate_mod
from .corpus import (
    HORIZONS,
    ClassThresholds,
    Corpus,
    CorpusError,
    Horizon,
    ImpactClass,
    add_years,
    assign_impact_class,
    derive_thresholds,
    forward_citation_count,
    trajectory_pattern,
)
from .seeding import derive_seed
from .synth import SynthParams, generate_synthetic

log = logging.getLogger(__name__)

CONFIG_SCHEMA = "patimpact-config/1"
MANIFEST_SCHEMA = "patimpact-manifest/1"

F_CORPUS = "corpus.jsonl"
F_THRESHOLDS = "thresholds.json"
F_LABELS = "labels.csv"
F_FEATURES = "features.csv"
F_STANDARDIZER = "standardizer.json"
F_SPLIT = "split.json"
F_GRIDSEARCH = "gridsearch.csv"
F_BEST_CONFIG = "best_config.json"
F_MODEL = "model.ckpt.json"
F_TRAINING_LOG = "training_log.csv"
F_PREDICTIONS = "predictions.csv"
F_METRICS = "metrics.csv"
F_METRICS_JSON = "metrics.json"
F_COMPARISON = "comparison.csv"
F_ATTRIBUTIONS = "attributions.csv"
F_VALIDATION = "validation.csv"
F_TOPIC_CSV = "topic_scores.csv"
F_TOPIC_JSON = "topic_scores.json"
F_CV = "cv_metrics.csv"
F_REPORT = "report.md"
F_MANIFEST = "manifest.json"


class ConfigError(Exception):
    """Invalid or inconsistent pipeline configuration."""


class StageError(Exception):
    """A pipeline stage failed; carries the stage name."""

    def __init__(self, stage: str, message: str):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage


# --------------------------------------------------------------------------
# configuration
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class ExplainSettings:
    n_instances: int = 20
    n_permutations: int = 100
    background_size: int = 100
    top_k: int = 10
    target_class: ImpactClass = ImpactClass.BT
    filter_pattern: Optional[str] = None


@dataclass(frozen=True)
class ValidationSettings:
    method: str = "normal_approx"
    n_permutations: int = 10_000
    group_by: str = "predicted"  # or "actual"
    scope: str = "all"  # or "test"


@dataclass(frozen=True)
class TopicSettings:
    horizon: Horizon = Horizon.LONG
    group_by: str = "actual"


@dataclass(frozen=True)
class GridSettings:
    space: dict[str, list]
    k: int = 5


@dataclass(frozen=True)
class PipelineConfig:
    out_dir: Path
    seed: int = 0
    corpus_path: Optional[Path] = None
    synth: Optional[SynthParams] = None
    domain_ipc_prefix: str = "H01M"
    home_country: str = "US"
    threshold_mode: str = "fixed"
    test_year: Optional[int] = None
    network: mtl_mod.NetworkConfig = field(default_factory=mtl_mod.NetworkConfig)
    train: mtl_mod.TrainConfig = field(default_factory=mtl_mod.TrainConfig)
    grid: Optional[GridSettings] = None
    compare_stl: bool = True
    explain: ExplainSettings = field(default_factory=ExplainSettings)
    validation: ValidationSettings = field(default_factory=ValidationSettings)
    topic: TopicSettings = field(default_factory=TopicSettings)
    raw: dict = field(default_factory=dict, compare=False)

    def validate(self) -> None:
        if (self.corpus_path is None) == (self.synth is None):
            raise ConfigError("exactly one of corpus_path / synth must be set")
        if not self.out_dir.is_dir():
            raise ConfigError(f"output directory {self.out_dir} does not exist")
        if self.threshold_mode not in ("fixed", "stanine"):
            raise ConfigError(f"unknown threshold_mode {self.threshold_mode!r}")
        if self.validation.method not in validate_mod.JT_METHODS:
            raise ConfigError(f"unknown validation.method {self.validation.method!r}")
        if self.validation.n_permutations < 1:
            raise ConfigError("validation.n_permutations must be >= 1")
        if self.validation.group_by not in ("predicted", "actual"):
            raise ConfigError("validation.group_by must be 'predicted' or 'actual'")
        if self.validation.scope not in ("all", "test"):
            raise ConfigError("validation.scope must be 'all' or 'test'")
        if self.topic.group_by not in ("predicted", "actual"):
            raise ConfigError("topic.group_by must be 'predicted' or 'actual'")

    def path(self, name: str) -> Path:
        return self.out_dir / name

    def stage_seed(self, stage: str) -> int:
        return derive_seed(self.seed, stage)

    def config_hash(self) -> str:
        # identify the analysis configuration, not where it is written
        hashable = {k: v for k, v in self.raw.items() if k != "out_dir"}
        canon = json.dumps(hashable, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


def _network_from_obj(obj: dict, seed: int) -> mtl_mod.NetworkConfig:
    kwargs: dict = {"seed": seed}
    if "shared_layer_widths" in obj:
        kwargs["shared_layer_widths"] = tuple(obj["shared_layer_widths"])
    if "task_head_widths" in obj:
        kwargs["task_head_widths"] = {
            Horizon.from_key(k): tuple(v) for k, v in obj["task_head_widths"].items()
        }
    if "shared_dropout_rate" in obj:
        kwargs["shared_dropout_rate"] = float(obj["shared_dropout_rate"])
    return mtl_mod.NetworkConfig(**kwargs)


def _train_from_obj(obj: dict, seed: int) -> mtl_mod.TrainConfig:
    kwargs: dict = {"seed": seed}
    simple = {
        "learning_rate": float,
        "batch_size": int,
        "max_epochs": int,
        "early_stop_patience": int,
        "validation_fraction": float,
        "optimizer": str,
        "class_weighting": bool,
    }
    for key, conv in simple.items():
        if key in obj:
            kwargs[key] = conv(obj[key])
    if "task_loss_weights" in obj:
        kwargs["task_loss_weights"] = {
            Horizon.from_key(k): float(v) for k, v in obj["task_loss_weights"].items()
        }
    return mtl_mod.TrainConfig(**kwargs)


def read_config_obj(path) -> dict:
    """The raw JSON object of a config file; unreadable or malformed is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"malformed config JSON in {path}: {exc}") from None


def load_config(path) -> PipelineConfig:
    """Parse and validate a pipeline config JSON file."""
    return config_from_obj(read_config_obj(path), base_dir=Path(path).parent)


def config_from_obj(obj: dict, base_dir: Optional[Path] = None) -> PipelineConfig:
    if obj.get("schema") != CONFIG_SCHEMA:
        raise ConfigError(
            f"unsupported config schema {obj.get('schema')!r}; expected {CONFIG_SCHEMA}"
        )
    base = base_dir if base_dir is not None else Path(".")

    def resolve(p: str) -> Path:
        path = Path(p)
        return path if path.is_absolute() else base / path

    if "out_dir" not in obj:
        raise ConfigError("config requires out_dir")
    seed = int(obj.get("seed", 0))
    domain = str(obj.get("domain_ipc_prefix", "H01M"))

    synth = None
    if obj.get("synth") is not None:
        s = obj["synth"]
        try:
            synth = SynthParams(
                n_patents=int(s.get("n_patents", 2000)),
                year_range=tuple(s.get("year_range", (1996, 2014))),
                seed=derive_seed(seed, "synth"),
                citation_attachment_exponent=float(s.get("citation_attachment_exponent", 1.0)),
                feature_signal_strength=float(s.get("feature_signal_strength", 1.0)),
                mean_internal_citations=float(s.get("mean_internal_citations", 3.2)),
                mean_external_citations=float(s.get("mean_external_citations", 2.8)),
                domain_ipc_prefix=domain,
            )
            synth.validate()
        except (ValueError, TypeError) as exc:
            raise ConfigError(f"invalid synth params: {exc}") from None

    grid = None
    if obj.get("grid") is not None:
        g = obj["grid"]
        if not g.get("space"):
            raise ConfigError("grid requires a non-empty space")
        grid = GridSettings(space=dict(g["space"]), k=int(g.get("k", 5)))

    exp = obj.get("explain", {})
    val = obj.get("validation", {})
    top = obj.get("topic", {})
    try:
        cfg = PipelineConfig(
            out_dir=resolve(str(obj["out_dir"])),
            seed=seed,
            corpus_path=(
                resolve(str(obj["corpus_path"])) if obj.get("corpus_path") else None
            ),
            synth=synth,
            domain_ipc_prefix=domain,
            home_country=str(obj.get("home_country", "US")),
            threshold_mode=str(obj.get("threshold_mode", "fixed")),
            test_year=(None if obj.get("test_year") is None else int(obj["test_year"])),
            network=_network_from_obj(obj.get("network", {}), derive_seed(seed, "init")),
            train=_train_from_obj(obj.get("train", {}), derive_seed(seed, "train")),
            grid=grid,
            compare_stl=bool(obj.get("compare_stl", True)),
            explain=ExplainSettings(
                n_instances=int(exp.get("n_instances", 20)),
                n_permutations=int(exp.get("n_permutations", 100)),
                background_size=int(exp.get("background_size", 100)),
                top_k=int(exp.get("top_k", 10)),
                target_class=ImpactClass.from_name(str(exp.get("target_class", "BT"))),
                filter_pattern=exp.get("filter_pattern"),
            ),
            validation=ValidationSettings(
                method=str(val.get("method", "normal_approx")),
                n_permutations=int(val.get("n_permutations", 10_000)),
                group_by=str(val.get("group_by", "predicted")),
                scope=str(val.get("scope", "all")),
            ),
            topic=TopicSettings(
                horizon=Horizon.from_key(str(top.get("horizon", "long"))),
                group_by=str(top.get("group_by", "actual")),
            ),
            raw=obj,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# stage helpers
# --------------------------------------------------------------------------

def _require(cfg: PipelineConfig, stage: str, *names: str) -> None:
    missing = [n for n in names if not cfg.path(n).exists()]
    if missing:
        raise StageError(
            stage, f"missing prerequisite file(s): {', '.join(missing)}"
        )


def _load_corpus(cfg: PipelineConfig, stage: str) -> Corpus:
    _require(cfg, stage, F_CORPUS)
    return corpus_mod.load_corpus(cfg.path(F_CORPUS), cfg.domain_ipc_prefix)


@dataclass
class LabelRow:
    patent_id: str
    grant_year: int
    counts: dict[Horizon, int]
    classes: dict[Horizon, ImpactClass]
    trajectory: str


def _write_labels_csv(path, rows: list[LabelRow]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["patent_id", "grant_year"]
            + [f"{h.key}_count" for h in HORIZONS]
            + [f"{h.key}_class" for h in HORIZONS]
            + ["trajectory"]
        )
        for row in rows:
            writer.writerow(
                [row.patent_id, row.grant_year]
                + [row.counts[h] for h in HORIZONS]
                + [row.classes[h].name for h in HORIZONS]
                + [row.trajectory]
            )


def _read_labels_csv(path) -> list[LabelRow]:
    rows = []
    with open(path, "r", newline="", encoding="utf-8") as fh:
        for rec in csv.DictReader(fh):
            rows.append(
                LabelRow(
                    patent_id=rec["patent_id"],
                    grant_year=int(rec["grant_year"]),
                    counts={h: int(rec[f"{h.key}_count"]) for h in HORIZONS},
                    classes={
                        h: ImpactClass.from_name(rec[f"{h.key}_class"]) for h in HORIZONS
                    },
                    trajectory=rec["trajectory"],
                )
            )
    return rows


def _read_predictions_csv(path) -> list[dict]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


# --------------------------------------------------------------------------
# stages
# --------------------------------------------------------------------------

def stage_corpus(cfg: PipelineConfig) -> list[str]:
    """Synthesize or ingest, then persist the normalized corpus snapshot."""
    if cfg.synth is not None:
        corpus = generate_synthetic(cfg.synth)
    else:
        if not cfg.corpus_path.exists():
            raise StageError("corpus", f"corpus file {cfg.corpus_path} not found")
        corpus = corpus_mod.load_corpus(cfg.corpus_path, cfg.domain_ipc_prefix)
    corpus_mod.save_corpus(corpus, cfg.path(F_CORPUS))
    return [F_CORPUS]


def _modeling_ids(corpus: Corpus) -> tuple[list[str], dict[str, int]]:
    """Ids with a full window for every horizon, plus per-horizon exclusions."""
    end = corpus.max_grant_date()
    excluded = {h.key: 0 for h in HORIZONS}
    modeling = []
    for rec in sorted(corpus.records.values(), key=lambda r: (r.grant_date, r.id)):
        ok = True
        for h in HORIZONS:
            if add_years(rec.grant_date, h.years) > end:
                excluded[h.key] += 1
                ok = False
        if ok:
            modeling.append(rec.id)
    return modeling, excluded


def stage_label(cfg: PipelineConfig) -> list[str]:
    """Count forward citations, derive/emit thresholds, write class labels."""
    corpus = _load_corpus(cfg, "label")
    modeling, excluded = _modeling_ids(corpus)
    if not modeling:
        raise StageError("label", "no patent has a full window for every horizon")
    end = corpus.max_grant_date()

    pairs = {}
    for h in HORIZONS:
        if cfg.threshold_mode == "fixed":
            pairs[h.key] = derive_thresholds(corpus, h, "fixed")
        else:
            eligible = [
                pid
                for pid, rec in corpus.records.items()
                if add_years(rec.grant_date, h.years) <= end
            ]
            try:
                pairs[h.key] = derive_thresholds(corpus, h, "stanine", ids=eligible)
            except CorpusError as exc:
                raise StageError("label", f"stanine derivation failed: {exc}") from None
    thresholds = ClassThresholds(
        short=pairs["short"], mid=pairs["mid"], long=pairs["long"]
    )
    with open(cfg.path(F_THRESHOLDS), "w", encoding="utf-8") as fh:
        json.dump(thresholds.to_json_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")

    rows = []
    for pid in modeling:
        counts = {h: forward_citation_count(corpus, pid, h) for h in HORIZONS}
        classes = {
            h: assign_impact_class(counts[h], thresholds, h) for h in HORIZONS
        }
        rows.append(
            LabelRow(
                patent_id=pid,
                grant_year=corpus.get(pid).grant_date.year,
                counts=counts,
                classes=classes,
                trajectory=trajectory_pattern(
                    classes[Horizon.SHORT], classes[Horizon.MID], classes[Horizon.LONG]
                ).value,
            )
        )
    _write_labels_csv(cfg.path(F_LABELS), rows)
    log.info("labeled %d patents; exclusions per horizon: %s", len(rows), excluded)
    return [F_THRESHOLDS, F_LABELS]


def stage_features(cfg: PipelineConfig) -> list[str]:
    """Extract the indicator matrix for every labeled patent."""
    corpus = _load_corpus(cfg, "features")
    _require(cfg, "features", F_LABELS)
    ids = [row.patent_id for row in _read_labels_csv(cfg.path(F_LABELS))]
    matrix = ind.extract_feature_matrix(corpus, ids, home_country=cfg.home_country)
    ind.export_features_csv(cfg.path(F_FEATURES), ids, matrix)
    return [F_FEATURES]


def _temporal_split(
    cfg: PipelineConfig, rows: list[LabelRow]
) -> tuple[list[str], list[str], int]:
    years = sorted({r.grant_year for r in rows})
    test_year = cfg.test_year if cfg.test_year is not None else years[-1]
    train_ids = [r.patent_id for r in rows if r.grant_year < test_year]
    test_ids = [r.patent_id for r in rows if r.grant_year == test_year]
    dropped = [r.patent_id for r in rows if r.grant_year > test_year]
    if dropped:
        log.warning("%d labeled patents are newer than the test year", len(dropped))
    if not train_ids or not test_ids:
        raise StageError(
            "train",
            f"temporal split at {test_year} leaves {len(train_ids)} train / "
            f"{len(test_ids)} test patents",
        )
    return train_ids, test_ids, test_year


def _label_arrays(
    rows: list[LabelRow], ids: list[str]
) -> dict[Horizon, np.ndarray]:
    by_id = {r.patent_id: r for r in rows}
    return {
        h: np.array([int(by_id[pid].classes[h]) for pid in ids], dtype=np.int64)
        for h in HORIZONS
    }


def stage_gridsearch(cfg: PipelineConfig) -> list[str]:
    """Exhaustive hyperparameter search on the training split."""
    if cfg.grid is None:
        raise StageError("gridsearch", "config has no grid.space")
    _require(cfg, "gridsearch", F_LABELS, F_FEATURES)
    rows = _read_labels_csv(cfg.path(F_LABELS))
    ids, matrix = ind.load_features_csv(cfg.path(F_FEATURES))
    train_ids, _, _ = _temporal_split(cfg, rows)
    pos = {pid: i for i, pid in enumerate(ids)}
    X_train = matrix[[pos[p] for p in train_ids]]
    std = ind.fit_standardizer(X_train)
    labels = _label_arrays(rows, train_ids)

    space = dict(cfg.grid.space)
    result = mtl_mod.grid_search(
        space,
        std.transform(X_train),
        labels,
        k=cfg.grid.k,
        seed=cfg.stage_seed("gridsearch"),
        base_network=cfg.network,
        base_train=cfg.train,
    )
    with open(cfg.path(F_GRIDSEARCH), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cell", "assignment", "score", "fold_scores"])
        for i, cell in enumerate(result.cells):
            writer.writerow(
                [
                    i,
                    json.dumps(dict(cell.assignment), sort_keys=True),
                    repr(cell.score),
                    json.dumps([round(s, 12) for s in cell.fold_scores]),
                ]
            )
    best = {
        "score": result.best_score,
        "network": mtl_mod._network_to_json(result.best_network),
        "train": {
            "learning_rate": result.best_train.learning_rate,
            "batch_size": result.best_train.batch_size,
            "max_epochs": result.best_train.max_epochs,
            "early_stop_patience": result.best_train.early_stop_patience,
            "task_loss_weights": {
                h.key: w for h, w in result.best_train.task_loss_weights.items()
            },
            "validation_fraction": result.best_train.validation_fraction,
            "optimizer": result.best_train.optimizer,
            "class_weighting": result.best_train.class_weighting,
        },
    }
    with open(cfg.path(F_BEST_CONFIG), "w", encoding="utf-8") as fh:
        json.dump(best, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return [F_GRIDSEARCH, F_BEST_CONFIG]


def _configs_for_training(
    cfg: PipelineConfig,
) -> tuple[mtl_mod.NetworkConfig, mtl_mod.TrainConfig]:
    if cfg.grid is None:
        return cfg.network, cfg.train
    best_path = cfg.path(F_BEST_CONFIG)
    if not best_path.exists():
        raise StageError(
            "train", f"config has grid.space but {F_BEST_CONFIG} is missing; run gridsearch"
        )
    with open(best_path, "r", encoding="utf-8") as fh:
        best = json.load(fh)
    network = mtl_mod._network_from_json(best["network"])
    train_cfg = _train_from_obj(best["train"], derive_seed(cfg.seed, "train"))
    return network, train_cfg


def stage_train(cfg: PipelineConfig) -> list[str]:
    """Fit the standardizer and the multi-task model (plus ablations)."""
    _require(cfg, "train", F_LABELS, F_FEATURES)
    rows = _read_labels_csv(cfg.path(F_LABELS))
    ids, matrix = ind.load_features_csv(cfg.path(F_FEATURES))
    train_ids, test_ids, test_year = _temporal_split(cfg, rows)
    pos = {pid: i for i, pid in enumerate(ids)}
    X_train = matrix[[pos[p] for p in train_ids]]

    std = ind.fit_standardizer(X_train)
    ind.save_standardizer(cfg.path(F_STANDARDIZER), std)
    with open(cfg.path(F_SPLIT), "w", encoding="utf-8") as fh:
        json.dump(
            {"test_year": test_year, "train_ids": train_ids, "test_ids": test_ids},
            fh,
            sort_keys=True,
        )
        fh.write("\n")

    network, train_cfg = _configs_for_training(cfg)
    labels = _label_arrays(rows, train_ids)
    model = mtl_mod.init_network(network)
    model.standardizer = std
    try:
        mtl_mod.train(model, std.transform(X_train), labels, train_cfg)
    except (ValueError, RuntimeError) as exc:
        raise StageError("train", str(exc)) from None
    mtl_mod.save_checkpoint(cfg.path(F_MODEL), model)
    mtl_mod.export_training_log_csv(cfg.path(F_TRAINING_LOG), model)
    outputs = [F_STANDARDIZER, F_SPLIT, F_MODEL, F_TRAINING_LOG]

    if cfg.compare_stl:
        for h in HORIZONS:
            stl = mtl_mod.train_stl(
                h, std.transform(X_train), labels[h], train_cfg, network=network
            )
            stl.standardizer = std
            name = f"stl_{h.key}.ckpt.json"
            mtl_mod.save_checkpoint(cfg.path(name), stl)
            outputs.append(name)
    return outputs


def stage_evaluate(cfg: PipelineConfig) -> list[str]:
    """Predict, tabulate confusion matrices, and export metric tables."""
    _require(cfg, "evaluate", F_LABELS, F_FEATURES, F_MODEL, F_SPLIT)
    rows = _read_labels_csv(cfg.path(F_LABELS))
    ids, matrix = ind.load_features_csv(cfg.path(F_FEATURES))
    with open(cfg.path(F_SPLIT), "r", encoding="utf-8") as fh:
        split = json.load(fh)
    model = mtl_mod.load_checkpoint(cfg.path(F_MODEL))
    std = model.standardizer
    pos = {pid: i for i, pid in enumerate(ids)}
    by_id = {r.patent_id: r for r in rows}

    all_ids = split["train_ids"] + split["test_ids"]
    X = std.transform(matrix[[pos[p] for p in all_ids]])
    preds = mtl_mod.predict_batch(model, X)
    split_of = {pid: "train" for pid in split["train_ids"]}
    split_of.update({pid: "test" for pid in split["test_ids"]})

    with open(cfg.path(F_PREDICTIONS), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["patent_id", "split"]
            + [f"{h.key}_actual" for h in HORIZONS]
            + [f"{h.key}_predicted" for h in HORIZONS]
        )
        for i, pid in enumerate(all_ids):
            writer.writerow(
                [pid, split_of[pid]]
                + [by_id[pid].classes[h].name for h in HORIZONS]
                + [ImpactClass(int(preds[h][i])).name for h in HORIZONS]
            )

    test_index = [i for i, pid in enumerate(all_ids) if split_of[pid] == "test"]
    mtl_cms = {}
    for h in HORIZONS:
        actual = [by_id[all_ids[i]].classes[h] for i in test_index]
        predicted = [ImpactClass(int(preds[h][i])) for i in test_index]
        mtl_cms[h] = metrics_mod.confusion_from_predictions(actual, predicted)
    metrics_mod.export_metrics_csv(cfg.path(F_METRICS), mtl_cms)
    metrics_mod.export_metrics_json(cfg.path(F_METRICS_JSON), mtl_cms)
    outputs = [F_PREDICTIONS, F_METRICS, F_METRICS_JSON]

    if cfg.compare_stl:
        stl_cms = {}
        for h in HORIZONS:
            path = cfg.path(f"stl_{h.key}.ckpt.json")
            if not path.exists():
                raise StageError("evaluate", f"missing {path.name}; rerun train")
            stl = mtl_mod.load_checkpoint(path)
            stl_pred = mtl_mod.predict_batch(
                stl, std.transform(matrix[[pos[all_ids[i]] for i in test_index]])
            )[h]
            actual = [by_id[all_ids[i]].classes[h] for i in test_index]
            predicted = [ImpactClass(int(v)) for v in stl_pred]
            stl_cms[h] = metrics_mod.confusion_from_predictions(actual, predicted)
        comparison = metrics_mod.compare_models(mtl_cms, stl_cms)
        metrics_mod.export_comparison_csv(cfg.path(F_COMPARISON), comparison)
        outputs.append(F_COMPARISON)
    return outputs


def stage_explain(cfg: PipelineConfig) -> list[str]:
    """Sampled Shapley attributions for a seeded subset of test patents."""
    _require(cfg, "explain", F_LABELS, F_FEATURES, F_MODEL, F_SPLIT)
    rows = _read_labels_csv(cfg.path(F_LABELS))
    ids, matrix = ind.load_features_csv(cfg.path(F_FEATURES))
    with open(cfg.path(F_SPLIT), "r", encoding="utf-8") as fh:
        split = json.load(fh)
    model = mtl_mod.load_checkpoint(cfg.path(F_MODEL))
    std = model.standardizer
    pos = {pid: i for i, pid in enumerate(ids)}
    seed = cfg.stage_seed("explain")

    train_X = std.transform(matrix[[pos[p] for p in split["train_ids"]]])
    background = explain_mod.BackgroundSet.sample(
        train_X, size=cfg.explain.background_size, seed=derive_seed(seed, "background")
    )
    rng = np.random.default_rng(derive_seed(seed, "instances"))
    test_ids = list(split["test_ids"])
    n_pick = min(cfg.explain.n_instances, len(test_ids))
    picked = sorted(rng.choice(len(test_ids), size=n_pick, replace=False).tolist())
    instance_ids = [test_ids[i] for i in picked]

    grouping = explain_mod.default_grouping()
    trajectory_of = {r.patent_id: r.trajectory for r in rows}
    targets = [
        explain_mod.AttributionTarget(horizon=h, impact_class=cfg.explain.target_class)
        for h in HORIZONS
    ]
    by_target = explain_mod.attribute_instances(
        model,
        {pid: std.transform(matrix[pos[pid]]) for pid in instance_ids},
        background,
        target=targets,
        grouping=grouping,
        n_permutations=cfg.explain.n_permutations,
        seed=seed,
        display_values={pid: matrix[pos[pid]] for pid in instance_ids},
    )
    explain_mod.export_attributions_csv(cfg.path(F_ATTRIBUTIONS), by_target, grouping)
    outputs = [F_ATTRIBUTIONS]

    for target, att_rows in by_target:
        h = target.horizon
        labels = trajectory_of if cfg.explain.filter_pattern is not None else None
        _, records = explain_mod.group_summary(
            att_rows,
            grouping,
            instance_labels=labels,
            label_filter=cfg.explain.filter_pattern,
            top_k=cfg.explain.top_k,
        )
        stem = f"summary_{h.key}_{target.impact_class.name}"
        explain_mod.export_group_summary_csv(cfg.path(f"{stem}.csv"), records)
        outputs.append(f"{stem}.csv")
        if not records:
            log.warning(
                "no explained %s instances with trajectory %r; skipping plot",
                h.key, cfg.explain.filter_pattern,
            )
            continue
        plot_rows = att_rows
        if cfg.explain.filter_pattern is not None:
            plot_rows = [
                r for r in att_rows
                if trajectory_of.get(r.instance_id) == cfg.explain.filter_pattern
            ]
        explain_mod.render_beeswarm_svg(
            cfg.path(f"{stem}.svg"),
            plot_rows,
            grouping,
            top_k=cfg.explain.top_k,
            title=f"{h.key}-term {target.impact_class.name} attribution summary",
        )
        outputs.append(f"{stem}.svg")
    return outputs


def _classes_for_validation(
    cfg: PipelineConfig, stage: str, group_by: str, scope: str
) -> dict[Horizon, dict[str, ImpactClass]]:
    _require(cfg, stage, F_PREDICTIONS)
    pred_rows = _read_predictions_csv(cfg.path(F_PREDICTIONS))
    col = "predicted" if group_by == "predicted" else "actual"
    out: dict[Horizon, dict[str, ImpactClass]] = {h: {} for h in HORIZONS}
    for rec in pred_rows:
        if scope == "test" and rec["split"] != "test":
            continue
        for h in HORIZONS:
            out[h][rec["patent_id"]] = ImpactClass.from_name(rec[f"{h.key}_{col}"])
    return out


def stage_validate(cfg: PipelineConfig) -> list[str]:
    """Ordered-trend tests of post-hoc value indicators per horizon."""
    corpus = _load_corpus(cfg, "validate")
    classes = _classes_for_validation(
        cfg, "validate", cfg.validation.group_by, cfg.validation.scope
    )
    per_horizon = {}
    for h in HORIZONS:
        try:
            per_horizon[h.key] = validate_mod.validate_value_indicators(
                corpus,
                classes[h],
                method=cfg.validation.method,
                seed=derive_seed(cfg.stage_seed("validate"), h.key),
                n_permutations=cfg.validation.n_permutations,
            )
        except ValueError as exc:
            raise StageError("validate", f"{h.key}: {exc}") from None
    validate_mod.export_validation_csv(cfg.path(F_VALIDATION), per_horizon)
    return [F_VALIDATION]


def stage_topic_score(cfg: PipelineConfig) -> list[str]:
    """Class-weighted topic impact scores per grant year."""
    corpus = _load_corpus(cfg, "topic-score")
    h = cfg.topic.horizon
    if cfg.topic.group_by == "actual":
        _require(cfg, "topic-score", F_LABELS)
        rows = _read_labels_csv(cfg.path(F_LABELS))
        classes = {r.patent_id: r.classes[h] for r in rows}
    else:
        classes = _classes_for_validation(cfg, "topic-score", "predicted", "all")[h]
    try:
        table = validate_mod.topic_impact_scores(corpus, classes)
    except ValueError as exc:
        raise StageError("topic-score", str(exc)) from None
    validate_mod.export_topic_scores_csv(cfg.path(F_TOPIC_CSV), table)
    validate_mod.export_topic_scores_json(cfg.path(F_TOPIC_JSON), table)
    return [F_TOPIC_CSV, F_TOPIC_JSON]


def stage_cv(cfg: PipelineConfig, k: int = 5) -> list[str]:
    """Stratified k-fold cross-validation of the configured model."""
    _require(cfg, "cv", F_LABELS, F_FEATURES)
    rows = _read_labels_csv(cfg.path(F_LABELS))
    ids, matrix = ind.load_features_csv(cfg.path(F_FEATURES))
    train_ids, _, _ = _temporal_split(cfg, rows)
    pos = {pid: i for i, pid in enumerate(ids)}
    X = matrix[[pos[p] for p in train_ids]]
    labels = _label_arrays(rows, train_ids)
    network, train_cfg = _configs_for_training(cfg)

    stratify = [ImpactClass(int(v)) for v in labels[Horizon.LONG]]
    folds = metrics_mod.stratified_kfold(
        stratify, k, derive_seed(cfg.stage_seed("cv"), "folds")
    )
    with open(cfg.path(F_CV), "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["fold", "horizon", "class", "metric", "value"])
        for fold, (tr, te) in enumerate(folds.splits()):
            std = ind.fit_standardizer(X[tr])
            model = mtl_mod.init_network(network)
            mtl_mod.train(
                model, std.transform(X[tr]), {h: labels[h][tr] for h in HORIZONS}, train_cfg
            )
            preds = mtl_mod.predict_batch(model, std.transform(X[te]))
            cms = {}
            for h in HORIZONS:
                actual = [ImpactClass(int(v)) for v in labels[h][te]]
                predicted = [ImpactClass(int(v)) for v in preds[h]]
                cms[h] = metrics_mod.confusion_from_predictions(actual, predicted)
            for row in metrics_mod.metrics_rows(cms):
                writer.writerow([fold, row[0], row[1], row[2], repr(row[3])])
    return [F_CV]


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def _fmt(x: float) -> str:
    if x != x:
        return "nan"
    if x == float("inf"):
        return "inf"
    return f"{x:.4f}"


def stage_report(cfg: PipelineConfig) -> list[str]:
    """Merge stage outputs into one human-readable markdown summary."""
    required = [F_THRESHOLDS, F_LABELS, F_METRICS]
    missing = [n for n in required if not cfg.path(n).exists()]
    if missing:
        raise StageError("report", f"missing prerequisite file(s): {', '.join(missing)}")

    lines = ["# Technology impact analysis report", ""]
    lines.append(f"- config hash: `{cfg.config_hash()}`")
    lines.append(f"- seed: {cfg.seed}")
    lines.append("")

    with open(cfg.path(F_THRESHOLDS), "r", encoding="utf-8") as fh:
        thresholds = json.load(fh)
    rows = _read_labels_csv(cfg.path(F_LABELS))
    lines.append("## Impact classes")
    lines.append("")
    lines.append("| horizon | BT rule | VT rule | MT | VT | BT | BT share |")
    lines.append("|---|---|---|---|---|---|---|")
    for h in HORIZONS:
        t = thresholds[h.key]
        counts = {c: 0 for c in ("MT", "VT", "BT")}
        for r in rows:
            counts[r.classes[h].name] += 1
        n = max(1, len(rows))
        lines.append(
            f"| {h.key} | >= {t['bt_min']} | >= {t['vt_min']} | "
            f"{counts['MT']} | {counts['VT']} | {counts['BT']} | "
            f"{counts['BT'] / n:.2%} |"
        )
    lines.append("")

    traj_counts: dict[str, int] = {}
    for r in rows:
        traj_counts[r.trajectory] = traj_counts.get(r.trajectory, 0) + 1
    lines.append("## Trajectory patterns")
    lines.append("")
    for name in sorted(traj_counts):
        lines.append(f"- {name}: {traj_counts[name]}")
    lines.append("")

    lines.append("## Test-set performance (multi-task model)")
    lines.append("")
    with open(cfg.path(F_METRICS), "r", newline="", encoding="utf-8") as fh:
        metric_rows = list(csv.DictReader(fh))
    for h in HORIZONS:
        sub = [r for r in metric_rows if r["horizon"] == h.key]
        if not sub:
            continue
        lines.append(f"### {h.key}-term")
        lines.append("")
        lines.append("| metric | MT | VT | BT | overall (macro) |")
        lines.append("|---|---|---|---|---|")
        for metric in metrics_mod.METRIC_NAMES:
            cells = {}
            for r in sub:
                if r["metric"] == metric and r["class"] in ("MT", "VT", "BT", "overall_macro"):
                    cells[r["class"]] = _fmt(float(r["value"]))
            lines.append(
                f"| {metric} | {cells.get('MT', '')} | {cells.get('VT', '')} | "
                f"{cells.get('BT', '')} | {cells.get('overall_macro', '')} |"
            )
        extras = {
            r["class"]: _fmt(float(r["value"]))
            for r in sub
            if r["class"] in ("overall_micro", "overall_multiclass")
        }
        lines.append("")
        lines.append(
            f"micro accuracy {extras.get('overall_micro', '?')}, "
            f"multiclass MCC {extras.get('overall_multiclass', '?')}"
        )
        lines.append("")

    if cfg.path(F_COMPARISON).exists():
        lines.append("## Single-task ablation (value and delta vs multi-task)")
        lines.append("")
        with open(cfg.path(F_COMPARISON), "r", newline="", encoding="utf-8") as fh:
            comp_rows = list(csv.DictReader(fh))
        for h in HORIZONS:
            sub = [r for r in comp_rows if r["horizon"] == h.key]
            if not sub:
                continue
            lines.append(f"### {h.key}-term")
            lines.append("")
            lines.append("| metric | MT | VT | BT | overall |")
            lines.append("|---|---|---|---|---|")
            for metric in metrics_mod.METRIC_NAMES:
                cells = {}
                for r in sub:
                    if r["metric"] == metric:
                        cells[r["class"]] = (
                            f"{_fmt(float(r['value']))} ({float(r['delta_vs_reference']):+.4f})"
                        )
                lines.append(
                    f"| {metric} | {cells.get('MT', '')} | {cells.get('VT', '')} | "
                    f"{cells.get('BT', '')} | {cells.get('overall', '')} |"
                )
            lines.append("")

    if cfg.path(F_ATTRIBUTIONS).exists():
        lines.append("## Attribution: top indicators per horizon")
        lines.append("")
        with open(cfg.path(F_ATTRIBUTIONS), "r", newline="", encoding="utf-8") as fh:
            att_rows = list(csv.DictReader(fh))
        for h in HORIZONS:
            sums: dict[str, list[float]] = {}
            for r in att_rows:
                if r["horizon"] == h.key:
                    sums.setdefault(r["group"], []).append(abs(float(r["phi"])))
            if not sums:
                continue
            ranked = explain_mod.rank_groups(
                (g, sum(v) / len(v)) for g, v in sums.items()
            )[: cfg.explain.top_k]
            lines.append(
                f"- **{h.key}-term**: "
                + ", ".join(f"{g} ({m:.4f})" for g, m in ranked)
            )
        lines.append("")

    if cfg.path(F_VALIDATION).exists():
        lines.append("## Ordered-trend validation of post-hoc value indicators")
        lines.append("")
        lines.append("| horizon | indicator | JT | z | p-value | method |")
        lines.append("|---|---|---|---|---|---|")
        with open(cfg.path(F_VALIDATION), "r", newline="", encoding="utf-8") as fh:
            for r in csv.DictReader(fh):
                lines.append(
                    f"| {r['horizon']} | {r['indicator']} | {_fmt(float(r['jt_statistic']))} | "
                    f"{_fmt(float(r['z']))} | {_fmt(float(r['p_value']))} | {r['method']} |"
                )
        lines.append("")

    if cfg.path(F_TOPIC_CSV).exists():
        lines.append("## Topic impact scores by grant year")
        lines.append("")
        with open(cfg.path(F_TOPIC_CSV), "r", newline="", encoding="utf-8") as fh:
            topic_rows = list(csv.DictReader(fh))
        years = sorted({int(r["year"]) for r in topic_rows})
        topics = sorted({r["topic"] for r in topic_rows})
        score = {(r["topic"], int(r["year"])): float(r["score"]) for r in topic_rows}
        lines.append("| topic | " + " | ".join(str(y) for y in years) + " |")
        lines.append("|---|" + "---|" * len(years))
        for topic in topics:
            cells = [
                _fmt(score[(topic, y)]) if (topic, y) in score else ""
                for y in years
            ]
            lines.append(f"| {topic} | " + " | ".join(cells) + " |")
        lines.append("")

    with open(cfg.path(F_REPORT), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
    return [F_REPORT]


# --------------------------------------------------------------------------
# manifest and full pipeline
# --------------------------------------------------------------------------

@dataclass
class StageRecord:
    name: str
    seconds: float
    outputs: list[dict]


@dataclass
class RunManifest:
    config_hash: str
    seed: int
    stages: list[StageRecord] = field(default_factory=list)
    error: Optional[str] = None

    def to_json_obj(self) -> dict:
        return {
            "schema": MANIFEST_SCHEMA,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "stages": [
                {"name": s.name, "seconds": s.seconds, "outputs": s.outputs}
                for s in self.stages
            ],
            "error": self.error,
        }


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _inventory(cfg: PipelineConfig, names: list[str]) -> list[dict]:
    out = []
    for name in names:
        p = cfg.path(name)
        out.append({"path": name, "sha256": _sha256(p), "bytes": p.stat().st_size})
    return out


STAGES: dict[str, Callable[[PipelineConfig], list[str]]] = {
    "corpus": stage_corpus,
    "label": stage_label,
    "features": stage_features,
    "gridsearch": stage_gridsearch,
    "train": stage_train,
    "evaluate": stage_evaluate,
    "explain": stage_explain,
    "validate": stage_validate,
    "topic-score": stage_topic_score,
    "report": stage_report,
}


def pipeline_stage_names(cfg: PipelineConfig) -> list[str]:
    names = ["corpus", "label", "features"]
    if cfg.grid is not None:
        names.append("gridsearch")
    names += ["train", "evaluate", "explain", "validate", "topic-score", "report"]
    return names


def run_pipeline(cfg: PipelineConfig) -> RunManifest:
    """Execute every stage in order; a stage failure aborts after writing a
    partial manifest. The manifest inventories every output with a checksum."""
    cfg.validate()
    manifest = RunManifest(config_hash=cfg.config_hash(), seed=cfg.seed)
    for name in pipeline_stage_names(cfg):
        t0 = time.perf_counter()
        try:
            outputs = STAGES[name](cfg)
        except StageError as exc:
            manifest.error = str(exc)
            _write_manifest(cfg, manifest)
            raise
        except (CorpusError, ValueError, OSError) as exc:
            manifest.error = f"[{name}] {exc}"
            _write_manifest(cfg, manifest)
            raise StageError(name, str(exc)) from exc
        manifest.stages.append(
            StageRecord(
                name=name,
                seconds=round(time.perf_counter() - t0, 3),
                outputs=_inventory(cfg, outputs),
            )
        )
    _write_manifest(cfg, manifest)
    return manifest


def _write_manifest(cfg: PipelineConfig, manifest: RunManifest) -> None:
    with open(cfg.path(F_MANIFEST), "w", encoding="utf-8") as fh:
        json.dump(manifest.to_json_obj(), fh, indent=2, sort_keys=True)
        fh.write("\n")
