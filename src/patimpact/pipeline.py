"""End-to-end run orchestration.

A single JSON config drives every stage: corpus (ingest or synthesize),
label, features, optional grid search, train, evaluate, explain, validate,
topic-score, report. Each stage is independently runnable, consumes only
prior-stage files from the output directory, and derives its RNG seed from
the global seed and its stage name, so a full run and a manual stage-by-stage
run produce identical artifacts. Stages read their inputs through a
RunContext, which parses each artifact once; a full run shares one context
across its stages, and a stage called on its own builds its own.
"""

from __future__ import annotations

import csv
import hashlib
import json
import logging
import time
from collections import Counter
from dataclasses import asdict, dataclass, field
from functools import wraps
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
        for name, value, allowed in (
            ("threshold_mode", self.threshold_mode, ("fixed", "stanine")),
            ("validation.method", self.validation.method, validate_mod.JT_METHODS),
            ("validation.group_by", self.validation.group_by, ("predicted", "actual")),
            ("validation.scope", self.validation.scope, ("all", "test")),
            ("topic.group_by", self.topic.group_by, ("predicted", "actual")),
        ):
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {list(allowed)}, not {value!r}")
        for name, value in (
            ("explain.n_permutations", self.explain.n_permutations),
            ("explain.background_size", self.explain.background_size),
            ("validation.n_permutations", self.validation.n_permutations),
        ):
            if value < 1:
                raise ConfigError(f"{name} must be >= 1")

    def path(self, name: str) -> Path:
        return self.out_dir / name

    def stage_seed(self, stage: str) -> int:
        return derive_seed(self.seed, stage)

    def config_hash(self) -> str:
        # identify the analysis configuration, not where it is written
        hashable = {k: v for k, v in self.raw.items() if k != "out_dir"}
        canon = json.dumps(hashable, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode()).hexdigest()


CONFIG_TOP_LEVEL_KEYS = (
    "schema", "out_dir", "seed", "corpus_path", "synth", "domain_ipc_prefix",
    "home_country", "threshold_mode", "test_year", "network", "train", "grid",
    "compare_stl", "explain", "validation", "topic",
)
# network keys a config may set; input_dim and the seeds are derived
CONFIG_NETWORK_KEYS = ("shared_layer_widths", "task_head_widths", "shared_dropout_rate")
CONFIG_SYNTH_KEYS = (
    "n_patents", "year_range", "citation_attachment_exponent", "feature_signal_strength",
    "mean_internal_citations", "mean_external_citations",
)


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
    unknown = sorted(set(obj) - set(CONFIG_TOP_LEVEL_KEYS))
    if unknown:
        raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
    seed = obj.get("seed", 0)
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise ConfigError(f"seed must be a JSON integer, got {seed!r}")
    test_year = obj.get("test_year")
    if test_year is not None and (isinstance(test_year, bool) or not isinstance(test_year, int)):
        raise ConfigError(f"test_year must be a JSON integer or null, got {test_year!r}")
    compare_stl = obj.get("compare_stl", True)
    if not isinstance(compare_stl, bool):
        raise ConfigError(f"compare_stl must be true or false, got {compare_stl!r}")
    domain = str(obj.get("domain_ipc_prefix", "H01M"))

    def block(name: str, keys) -> dict:
        # the config's `name` object ({} when absent); a key outside `keys` is an error
        values = obj.get(name)
        if values is None:
            return {}
        if not isinstance(values, dict):
            raise ConfigError(f"{name} must be a JSON object")
        unknown = sorted(set(values) - set(keys))
        if unknown:
            raise ConfigError(f"unknown key(s) in {name}: {', '.join(unknown)}")
        return values

    synth = None
    if obj.get("synth") is not None:
        s = block("synth", CONFIG_SYNTH_KEYS)
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

    def grid_settings() -> Optional[GridSettings]:
        if obj.get("grid") is None:
            return None
        g = block("grid", ("space", "k"))
        space = g.get("space")
        if not space or not isinstance(space, dict):
            raise ConfigError("grid requires a non-empty space object")
        for key, candidates in space.items():
            if key not in mtl_mod.HYPERPARAMETERS:
                raise ConfigError(f"grid.space.{key} is not a hyperparameter")
            if not isinstance(candidates, list) or not candidates:
                raise ConfigError(f"grid.space.{key} must be a non-empty list")
        k = int(g.get("k", 5))
        if k < 2:
            raise ConfigError("grid.k must be >= 2")
        return GridSettings(space=dict(space), k=k)

    def settings(cls, name: str, **convert):
        # the keys the block holds, converted; other fields keep their defaults
        values = block(name, convert)
        return cls(**{k: convert[k](v) for k, v in values.items()})

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
            test_year=test_year,
            network=mtl_mod.from_json(
                mtl_mod.NetworkConfig, obj.get("network", {}), CONFIG_NETWORK_KEYS,
                "network", seed=derive_seed(seed, "init"),
            ),
            train=mtl_mod.from_json(
                mtl_mod.TrainConfig, obj.get("train", {}), name="train",
                seed=derive_seed(seed, "train"),
            ),
            grid=grid_settings(),
            compare_stl=compare_stl,
            explain=settings(
                ExplainSettings, "explain",
                n_instances=int, n_permutations=int, background_size=int, top_k=int,
                target_class=lambda v: ImpactClass.from_name(str(v)),
                filter_pattern=lambda v: v,
            ),
            validation=settings(
                ValidationSettings, "validation",
                method=str, n_permutations=int, group_by=str, scope=str,
            ),
            topic=settings(
                TopicSettings, "topic",
                horizon=lambda v: Horizon.from_key(str(v)), group_by=str,
            ),
            raw=obj,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    cfg.validate()
    return cfg


# --------------------------------------------------------------------------
# artifact I/O and the run context
# --------------------------------------------------------------------------

def _read_csv(path) -> list[dict]:
    with open(path, "r", newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _write_csv(path, header: list, rows) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def _write_json(path, obj, indent: Optional[int] = 2) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=indent, sort_keys=True)
        fh.write("\n")


@dataclass
class LabelRow:
    patent_id: str
    grant_year: int
    classes: dict[Horizon, ImpactClass]
    trajectory: str


def _read_labels(path) -> tuple[list[LabelRow], dict[str, LabelRow]]:
    """The label rows of labels.csv and the row of each patent id."""
    rows = [
        LabelRow(
            patent_id=rec["patent_id"],
            grant_year=int(rec["grant_year"]),
            classes={h: ImpactClass.from_name(rec[f"{h.key}_class"]) for h in HORIZONS},
            trajectory=rec["trajectory"],
        )
        for rec in _read_csv(path)
    ]
    return rows, {r.patent_id: r for r in rows}


def _read_features(path) -> tuple[dict[str, int], np.ndarray]:
    """The row of each patent id in features.csv and the feature matrix."""
    ids, matrix = ind.load_features_csv(path)
    return {pid: i for i, pid in enumerate(ids)}, matrix


class RunContext:
    """One run's config plus the artifacts its stages read.

    Each artifact is parsed from the output directory at most once while the
    context holds it; a missing one is a StageError of the running stage. A
    context serves one run, in which every artifact is written before it is
    read.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.stage = ""
        self._loaded: dict[str, object] = {}

    def require(self, *names: str) -> None:
        missing = [n for n in names if not self.cfg.path(n).exists()]
        if missing:
            raise StageError(
                self.stage, f"missing prerequisite file(s): {', '.join(missing)}"
            )

    def _load(self, name: str, parse: Callable):
        if name not in self._loaded:
            self.require(name)
            self._loaded[name] = parse(self.cfg.path(name))
        return self._loaded[name]

    def keep_only(self, names) -> None:
        """Drop every loaded artifact whose file is not in ``names``.

        Dropping the corpus drops everything: objects parsed while it was
        held sit among its freed memory and would keep that memory resident.
        """
        if F_CORPUS in self._loaded and F_CORPUS not in names:
            names = ()
        self._loaded = {k: v for k, v in self._loaded.items() if k in names}

    @property
    def corpus(self) -> Corpus:
        return self._load(
            F_CORPUS, lambda p: corpus_mod.load_corpus(p, self.cfg.domain_ipc_prefix)
        )

    @property
    def labels(self) -> list[LabelRow]:
        return self._load(F_LABELS, _read_labels)[0]

    @property
    def label_by_id(self) -> dict[str, LabelRow]:
        return self._load(F_LABELS, _read_labels)[1]

    def feature_rows(self, ids) -> np.ndarray:
        pos, matrix = self._load(F_FEATURES, _read_features)
        return matrix[[pos[p] for p in ids]]

    @property
    def split(self) -> dict:
        return self._load(F_SPLIT, lambda p: json.loads(p.read_text(encoding="utf-8")))

    @property
    def model(self) -> mtl_mod.MtlModel:
        return self._load(F_MODEL, mtl_mod.load_checkpoint)


STAGES: dict[str, Callable[..., list[str]]] = {}
# the artifact files each stage reads through its context; a run holds an
# artifact only while the next stage reads it too
STAGE_READS: dict[str, tuple[str, ...]] = {}


def _stage(name: str, reads: tuple[str, ...] = ()):
    """Register ``body(ctx, **kwargs)`` in STAGES as ``stage(cfg, ctx=None, **kwargs)``.

    Without a ``ctx`` the stage reads through a context of its own. A
    ValueError or OSError becomes a StageError; a CorpusError passes as is.
    """

    def register(body):
        @wraps(body)
        def stage(cfg: PipelineConfig, ctx: Optional[RunContext] = None, **kwargs):
            ctx = ctx if ctx is not None else RunContext(cfg)
            ctx.stage = name
            try:
                return body(ctx, **kwargs)
            except (ValueError, OSError) as exc:
                raise StageError(name, str(exc)) from exc

        STAGES[name] = stage
        STAGE_READS[name] = reads
        return stage

    return register


# --------------------------------------------------------------------------
# stages
# --------------------------------------------------------------------------

@_stage("corpus")
def stage_corpus(ctx: RunContext) -> list[str]:
    """Synthesize or ingest, then persist the normalized corpus snapshot."""
    cfg = ctx.cfg
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
        cut = [h for h in HORIZONS if add_years(rec.grant_date, h.years) > end]
        for h in cut:
            excluded[h.key] += 1
        if not cut:
            modeling.append(rec.id)
    return modeling, excluded


@_stage("label", reads=(F_CORPUS,))
def stage_label(ctx: RunContext) -> list[str]:
    """Count forward citations, derive/emit thresholds, write class labels."""
    cfg, corpus = ctx.cfg, ctx.corpus
    modeling, excluded = _modeling_ids(corpus)
    if not modeling:
        raise StageError("label", "no patent has a full window for every horizon")
    end = corpus.max_grant_date()

    pairs = {}
    for h in HORIZONS:
        # stanine cut points come from the patents with a full window
        eligible = None if cfg.threshold_mode == "fixed" else [
            pid for pid, rec in corpus.records.items()
            if add_years(rec.grant_date, h.years) <= end
        ]
        try:
            pairs[h.key] = derive_thresholds(corpus, h, cfg.threshold_mode, ids=eligible)
        except CorpusError as exc:
            raise StageError("label", f"stanine derivation failed: {exc}") from None
    thresholds = ClassThresholds(**pairs)
    _write_json(cfg.path(F_THRESHOLDS), thresholds.to_json_obj())

    rows = []
    for pid in modeling:
        counts = {h: forward_citation_count(corpus, pid, h) for h in HORIZONS}
        classes = [assign_impact_class(counts[h], thresholds, h) for h in HORIZONS]
        rows.append(
            [pid, corpus.get(pid).grant_date.year]
            + [counts[h] for h in HORIZONS]
            + [c.name for c in classes]
            + [trajectory_pattern(*classes).value]
        )
    _write_csv(
        cfg.path(F_LABELS),
        ["patent_id", "grant_year"]
        + [f"{h.key}_count" for h in HORIZONS]
        + [f"{h.key}_class" for h in HORIZONS]
        + ["trajectory"],
        rows,
    )
    log.info("labeled %d patents; exclusions per horizon: %s", len(rows), excluded)
    return [F_THRESHOLDS, F_LABELS]


@_stage("features", reads=(F_CORPUS, F_LABELS))
def stage_features(ctx: RunContext) -> list[str]:
    """Extract the indicator matrix for every labeled patent."""
    ids = [row.patent_id for row in ctx.labels]
    matrix = ind.extract_feature_matrix(ctx.corpus, ids, home_country=ctx.cfg.home_country)
    ind.export_features_csv(ctx.cfg.path(F_FEATURES), ids, matrix)
    return [F_FEATURES]


def _temporal_split(ctx: RunContext) -> tuple[list[str], list[str], int]:
    rows = ctx.labels
    test_year = ctx.cfg.test_year
    if test_year is None:
        test_year = max(r.grant_year for r in rows)
    train_ids = [r.patent_id for r in rows if r.grant_year < test_year]
    test_ids = [r.patent_id for r in rows if r.grant_year == test_year]
    newer = sum(r.grant_year > test_year for r in rows)
    if newer:
        log.warning("%d labeled patents are newer than the test year", newer)
    if not train_ids or not test_ids:
        raise StageError(
            "train",
            f"temporal split at {test_year} leaves {len(train_ids)} train / "
            f"{len(test_ids)} test patents",
        )
    return train_ids, test_ids, test_year


def _training_set(
    ctx: RunContext, ids: list[str]
) -> tuple[np.ndarray, dict[Horizon, np.ndarray]]:
    """Raw features and class indices of ``ids``."""
    by_id = ctx.label_by_id
    return ctx.feature_rows(ids), {
        h: np.array([int(by_id[pid].classes[h]) for pid in ids], dtype=np.int64)
        for h in HORIZONS
    }


@_stage("gridsearch", reads=(F_LABELS, F_FEATURES))
def stage_gridsearch(ctx: RunContext) -> list[str]:
    """Exhaustive hyperparameter search on the training split."""
    cfg = ctx.cfg
    if cfg.grid is None:
        raise StageError("gridsearch", "config has no grid.space")
    X_train, labels = _training_set(ctx, _temporal_split(ctx)[0])
    std = ind.fit_standardizer(X_train)
    result = mtl_mod.grid_search(
        dict(cfg.grid.space),
        std.transform(X_train),
        labels,
        k=cfg.grid.k,
        seed=cfg.stage_seed("gridsearch"),
        base_network=cfg.network,
        base_train=cfg.train,
    )
    _write_csv(
        cfg.path(F_GRIDSEARCH),
        ["cell", "assignment", "score", "fold_scores"],
        (
            [
                i,
                json.dumps(dict(cell.assignment), sort_keys=True),
                repr(cell.score),
                json.dumps([round(s, 12) for s in cell.fold_scores]),
            ]
            for i, cell in enumerate(result.cells)
        ),
    )
    _write_json(cfg.path(F_BEST_CONFIG), {
        "score": result.best_score,
        "network": mtl_mod.to_json(result.best_network),
        "train": mtl_mod.to_json(result.best_train),
    })
    return [F_GRIDSEARCH, F_BEST_CONFIG]


def _configs_for_training(
    ctx: RunContext,
) -> tuple[mtl_mod.NetworkConfig, mtl_mod.TrainConfig]:
    cfg = ctx.cfg
    if cfg.grid is None:
        return cfg.network, cfg.train
    best_path = cfg.path(F_BEST_CONFIG)
    if not best_path.exists():
        raise StageError(
            "train", f"config has grid.space but {F_BEST_CONFIG} is missing; run gridsearch"
        )
    best = json.loads(best_path.read_text(encoding="utf-8"))
    return (
        mtl_mod.from_json(mtl_mod.NetworkConfig, best["network"]),
        mtl_mod.from_json(mtl_mod.TrainConfig, best["train"], seed=cfg.train.seed),
    )


@_stage("train", reads=(F_LABELS, F_FEATURES))
def stage_train(ctx: RunContext) -> list[str]:
    """Fit the standardizer and the multi-task model (plus ablations)."""
    cfg = ctx.cfg
    train_ids, test_ids, test_year = _temporal_split(ctx)
    X_train, labels = _training_set(ctx, train_ids)

    std = ind.fit_standardizer(X_train)
    _write_json(
        cfg.path(F_SPLIT),
        {"test_year": test_year, "train_ids": train_ids, "test_ids": test_ids},
        indent=None,
    )

    network, train_cfg = _configs_for_training(ctx)
    X = std.transform(X_train)
    model = mtl_mod.init_network(network)
    model.standardizer = std
    try:
        mtl_mod.train(model, X, labels, train_cfg)
    except RuntimeError as exc:
        raise StageError("train", str(exc)) from None
    mtl_mod.save_checkpoint(cfg.path(F_MODEL), model)
    mtl_mod.export_training_log_csv(cfg.path(F_TRAINING_LOG), model)
    outputs = [F_SPLIT, F_MODEL, F_TRAINING_LOG]

    if cfg.compare_stl:
        for h in HORIZONS:
            stl = mtl_mod.train_stl(h, X, labels[h], train_cfg, network=network)
            stl.standardizer = std
            name = f"stl_{h.key}.ckpt.json"
            mtl_mod.save_checkpoint(cfg.path(name), stl)
            outputs.append(name)
    return outputs


def _confusion(actual, predicted) -> metrics_mod.ConfusionMatrix3:
    """Confusion matrix of two sequences of classes or class indices."""
    return metrics_mod.confusion_from_predictions(
        [ImpactClass(int(v)) for v in actual], [ImpactClass(int(v)) for v in predicted]
    )


@_stage("evaluate", reads=(F_LABELS, F_FEATURES, F_SPLIT, F_MODEL))
def stage_evaluate(ctx: RunContext) -> list[str]:
    """Predict, tabulate confusion matrices, and export metric tables."""
    cfg, model, split, by_id = ctx.cfg, ctx.model, ctx.split, ctx.label_by_id
    all_ids = split["train_ids"] + split["test_ids"]
    n_train = len(split["train_ids"])
    X = model.standardizer.transform(ctx.feature_rows(all_ids))
    preds = mtl_mod.predict_batch(model, X)

    _write_csv(
        cfg.path(F_PREDICTIONS),
        ["patent_id", "split"]
        + [f"{h.key}_actual" for h in HORIZONS]
        + [f"{h.key}_predicted" for h in HORIZONS],
        (
            [pid, "train" if i < n_train else "test"]
            + [by_id[pid].classes[h].name for h in HORIZONS]
            + [ImpactClass(int(preds[h][i])).name for h in HORIZONS]
            for i, pid in enumerate(all_ids)
        ),
    )

    test_index = list(range(n_train, len(all_ids)))
    actual = {h: [by_id[all_ids[i]].classes[h] for i in test_index] for h in HORIZONS}
    mtl_cms = {h: _confusion(actual[h], preds[h][test_index]) for h in HORIZONS}
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
            stl_cms[h] = _confusion(actual[h], mtl_mod.predict_batch(stl, X[test_index])[h])
        comparison = metrics_mod.compare_models(mtl_cms, stl_cms)
        metrics_mod.export_comparison_csv(cfg.path(F_COMPARISON), comparison)
        outputs.append(F_COMPARISON)
    return outputs


@_stage("explain", reads=(F_LABELS, F_FEATURES, F_SPLIT, F_MODEL))
def stage_explain(ctx: RunContext) -> list[str]:
    """Sampled Shapley attributions for a seeded subset of test patents."""
    cfg, model, split = ctx.cfg, ctx.model, ctx.split
    std = model.standardizer
    seed = cfg.stage_seed("explain")

    background = explain_mod.BackgroundSet.sample(
        std.transform(ctx.feature_rows(split["train_ids"])),
        size=cfg.explain.background_size,
        seed=derive_seed(seed, "background"),
    )
    rng = np.random.default_rng(derive_seed(seed, "instances"))
    test_ids = list(split["test_ids"])
    n_pick = min(cfg.explain.n_instances, len(test_ids))
    picked = sorted(rng.choice(len(test_ids), size=n_pick, replace=False).tolist())
    instance_ids = [test_ids[i] for i in picked]
    raw = ctx.feature_rows(instance_ids)

    grouping = explain_mod.default_grouping()
    trajectory_of = {r.patent_id: r.trajectory for r in ctx.labels}
    by_target = explain_mod.attribute_instances(
        model,
        {pid: std.transform(x) for pid, x in zip(instance_ids, raw)},
        background,
        target=[
            explain_mod.AttributionTarget(horizon=h, impact_class=cfg.explain.target_class)
            for h in HORIZONS
        ],
        grouping=grouping,
        n_permutations=cfg.explain.n_permutations,
        seed=seed,
        display_values=dict(zip(instance_ids, raw)),
    )
    explain_mod.export_attributions_csv(cfg.path(F_ATTRIBUTIONS), by_target, grouping)
    outputs = [F_ATTRIBUTIONS]

    pattern = cfg.explain.filter_pattern
    for target, att_rows in by_target:
        h = target.horizon
        if pattern is not None:
            att_rows = [r for r in att_rows if trajectory_of.get(r.instance_id) == pattern]
        _, records = explain_mod.group_summary(att_rows, grouping, top_k=cfg.explain.top_k)
        stem = f"summary_{h.key}_{target.impact_class.name}"
        explain_mod.export_group_summary_csv(cfg.path(f"{stem}.csv"), records)
        outputs.append(f"{stem}.csv")
        if not records:
            log.warning(
                "no explained %s instances with trajectory %r; skipping plot", h.key, pattern
            )
            continue
        explain_mod.render_beeswarm_svg(
            cfg.path(f"{stem}.svg"),
            att_rows,
            grouping,
            top_k=cfg.explain.top_k,
            title=f"{h.key}-term {target.impact_class.name} attribution summary",
        )
        outputs.append(f"{stem}.svg")
    return outputs


def _predicted_classes(
    ctx: RunContext, group_by: str, scope: str
) -> dict[Horizon, dict[str, ImpactClass]]:
    """Classes per horizon from predictions.csv: its ``actual`` or
    ``predicted`` columns, for every patent or (``scope="test"``) the test split."""
    ctx.require(F_PREDICTIONS)
    out: dict[Horizon, dict[str, ImpactClass]] = {h: {} for h in HORIZONS}
    for rec in _read_csv(ctx.cfg.path(F_PREDICTIONS)):
        if scope == "test" and rec["split"] != "test":
            continue
        for h in HORIZONS:
            out[h][rec["patent_id"]] = ImpactClass.from_name(rec[f"{h.key}_{group_by}"])
    return out


@_stage("validate", reads=(F_CORPUS,))
def stage_validate(ctx: RunContext) -> list[str]:
    """Ordered-trend tests of post-hoc value indicators per horizon."""
    cfg = ctx.cfg
    classes = _predicted_classes(ctx, cfg.validation.group_by, cfg.validation.scope)
    per_horizon = {}
    for h in HORIZONS:
        try:
            per_horizon[h.key] = validate_mod.validate_value_indicators(
                ctx.corpus,
                classes[h],
                method=cfg.validation.method,
                seed=derive_seed(cfg.stage_seed("validate"), h.key),
                n_permutations=cfg.validation.n_permutations,
            )
        except ValueError as exc:
            raise StageError("validate", f"{h.key}: {exc}") from None
    validate_mod.export_validation_csv(cfg.path(F_VALIDATION), per_horizon)
    return [F_VALIDATION]


@_stage("topic-score", reads=(F_CORPUS, F_LABELS))
def stage_topic_score(ctx: RunContext) -> list[str]:
    """Class-weighted topic impact scores per grant year."""
    cfg, h = ctx.cfg, ctx.cfg.topic.horizon
    if cfg.topic.group_by == "actual":
        classes = {r.patent_id: r.classes[h] for r in ctx.labels}
    else:
        classes = _predicted_classes(ctx, "predicted", "all")[h]
    table = validate_mod.topic_impact_scores(ctx.corpus, classes)
    validate_mod.export_topic_scores_csv(cfg.path(F_TOPIC_CSV), table)
    validate_mod.export_topic_scores_json(cfg.path(F_TOPIC_JSON), table)
    return [F_TOPIC_CSV, F_TOPIC_JSON]


@_stage("cv", reads=(F_LABELS, F_FEATURES))
def stage_cv(ctx: RunContext, k: int = 5) -> list[str]:
    """Stratified k-fold cross-validation of the configured model."""
    cfg = ctx.cfg
    X, labels = _training_set(ctx, _temporal_split(ctx)[0])
    network, train_cfg = _configs_for_training(ctx)

    stratify = [ImpactClass(int(v)) for v in labels[Horizon.LONG]]
    folds = metrics_mod.stratified_kfold(
        stratify, k, derive_seed(cfg.stage_seed("cv"), "folds")
    )
    rows = []
    for fold, (tr, te) in enumerate(folds.splits()):
        std = ind.fit_standardizer(X[tr])
        model = mtl_mod.init_network(network)
        mtl_mod.train(
            model, std.transform(X[tr]), {h: labels[h][tr] for h in HORIZONS}, train_cfg
        )
        preds = mtl_mod.predict_batch(model, std.transform(X[te]))
        cms = {h: _confusion(labels[h][te], preds[h]) for h in HORIZONS}
        rows += [[fold, *row[:3], repr(row[3])] for row in metrics_mod.metrics_rows(cms)]
    _write_csv(cfg.path(F_CV), ["fold", "horizon", "class", "metric", "value"], rows)
    return [F_CV]


# --------------------------------------------------------------------------
# report
# --------------------------------------------------------------------------

def _metric_tables(rows: list[dict], last: str, last_title: str, cell) -> list[str]:
    """One markdown table per horizon: a row per metric, a column per class
    (MT, VT, BT and ``last``). A horizon with whole-model rows, which only
    metrics.csv has, gets a line with its micro accuracy and multiclass MCC."""
    lines = []
    for h in HORIZONS:
        sub = [r for r in rows if r["horizon"] == h.key]
        if not sub:
            continue
        lines += [
            f"### {h.key}-term",
            "",
            f"| metric | MT | VT | BT | {last_title} |",
            "|---|---|---|---|---|",
        ]
        for metric in metrics_mod.METRIC_NAMES:
            cells = {r["class"]: cell(r) for r in sub if r["metric"] == metric}
            lines.append(
                f"| {metric} | "
                + " | ".join(cells.get(c, "") for c in ("MT", "VT", "BT", last))
                + " |"
            )
        lines.append("")
        overall = {r["class"]: f"{float(r['value']):.4f}" for r in sub}
        if "overall_micro" in overall:
            lines += [
                f"micro accuracy {overall['overall_micro']}, "
                f"multiclass MCC {overall.get('overall_multiclass', '?')}",
                "",
            ]
    return lines


@_stage("report", reads=(F_LABELS,))
def stage_report(ctx: RunContext) -> list[str]:
    """Merge stage outputs into one human-readable markdown summary."""
    cfg = ctx.cfg
    ctx.require(F_THRESHOLDS, F_LABELS, F_METRICS)
    thresholds = json.loads(cfg.path(F_THRESHOLDS).read_text(encoding="utf-8"))
    rows = ctx.labels

    lines = [
        "# Technology impact analysis report",
        "",
        f"- config hash: `{cfg.config_hash()}`",
        f"- seed: {cfg.seed}",
        "",
        "## Impact classes",
        "",
        "| horizon | BT rule | VT rule | MT | VT | BT | BT share |",
        "|---|---|---|---|---|---|---|",
    ]
    for h in HORIZONS:
        t = thresholds[h.key]
        counts = Counter(r.classes[h].name for r in rows)
        lines.append(
            f"| {h.key} | >= {t['bt_min']} | >= {t['vt_min']} | "
            f"{counts['MT']} | {counts['VT']} | {counts['BT']} | "
            f"{counts['BT'] / max(1, len(rows)):.2%} |"
        )
    traj_counts = Counter(r.trajectory for r in rows)
    lines += ["", "## Trajectory patterns", ""]
    lines += [f"- {name}: {traj_counts[name]}" for name in sorted(traj_counts)]
    lines += ["", "## Test-set performance (multi-task model)", ""]
    lines += _metric_tables(
        _read_csv(cfg.path(F_METRICS)), "overall_macro", "overall (macro)",
        lambda r: f"{float(r['value']):.4f}",
    )

    if cfg.path(F_COMPARISON).exists():
        lines += ["## Single-task ablation (value and delta vs multi-task)", ""]
        lines += _metric_tables(
            _read_csv(cfg.path(F_COMPARISON)), "overall", "overall",
            lambda r: f"{float(r['value']):.4f} ({float(r['delta_vs_reference']):+.4f})",
        )

    if cfg.path(F_ATTRIBUTIONS).exists():
        lines += ["## Attribution: top indicators per horizon", ""]
        att_rows = _read_csv(cfg.path(F_ATTRIBUTIONS))
        for h in HORIZONS:
            phis: dict[str, list[float]] = {}
            for r in att_rows:
                if r["horizon"] == h.key:
                    phis.setdefault(r["group"], []).append(abs(float(r["phi"])))
            ranked = explain_mod.rank_groups((g, sum(v) / len(v)) for g, v in phis.items())
            if ranked:
                top = ", ".join(f"{g} ({m:.4f})" for g, m in ranked[: cfg.explain.top_k])
                lines.append(f"- **{h.key}-term**: {top}")
        lines.append("")

    if cfg.path(F_VALIDATION).exists():
        lines += [
            "## Ordered-trend validation of post-hoc value indicators",
            "",
            "| horizon | indicator | JT | z | p-value | method |",
            "|---|---|---|---|---|---|",
        ]
        lines += [
            f"| {r['horizon']} | {r['indicator']} | {float(r['jt_statistic']):.4f} | "
            f"{float(r['z']):.4f} | {float(r['p_value']):.4f} | {r['method']} |"
            for r in _read_csv(cfg.path(F_VALIDATION))
        ]
        lines.append("")

    if cfg.path(F_TOPIC_CSV).exists():
        lines += ["## Topic impact scores by grant year", ""]
        topic_rows = _read_csv(cfg.path(F_TOPIC_CSV))
        years = sorted({int(r["year"]) for r in topic_rows})
        topics = sorted({r["topic"] for r in topic_rows})
        score = {(r["topic"], int(r["year"])): float(r["score"]) for r in topic_rows}
        lines.append("| topic | " + " | ".join(str(y) for y in years) + " |")
        lines.append("|---|" + "---|" * len(years))
        for topic in topics:
            cells = [f"{score[topic, y]:.4f}" if (topic, y) in score else "" for y in years]
            lines.append(f"| {topic} | " + " | ".join(cells) + " |")
        lines.append("")

    cfg.path(F_REPORT).write_text("\n".join(lines), encoding="utf-8")
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
        return {"schema": MANIFEST_SCHEMA, **asdict(self)}


def _sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _inventory(cfg: PipelineConfig, names: list[str]) -> list[dict]:
    return [
        {"path": n, "sha256": _sha256(cfg.path(n)), "bytes": cfg.path(n).stat().st_size}
        for n in names
    ]


def pipeline_stage_names(cfg: PipelineConfig) -> list[str]:
    names = ["corpus", "label", "features"]
    if cfg.grid is not None:
        names.append("gridsearch")
    names += ["train", "evaluate", "explain", "validate", "topic-score", "report"]
    return names


def run_pipeline(cfg: PipelineConfig) -> RunManifest:
    """Execute every stage in order on one shared RunContext. A stage failure
    aborts after writing a partial manifest. The manifest inventories every
    output with a checksum."""
    cfg.validate()
    manifest = RunManifest(config_hash=cfg.config_hash(), seed=cfg.seed)
    ctx = RunContext(cfg)
    names = pipeline_stage_names(cfg)
    for name, next_name in zip(names, names[1:] + [""]):
        t0 = time.perf_counter()
        try:
            outputs = STAGES[name](cfg, ctx)
        except (StageError, CorpusError) as exc:
            manifest.error = str(exc) if isinstance(exc, StageError) else f"[{name}] {exc}"
            _write_json(cfg.path(F_MANIFEST), manifest.to_json_obj())
            raise
        ctx.keep_only(STAGE_READS.get(next_name, ()))
        seconds = round(time.perf_counter() - t0, 3)
        manifest.stages.append(StageRecord(name, seconds, _inventory(cfg, outputs)))
    _write_json(cfg.path(F_MANIFEST), manifest.to_json_obj())
    return manifest
