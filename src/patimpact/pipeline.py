"""End-to-end run orchestration.

A single JSON config drives every stage: corpus (ingest or synthesize),
label, features, optional grid search, train, evaluate, explain, validate,
topic-score, report. Each stage is independently runnable, consumes only
prior-stage files from the output directory, and derives its RNG seed from
the global seed and its stage name, so a full run and a manual stage-by-stage
run produce identical artifacts. Stages read their inputs through a
RunContext, which parses each artifact once; a full run shares one context
across its stages, and a stage called on its own builds its own. The context
also runs the independent units of train (the four models), explain (the
instances), and cv and gridsearch (a model per config and fold) in worker
processes, at most one per CPU; the artifacts do not depend on the worker
count.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import logging
import os
import reprlib
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from functools import wraps
from pathlib import Path
from typing import Callable, Iterator, Optional

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
    TrajectoryPattern,
    add_years,
    assign_impact_class,
    derive_thresholds,
    forward_citation_count,
    trajectory_pattern,
)
from .mtl import (
    json_bool,
    json_finite,
    json_int,
    json_int_list,
    json_int_or_null,
    json_member,
    json_str,
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
            (
                "explain.filter_pattern", self.explain.filter_pattern,
                (None, *(p.value for p in TrajectoryPattern)),
            ),
        ):
            if value not in allowed:
                raise ConfigError(f"{name} must be one of {list(allowed)}, not {value!r}")
        # evaluate and report need a head for every horizon
        grid_heads = self.grid.space.get("task_head_widths", []) if self.grid else []
        for name, heads in [
            ("network.task_head_widths", self.network.task_head_widths),
            *(("grid.space.task_head_widths", h) for h in grid_heads),
        ]:
            if set(heads) != set(HORIZONS):
                raise ConfigError(f"{name} must give widths for short, mid and long")
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


def read_config_obj(path) -> dict:
    """The raw JSON object of a config file; unreadable or malformed is a ConfigError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    # a JSONDecodeError, bytes that are not UTF-8 and an integer past the digit
    # limit are ValueErrors; nesting past the parser's depth limit is a RecursionError
    except (ValueError, RecursionError) as exc:
        raise ConfigError(f"malformed config JSON in {path}: {exc}") from None


def load_config(path) -> PipelineConfig:
    """Parse and validate a pipeline config JSON file."""
    return config_from_obj(read_config_obj(path), base_dir=Path(path).parent)


def config_from_obj(obj: dict, base_dir: Optional[Path] = None) -> PipelineConfig:
    if not isinstance(obj, dict):
        raise ConfigError(f"config must be a JSON object, got {obj!r}")
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

    def grid_settings() -> Optional[GridSettings]:
        if obj.get("grid") is None:
            return None
        g = block("grid", ("space", "k"))
        space = g.get("space")
        if not space or not isinstance(space, dict):
            raise ConfigError("grid requires a non-empty space object")
        decoded = {}
        for key, candidates in space.items():
            if key not in mtl_mod.HYPERPARAMETERS:
                raise ConfigError(f"grid.space.{key} is not a hyperparameter")
            if not isinstance(candidates, list) or not candidates:
                raise ConfigError(f"grid.space.{key} must be a non-empty list")
            decoded[key] = [
                mtl_mod.decode_candidate(key, c, f"grid.space.{key}") for c in candidates
            ]
        k = json_int(g.get("k", 5), "grid.k")
        if k < 2:
            raise ConfigError("grid.k must be >= 2")
        return GridSettings(space=decoded, k=k)

    def settings(cls, name: str, derived: Optional[dict] = None, **convert):
        # the keys the block holds, converted, plus the `derived` fields; other
        # fields keep their defaults
        values = block(name, convert)
        return cls(
            **(derived or {}), **{k: convert[k](v, f"{name}.{k}") for k, v in values.items()}
        )

    try:
        seed = json_int(obj.get("seed", 0), "seed")
        domain = json_str(obj.get("domain_ipc_prefix", "H01M"), "domain_ipc_prefix")
        synth = None
        if obj.get("synth") is not None:
            try:
                synth = settings(
                    SynthParams, "synth",
                    {"seed": derive_seed(seed, "synth"), "domain_ipc_prefix": domain},
                    n_patents=json_int, year_range=json_int_list,
                    citation_attachment_exponent=json_finite,
                    feature_signal_strength=json_finite, mean_internal_citations=json_finite,
                    mean_external_citations=json_finite,
                )
                synth.validate()
            except (ValueError, TypeError) as exc:
                raise ConfigError(f"invalid synth params: {exc}") from None
        corpus_path = obj.get("corpus_path")
        cfg = PipelineConfig(
            out_dir=resolve(json_str(obj["out_dir"], "out_dir")),
            seed=seed,
            corpus_path=(
                None if corpus_path is None else resolve(json_str(corpus_path, "corpus_path"))
            ),
            synth=synth,
            domain_ipc_prefix=domain,
            home_country=json_str(obj.get("home_country", "US"), "home_country"),
            threshold_mode=json_str(obj.get("threshold_mode", "fixed"), "threshold_mode"),
            test_year=json_int_or_null(obj.get("test_year"), "test_year"),
            network=mtl_mod.from_json(
                mtl_mod.NetworkConfig, obj.get("network", {}), mtl_mod.NETWORK_FIELDS,
                "network", seed=derive_seed(seed, "init"),
            ),
            train=mtl_mod.from_json(
                mtl_mod.TrainConfig, obj.get("train", {}), name="train",
                seed=derive_seed(seed, "train"),
            ),
            grid=grid_settings(),
            compare_stl=json_bool(obj.get("compare_stl", True), "compare_stl"),
            explain=settings(
                ExplainSettings, "explain",
                n_instances=json_int, n_permutations=json_int, background_size=json_int,
                top_k=json_int, target_class=json_member(ImpactClass),
                # null is no filter; validate() checks the pattern name
                filter_pattern=lambda v, name: v,
            ),
            validation=settings(
                ValidationSettings, "validation",
                method=json_str, n_permutations=json_int, group_by=json_str, scope=json_str,
            ),
            topic=settings(
                TopicSettings, "topic",
                horizon=json_member(Horizon), group_by=json_str,
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

def _table_rows(path) -> Iterator[list[str]]:
    """The rows of a table, read one at a time, header first; an empty file,
    or a row of another length than the header, is a ValueError."""
    with open(path, "r", newline="", encoding="utf-8") as fh:
        rows = csv.reader(fh)
        header = next(rows, None)
        if header is None:
            raise ValueError("the file is empty")
        yield header
        for row in rows:
            if len(row) != len(header):
                raise ValueError(f"a row does not have the header's {len(header)} fields")
            yield row


def _read_csv(path) -> list[dict]:
    """The rows of a table keyed by its header."""
    header, *rows = _table_rows(path)
    return [dict(zip(header, row)) for row in rows]


def _write_csv(path, header: list, rows, lineterminator: str = "\r\n") -> None:
    """Write a table. A float cell, Python or numpy, is written as
    ``repr(float(x))``, the shortest text that reads back as the same double;
    ``None`` is an empty cell, and every other cell is ``str`` of its value."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator=lineterminator)
        writer.writerow(header)
        writer.writerows(
            [repr(float(x)) if isinstance(x, (float, np.floating)) else x for x in row]
            for row in rows
        )


def _write_json(path, obj, indent: Optional[int] = 2) -> None:
    # json.dumps runs the C encoder when there is no indent; json.dump never does
    text = json.dumps(obj, indent=indent, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


# The keys of the JSON artifacts that stages index, each with its value's shape:
# a JSON type, ``[shape]`` for an array of that shape, or a dict for an object
_JSON_SHAPES = {
    F_SPLIT: {"train_ids": [str], "test_ids": [str]},
    F_THRESHOLDS: {h.key: {"bt_min": int, "vt_min": int} for h in HORIZONS},
    F_BEST_CONFIG: {"network": dict, "train": dict},
}
_JSON_TYPE_NAMES = {dict: "an object", list: "an array", str: "a string", int: "an integer"}


def _check_shape(value, shape, where: str = "$") -> None:
    """Raise a ValueError that names the first part of ``value`` (at the
    JSONPath ``where``) that lacks a key of ``shape`` or holds another type."""
    if isinstance(shape, dict):
        _check_shape(value, dict, where)
        for key, inner in shape.items():
            if key not in value:
                raise ValueError(f"{where} has no key {key!r}")
            _check_shape(value[key], inner, f"{where}.{key}")
    elif isinstance(shape, list):
        _check_shape(value, list, where)
        for i, item in enumerate(value):
            _check_shape(item, shape[0], f"{where}[{i}]")
    # a JSON true or false is a bool, not an integer
    elif type(value) is not shape:
        raise ValueError(f"{where} must be {_JSON_TYPE_NAMES[shape]}, got {reprlib.repr(value)}")


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


# The BLAS threads of each pool worker: the workers share the CPUs between them
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker_count(n_units: int) -> int:
    """Processes to run ``n_units`` independent units: one per CPU in this
    process's affinity mask, and no more than there are units."""
    return min(len(os.sched_getaffinity(0)), n_units)


class RunContext:
    """One run's config, the artifacts its stages read, and its worker pool.

    `read` is the one reader of artifacts. It parses each at most once and
    keeps it until the run ends; a missing or malformed one is a StageError
    of the running stage that names it. The corpus stage hands over the
    corpus it wrote, so a full run never parses ``corpus.jsonl``. A context
    serves one run, in which every artifact is written before it is read.
    Whoever creates a context closes it, which stops the pool that `map`
    may have started.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.stage = ""
        self._loaded: dict[str, object] = {}
        self._pool = None

    def map(self, fn: Callable, units) -> list:
        """``[fn(*unit) for unit in units]``, in the order of ``units``.

        With more than one unit and CPU the units run in worker processes of
        one ``spawn`` pool per context, started on first use. A call starts
        no more workers than `_worker_count` allows, and each worker runs
        BLAS on one thread.
        """
        units = list(units)
        if _worker_count(len(units)) <= 1:
            return [fn(*unit) for unit in units]
        # imported here, so that a process that never runs a pool does not load them
        import multiprocessing
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        saved = {name: os.environ.get(name) for name in _WORKER_ENV}
        os.environ.update(_WORKER_ENV)
        try:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(
                    len(os.sched_getaffinity(0)), mp_context=multiprocessing.get_context("spawn")
                )
            # a spawn pool starts a worker in submit, when no started one is idle,
            # so every worker inherits the pinned environment
            futures = [self._pool.submit(fn, *unit) for unit in units]
        finally:
            for name, value in saved.items():
                if value is None:
                    del os.environ[name]
                else:
                    os.environ[name] = value
        try:
            return [future.result() for future in futures]
        except BrokenProcessPool as exc:
            self.close()
            raise StageError(self.stage, f"a worker process died: {exc}") from None

    def close(self) -> None:
        """Stop the worker pool, if `map` started one."""
        if self._pool is not None:
            self._pool.shutdown(cancel_futures=True)
            self._pool = None

    def read(self, *names: str, optional: bool = False):
        """The parsed artifact ``name``, or a tuple of them for several names;
        with ``optional`` a missing one is None. A bad corpus is a CorpusError."""
        missing = [n for n in names if n not in self._loaded and not self.cfg.path(n).exists()]
        if missing and not optional:
            hints = sorted({_RERUN_HINTS[n] for n in missing if n in _RERUN_HINTS})
            raise StageError(self.stage, "; ".join(
                [f"missing prerequisite file(s): {', '.join(missing)}", *hints]
            ))
        for name in names:
            if name not in self._loaded and name not in missing:
                self._loaded[name] = self._parse(name, self.cfg.path(name))
        values = tuple(self._loaded.get(n) for n in names)
        return values[0] if len(names) == 1 else values

    def _parse(self, name: str, path: Path):
        if name == F_CORPUS:
            return corpus_mod.load_corpus(path, self.cfg.domain_ipc_prefix)
        try:
            if name == F_LABELS:
                return _read_labels(path)
            if name == F_FEATURES:
                rows = _table_rows(path)
                if next(rows) != ["patent_id", *ind.FEATURE_NAMES]:
                    raise ValueError("unexpected header")
                ids, values = [], []
                for row in rows:
                    ids.append(row[0])
                    values.append([float(x) for x in row[1:]])
                matrix = np.array(values).reshape(len(values), ind.N_FEATURES)
                # index the ids after parsing: a dict grown between the rows'
                # allocations left the ingest-8k run's peak RSS ~4 MB higher
                return {pid: i for i, pid in enumerate(ids)}, matrix
            if name.endswith(".ckpt.json"):
                return mtl_mod.load_checkpoint(path)
            if name.endswith(".json"):
                value = json.loads(path.read_text(encoding="utf-8"))
                if name in _JSON_SHAPES:
                    _check_shape(value, _JSON_SHAPES[name])
                return value
            return _read_csv(path)
        # what a malformed table, JSON value or checkpoint raises while it is parsed
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError, csv.Error) as exc:
            raise StageError(self.stage, f"cannot parse {name}: {exc}") from None

    def keep(self, name: str, value) -> None:
        """Hold ``value`` as the artifact ``name`` the running stage just wrote;
        it must equal what parsing that file would give."""
        self._loaded[name] = value

    @property
    def corpus(self) -> Corpus:
        return self.read(F_CORPUS)

    @property
    def labels(self) -> list[LabelRow]:
        return self.read(F_LABELS)[0]

    @property
    def label_by_id(self) -> dict[str, LabelRow]:
        return self.read(F_LABELS)[1]

    def feature_rows(self, ids) -> np.ndarray:
        pos, matrix = self.read(F_FEATURES)
        try:
            return matrix[[pos[p] for p in ids]]
        except KeyError as exc:
            raise StageError(self.stage, f"{F_FEATURES} has no row for patent {exc}") from None


# what writes the artifacts that only some configs make a run write
_RERUN_HINTS = {F_BEST_CONFIG: "run gridsearch"} | {
    f"stl_{h.key}.ckpt.json": "rerun train" for h in HORIZONS
}


STAGES: dict[str, Callable[..., list[str]]] = {}


def _stage(name: str):
    """Register ``body(ctx, **kwargs)`` in STAGES as ``stage(cfg, ctx=None, **kwargs)``.

    Without a ``ctx`` the stage runs in a context of its own, which it closes
    when it ends. A ValueError or OSError becomes a StageError; a CorpusError
    passes as is.
    """

    def register(body):
        @wraps(body)
        def stage(cfg: PipelineConfig, ctx: Optional[RunContext] = None, **kwargs):
            if ctx is None:
                own = RunContext(cfg)
                try:
                    return stage(cfg, own, **kwargs)
                finally:
                    own.close()
            ctx.stage = name
            try:
                return body(ctx, **kwargs)
            except (ValueError, OSError) as exc:
                raise StageError(name, str(exc)) from exc

        STAGES[name] = stage
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
    # in the id order that save_corpus writes and load_corpus reads back
    records = {pid: corpus.records[pid] for pid in sorted(corpus.records)}
    corpus = Corpus(records, corpus.domain_ipc_prefix, corpus.forward_index)
    corpus_mod.save_corpus(corpus, cfg.path(F_CORPUS))
    ctx.keep(F_CORPUS, corpus)
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


@_stage("label")
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


@_stage("features")
def stage_features(ctx: RunContext) -> list[str]:
    """Extract the indicator matrix for every labeled patent."""
    ids = [row.patent_id for row in ctx.labels]
    matrix = ind.extract_feature_matrix(ctx.corpus, ids, home_country=ctx.cfg.home_country)
    _write_csv(
        ctx.cfg.path(F_FEATURES), ["patent_id", *ind.FEATURE_NAMES],
        ([pid, *row.tolist()] for pid, row in zip(ids, matrix)),
    )
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
            ctx.stage,
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


def _fold_confusions(
    network: mtl_mod.NetworkConfig,
    train_cfg: mtl_mod.TrainConfig,
    X: np.ndarray,
    labels: dict[Horizon, np.ndarray],
    train_idx: np.ndarray,
    test_idx: np.ndarray,
) -> dict[Horizon, metrics_mod.ConfusionMatrix3]:
    """Fit a standardizer on the rows ``train_idx`` of ``X`` alone, train the
    multi-task model on them, and return its confusion matrix per horizon on
    the held-out rows ``test_idx``."""
    X_train = X[train_idx]
    std = ind.fit_standardizer(X_train)
    model = _fit(
        network, std.transform(X_train), {h: labels[h][train_idx] for h in HORIZONS}, train_cfg
    )
    preds = mtl_mod.predict_batch(model, std.transform(X[test_idx]))
    return {h: _confusion(labels[h][test_idx], preds[h]) for h in HORIZONS}


def _cross_validate(
    ctx: RunContext,
    configs: list[tuple[mtl_mod.NetworkConfig, mtl_mod.TrainConfig]],
    k: int,
    seed: int,
) -> list[list[dict[Horizon, metrics_mod.ConfusionMatrix3]]]:
    """Per (network, train config) of ``configs``, the confusion matrices of
    each fold of the training split, in ``k`` folds stratified on the long
    horizon's classes and drawn with ``seed``. Every (config, fold) pair is
    one unit of ``ctx.map``."""
    X, labels = _training_set(ctx, _temporal_split(ctx)[0])
    stratify = [ImpactClass(int(v)) for v in labels[Horizon.LONG]]
    # stratified_kfold lowers k when the rarest class has fewer members
    splits = metrics_mod.stratified_kfold(stratify, k, seed).splits()
    try:
        per_unit = ctx.map(_fold_confusions, [
            (network, train_cfg, X, labels, train_idx, test_idx)
            for network, train_cfg in configs
            for train_idx, test_idx in splits
        ])
    except RuntimeError as exc:
        raise StageError(ctx.stage, str(exc)) from None
    return [per_unit[i : i + len(splits)] for i in range(0, len(per_unit), len(splits))]


@_stage("gridsearch")
def stage_gridsearch(ctx: RunContext) -> list[str]:
    """Exhaustive hyperparameter search on the training split. A cell's score
    is its macro MCC summed over horizons and averaged over the folds; ties
    keep the first cell, with keys in the order given and candidates in list
    order."""
    cfg = ctx.cfg
    if cfg.grid is None:
        raise StageError("gridsearch", "config has no grid.space")
    space = cfg.grid.space
    assignments = [tuple(zip(space, combo)) for combo in itertools.product(*space.values())]
    configs = [
        (
            replace(cfg.network, **{k: v for k, v in cell if k in mtl_mod.NETWORK_FIELDS}),
            replace(cfg.train, **{k: v for k, v in cell if k not in mtl_mod.NETWORK_FIELDS}),
        )
        for cell in assignments
    ]
    per_config = _cross_validate(
        ctx, configs, cfg.grid.k, derive_seed(cfg.stage_seed("gridsearch"), "gridsearch", "folds")
    )
    fold_scores = [
        [sum(metrics_mod.overall_metrics(cms[h]).macro.mcc for h in HORIZONS) for cms in folds]
        for folds in per_config
    ]
    scores = [float(np.mean(s)) for s in fold_scores]
    best = scores.index(max(scores))
    _write_csv(
        cfg.path(F_GRIDSEARCH),
        ["cell", "assignment", "score", "fold_scores"],
        (
            [
                i,
                json.dumps({k: mtl_mod.json_value(v) for k, v in cell}, sort_keys=True),
                score,
                json.dumps([round(s, 12) for s in folds]),
            ]
            for i, (cell, score, folds) in enumerate(zip(assignments, scores, fold_scores))
        ),
    )
    _write_json(cfg.path(F_BEST_CONFIG), {
        "score": scores[best],
        "network": mtl_mod.to_json(configs[best][0]),
        "train": mtl_mod.to_json(configs[best][1]),
    })
    return [F_GRIDSEARCH, F_BEST_CONFIG]


def _configs_for_training(
    ctx: RunContext,
) -> tuple[mtl_mod.NetworkConfig, mtl_mod.TrainConfig]:
    cfg = ctx.cfg
    if cfg.grid is None:
        return cfg.network, cfg.train
    best = ctx.read(F_BEST_CONFIG)
    return (
        mtl_mod.from_json(mtl_mod.NetworkConfig, best["network"]),
        mtl_mod.from_json(mtl_mod.TrainConfig, best["train"], seed=cfg.train.seed),
    )


def _fit(
    network: mtl_mod.NetworkConfig,
    X: np.ndarray,
    labels: dict[Horizon, np.ndarray],
    train_cfg: mtl_mod.TrainConfig,
    task: Optional[Horizon] = None,
) -> mtl_mod.MtlModel:
    """The trained multi-task model or, given a ``task``, its single-task model."""
    if task is None:
        return mtl_mod.train(mtl_mod.init_network(network), X, labels, train_cfg)
    return mtl_mod.train_stl(task, X, labels[task], train_cfg, network=network)


@_stage("train")
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
    stl_tasks = HORIZONS if cfg.compare_stl else ()
    try:
        # independent units, the largest (the multi-task model) first
        model, *stls = ctx.map(
            _fit, [(network, X, labels, train_cfg, task) for task in (None, *stl_tasks)]
        )
    except RuntimeError as exc:
        raise StageError("train", str(exc)) from None
    model.standardizer = std
    mtl_mod.save_checkpoint(cfg.path(F_MODEL), model)
    # training_log.csv ends lines with LF, not CRLF; existing logs and checksums pin that
    _write_csv(cfg.path(F_TRAINING_LOG), *mtl_mod.training_log_rows(model), lineterminator="\n")
    outputs = [F_SPLIT, F_MODEL, F_TRAINING_LOG]

    for h, stl in zip(stl_tasks, stls):
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


@_stage("evaluate")
def stage_evaluate(ctx: RunContext) -> list[str]:
    """Predict, tabulate confusion matrices, and export metric tables."""
    cfg, (model, split), by_id = ctx.cfg, ctx.read(F_MODEL, F_SPLIT), ctx.label_by_id
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
    rows = metrics_mod.metrics_rows(mtl_cms)
    _write_csv(cfg.path(F_METRICS), ["horizon", "class", "metric", "value"], rows)
    tree: dict[str, dict[str, dict[str, float]]] = {}
    for horizon, cls, metric, value in rows:
        tree.setdefault(horizon, {}).setdefault(cls, {})[metric] = value
    _write_json(cfg.path(F_METRICS_JSON), tree)
    outputs = [F_PREDICTIONS, F_METRICS, F_METRICS_JSON]

    if cfg.compare_stl:
        stls = ctx.read(*(f"stl_{h.key}.ckpt.json" for h in HORIZONS))
        stl_cms = {
            h: _confusion(actual[h], mtl_mod.predict_batch(stl, X[test_index])[h])
            for h, stl in zip(HORIZONS, stls)
        }
        comparison = metrics_mod.compare_models(mtl_cms, stl_cms)
        _write_csv(
            cfg.path(F_COMPARISON),
            ["horizon", "class", "metric", "value", "delta_vs_reference"],
            ([h.key, c.cls, c.metric, c.value, c.delta] for h in HORIZONS for c in comparison[h]),
        )
        outputs.append(F_COMPARISON)
    return outputs


@_stage("explain")
def stage_explain(ctx: RunContext) -> list[str]:
    """Sampled Shapley attributions for a seeded subset of test patents."""
    cfg, (model, split) = ctx.cfg, ctx.read(F_MODEL, F_SPLIT)
    std = model.standardizer
    seed = cfg.stage_seed("explain")

    train_ids = split["train_ids"]
    kept = explain_mod.BackgroundSet.sample_positions(
        len(train_ids), size=cfg.explain.background_size, seed=derive_seed(seed, "background")
    )
    background = explain_mod.BackgroundSet(
        std.transform(ctx.feature_rows([train_ids[i] for i in kept]))
    )
    rng = np.random.default_rng(derive_seed(seed, "instances"))
    test_ids = list(split["test_ids"])
    n_pick = min(cfg.explain.n_instances, len(test_ids))
    picked = sorted(rng.choice(len(test_ids), size=n_pick, replace=False).tolist())
    instance_ids = [test_ids[i] for i in picked]
    raw = ctx.feature_rows(instance_ids)

    grouping = explain_mod.default_grouping()
    trajectory_of = {r.patent_id: r.trajectory for r in ctx.labels}
    targets = [
        explain_mod.AttributionTarget(horizon=h, impact_class=cfg.explain.target_class)
        for h in HORIZONS
    ]
    # one unit per instance; each instance's Shapley seed derives from its id
    per_instance = ctx.map(explain_mod.attribute_instances, [
        (
            model, {pid: std.transform(x)}, background, targets, grouping,
            cfg.explain.n_permutations, seed, {pid: x},
        )
        for pid, x in zip(instance_ids, raw)
    ])
    # each unit gives a (target, [row]) pair per target
    by_target = [
        (target, [pairs[k][1][0] for pairs in per_instance]) for k, target in enumerate(targets)
    ]
    _write_csv(cfg.path(F_ATTRIBUTIONS), *explain_mod.attribution_rows(by_target, grouping))
    outputs = [F_ATTRIBUTIONS]

    pattern = cfg.explain.filter_pattern
    for target, att_rows in by_target:
        h = target.horizon
        if pattern is not None:
            att_rows = [r for r in att_rows if trajectory_of.get(r.instance_id) == pattern]
        _, records = explain_mod.group_summary(att_rows, grouping, top_k=cfg.explain.top_k)
        stem = f"summary_{h.key}_{target.impact_class.name}"
        header = ["instance_id", "group", "feature_value", "phi"]
        _write_csv(cfg.path(f"{stem}.csv"), header, ([r[k] for k in header] for r in records))
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
    rows = [r for r in ctx.read(F_PREDICTIONS) if scope == "all" or r["split"] == "test"]
    return {
        h: {r["patent_id"]: ImpactClass.from_name(r[f"{h.key}_{group_by}"]) for r in rows}
        for h in HORIZONS
    }


@_stage("validate")
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
    _write_csv(cfg.path(F_VALIDATION), *validate_mod.validation_rows(per_horizon))
    return [F_VALIDATION]


@_stage("topic-score")
def stage_topic_score(ctx: RunContext) -> list[str]:
    """Class-weighted topic impact scores per grant year."""
    cfg, h = ctx.cfg, ctx.cfg.topic.horizon
    if cfg.topic.group_by == "actual":
        classes = {r.patent_id: r.classes[h] for r in ctx.labels}
    else:
        classes = _predicted_classes(ctx, "predicted", "all")[h]
    table = validate_mod.topic_impact_scores(ctx.corpus, classes)
    _write_csv(
        cfg.path(F_TOPIC_CSV), ["topic", "year", "n_patents", "score"],
        ([t, y, table.counts[t, y], table.scores[t, y]] for t, y in sorted(table.scores)),
    )
    pivot: dict[str, dict[str, float]] = {}
    for (topic, year), score in table.scores.items():
        pivot.setdefault(topic, {})[str(year)] = score
    _write_json(cfg.path(F_TOPIC_JSON), pivot)
    return [F_TOPIC_CSV, F_TOPIC_JSON]


@_stage("cv")
def stage_cv(ctx: RunContext, k: int = 5) -> list[str]:
    """Stratified k-fold cross-validation of the configured model."""
    cfg = ctx.cfg
    (folds,) = _cross_validate(
        ctx, [_configs_for_training(ctx)], k, derive_seed(cfg.stage_seed("cv"), "folds")
    )
    rows = [[fold, *row] for fold, cms in enumerate(folds) for row in metrics_mod.metrics_rows(cms)]
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


@_stage("report")
def stage_report(ctx: RunContext) -> list[str]:
    """Merge stage outputs into one human-readable markdown summary."""
    cfg = ctx.cfg
    thresholds, (rows, _), metrics = ctx.read(F_THRESHOLDS, F_LABELS, F_METRICS)
    comparison, attributions, validation, topic_rows = ctx.read(
        F_COMPARISON, F_ATTRIBUTIONS, F_VALIDATION, F_TOPIC_CSV, optional=True
    )

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
        metrics, "overall_macro", "overall (macro)", lambda r: f"{float(r['value']):.4f}"
    )

    if comparison is not None:
        lines += ["## Single-task ablation (value and delta vs multi-task)", ""]
        lines += _metric_tables(
            comparison, "overall", "overall",
            lambda r: f"{float(r['value']):.4f} ({float(r['delta_vs_reference']):+.4f})",
        )

    if attributions is not None:
        lines += ["## Attribution: top indicators per horizon", ""]
        for h in HORIZONS:
            phis: dict[str, list[float]] = {}
            for r in attributions:
                if r["horizon"] == h.key:
                    phis.setdefault(r["group"], []).append(abs(float(r["phi"])))
            ranked = explain_mod.rank_groups((g, sum(v) / len(v)) for g, v in phis.items())
            if ranked:
                top = ", ".join(f"{g} ({m:.4f})" for g, m in ranked[: cfg.explain.top_k])
                lines.append(f"- **{h.key}-term**: {top}")
        lines.append("")

    if validation is not None:
        lines += [
            "## Ordered-trend validation of post-hoc value indicators",
            "",
            "| horizon | indicator | JT | z | p-value | method |",
            "|---|---|---|---|---|---|",
        ]
        lines += [
            f"| {r['horizon']} | {r['indicator']} | {float(r['jt_statistic']):.4f} | "
            f"{float(r['z']):.4f} | {float(r['p_value']):.4f} | {r['method']} |"
            for r in validation
        ]
        lines.append("")

    if topic_rows is not None:
        lines += ["## Topic impact scores by grant year", ""]
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
    try:
        for name in pipeline_stage_names(cfg):
            t0 = time.perf_counter()
            try:
                outputs = STAGES[name](cfg, ctx)
            except (StageError, CorpusError) as exc:
                manifest.error = str(exc) if isinstance(exc, StageError) else f"[{name}] {exc}"
                _write_json(cfg.path(F_MANIFEST), manifest.to_json_obj())
                raise
            seconds = round(time.perf_counter() - t0, 3)
            manifest.stages.append(StageRecord(name, seconds, _inventory(cfg, outputs)))
    finally:
        ctx.close()
    _write_json(cfg.path(F_MANIFEST), manifest.to_json_obj())
    return manifest
