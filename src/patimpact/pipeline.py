"""End-to-end run orchestration.

A single JSON config drives every stage. Each stage is independently
runnable, consumes only prior-stage files from the output directory, and
derives its RNG seed from the global seed and its stage name, so a full run
and a manual stage-by-stage run produce identical artifacts. `_stage`
declares each stage once: its function in STAGES, and in STAGE_SPECS, in run
order, its CLI subcommands, their flags and whether `run` includes it.
ARTIFACTS declares each file that a later stage reads back: the stage that
writes it, its writer and its parser.
Stages write and read files through a RunContext, which keeps the value of
each artifact a stage wrote and parses only a file it holds no value of; a
full run shares one context across its stages, so it parses no file it
wrote, and a stage called on its own builds its own. The context also runs
the independent units of train (the four models), explain (the instances),
and cv and gridsearch (a model per config and fold) in worker processes, at
most one per CPU; the artifacts do not depend on the worker count.
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
from functools import partial, wraps
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import corpus as corpus_mod
from . import explain as explain_mod
from . import indicators as ind
from . import metrics as metrics_mod
from . import mtl as mtl_mod
from . import tables
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
from .seeding import derive_seed
from .synth import SynthParams, generate_synthetic
from .tables import (
    from_json,
    json_bool,
    json_error,
    json_finite,
    json_int,
    json_int_list,
    json_int_or_null,
    json_list,
    json_member,
    json_object,
    json_str,
    json_str_or_null,
)

log = logging.getLogger(__name__)

CONFIG_SCHEMA = "patimpact-config/1"
MANIFEST_SCHEMA = "patimpact-manifest/1"

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
    background_size: int = 25  # training rows drawn per permutation
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
    space: dict[str, list] = field(default_factory=dict)
    k: int = 5

    def __post_init__(self) -> None:
        if not self.space:
            raise ValueError("grid requires a non-empty space object")
        if self.k < 2:
            raise ValueError("grid.k must be >= 2")


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
                choices = ", ".join("null" if a is None else a for a in allowed)
                raise ConfigError(str(json_error(name, f"one of {choices}", value)))
        # evaluate and report need a head for every horizon
        grid_heads = self.grid.space.get("task_head_widths", []) if self.grid else []
        for name, heads in [
            ("network.task_head_widths", self.network.task_head_widths),
            *(("grid.space.task_head_widths", h) for h in grid_heads),
        ]:
            if set(heads) != set(HORIZONS):
                raise ConfigError(f"{name} must give widths for short, mid and long")
        for name, value in (
            ("explain.n_instances", self.explain.n_instances),
            ("explain.n_permutations", self.explain.n_permutations),
            ("explain.background_size", self.explain.background_size),
            ("explain.top_k", self.explain.top_k),
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
    base = base_dir if base_dir is not None else Path(".")

    def resolve(p: str) -> Path:
        path = Path(p)
        return path if path.is_absolute() else base / path

    # a ConfigError raised here passes the handler below as it is
    try:
        json_object(obj, "config")
        if obj.get("schema") != CONFIG_SCHEMA:
            raise ConfigError(
                f"unsupported config schema {reprlib.repr(obj.get('schema'))}; "
                f"expected {CONFIG_SCHEMA}"
            )
        if "out_dir" not in obj:
            raise ConfigError("config requires out_dir")
        unknown = sorted(set(obj) - set(CONFIG_TOP_LEVEL_KEYS))
        if unknown:
            raise ConfigError(f"unknown top-level key(s): {', '.join(unknown)}")
        seed = json_int(obj.get("seed", 0), "seed")
        domain = json_str(obj.get("domain_ipc_prefix", "H01M"), "domain_ipc_prefix")
        synth = None
        if obj.get("synth") is not None:
            try:
                synth = from_json(
                    SynthParams, _SYNTH_FIELDS, obj["synth"], "synth",
                    seed=derive_seed(seed, "synth"), domain_ipc_prefix=domain,
                )
                synth.validate()
            except ValueError as exc:
                raise ConfigError(f"invalid synth params: {exc}") from None
        corpus_path = obj.get("corpus_path")
        grid = obj.get("grid")
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
            network=from_json(
                mtl_mod.NetworkConfig, mtl_mod.JSON_FIELDS[mtl_mod.NetworkConfig],
                obj.get("network", {}), "network", mtl_mod.NETWORK_FIELDS,
                seed=derive_seed(seed, "init"),
            ),
            train=from_json(
                mtl_mod.TrainConfig, mtl_mod.JSON_FIELDS[mtl_mod.TrainConfig],
                obj.get("train", {}), "train", seed=derive_seed(seed, "train"),
            ),
            grid=None if grid is None else from_json(GridSettings, _GRID_FIELDS, grid, "grid"),
            compare_stl=json_bool(obj.get("compare_stl", True), "compare_stl"),
            # a settings block that is absent or null keeps every default
            **{
                key: from_json(cls, fields, {} if obj.get(key) is None else obj[key], key)
                for key, (cls, fields) in _SETTINGS_FIELDS.items()
            },
            raw=obj,
        )
    except (ValueError, TypeError) as exc:
        raise ConfigError(str(exc)) from None
    cfg.validate()
    return cfg


def _grid_space(value, name: str) -> dict[str, list]:
    """The candidates of each hyperparameter of a grid, each decoded like its field."""
    if type(value) is not dict or not value:
        raise ValueError("grid requires a non-empty space object")
    space = {}
    for key, candidates in value.items():
        where = f"{name}.{key}"
        if key not in mtl_mod.HYPERPARAMETERS:
            raise ValueError(f"{where} is not a hyperparameter")
        if type(candidates) is not list or not candidates:
            raise json_error(where, "a non-empty JSON array", candidates)
        space[key] = [mtl_mod.HYPERPARAMETERS[key](c, where) for c in candidates]
    return space


# The converter of each key of a config block, by block
_SYNTH_FIELDS = {
    "n_patents": json_int, "year_range": json_int_list,
    "citation_attachment_exponent": json_finite, "feature_signal_strength": json_finite,
    "mean_internal_citations": json_finite, "mean_external_citations": json_finite,
}
_GRID_FIELDS = {"space": _grid_space, "k": json_int}
_SETTINGS_FIELDS: dict[str, tuple[type, dict]] = {
    "explain": (ExplainSettings, {
        "n_instances": json_int, "n_permutations": json_int, "background_size": json_int,
        "top_k": json_int, "target_class": partial(json_member, ImpactClass),
        # null is no filter; validate() checks the pattern name
        "filter_pattern": json_str_or_null,
    }),
    "validation": (ValidationSettings, {
        "method": json_str, "n_permutations": json_int, "group_by": json_str, "scope": json_str,
    }),
    "topic": (TopicSettings, {"horizon": partial(json_member, Horizon), "group_by": json_str}),
}


# --------------------------------------------------------------------------
# artifacts and the run context
# --------------------------------------------------------------------------

def _table(from_rows: Callable) -> tuple[Callable, Callable]:
    """The writer and the parser of a table whose value is ``from_rows(header,
    rows)`` of the text of its cells, which it reads to the last row: the
    writer gives it the cells it writes, the parser those it reads."""

    def write(path, header: list, rows):
        written = tables.written_rows(path, header, rows)
        return from_rows(next(written), written)

    def parse(path, cfg):
        rows = tables.table_rows(path)
        return from_rows(next(rows), rows)

    return write, parse


def _records(header: list[str], rows) -> list[dict[str, str]]:
    return [dict(zip(header, row)) for row in rows]


@dataclass
class LabelRow:
    patent_id: str
    grant_year: int
    classes: dict[Horizon, ImpactClass]
    trajectory: str


def _labels(header: list[str], rows) -> tuple[list[LabelRow], dict[str, LabelRow]]:
    """The label rows of labels.csv and the row of each patent id."""
    col = {name: i for i, name in enumerate(header)}
    labels = [
        LabelRow(
            row[col["patent_id"]], int(row[col["grant_year"]]),
            {h: ImpactClass.from_name(row[col[f"{h.key}_class"]]) for h in HORIZONS},
            row[col["trajectory"]],
        )
        for row in rows
    ]
    return labels, {r.patent_id: r for r in labels}


def _predictions(header: list[str], rows) -> tuple[list[str], np.ndarray, dict[str, np.ndarray]]:
    """predictions.csv by column: the patent ids, whether each is in the test
    split, and the class indices of each ``<horizon>_<actual|predicted>`` column."""
    col = {name: i for i, name in enumerate(header)}
    classes = {f"{h.key}_{kind}": [] for kind in ("actual", "predicted") for h in HORIZONS}
    cells = [(col[name], values) for name, values in classes.items()]
    ids, test = [], []
    for row in rows:
        ids.append(row[col["patent_id"]])
        test.append(row[col["split"]] == "test")
        for i, values in cells:
            values.append(ImpactClass.from_name(row[i]))
    return ids, np.array(test, dtype=bool), {
        name: np.array(values, dtype=np.int8) for name, values in classes.items()
    }


def _write_features(path, ids: list[str], matrix: np.ndarray):
    tables.write_csv(
        path, ["patent_id", *ind.FEATURE_NAMES],
        ([pid, *row.tolist()] for pid, row in zip(ids, matrix)),
    )
    # each finite double is written as its shortest repr, which parses back to its bits
    return {pid: i for i, pid in enumerate(ids)}, matrix


def _parse_features(path, cfg) -> tuple[dict[str, int], np.ndarray]:
    rows = tables.table_rows(path)
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


def _write_corpus(path, corpus: Corpus) -> Corpus:
    # in the id order that save_corpus writes and load_corpus reads back
    records = {pid: corpus.records[pid] for pid in sorted(corpus.records)}
    corpus = Corpus(records, corpus.domain_ipc_prefix, corpus.forward_index)
    corpus_mod.save_corpus(corpus, path)
    return corpus


def _write_checkpoint(path, model: mtl_mod.MtlModel) -> mtl_mod.MtlModel:
    mtl_mod.save_checkpoint(path, model)
    return model


def _parse_checkpoint(path, cfg) -> mtl_mod.MtlModel:
    model = mtl_mod.load_checkpoint(path)
    # every checkpoint a run writes holds the standardizer of its training rows
    if model.standardizer is None:
        raise json_error("$.standardizer", "a JSON array", None)
    return model


def _json(fields: dict, indent: Optional[int] = 2) -> tuple[Callable, Callable]:
    """The writer and the parser of a JSON object that holds each key of
    ``fields`` with a value its converter accepts; the writer gives the value
    its text decodes to."""

    def parse(path, cfg):
        return json_object(json.loads(path.read_text(encoding="utf-8")), "$", fields)

    return (lambda path, obj: json.loads(tables.write_json(path, obj, indent))), parse


@dataclass(frozen=True)
class Artifact:
    """A file that a later stage reads back: the stage that writes it,
    ``write(path, *args)``, which writes it and gives its value, and
    ``parse(path, cfg)``, which gives the same value from the file."""

    producer: str
    write: Callable
    parse: Callable


# The writers and parsers look up the functions of other modules when they
# run, as the stages do, so a wrapper on such a function sees every call.
_CHECKPOINT = (_write_checkpoint, _parse_checkpoint)
# the converters of one horizon's thresholds and of a list of patent ids
_BOUNDS = partial(json_object, fields={"bt_min": json_int, "vt_min": json_int})
_IDS = partial(json_list, convert=json_str)
ARTIFACTS: dict[str, Artifact] = {
    "corpus.jsonl": Artifact(
        "corpus", _write_corpus,
        lambda path, cfg: corpus_mod.load_corpus(path, cfg.domain_ipc_prefix),
    ),
    "thresholds.json": Artifact("label", *_json({h.key: _BOUNDS for h in HORIZONS})),
    "labels.csv": Artifact("label", *_table(_labels)),
    "features.csv": Artifact("features", _write_features, _parse_features),
    "best_config.json": Artifact(
        "gridsearch", *_json({"network": json_object, "train": json_object})
    ),
    "split.json": Artifact("train", *_json({"train_ids": _IDS, "test_ids": _IDS}, None)),
    "model.ckpt.json": Artifact("train", *_CHECKPOINT),
    **{f"stl_{h.key}.ckpt.json": Artifact("train", *_CHECKPOINT) for h in HORIZONS},
    "predictions.csv": Artifact("evaluate", *_table(_predictions)),
    "metrics.csv": Artifact("evaluate", *_table(_records)),
    "comparison.csv": Artifact("evaluate", *_table(_records)),
    "attributions.csv": Artifact("explain", *_table(_records)),
    "validation.csv": Artifact("validate", *_table(_records)),
    "topic_scores.csv": Artifact("topic-score", *_table(_records)),
}

# The writers of the files that no stage reads back, by suffix. Each looks up
# its function when it runs, so a wrapper on that function sees every write.
_WRITERS: dict[str, Callable] = {
    ".csv": lambda path, *args, **kwargs: tables.write_csv(path, *args, **kwargs),
    ".json": lambda path, obj: tables.write_json(path, obj),
    ".svg": lambda path, *args, **kwargs: explain_mod.render_beeswarm_svg(path, *args, **kwargs),
    ".md": lambda path, text: path.write_text(text, encoding="utf-8"),
}


# The BLAS threads of each pool worker: the workers share the CPUs between them
_WORKER_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def _worker_count(n_units: int) -> int:
    """Processes to run ``n_units`` independent units: one per CPU in this
    process's affinity mask, and no more than there are units."""
    return min(len(os.sched_getaffinity(0)), n_units)


class RunContext:
    """One run's config, its artifacts and its worker pool.

    Stages write every file through `write`, which keeps the value of each
    artifact (an ARTIFACTS file) as its writer gives it, and read artifacts
    through `read`, which parses a file only when no value is kept. So a full
    run, whose stages share one context, parses no file it wrote. A missing
    or malformed artifact is a StageError of the running stage that names it.
    A context serves one run, in which every artifact is written before it is
    read. Whoever creates a context closes it, which stops the pool that `map`
    may have started. A stage puts what its manifest record reports beside
    its outputs, such as the training summary, in ``diagnostics``.
    """

    def __init__(self, cfg: PipelineConfig):
        self.cfg = cfg
        self.stage = ""
        self.outputs: list[str] = []
        self.diagnostics: dict = {}
        self._kept: dict[str, object] = {}
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

    def write(self, name: str, *args, **kwargs) -> None:
        """Write the file ``name`` as an output of the running stage: an
        artifact by its ARTIFACTS writer, whose value it keeps, and any other
        file by the writer of its suffix."""
        artifact = ARTIFACTS.get(name)
        writer = artifact.write if artifact else _WRITERS[Path(name).suffix]
        value = writer(self.cfg.path(name), *args, **kwargs)
        if artifact:
            self._kept[name] = value
        self.outputs.append(name)

    def _has(self, name: str) -> bool:
        return name in self._kept or self.cfg.path(name).exists()

    def _producer_hint(self, name: str) -> str:
        # "rerun" the producer's subcommands when it wrote its other artifacts but not this one
        producer = ARTIFACTS[name].producer
        ran = any(a.producer == producer and self._has(n) for n, a in ARTIFACTS.items())
        commands = " or ".join(command for command, _, _ in STAGE_SPECS[producer].commands)
        return f"{'rerun' if ran else 'run'} {commands}"

    def read(self, *names: str, optional: bool = False):
        """The artifact ``name``, or a tuple of them for several names; with
        ``optional`` a missing one is None. A bad corpus is a CorpusError."""
        missing = [n for n in names if not self._has(n)]
        if missing and not optional:
            raise StageError(self.stage, "missing prerequisite file(s): " + ", ".join(
                f"{n} ({self._producer_hint(n)})" for n in missing
            ))
        for name in names:
            if name not in self._kept and name not in missing:
                self._kept[name] = self._parse(name)
        values = tuple(self._kept.get(n) for n in names)
        return values[0] if len(names) == 1 else values

    def _parse(self, name: str):
        try:
            return ARTIFACTS[name].parse(self.cfg.path(name), self.cfg)
        # what a malformed table, JSON value or checkpoint raises while it is
        # parsed; a bad corpus is a CorpusError, which passes
        except (ValueError, KeyError, TypeError, AttributeError, RecursionError, csv.Error) as exc:
            raise StageError(self.stage, f"cannot parse {name}: {exc}") from None

    @property
    def corpus(self) -> Corpus:
        return self.read("corpus.jsonl")

    @property
    def labels(self) -> list[LabelRow]:
        return self.read("labels.csv")[0]

    @property
    def label_by_id(self) -> dict[str, LabelRow]:
        return self.read("labels.csv")[1]

    def feature_rows(self, ids) -> np.ndarray:
        pos, matrix = self.read("features.csv")
        try:
            return matrix[[pos[p] for p in ids]]
        except KeyError as exc:
            raise StageError(self.stage, f"features.csv has no row for patent {exc}") from None


STAGES: dict[str, Callable[..., list[str]]] = {}


class StageSpec(NamedTuple):
    """A stage's entry in STAGE_SPECS: its CLI subcommands, each (name, help,
    required config field or None); its CLI flags, each (flag, config path or
    stage keyword, argparse kwargs); and whether `run` includes it (in_run)."""

    commands: tuple
    flags: tuple
    in_run: Callable[[PipelineConfig], bool]


STAGE_SPECS: dict[str, StageSpec] = {}  # in run order


def _stage(name: str, help_text: str = "", *, commands=(), flags=(), in_run=lambda cfg: True):
    """Register ``body(ctx, **kwargs)``, which writes its files through
    ``ctx.write``, in STAGES as ``stage(cfg, ctx=None, **kwargs)``, which
    returns the names of the files written, in the order written, and its
    StageSpec in STAGE_SPECS, whose one subcommand is ``name`` with
    ``help_text`` unless ``commands`` are given.

    Without a ``ctx`` the stage runs in a context of its own, which it closes
    when it ends. A ValueError or OSError becomes a StageError; a CorpusError
    or ConfigError passes as is.
    """
    spec = StageSpec(tuple(commands) or ((name, help_text, None),), tuple(flags), in_run)

    def register(body):
        @wraps(body)
        def stage(cfg: PipelineConfig, ctx: Optional[RunContext] = None, **kwargs):
            if ctx is None:
                own = RunContext(cfg)
                try:
                    return stage(cfg, own, **kwargs)
                finally:
                    own.close()
            ctx.stage, ctx.outputs, ctx.diagnostics = name, [], {}
            try:
                body(ctx, **kwargs)
            except (ValueError, OSError) as exc:
                raise StageError(name, str(exc)) from exc
            return ctx.outputs

        STAGES[name] = stage
        STAGE_SPECS[name] = spec
        return stage

    return register


# --------------------------------------------------------------------------
# stages
# --------------------------------------------------------------------------

@_stage("corpus", commands=[
    ("synth", "generate the synthetic corpus snapshot", "synth"),
    ("ingest", "normalize an existing corpus file into the run directory", "corpus_path"),
])
def stage_corpus(ctx: RunContext) -> None:
    """Synthesize or ingest, then persist the normalized corpus snapshot."""
    cfg = ctx.cfg
    if cfg.synth is not None:
        corpus = generate_synthetic(cfg.synth)
    else:
        if not cfg.corpus_path.exists():
            raise StageError("corpus", f"corpus file {cfg.corpus_path} not found")
        corpus = corpus_mod.load_corpus(cfg.corpus_path, cfg.domain_ipc_prefix)
    ctx.write("corpus.jsonl", corpus)


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


@_stage("label", "derive thresholds and impact classes",
        flags=[("--mode", "threshold_mode", {"choices": ["fixed", "stanine"]})])
def stage_label(ctx: RunContext) -> None:
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
    ctx.write("thresholds.json", thresholds.to_json_obj())

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
    ctx.write(
        "labels.csv",
        ["patent_id", "grant_year"]
        + [f"{h.key}_count" for h in HORIZONS]
        + [f"{h.key}_class" for h in HORIZONS]
        + ["trajectory"],
        rows,
    )
    log.info("labeled %d patents; exclusions per horizon: %s", len(rows), excluded)


@_stage("features", "extract indicator vectors for labeled patents")
def stage_features(ctx: RunContext) -> None:
    """Extract the indicator matrix for every labeled patent."""
    ids = [row.patent_id for row in ctx.labels]
    ctx.write(
        "features.csv", ids,
        ind.extract_feature_matrix(ctx.corpus, ids, home_country=ctx.cfg.home_country),
    )


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
    confusion = metrics_mod.confusion_from_predictions
    return {h: confusion(labels[h][test_idx], preds[h]) for h in HORIZONS}


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


@_stage("gridsearch", commands=[("gridsearch", "exhaustive hyperparameter search", "grid")],
        in_run=lambda cfg: cfg.grid is not None)
def stage_gridsearch(ctx: RunContext) -> None:
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
    ctx.write(
        "gridsearch.csv",
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
    ctx.write("best_config.json", {
        "score": scores[best],
        "network": mtl_mod.to_json(configs[best][0]),
        "train": mtl_mod.to_json(configs[best][1]),
    })


def _configs_for_training(
    ctx: RunContext,
) -> tuple[mtl_mod.NetworkConfig, mtl_mod.TrainConfig]:
    cfg = ctx.cfg
    if cfg.grid is None:
        return cfg.network, cfg.train
    best = ctx.read("best_config.json")
    return (
        from_json(
            mtl_mod.NetworkConfig, mtl_mod.JSON_FIELDS[mtl_mod.NetworkConfig], best["network"],
            "best_config.json $.network",
        ),
        from_json(
            mtl_mod.TrainConfig, mtl_mod.JSON_FIELDS[mtl_mod.TrainConfig], best["train"],
            "best_config.json $.train", seed=cfg.train.seed,
        ),
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


@_stage("train", "fit the multi-task model (and single-task ablations)")
def stage_train(ctx: RunContext) -> None:
    """Fit the standardizer and the multi-task model (plus ablations)."""
    cfg = ctx.cfg
    # every input is read before the first write, so a failing read leaves no new split
    network, train_cfg = _configs_for_training(ctx)
    train_ids, test_ids, test_year = _temporal_split(ctx)
    X_train, labels = _training_set(ctx, train_ids)

    std = ind.fit_standardizer(X_train)
    ctx.write("split.json", {"test_year": test_year, "train_ids": train_ids, "test_ids": test_ids})

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
    ctx.write("model.ckpt.json", model)
    # training_log.csv ends lines with LF, not CRLF; existing logs and checksums pin that
    ctx.write("training_log.csv", *mtl_mod.training_log_rows(model), lineterminator="\n")
    stl_names = [f"stl_{h.key}.ckpt.json" for h in stl_tasks]
    for name, stl in zip(stl_names, stls):
        stl.standardizer = std
        ctx.write(name, stl)
    ctx.diagnostics["training"] = {
        name: mtl_mod.training_summary(m, train_cfg.max_epochs)
        for name, m in zip(["model.ckpt.json", *stl_names], [model, *stls])
    }


@_stage("evaluate", "predict on the test split and export metric tables")
def stage_evaluate(ctx: RunContext) -> None:
    """Predict, tabulate confusion matrices, and export metric tables."""
    cfg, (model, split) = ctx.cfg, ctx.read("model.ckpt.json", "split.json")
    by_id = ctx.label_by_id
    all_ids = split["train_ids"] + split["test_ids"]
    n_train = len(split["train_ids"])
    X = model.standardizer.transform(ctx.feature_rows(all_ids))
    preds = mtl_mod.predict_batch(model, X)

    ctx.write(
        "predictions.csv",
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
    confusion = metrics_mod.confusion_from_predictions
    mtl_cms = {h: confusion(actual[h], preds[h][test_index]) for h in HORIZONS}
    rows = metrics_mod.metrics_rows(mtl_cms)
    ctx.write("metrics.csv", ["horizon", "class", "metric", "value"], rows)
    tree: dict[str, dict[str, dict[str, float]]] = {}
    for horizon, cls, metric, value in rows:
        tree.setdefault(horizon, {}).setdefault(cls, {})[metric] = value
    ctx.write("metrics.json", tree)

    if cfg.compare_stl:
        stls = ctx.read(*(f"stl_{h.key}.ckpt.json" for h in HORIZONS))
        stl_cms = {
            h: confusion(actual[h], mtl_mod.predict_batch(stl, X[test_index])[h])
            for h, stl in zip(HORIZONS, stls)
        }
        ctx.write(
            "comparison.csv",
            ["horizon", "class", "metric", "value", "delta_vs_reference"],
            metrics_mod.comparison_rows(rows, metrics_mod.metrics_rows(stl_cms)),
        )


@_stage("explain", "Shapley attributions on test patents", flags=[
    ("--n-permutations", "explain.n_permutations", {"metavar": "N", "type": int}),
    ("--top-k", "explain.top_k", {"metavar": "K", "type": int}),
])
def stage_explain(ctx: RunContext) -> None:
    """Sampled Shapley attributions for a seeded subset of test patents."""
    cfg, (model, split) = ctx.cfg, ctx.read("model.ckpt.json", "split.json")
    std = model.standardizer
    seed = cfg.stage_seed("explain")

    # the pool from which each permutation draws its background rows
    background = explain_mod.BackgroundSet(std.transform(ctx.feature_rows(split["train_ids"])))
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
    # one unit per instance, which gives a row per target; each instance's
    # Shapley seed derives from its id, so the rows do not depend on the order
    per_instance = ctx.map(explain_mod.shapley_sampled, [
        (
            model, std.transform(x), background, targets, grouping,
            cfg.explain.n_permutations, derive_seed(seed, "shapley", pid), pid, x,
            cfg.explain.background_size,
        )
        for pid, x in zip(instance_ids, raw)
    ])
    by_target = [(t, [rows[k] for rows in per_instance]) for k, t in enumerate(targets)]
    ctx.write("attributions.csv", *explain_mod.attribution_rows(by_target, grouping))

    pattern = cfg.explain.filter_pattern
    for target, att_rows in by_target:
        h = target.horizon
        if pattern is not None:
            att_rows = [r for r in att_rows if trajectory_of.get(r.instance_id) == pattern]
        _, records = explain_mod.group_summary(att_rows, grouping, top_k=cfg.explain.top_k)
        stem = f"summary_{h.key}_{target.impact_class.name}"
        header = ["instance_id", "group", "feature_value", "phi"]
        ctx.write(f"{stem}.csv", header, ([r[k] for k in header] for r in records))
        if not records:
            log.warning(
                "no explained %s instances with trajectory %r; skipping plot", h.key, pattern
            )
            continue
        ctx.write(
            f"{stem}.svg", att_rows, grouping, top_k=cfg.explain.top_k,
            title=f"{h.key}-term {target.impact_class.name} attribution summary",
        )


def _predicted_classes(
    ctx: RunContext, group_by: str, scope: str
) -> dict[Horizon, dict[str, ImpactClass]]:
    """Classes per horizon from predictions.csv: its ``actual`` or
    ``predicted`` columns, for every patent or (``scope="test"``) the test split."""
    ids, test, columns = ctx.read("predictions.csv")
    rows = [i for i, in_test in enumerate(test) if scope == "all" or in_test]
    return {
        h: {ids[i]: ImpactClass(columns[f"{h.key}_{group_by}"][i]) for i in rows}
        for h in HORIZONS
    }


@_stage("validate", commands=[("jt-test", "ordered-trend tests of value indicators", None)], flags=[
    ("--method", "validation.method", {"choices": validate_mod.JT_METHODS}),
    ("--n-permutations", "validation.n_permutations", {"metavar": "N", "type": int}),
])
def stage_validate(ctx: RunContext) -> None:
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
    ctx.write("validation.csv", *validate_mod.validation_rows(per_horizon))


@_stage("topic-score", "topic impact scores per grant year",
        flags=[("--horizon", "topic.horizon", {"choices": ["short", "mid", "long"]})])
def stage_topic_score(ctx: RunContext) -> None:
    """Class-weighted topic impact scores per grant year."""
    cfg, h = ctx.cfg, ctx.cfg.topic.horizon
    if cfg.topic.group_by == "actual":
        classes = {r.patent_id: r.classes[h] for r in ctx.labels}
    else:
        classes = _predicted_classes(ctx, "predicted", "all")[h]
    table = validate_mod.topic_impact_scores(ctx.corpus, classes)
    ctx.write(
        "topic_scores.csv", ["topic", "year", "n_patents", "score"],
        ([t, y, table.counts[t, y], table.scores[t, y]] for t, y in sorted(table.scores)),
    )
    pivot: dict[str, dict[str, float]] = {}
    for (topic, year), score in table.scores.items():
        pivot.setdefault(topic, {})[str(year)] = score
    ctx.write("topic_scores.json", pivot)


@_stage("cv", "stratified k-fold cross-validation", in_run=lambda cfg: False,
        flags=[("--folds", "k", {"type": int, "default": 5})])
def stage_cv(ctx: RunContext, k: int = 5) -> None:
    """Stratified k-fold cross-validation of the configured model."""
    if k < 2:
        raise ConfigError(f"--folds (k) must be >= 2, got {k}")
    cfg = ctx.cfg
    (folds,) = _cross_validate(
        ctx, [_configs_for_training(ctx)], k, derive_seed(cfg.stage_seed("cv"), "folds")
    )
    rows = [[fold, *row] for fold, cms in enumerate(folds) for row in metrics_mod.metrics_rows(cms)]
    ctx.write("cv_metrics.csv", ["fold", "horizon", "class", "metric", "value"], rows)


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


@_stage("report", "merge stage outputs into report.md")
def stage_report(ctx: RunContext) -> None:
    """Merge stage outputs into one human-readable markdown summary."""
    cfg = ctx.cfg
    thresholds, (rows, _), metrics = ctx.read("thresholds.json", "labels.csv", "metrics.csv")
    comparison, attributions, validation, topic_rows = ctx.read(
        "comparison.csv", "attributions.csv", "validation.csv", "topic_scores.csv", optional=True
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
        drawn = min(cfg.explain.background_size, len(ctx.read("split.json")["train_ids"]))
        std_errs: dict[str, list[float]] = {}
        for r in attributions:
            std_errs.setdefault(r["horizon"], []).append(float(r["std_err"]))
        mean_se = ", ".join(
            f"{h.key} {sum(v) / len(v):.3g}" for h in HORIZONS if (v := std_errs.get(h.key))
        )
        lines += [
            "## Attribution: top indicators per horizon",
            "",
            f"{len({r['instance_id'] for r in attributions})} test patents explained, "
            f"{cfg.explain.n_permutations} permutations each, {drawn} training rows drawn "
            f"per permutation; mean std_err: {mean_se}.",
            "",
        ]
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

    ctx.write("report.md", "\n".join(lines))


# --------------------------------------------------------------------------
# manifest and full pipeline
# --------------------------------------------------------------------------

@dataclass
class StageRecord:
    name: str
    seconds: float
    outputs: list[dict]
    diagnostics: dict


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
    return [name for name, spec in STAGE_SPECS.items() if spec.in_run(cfg)]


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
                tables.write_json(cfg.path(F_MANIFEST), manifest.to_json_obj())
                raise
            seconds = round(time.perf_counter() - t0, 3)
            manifest.stages.append(
                StageRecord(name, seconds, _inventory(cfg, outputs), ctx.diagnostics)
            )
    finally:
        ctx.close()
    tables.write_json(cfg.path(F_MANIFEST), manifest.to_json_obj())
    return manifest
