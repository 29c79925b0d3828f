"""Pipeline orchestration and CLI tests."""

from __future__ import annotations

import csv
import dataclasses
import functools
import hashlib
import json
import math
import multiprocessing
import os
import pickle
import re
import shutil
import struct
import sys
import tempfile
import threading
from collections import Counter
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from patimpact import cli, mtl, pipeline
from patimpact import corpus as corpus_mod
from patimpact import explain as explain_mod
from patimpact.corpus import (
    CLASS_ORDER,
    HORIZONS,
    Corpus,
    HistoryOverrides,
    Horizon,
    ImpactClass,
    PostHoc,
    add_years,
    forward_citation_count,
    load_corpus,
    record_to_json_obj,
    stanine_thresholds,
)
from patimpact.indicators import FEATURE_NAMES, N_FEATURES, fit_standardizer
from patimpact.metrics import (
    class_metrics,
    confusion_from_predictions,
    overall_metrics,
    stratified_kfold,
)
from patimpact.pipeline import (
    ARTIFACTS,
    ConfigError,
    F_MANIFEST,
    STAGES,
    RunContext,
    StageError,
    config_from_obj,
    load_config,
    pipeline_stage_names,
    run_pipeline,
    stage_evaluate,
    stage_report,
)
from patimpact.seeding import derive_seed
from patimpact.synth import SynthParams
from patimpact.tables import write_csv
from patimpact.validate import VALUE_INDICATORS, OrderedGroups

from conftest import make_patent
from test_corpus import _field_paths, _hand_built_corpora, _json_values, _synthetic_corpora
from test_validate import loop_permutation_p


def _readme_artifact_table() -> dict[str, tuple[str, list[str]]]:
    """Each file of README's Outputs table: the stage that writes it and the
    stages that read it."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Outputs", 1)[1].split("\n## ", 1)[0]
    return {
        name: (writer, [reader.split()[0] for reader in readers.split(", ")])
        for name, writer, readers in re.findall(
            r"^\| `([^`]+)` \| ([a-z-]+) \| (.+) \|$", section, re.MULTILINE
        )
    }


def _readme_cli_table() -> dict[str, tuple[str, str, list[tuple[str, str]]]]:
    """Each subcommand of README's CLI table: the stage it runs, when `run`
    includes that stage, and its flags, each with the config path or stage
    keyword it sets."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### CLI", 1)[1].split("\n#", 1)[0]
    return {
        command: (stage, in_run, re.findall(r"`(--[a-z-]+)` sets [^`]*`([a-z_.]+)`", flags))
        for command, stage, in_run, flags in re.findall(
            r"^\| `([a-z-]+)` \| ([a-z-]+) \| ([^|]+) \|(.*)\|$", section, re.MULTILINE
        )
    }


def base_config_obj(out_dir: Path, **overrides) -> dict:
    obj = {
        "schema": "patimpact-config/1",
        "seed": 7,
        "out_dir": str(out_dir),
        "synth": {"n_patents": 300, "year_range": [1998, 2012]},
        "threshold_mode": "fixed",
        "train": {"class_weighting": True, "max_epochs": 20},
        "explain": {"n_instances": 3, "n_permutations": 15},
    }
    obj.update(overrides)
    return obj


def checksums(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.name != F_MANIFEST
    }


def _records(path: Path) -> list[dict[str, str]]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = config_from_obj(base_config_obj(out))
    manifest = run_pipeline(cfg)
    return cfg, manifest


# the config variants whose runs read every artifact a stage can read
FINISHED_RUN_OVERRIDES = {
    "default": {},
    "grid": {"grid": {"space": {"learning_rate": [1e-3]}, "k": 2}, "compare_stl": True},
    "predicted": {"topic": {"group_by": "predicted"}, "compare_stl": False},
}


class _KeptContext(RunContext):
    """A RunContext that remembers the last one created."""

    last = None

    def __init__(self, cfg):
        super().__init__(cfg)
        _KeptContext.last = self


@pytest.fixture(scope="module")
def finished_run_records(tmp_path_factory):
    """Per FINISHED_RUN_OVERRIDES variant: the config object of a finished run
    on one CPU, the opens of its output directory that the run made, and the
    run's context."""
    records = {}
    with mock.patch.object(os, "sched_getaffinity", lambda pid: {0}), mock.patch.object(
        pipeline, "RunContext", _KeptContext
    ):
        for name, overrides in FINISHED_RUN_OVERRIDES.items():
            out = tmp_path_factory.mktemp(name)
            obj = base_config_obj(out, **overrides)
            obj["train"] = {"max_epochs": 3, "class_weighting": True, "batch_size": 8}
            _, opens = _audited(lambda: run_pipeline(config_from_obj(obj)), out)
            records[name] = obj, opens, _KeptContext.last
    return records


@pytest.fixture(scope="module")
def finished_runs(finished_run_records):
    """The config object of a finished run of each FINISHED_RUN_OVERRIDES variant."""
    return {name: obj for name, (obj, _, _) in finished_run_records.items()}


# What the audit hook records while a test sets "dir": (name, writes, via), where
# via is "read" for an open inside RunContext.read, "hash" for one inside the
# manifest's hashing, and None for any other
_AUDIT: dict = {"dir": None, "opens": [], "installed": False}
_VIA = {RunContext.read.__code__: "read", pipeline._sha256.__code__: "hash"}


def _record_open(event, args):
    if event != "open" or _AUDIT["dir"] is None or isinstance(args[0], int):
        return
    path = os.fsdecode(args[0])
    if os.path.dirname(path) != _AUDIT["dir"]:
        return
    frame, via = sys._getframe(1), None
    while frame is not None and via is None:
        via = _VIA.get(frame.f_code)
        frame = frame.f_back
    writes = args[2] & os.O_ACCMODE != os.O_RDONLY
    _AUDIT["opens"].append((os.path.basename(path), writes, via))


def _audited(fn, out_dir: Path):
    """``fn()`` and the opens of files in ``out_dir`` that it made."""
    if not _AUDIT["installed"]:
        sys.addaudithook(_record_open)  # a hook cannot be removed; "dir" switches it
        _AUDIT["installed"] = True
    _AUDIT.update(dir=str(out_dir), opens=[])
    try:
        return fn(), list(_AUDIT["opens"])
    finally:
        _AUDIT["dir"] = None


class TestConfig:
    def test_missing_out_dir_fails_before_stages(self, tmp_path):
        obj = base_config_obj(tmp_path / "does-not-exist")
        with pytest.raises(ConfigError, match="does not exist"):
            config_from_obj(obj)

    def test_exactly_one_source_required(self, tmp_path):
        obj = base_config_obj(tmp_path)
        obj["corpus_path"] = str(tmp_path / "c.jsonl")
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_obj(obj)
        obj2 = base_config_obj(tmp_path)
        del obj2["synth"]
        with pytest.raises(ConfigError, match="exactly one"):
            config_from_obj(obj2)

    def test_unknown_schema(self, tmp_path):
        obj = base_config_obj(tmp_path)
        obj["schema"] = "other/1"
        with pytest.raises(ConfigError, match="schema"):
            config_from_obj(obj)

    def test_bad_threshold_mode(self, tmp_path):
        obj = base_config_obj(tmp_path, threshold_mode="zscore")
        with pytest.raises(ConfigError):
            config_from_obj(obj)

    def test_config_hash_ignores_out_dir(self, tmp_path):
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        ca = config_from_obj(base_config_obj(a))
        cb = config_from_obj(base_config_obj(b))
        assert ca.config_hash() == cb.config_hash()
        cc = config_from_obj(base_config_obj(a, seed=8))
        assert cc.config_hash() != ca.config_hash()

    @pytest.mark.parametrize(
        "block, settings, message",
        [
            ("validation", {"method": "bootstrap"}, "validation.method"),
            ("validation", {"method": "permutation", "n_permutations": 0}, "n_permutations"),
            ("validation", {"n_permutations": -1}, "n_permutations"),
            ("explain", {"n_permutations": 0}, "explain.n_permutations"),
            ("explain", {"background_size": 0}, "explain.background_size"),
        ],
        # the validation cases keep the ids they had before the explain cases
        ids=[
            "validation0-validation.method",
            "validation1-n_permutations",
            "validation2-n_permutations",
            "explain0-explain.n_permutations",
            "explain1-explain.background_size",
        ],
    )
    def test_bad_validation_settings(self, tmp_path, block, settings, message):
        obj = base_config_obj(tmp_path, **{block: settings})
        with pytest.raises(ConfigError, match=message):
            config_from_obj(obj)

    @pytest.mark.parametrize(
        "block, key",
        [
            ("train", "learning_rat"),
            ("train", "beta1"),
            ("train", "seed"),
            ("network", "input_dim"),
            ("network", "seed"),
            ("network", "classes_per_task"),
        ],
    )
    def test_unknown_network_or_train_key(self, tmp_path, block, key):
        obj = base_config_obj(tmp_path)
        obj[block] = {**obj.get(block, {}), key: 1}
        with pytest.raises(ConfigError, match=f"{block}: {key}"):
            config_from_obj(obj)

    def test_every_read_network_and_train_key_accepted(self, tmp_path):
        network = {
            "shared_layer_widths": [16, 8],
            "task_head_widths": {"short": [8], "mid": [8], "long": [4]},
            "shared_dropout_rate": 0.25,
        }
        train = {
            "learning_rate": 0.01,
            "batch_size": 8,
            "max_epochs": 3,
            "early_stop_patience": 2,
            "task_loss_weights": {"short": 1.0, "mid": 0.5, "long": 2.0},
            "validation_fraction": 0.2,
            "optimizer": "sgd",
            "class_weighting": True,
        }
        cfg = config_from_obj(base_config_obj(tmp_path, network=network, train=train))
        assert mtl.to_json(cfg.network) == {
            **network, "input_dim": 44, "classes_per_task": 3,
            "seed": derive_seed(7, "init"),
        }
        assert mtl.to_json(cfg.train) == train
        assert cfg.train.seed == derive_seed(7, "train")

    @pytest.mark.parametrize(
        "block, key",
        [
            ("synth", "n_patent"),
            ("synth", "recency_time_constant"),
            ("explain", "n_permutation"),
            ("validation", "methods"),
            ("topic", "horizons"),
            ("grid", "folds"),
        ],
    )
    def test_unknown_block_key(self, tmp_path, block, key):
        obj = base_config_obj(tmp_path, grid={"space": {"learning_rate": [1e-3]}})
        obj[block] = {**obj[block], key: 5} if block in obj else {key: 5}
        with pytest.raises(ConfigError, match=f"in {block}: {key}"):
            config_from_obj(obj)

    def test_every_read_block_key_accepted(self, tmp_path):
        blocks = {
            "synth": {
                "n_patents": 400, "year_range": [1997, 2010],
                "citation_attachment_exponent": 0.5, "feature_signal_strength": 2.0,
                "mean_internal_citations": 4.0, "mean_external_citations": 1.5,
            },
            "explain": {
                "n_instances": 2, "n_permutations": 9, "background_size": 7, "top_k": 3,
                "target_class": "VT", "filter_pattern": "peak_and_fade",
            },
            "validation": {
                "method": "permutation", "n_permutations": 99, "group_by": "actual",
                "scope": "test",
            },
            "topic": {"horizon": "mid", "group_by": "predicted"},
            "grid": {"space": {"learning_rate": [1e-3, 1e-4], "batch_size": [16]}, "k": 3},
        }
        cfg = config_from_obj(base_config_obj(tmp_path, **blocks))
        assert cfg.synth.n_patents == 400 and cfg.synth.year_range == (1997, 2010)
        assert cfg.synth.mean_external_citations == 1.5
        assert cfg.synth.feature_signal_strength == 2.0
        assert cfg.synth.mean_internal_citations == 4.0
        assert cfg.explain.background_size == 7
        assert cfg.explain.target_class == ImpactClass.VT
        assert cfg.validation.scope == "test" and cfg.validation.n_permutations == 99
        assert cfg.topic.horizon.key == "mid" and cfg.topic.group_by == "predicted"
        assert cfg.grid.space == blocks["grid"]["space"] and cfg.grid.k == 3

    def test_empty_synth_block_gives_the_default_params(self, tmp_path):
        cfg = config_from_obj(base_config_obj(tmp_path, seed=3, synth={}))
        assert cfg.synth == SynthParams(seed=derive_seed(3, "synth"))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"compare_stll": False}, "unknown top-level key\\(s\\): compare_stll"),
            ({"seed": "seven"}, "seed must be a JSON integer, got 'seven'"),
            ({"seed": 1.5}, "seed must be a JSON integer, got 1.5"),
            ({"seed": True}, "seed must be a JSON integer, got True"),
            ({"seed": None}, "seed must be a JSON integer, got None"),
            ({"compare_stl": "no"}, "compare_stl must be true or false, got 'no'"),
            ({"compare_stl": 0}, "compare_stl must be true or false, got 0"),
            ({"test_year": True}, "test_year must be a JSON integer or null, got True"),
            ({"test_year": 2010.5}, "test_year must be a JSON integer or null, got 2010.5"),
            ({"test_year": "2010"}, "test_year must be a JSON integer or null, got '2010'"),
            ({"corpus_path": 5}, "corpus_path must be a JSON string, got 5"),
            ({"home_country": ["US"]}, r"home_country must be a JSON string, got \['US'\]"),
        ],
        ids=["unknown-key", "seed-string", "seed-float", "seed-bool", "seed-null",
             "compare-stl-string", "compare-stl-int", "test-year-bool", "test-year-float",
             "test-year-string", "corpus-path-int", "home-country-list"],
    )
    def test_bad_top_level(self, tmp_path, overrides, message):
        with pytest.raises(ConfigError, match=message):
            config_from_obj(base_config_obj(tmp_path, **overrides))

    def test_every_read_top_level_key_accepted(self, tmp_path):
        corpus_file = tmp_path / "c.jsonl"
        corpus_file.write_text("")
        cfg = config_from_obj(base_config_obj(
            tmp_path, seed=0, synth=None, corpus_path=str(corpus_file), domain_ipc_prefix="H01M",
            home_country="JP", test_year=2010, network={}, grid=None, compare_stl=False,
            validation={}, topic={},
        ))
        assert cfg.seed == 0 and cfg.compare_stl is False and cfg.home_country == "JP"
        assert cfg.test_year == 2010 and cfg.corpus_path == corpus_file

    @pytest.mark.parametrize("block", ["synth", "explain", "validation", "topic", "grid"])
    def test_block_must_be_an_object(self, tmp_path, block):
        with pytest.raises(ConfigError, match=f"{block} must be a JSON object"):
            config_from_obj(base_config_obj(tmp_path, **{block: [1, 2]}))

    @pytest.mark.parametrize(
        "grid, message",
        [
            ({"space": {"warp_factor": [9]}}, "grid.space.warp_factor is not a hyperparameter"),
            ({"space": {"learning_rate": 1e-3}}, "grid.space.learning_rate must be a non-empty"),
            ({"space": {"learning_rate": []}}, "grid.space.learning_rate must be a non-empty"),
            ({"space": {}}, "non-empty space"),
            ({"space": [["learning_rate", [1e-3]]]}, "non-empty space"),
            ({"space": {"learning_rate": [1e-3]}, "k": 1}, "grid.k must be >= 2"),
            ({"space": {"learning_rate": [1e-3]}, "k": "five"}, "five"),
            ({"space": {"learning_rate": [1e-3]}, "k": 2.9}, "grid.k must be a JSON integer"),
            ({"space": {"input_dim": [44]}}, "grid.space.input_dim is not a hyperparameter"),
            (
                {"space": {"class_weighting": ["false"]}},
                "grid.space.class_weighting must be true or false, got 'false'",
            ),
            (
                {"space": {"task_head_widths": [{"short": [8], "long": [8]}]}},
                "grid.space.task_head_widths must give widths for short, mid and long",
            ),
            (
                {"space": {"learning_rate": [math.nan]}},
                "grid.space.learning_rate must be a finite JSON number, got nan",
            ),
            (
                {"space": {"shared_dropout_rate": [0.1, -math.inf]}},
                "grid.space.shared_dropout_rate must be a finite JSON number, got -inf",
            ),
        ],
        ids=["unknown-key", "scalar", "empty-list", "empty-space", "not-an-object", "k-1",
             "k-not-a-number", "k-float", "input-dim", "bool-candidate-string",
             "head-widths-candidate-missing-horizon", "nan-candidate", "infinite-candidate"],
    )
    def test_bad_grid(self, tmp_path, grid, message):
        with pytest.raises(ConfigError, match=message):
            config_from_obj(base_config_obj(tmp_path, grid=grid))

    @pytest.mark.parametrize(
        "block, settings, message",
        [
            ("train", {"class_weighting": "false"},
             "train.class_weighting must be true or false, got 'false'"),
            ("train", {"batch_size": 32.9}, "train.batch_size must be a JSON integer, got 32.9"),
            ("train", {"learning_rate": "0.01"},
             "train.learning_rate must be a finite JSON number, got '0.01'"),
            ("train", {"task_loss_weights": [1, 2, 3]},
             r"train.task_loss_weights must be a JSON object keyed by horizon, got \[1, 2, 3\]"),
            ("train", {"task_loss_weights": {"short": 1.0, "soon": 1.0}},
             "train.task_loss_weights key must be one of SHORT, MID, LONG, got 'soon'"),
            ("explain", {"n_instances": 2.5},
             "explain.n_instances must be a JSON integer, got 2.5"),
            ("explain", {"top_k": True}, "explain.top_k must be a JSON integer, got True"),
            ("explain", {"top_k": 0}, "explain.top_k must be >= 1"),
            ("explain", {"top_k": -1}, "explain.top_k must be >= 1"),
            ("explain", {"n_instances": 0}, "explain.n_instances must be >= 1"),
            ("explain", {"n_instances": -1}, "explain.n_instances must be >= 1"),
            ("explain", {"filter_pattern": "peak"},
             "explain.filter_pattern must be one of null, sustained, .*, got 'peak'"),
            ("explain", {"target_class": 2}, "explain.target_class must be one of MT, VT, BT"),
            ("synth", {"year_range": [1996]}, "year_range must be"),
            ("synth", {"year_range": [1996, 2000, 2010]}, "year_range must be"),
            ("synth", {"n_patents": 300.0}, "synth.n_patents must be a JSON integer"),
            ("network", {"shared_layer_widths": [16.5]},
             "network.shared_layer_widths must be a list of JSON integers"),
            ("network", {"task_head_widths": {"short": [8], "long": [8]}},
             "network.task_head_widths must give widths for short, mid and long"),
            ("validation", {"method": 1}, "validation.method must be a JSON string, got 1"),
            ("topic", {"horizon": 10}, "topic.horizon must be one of SHORT, MID, LONG, got 10"),
            # Python's JSON reader accepts NaN and Infinity, and every range check
            # is false for NaN
            ("train", {"learning_rate": math.nan},
             "train.learning_rate must be a finite JSON number, got nan"),
            ("train", {"task_loss_weights": {"short": math.nan, "mid": 1, "long": 1}},
             "train.task_loss_weights.short must be a finite JSON number, got nan"),
            ("network", {"shared_dropout_rate": math.nan},
             "network.shared_dropout_rate must be a finite JSON number, got nan"),
            ("synth", {"citation_attachment_exponent": math.inf},
             "synth.citation_attachment_exponent must be a finite JSON number, got inf"),
            ("synth", {"feature_signal_strength": math.nan},
             "synth.feature_signal_strength must be a finite JSON number, got nan"),
            ("synth", {"mean_external_citations": math.nan},
             "synth.mean_external_citations must be a finite JSON number, got nan"),
        ],
        ids=["bool-string", "int-float", "number-string", "weights-list", "weights-key",
             "n-instances-float", "top-k-bool", "top-k-0", "top-k-negative", "n-instances-0",
             "n-instances-negative", "pattern-name", "class-int",
             "year-range-short", "year-range-long", "n-patents-float", "widths-float",
             "head-widths-missing-horizon", "method-int", "horizon-int", "learning-rate-nan",
             "weight-nan", "dropout-nan", "exponent-inf",
             "signal-nan", "external-citations-nan"],
    )
    def test_bad_block_value(self, tmp_path, block, settings, message):
        with pytest.raises(ConfigError, match=message):
            config_from_obj(base_config_obj(tmp_path, **{block: settings}))

    @pytest.mark.parametrize(
        "text",
        ['{"seed": ' + "1" * 5000 + "}", "[" * 100000, b'{"out_dir": "\xff"}'],
        ids=["past-the-digit-limit", "deep-nesting", "not-utf-8"],
    )
    def test_unparseable_config_file(self, tmp_path, text):
        path = tmp_path / "config.json"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        with pytest.raises(ConfigError, match="malformed config JSON"):
            load_config(path)

    def test_load_config_resolves_relative_paths(self, tmp_path):
        (tmp_path / "out").mkdir()
        obj = base_config_obj(Path("out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        cfg = load_config(path)
        assert cfg.out_dir == tmp_path / "out"


# A config with every field of every block, with a grid over every
# hyperparameter; out_dir "." is the directory the config is read from.
_FULL_CONFIG = {
    "schema": "patimpact-config/1", "seed": 7, "out_dir": ".",
    "synth": {
        "n_patents": 400, "year_range": [1997, 2010], "citation_attachment_exponent": 0.5,
        "feature_signal_strength": 2.0, "mean_internal_citations": 4.0,
        "mean_external_citations": 1.5,
    },
    "domain_ipc_prefix": "H01M", "home_country": "US", "threshold_mode": "fixed",
    "test_year": 2010,
    "network": {
        "shared_layer_widths": [16, 8],
        "task_head_widths": {"short": [8], "mid": [8], "long": [4]},
        "shared_dropout_rate": 0.25,
    },
    "train": {
        "learning_rate": 0.01, "batch_size": 8, "max_epochs": 3, "early_stop_patience": 2,
        "task_loss_weights": {"short": 1.0, "mid": 0.5, "long": 2.0},
        "validation_fraction": 0.2, "optimizer": "sgd", "class_weighting": True,
    },
    "grid": {
        "space": {
            "shared_layer_widths": [[16]],
            "task_head_widths": [{"short": [8], "mid": [8], "long": [4]}],
            "shared_dropout_rate": [0.1], "learning_rate": [1e-3], "batch_size": [16],
            "max_epochs": [2], "early_stop_patience": [1],
            "task_loss_weights": [{"short": 1.0, "mid": 1.0, "long": 1.0}],
            "validation_fraction": [0.2], "optimizer": ["adam"], "class_weighting": [False],
        },
        "k": 2,
    },
    "compare_stl": True,
    "explain": {
        "n_instances": 2, "n_permutations": 9, "background_size": 7, "top_k": 3,
        "target_class": "VT", "filter_pattern": "sustained",
    },
    "validation": {
        "method": "permutation", "n_permutations": 99, "group_by": "actual", "scope": "test",
    },
    "topic": {"horizon": "mid", "group_by": "predicted"},
}


class TestArbitraryConfigValues:
    """A config with any JSON value at any field loads or is a ConfigError."""

    def test_full_config_loads(self):
        cfg = config_from_obj(_FULL_CONFIG, base_dir=Path(__file__).parent)
        assert set(cfg.grid.space) == set(mtl.HYPERPARAMETERS)

    @settings(max_examples=400, deadline=None)
    @given(
        path=st.sampled_from([*_field_paths(_FULL_CONFIG), ("corpus_path",)]),
        value=_json_values,
    )
    def test_loads_or_raises_config_error(self, path, value):
        obj = json.loads(json.dumps(_FULL_CONFIG))
        if path:
            *parents, last = path
            target = obj
            for key in parents:
                target = target[key]
            target[last] = value
        else:
            obj = value
        try:
            config_from_obj(obj, base_dir=Path(__file__).parent)
        except ConfigError:
            pass


@pytest.fixture(scope="module")
def small_checkpoint(tmp_path_factory):
    """The directory of a small checkpoint's file, and the checkpoint's JSON
    object: a 44-input network, a fitted standardizer and two epochs of history."""
    model = mtl.init_network(mtl.NetworkConfig(
        shared_layer_widths=(4,), task_head_widths={h: (2,) for h in HORIZONS}, seed=3,
    ))
    model.standardizer = fit_standardizer(np.random.default_rng(3).normal(size=(20, N_FEATURES)))
    losses = {h: 0.5 for h in HORIZONS}
    model.history = [mtl.EpochStats(e, 1.5, 2.0, losses, losses) for e in (1, 2)]
    out = tmp_path_factory.mktemp("checkpoint")
    mtl.save_checkpoint(out / "model.ckpt.json", model)
    return out, json.loads((out / "model.ckpt.json").read_text())


class TestArbitraryCheckpointValues:
    """A checkpoint with any JSON value at any field of its network, history,
    parameters or standardizer reads as a model whose parameters are all
    finite and whose standardizer maps a finite row to finite values, or is a
    StageError."""

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), value=_json_values)
    def test_reads_or_raises_stage_error(self, small_checkpoint, data, value):
        out, saved = small_checkpoint
        path = data.draw(st.sampled_from([
            (key, *path) for key in ("network", "history", "parameters", "standardizer")
            for path in _field_paths(saved[key])
        ]))
        obj = json.loads(json.dumps(saved))
        *parents, last = path
        target = obj
        for key in parents:
            target = target[key]
        target[last] = value
        (out / "model.ckpt.json").write_text(json.dumps(obj))
        try:
            model = RunContext(pipeline.PipelineConfig(out_dir=out)).read("model.ckpt.json")
        except StageError as exc:
            assert "cannot parse model.ckpt.json" in str(exc)
            return
        assert np.isfinite(model.flat).all()
        # the row of its own means is finite once read, and a NaN or non-positive
        # std, or a mean that is not a number, would not map it to finite values
        std = model.standardizer
        assert np.isfinite(std.transform(std.mean)).all()

class TestArtifactIO:
    def test_write_csv_cell_rule(self, tmp_path):
        path = tmp_path / "t.csv"
        cells = [
            0.1, np.float64(0.1), np.float32(0.1), math.nan, -math.inf, -0.0, 1e16, 1e-05,
            np.float64(1e-05), 7, np.int64(8), None, "a,b",
        ]
        write_csv(path, ["x"] * len(cells), [cells])
        assert path.read_bytes().split(b"\r\n")[1] == (
            b'0.1,0.1,0.10000000149011612,nan,-inf,-0.0,1e+16,1e-05,1e-05,7,8,,"a,b"'
        )
        write_csv(path, ["x", "y"], [[0.5, None], [1, 2.0]], lineterminator="\n")
        assert path.read_bytes() == b"x,y\n0.5,\n1,2.0\n"

    def test_table_headers_and_line_ends(self, completed_run):
        cfg, _ = completed_run
        headers = {
            "features.csv": "patent_id," + ",".join(FEATURE_NAMES),
            "metrics.csv": "horizon,class,metric,value",
            "comparison.csv": "horizon,class,metric,value,delta_vs_reference",
            "summary_long_BT.csv": "instance_id,group,feature_value,phi",
            "topic_scores.csv": "topic,year,n_patents,score",
            "training_log.csv": (
                "epoch,train_loss_total,val_loss_total,"
                "train_loss_short,train_loss_mid,train_loss_long,"
                "val_loss_short,val_loss_mid,val_loss_long"
            ),
        }
        for name, header in headers.items():
            data = cfg.path(name).read_bytes()
            # the training log alone ends its lines with LF
            end = b"\n" if name == "training_log.csv" else b"\r\n"
            assert data.startswith(header.encode() + end), name
            assert data.count(b"\n") == data.count(end), name


class TestRunPipeline:
    def test_manifest_inventories_every_stage(self, completed_run):
        cfg, manifest = completed_run
        assert [s.name for s in manifest.stages] == pipeline_stage_names(cfg)
        assert manifest.error is None
        for stage in manifest.stages:
            for output in stage.outputs:
                path = cfg.path(output["path"])
                assert path.exists()
                digest = hashlib.sha256(path.read_bytes()).hexdigest()
                assert digest == output["sha256"]

    def test_expected_artifacts_present(self, completed_run):
        cfg, _ = completed_run
        expected = [
            "corpus.jsonl", "thresholds.json", "labels.csv", "features.csv",
            "split.json", "model.ckpt.json", "training_log.csv",
            "stl_short.ckpt.json", "stl_mid.ckpt.json", "stl_long.ckpt.json",
            "predictions.csv", "metrics.csv", "metrics.json", "comparison.csv",
            "attributions.csv",
            "summary_short_BT.svg", "summary_mid_BT.svg", "summary_long_BT.svg",
            "summary_short_BT.csv", "summary_mid_BT.csv", "summary_long_BT.csv",
            "validation.csv", "topic_scores.csv", "topic_scores.json",
            "report.md", "manifest.json",
        ]
        for name in expected:
            assert cfg.path(name).exists(), name
        # the checkpoint holds the standardizer; no stage writes it separately
        assert not cfg.path("standardizer.json").exists()

    def test_readme_outputs_list_every_file_a_run_writes(self, completed_run):
        _, manifest = completed_run
        written = {F_MANIFEST} | {
            output["path"] for stage in manifest.stages for output in stage.outputs
        }
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("### Outputs", 1)[1].split("\n\n")[1]
        patterns = {}
        for name in re.findall(r"`([^`]+)`", section):
            # `stl_*.ckpt.json` and `summary_<horizon>_<class>.csv/.svg` name families
            stem, _, alt = name.partition("/.")
            for listed in (stem, stem.rsplit(".", 1)[0] + "." + alt) if alt else (stem,):
                regex = re.escape(listed).replace(r"\*", r"[a-z]+")
                patterns[listed] = re.sub(r"<[a-z]+>", r"[A-Za-z]+", regex)
        unlisted = [f for f in written if not any(re.fullmatch(p, f) for p in patterns.values())]
        assert unlisted == []
        unwritten = [n for n, p in patterns.items() if not any(re.fullmatch(p, f) for f in written)]
        assert unwritten == []

    def test_readme_outputs_give_the_writer_of_every_artifact(self):
        table = _readme_artifact_table()
        assert list(table) == list(ARTIFACTS)
        assert {name: writer for name, (writer, _) in table.items()} == {
            name: artifact.producer for name, artifact in ARTIFACTS.items()
        }

    def test_readme_cli_lists_every_subcommand_and_flag(self, tmp_path):
        grid = {"space": {"learning_rate": [1e-3]}}
        with_grid = config_from_obj(base_config_obj(tmp_path, grid=grid))
        without_grid = config_from_obj(base_config_obj(tmp_path))
        expected = {}
        for name, spec in pipeline.STAGE_SPECS.items():
            in_run = {(True, True): "always", (True, False): "with a `grid`",
                      (False, False): "never"}[spec.in_run(with_grid), spec.in_run(without_grid)]
            for command, _, _ in spec.commands:
                expected[command] = (name, in_run, [(f, t) for f, t, _ in spec.flags])
        table = _readme_cli_table()
        assert list(table) == list(expected)
        assert table == expected

    def test_readme_library_use_runs(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        section = readme.split("## Library use", 1)[1]
        code = section.split("```python\n", 1)[1].split("```", 1)[0]
        namespace: dict = {}
        exec(compile(code, "README.md", "exec"), namespace)
        classes, n = namespace["classes"], len(namespace["ids"])
        assert list(classes) == list(HORIZONS)
        for preds in classes.values():
            assert preds.shape == (n,) and set(preds.tolist()) <= {0, 1, 2}

    def test_manifest_json_well_formed(self, completed_run):
        cfg, _ = completed_run
        obj = json.loads(cfg.path(F_MANIFEST).read_text())
        assert obj["schema"] == "patimpact-manifest/1"
        assert obj["config_hash"] == cfg.config_hash()
        assert obj["error"] is None

    def test_label_distribution_sensible(self, completed_run):
        cfg, _ = completed_run
        with open(cfg.path("labels.csv")) as fh:
            rows = list(csv.DictReader(fh))
        assert rows
        for key in ("short_class", "mid_class", "long_class"):
            shares = {
                c: sum(1 for r in rows if r[key] == c) / len(rows)
                for c in ("MT", "VT", "BT")
            }
            assert shares["MT"] > 0.5
            assert shares["BT"] < 0.15

    def test_evaluate_rerun_byte_identical(self, completed_run):
        cfg, _ = completed_run
        before = cfg.path("metrics.csv").read_bytes()
        stage_evaluate(cfg)
        assert cfg.path("metrics.csv").read_bytes() == before

    def test_report_contains_sections(self, completed_run):
        cfg, _ = completed_run
        text = cfg.path("report.md").read_text()
        for heading in (
            "# Technology impact analysis report",
            "## Impact classes",
            "## Test-set performance",
            "## Single-task ablation",
            "## Ordered-trend validation",
            "## Topic impact scores",
        ):
            assert heading in text

    def test_report_ranks_tied_groups_by_name(self, completed_run, tmp_path):
        cfg, _ = completed_run
        for name in ("thresholds.json", "labels.csv", "metrics.csv", "split.json"):
            shutil.copy(cfg.path(name), tmp_path / name)
        # mean |phi|: y 0.5, then x and z tied at 0.25
        phis = {"z": (0.25, -0.25), "y": (0.5, -0.5), "x": (-0.25, 0.25)}
        lines = ["instance_id,group,feature_value,phi,std_err,base_value,model_output,horizon,class"]
        for i in range(2):
            for group, phi in phis.items():
                lines.append(f"p{i},{group},0.0,{phi[i]!r},0.0,0.5,0.5,mid,BT")
        (tmp_path / "attributions.csv").write_text("\n".join(lines) + "\n")
        stage_report(config_from_obj(base_config_obj(tmp_path)))
        report = (tmp_path / "report.md").read_text()
        assert "- **mid-term**: y (0.5000), x (0.2500), z (0.2500)" in report

    def test_stage_failure_writes_partial_manifest(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        obj = base_config_obj(out)
        del obj["synth"]
        obj["corpus_path"] = str(tmp_path / "missing.jsonl")
        cfg = config_from_obj(obj)
        with pytest.raises(StageError):
            run_pipeline(cfg)
        manifest = json.loads((out / F_MANIFEST).read_text())
        assert manifest["error"] is not None
        assert manifest["stages"] == []

    def test_report_lists_missing_inputs(self, tmp_path):
        out = tmp_path / "empty"
        out.mkdir()
        cfg = config_from_obj(base_config_obj(out))
        with pytest.raises(StageError) as exc_info:
            stage_report(cfg)
        message = str(exc_info.value)
        for name in ("thresholds.json", "labels.csv", "metrics.csv"):
            assert name in message


class TestValidateStage:
    def test_permutation_p_values_match_loop_oracle(self, completed_run, tmp_path):
        cfg, _ = completed_run
        for name in ("corpus.jsonl", "predictions.csv"):
            shutil.copy(cfg.path(name), tmp_path / name)
        obj = base_config_obj(
            tmp_path, validation={"method": "permutation", "n_permutations": 2000}
        )
        STAGES["validate"](config_from_obj(obj))

        corpus = load_corpus(tmp_path / "corpus.jsonl", "H01M")
        with open(tmp_path / "predictions.csv") as fh:
            predictions = list(csv.DictReader(fh))
        with open(tmp_path / "validation.csv") as fh:
            written = {(r["horizon"], r["indicator"]): r for r in csv.DictReader(fh)}
        assert len(written) == len(HORIZONS) * len(VALUE_INDICATORS)
        for h in HORIZONS:
            members = {c: [] for c in CLASS_ORDER}
            for row in predictions:
                post_hoc = corpus.get(row["patent_id"]).post_hoc
                if post_hoc is not None:
                    members[ImpactClass.from_name(row[f"{h.key}_predicted"])].append(post_hoc)
            seed = derive_seed(derive_seed(7, "validate"), h.key)
            for indicator in VALUE_INDICATORS:
                groups = OrderedGroups(tuple(
                    np.array([float(getattr(ph, indicator)) for ph in members[c]])
                    for c in CLASS_ORDER
                ))
                row = written[(h.key, indicator)]
                assert row["method"] == "permutation"
                assert row["p_value"] == repr(loop_permutation_p(groups, seed, 2000))


class TestStageWiring:
    """Oracles for the rows, seeds and counts that evaluate, explain and
    report take: each recomputes part of a finished run's artifact from the
    files that the stage reads, and compares it with the artifact as text."""

    @staticmethod
    def _feature_rows(cfg, ids: list[str]) -> np.ndarray:
        row_of = {r["patent_id"]: r for r in _records(cfg.path("features.csv"))}
        return np.array([[float(row_of[pid][name]) for name in FEATURE_NAMES] for pid in ids])

    _COLUMNS = ["group", "phi", "std_err", "base_value", "model_output", "horizon", "class"]

    def _recomputed(self, cfg, train_ids, pid, background_size) -> list[list[str]]:
        """The `_COLUMNS` of explained patent ``pid``'s attributions.csv rows,
        recomputed from the files explain reads, with the standardized rows of
        ``train_ids`` as the pool and ``background_size`` as the draw size."""
        model = mtl.load_checkpoint(cfg.path("model.ckpt.json"))
        std = model.standardizer
        (x,) = self._feature_rows(cfg, [pid])
        targets = [
            explain_mod.AttributionTarget(h, cfg.explain.target_class) for h in HORIZONS
        ]
        grouping = explain_mod.default_grouping()
        rows = explain_mod.shapley_sampled(
            model, std.transform(x),
            explain_mod.BackgroundSet(std.transform(self._feature_rows(cfg, train_ids))),
            targets, grouping, cfg.explain.n_permutations,
            derive_seed(cfg.stage_seed("explain"), "shapley", pid), pid, x, background_size,
        )
        return [
            [
                group, repr(float(row.phi[gi])), repr(float(row.std_err[gi])),
                repr(row.base_value), repr(row.model_output), target.horizon.key,
                target.impact_class.name,
            ]
            for target, row in zip(targets, rows)
            for gi, group in enumerate(grouping.names)
        ]

    def test_comparison_scores_the_single_task_models_on_the_test_rows(self, completed_run):
        cfg, _ = completed_run
        test_ids = json.loads(cfg.path("split.json").read_text())["test_ids"]
        labels = {r["patent_id"]: r for r in _records(cfg.path("labels.csv"))}
        reference = {
            (r["horizon"], r["class"], r["metric"]): float(r["value"])
            for r in _records(cfg.path("metrics.csv"))
        }
        X = self._feature_rows(cfg, test_ids)
        expected = []
        for h in HORIZONS:
            stl = mtl.load_checkpoint(cfg.path(f"stl_{h.key}.ckpt.json"))
            cm = confusion_from_predictions(
                [ImpactClass.from_name(labels[pid][f"{h.key}_class"]) for pid in test_ids],
                mtl.predict_batch(stl, stl.standardizer.transform(X))[h],
            )
            scores = {c.name: (c.name, class_metrics(cm, c)) for c in CLASS_ORDER}
            scores["overall"] = ("overall_macro", overall_metrics(cm).macro)
            for cls, (reference_cls, scored) in scores.items():
                for metric, value in scored._asdict().items():
                    delta = value - reference[(h.key, reference_cls, metric)]
                    expected.append([h.key, cls, metric, repr(value), repr(delta)])
        with open(cfg.path("comparison.csv"), newline="") as fh:
            assert list(csv.reader(fh))[1:] == expected

    def test_attributions_explain_test_patents_against_a_training_background(
        self, completed_run
    ):
        cfg, _ = completed_run
        split = json.loads(cfg.path("split.json").read_text())
        written = _records(cfg.path("attributions.csv"))
        explained = list(dict.fromkeys(r["instance_id"] for r in written))
        assert set(explained) <= set(split["test_ids"])
        assert len(explained) == min(cfg.explain.n_instances, len(split["test_ids"]))

        # the pool is the whole training split; each permutation draws
        # background_size of its rows
        assert len(split["train_ids"]) > cfg.explain.background_size
        pid = explained[-1]
        assert [[r[c] for c in self._COLUMNS] for r in written if r["instance_id"] == pid] == (
            self._recomputed(cfg, split["train_ids"], pid, cfg.explain.background_size)
        )

    def test_without_a_draw_the_explain_stage_uses_the_whole_training_split(
        self, completed_run, tmp_path
    ):
        cfg, _ = completed_run
        for name in ("model.ckpt.json", "split.json", "features.csv", "labels.csv",
                     "thresholds.json", "metrics.csv"):
            shutil.copy(cfg.path(name), tmp_path / name)
        train_ids = json.loads(cfg.path("split.json").read_text())["train_ids"]
        # a draw size above the training split's size draws nothing
        obj = base_config_obj(tmp_path)
        obj["explain"] = {**obj["explain"], "n_instances": 1, "background_size": len(train_ids) + 1}
        whole = config_from_obj(obj)
        STAGES["explain"](whole)
        written = _records(whole.path("attributions.csv"))
        assert [[r[c] for c in self._COLUMNS] for r in written] == (
            self._recomputed(whole, train_ids, written[0]["instance_id"], None)
        )
        STAGES["report"](whole)
        assert f", {len(train_ids)} training rows drawn per permutation;" in (
            whole.path("report.md").read_text()
        )

    def test_stanine_cuts_come_from_the_patents_with_a_full_window(
        self, completed_run, tmp_path
    ):
        cfg, _ = completed_run
        shutil.copy(cfg.path("corpus.jsonl"), tmp_path / "corpus.jsonl")
        stanine = config_from_obj(base_config_obj(tmp_path, threshold_mode="stanine"))
        ctx = RunContext(stanine)
        STAGES["label"](stanine, ctx)
        corpus = ctx.corpus
        end = corpus.max_grant_date()
        expected = {}
        for h in HORIZONS:
            full_window = [
                pid for pid, rec in corpus.records.items()
                if add_years(rec.grant_date, h.years) <= end
            ]
            cuts = stanine_thresholds(forward_citation_count(corpus, pid, h) for pid in full_window)
            expected[h.key] = {"bt_min": cuts.bt_min, "vt_min": cuts.vt_min}
        assert json.loads(stanine.path("thresholds.json").read_text()) == expected

    def test_the_test_split_is_the_test_year_and_the_training_split_the_years_before(
        self, completed_run
    ):
        cfg, _ = completed_run
        year_of = {r["patent_id"]: int(r["grant_year"]) for r in _records(cfg.path("labels.csv"))}
        last = max(year_of.values())

        def expected(test_year):
            return {
                "test_year": test_year,
                "train_ids": [pid for pid, year in year_of.items() if year < test_year],
                "test_ids": [pid for pid, year in year_of.items() if year == test_year],
            }

        # the default test year is the last grant year
        assert json.loads(cfg.path("split.json").read_text()) == expected(last)
        # a year earlier, later patents exist and belong to neither split
        earlier = config_from_obj(base_config_obj(cfg.out_dir, test_year=last - 1))
        train_ids, test_ids, test_year = pipeline._temporal_split(RunContext(earlier))
        assert {"test_year": test_year, "train_ids": train_ids, "test_ids": test_ids} == (
            expected(last - 1)
        )

    def test_report_opens_the_attributions_with_their_precision(self, completed_run):
        cfg, _ = completed_run
        written = _records(cfg.path("attributions.csv"))
        train_ids = json.loads(cfg.path("split.json").read_text())["train_ids"]
        mean_se = []
        for h in HORIZONS:
            std_errs = [float(r["std_err"]) for r in written if r["horizon"] == h.key]
            mean_se.append(f"{h.key} {sum(std_errs) / len(std_errs):.3g}")
        lines = cfg.path("report.md").read_text().splitlines()
        heading = lines.index("## Attribution: top indicators per horizon")
        assert lines[heading + 2] == (
            f"{cfg.explain.n_instances} test patents explained, "
            f"{cfg.explain.n_permutations} permutations each, "
            f"{min(cfg.explain.background_size, len(train_ids))} training rows drawn "
            f"per permutation; mean std_err: {', '.join(mean_se)}."
        )

    def test_report_lists_the_top_k_groups_of_each_horizon(self, completed_run):
        cfg, _ = completed_run
        phis: dict[str, dict[str, list[float]]] = {}
        for r in _records(cfg.path("attributions.csv")):
            phis.setdefault(r["horizon"], {}).setdefault(r["group"], []).append(
                abs(float(r["phi"]))
            )
        k = min(cfg.explain.top_k, explain_mod.default_grouping().n_groups)
        lines = cfg.path("report.md").read_text().splitlines()
        for h in HORIZONS:
            mean_abs = {group: sum(v) / len(v) for group, v in phis[h.key].items()}
            top = sorted(mean_abs, key=lambda group: (-mean_abs[group], group))[:k]
            listed = ", ".join(f"{group} ({mean_abs[group]:.4f})" for group in top)
            assert f"- **{h.key}-term**: {listed}" in lines


class TestDeterminismAndComposability:
    def test_rerun_and_stagewise_identical(self, tmp_path):
        cfg_obj = {
            "schema": "patimpact-config/1",
            "seed": 3,
            "synth": {"n_patents": 250, "year_range": [1996, 2011]},
            "train": {"max_epochs": 10, "class_weighting": True, "batch_size": 16},
            "explain": {"n_instances": 2, "n_permutations": 10},
            "compare_stl": False,
        }
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        cfg_a = config_from_obj({**cfg_obj, "out_dir": str(a)})
        run_pipeline(cfg_a)
        first = checksums(a)
        # in-place rerun
        run_pipeline(cfg_a)
        assert checksums(a) == first
        # stage-by-stage into a second directory
        cfg_b = config_from_obj({**cfg_obj, "out_dir": str(b)})
        for name in pipeline_stage_names(cfg_b):
            STAGES[name](cfg_b)
        assert checksums(b) == first

    def test_ingest_run_and_stagewise_identical(self, tmp_path, synth_corpus_small):
        # an input out of id order, holding the fields a reload could read differently:
        # an empty party name, citations without in_domain, and an empty cited_id
        # (an empty id is a CorpusError, so no patent can be the one it names)
        objs = [record_to_json_obj(rec) for rec in reversed(synth_corpus_small.records.values())]
        objs[0]["assignees"][0]["name"] = ""
        citer = sorted(objs, key=lambda o: o["grant_date"])[len(objs) // 10]
        citer["backward_citations"].append(
            {"country": "US", "filing_date": citer["filing_date"], "cited_id": ""}
        )
        for obj in objs:
            for citation in obj["backward_citations"]:
                citation.pop("in_domain", None)
        source = tmp_path / "source.jsonl"
        source.write_text("".join(json.dumps(obj) + "\n" for obj in objs))
        cfg_obj = {
            "schema": "patimpact-config/1",
            "seed": 3,
            "corpus_path": str(source),
            "train": {"max_epochs": 10, "class_weighting": True, "batch_size": 16},
            "explain": {"n_instances": 2, "n_permutations": 10},
            "compare_stl": False,
        }
        a = tmp_path / "a"
        b = tmp_path / "b"
        a.mkdir()
        b.mkdir()
        run_pipeline(config_from_obj({**cfg_obj, "out_dir": str(a)}))
        cfg_b = config_from_obj({**cfg_obj, "out_dir": str(b)})
        ctx = RunContext(cfg_b)
        STAGES["corpus"](cfg_b, ctx)
        assert ctx.corpus == load_corpus(cfg_b.path("corpus.jsonl"), "H01M")
        for name in pipeline_stage_names(cfg_b)[1:]:
            STAGES[name](cfg_b)
        assert checksums(b) == checksums(a)


class TestRunContext:
    def test_corpus_parsed_only_from_input_or_by_a_lone_stage(self, tmp_path, monkeypatch):
        paths = []
        real_load = corpus_mod.load_corpus

        def counting_load(path, *args, **kwargs):
            paths.append(Path(path).name)
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(corpus_mod, "load_corpus", counting_load)
        synth_dir, ingest_dir = tmp_path / "synth", tmp_path / "ingest"
        synth_dir.mkdir()
        ingest_dir.mkdir()
        obj = base_config_obj(
            synth_dir,
            synth={"n_patents": 250, "year_range": [1996, 2011]},
            compare_stl=False,
        )
        obj["train"] = {"max_epochs": 3, "class_weighting": True, "batch_size": 16}
        cfg = config_from_obj(obj)
        run_pipeline(cfg)
        # the corpus stage hands its records on
        assert paths == []

        shutil.copy(cfg.path("corpus.jsonl"), tmp_path / "source.jsonl")
        del obj["synth"]
        run_pipeline(config_from_obj(
            {**obj, "out_dir": str(ingest_dir), "corpus_path": str(tmp_path / "source.jsonl")}
        ))
        assert paths == ["source.jsonl"]

        paths.clear()
        STAGES["features"](cfg)
        assert paths == ["corpus.jsonl"]

    @pytest.mark.parametrize("variant", list(FINISHED_RUN_OVERRIDES))
    def test_a_run_opens_its_artifacts_only_to_hash_them(self, finished_run_records, variant):
        obj, opens, _ = finished_run_records[variant]
        manifest = json.loads((Path(obj["out_dir"]) / F_MANIFEST).read_text())
        outputs = [o["path"] for stage in manifest["stages"] for o in stage["outputs"]]
        # every stage's writer hands its value on, so no stage parses a file;
        # the manifest hashes each output once
        assert [(n, via) for n, writes, via in opens if not writes] == [
            (n, "hash") for n in outputs
        ]

    def test_later_stages_alone_write_what_the_run_wrote(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 1)
        cfg = config_from_obj(base_config_obj(tmp_path))
        run_pipeline(cfg)
        # each later stage, parsing the checkpoints and the other artifacts
        # alone, writes the same bytes as the run that kept them
        digests = checksums(tmp_path)
        names = pipeline_stage_names(cfg)
        for name in names[names.index("train") + 1:]:
            STAGES[name](cfg)
        assert checksums(tmp_path) == digests

    @pytest.mark.parametrize("variant", [*FINISHED_RUN_OVERRIDES, "planted-values"])
    def test_parsing_an_artifact_gives_what_its_writer_kept(
        self, finished_run_records, tmp_path, monkeypatch, variant
    ):
        if variant == "planted-values":
            _cpus(monkeypatch, 1)
            extract = pipeline.ind.extract_feature_matrix

            def with_planted_values(*args, **kwargs):
                matrix = extract(*args, **kwargs)
                # a signed zero, the smallest subnormal, the largest double and a
                # sum whose shortest repr has 17 digits
                matrix[0, :4] = [-0.0, 5e-324, -1.7976931348623157e308, 0.1 + 0.2]
                return matrix

            monkeypatch.setattr(pipeline.ind, "extract_feature_matrix", with_planted_values)
            monkeypatch.setattr(pipeline, "RunContext", _KeptContext)
            obj = base_config_obj(tmp_path)
            obj["train"] = {"max_epochs": 3, "class_weighting": True, "batch_size": 8}
            # the largest double overflows its column's variance
            with np.errstate(over="ignore"):
                run_pipeline(config_from_obj(obj))
            ctx = _KeptContext.last
            assert np.signbit(ctx.read("features.csv")[1][0, 0])
        else:
            obj, _, ctx = finished_run_records[variant]
        cfg = config_from_obj(obj)
        written = [name for name in ARTIFACTS if cfg.path(name).exists()]
        assert sorted(ctx._kept) == sorted(written)
        for name in written:
            _assert_same(ctx._kept[name], RunContext(cfg).read(name), name)

    @settings(max_examples=30, deadline=None)
    @given(corpus=_hand_built_corpora() | _synthetic_corpora, data=st.data())
    def test_corpus_stage_passes_on_what_load_corpus_reads_back(self, corpus, data):
        ids = data.draw(st.permutations(list(corpus.records)), label="insertion order")
        shuffled = Corpus({pid: corpus.records[pid] for pid in ids}, corpus.domain_ipc_prefix)
        ingest = data.draw(st.booleans(), label="ingest")
        with tempfile.TemporaryDirectory() as tmp, mock.patch.object(
            pipeline, "generate_synthetic", lambda params: shuffled
        ):
            out = Path(tmp)
            obj = base_config_obj(out)
            if ingest:
                source = out / "source.jsonl"
                source.write_text("".join(
                    json.dumps(record_to_json_obj(rec)) + "\n"
                    for rec in shuffled.records.values()
                ))
                del obj["synth"]
                obj["corpus_path"] = str(source)
            cfg = config_from_obj(obj)
            ctx = RunContext(cfg)
            STAGES["corpus"](cfg, ctx)
            loaded = load_corpus(cfg.path("corpus.jsonl"), cfg.domain_ipc_prefix)
            assert ctx.corpus == loaded
            assert list(ctx.corpus.records) == list(loaded.records)

    @pytest.mark.parametrize("variant", list(FINISHED_RUN_OVERRIDES))
    def test_each_artifact_is_read_once_and_only_by_the_context(
        self, finished_runs, variant, monkeypatch
    ):
        _cpus(monkeypatch, 1)
        cfg = config_from_obj(finished_runs[variant])
        readers = {name: stages for name, (_, stages) in _readme_artifact_table().items()}
        assert len(STAGES) == 11
        for name in STAGES:
            kwargs = {"k": 2} if name == "cv" else {}
            if name == "gridsearch" and cfg.grid is None:
                with pytest.raises(StageError, match="no grid.space"):
                    _audited(lambda: STAGES[name](cfg), cfg.out_dir)
                assert _AUDIT["opens"] == [], name
                continue
            outputs, opens = _audited(lambda: STAGES[name](cfg, **kwargs), cfg.out_dir)
            reads = [(n, via) for n, writes, via in opens if not writes]
            assert all(via == "read" for _, via in reads), (name, reads)
            counts = Counter(n for n, _ in reads)
            assert max(counts.values(), default=1) == 1, (name, counts)
            # README's Outputs table lists the stage among the file's readers
            assert all(name in readers[n] for n in counts), (name, counts)
            assert {n for n, writes, _ in opens if writes} == set(outputs), name

    @pytest.mark.parametrize(
        "stage, overrides, message",
        [
            ("cv", {"test_year": 1990}, "temporal split at 1990"),
            (
                "gridsearch",
                {"test_year": 1990, "grid": {"space": {"learning_rate": [1e-3]}}},
                "temporal split at 1990",
            ),
            ("cv", {"grid": {"space": {"learning_rate": [1e-3]}}}, "run gridsearch"),
        ],
        ids=["cv-empty-split", "gridsearch-empty-split", "cv-without-best-config"],
    )
    def test_shared_helpers_name_the_running_stage(
        self, completed_run, tmp_path, stage, overrides, message
    ):
        cfg, _ = completed_run
        for name in ("labels.csv", "features.csv"):
            shutil.copy(cfg.path(name), tmp_path / name)
        cfg = config_from_obj(base_config_obj(tmp_path, **overrides))
        with pytest.raises(StageError) as exc_info:
            STAGES[stage](cfg, **({"k": 2} if stage == "cv" else {}))
        assert exc_info.value.stage == stage
        assert message in str(exc_info.value)


def _assert_same(kept, parsed, where: str) -> None:
    """Assert that ``kept`` equals ``parsed``, with floats and arrays compared
    bit for bit; ``where`` names the part compared."""
    assert type(kept) is type(parsed), where
    if isinstance(kept, np.ndarray):
        assert (kept.dtype, kept.shape) == (parsed.dtype, parsed.shape), where
        assert kept.tobytes() == parsed.tobytes(), where
    elif isinstance(kept, float):
        assert struct.pack("<d", kept) == struct.pack("<d", parsed), where
    elif isinstance(kept, dict):
        # a map keyed by horizon has no order; the order of any other is part of its value
        if not all(isinstance(key, Horizon) for key in kept):
            assert list(kept) == list(parsed), where
        assert kept.keys() == parsed.keys(), where
        for key in kept:
            _assert_same(kept[key], parsed[key], f"{where}[{key!r}]")
    elif isinstance(kept, (list, tuple)):
        assert len(kept) == len(parsed), where
        for i, (a, b) in enumerate(zip(kept, parsed)):
            _assert_same(a, b, f"{where}[{i}]")
    elif dataclasses.is_dataclass(kept):
        for f in dataclasses.fields(kept):
            _assert_same(getattr(kept, f.name), getattr(parsed, f.name), f"{where}.{f.name}")
    else:
        assert kept == parsed, where


# each table a stage reads, and a CLI command whose stage reads it first or
# after tables that stay whole
_TABLE_READERS = {
    "labels.csv": "features",
    "features.csv": "train",
    "predictions.csv": "jt-test",
    **dict.fromkeys(
        ["metrics.csv", "comparison.csv", "attributions.csv", "validation.csv",
         "topic_scores.csv"],
        "report",
    ),
}


@pytest.fixture(scope="module")
def cut_run_config(finished_runs, tmp_path_factory):
    """The config file of a copy of the finished grid run, whose tables a test may cut."""
    obj = finished_runs["grid"]
    work = tmp_path_factory.mktemp("cut")
    shutil.copytree(obj["out_dir"], work / "out")
    config = work / "config.json"
    config.write_text(json.dumps({**obj, "out_dir": str(work / "out")}))
    return str(config)


def _cpus(monkeypatch, n: int) -> None:
    """Make this process's affinity mask hold ``n`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


class TestWorkerPool:
    def test_bytes_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        in_process = []
        for name, module in (("train", mtl), ("shapley_sampled", explain_mod)):
            real = getattr(module, name)

            # named as the function it replaces, so that a pool pickles it by
            # that name and its workers run the real function
            @functools.wraps(real)
            def counted(*a, real=real, name=name, **kw):
                in_process.append(name)
                return real(*a, **kw)

            monkeypatch.setattr(module, name, counted)
        digests, calls = {}, {}
        for workers in (1, 2):
            _cpus(monkeypatch, workers)
            in_process.clear()
            out = tmp_path / f"workers-{workers}"
            out.mkdir()
            # 300 patents, the multi-task and three single-task models, 3 instances
            run_pipeline(config_from_obj(base_config_obj(out)))
            digests[workers], calls[workers] = checksums(out), sorted(in_process)
        assert len(digests[1]) == 25
        assert digests[2] == digests[1]
        # one process trains 4 models and explains 3 instances; a pool leaves none to it
        assert calls == {1: ["shapley_sampled"] * 3 + ["train"] * 4, 2: []}

    def test_training_summary_does_not_depend_on_the_worker_count(self, tmp_path, monkeypatch):
        diagnostics = {}
        for workers in (1, 2):
            _cpus(monkeypatch, workers)
            out = tmp_path / f"workers-{workers}"
            out.mkdir()
            run_pipeline(config_from_obj(base_config_obj(out)))
            stages = json.loads((out / F_MANIFEST).read_text())["stages"]
            diagnostics[workers] = {stage["name"]: stage["diagnostics"] for stage in stages}
        assert diagnostics[2] == diagnostics[1]
        training = diagnostics[1].pop("train")["training"]
        assert all(d == {} for d in diagnostics[1].values())
        checkpoints = ["model.ckpt.json", *(f"stl_{h.key}.ckpt.json" for h in HORIZONS)]
        assert sorted(training) == sorted(checkpoints)
        # the multi-task model's summary from the log; every model's from its checkpoint
        val = [float(r["val_loss_total"]) for r in _records(out / "training_log.csv")]
        assert training["model.ckpt.json"]["best_epoch"] == int(np.argmin(val))
        assert training["model.ckpt.json"]["epochs_run"] == len(val)
        for name in checkpoints:
            val = [e.val_loss_total for e in mtl.load_checkpoint(out / name).history]
            # base_config_obj trains at most 20 epochs
            assert training[name] == {
                "epochs_run": len(val), "best_epoch": int(np.argmin(val)),
                "stopped_early": len(val) < 20,
            }

    def test_kfold_bytes_do_not_depend_on_the_worker_count(
        self, completed_run, tmp_path, monkeypatch
    ):
        in_process = []
        real_train = mtl.train
        monkeypatch.setattr(
            mtl, "train", lambda *a, **kw: (in_process.append(1), real_train(*a, **kw))[1]
        )
        run_cfg, _ = completed_run
        digests, calls = {}, {}
        for workers in (1, 2):
            _cpus(monkeypatch, workers)
            in_process.clear()
            out = tmp_path / f"workers-{workers}"
            out.mkdir()
            for name in ("labels.csv", "features.csv"):
                shutil.copy(run_cfg.path(name), out / name)
            obj = base_config_obj(
                out, grid={"space": {"learning_rate": [1e-3, 3e-4], "batch_size": [8, 16]}, "k": 2}
            )
            obj["train"] = {"max_epochs": 3, "class_weighting": True}
            cfg = config_from_obj(obj)
            ctx = RunContext(cfg)
            try:
                STAGES["gridsearch"](cfg, ctx)
                STAGES["cv"](cfg, ctx, k=2)
            finally:
                ctx.close()
            digests[workers], calls[workers] = checksums(out), len(in_process)
        assert set(digests[1]) == {
            "labels.csv", "features.csv", "gridsearch.csv", "best_config.json", "cv_metrics.csv",
        }
        assert digests[2] == digests[1]
        # 4 cells of 2 folds, then 2 cv folds; a pool leaves none to this process
        assert calls == {1: 10, 2: 0}

    def test_worker_count_is_capped_by_the_units(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 10_000)
        assert [pipeline._worker_count(n) for n in (0, 1, 7)] == [0, 1, 7]
        ctx = RunContext(config_from_obj(base_config_obj(tmp_path)))
        # one unit runs in process, whatever the CPU count
        assert ctx.map(os.getpid, [()]) == [os.getpid()]
        assert ctx._pool is None
        assert multiprocessing.active_children() == []

    def test_a_worker_that_dies_is_a_stage_error(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 2)
        ctx = RunContext(config_from_obj(base_config_obj(tmp_path)))
        ctx.stage = "explain"
        raised = []

        def run_units():
            try:
                ctx.map(os._exit, [(1,), (1,)])
            except StageError as exc:
                raised.append(exc)

        thread = threading.Thread(target=run_units, daemon=True)
        thread.start()
        thread.join(timeout=60)
        try:
            assert not thread.is_alive(), "the pool hung on a dead worker"
            assert len(raised) == 1
            assert raised[0].stage == "explain"
            assert "worker process died" in str(raised[0])
            assert ctx._pool is None
        finally:
            ctx.close()

    def test_workers_run_blas_on_one_thread(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 2)
        names = ["OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"]
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "4")
        monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
        before = dict(os.environ)
        ctx = RunContext(config_from_obj(base_config_obj(tmp_path)))
        try:
            assert ctx.map(os.getenv, [(name,) for name in names]) == ["1", "1", "1"]
        finally:
            ctx.close()
        assert dict(os.environ) == before

    def test_a_pickled_model_views_its_flat_vector(self):
        model = mtl.init_network(mtl.NetworkConfig(seed=5))
        model.standardizer = fit_standardizer(np.random.default_rng(4).normal(size=(20, 44)))
        model.history = [mtl.EpochStats(0, 1.5, 1.25, {h: 0.5 for h in HORIZONS},
                                        {h: 0.25 for h in HORIZONS})]
        copy = pickle.loads(pickle.dumps(model))
        for (name, original), (_, copied) in zip(model.parameters(), copy.parameters()):
            assert np.shares_memory(copied, copy.flat), name
            np.testing.assert_array_equal(copied, original)
        assert copy.history == model.history
        assert copy.standardizer.to_json_obj() == model.standardizer.to_json_obj()
        X = np.random.default_rng(6).normal(size=(7, N_FEATURES))
        expected, got = mtl.infer_logits(model, X), mtl.infer_logits(copy, X)
        for h in HORIZONS:
            np.testing.assert_array_equal(got[h], expected[h])


class TestIngest:
    def test_ingest_normalizes_existing_corpus(self, tmp_path, synth_corpus_small):
        from patimpact.corpus import save_corpus

        src = tmp_path / "source.jsonl"
        save_corpus(synth_corpus_small, src)
        out = tmp_path / "out"
        out.mkdir()
        obj = base_config_obj(out)
        del obj["synth"]
        obj["corpus_path"] = str(src)
        cfg = config_from_obj(obj)
        STAGES["corpus"](cfg)
        assert (out / "corpus.jsonl").read_bytes() == src.read_bytes()


def _separable_run_dir(out_dir: Path, n: int = 160, seed: int = 30):
    """Write the labels.csv and features.csv of ``n`` patents in three
    well-separated blobs, one per class, with the same class at every
    horizon; the last 6 are granted in the test year. Returns the training
    rows' features and classes."""
    rng = np.random.default_rng(seed)
    classes = rng.integers(0, 3, size=n)
    X = rng.normal(0.0, 0.5, size=(n, N_FEATURES))
    X[np.arange(n), classes] += 4.0
    ids = [f"P{i:04d}" for i in range(n)]
    write_csv(
        out_dir / "labels.csv",
        ["patent_id", "grant_year", *(f"{h.key}_class" for h in HORIZONS), "trajectory"],
        (
            [pid, 2000 if i < n - 6 else 2001, *[ImpactClass(int(c)).name] * 3, "sustained"]
            for i, (pid, c) in enumerate(zip(ids, classes))
        ),
    )
    write_csv(
        out_dir / "features.csv", ["patent_id", *FEATURE_NAMES],
        ([pid, *row.tolist()] for pid, row in zip(ids, X)),
    )
    return X[: n - 6], classes[: n - 6]


class TestGridSearchStage:
    def _search(self, tmp_path, monkeypatch, space: dict, **train) -> tuple[list[dict], dict]:
        """The rows of gridsearch.csv and best_config.json of a search over
        ``space`` (k 2) on separable data."""
        _cpus(monkeypatch, 1)
        _separable_run_dir(tmp_path)
        obj = base_config_obj(tmp_path, grid={"space": space, "k": 2})
        obj["train"] = {"batch_size": 16, **train}
        STAGES["gridsearch"](config_from_obj(obj))
        with open(tmp_path / "gridsearch.csv") as fh:
            rows = list(csv.DictReader(fh))
        return rows, json.loads((tmp_path / "best_config.json").read_text())

    def test_single_cell(self, tmp_path, monkeypatch):
        rows, best = self._search(tmp_path, monkeypatch, {"learning_rate": [1e-3]}, max_epochs=3)
        assert len(rows) == 1
        assert best["train"]["learning_rate"] == 1e-3
        assert math.isfinite(best["score"])
        assert best["score"] == float(rows[0]["score"])

    def test_dominant_cell_wins(self, tmp_path, monkeypatch):
        rows, best = self._search(
            tmp_path, monkeypatch, {"learning_rate": [1e-9, 1e-3]},
            max_epochs=10, early_stop_patience=10,
        )
        slow, fast = (json.loads(r["fold_scores"]) for r in rows)
        assert all(a > b for a, b in zip(fast, slow))
        assert best["train"]["learning_rate"] == 1e-3

    def test_enumeration_count_is_product(self, tmp_path, monkeypatch):
        rows, _ = self._search(
            tmp_path, monkeypatch,
            {"learning_rate": [1e-3, 1e-4, 1e-5], "batch_size": [16, 32]}, max_epochs=1,
        )
        # keys in the order given, candidates in list order
        assert [json.loads(r["assignment"]) for r in rows] == [
            {"learning_rate": lr, "batch_size": b} for lr in (1e-3, 1e-4, 1e-5) for b in (16, 32)
        ]
        assert [r["cell"] for r in rows] == [str(i) for i in range(6)]

    def test_tie_keeps_the_first_cell(self, tmp_path, monkeypatch):
        # two epochs stop before either patience, so both cells train the same model
        rows, best = self._search(
            tmp_path, monkeypatch, {"early_stop_patience": [7, 5]}, max_epochs=2
        )
        assert rows[0]["score"] == rows[1]["score"]
        assert best["train"]["early_stop_patience"] == 7

    def test_grid_flows_into_training(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        obj = base_config_obj(
            out,
            synth={"n_patents": 250, "year_range": [1996, 2011]},
            grid={"space": {"learning_rate": [1e-3, 1e-4]}, "k": 2},
            compare_stl=False,
        )
        obj["train"] = {"max_epochs": 4, "class_weighting": True, "batch_size": 8}
        cfg = config_from_obj(obj)
        for name in ("corpus", "label", "features", "gridsearch"):
            STAGES[name](cfg)
        assert (out / "gridsearch.csv").exists()
        best = json.loads((out / "best_config.json").read_text())
        assert best["train"]["learning_rate"] in (1e-3, 1e-4)
        STAGES["train"](cfg)
        assert (out / "model.ckpt.json").exists()

    def test_grid_candidates_decoded_like_their_fields(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        widths = {"short": [8], "mid": [8], "long": [4]}
        obj = base_config_obj(
            out,
            synth={"n_patents": 250, "year_range": [1996, 2011]},
            grid={"space": {"task_head_widths": [widths], "class_weighting": [False]}, "k": 2},
            compare_stl=False,
        )
        obj["train"] = {"max_epochs": 2, "class_weighting": True, "batch_size": 8}
        cfg = config_from_obj(obj)
        assert cfg.grid.space["class_weighting"] == [False]
        for name in ("corpus", "label", "features", "gridsearch"):
            STAGES[name](cfg)
        with open(out / "gridsearch.csv") as fh:
            (cell,) = csv.DictReader(fh)
        assert json.loads(cell["assignment"]) == {
            "class_weighting": False, "task_head_widths": widths,
        }
        best = json.loads((out / "best_config.json").read_text())
        assert best["network"]["task_head_widths"] == widths
        assert best["train"]["class_weighting"] is False

    def test_train_requires_gridsearch_artifact(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        obj = base_config_obj(
            out, grid={"space": {"learning_rate": [1e-3]}, "k": 2}
        )
        cfg = config_from_obj(obj)
        for name in ("corpus", "label", "features"):
            STAGES[name](cfg)
        with pytest.raises(StageError, match="gridsearch"):
            STAGES["train"](cfg)


class TestCvStage:
    def test_cv_writes_per_fold_metrics(self, tmp_path):
        out = tmp_path / "out"
        out.mkdir()
        obj = base_config_obj(
            out,
            synth={"n_patents": 250, "year_range": [1996, 2011]},
            compare_stl=False,
        )
        obj["train"] = {"max_epochs": 4, "class_weighting": True, "batch_size": 8}
        cfg = config_from_obj(obj)
        for name in ("corpus", "label", "features"):
            STAGES[name](cfg)
        from patimpact.pipeline import stage_cv

        stage_cv(cfg, k=2)
        with open(out / "cv_metrics.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert {r["fold"] for r in rows} == {"0", "1"}

    def test_each_fold_fits_its_standardizer_on_its_training_rows(self, tmp_path, monkeypatch):
        _cpus(monkeypatch, 1)
        X, classes = _separable_run_dir(tmp_path)
        fitted = []
        real_fit = pipeline.ind.fit_standardizer
        monkeypatch.setattr(
            pipeline.ind, "fit_standardizer", lambda M: (fitted.append(M.copy()), real_fit(M))[1]
        )
        obj = base_config_obj(tmp_path, grid={"space": {"learning_rate": [1e-3, 1e-4]}, "k": 3})
        obj["train"] = {"max_epochs": 1, "batch_size": 32}
        cfg = config_from_obj(obj)
        stratify = [ImpactClass(int(c)) for c in classes]
        for stage, k, seed, n_configs in (
            ("gridsearch", 3, derive_seed(cfg.stage_seed("gridsearch"), "gridsearch", "folds"), 2),
            ("cv", 4, derive_seed(cfg.stage_seed("cv"), "folds"), 1),
        ):
            fitted.clear()
            STAGES[stage](cfg, **({"k": k} if stage == "cv" else {}))
            splits = stratified_kfold(stratify, k, seed).splits()
            expected = [X[train_idx] for _ in range(n_configs) for train_idx, _ in splits]
            assert len(fitted) == len(expected), stage
            for got, want in zip(fitted, expected):
                np.testing.assert_array_equal(got, want)


def _first_feature_set(key, value):
    """An edit of a checkpoint that sets ``key`` of its standardizer's first feature."""

    def edit(ckpt):
        ckpt["standardizer"][0][key] = value
        return ckpt

    return edit


def _first_parameter_value(value):
    """An edit of a checkpoint that sets the first value of its first parameter."""

    def edit(ckpt):
        ckpt["parameters"][0]["data"][0] = value
        return ckpt

    return edit


def _network_set(key, value):
    """An edit of a checkpoint that sets ``key`` of its network."""
    return lambda ckpt: {**ckpt, "network": {**ckpt["network"], key: value}}


class TestCli:
    def _write_config(self, tmp_path, **overrides) -> Path:
        out = tmp_path / "out"
        out.mkdir(exist_ok=True)
        obj = base_config_obj(
            out,
            synth={"n_patents": 250, "year_range": [1996, 2011]},
            compare_stl=False,
        )
        obj["train"] = {"max_epochs": 5, "class_weighting": True, "batch_size": 16}
        obj.update(overrides)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        return path

    def test_subcommands_compose(self, tmp_path):
        config = self._write_config(tmp_path)
        assert cli.main(["synth", "--config", str(config)]) == 0
        assert cli.main(["label", "--config", str(config)]) == 0
        assert cli.main(["features", "--config", str(config)]) == 0
        assert cli.main(["train", "--config", str(config)]) == 0
        assert cli.main(["evaluate", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "metrics.csv").exists()

    def test_overflowing_synth_kernel_exits_3_with_the_cause(self, tmp_path, caplog):
        config = self._write_config(
            tmp_path, synth={"n_patents": 200, "citation_attachment_exponent": 400.0}
        )
        with np.errstate(over="ignore"):
            assert cli.main(["synth", "--config", str(config)]) == 3
        assert "citation_attachment_exponent 400.0 overflows" in caplog.text

    def test_config_error_exit_code(self, tmp_path):
        assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 1
        config = self._write_config(tmp_path)
        obj = json.loads(config.read_text())
        del obj["synth"]
        config.write_text(json.dumps(obj))
        assert cli.main(["synth", "--config", str(config)]) == 1

    def test_gridsearch_without_grid_exits_1_and_writes_nothing(self, tmp_path, caplog):
        config = self._write_config(tmp_path)
        assert cli.main(["gridsearch", "--config", str(config)]) == 1
        assert "gridsearch subcommand requires grid in the config" in caplog.text
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["label", "--config", "CONFIG", "--mode", "bogus"],
             "argument --mode: invalid choice: 'bogus'"),
            (["explain", "--config", "CONFIG", "--top-k", "x"],
             "argument --top-k: invalid int value: 'x'"),
            (["corpus", "--config", "CONFIG"], "invalid choice: 'corpus'"),
            (["train"], "the following arguments are required: --config"),
        ],
        ids=["bad-choice", "bad-int", "unknown-subcommand", "missing-config"],
    )
    def test_usage_error_exits_1_with_the_argparse_message(self, tmp_path, capsys, argv, message):
        config = str(self._write_config(tmp_path))
        assert cli.main([config if arg == "CONFIG" else arg for arg in argv]) == 1
        assert message in capsys.readouterr().err
        assert list((tmp_path / "out").iterdir()) == []

    @pytest.mark.parametrize("argv", [["--help"], ["jt-test", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: patimpact")

    @pytest.mark.parametrize("folds", ["1", "0", "-3"])
    def test_cv_with_fewer_than_2_folds_exits_1(self, tmp_path, caplog, folds):
        config = self._write_config(tmp_path)
        assert cli.main(["cv", "--config", str(config), "--folds", folds]) == 1
        assert f"config error: --folds (k) must be >= 2, got {folds}" in caplog.text
        assert list((tmp_path / "out").iterdir()) == []

    def test_a_registered_stage_gets_its_subcommand_flags_and_run_place(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setattr(pipeline, "STAGES", dict(pipeline.STAGES))
        monkeypatch.setattr(pipeline, "STAGE_SPECS", dict(pipeline.STAGE_SPECS))
        calls = []

        @pipeline._stage("toy", "a toy stage", in_run=lambda cfg: cfg.seed == 8, flags=[
            ("--toy-seed", "seed", {"type": int}), ("--rounds", "n", {"type": int, "default": 1}),
        ])
        def stage_toy(ctx, n):
            calls.append((ctx.cfg.seed, n))
            ctx.write("toy.json", {"n": n})

        config = self._write_config(tmp_path)
        assert cli.main(["toy", "--config", str(config), "--toy-seed", "8", "--rounds", "3"]) == 0
        assert calls == [(8, 3)]
        assert json.loads((tmp_path / "out" / "toy.json").read_text()) == {"n": 3}
        cfg = load_config(config)
        assert "toy" not in pipeline_stage_names(cfg)
        assert pipeline_stage_names(dataclasses.replace(cfg, seed=8))[-1] == "toy"

    @pytest.mark.parametrize(
        "name, hint", [("corpus.jsonl", "run synth or ingest"), ("validation.csv", "run jt-test")]
    )
    def test_a_missing_artifact_names_the_subcommands_that_write_it(self, tmp_path, name, hint):
        ctx = RunContext(load_config(self._write_config(tmp_path)))
        with pytest.raises(StageError, match=re.escape(f"{name} ({hint})")):
            ctx.read(name)

    def test_bad_validation_settings_exit_1(self, tmp_path):
        config = self._write_config(tmp_path)
        assert cli.main(["jt-test", "--config", str(config), "--n-permutations", "-1"]) == 1
        assert cli.main(["explain", "--config", str(config), "--n-permutations", "0"]) == 1
        bad_method = self._write_config(tmp_path, validation={"method": "bootstrap"})
        assert cli.main(["jt-test", "--config", str(bad_method)]) == 1
        no_background = self._write_config(tmp_path, explain={"background_size": 0})
        assert cli.main(["explain", "--config", str(no_background)]) == 1
        typo = self._write_config(tmp_path, train={"learning_rat": 0.01})
        assert cli.main(["train", "--config", str(typo)]) == 1

    @pytest.mark.parametrize(
        "overrides",
        [
            {"synth": {"n_patent": 5}},
            {"explain": {"n_permutation": 5}},
            {"validation": {"metod": "permutation"}},
            {"topic": {"horizon": "long", "groupby": "actual"}},
            {"grid": {"space": {"warp_factor": [9]}}},
            {"grid": {"space": {"learning_rate": 1e-3}}},
            {"grid": {"space": {"learning_rate": [1e-3]}, "k": 1}},
            # json.dumps writes these as NaN and Infinity
            {"train": {"learning_rate": math.nan}},
            {"synth": {"citation_attachment_exponent": math.inf}},
        ],
        ids=["synth", "explain", "validation", "topic", "grid-key", "grid-value", "grid-k",
             "train-nan", "synth-infinity"],
    )
    def test_bad_config_block_exits_1_before_any_stage(self, tmp_path, overrides):
        config = self._write_config(tmp_path, **overrides)
        assert cli.main(["run", "--config", str(config)]) == 1
        assert not (tmp_path / "out" / "corpus.jsonl").exists()
        assert not (tmp_path / "out" / F_MANIFEST).exists()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"compare_stll": False},
            {"seed": "seven"},
            {"seed": 1.5},
            {"seed": True},
            {"compare_stl": "no"},
        ],
        ids=["unknown-key", "seed-string", "seed-float", "seed-bool", "compare-stl-string"],
    )
    def test_bad_top_level_exits_1_and_writes_nothing(self, tmp_path, overrides):
        config = self._write_config(tmp_path, **overrides)
        assert cli.main(["run", "--config", str(config)]) == 1
        assert cli.main(["synth", "--config", str(config)]) == 1
        assert list((tmp_path / "out").iterdir()) == []

    def test_stage_failure_exit_code(self, tmp_path):
        config = self._write_config(tmp_path)
        assert cli.main(["evaluate", "--config", str(config)]) == 3
        # a ValueError inside a single stage is a stage failure, not a traceback
        out = tmp_path / "out"
        (out / "labels.csv").write_text(
            "patent_id,grant_year,short_count,mid_count,long_count,"
            "short_class,mid_class,long_class,trajectory\n"
            "A,2000,0,0,0,MT,MT,MT,flat\nB,2001,0,0,0,MT,MT,MT,flat\n"
        )
        (out / "features.csv").write_text("not,a,feature,header\n")
        assert cli.main(["train", "--config", str(config)]) == 3

    def test_data_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json\n")
        config = self._write_config(tmp_path, corpus_path=str(bad))
        obj = json.loads(config.read_text())
        del obj["synth"]
        config.write_text(json.dumps(obj))
        assert cli.main(["ingest", "--config", str(config)]) == 2

    @pytest.mark.parametrize(
        "bad_line",
        [
            "[1, 2]",
            json.dumps({"id": "A", "filing_date": "2004-01-01", "grant_date": "2005-01-01",
                        "dependent_claim_count": "many"}),
            json.dumps({"id": "A", "filing_date": "2004-01-01", "grant_date": "2005-01-01",
                        "independent_claim_word_counts": [9], "backward_citations": [
                            {"country": "US", "filing_date": "2003-01-01", "cited_id": ["a"]}
                        ]}),
            "[" * 100000,
            json.dumps({"id": "A", "filing_date": "2004-01-01", "grant_date": "2005-01-01",
                        "independent_claim_word_counts": [9],
                        "backward_citations": [{"country": "US", "filing_date": "2009-01-01"}]}),
            json.dumps({"id": "A", "filing_date": "2004-W01-1", "grant_date": "2005-01-01"}),
        ],
        ids=["not-an-object", "non-numeric-count", "cited-id-list", "deep-nesting",
             "citation-after-filing", "week-date"],
    )
    def test_malformed_record_exits_2(self, tmp_path, bad_line):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(bad_line + "\n")
        config = self._write_config(tmp_path, corpus_path=str(bad))
        obj = json.loads(config.read_text())
        del obj["synth"]
        config.write_text(json.dumps(obj))
        assert cli.main(["ingest", "--config", str(config)]) == 2
        assert cli.main(["run", "--config", str(config)]) == 2
        manifest = json.loads((tmp_path / "out" / F_MANIFEST).read_text())
        assert manifest["stages"] == []
        assert manifest["error"].startswith("[corpus] ")

    @pytest.mark.parametrize("far", [False, True], ids=["line-3", "past-8-KiB"])
    def test_corpus_line_not_utf8_exits_2_naming_it(self, tmp_path, caplog, far):
        lines = [
            json.dumps(record_to_json_obj(make_patent(f"P{i:03d}"))).encode() + b"\n"
            for i in range(60)
        ]
        # the first line to start past the decoder's first 8 KiB chunk, or line 3
        starts = np.cumsum([0] + [len(line) for line in lines])
        bad_line = int(np.argmax(starts > 8192)) + 1 if far else 3
        lines[bad_line - 1] = lines[bad_line - 1].replace(b'"ACME"', b'"AC\xffME"', 1)
        bad = tmp_path / "bad.jsonl"
        bad.write_bytes(b"".join(lines))
        config = self._write_config(tmp_path, corpus_path=str(bad))
        obj = json.loads(config.read_text())
        del obj["synth"]
        config.write_text(json.dumps(obj))
        assert cli.main(["ingest", "--config", str(config)]) == 2
        assert f"{bad}:{bad_line}: byte 0xff is not UTF-8" in caplog.text

    # each value is JSON text; the field is a path into the record
    @pytest.mark.parametrize(
        "field, text, kind",
        [
            ("post_hoc.maintenance_years", '"nan"', "finite JSON number"),
            ("post_hoc.maintenance_years", "NaN", "finite JSON number"),
            ("post_hoc.maintenance_years", "1e999", "finite JSON number"),
            ("post_hoc.maintenance_years", "-Infinity", "finite JSON number"),
            pytest.param("post_hoc.maintenance_years", "1" + "0" * 400, "finite JSON number",
                         id="post_hoc.maintenance_years-10**400"),
            ("post_hoc.maintenance_years", "true", "finite JSON number"),
            ("history_overrides.pk_6", '"1.5"', "finite JSON number"),
            ("history_overrides.pk_9", "NaN", "finite JSON number"),
            ("post_hoc.transfer_count", "2.7", "JSON integer"),
            ("post_hoc.transfer_count", '"3"', "JSON integer"),
            ("post_hoc.transfer_count", "true", "JSON integer"),
            ("post_hoc.family_size", "2.0", "JSON integer"),
            ("dependent_claim_count", "false", "JSON integer"),
            ("abstract_word_count", '"40"', "JSON integer"),
            ("npl_citation_count", "1.0", "JSON integer"),
            ("independent_claim_word_counts", '[25, 7.5]', "JSON integer"),
            ("independent_claim_word_counts", '"25"', "JSON integer"),
        ],
    )
    def test_non_json_number_exits_2_naming_it(self, tmp_path, caplog, field, text, kind):
        records = [
            record_to_json_obj(make_patent(
                f"P{i}", post_hoc=PostHoc(maintenance_years=9.5, transfer_count=1, family_size=3),
                history_overrides=HistoryOverrides(pk_6=1.0, pk_9=2.0),
            ))
            for i in range(3)
        ]
        *parents, last = field.split(".")
        target = records[2]
        for key in parents:
            target = target[key]
        target[last] = "@"
        lines = [json.dumps(obj) for obj in records]
        lines[2] = lines[2].replace('"@"', text)
        bad = tmp_path / "bad.jsonl"
        bad.write_text("\n".join(lines) + "\n")
        config = self._write_config(tmp_path, corpus_path=str(bad))
        obj = json.loads(config.read_text())
        del obj["synth"]
        config.write_text(json.dumps(obj))
        assert cli.main(["ingest", "--config", str(config)]) == 2
        assert f"{bad}:3: P2: malformed field value: {field} must be a {kind}" in caplog.text

    def test_seed_override_changes_outputs(self, tmp_path):
        config = self._write_config(tmp_path)
        assert cli.main(["synth", "--config", str(config)]) == 0
        first = (tmp_path / "out" / "corpus.jsonl").read_bytes()
        assert cli.main(["synth", "--config", str(config), "--seed", "99"]) == 0
        assert (tmp_path / "out" / "corpus.jsonl").read_bytes() != first

    def test_label_mode_override(self, tmp_path):
        config = self._write_config(
            tmp_path, synth={"n_patents": 400, "year_range": [1998, 2012]}
        )
        assert cli.main(["synth", "--config", str(config)]) == 0
        assert cli.main(["label", "--config", str(config), "--mode", "fixed"]) == 0
        fixed = json.loads((tmp_path / "out" / "thresholds.json").read_text())
        assert fixed["long"] == {"bt_min": 24, "vt_min": 6}
        code = cli.main(["label", "--config", str(config), "--mode", "stanine"])
        if code == 0:
            stanine = json.loads((tmp_path / "out" / "thresholds.json").read_text())
            assert stanine != fixed
        else:
            # degenerate synthetic distribution is a data/stage error, not a crash
            assert code == 3

    @pytest.mark.parametrize(
        "name, command",
        [
            ("thresholds.json", "report"),
            ("labels.csv", "features"),
            ("features.csv", "train"),
            ("split.json", "evaluate"),
            ("best_config.json", "train"),
            ("model.ckpt.json", "evaluate"),
            ("stl_long.ckpt.json", "evaluate"),
            ("predictions.csv", "jt-test"),
            ("metrics.csv", "report"),
            ("comparison.csv", "report"),
            ("attributions.csv", "report"),
            ("validation.csv", "report"),
            ("topic_scores.csv", "report"),
        ],
    )
    def test_artifact_cut_inside_its_last_row_exits_3_naming_it(
        self, finished_runs, tmp_path, caplog, name, command
    ):
        obj = finished_runs["grid"]
        out = tmp_path / "out"
        shutil.copytree(obj["out_dir"], out)
        data = (out / name).read_bytes()
        body = data.rstrip(b"\r\n")
        start = body.rfind(b"\n") + 1
        (out / name).write_bytes(data[: start + (len(body) - start) // 2])
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**obj, "out_dir": str(out)}))
        assert cli.main([command, "--config", str(config)]) == 3
        assert f"cannot parse {name}" in caplog.text

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_a_table_cut_off_a_line_end_exits_3_naming_it(self, cut_run_config, data):
        out = Path(cut_run_config).parent / "out"
        name = data.draw(st.sampled_from(sorted(_TABLE_READERS)), label="table")
        whole = (out / name).read_bytes()
        # a cut anywhere, or in the last row or two
        n = len(whole)
        cut = data.draw(st.integers(0, n - 1) | st.integers(max(0, n - 60), n - 1), label="cut")
        # a cut at a line end leaves a shorter table, which only recorded hashes can tell
        assume(whole[:cut][-1:] != b"\n")
        (out / name).write_bytes(whole[:cut])
        try:
            with mock.patch.object(cli.log, "error") as error:
                assert cli.main([_TABLE_READERS[name], "--config", cut_run_config]) == 3
            assert f"cannot parse {name}" in str(error.call_args), error.call_args
        finally:
            (out / name).write_bytes(whole)

    @pytest.mark.parametrize(
        "name, command",
        [
            *(("corpus.jsonl", c) for c in ("label", "features", "jt-test", "topic-score")),
            ("thresholds.json", "report"),
            *(("labels.csv", c) for c in (
                "features", "gridsearch", "train", "evaluate", "explain", "topic-score", "report",
                "cv",
            )),
            *(("features.csv", c) for c in ("gridsearch", "train", "evaluate", "explain", "cv")),
            ("best_config.json", "train"),
            ("best_config.json", "cv"),
            ("split.json", "evaluate"),
            ("split.json", "explain"),
            ("model.ckpt.json", "evaluate"),
            ("model.ckpt.json", "explain"),
            *((f"stl_{h.key}.ckpt.json", "evaluate") for h in HORIZONS),
            ("predictions.csv", "jt-test"),
            ("predictions.csv", "topic-score"),
            ("metrics.csv", "report"),
        ],
    )
    def test_a_missing_artifact_exits_3_naming_the_stage_that_writes_it(
        self, finished_runs, tmp_path, caplog, name, command
    ):
        obj = finished_runs["grid"]
        out = tmp_path / "out"
        shutil.copytree(obj["out_dir"], out)
        (out / name).unlink()
        # topic-score reads predictions.csv when it groups by the predicted class
        topic = {"group_by": "predicted" if name == "predictions.csv" else "actual"}
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**obj, "out_dir": str(out), "topic": topic}))
        assert cli.main([command, "--config", str(config)]) == 3
        producer = ARTIFACTS[name].producer
        commands = {"corpus": "synth or ingest", "validate": "jt-test"}.get(producer, producer)
        assert re.search(rf"missing prerequisite file\(s\): .*{re.escape(name)} \((re)?run "
                         rf"{commands}\)", caplog.text), caplog.text

    def test_train_without_its_config_writes_no_split(self, finished_runs, tmp_path):
        # a new split beside the old checkpoints would let evaluate pass on them
        obj = finished_runs["grid"]
        out = tmp_path / "out"
        shutil.copytree(obj["out_dir"], out)
        (out / "best_config.json").unlink()
        split = (out / "split.json").read_bytes()
        test_year = json.loads(split)["test_year"] - 1
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**obj, "out_dir": str(out), "test_year": test_year}))
        assert cli.main(["train", "--config", str(config)]) == 3
        assert (out / "split.json").read_bytes() == split

    @pytest.mark.parametrize(
        "text", ["", "patent_id," + ",".join(FEATURE_NAMES) + "\r\n"], ids=["empty", "header-only"]
    )
    def test_features_csv_without_rows_exits_3_naming_it(
        self, finished_runs, tmp_path, caplog, text
    ):
        obj = finished_runs["default"]
        out = tmp_path / "out"
        shutil.copytree(obj["out_dir"], out)
        (out / "features.csv").write_text(text)
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**obj, "out_dir": str(out)}))
        for command in ("train", "evaluate", "explain"):
            caplog.clear()
            assert cli.main([command, "--config", str(config)]) == 3, command
            assert re.search(rf"\[{command}\] .*features\.csv", caplog.text), command

    @pytest.mark.parametrize("command", ["gridsearch", "cv"])
    def test_a_diverging_fold_is_a_stage_error(
        self, finished_runs, tmp_path, caplog, monkeypatch, command
    ):
        _cpus(monkeypatch, 1)
        obj = finished_runs["default"]
        out = tmp_path / "out"
        shutil.copytree(obj["out_dir"], out)
        diverging = (
            {"grid": {"space": {"learning_rate": [1e300]}, "k": 2}} if command == "gridsearch"
            else {"train": {**obj["train"], "learning_rate": 1e300}}
        )
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**obj, "out_dir": str(out), **diverging}))
        folds = ["--folds", "2"] if command == "cv" else []
        with np.errstate(all="ignore"):
            assert cli.main([command, "--config", str(config), *folds]) == 3
        assert f"[{command}] non-finite training loss" in caplog.text

    @pytest.mark.parametrize(
        "command, edit, message",
        [
            ("evaluate", lambda ckpt: [], "$ must be a JSON object, got []"),
            ("explain", lambda ckpt: {**ckpt, "standardizer": None},
             "$.standardizer must be a JSON array, got None"),
            # a network past any memory is refused before it is allocated
            ("evaluate", _network_set("input_dim", 10**12), "$.parameters do not hold the "),
            ("evaluate", _first_feature_set("mean", "x"),
             "$.standardizer[0].mean must be a finite JSON number, got 'x'"),
            ("explain", _first_feature_set("mean", "x"),
             "$.standardizer[0].mean must be a finite JSON number, got 'x'"),
            ("evaluate", _first_feature_set("mean", None),
             "$.standardizer[0].mean must be a finite JSON number, got None"),
            ("evaluate", _first_feature_set("mean", math.nan),
             "$.standardizer[0].mean must be a finite JSON number, got nan"),
            ("explain", _first_feature_set("mean", math.nan),
             "$.standardizer[0].mean must be a finite JSON number, got nan"),
            ("evaluate", _first_feature_set("std", "1"),
             "$.standardizer[0].std must be a JSON number, got '1'"),
            ("explain", _first_feature_set("std", None),
             "$.standardizer[0].std must be a JSON number, got None"),
            ("evaluate", _first_feature_set("std", math.nan),
             "$.standardizer[0].std must be a positive JSON number, got nan"),
            ("explain", _first_feature_set("std", 0),
             "$.standardizer[0].std must be a positive JSON number, got 0"),
            ("evaluate", _first_feature_set("degenerate", 0),
             "$.standardizer[0].degenerate must be true or false, got 0"),
            ("explain", _first_feature_set("degenerate", "false"),
             "$.standardizer[0].degenerate must be true or false, got 'false'"),
            # one NaN weight made every prediction MT
            ("evaluate", _first_parameter_value(math.nan),
             "$.parameters[0].data[0] must be a finite JSON number, got nan"),
            ("explain", _first_parameter_value(math.inf),
             "$.parameters[0].data[0] must be a finite JSON number, got inf"),
            ("evaluate", _first_parameter_value(True),
             "$.parameters[0].data[0] must be a finite JSON number, got True"),
        ],
        ids=[
            "array", "standardizer-null", "input-dim-huge", "mean-string-evaluate",
            "mean-string-explain", "mean-null", "mean-nan-evaluate", "mean-nan-explain",
            "std-string", "std-null", "std-nan", "std-zero", "degenerate-int", "degenerate-string",
            "param-nan", "param-infinity", "param-true",
        ],
    )
    def test_checkpoint_of_the_wrong_shape_exits_3_naming_it(
        self, finished_runs, tmp_path, caplog, command, edit, message
    ):
        obj = finished_runs["default"]
        out = tmp_path / "out"
        shutil.copytree(obj["out_dir"], out)
        ckpt = out / "model.ckpt.json"
        ckpt.write_text(json.dumps(edit(json.loads(ckpt.read_text()))) + "\n")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**obj, "out_dir": str(out)}))
        assert cli.main([command, "--config", str(config)]) == 3
        assert f"cannot parse model.ckpt.json: {message}" in caplog.text

    @pytest.mark.parametrize(
        "name, edit, command, message",
        [
            ("split.json", lambda obj: {}, "evaluate", "$ has no key 'train_ids'"),
            ("split.json", lambda obj: {}, "explain", "$ has no key 'train_ids'"),
            (
                "split.json", lambda obj: {**obj, "train_ids": 5}, "evaluate",
                "$.train_ids must be a JSON array, got 5",
            ),
            (
                "split.json", lambda obj: {**obj, "test_ids": [5, *obj["test_ids"]]}, "explain",
                "$.test_ids[0] must be a JSON string, got 5",
            ),
            ("thresholds.json", lambda obj: {}, "report", "$ has no key 'short'"),
            (
                "thresholds.json", lambda obj: {**obj, "long": {"bt_min": "24", "vt_min": 6}},
                "report", "$.long.bt_min must be a JSON integer, got '24'",
            ),
            ("best_config.json", lambda obj: {}, "train", "$ has no key 'network'"),
            (
                "best_config.json", lambda obj: {**obj, "train": None}, "train",
                "$.train must be a JSON object, got None",
            ),
        ],
        ids=[
            "split-empty-evaluate", "split-empty-explain", "split-train-ids-int",
            "split-test-id-int", "thresholds-empty", "thresholds-bt-min-string",
            "best-config-empty", "best-config-train-null",
        ],
    )
    def test_json_artifact_of_the_wrong_shape_exits_3_naming_it(
        self, finished_runs, tmp_path, caplog, name, edit, command, message
    ):
        obj = finished_runs["grid"]
        out = tmp_path / "out"
        shutil.copytree(obj["out_dir"], out)
        (out / name).write_text(json.dumps(edit(json.loads((out / name).read_text()))))
        config = tmp_path / "config.json"
        config.write_text(json.dumps({**obj, "out_dir": str(out)}))
        assert cli.main([command, "--config", str(config)]) == 3
        assert f"cannot parse {name}: {message}" in caplog.text

    def test_full_run_via_cli(self, tmp_path):
        config = self._write_config(
            tmp_path,
            explain={"n_instances": 2, "n_permutations": 10},
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "report.md").exists()
        assert (tmp_path / "out" / "manifest.json").exists()
