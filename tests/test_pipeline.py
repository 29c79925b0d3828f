"""Pipeline orchestration and CLI tests."""

from __future__ import annotations

import csv
import hashlib
import json
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

from patimpact import cli, mtl
from patimpact import corpus as corpus_mod
from patimpact.corpus import HORIZONS, ImpactClass, load_corpus
from patimpact.pipeline import (
    ConfigError,
    F_MANIFEST,
    STAGES,
    StageError,
    config_from_obj,
    load_config,
    pipeline_stage_names,
    run_pipeline,
    stage_evaluate,
    stage_report,
)
from patimpact.seeding import derive_seed
from patimpact.validate import CLASS_ORDERED, VALUE_INDICATORS, OrderedGroups

from test_validate import loop_permutation_p


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


@pytest.fixture(scope="module")
def completed_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("run")
    cfg = config_from_obj(base_config_obj(out))
    manifest = run_pipeline(cfg)
    return cfg, manifest


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
                "target_class": "VT", "filter_pattern": "peak",
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
        assert cfg.explain.background_size == 7
        assert cfg.explain.target_class == ImpactClass.VT
        assert cfg.validation.scope == "test" and cfg.validation.n_permutations == 99
        assert cfg.topic.horizon.key == "mid" and cfg.topic.group_by == "predicted"
        assert cfg.grid.space == blocks["grid"]["space"] and cfg.grid.k == 3

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
        ],
        ids=["unknown-key", "seed-string", "seed-float", "seed-bool", "seed-null",
             "compare-stl-string", "compare-stl-int", "test-year-bool", "test-year-float",
             "test-year-string"],
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
        ],
        ids=["unknown-key", "scalar", "empty-list", "empty-space", "not-an-object", "k-1",
             "k-not-a-number"],
    )
    def test_bad_grid(self, tmp_path, grid, message):
        with pytest.raises(ConfigError, match=message):
            config_from_obj(base_config_obj(tmp_path, grid=grid))

    def test_load_config_resolves_relative_paths(self, tmp_path):
        (tmp_path / "out").mkdir()
        obj = base_config_obj(Path("out"))
        path = tmp_path / "config.json"
        path.write_text(json.dumps(obj))
        cfg = load_config(path)
        assert cfg.out_dir == tmp_path / "out"


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
        for name in ("thresholds.json", "labels.csv", "metrics.csv"):
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
            members = {c: [] for c in CLASS_ORDERED}
            for row in predictions:
                post_hoc = corpus.get(row["patent_id"]).post_hoc
                if post_hoc is not None:
                    members[ImpactClass.from_name(row[f"{h.key}_predicted"])].append(post_hoc)
            seed = derive_seed(derive_seed(7, "validate"), h.key)
            for indicator in VALUE_INDICATORS:
                groups = OrderedGroups(tuple(
                    np.array([float(getattr(ph, indicator)) for ph in members[c]])
                    for c in CLASS_ORDERED
                ))
                row = written[(h.key, indicator)]
                assert row["method"] == "permutation"
                assert row["p_value"] == repr(loop_permutation_p(groups, seed, 2000))


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


class TestRunContext:
    def test_corpus_parsed_once_per_group_of_corpus_stages(self, tmp_path, monkeypatch):
        paths = []
        real_load = corpus_mod.load_corpus

        def counting_load(path, *args, **kwargs):
            paths.append(Path(path).name)
            return real_load(path, *args, **kwargs)

        monkeypatch.setattr(corpus_mod, "load_corpus", counting_load)
        obj = base_config_obj(
            tmp_path,
            synth={"n_patents": 250, "year_range": [1996, 2011]},
            compare_stl=False,
        )
        obj["train"] = {"max_epochs": 3, "class_weighting": True, "batch_size": 16}
        cfg = config_from_obj(obj)
        run_pipeline(cfg)
        # label+features share one parse, validate+topic-score another
        assert paths == ["corpus.jsonl", "corpus.jsonl"]
        paths.clear()
        STAGES["features"](cfg)
        assert paths == ["corpus.jsonl"]


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


class TestGridSearchStage:
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
        ],
        ids=["synth", "explain", "validation", "topic", "grid-key", "grid-value", "grid-k"],
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
        ],
        ids=["not-an-object", "non-numeric-count", "cited-id-list", "deep-nesting",
             "citation-after-filing"],
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

    def test_full_run_via_cli(self, tmp_path):
        config = self._write_config(
            tmp_path,
            explain={"n_instances": 2, "n_permutations": 10},
        )
        assert cli.main(["run", "--config", str(config)]) == 0
        assert (tmp_path / "out" / "report.md").exists()
        assert (tmp_path / "out" / "manifest.json").exists()
