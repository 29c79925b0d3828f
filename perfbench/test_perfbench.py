"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import hashlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
from tracer import Tracer, self_times  # noqa: E402


def span(name, start, end, parent=None, attrs=None, proc="run"):
    return {"name": name, "start": start, "end": end, "parent": parent,
            "attrs": attrs, "proc": proc}


def test_self_time_of_nested_spans():
    spans = [
        span("a", 0.0, 10.0),
        span("b", 1.0, 4.0, parent=0),
        span("c", 2.0, 3.0, parent=1),
        span("d", 3.5, 6.0, parent=0),  # overlaps b: the union is counted once
        span("e", 9.0, 12.0, parent=0),  # clipped to the parent's end
    ]
    assert self_times(spans) == pytest.approx([4.0, 2.0, 1.0, 2.5, 3.0])


def test_layer_totals_count_nested_spans_once():
    spans = [
        span("pipeline.stage.explain", 0.0, 10.0),
        span("explain.attribute_instances", 1.0, 9.0, parent=0),
        span("explain.shapley_sampled", 1.0, 5.0, parent=1, attrs={"composite_bytes": 2e6}),
        span("mtl.predict_proba", 2.0, 4.0, parent=2, attrs={"rows": 10, "flop": 3e9}),
        span("explain.shapley_sampled", 5.0, 9.0, parent=1, attrs={"composite_bytes": 2e6}),
        span("mtl.predict_proba", 5.0, 8.0, parent=4, attrs={"rows": 10, "flop": 3e9}),
    ]
    m = layers.per_layer(spans, {}, run_s=20.0, untraced_run_s=19.0,
                         process_walls={}, se_mean=0.5)
    assert m["explain.shapley_sampled.calls"] == 2
    assert m["explain.shapley_sampled.self_s"] == pytest.approx(3.0)
    assert m["explain.composite_mb"] == pytest.approx(4.0)
    assert m["mtl.predict_proba.s"] == pytest.approx(5.0)
    assert m["mtl.forward.gflop_per_s"] == pytest.approx(6.0 / 5.0)
    assert m["share.explain"] == pytest.approx(8.0 / 20.0)
    assert m["pipeline.stage.explain.self_s"] == pytest.approx(2.0)
    assert m["trace.overhead_s"] == pytest.approx(1.0)
    assert set(m) == set(layers.METRICS)


def _digests(directory: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(directory.iterdir()) if p.name != "manifest.json"
    }


def test_wrappers_leave_a_run_byte_identical(tmp_path):
    from patimpact import cli, explain, mtl, pipeline

    obj = {
        "schema": "patimpact-config/1",
        "seed": 3,
        "synth": {"n_patents": 250, "year_range": [1996, 2011]},
        "train": {"max_epochs": 10, "class_weighting": True, "batch_size": 16},
        "explain": {"n_instances": 2, "n_permutations": 10},
    }
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    pipeline.run_pipeline(pipeline.config_from_obj({**obj, "out_dir": str(plain)}))

    originals = (dict(pipeline.STAGES), explain.predict_proba, mtl.train, cli.stage_label)
    tracer = Tracer()
    restore = tracer.install()
    try:
        assert cli.stage_label is not originals[3]
        pipeline.run_pipeline(pipeline.config_from_obj({**obj, "out_dir": str(traced)}))
    finally:
        restore()
    assert (dict(pipeline.STAGES), explain.predict_proba, mtl.train,
            cli.stage_label) == originals

    assert _digests(traced) == _digests(plain)
    names = {s[0] for s in tracer.spans}
    for stage in layers.STAGES:
        assert f"pipeline.stage.{stage}" in names
    assert {"mtl.predict_proba", "explain.shapley_sampled", "mtl.train",
            "validate.jonckheere_terpstra", "corpus.load_corpus"} <= names
    assert tracer.counters["mtl.train.steps"] > 0


def _result_line(stdout: str) -> dict:
    return json.loads(stdout.strip().splitlines()[-1])


def test_second_seed_passes_every_check():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "acceptance-2k",
         "--seed", "11", "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = _result_line(proc.stdout)
    assert result["correct"] is True, proc.stdout
    assert result["failed"] == 0
    assert result["attempted"] == 2  # one untraced run and the traced one
    assert set(result["metrics"]) == set(layers.METRICS)


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "acceptance-2k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
