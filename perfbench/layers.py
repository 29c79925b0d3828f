"""Per-layer metrics from the traced run's spans.

``<name>.s`` sums the durations of every span of that name; ``self_s`` is a
span's duration minus the part its child spans cover; a layer total counts
only spans with no ancestor in the same layer, so nested calls count once.
"""

from __future__ import annotations

from tracer import self_times

STAGES = [
    "corpus", "label", "features", "train", "evaluate",
    "explain", "validate", "topic-score", "report",
]

# name -> (unit, what it counts); the order is the order of BENCHMARK.json
METRICS: dict[str, str] = {
    "corpus.load_corpus.calls": "count",
    "corpus.load_corpus.s": "s",
    "corpus.load_corpus.mb": "MB",
    "corpus.save_corpus.s": "s",
    "corpus.parse_useful_ratio": "ratio",
    "synth.generate_synthetic.s": "s",
    "indicators.extract_feature_matrix.s": "s",
    "indicators.extract_feature_matrix.rows": "count",
    "indicators.csv_io.s": "s",
    "mtl.train.calls": "count",
    "mtl.train.s": "s",
    "mtl.train.epochs": "count",
    "mtl.train.steps": "count",
    "mtl.train.useful_epoch_ratio": "ratio",
    "mtl.predict_proba.calls": "count",
    "mtl.predict_proba.rows": "count",
    "mtl.predict_proba.s": "s",
    "mtl.forward.gflop": "GFLOP",
    "mtl.forward.gflop_per_s": "GFLOP/s",
    "mtl.predict_batch.s": "s",
    "mtl.checkpoint_io.s": "s",
    "explain.shapley_sampled.calls": "count",
    "explain.shapley_sampled.self_s": "s",
    "explain.composite_mb": "MB",
    "explain.render_beeswarm_svg.s": "s",
    "explain.shapley_se_mean": "prob",
    "metrics.s": "s",
    "validate.jonckheere_terpstra.calls": "count",
    "validate.jonckheere_terpstra.s": "s",
    "validate.jt_permutations": "count",
    "validate.validate_value_indicators.self_s": "s",
    "validate.topic_impact_scores.s": "s",
    **{f"pipeline.stage.{st}.{kind}": "s" for st in STAGES for kind in ("s", "self_s")},
    "cli.process.s": "s",
    "cli.overhead_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "share.explain": "ratio",
    "share.train_corpus_indicators": "ratio",
    "share.validate_jt": "ratio",
}


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def _top_in_layer(spans: list[dict], layer: str) -> list[dict]:
    """Spans of ``layer`` with no ancestor in the same layer."""
    out = []
    for s in spans:
        if _layer(s["name"]) != layer:
            continue
        p = s["parent"]
        while p is not None and _layer(spans[p]["name"]) != layer:
            p = spans[p]["parent"]
        if p is None:
            out.append(s)
    return out


def per_layer(
    spans: list[dict],
    counters: dict[str, int],
    run_s: float,
    untraced_run_s: float,
    process_walls: dict[str, float],
    se_mean: float,
) -> dict[str, float]:
    """Every metric in ``METRICS`` from one traced run.

    ``run_s`` is the traced run's wall time, ``untraced_run_s`` the median of
    the untraced runs, ``process_walls`` the wall time of each CLI process
    by span-dump label (empty for in-process runs).
    """
    self_s = self_times(spans)

    def total(name: str) -> float:
        return sum(s["end"] - s["start"] for s in spans if s["name"] == name)

    def calls(name: str) -> int:
        return sum(1 for s in spans if s["name"] == name)

    def attr_sum(name: str, key: str) -> float:
        return sum((s["attrs"] or {}).get(key, 0) for s in spans if s["name"] == name)

    def self_total(name: str) -> float:
        return sum(t for s, t in zip(spans, self_s) if s["name"] == name)

    def layer_total(layer: str) -> float:
        return sum(s["end"] - s["start"] for s in _top_in_layer(spans, layer))

    load_calls = calls("corpus.load_corpus")
    distinct = {s["attrs"]["path"] for s in spans
                if s["name"] == "corpus.load_corpus" and s["attrs"]}
    epochs = attr_sum("mtl.train", "epochs")
    useful = sum(s["attrs"]["best_epoch"] + 1 for s in spans
                 if s["name"] == "mtl.train" and s["attrs"])
    proba_s = total("mtl.predict_proba")
    gflop = attr_sum("mtl.predict_proba", "flop") / 1e9

    m = {
        "corpus.load_corpus.calls": load_calls,
        "corpus.load_corpus.s": total("corpus.load_corpus"),
        "corpus.load_corpus.mb": attr_sum("corpus.load_corpus", "mb"),
        "corpus.save_corpus.s": total("corpus.save_corpus"),
        "corpus.parse_useful_ratio": len(distinct) / load_calls if load_calls else 0.0,
        "synth.generate_synthetic.s": total("synth.generate_synthetic"),
        "indicators.extract_feature_matrix.s": total("indicators.extract_feature_matrix"),
        "indicators.extract_feature_matrix.rows": attr_sum(
            "indicators.extract_feature_matrix", "rows"),
        "indicators.csv_io.s": sum(total(f"indicators.{n}") for n in (
            "export_features_csv", "load_features_csv", "save_standardizer")),
        "mtl.train.calls": calls("mtl.train"),
        "mtl.train.s": total("mtl.train"),
        "mtl.train.epochs": epochs,
        "mtl.train.steps": counters.get("mtl.train.steps", 0),
        "mtl.train.useful_epoch_ratio": useful / epochs if epochs else 0.0,
        "mtl.predict_proba.calls": calls("mtl.predict_proba"),
        "mtl.predict_proba.rows": attr_sum("mtl.predict_proba", "rows"),
        "mtl.predict_proba.s": proba_s,
        "mtl.forward.gflop": gflop,
        "mtl.forward.gflop_per_s": gflop / proba_s if proba_s > 0 else 0.0,
        "mtl.predict_batch.s": total("mtl.predict_batch"),
        "mtl.checkpoint_io.s": total("mtl.save_checkpoint") + total("mtl.load_checkpoint"),
        "explain.shapley_sampled.calls": calls("explain.shapley_sampled"),
        "explain.shapley_sampled.self_s": self_total("explain.shapley_sampled"),
        "explain.composite_mb": attr_sum("explain.shapley_sampled", "composite_bytes") / 1e6,
        "explain.render_beeswarm_svg.s": total("explain.render_beeswarm_svg"),
        "explain.shapley_se_mean": se_mean,
        "metrics.s": layer_total("metrics"),
        "validate.jonckheere_terpstra.calls": calls("validate.jonckheere_terpstra"),
        "validate.jonckheere_terpstra.s": total("validate.jonckheere_terpstra"),
        "validate.jt_permutations": attr_sum("validate.jonckheere_terpstra", "permutations"),
        "validate.validate_value_indicators.self_s": self_total(
            "validate.validate_value_indicators"),
        "validate.topic_impact_scores.s": total("validate.topic_impact_scores"),
    }
    for st in STAGES:
        m[f"pipeline.stage.{st}.s"] = total(f"pipeline.stage.{st}")
        m[f"pipeline.stage.{st}.self_s"] = self_total(f"pipeline.stage.{st}")

    stage_in_proc: dict[str, float] = {}
    for s in spans:
        if s["name"].startswith("pipeline.stage.") and s["parent"] is not None \
                and spans[s["parent"]]["name"] == "cli.main":
            stage_in_proc[s["proc"]] = stage_in_proc.get(s["proc"], 0.0) + s["end"] - s["start"]
    m["cli.process.s"] = sum(process_walls.values())
    m["cli.overhead_s"] = sum(
        wall - stage_in_proc.get(label, 0.0) for label, wall in process_walls.items()
    )
    m["trace.run_s"] = run_s
    m["trace.overhead_s"] = run_s - untraced_run_s
    m["share.explain"] = layer_total("explain") / run_s
    m["share.train_corpus_indicators"] = (
        m["mtl.train.s"] + layer_total("corpus") + layer_total("indicators")
    ) / run_s
    m["share.validate_jt"] = m["validate.jonckheere_terpstra.s"] / run_s
    return {k: float(m[k]) for k in METRICS}
