"""In-memory span recorder that wraps patimpact's public functions.

Each wrapper replaces a function at the name its callers look up (a module
attribute, an imported alias or a ``pipeline.STAGES`` entry) and records one
span per call: name, start, end, parent span and a few counts read from the
arguments or the result. Arguments and return values pass through
untouched, so a traced run writes the same artifact bytes as an untraced one.
Spans stay in memory until :meth:`Tracer.dump`.
"""

from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from typing import Callable, Optional


def _bound(fn: Callable, args: tuple, kwargs: dict) -> dict:
    sig = inspect.signature(fn)
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return ba.arguments


# Count extractors: (original function, args, kwargs, result) -> dict of counts.

def _load_corpus_attrs(fn, args, kwargs, result):
    path = _bound(fn, args, kwargs)["path"]
    return {"path": os.path.abspath(str(path)), "mb": os.path.getsize(path) / 1e6}


def _feature_rows(fn, args, kwargs, result):
    return {"rows": len(_bound(fn, args, kwargs)["ids"])}


def _train_attrs(fn, args, kwargs, result):
    losses = [e.val_loss_total for e in result.history]
    best = losses.index(min(losses)) if losses else -1
    return {"epochs": len(losses), "best_epoch": best}


def _forward_flop_per_row(model, task) -> int:
    layers = list(model.shared) + list(model.heads[task])
    return sum(2 * layer.W.size for layer in layers)


def _predict_proba_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    rows = int(a["X"].shape[0])
    return {"rows": rows, "flop": rows * _forward_flop_per_row(a["model"], a["task"])}


def _predict_batch_attrs(fn, args, kwargs, result):
    return {"rows": int(_bound(fn, args, kwargs)["X"].shape[0])}


def _shapley_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    m, d = a["background"].matrix.shape
    g = a["grouping"].n_groups if a["grouping"] is not None else d
    # one (g, m, d) float64 coalition matrix is filled per permutation
    return {"composite_bytes": a["n_permutations"] * g * m * d * 8}


def _jt_attrs(fn, args, kwargs, result):
    a = _bound(fn, args, kwargs)
    return {"permutations": a["n_permutations"] if a["method"] == "permutation" else 0}


# (module, attribute, span name, count extractor). Names absent from a module
# are skipped, so the list may name functions a later version removes.
TARGETS: list[tuple[str, str, str, Optional[Callable]]] = [
    ("patimpact.corpus", "load_corpus", "corpus.load_corpus", _load_corpus_attrs),
    ("patimpact.corpus", "save_corpus", "corpus.save_corpus", None),
    ("patimpact.pipeline", "derive_thresholds", "corpus.derive_thresholds", None),
    ("patimpact.pipeline", "generate_synthetic", "synth.generate_synthetic", None),
    ("patimpact.indicators", "extract_feature_matrix",
     "indicators.extract_feature_matrix", _feature_rows),
    ("patimpact.indicators", "export_features_csv", "indicators.export_features_csv", None),
    ("patimpact.indicators", "load_features_csv", "indicators.load_features_csv", None),
    ("patimpact.indicators", "fit_standardizer", "indicators.fit_standardizer", None),
    ("patimpact.indicators", "save_standardizer", "indicators.save_standardizer", None),
    ("patimpact.mtl", "init_network", "mtl.init_network", None),
    ("patimpact.mtl", "train", "mtl.train", _train_attrs),
    ("patimpact.mtl", "train_stl", "mtl.train_stl", None),
    ("patimpact.mtl", "grid_search", "mtl.grid_search", None),
    ("patimpact.mtl", "predict_batch", "mtl.predict_batch", _predict_batch_attrs),
    ("patimpact.mtl", "predict_proba", "mtl.predict_proba", _predict_proba_attrs),
    ("patimpact.mtl", "save_checkpoint", "mtl.save_checkpoint", None),
    ("patimpact.mtl", "load_checkpoint", "mtl.load_checkpoint", None),
    ("patimpact.mtl", "export_training_log_csv", "mtl.export_training_log_csv", None),
    ("patimpact.explain", "predict_proba", "mtl.predict_proba", _predict_proba_attrs),
    ("patimpact.explain", "attribute_instances", "explain.attribute_instances", None),
    ("patimpact.explain", "shapley_sampled", "explain.shapley_sampled", _shapley_attrs),
    ("patimpact.explain", "group_summary", "explain.group_summary", None),
    ("patimpact.explain", "export_group_summary_csv", "explain.export_group_summary_csv", None),
    ("patimpact.explain", "render_beeswarm_svg", "explain.render_beeswarm_svg", None),
    ("patimpact.metrics", "confusion_from_predictions",
     "metrics.confusion_from_predictions", None),
    ("patimpact.metrics", "compare_models", "metrics.compare_models", None),
    ("patimpact.metrics", "export_metrics_csv", "metrics.export_metrics_csv", None),
    ("patimpact.metrics", "export_metrics_json", "metrics.export_metrics_json", None),
    ("patimpact.metrics", "export_comparison_csv", "metrics.export_comparison_csv", None),
    ("patimpact.validate", "validate_value_indicators",
     "validate.validate_value_indicators", None),
    ("patimpact.validate", "jonckheere_terpstra", "validate.jonckheere_terpstra", _jt_attrs),
    ("patimpact.validate", "export_validation_csv", "validate.export_validation_csv", None),
    ("patimpact.validate", "topic_impact_scores", "validate.topic_impact_scores", None),
    ("patimpact.validate", "export_topic_scores_csv", "validate.export_topic_scores_csv", None),
    ("patimpact.validate", "export_topic_scores_json",
     "validate.export_topic_scores_json", None),
    ("patimpact.pipeline", "config_from_obj", "pipeline.config_from_obj", None),
    ("patimpact.pipeline", "run_pipeline", "pipeline.run_pipeline", None),
    ("patimpact.cli", "main", "cli.main", None),
    ("patimpact.cli", "run_pipeline", "pipeline.run_pipeline", None),
]


class Tracer:
    """Records spans as ``[name, start, end, parent index, counts]``."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counters: dict[str, int] = {}
        self._stack: list[int] = []

    def wrap(self, fn: Callable, name: str, attrs: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, time.perf_counter(), None, self._stack[-1] if self._stack else None, None]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = time.perf_counter()
                self._stack.pop()
            if attrs is not None:
                span[4] = attrs(fn, args, kwargs, result)
            return result

        return traced

    def counter(self, fn: Callable, name: str) -> Callable:
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.counters[name] = self.counters.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> Callable[[], None]:
        """Wrap every target in the already-imported patimpact modules.

        Returns a function that puts the original objects back.
        """
        undo: list[tuple[object, str, object]] = []

        def patch(owner, key, new):
            if isinstance(owner, dict):
                undo.append((owner, key, owner[key]))
                owner[key] = new
            else:
                undo.append((owner, key, getattr(owner, key)))
                setattr(owner, key, new)

        for mod_name, attr, span_name, attrs in TARGETS:
            mod = sys.modules.get(mod_name)
            if mod is None or not hasattr(mod, attr):
                continue
            patch(mod, attr, self.wrap(getattr(mod, attr), span_name, attrs))

        pipeline = sys.modules.get("patimpact.pipeline")
        if pipeline is not None:
            stage_of = {fn: name for name, fn in pipeline.STAGES.items()}
            for name, fn in list(pipeline.STAGES.items()):
                patch(pipeline.STAGES, name, self.wrap(fn, f"pipeline.stage.{name}"))
            cli = sys.modules.get("patimpact.cli")
            if cli is not None:
                for attr, value in list(vars(cli).items()):
                    if callable(value) and value in stage_of:
                        patch(cli, attr, self.wrap(value, f"pipeline.stage.{stage_of[value]}"))

        mtl = sys.modules.get("patimpact.mtl")
        adam = getattr(mtl, "_Adam", None) if mtl is not None else None
        if adam is not None and hasattr(adam, "step"):
            # optimizer steps are counted, not spanned: thousands per run
            patch(adam, "step", self.counter(adam.step, "mtl.train.steps"))

        def restore() -> None:
            for owner, key, old in reversed(undo):
                if isinstance(owner, dict):
                    owner[key] = old
                else:
                    setattr(owner, key, old)

        return restore

    def dump(self, path, label: str = "") -> None:
        """Write the spans and counters as JSON; times are seconds on the
        system-wide monotonic clock, so spans from several processes align."""
        obj = {
            "label": label,
            "counters": self.counters,
            "spans": [
                {"name": n, "start": s, "end": e, "parent": p, "attrs": a}
                for n, s, e, p, a in self.spans
            ],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh)


def load_dumps(paths) -> tuple[list[dict], dict[str, int]]:
    """Merge span dumps of several processes into one list of spans.

    Parent indices are rebased onto the merged list.
    """
    spans: list[dict] = []
    counters: dict[str, int] = {}
    for path in paths:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        base = len(spans)
        for s in obj["spans"]:
            s = dict(s)
            if s["parent"] is not None:
                s["parent"] += base
            s["proc"] = obj["label"]
            spans.append(s)
        for k, v in obj["counters"].items():
            counters[k] = counters.get(k, 0) + v
    return spans, counters


def self_times(spans: list[dict]) -> list[float]:
    """Each span's duration minus the part of it that its child spans cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = []
    for i, s in enumerate(spans):
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children.get(i, [])):
            a, b = max(a, s["start"]), min(b, s["end"])
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out.append((s["end"] - s["start"]) - covered)
    return out
