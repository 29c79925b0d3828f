"""Acceptance suite: one test per criterion, each with its runtime budget.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion. Published-table expectations carry the same tolerances as the
assertions in the module docstrings; every expected value was either taken
from the published tables or computed by an independent oracle in the test
body, never from the code under test.
"""

from __future__ import annotations

import csv
import hashlib
import time

import numpy as np
import pytest

from patimpact.corpus import (
    FIXED_THRESHOLDS,
    HORIZONS,
    Corpus,
    Horizon,
    ImpactClass,
    assign_impact_class,
    stanine_thresholds,
)
from patimpact.explain import BackgroundSet, shapley_exact, shapley_sampled
from patimpact.indicators import corpus_ipc_stats, extract_features
from patimpact.metrics import (
    ConfusionMatrix3,
    class_metrics,
    comparison_rows,
    macro_dor,
    metrics_rows,
    overall_metrics,
)
from patimpact.mtl import (
    NetworkConfig,
    TrainConfig,
    gradient_check,
    init_network,
    predict_batch,
)
from patimpact.pipeline import config_from_obj, run_pipeline
from patimpact.validate import (
    OrderedGroups,
    jonckheere_terpstra,
    jt_statistic,
    validate_value_indicators,
)

from conftest import make_patent, softmax
from test_metrics import MTL_CM_LONG, MTL_CM_MID, MTL_CM_SHORT, STL_CM_MID
from test_validate import brute_force_jt, _corpus_with_posthoc


def _report(criterion: int, name: str, t0: float, budget: float) -> None:
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"criterion {criterion} exceeded {budget}s ({elapsed:.1f}s)"
    print(f"ACCEPTANCE {criterion:02d} {name}: PASS ({elapsed:.2f}s)")


def test_c01_metric_reproduction():
    t0 = time.perf_counter()
    cm = ConfusionMatrix3(MTL_CM_SHORT)
    bt = class_metrics(cm, ImpactClass.BT)
    assert bt.precision == pytest.approx(0.5128, abs=5e-4)
    assert bt.recall == pytest.approx(0.2150, abs=5e-4)
    assert bt.f1 == pytest.approx(0.3030, abs=5e-4)
    assert bt.mcc == pytest.approx(0.3157, abs=5e-4)
    assert bt.accuracy == pytest.approx(0.9616, abs=5e-4)
    assert bt.dor == pytest.approx(32.805, abs=1e-3)  # table prints 32.9488
    assert overall_metrics(cm).macro.precision == pytest.approx(0.5788, abs=5e-3)
    assert macro_dor([13.252, 7.2211, 32.9488]) == pytest.approx(17.807, abs=5e-3)

    mid_bt = class_metrics(ConfusionMatrix3(MTL_CM_MID), ImpactClass.BT)
    assert mid_bt.precision == pytest.approx(0.4186, abs=5e-4)
    assert mid_bt.recall == pytest.approx(0.2609, abs=5e-4)
    assert mid_bt.f1 == pytest.approx(0.3214, abs=5e-4)
    assert mid_bt.mcc == pytest.approx(0.3151, abs=5e-4)
    long_bt = class_metrics(ConfusionMatrix3(MTL_CM_LONG), ImpactClass.BT)
    assert long_bt.precision == pytest.approx(0.2895, abs=5e-4)
    assert long_bt.recall == pytest.approx(0.1507, abs=5e-4)
    assert long_bt.f1 == pytest.approx(0.1982, abs=5e-4)
    assert long_bt.mcc == pytest.approx(0.1913, abs=5e-4)
    _report(1, "metric reproduction", t0, 1.0)


def test_c02_stl_delta_reproduction():
    t0 = time.perf_counter()
    comparison = comparison_rows(
        metrics_rows({Horizon.MID: ConfusionMatrix3(MTL_CM_MID)}),
        metrics_rows({Horizon.MID: ConfusionMatrix3(STL_CM_MID)}),
    )
    cells = {(cls, metric): delta for _, cls, metric, _, delta in comparison}
    assert cells[("BT", "recall")] == pytest.approx(-0.1160, abs=5e-4)
    assert cells[("BT", "f1")] == pytest.approx(-0.1214, abs=5e-4)
    _report(2, "single-task delta reproduction", t0, 1.0)


def test_c03_labeling():
    t0 = time.perf_counter()
    assert assign_impact_class(4, FIXED_THRESHOLDS, Horizon.SHORT) == ImpactClass.BT
    assert assign_impact_class(8, FIXED_THRESHOLDS, Horizon.MID) == ImpactClass.VT
    assert assign_impact_class(24, FIXED_THRESHOLDS, Horizon.LONG) == ImpactClass.BT
    assert assign_impact_class(5, FIXED_THRESHOLDS, Horizon.LONG) == ImpactClass.MT
    # short-horizon distribution with the published cumulative shares
    counts = (
        [0] * 7635 + [1] * 1969 + [2] * 425 + [3] * 424
        + [4] * 100 + [5] * 100 + [6] * 60 + [7] * 47 + [8] * 50 + [20] * 41
    )
    assert stanine_thresholds(counts).bt_min == 4
    _report(3, "labeling thresholds", t0, 1.0)


def test_c04_gradient_correctness():
    t0 = time.perf_counter()
    rng = np.random.default_rng(42)
    worst = 0.0
    for trial in range(20):
        config = NetworkConfig(
            input_dim=int(rng.integers(5, 15)),
            shared_layer_widths=(int(rng.integers(4, 12)),),
            task_head_widths={h: (int(rng.integers(3, 8)),) for h in HORIZONS},
            shared_dropout_rate=0.0,
            seed=int(rng.integers(0, 1_000_000)),
        )
        model = init_network(config)
        X = rng.normal(size=(16, config.input_dim))
        y = {h: rng.integers(0, 3, size=16) for h in HORIZONS}
        err = gradient_check(
            model, X, y, TrainConfig(seed=0), n_coordinates=200, seed=trial
        )
        worst = max(worst, err)
    assert worst < 1e-4
    _report(4, f"gradient correctness (worst {worst:.2e})", t0, 30.0)


def test_c05_softmax_argmax_invariants():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    logits = rng.normal(0.0, 30.0, size=(10_000, 3))
    probs = softmax(logits)
    assert np.abs(probs.sum(axis=1) - 1.0).max() <= 1e-9
    shifted = softmax(logits + rng.normal(0, 50, size=(10_000, 1)))
    assert np.abs(probs - shifted).max() <= 1e-12
    # tie rule: argmax returns the lowest class index among maxima
    ties = np.array([[1.0, 1.0, 0.0], [0.0, 2.0, 2.0], [3.0, 3.0, 3.0]])
    assert np.argmax(softmax(ties), axis=1).tolist() == [0, 1, 0]
    model = init_network(
        NetworkConfig(input_dim=6, shared_layer_widths=(4,),
                      task_head_widths={h: (3,) for h in HORIZONS}, seed=1,
                      shared_dropout_rate=0.0)
    )
    for preds in predict_batch(model, np.zeros((1, 6))).values():
        assert preds.tolist() == [ImpactClass.MT]  # exact three-way tie
    _report(5, "softmax/argmax invariants", t0, 5.0)


def test_c06_shapley_exactness():
    t0 = time.perf_counter()

    def toy(X):
        return (
            0.25 * X[:, 0] * X[:, 1] + 2.0 * X[:, 2] - 0.4 * X[:, 3] ** 2
            + 0.15 * X[:, 4] * X[:, 5] + X[:, 6]
        )

    rng = np.random.default_rng(0)
    background = BackgroundSet(rng.normal(0.0, 0.8, size=(30, 10)))
    instance = np.clip(rng.normal(size=10), -1.5, 1.5)
    exact = shapley_exact(toy, instance, background)
    sampled = shapley_sampled(toy, instance, background, n_permutations=2000, seed=3)
    assert np.abs(sampled.phi - exact.phi).max() < 0.01
    assert exact.efficiency_gap() < 1e-9
    assert np.abs(exact.phi[7:]).max() < 1e-9  # dummy groups

    # symmetry: exchangeable features receive equal attribution
    bg = rng.normal(size=(25, 4))
    bg[:, 1] = bg[:, 0]
    x_sym = np.array([0.6, 0.6, 1.0, -0.5])
    sym = shapley_exact(
        lambda X: X[:, 0] + X[:, 1] + X[:, 2] * X[:, 3], x_sym, BackgroundSet(bg)
    )
    assert sym.phi[0] == pytest.approx(sym.phi[1], abs=1e-9)

    # linearity of attributions in the model
    g = lambda X: 0.7 * X[:, 3] - X[:, 8] * X[:, 9]
    both = lambda X: toy(X) + g(X)
    pf = shapley_exact(toy, instance, background).phi
    pg = shapley_exact(g, instance, background).phi
    pfg = shapley_exact(both, instance, background).phi
    assert np.abs(pfg - (pf + pg)).max() < 1e-9

    # linear model closed form
    w = rng.normal(size=10)
    lin = shapley_exact(lambda X: X @ w, instance, background)
    expected = w * (instance - background.matrix.mean(axis=0))
    assert np.abs(lin.phi - expected).max() < 1e-9
    _report(6, "shapley exactness and axioms", t0, 60.0)


def test_c07_jonckheere_terpstra():
    t0 = time.perf_counter()
    groups = [np.array([1, 2, 3]), np.array([2, 3, 4]), np.array([3, 4, 5])]
    assert jt_statistic(groups) == 22.5

    rng = np.random.default_rng(1)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        sizes = rng.integers(2, 61 // k, size=k)
        random_groups = [rng.integers(0, 8, size=int(s)).astype(float) for s in sizes]
        assert sum(len(g) for g in random_groups) <= 60
        assert jt_statistic(random_groups) == brute_force_jt(random_groups)

    balanced = OrderedGroups(tuple(rng.normal(0.3 * k, 1.0, size=20) for k in range(3)))
    p_normal = jonckheere_terpstra(balanced).p_value
    p_perm = jonckheere_terpstra(
        balanced, method="permutation", seed=5, n_permutations=10_000
    ).p_value
    assert abs(p_normal - p_perm) < 0.02

    corpus, classes = _corpus_with_posthoc(rng, (40, 30, 20), shift=2.0)
    results = validate_value_indicators(corpus, classes)
    assert len(results) == 3
    assert all(v.result.p_value < 0.01 for v in results.values())
    _report(7, "ordered-trend test", t0, 60.0)


def test_c09_indicator_correctness(crafted_corpus, synth_corpus_small):
    t0 = time.perf_counter()
    stats = corpus_ipc_stats(crafted_corpus)
    fv = extract_features(crafted_corpus, "P-A", stats)
    expected = np.zeros(44)
    expected[0:5] = [2, 3, 5, 50, 3]
    expected[5:7] = [3, 2]
    expected[7:13] = [2, 1, 2, 3, 1, 2]
    expected[13:15] = [1096, 120]
    expected[15:18] = [7 / 12, 13 / 12, 3 / 4]
    expected[20] = 1
    expected[25] = 2
    expected[26] = 1825 / 365.25
    expected[27] = 7
    expected[28] = 1.0
    expected[30] = expected[31] = expected[35] = expected[36] = 1
    expected[37:] = [4, 1, 1 / 3, 1, 1, 1, 3]
    np.testing.assert_allclose(fv.values, expected, rtol=0, atol=1e-12)

    empties = extract_features(crafted_corpus, "P-B", stats)
    for name in ("SC_1", "TE_5", "PK_2", "PK_4", "PK_5", "PK_10"):
        assert empties[name] == 0.0
    cycle = extract_features(crafted_corpus, "P-E", stats)
    assert cycle["TE_5"] == pytest.approx(5.0, abs=0.01)
    recombination = extract_features(crafted_corpus, "P-F", stats)
    assert recombination["PK_2"] == 0.5

    # remaining crafted patents, one discriminating check each
    checks = {
        "P-C": ("SC_5", 1.0),
        "P-D": ("SC_1", 2.0),
        "P-G": ("DEC_5", 2.0),
        "P-H": ("PK_1", 12.0),
        "P-I": ("TE_1", 0.5),
        "P-J": ("PK_10", 3.0),
    }
    for pid, (name, value) in checks.items():
        assert extract_features(crafted_corpus, pid, stats)[name] == pytest.approx(value)

    # section-frequency consistency identities on a real-shaped corpus
    synth_stats = corpus_ipc_stats(synth_corpus_small)
    for pid in list(synth_corpus_small.ids())[:40]:
        rec = synth_corpus_small.get(pid)
        v = extract_features(synth_corpus_small, pid, synth_stats)
        assert sum(v[f"TE_4_{s}"] for s in "ABCDEFGH") == len(rec.ipc_codes)
        assert sum(v[f"PK_3_{s}"] for s in "ABCDEFGH") == sum(
            len(r.ipc_codes) for r in rec.backward_citations
        )
    _report(9, "indicator correctness", t0, 1.0)


def test_c10_topic_scoring():
    t0 = time.perf_counter()
    from patimpact.validate import topic_impact_scores

    import datetime as dt

    def corpus_of(specs):
        classes = {}
        records = {}
        for i, (topic, year, cls) in enumerate(specs):
            pid = f"T{i}"
            records[pid] = make_patent(
                pid,
                grant_date=dt.date(year, 6, 1),
                filing_date=dt.date(year - 2, 1, 1),
                topic_label=topic,
            )
            classes[pid] = cls
        return Corpus(records=records, domain_ipc_prefix="H01M"), classes

    corpus, classes = corpus_of(
        [("a", 2008, ImpactClass.MT), ("a", 2008, ImpactClass.MT),
         ("b", 2008, ImpactClass.BT), ("b", 2008, ImpactClass.MT)]
    )
    table = topic_impact_scores(corpus, classes)
    assert table.scores[("a", 2008)] == 1.0
    assert table.scores[("b", 2008)] == 5.5

    rng = np.random.default_rng(3)
    for _ in range(20):
        specs = [
            (str(rng.choice(["x", "y"])), int(rng.integers(2005, 2012)),
             ImpactClass(int(rng.integers(0, 3))))
            for _ in range(40)
        ]
        corpus, classes = corpus_of(specs)
        table = topic_impact_scores(corpus, classes)
        assert all(1.0 <= s <= 10.0 for s in table.scores.values())
    _report(10, "topic scoring", t0, 1.0)


@pytest.mark.slow
def test_c08_end_to_end_synthetic_run(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "run"
    out.mkdir()
    cfg = config_from_obj(
        {
            "schema": "patimpact-config/1",
            "seed": 7,
            "out_dir": str(out),
            "synth": {"n_patents": 2000},
            "threshold_mode": "fixed",
            "train": {"class_weighting": True},
            "explain": {"n_instances": 8, "n_permutations": 50},
            "validation": {"method": "normal_approx"},
        }
    )
    manifest = run_pipeline(cfg)
    first_run_seconds = time.perf_counter() - t0
    assert first_run_seconds < 300.0
    assert manifest.error is None

    with open(out / "metrics.csv") as fh:
        mcc = {
            row["horizon"]: float(row["value"])
            for row in csv.DictReader(fh)
            if row["class"] == "overall_multiclass"
        }
    total_mcc = sum(mcc.values())
    assert set(mcc) == {"short", "mid", "long"}
    assert total_mcc > 0.0  # beats the always-majority baseline (MCC 0)

    def checksums():
        return {
            p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.iterdir())
            if p.name != "manifest.json"
        }

    first = checksums()
    run_pipeline(cfg)
    assert checksums() == first
    _report(
        8,
        f"end-to-end synthetic run (sum multiclass MCC {total_mcc:.3f})",
        t0,
        300.0 * 2,
    )
