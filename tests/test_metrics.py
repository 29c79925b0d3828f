"""Metric computations against published-table values and properties.

MTL_CM_* / STL_CM_* are the test-split confusion matrices of the battery
case study (actual class in rows, predicted in columns, MT/VT/BT order);
the expected metric values quoted next to assertions are the matching
published table entries.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patimpact.corpus import Horizon, ImpactClass
from patimpact.metrics import (
    ClassMetrics,
    ConfusionMatrix3,
    binary_metrics,
    class_metrics,
    comparison_rows,
    confusion_from_predictions,
    macro_dor,
    metrics_rows,
    multiclass_mcc,
    overall_metrics,
    stratified_kfold,
)
from patimpact.tables import write_csv

MTL_CM_SHORT = np.array([[2134, 7, 17], [129, 5, 2], [69, 4, 20]])
MTL_CM_MID = np.array([[2012, 49, 14], [222, 20, 11], [41, 10, 18]])
MTL_CM_LONG = np.array([[1925, 68, 13], [259, 45, 14], [36, 26, 11]])
STL_CM_SHORT = np.array([[2154, 0, 4], [144, 1, 1], [81, 0, 12]])
STL_CM_MID = np.array([[2051, 13, 11], [235, 8, 10], [53, 6, 10]])
STL_CM_LONG = np.array([[1977, 23, 6], [291, 16, 11], [49, 12, 12]])


class TestConfusionMatrix:
    def test_identity_diagonal(self):
        cm = confusion_from_predictions(list(ImpactClass), list(ImpactClass))
        assert np.array_equal(cm.counts, np.eye(3, dtype=int))

    def test_reconstruct_published_short_matrix(self):
        actual, predicted = [], []
        for a in range(3):
            for p in range(3):
                actual += [ImpactClass(a)] * int(MTL_CM_SHORT[a, p])
                predicted += [ImpactClass(p)] * int(MTL_CM_SHORT[a, p])
        cm = confusion_from_predictions(actual, predicted)
        assert np.array_equal(cm.counts, MTL_CM_SHORT)

    def test_order_invariance(self):
        rng = np.random.default_rng(0)
        actual, predicted = rng.integers(0, 3, size=(2, 200))
        cm1 = confusion_from_predictions(actual, predicted)
        order = rng.permutation(len(actual))
        cm2 = confusion_from_predictions(actual[order], predicted[order])
        assert np.array_equal(cm1.counts, cm2.counts)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            confusion_from_predictions([], [])

    # the tally once wrapped an index of -1 around to BT
    @pytest.mark.parametrize(
        "actual, predicted", [([0, -1], [0, 0]), ([0, 1], [1, 3])], ids=["minus-one", "three"]
    )
    def test_index_outside_the_classes_rejected(self, actual, predicted):
        with pytest.raises(ValueError, match="outside 0-2"):
            confusion_from_predictions(actual, predicted)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            ConfusionMatrix3(counts=np.array([[1, 0, 0], [0, -1, 0], [0, 0, 1]]))


class TestClassMetrics:
    def test_short_bt_column(self):
        cm = ConfusionMatrix3(MTL_CM_SHORT)
        m = class_metrics(cm, ImpactClass.BT)
        assert m.precision == pytest.approx(0.5128, abs=5e-4)
        assert m.recall == pytest.approx(0.2150, abs=5e-4)
        assert m.f1 == pytest.approx(0.3030, abs=5e-4)
        assert m.mcc == pytest.approx(0.3157, abs=5e-4)
        assert m.accuracy == pytest.approx(0.9616, abs=5e-4)

    def test_short_bt_dor_from_first_principles(self):
        # TP=20 TN=2275 FP=19 FN=73 -> 45500/1387
        cm = ConfusionMatrix3(MTL_CM_SHORT)
        m = class_metrics(cm, ImpactClass.BT)
        assert m.dor == pytest.approx(45500 / 1387, abs=1e-9)
        assert m.dor == pytest.approx(32.805, abs=1e-3)

    def test_mid_bt_column(self):
        cm = ConfusionMatrix3(MTL_CM_MID)
        m = class_metrics(cm, ImpactClass.BT)
        assert m.precision == pytest.approx(0.4186, abs=5e-4)
        assert m.recall == pytest.approx(0.2609, abs=5e-4)
        assert m.f1 == pytest.approx(0.3214, abs=5e-4)
        assert m.mcc == pytest.approx(0.3151, abs=5e-4)
        assert m.accuracy == pytest.approx(0.9683, abs=5e-4)

    def test_long_bt_column(self):
        cm = ConfusionMatrix3(MTL_CM_LONG)
        m = class_metrics(cm, ImpactClass.BT)
        assert m.precision == pytest.approx(0.2895, abs=5e-4)
        assert m.recall == pytest.approx(0.1507, abs=5e-4)
        assert m.f1 == pytest.approx(0.1982, abs=5e-4)
        assert m.mcc == pytest.approx(0.1913, abs=5e-4)
        assert m.accuracy == pytest.approx(0.9629, abs=5e-4)

    def test_degenerate_conventions(self):
        m = binary_metrics(tp=5, fp=0, fn=3, tn=10)
        assert m.precision == 1.0
        assert math.isinf(m.dor)

        m = binary_metrics(tp=0, fp=0, fn=0, tn=10)
        assert m.precision == 0.0
        assert math.isnan(m.dor)
        assert m.mcc == 0.0

    def test_all_one_class_predictor_mcc_zero(self):
        cm = ConfusionMatrix3(np.array([[50, 0, 0], [30, 0, 0], [20, 0, 0]]))
        m = class_metrics(cm, ImpactClass.MT)
        assert m.mcc == 0.0
        assert multiclass_mcc(cm) == 0.0

    def test_record_is_the_metric_values_in_table_order(self):
        m = binary_metrics(tp=5, fp=1, fn=3, tn=10)
        assert ClassMetrics._fields == ("accuracy", "precision", "recall", "f1", "mcc", "dor")
        mcc = 47 / math.sqrt(6 * 8 * 11 * 13)
        assert tuple(m) == (15 / 19, 5 / 6, 5 / 8, 10 / 14, mcc, 50 / 3)

    def test_bookkeeping_sums_to_n(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            cm = ConfusionMatrix3(rng.integers(0, 40, size=(3, 3)))
            if cm.n == 0:
                continue
            for cls in ImpactClass:
                tp, fp, fn, tn = cm.one_vs_rest(cls)
                assert tp + fp + fn + tn == cm.n

    def test_mcc_symmetry_under_dichotomy_swap(self):
        rng = np.random.default_rng(2)
        for _ in range(50):
            tp, fp, fn, tn = (int(v) for v in rng.integers(1, 50, size=4))
            a = binary_metrics(tp, fp, fn, tn).mcc
            b = binary_metrics(tn, fn, fp, tp).mcc
            assert a == pytest.approx(b, abs=1e-12)

    def test_f1_is_harmonic_mean(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            tp, fp, fn, tn = (int(v) for v in rng.integers(1, 50, size=4))
            m = binary_metrics(tp, fp, fn, tn)
            if m.precision + m.recall > 0:
                harmonic = 2 * m.precision * m.recall / (m.precision + m.recall)
                assert m.f1 == pytest.approx(harmonic, abs=1e-12)


class TestOverallMetrics:
    def test_macro_precision_short(self):
        om = overall_metrics(ConfusionMatrix3(MTL_CM_SHORT))
        assert om.macro.precision == pytest.approx(0.5788, abs=5e-3)

    def test_macro_dor_from_published_per_class_values(self):
        assert macro_dor([13.252, 7.2211, 32.9488]) == pytest.approx(17.8073, abs=5e-3)

    def test_macro_dor_infinite_propagates(self):
        assert math.isinf(macro_dor([10.0, math.inf, 20.0]))
        assert math.isinf(macro_dor([math.nan, math.inf, 20.0]))

    def test_macro_dor_skips_undefined_values(self):
        assert macro_dor([math.nan, 2.0, 4.0]) == 3.0
        assert math.isnan(macro_dor([math.nan, math.nan, math.nan]))

    def test_micro_accuracy_is_trace_over_n(self):
        cm = ConfusionMatrix3(MTL_CM_SHORT)
        om = overall_metrics(cm)
        assert om.micro_accuracy == pytest.approx(np.trace(MTL_CM_SHORT) / MTL_CM_SHORT.sum())

    def test_perfect_matrix(self):
        cm = ConfusionMatrix3(np.diag([30, 20, 10]))
        om = overall_metrics(cm)
        assert om.macro.precision == 1.0
        assert om.macro.recall == 1.0
        assert om.macro.f1 == 1.0
        assert om.micro_accuracy == 1.0
        assert om.multiclass_mcc == pytest.approx(1.0)
        assert math.isinf(om.macro.dor)

    def test_gorodkin_matches_binary_for_collapsed_case(self):
        # with one class absent everywhere the 3-class coefficient reduces
        # to the familiar binary MCC
        cm3 = ConfusionMatrix3(np.array([[40, 10, 0], [5, 45, 0], [0, 0, 0]]))
        g = multiclass_mcc(cm3)
        b = binary_metrics(tp=40, fp=5, fn=10, tn=45).mcc
        assert g == pytest.approx(b, abs=1e-12)


def _same(a: float, b: float, rel: float = 0.0) -> bool:
    """Equal (NaN equal to NaN), within ``rel`` when it is given."""
    if math.isnan(a) or math.isinf(a):
        return math.isnan(b) if math.isnan(a) else a == b
    return a == pytest.approx(b, rel=rel) if rel else a == b


class TestRelabellingProperty:
    """Renaming the classes by a permutation pi, in the actual and the
    predicted labels alike, moves each class's metrics to pi(class) and keeps
    the whole-matrix scores; only their summation order changes."""

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=60),
        pi=st.permutations(range(3)),
    )
    def test_metrics_follow_the_relabelling(self, pairs, pi):
        cm = confusion_from_predictions(
            [ImpactClass(a) for a, _ in pairs], [ImpactClass(p) for _, p in pairs]
        )
        moved = confusion_from_predictions(
            [ImpactClass(pi[a]) for a, _ in pairs], [ImpactClass(pi[p]) for _, p in pairs]
        )
        for c in ImpactClass:
            want = class_metrics(cm, c)
            got = class_metrics(moved, ImpactClass(pi[c]))
            for name, value in want._asdict().items():
                assert _same(got._asdict()[name], value), (c, name)
        want, got = overall_metrics(cm), overall_metrics(moved)
        assert got.micro_accuracy == want.micro_accuracy
        assert _same(got.multiclass_mcc, want.multiclass_mcc, rel=1e-12)
        for name, value in want.macro._asdict().items():
            assert _same(got.macro._asdict()[name], value, rel=1e-12), name


class TestStratifiedKfold:
    def test_ten_instance_example(self):
        labels = [ImpactClass.MT] * 5 + [ImpactClass.VT] * 3 + [ImpactClass.BT] * 2
        fa = stratified_kfold(labels, 2, seed=0)
        sizes = sorted(len(fa.fold_indices(f)) for f in range(2))
        assert sizes == [5, 5]
        for f in range(2):
            members = fa.fold_indices(f)
            mt = sum(1 for i in members if labels[i] == ImpactClass.MT)
            vt = sum(1 for i in members if labels[i] == ImpactClass.VT)
            bt = sum(1 for i in members if labels[i] == ImpactClass.BT)
            assert mt in (2, 3) and vt in (1, 2) and bt == 1

    def test_partition_property(self):
        rng = np.random.default_rng(4)
        labels = [ImpactClass(int(v)) for v in rng.integers(0, 3, size=101)]
        fa = stratified_kfold(labels, 5, seed=9)
        all_indices = np.concatenate([fa.fold_indices(f) for f in range(5)])
        assert sorted(all_indices.tolist()) == list(range(101))

    def test_per_class_proportions_within_one(self):
        rng = np.random.default_rng(5)
        labels = [ImpactClass(int(v)) for v in rng.integers(0, 3, size=97)]
        k = 5
        fa = stratified_kfold(labels, k, seed=2)
        for cls in ImpactClass:
            count = sum(1 for lab in labels if lab == cls)
            per_fold = [
                sum(1 for i in fa.fold_indices(f) if labels[i] == cls) for f in range(k)
            ]
            assert max(per_fold) - min(per_fold) <= 1
            assert sum(per_fold) == count

    def test_same_seed_identical(self):
        labels = [ImpactClass(int(v)) for v in np.random.default_rng(6).integers(0, 3, 60)]
        a = stratified_kfold(labels, 4, seed=7)
        b = stratified_kfold(labels, 4, seed=7)
        assert np.array_equal(a.fold_of, b.fold_of)

    def test_downgrade_when_rare_class(self, caplog):
        labels = [ImpactClass.MT] * 20 + [ImpactClass.BT] * 3
        fa = stratified_kfold(labels, 5, seed=0)
        assert fa.k == 3

    def test_errors(self):
        with pytest.raises(ValueError):
            stratified_kfold([ImpactClass.MT] * 10, 1, seed=0)
        with pytest.raises(ValueError):
            stratified_kfold([ImpactClass.MT] * 10 + [ImpactClass.BT], 2, seed=0)
        with pytest.raises(ValueError):
            stratified_kfold([], 2, seed=0)


class TestCompareModels:
    def _rows(self, short, mid, long):
        return metrics_rows({
            Horizon.SHORT: ConfusionMatrix3(short),
            Horizon.MID: ConfusionMatrix3(mid),
            Horizon.LONG: ConfusionMatrix3(long),
        })

    def test_identical_matrices_zero_deltas(self):
        rows = self._rows(MTL_CM_SHORT, MTL_CM_MID, MTL_CM_LONG)
        comparison = comparison_rows(rows, rows)
        # 3 horizons x (3 classes + overall) x 6 metrics
        assert len(comparison) == 72
        assert all(delta == 0.0 for *_, delta in comparison)

    def test_published_mid_horizon_deltas(self):
        comparison = comparison_rows(
            self._rows(MTL_CM_SHORT, MTL_CM_MID, MTL_CM_LONG),
            self._rows(STL_CM_SHORT, STL_CM_MID, STL_CM_LONG),
        )
        cells = {(h, cls, metric): (value, delta) for h, cls, metric, value, delta in comparison}
        assert cells[("mid", "BT", "recall")][1] == pytest.approx(-0.1160, abs=5e-4)
        assert cells[("mid", "BT", "f1")][1] == pytest.approx(-0.1214, abs=5e-4)
        assert cells[("mid", "BT", "mcc")][1] == pytest.approx(-0.1140, abs=5e-4)
        assert cells[("short", "BT", "recall")][1] == pytest.approx(-0.0860, abs=5e-4)
        assert cells[("short", "BT", "recall")][0] == pytest.approx(0.1290, abs=5e-4)

    def test_rows_are_the_challengers_class_and_macro_rows(self):
        reference = self._rows(MTL_CM_SHORT, MTL_CM_MID, MTL_CM_LONG)
        challenger = self._rows(STL_CM_SHORT, STL_CM_MID, STL_CM_LONG)
        kept = [r for r in challenger if r[1] not in ("overall_micro", "overall_multiclass")]
        comparison = comparison_rows(reference, challenger)
        assert [(h, cls, metric, value) for h, cls, metric, value, _ in comparison] == [
            (h, "overall" if cls == "overall_macro" else cls, metric, value)
            for h, cls, metric, value in kept
        ]

    def test_delta_antisymmetry(self):
        a = self._rows(MTL_CM_SHORT, MTL_CM_MID, MTL_CM_LONG)
        b = self._rows(STL_CM_SHORT, STL_CM_MID, STL_CM_LONG)
        for fwd, rev in zip(comparison_rows(a, b), comparison_rows(b, a)):
            if math.isfinite(fwd[4]):
                assert fwd[4] == pytest.approx(-rev[4], abs=1e-12)

    def test_mismatched_horizons(self):
        with pytest.raises(ValueError):
            comparison_rows(
                metrics_rows({Horizon.SHORT: ConfusionMatrix3(MTL_CM_SHORT)}),
                metrics_rows({Horizon.MID: ConfusionMatrix3(MTL_CM_MID)}),
            )


class TestExport:
    def test_metrics_rows_shape(self):
        rows = metrics_rows({Horizon.SHORT: ConfusionMatrix3(MTL_CM_SHORT)})
        classes = {r[1] for r in rows}
        assert classes == {"MT", "VT", "BT", "overall_macro", "overall_micro", "overall_multiclass"}
        # 3 classes x 6 metrics + macro 6 + micro 1 + multiclass 1
        assert len(rows) == 26

    def test_csv_written(self, tmp_path):
        path = tmp_path / "metrics.csv"
        rows = metrics_rows({Horizon.SHORT: ConfusionMatrix3(MTL_CM_SHORT)})
        write_csv(path, ["horizon", "class", "metric", "value"], rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "horizon,class,metric,value"
        assert len(lines) == 27
