"""Shapley attribution tests: axioms, sampling accuracy, exports."""

from __future__ import annotations

import numpy as np
import pytest

from patimpact.corpus import Horizon, ImpactClass
from patimpact.explain import (
    AttributionTarget,
    BackgroundSet,
    FeatureGrouping,
    attribute_instances,
    attribution_rows,
    default_grouping,
    global_importance,
    group_summary,
    render_beeswarm_svg,
    shapley_exact,
    shapley_sampled,
)
from patimpact.indicators import N_FEATURES
from patimpact.mtl import NetworkConfig, TrainConfig, infer_proba, init_network, train
from patimpact.pipeline import _write_csv

from conftest import traced_peak_bytes


def toy_model(X: np.ndarray) -> np.ndarray:
    """Nonlinear 10-dim test function; dims 7..9 are dummies.

    Interaction coefficients are kept small so the permutation estimator's
    Monte-Carlo error at 2000 permutations sits well inside the 0.01 gate.
    """
    return (
        0.25 * X[:, 0] * X[:, 1]
        + 2.0 * X[:, 2]
        - 0.4 * X[:, 3] ** 2
        + 0.15 * X[:, 4] * X[:, 5]
        + X[:, 6]
    )


@pytest.fixture(scope="module")
def toy_background():
    rng = np.random.default_rng(0)
    return BackgroundSet(rng.normal(0.0, 0.8, size=(30, 10)))


@pytest.fixture(scope="module")
def toy_instance():
    return np.clip(np.random.default_rng(1).normal(size=10), -1.5, 1.5)


class TestGrouping:
    def test_default_grouping_30_groups_partition(self):
        g = default_grouping()
        assert g.n_groups == 30
        assert g.covers(N_FEATURES)
        assert "TE_4" in g.names and "PK_3" in g.names
        te4 = g.members[g.names.index("TE_4")]
        assert len(te4) == 8

    def test_overlap_rejected(self):
        with pytest.raises(ValueError):
            FeatureGrouping(names=("a", "b"), members=((0, 1), (1, 2)))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError):
            FeatureGrouping(names=("a",), members=((),))

    def test_singletons(self):
        g = FeatureGrouping.singletons(["x0", "x1", "x2"])
        assert g.n_groups == 3 and g.covers(3)


class TestExactAxioms:
    def test_constant_model_all_zero(self, toy_background, toy_instance):
        row = shapley_exact(lambda X: np.full(X.shape[0], 3.7), toy_instance, toy_background)
        np.testing.assert_allclose(row.phi, 0.0, atol=1e-12)

    def test_linear_model_closed_form(self, toy_background):
        w = np.array([1.5, -2.0, 0.0, 3.0, 0.5, 0.0, 1.0, -1.0, 0.25, 2.0])
        x = np.random.default_rng(2).normal(size=10)
        row = shapley_exact(lambda X: X @ w, x, toy_background)
        expected = w * (x - toy_background.matrix.mean(axis=0))
        np.testing.assert_allclose(row.phi, expected, atol=1e-9)

    def test_dummy_axiom(self, toy_background, toy_instance):
        row = shapley_exact(toy_model, toy_instance, toy_background)
        np.testing.assert_allclose(row.phi[7:], 0.0, atol=1e-12)

    def test_symmetry_axiom(self):
        # dims 0 and 1 play identical roles: identical background columns
        # and identical instance values
        rng = np.random.default_rng(3)
        bg = rng.normal(size=(25, 4))
        bg[:, 1] = bg[:, 0]
        x = np.array([0.8, 0.8, -0.3, 1.1])
        f = lambda X: X[:, 0] + X[:, 1] + 2.0 * X[:, 2] * X[:, 3]
        row = shapley_exact(f, x, BackgroundSet(bg))
        assert row.phi[0] == pytest.approx(row.phi[1], abs=1e-12)

    def test_efficiency(self, toy_background, toy_instance):
        row = shapley_exact(toy_model, toy_instance, toy_background)
        assert row.efficiency_gap() < 1e-9
        assert row.model_output == pytest.approx(
            float(toy_model(toy_instance.reshape(1, -1))[0]), abs=1e-12
        )

    def test_linearity_axiom(self, toy_background, toy_instance):
        f = toy_model
        g = lambda X: 0.7 * X[:, 3] - X[:, 8] * X[:, 9]
        fg = lambda X: f(X) + g(X)
        pf = shapley_exact(f, toy_instance, toy_background).phi
        pg = shapley_exact(g, toy_instance, toy_background).phi
        pfg = shapley_exact(fg, toy_instance, toy_background).phi
        np.testing.assert_allclose(pfg, pf + pg, atol=1e-9)

    def test_group_bound(self, toy_background, toy_instance):
        grouping = FeatureGrouping(
            names=tuple(f"g{i}" for i in range(21)),
            members=tuple((i,) for i in range(21)),
        )
        with pytest.raises(ValueError, match="exceeds"):
            shapley_exact(
                lambda X: X.sum(axis=1),
                np.zeros(21),
                BackgroundSet(np.zeros((5, 21))),
                grouping=grouping,
            )


class TestSampled:
    def test_matches_exact_on_toy_model(self, toy_background, toy_instance):
        exact = shapley_exact(toy_model, toy_instance, toy_background)
        sampled = shapley_sampled(
            toy_model, toy_instance, toy_background, n_permutations=2000, seed=7
        )
        assert np.abs(sampled.phi - exact.phi).max() < 0.01

    def test_standard_errors_shrink_like_sqrt_n(self, toy_background, toy_instance):
        se_n = shapley_sampled(
            toy_model, toy_instance, toy_background, n_permutations=400, seed=11
        ).std_err
        se_2n = shapley_sampled(
            toy_model, toy_instance, toy_background, n_permutations=800, seed=13
        ).std_err
        ratio = float(np.mean(se_2n) / np.mean(se_n))
        assert ratio == pytest.approx(1 / np.sqrt(2), rel=0.20)

    def test_constant_model_exact_zero(self, toy_background, toy_instance):
        row = shapley_sampled(
            lambda X: np.full(X.shape[0], -1.25),
            toy_instance,
            toy_background,
            n_permutations=5,
            seed=0,
        )
        np.testing.assert_array_equal(row.phi, np.zeros(10))

    def test_deterministic_per_seed(self, toy_background, toy_instance):
        a = shapley_sampled(toy_model, toy_instance, toy_background, n_permutations=50, seed=3)
        b = shapley_sampled(toy_model, toy_instance, toy_background, n_permutations=50, seed=3)
        np.testing.assert_array_equal(a.phi, b.phi)
        np.testing.assert_array_equal(a.std_err, b.std_err)

    def test_efficiency_telescopes_exactly(self, toy_background, toy_instance):
        row = shapley_sampled(
            toy_model, toy_instance, toy_background, n_permutations=25, seed=5
        )
        assert row.efficiency_gap() < 1e-9

    def test_invalid_permutation_count(self, toy_background, toy_instance):
        with pytest.raises(ValueError):
            shapley_sampled(toy_model, toy_instance, toy_background, n_permutations=0)

    def test_instance_seeds_are_order_independent(self, toy_background):
        rng = np.random.default_rng(21)
        instances = {f"p{i}": rng.normal(size=10) for i in range(4)}
        fwd = attribute_instances(
            toy_model, instances, toy_background, n_permutations=30, seed=9
        )
        rev = attribute_instances(
            toy_model, dict(reversed(instances.items())), toy_background,
            n_permutations=30, seed=9,
        )
        fwd_by_id = {r.instance_id: r for r in fwd}
        for r in rev:
            np.testing.assert_array_equal(r.phi, fwd_by_id[r.instance_id].phi)


@pytest.fixture(scope="module")
def trained():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(200, 44))
    labels = (X[:, 0] + X[:, 5] > 0.5).astype(int) + (X[:, 9] > 1.0).astype(int)
    y = {h: labels for h in (Horizon.SHORT, Horizon.MID, Horizon.LONG)}
    model = init_network(NetworkConfig(seed=31, shared_dropout_rate=0.0,
                                       shared_layer_widths=(16,),
                                       task_head_widths={h: (8,) for h in y}))
    train(model, X, y, TrainConfig(seed=32, max_epochs=10))
    return model, X


class TestTrainedModelIntegration:

    def test_efficiency_against_model_probability(self, trained):
        model, X = trained
        background = BackgroundSet.sample(X, size=40, seed=1)
        target = AttributionTarget(horizon=Horizon.MID, impact_class=ImpactClass.BT)
        instance = X[3]
        row = shapley_sampled(
            model, instance, background, target=target, n_permutations=40, seed=2
        )
        assert row.phi.shape == (30,)
        prob = float(infer_proba(model, instance.reshape(1, -1), (Horizon.MID,))[Horizon.MID][0, 2])
        assert row.model_output == pytest.approx(prob, abs=1e-12)
        assert row.efficiency_gap() < 1e-9

    def test_target_required_for_models(self, trained):
        model, X = trained
        with pytest.raises(ValueError):
            shapley_sampled(model, X[0], BackgroundSet(X[:10]), n_permutations=2)


class TestBlockedEvaluation:
    """A trained model's coalition batches run through the network in blocks
    of `mtl.INFERENCE_BLOCK_ROWS` rows."""

    def test_multi_block_estimate_equals_one_forward_per_batch(self, trained):
        model, X = trained
        # 30 groups x 100 background rows: 3,000-row batches, three blocks each
        background = BackgroundSet(np.random.default_rng(33).normal(size=(100, 44)))
        target = AttributionTarget(horizon=Horizon.MID, impact_class=ImpactClass.BT)

        def one_forward(batch):
            return infer_proba(model, batch, (Horizon.MID,))[Horizon.MID][:, 2]

        got, want = (
            shapley_sampled(f, X[7], background, target=target, n_permutations=6, seed=34)
            for f in (model, one_forward)
        )
        assert got.efficiency_gap() < 1e-9
        for a, b in ((got.phi, want.phi), (got.std_err, want.std_err)):
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)
        assert got.base_value == pytest.approx(want.base_value, abs=1e-12)
        assert got.model_output == pytest.approx(want.model_output, abs=1e-12)

    def test_peak_memory_does_not_grow_with_background(self):
        model = init_network(NetworkConfig(seed=35))
        rng = np.random.default_rng(35)
        background = BackgroundSet(rng.normal(size=(200, 44)))
        instance = rng.normal(size=44)
        target = AttributionTarget(horizon=Horizon.LONG, impact_class=ImpactClass.BT)
        # 6,000-row coalition batches; one forward each would hold 14 MB of activations
        peak = traced_peak_bytes(
            lambda: shapley_sampled(model, instance, background, target=target, n_permutations=2)
        )
        assert peak < 10e6


MULTI_TARGETS = [
    AttributionTarget(horizon=Horizon.SHORT, impact_class=ImpactClass.BT),
    AttributionTarget(horizon=Horizon.MID, impact_class=ImpactClass.VT),
    AttributionTarget(horizon=Horizon.LONG, impact_class=ImpactClass.BT),
    AttributionTarget(horizon=Horizon.MID, impact_class=ImpactClass.BT),
]


class TestSharedPermutations:
    def test_each_target_equals_its_single_target_run(self, trained):
        model, X = trained
        background = BackgroundSet.sample(X, size=40, seed=1)
        rows = shapley_sampled(
            model, X[5], background, target=MULTI_TARGETS, n_permutations=30, seed=4,
            instance_id="p5",
        )
        assert len(rows) == len(MULTI_TARGETS)
        for target, row in zip(MULTI_TARGETS, rows):
            single = shapley_sampled(
                model, X[5], background, target=target, n_permutations=30, seed=4,
                instance_id="p5",
            )
            assert row.instance_id == "p5"
            np.testing.assert_allclose(row.phi, single.phi, rtol=0, atol=1e-12)
            np.testing.assert_allclose(row.std_err, single.std_err, rtol=0, atol=1e-12)
            assert row.base_value == pytest.approx(single.base_value, abs=1e-12)
            assert row.model_output == pytest.approx(single.model_output, abs=1e-12)

    def test_efficiency_and_model_output_per_target(self, trained):
        model, X = trained
        background = BackgroundSet.sample(X, size=40, seed=2)
        instance = X[11]
        rows = shapley_sampled(
            model, instance, background, target=MULTI_TARGETS, n_permutations=25, seed=6
        )
        for target, row in zip(MULTI_TARGETS, rows):
            assert row.efficiency_gap() < 1e-9
            h = target.horizon
            prob = infer_proba(model, instance.reshape(1, -1), (h,))[h]
            assert row.model_output == pytest.approx(
                float(prob[0, int(target.impact_class)]), abs=1e-12
            )

    def test_attribute_instances_pairs_targets_with_rows(self, trained):
        model, X = trained
        background = BackgroundSet.sample(X, size=30, seed=3)
        instances = {f"p{i}": X[i] for i in (7, 2, 9)}
        pairs = attribute_instances(
            model, instances, background, target=MULTI_TARGETS[:3], n_permutations=10, seed=8
        )
        assert [t for t, _ in pairs] == MULTI_TARGETS[:3]
        for target, rows in pairs:
            single = attribute_instances(
                model, instances, background, target=target, n_permutations=10, seed=8
            )
            assert [r.instance_id for r in rows] == list(instances)
            for r, s in zip(rows, single):
                np.testing.assert_allclose(r.phi, s.phi, rtol=0, atol=1e-12)

    def test_callable_has_one_output(self, toy_background, toy_instance):
        two = [MULTI_TARGETS[0], MULTI_TARGETS[1]]
        with pytest.raises(ValueError, match="one output"):
            shapley_sampled(toy_model, toy_instance, toy_background, target=two, n_permutations=2)


class TestAggregation:
    def _rows(self):
        rng = np.random.default_rng(40)
        grouping = FeatureGrouping.singletons(["a", "b", "c"])
        rows = []
        for i in range(5):
            rows.append(
                shapley_exact(
                    lambda X: X @ np.array([3.0, -1.0, 0.2]),
                    rng.normal(size=3),
                    BackgroundSet(rng.normal(size=(10, 3))),
                    grouping=grouping,
                    instance_id=f"p{i}",
                )
            )
        return rows, grouping

    def test_ranking_by_mean_abs(self):
        rows, grouping = self._rows()
        ranked = global_importance(rows, grouping)
        assert [name for name, _ in ranked] == ["a", "b", "c"]
        values = [v for _, v in ranked]
        assert values == sorted(values, reverse=True)

    def test_all_zero_ties_break_by_name(self):
        grouping = FeatureGrouping.singletons(["z", "y", "x"])
        bg = BackgroundSet(np.zeros((4, 3)))
        rows = [
            shapley_exact(lambda X: np.zeros(X.shape[0]), np.zeros(3), bg, grouping=grouping)
        ]
        ranked = global_importance(rows, grouping)
        assert [name for name, _ in ranked] == ["x", "y", "z"]

    def test_scaling_preserves_ranking(self):
        rows, grouping = self._rows()
        base = [name for name, _ in global_importance(rows, grouping)]
        from dataclasses import replace

        doubled = [replace(r, phi=2.0 * r.phi) for r in rows]
        assert [name for name, _ in global_importance(doubled, grouping)] == base

    def test_empty_rows_rejected(self):
        with pytest.raises(ValueError):
            global_importance([], default_grouping())

    def test_group_summary_counts_and_consistency(self):
        rows, grouping = self._rows()
        ranking, records = group_summary(rows, grouping, top_k=2)
        assert len(records) == len(rows) * 2
        assert [name for name, _ in ranking] == [
            name for name, _ in global_importance(rows, grouping)
        ][:2]

    def test_group_summary_empty_filter(self):
        # a trajectory filter that matches nothing leaves no rows
        _, grouping = self._rows()
        ranking, records = group_summary([], grouping)
        assert ranking == [] and records == []

    def test_group_summary_filter_subsets(self):
        rows, grouping = self._rows()
        kept = rows[:2]
        ranking, records = group_summary(kept, grouping, top_k=3)
        assert {r["instance_id"] for r in records} == {"p0", "p1"}
        assert ranking == global_importance(kept, grouping)


class TestExport:
    def test_csv_format(self, tmp_path):
        rng = np.random.default_rng(50)
        grouping = FeatureGrouping.singletons(["a", "b"])
        row = shapley_sampled(
            lambda X: X.sum(axis=1),
            rng.normal(size=2),
            BackgroundSet(rng.normal(size=(5, 2))),
            grouping=grouping,
            n_permutations=10,
            seed=1,
            instance_id="inst-1",
        )
        path = tmp_path / "att.csv"
        target = AttributionTarget(horizon=Horizon.LONG, impact_class=ImpactClass.BT)
        other = AttributionTarget(horizon=Horizon.SHORT, impact_class=ImpactClass.VT)
        _write_csv(path, *attribution_rows([(target, [row]), (other, [row])], grouping))
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "instance_id,group,feature_value,phi,std_err,"
            "base_value,model_output,horizon,class"
        )
        assert len(lines) == 5
        assert lines[1].startswith("inst-1,a,")
        assert lines[1].endswith("long,BT")
        assert lines[3].endswith("short,VT")
        assert lines[1].rsplit(",", 2)[0] == lines[3].rsplit(",", 2)[0]

    def test_svg_deterministic(self, tmp_path):
        rng = np.random.default_rng(51)
        grouping = FeatureGrouping.singletons(["a", "b", "c"])
        rows = [
            shapley_exact(
                lambda X: X @ np.array([1.0, 2.0, -1.0]),
                rng.normal(size=3),
                BackgroundSet(rng.normal(size=(8, 3))),
                grouping=grouping,
                instance_id=f"p{i}",
            )
            for i in range(6)
        ]
        p1, p2 = tmp_path / "a.svg", tmp_path / "b.svg"
        render_beeswarm_svg(p1, rows, grouping, top_k=3, title="t")
        render_beeswarm_svg(p2, rows, grouping, top_k=3, title="t")
        assert p1.read_bytes() == p2.read_bytes()
        content = p1.read_text()
        assert content.startswith("<svg") and "<circle" in content
