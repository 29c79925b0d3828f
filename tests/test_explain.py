"""Shapley attribution tests: axioms, sampling accuracy, exports."""

from __future__ import annotations

import numpy as np
import pytest

from patimpact.corpus import Horizon, ImpactClass
from patimpact.explain import (
    AttributionTarget,
    BackgroundSet,
    FeatureGrouping,
    attribution_rows,
    default_grouping,
    global_importance,
    group_summary,
    render_beeswarm_svg,
    shapley_exact,
    shapley_sampled,
)
from patimpact.indicators import N_FEATURES
from patimpact.mtl import (
    INFERENCE_BLOCK_ROWS,
    MtlModel,
    NetworkConfig,
    TrainConfig,
    infer_proba,
    init_network,
    train,
)
from patimpact.tables import write_csv

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
        background = BackgroundSet(X[-40:])
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
        # 6,000-row coalition batches; one forward each would hold 14 MB of
        # activations, one 256-row block 0.9 MB
        peak = traced_peak_bytes(
            lambda: shapley_sampled(model, instance, background, target=target, n_permutations=2)
        )
        assert peak < 4e6


MULTI_TARGETS = [
    AttributionTarget(horizon=Horizon.SHORT, impact_class=ImpactClass.BT),
    AttributionTarget(horizon=Horizon.MID, impact_class=ImpactClass.VT),
    AttributionTarget(horizon=Horizon.LONG, impact_class=ImpactClass.BT),
    AttributionTarget(horizon=Horizon.MID, impact_class=ImpactClass.BT),
]


class TestSharedPermutations:
    def test_each_target_equals_its_single_target_run(self, trained):
        model, X = trained
        background = BackgroundSet(X[-40:])
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

    @pytest.mark.parametrize("background_size", [None, 9])
    def test_efficiency_and_model_output_per_target(self, trained, background_size):
        model, X = trained
        background = BackgroundSet(X[-40:])
        instance = X[11]
        rows = shapley_sampled(
            model, instance, background, target=MULTI_TARGETS, n_permutations=25, seed=6,
            background_size=background_size,
        )
        for target, row in zip(MULTI_TARGETS, rows):
            assert row.efficiency_gap() < 1e-9
            h = target.horizon
            prob = infer_proba(model, instance.reshape(1, -1), (h,))[h]
            assert row.model_output == pytest.approx(
                float(prob[0, int(target.impact_class)]), abs=1e-12
            )

    def test_callable_has_one_output(self, toy_background, toy_instance):
        two = [MULTI_TARGETS[0], MULTI_TARGETS[1]]
        with pytest.raises(ValueError, match="one output"):
            shapley_sampled(toy_model, toy_instance, toy_background, target=two, n_permutations=2)


def every_row_shapley(
    model, instance, background, targets, n_permutations, seed, grouping=None,
    background_size=None,
):
    """`shapley_sampled` that sends every coalition row of every permutation
    to the model, a trained model's probabilities read through `infer_proba`
    in blocks of INFERENCE_BLOCK_ROWS rows: the oracle for the rows that
    `shapley_sampled` skips. Each permutation draws its background rows as
    the estimator does, or takes the whole pool, and starts from their mean
    output. Gives (phi, std_err, base_value, model_output), each with one
    entry per target."""
    if isinstance(model, MtlModel):
        tasks = tuple(dict.fromkeys(t.horizon for t in targets))

        def f(X):
            out = np.empty((len(targets), X.shape[0]))
            for start in range(0, X.shape[0], INFERENCE_BLOCK_ROWS):
                rows = slice(start, start + INFERENCE_BLOCK_ROWS)
                probs = infer_proba(model, X[rows], tasks)
                for k, t in enumerate(targets):
                    out[k, rows] = probs[t.horizon][:, int(t.impact_class)]
            return out
    else:
        def f(X):
            return np.asarray(model(X), dtype=np.float64).reshape(1, -1)
    if grouping is None:
        grouping = default_grouping() if instance.size == N_FEATURES else (
            FeatureGrouping.singletons([f"x{i}" for i in range(instance.size)])
        )
    g, pool = grouping.n_groups, background.matrix
    n_pool, d = pool.shape
    m = n_pool if background_size is None else min(background_size, n_pool)
    rng = np.random.default_rng(seed)
    n_out = 1 if targets is None else len(targets)
    member = np.zeros((g, d), dtype=bool)
    for gi, dims in enumerate(grouping.members):
        member[gi, list(dims)] = True
    composites = np.empty((g, m, d))
    samples = np.empty((n_out, n_permutations, g))
    bases = np.empty((n_out, n_permutations))
    ends = np.empty((n_out, n_permutations))
    for p in range(n_permutations):
        order = rng.permutation(g)
        bg = pool[rng.choice(n_pool, m, replace=False)] if m < n_pool else pool
        joined = np.logical_or.accumulate(member[order], axis=0)
        np.copyto(composites, bg)
        np.copyto(composites, instance, where=joined[:, None, :])
        step_values = f(composites.reshape(g * m, d)).reshape(n_out, g, m).mean(axis=2)
        bases[:, p] = f(bg).mean(axis=1)
        ends[:, p] = step_values[:, -1]
        samples[:, p, order] = np.diff(step_values, axis=1, prepend=bases[:, p, None])
    return (
        [samples[k].mean(axis=0) for k in range(n_out)],
        [samples[k].std(axis=0, ddof=1) / np.sqrt(n_permutations) for k in range(n_out)],
        list(bases.mean(axis=1)),
        list(ends.mean(axis=1)),
    )


def bits(value) -> bytes:
    return np.asarray(value, dtype=np.float64).tobytes()


def assert_equals_every_row_oracle(rows, oracle) -> None:
    """Each row's four fields equal the `every_row_shapley` oracle's entries
    for it bit for bit."""
    for k, row in enumerate(rows):
        for field, want in zip(("phi", "std_err", "base_value", "model_output"), oracle):
            assert bits(getattr(row, field)) == bits(want[k]), (k, field)


def sharing_backgrounds(X, instance, seed):
    """Backgrounds of 40 rows of ``X`` (default grouping: 1,200-row batches):
    one that shares the instance's values on some groups of most rows, one
    that also holds the instance itself, and one that shares nothing."""
    rng = np.random.default_rng(seed)
    rows = X[rng.choice(len(X), size=40, replace=False)]
    shared = rows.copy()
    for r, dims in enumerate(default_grouping().members * 2):
        picked = list(dims) if r % 3 else list(dims) + [int(rng.integers(X.shape[1]))]
        shared[r % 40, picked] = instance[picked]
    with_instance = shared.copy()
    with_instance[7] = instance
    disjoint = rng.normal(size=rows.shape)
    return {"sharing": shared, "with-instance": with_instance, "disjoint": disjoint}


def assert_batch_layout(batches, pool, instance, n_permutations, seed, m):
    """The batches a callable saw: the instance once, then one batch per
    permutation, its ``m`` background rows (drawn from ``pool``, or the whole
    pool), then its new coalition rows, padded to a multiple of 4 rows with
    copies of rows it holds."""
    assert len(batches) == 1 + n_permutations
    assert len(batches[0]) == 4 and (batches[0] == instance).all()
    rng = np.random.default_rng(seed)
    for batch in batches[1:]:
        order = rng.permutation(instance.size)
        bg = pool[rng.choice(len(pool), size=m, replace=False)] if m < len(pool) else pool
        new_rows = new_coalition_rows(bg, instance, order)
        n = m + len(new_rows)
        assert len(batch) == -(-n // 4) * 4
        assert np.array_equal(batch[:m], bg)
        assert np.array_equal(batch[m:n], np.array(new_rows).reshape(-1, instance.size))
        assert all(any((row == kept).all() for kept in batch[:n]) for row in batch[n:])


def new_coalition_rows(bg, instance, order) -> list[np.ndarray]:
    """The coalition rows of one permutation of singleton groups that the
    model must see: each join's rows that differ from the row before it and
    from the instance, in join order."""
    before = bg.copy()
    new_rows = []
    for gi in order:
        after = before.copy()
        after[:, gi] = instance[gi]
        for r in range(len(bg)):
            if after[r].tobytes() not in (before[r].tobytes(), instance.tobytes()):
                new_rows.append(after[r])
        before = after
    return new_rows


def oracle_cases(kinds, sizes):
    """(kind, draw size) parameters; a case without a draw keeps the kind as its id."""
    return [
        pytest.param(kind, size, id=kind if size is None else f"{kind}-{size}")
        for kind in kinds for size in sizes
    ]


class TestKnownRowsSkipped:
    """`shapley_sampled` evaluates each distinct coalition row once."""

    # draws of a multiple of 4 rows keep the oracle's own forwards under the
    # BLAS row rule
    @pytest.mark.parametrize(
        "kind, size", oracle_cases(("sharing", "with-instance", "disjoint"), (None, 8, 12))
    )
    def test_trained_model_equals_every_row_oracle_bit_for_bit(self, trained, kind, size):
        model, X = trained
        instance = X[12]
        background = BackgroundSet(sharing_backgrounds(X, instance, 5)[kind])
        rows = shapley_sampled(
            model, instance, background, target=MULTI_TARGETS, n_permutations=12, seed=6,
            background_size=size,
        )
        assert_equals_every_row_oracle(rows, every_row_shapley(
            model, instance, background, MULTI_TARGETS, 12, 6, background_size=size
        ))

    @pytest.mark.parametrize(
        "kind, size",
        oracle_cases(("sharing", "with-instance", "disjoint"), (None,))
        + oracle_cases(("with-instance",), (7,)),
    )
    def test_callable_equals_every_row_oracle_bit_for_bit(self, toy_background, kind, size):
        instance = np.clip(np.random.default_rng(2).normal(size=10), -1.5, 1.5)
        bg = toy_background.matrix.copy()
        if kind != "disjoint":
            bg[::2, :5] = instance[:5]
            bg[1::3, 6] = instance[6]
        if kind == "with-instance":
            bg[4] = instance
        background = BackgroundSet(bg)
        row = shapley_sampled(
            toy_model, instance, background, n_permutations=15, seed=3, background_size=size
        )
        assert_equals_every_row_oracle([row], every_row_shapley(
            toy_model, instance, background, None, 15, 3, background_size=size
        ))

    def test_a_dim_outside_every_group_keeps_a_row_from_becoming_the_instance(
        self, toy_background
    ):
        instance = np.clip(np.random.default_rng(6).normal(size=10), -1.5, 1.5)
        bg = toy_background.matrix.copy()
        # every other row equals the instance except on dim 6, which no group holds
        others = [i for i in range(10) if i != 6]
        bg[::2, others] = instance[others]
        grouping = FeatureGrouping(
            names=tuple(f"x{i}" for i in others), members=tuple((i,) for i in others)
        )
        background = BackgroundSet(bg)
        row = shapley_sampled(
            toy_model, instance, background, grouping=grouping, n_permutations=6, seed=2
        )
        assert_equals_every_row_oracle([row], every_row_shapley(
            toy_model, instance, background, None, 6, 2, grouping
        ))

    def test_each_batch_holds_exactly_its_new_rows_that_are_not_the_instance(
        self, toy_background
    ):
        instance = np.clip(np.random.default_rng(4).normal(size=10), -1.5, 1.5)
        bg = toy_background.matrix[:29].copy()
        bg[::2, :4] = instance[:4]
        bg[3] = instance
        batches = []

        def counting_model(X):
            batches.append(X.copy())
            return toy_model(X)

        shapley_sampled(counting_model, instance, BackgroundSet(bg), n_permutations=9, seed=8)
        # every permutation sends all 29 background rows, then its new rows
        assert_batch_layout(batches, bg, instance, n_permutations=9, seed=8, m=29)

    def test_callable_of_the_wrong_length_is_an_error(self, toy_background, toy_instance):
        # the instance goes to the model first, as 4 rows
        with pytest.raises(ValueError, match="gave 3 outputs for 4 rows"):
            shapley_sampled(
                lambda X: toy_model(X[:-1]), toy_instance, toy_background, n_permutations=2
            )


def tanh_model(X: np.ndarray) -> np.ndarray:
    """A model in which every non-dummy dim interacts with every other one, so
    that each of their permutation samples varies; dims 7..9 are dummies."""
    return np.tanh(X @ np.array([1.0, -0.8, 0.6, 0.5, -0.4, 0.3, 0.7, 0.0, 0.0, 0.0]))


class TestPerPermutationBackground:
    """With a `background_size` below the background's row count, each
    permutation draws its own background rows from it, the pool."""

    def test_each_permutation_sends_its_drawn_rows_and_only_the_coalition_rows_it_needs(
        self, toy_background
    ):
        instance = np.clip(np.random.default_rng(4).normal(size=10), -1.5, 1.5)
        pool = toy_background.matrix.copy()
        pool[::2, :4] = instance[:4]
        pool[3] = instance
        batches = []

        def counting_model(X):
            batches.append(X.copy())
            return toy_model(X)

        shapley_sampled(
            counting_model, instance, BackgroundSet(pool), n_permutations=9, seed=8,
            background_size=7,
        )
        assert_batch_layout(batches, pool, instance, n_permutations=9, seed=8, m=7)

    @pytest.mark.parametrize("extra", [0, 1, 50])
    def test_a_pool_no_larger_than_the_draw_gives_the_bytes_of_no_draw(
        self, trained, toy_background, extra
    ):
        model, X = trained
        instance = X[12]
        pool = BackgroundSet(sharing_backgrounds(X, instance, 5)["with-instance"])
        want, got = (
            shapley_sampled(
                model, instance, pool, target=MULTI_TARGETS, n_permutations=12, seed=6,
                background_size=size,
            )
            for size in (None, len(pool.matrix) + extra)
        )
        for a, b in zip(want, got):
            for field in ("phi", "std_err", "base_value", "model_output"):
                assert bits(getattr(a, field)) == bits(getattr(b, field))

        # and a callable sees the same batches
        def batches(size) -> list[np.ndarray]:
            seen = []

            def counting_model(X):
                seen.append(X.copy())
                return toy_model(X)

            shapley_sampled(
                counting_model, X[0, :10], toy_background, n_permutations=5, seed=3,
                background_size=size,
            )
            return seen

        no_draw, undrawn = batches(None), batches(len(toy_background.matrix) + extra)
        assert len(no_draw) == len(undrawn)
        assert all(map(np.array_equal, no_draw, undrawn))

    def test_efficiency_with_a_dim_outside_every_group(self, toy_background, toy_instance):
        # the last coalition keeps the drawn rows' dim 6, so its value
        # depends on the draw
        others = [i for i in range(10) if i != 6]
        grouping = FeatureGrouping(
            names=tuple(f"x{i}" for i in others), members=tuple((i,) for i in others)
        )
        row = shapley_sampled(
            toy_model, toy_instance, toy_background, grouping=grouping, n_permutations=20,
            seed=2, background_size=4,
        )
        assert row.efficiency_gap() < 1e-9

    def test_converges_to_exact_enumeration_over_the_whole_pool(
        self, toy_background, toy_instance
    ):
        exact = shapley_exact(toy_model, toy_instance, toy_background)
        sampled = shapley_sampled(
            toy_model, toy_instance, toy_background, n_permutations=4000, seed=7,
            background_size=5,
        )
        assert np.all(np.abs(sampled.phi - exact.phi) <= 4 * sampled.std_err + 1e-12)
        np.testing.assert_allclose(sampled.phi, exact.phi, atol=0.02)
        assert sampled.base_value == pytest.approx(exact.base_value, abs=0.02)
        assert sampled.model_output == pytest.approx(exact.model_output, abs=1e-12)
        assert sampled.efficiency_gap() < 1e-9

    def test_standard_errors_are_calibrated_across_seeds(self):
        pool = np.random.default_rng(0).normal(0.0, 0.8, size=(200, 10))
        instance = np.clip(np.random.default_rng(1).normal(size=10), -1.5, 1.5)

        def z_variance(estimate) -> float:
            # z of each seed pair's difference; the dummies have std_err 0
            z = []
            for pair in range(20):
                a, b = (estimate(seed) for seed in (2 * pair, 2 * pair + 1))
                se = np.sqrt(a.std_err ** 2 + b.std_err ** 2)
                z.extend((a.phi - b.phi)[se > 0] / se[se > 0])
            assert len(z) == 20 * 7
            return float(np.var(z))

        drawn = z_variance(lambda seed: shapley_sampled(
            tanh_model, instance, BackgroundSet(pool), n_permutations=40, seed=seed,
            background_size=10,
        ))
        assert 0.5 <= drawn <= 2
        # one fixed background per seed: its std_err leaves the background out
        fixed = z_variance(lambda seed: shapley_sampled(
            tanh_model, instance,
            BackgroundSet(pool[np.random.default_rng(seed).choice(len(pool), 10, replace=False)]),
            n_permutations=40, seed=seed,
        ))
        assert fixed > 2

    def test_a_draw_size_below_one_is_an_error(self, toy_background, toy_instance):
        with pytest.raises(ValueError, match="background_size"):
            shapley_sampled(
                toy_model, toy_instance, toy_background, n_permutations=2, background_size=0
            )


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
        write_csv(path, *attribution_rows([(target, [row]), (other, [row])], grouping))
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
