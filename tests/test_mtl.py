"""Network, loss, training and gradient tests."""

from __future__ import annotations

import json
import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from patimpact.corpus import HORIZONS, Horizon, ImpactClass
from patimpact.indicators import fit_standardizer
from patimpact.mtl import (
    CHECKPOINT_SCHEMA,
    INFERENCE_BLOCK_ROWS,
    MISSING_LABEL,
    DenseLayer,
    EpochStats,
    JSON_FIELDS,
    MtlModel,
    NetworkConfig,
    TrainConfig,
    _Adam,
    _batch_step,
    _forward,
    _inverse_frequency_weights,
    _labels,
    _stratified_split,
    _zero_model,
    gradient_check,
    infer_logits,
    infer_proba,
    init_network,
    load_checkpoint,
    predict_batch,
    save_checkpoint,
    to_json,
    train,
    train_stl,
    training_log_rows,
)
from patimpact.seeding import derive_seed, derived_rng
from patimpact.tables import from_json, write_csv

from conftest import softmax, traced_peak_bytes

ALL_TASKS = dict.fromkeys(HORIZONS)


def small_config(seed=0, dropout=0.0, input_dim=10):
    return NetworkConfig(
        input_dim=input_dim,
        shared_layer_widths=(8,),
        task_head_widths={h: (5,) for h in HORIZONS},
        shared_dropout_rate=dropout,
        seed=seed,
    )


def loop_forward(model, X, dropout_rng=None, tasks=None):
    """An allocating forward that keeps every layer's input and pre-activation
    and draws a new dropout mask array per layer: the oracle for
    `infer_logits` and for the activations `_forward` returns. It runs in
    the dtype of the model's weights; dropout's uniforms are float64 draws
    compared with the rate in float64."""
    rate = model.config.shared_dropout_rate
    cache = SimpleNamespace(shared_inputs=[], shared_pre=[], dropout_masks=[],
                            head_inputs={}, head_pre={}, logits={})
    a = np.asarray(X, dtype=model.shared[0].W.dtype)
    for layer in model.shared:
        cache.shared_inputs.append(a)
        z = a @ layer.W + layer.b
        cache.shared_pre.append(z)
        a = np.maximum(z, 0.0)
        mask = None
        if dropout_rng is not None and rate > 0.0:
            mask = (dropout_rng.random(a.shape) >= rate).astype(a.dtype) / (1.0 - rate)
            a = a * mask
        cache.dropout_masks.append(mask)
    cache.trunk_out = a
    for task in tasks if tasks is not None else model.tasks:
        a, layers = cache.trunk_out, model.heads[task]
        inputs, pres = cache.head_inputs[task], cache.head_pre[task] = [], []
        for layer in layers[:-1]:
            inputs.append(a)
            z = a @ layer.W + layer.b
            pres.append(z)
            a = np.maximum(z, 0.0)
        inputs.append(a)
        cache.logits[task] = a @ layers[-1].W + layers[-1].b
    return cache


def loop_backward(model, cache, labels, weights, tasks, class_weights=None):
    """Per-array gradients keyed by parameter name, each summed into its own
    zero array: the oracle for the gradients written into the flat vector."""
    grads = {name: np.zeros_like(arr) for name, arr in model.parameters()}
    d_trunk = np.zeros_like(cache.trunk_out)
    for task in tasks:
        w_task = float(weights.get(task, 0.0))
        y = labels[task]
        valid = y != MISSING_LABEL
        if w_task == 0.0 or not valid.any():
            continue
        dlogits = softmax(cache.logits[task])
        rows = np.flatnonzero(valid)
        dlogits[rows, y[valid]] -= 1.0
        if class_weights is not None and task in class_weights:
            w_inst = np.zeros(len(y))
            w_inst[rows] = class_weights[task][y[valid]]
            dlogits *= (w_task / w_inst.sum()) * w_inst[:, None]
        else:
            dlogits[~valid] = 0.0
            # the scale is a float64 column, as `train`'s per-row loss weights are
            dlogits *= np.full((len(y), 1), w_task / int(valid.sum()))
        layers = model.heads[task]
        delta = dlogits
        for i in range(len(layers) - 1, -1, -1):
            grads[f"head.{task.key}.{i}.W"] += cache.head_inputs[task][i].T @ delta
            grads[f"head.{task.key}.{i}.b"] += delta.sum(axis=0)
            delta = delta @ layers[i].W.T
            if i > 0:
                delta = delta * (cache.head_pre[task][i - 1] > 0)
        d_trunk = d_trunk + delta
    delta = d_trunk
    for i in range(len(model.shared) - 1, -1, -1):
        if cache.dropout_masks[i] is not None:
            delta = delta * cache.dropout_masks[i]
        delta = delta * (cache.shared_pre[i] > 0)
        grads[f"shared.{i}.W"] += cache.shared_inputs[i].T @ delta
        grads[f"shared.{i}.b"] += delta.sum(axis=0)
        if i > 0:
            delta = delta @ model.shared[i].W.T
    return grads


def loop_loss(logits, y, class_weights=None):
    """Mean cross-entropy over the labelled rows of ``y``, weighted by class:
    the log-sum-exp of the max-shifted logits less the label's shifted logit.
    The oracle for the losses that `train` records."""
    valid = y != MISSING_LABEL
    if not valid.any():
        return 0.0
    z = logits - logits.max(axis=1, keepdims=True)
    ce = np.log(np.exp(z).sum(axis=1))[valid] - z[valid, y[valid]]
    w = np.ones(len(ce)) if class_weights is None else class_weights[y[valid]]
    return float((ce * w).sum() / w.sum())


def loop_optimizer_step(state, model, grads, cfg):
    """One Adam (or SGD) step, array by array, with moments keyed by name."""
    beta1, beta2, epsilon = 0.9, 0.999, 1e-7
    state["t"] += 1
    b1c = 1.0 - beta1 ** state["t"]
    b2c = 1.0 - beta2 ** state["t"]
    for name, arr in model.parameters():
        g = grads[name]
        if cfg.optimizer == "sgd":
            arr -= cfg.learning_rate * g
            continue
        m = state["m"].setdefault(name, np.zeros_like(arr))
        v = state["v"].setdefault(name, np.zeros_like(arr))
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * g * g
        arr -= cfg.learning_rate * (m / b1c) / (np.sqrt(v / b2c) + epsilon)


def float32_copy(model):
    """A model of float32 copies of ``model``'s weights, each its own array."""
    def copies(layers):
        return [DenseLayer(W=layer.W.astype(np.float32), b=layer.b.astype(np.float32))
                for layer in layers]

    return MtlModel(config=model.config, shared=copies(model.shared),
                    heads={t: copies(model.heads[t]) for t in model.tasks}, flat=None)


def loop_train(model, X, labels, cfg):
    """`train` with the allocating forward, per-array gradients and optimizer
    steps: its oracle. It steps on a float32 copy of the model's weights and
    writes the best epoch's copy back."""
    tasks = [t for t in model.tasks if cfg.weight(t) > 0]
    y = {t: np.asarray(labels[t]) for t in tasks}
    stratify = Horizon.LONG if Horizon.LONG in tasks else tasks[-1]
    train_idx, val_idx = _stratified_split(
        y[stratify], cfg.validation_fraction, derive_seed(cfg.seed, "valsplit")
    )
    class_weights = None
    if cfg.class_weighting:
        class_weights = {t: _inverse_frequency_weights(y[t][train_idx]) for t in tasks}
    X_tr, X_val = X[train_idx], X[val_idx]
    y_tr = {t: y[t][train_idx] for t in tasks}
    y_val = {t: y[t][val_idx] for t in tasks}
    shuffle_rng = derived_rng(cfg.seed, "shuffle")
    dropout_rng = derived_rng(cfg.seed, "dropout")
    state = {"t": 0, "m": {}, "v": {}}
    best_val, since = math.inf, 0
    work = float32_copy(model)
    best = [arr.copy() for _, arr in work.parameters()]
    model.history = []
    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.permutation(len(X_tr))
        sums = {t: 0.0 for t in tasks}
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            yb = {t: y_tr[t][batch] for t in tasks}
            cache = loop_forward(work, X_tr[batch], dropout_rng, tasks=tasks)
            per_task = {
                t: loop_loss(cache.logits[t], yb[t], (class_weights or {}).get(t)) for t in tasks
            }
            grads = loop_backward(work, cache, yb, cfg.task_loss_weights, tasks, class_weights)
            loop_optimizer_step(state, work, grads, cfg)
            for t in tasks:
                sums[t] += per_task[t]
            n_batches += 1
        train_per_task = {t: sums[t] / n_batches for t in tasks}
        val_cache = loop_forward(work, X_val, tasks=tasks)
        val_per_task = {
            t: loop_loss(val_cache.logits[t], y_val[t], (class_weights or {}).get(t))
            for t in tasks
        }
        val_total = sum(cfg.weight(t) * val_per_task[t] for t in tasks)
        model.history.append(EpochStats(
            epoch=epoch,
            train_loss_total=sum(cfg.weight(t) * train_per_task[t] for t in tasks),
            val_loss_total=val_total,
            train_loss_per_task=train_per_task,
            val_loss_per_task=val_per_task,
        ))
        if val_total < best_val:
            best_val, since = val_total, 0
            best = [arr.copy() for _, arr in work.parameters()]
        else:
            since += 1
            if since > cfg.early_stop_patience:
                break
    for (_, arr), saved in zip(model.parameters(), best):
        arr[...] = saved
    return model


def batch_step(model, X, y, weights, class_weights=None, grad=None, dropout_rng=None):
    """`_batch_step` on one batch of every row of ``X``, for the tasks of
    ``weights`` in model order, with labels built as `train` builds them.
    Returns the weighted loss, the per-task losses and ``grad`` (by default a
    new model of ``model``'s dtype) holding the gradient."""
    tasks = [t for t in model.tasks if t in weights]
    n_classes = model.config.classes_per_task
    labels = [_labels(np.asarray(y[t]), (class_weights or {}).get(t), n_classes) for t in tasks]
    w = [float(weights[t]) for t in tasks]
    grad = grad if grad is not None else _zero_model(model.config, model.flat.dtype)
    losses = _batch_step(model, X, tasks, labels, w, grad, dropout_rng)
    return sum(wk * loss for wk, loss in zip(w, losses)), dict(zip(tasks, losses)), grad


def separable_data(n=500, input_dim=10, seed=0):
    """Three well-separated Gaussian blobs; same labels for every task."""
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, 3, size=n)
    X = rng.normal(0.0, 0.5, size=(n, input_dim))
    for c in range(3):
        X[labels == c, c] += 4.0
    return X, {h: labels.copy() for h in HORIZONS}


class TestInit:
    def test_parameter_count_shape_walk(self):
        # oracle: walk the documented widths independently of the model code
        def walk():
            total, fan = 0, 44
            for w in (128, 64):
                total += fan * w + w
                fan = w
            for widths in ((64, 32), (64,), (64, 32)):
                f = 64
                for w in widths:
                    total += f * w + w
                    f = w
                total += f * 3 + 3
            return total

        model = init_network(NetworkConfig(seed=1))
        assert model.flat.size == walk() == 31049

    def test_same_seed_identical(self):
        a = init_network(NetworkConfig(seed=9))
        b = init_network(NetworkConfig(seed=9))
        for (na, pa), (nb, pb) in zip(a.parameters(), b.parameters()):
            assert na == nb
            assert np.array_equal(pa, pb)

    def test_different_seed_differs(self):
        a = init_network(NetworkConfig(seed=1))
        b = init_network(NetworkConfig(seed=2))
        assert any(
            not np.array_equal(pa, pb)
            for (_, pa), (_, pb) in zip(a.parameters(), b.parameters())
        )

    def test_biases_zero_weights_symmetric(self):
        model = init_network(small_config(seed=3))
        for name, arr in model.parameters():
            if name.endswith(".b"):
                assert np.all(arr == 0.0)
            else:
                limit = math.sqrt(6.0 / arr.shape[0])
                assert np.all(np.abs(arr) <= limit)

    def test_zero_width_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(shared_layer_widths=(128, 0))
        with pytest.raises(ValueError):
            NetworkConfig(task_head_widths={Horizon.SHORT: (0,)})

    def test_no_heads_rejected(self):
        with pytest.raises(ValueError):
            NetworkConfig(task_head_widths={})


class TestSoftmax:
    def test_symmetry_and_closed_form(self):
        np.testing.assert_allclose(softmax(np.zeros(3)), np.ones(3) / 3, atol=1e-15)
        p = softmax(np.array([5.0, 0.0, 0.0]))
        assert p[0] == pytest.approx(math.exp(5) / (math.exp(5) + 2), abs=1e-12)

    def test_invariants_on_10000_random_triples(self):
        rng = np.random.default_rng(12)
        logits = rng.normal(0, 50, size=(10_000, 3))
        probs = softmax(logits)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
        assert np.all(probs >= 0) and np.all(probs <= 1)
        shifts = rng.normal(0, 100, size=(10_000, 1))
        np.testing.assert_allclose(probs, softmax(logits + shifts), atol=1e-12)

    def test_extreme_logits_stable(self):
        p = softmax(np.array([1e5, 0.0, -1e5]))
        assert np.all(np.isfinite(p))
        assert p[0] == pytest.approx(1.0)

    def test_log_softmax_never_minus_inf_for_finite_logits(self):
        # the training loss takes the log-softmax from the shifted logits,
        # so even a label 1600 nats down costs a finite amount
        model = constant_logits_model([800.0, 0.0, -800.0])
        for label, want in enumerate((0.0, 800.0, 1600.0)):
            y = {Horizon.SHORT: np.array([label])}
            _, losses, _ = batch_step(model, np.zeros((1, 10)), y, {Horizon.SHORT: 1.0})
            assert losses[Horizon.SHORT] == pytest.approx(want, abs=1e-12)


class TestForwardPredict:
    def test_tie_goes_to_lowest_class(self):
        model = init_network(small_config(seed=0))
        # all-equal logits on a fresh zero-bias model with zero input
        X = np.zeros((2, 10))
        for probs in infer_proba(model, X).values():
            np.testing.assert_allclose(probs, 1 / 3, atol=1e-12)
        for preds in predict_batch(model, X).values():
            assert preds.tolist() == [ImpactClass.MT, ImpactClass.MT]

    def test_predict_consistent_with_forward_on_1000_inputs(self):
        model = init_network(small_config(seed=4))
        rng = np.random.default_rng(0)
        X = rng.normal(size=(1000, 10))
        batch_preds = predict_batch(model, X)
        probs = infer_proba(model, X)
        for h in HORIZONS:
            assert np.array_equal(batch_preds[h], np.argmax(probs[h], axis=1))
        for start in range(0, 1000, 97):
            chunk = predict_batch(model, X[start : start + 97])
            for h in HORIZONS:
                assert np.array_equal(chunk[h], batch_preds[h][start : start + 97])

    def test_argmax_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(5)
        logits = rng.normal(size=(500, 3))
        for transform in (lambda z: 2 * z + 3, np.exp, lambda z: z**3):
            a = np.argmax(softmax(logits), axis=1)
            b = np.argmax(softmax(transform(logits)), axis=1)
            assert np.array_equal(a, b)

    def test_dropout_only_in_training(self):
        model = init_network(small_config(seed=1, dropout=0.5))
        X = np.ones((4, 10))
        heads = [model.heads[h] for h in HORIZONS]
        plain = _forward(model, X, heads)
        assert plain.masks == []
        c = _forward(model, X, heads, np.random.default_rng(0))
        d = _forward(model, X, heads, np.random.default_rng(0))
        ref = loop_forward(model, X, np.random.default_rng(0))
        assert len(c.masks) == len(model.shared)
        for got, want in zip(c.masks, ref.dropout_masks):
            assert np.array_equal(got, want)
        inferred = infer_logits(model, X)
        for k, h in enumerate(HORIZONS):
            np.testing.assert_array_equal(plain.heads[k][-1], loop_forward(model, X).logits[h])
            np.testing.assert_array_equal(inferred[h], plain.heads[k][-1])
            np.testing.assert_array_equal(c.heads[k][-1], d.heads[k][-1])
            np.testing.assert_array_equal(c.heads[k][-1], ref.logits[h])
            assert not np.array_equal(c.heads[k][-1], plain.heads[k][-1])
        # a rate of 0 draws no masks, even given a dropout stream
        model = init_network(small_config(seed=1, dropout=0.0))
        heads = [model.heads[h] for h in HORIZONS]
        assert _forward(model, X, heads, np.random.default_rng(0)).masks == []


class TestInferenceForward:
    @pytest.mark.parametrize(
        "config",
        [
            NetworkConfig(seed=3),
            NetworkConfig(seed=4, task_head_widths={Horizon.MID: (64,)}),
            NetworkConfig(
                seed=5,
                shared_layer_widths=(20, 12),
                task_head_widths={Horizon.SHORT: (7,), Horizon.MID: (), Horizon.LONG: (9, 5, 3)},
            ),
        ],
        ids=["mtl-default", "stl-mid", "custom-heads"],
    )
    def test_equals_loop_forward(self, config):
        model = init_network(config)
        rng = np.random.default_rng(8)
        for _, arr in model.parameters():  # nonzero biases exercise the bias add
            arr += rng.normal(0.0, 0.1, size=arr.shape)
        for n in (3000, 100, 3000):
            X = rng.normal(size=(n, config.input_dim))
            ref = loop_forward(model, X)
            got = infer_proba(model, X)
            assert list(got) == list(model.tasks)
            for task in model.tasks:
                assert got[task].shape == (n, 3)
                assert np.array_equal(got[task], softmax(ref.logits[task]))
            preds = predict_batch(model, X)
            for task in model.tasks:
                assert np.array_equal(preds[task], np.argmax(ref.logits[task], axis=1))
                single = infer_proba(model, X, (task,))[task]
                assert np.array_equal(single, softmax(ref.logits[task]))

    def test_task_subset_skips_other_heads(self):
        model = init_network(NetworkConfig(seed=6))
        X = np.random.default_rng(9).normal(size=(50, model.config.input_dim))
        got = infer_proba(model, X, tasks=(Horizon.LONG, Horizon.SHORT))
        assert list(got) == [Horizon.LONG, Horizon.SHORT]


def perturbed_network(seed: int):
    """The default network, with noise on every weight and bias."""
    model = init_network(NetworkConfig(seed=seed))
    rng = np.random.default_rng(seed)
    for _, arr in model.parameters():
        arr += rng.normal(0.0, 0.1, size=arr.shape)
    return model


class TestBlockedPrediction:
    """`predict_batch` runs the network over blocks of INFERENCE_BLOCK_ROWS rows."""

    B = INFERENCE_BLOCK_ROWS

    # one row, then each side of one block's end and of four blocks' end
    @pytest.mark.parametrize(
        "n", [1, B - 1, B, B + 1, 3 * B + 7, 4 * B - 1, 4 * B, 4 * B + 1, 12 * B + 7]
    )
    def test_equals_argmax_of_one_unblocked_forward(self, n):
        model = perturbed_network(13)
        X = np.random.default_rng(n).normal(size=(n, model.config.input_dim))
        preds = predict_batch(model, X)
        logits = infer_logits(model, X)
        assert list(preds) == list(model.tasks)
        for task in model.tasks:
            assert preds[task].shape == (n,)
            assert np.array_equal(preds[task], np.argmax(logits[task], axis=1))

    def test_peak_memory_does_not_grow_with_rows(self):
        model = perturbed_network(14)
        X = np.random.default_rng(14).normal(size=(20_000, model.config.input_dim))
        # one forward over all rows would hold 20,000 x 457 activations: 73 MB;
        # one 256-row block holds 0.9 MB
        assert traced_peak_bytes(lambda: predict_batch(model, X)) < 2.5e6


class TestBlasRowRule:
    """In a forward of a multiple of 4 rows, at most 1,024, a row's outputs
    do not depend on its position, the row order or the row count: the rule
    that `explain.shapley_sampled` relies on with blocks of
    INFERENCE_BLOCK_ROWS rows. Under a BLAS that breaks it, this test fails
    before any Shapley value moves."""

    @pytest.mark.parametrize("block", [4, 8, 12, 100, 508, 1020])
    def test_rows_in_any_order_and_block_equal_a_full_block(self, block):
        model = perturbed_network(15)
        # the rule's upper end, not INFERENCE_BLOCK_ROWS, so that the 508- and
        # 1,020-row blocks each split the reference forward
        n = 1024
        X = np.random.default_rng(block).normal(size=(n, model.config.input_dim))
        want = {task: z.copy() for task, z in infer_logits(model, X).items()}
        order = np.random.default_rng(block + 1).permutation(n)
        # every block, the shorter last one included, holds a multiple of 4 rows
        for start in range(0, n, block):
            rows = order[start:start + block]
            for task, z in infer_logits(model, X[rows]).items():
                assert z.tobytes() == want[task][rows].tobytes(), (task, start)

    def test_inference_blocks_lie_inside_the_rule(self):
        assert INFERENCE_BLOCK_ROWS % 4 == 0 and INFERENCE_BLOCK_ROWS <= 1024


def constant_logits_model(logits):
    """A model whose every head gives ``logits`` for any input."""
    model = init_network(small_config())
    model.flat[...] = 0.0
    for h in HORIZONS:
        model.heads[h][-1].b[...] = logits
    return model


class TestLoss:
    """The loss of `_batch_step`, the step that trains."""

    def _loss(self, logits, label, weights):
        model = constant_logits_model(logits)
        labels = {h: np.full(2, int(label)) for h in HORIZONS}
        return batch_step(model, np.zeros((2, 10)), labels, weights)[0]

    def test_perfect_prediction_zero_loss(self):
        weights = {h: 1.0 for h in HORIZONS}
        assert self._loss([100.0, 0.0, 0.0], ImpactClass.MT, weights) == pytest.approx(
            0.0, abs=1e-12
        )

    def test_uniform_prediction_three_ln_three(self):
        weights = {h: 1.0 for h in HORIZONS}
        assert self._loss([0.0, 0.0, 0.0], ImpactClass.VT, weights) == pytest.approx(
            3 * math.log(3)
        )

    def test_weight_scaling(self):
        weights = {Horizon.SHORT: 2.0, Horizon.MID: 0.0, Horizon.LONG: 0.0}
        assert self._loss([0.0, 0.0, 0.0], ImpactClass.MT, weights) == pytest.approx(
            2 * math.log(3)
        )

    def test_weight_linearity(self):
        rng = np.random.default_rng(8)
        model = init_network(small_config(seed=8))
        X = rng.normal(size=(20, 10))
        labels = {h: rng.integers(0, 3, size=20) for h in HORIZONS}
        w1 = {h: float(rng.uniform(0.1, 2)) for h in HORIZONS}
        w2 = {h: float(rng.uniform(0.1, 2)) for h in HORIZONS}
        w_sum = {h: w1[h] + w2[h] for h in HORIZONS}

        def loss(weights):
            return batch_step(model, X, labels, weights)[0]

        assert loss(w_sum) == pytest.approx(loss(w1) + loss(w2), rel=1e-12)

    def test_missing_label_for_weighted_task(self):
        X, y = separable_data(n=100, seed=0)
        model = init_network(small_config())
        with pytest.raises(ValueError, match="missing labels for task short"):
            train(model, X, {Horizon.MID: y[Horizon.MID]}, TrainConfig())


class TestGradients:
    @pytest.mark.parametrize(
        "class_weighting, masked",
        [(False, 0), (True, 0), (False, 6), (True, 6)],
        ids=["plain", "class-weighted", "masked", "class-weighted-masked"],
    )
    def test_small_net_below_1e4(self, class_weighting, masked):
        rng = np.random.default_rng(0)
        model = init_network(small_config(seed=3))
        X = rng.normal(size=(16, 10))
        y = {h: rng.integers(0, 3, size=16) for h in HORIZONS}
        # the classes are unbalanced, so class weighting changes the loss
        y[Horizon.SHORT][:8] = 0
        y[Horizon.MID][:masked] = MISSING_LABEL
        y[Horizon.LONG][16 - masked:] = MISSING_LABEL
        cfg = TrainConfig(seed=0, class_weighting=class_weighting)
        err = gradient_check(model, X, y, cfg, n_coordinates=250, seed=1)
        assert err < 1e-4

    def test_requires_dropout_off(self):
        model = init_network(small_config(seed=3, dropout=0.5))
        with pytest.raises(ValueError):
            gradient_check(model, np.zeros((4, 10)), {h: [0] * 4 for h in HORIZONS}, TrainConfig())

    def test_zero_weight_task_gets_zero_gradient(self):
        rng = np.random.default_rng(1)
        model = init_network(small_config(seed=5))
        X = rng.normal(size=(8, 10))
        y = {h: rng.integers(0, 3, size=8) for h in HORIZONS}
        weights = {Horizon.SHORT: 1.0, Horizon.MID: 0.0, Horizon.LONG: 0.0}
        _, _, grads = batch_step(model, X, y, weights)
        for name, g in grads.parameters():
            if name.startswith("head.mid") or name.startswith("head.long"):
                assert np.all(g == 0.0)
            elif name.startswith("head.short"):
                assert np.any(g != 0.0)

    def test_first_order_taylor_expansion(self):
        # loss(theta + delta) - loss(theta) ~ g . delta within o(|delta|)
        rng = np.random.default_rng(2)
        model = init_network(small_config(seed=7))
        # jitter to a generic point away from rectifier kinks
        for _, arr in model.parameters():
            arr += rng.normal(0, 0.05, size=arr.shape)
        X = rng.normal(size=(12, 10))
        y = {h: rng.integers(0, 3, size=12) for h in HORIZONS}
        weights = TrainConfig().task_loss_weights
        base, _, grad = batch_step(model, X, y, weights)
        grads = dict(grad.parameters())
        deltas = {name: rng.normal(0, 1e-6, size=arr.shape) for name, arr in model.parameters()}
        predicted_change = sum(
            float((grads[name] * deltas[name]).sum()) for name, _ in model.parameters()
        )
        for name, arr in model.parameters():
            arr += deltas[name]
        actual_change = batch_step(model, X, y, weights)[0] - base
        assert actual_change == pytest.approx(predicted_change, rel=1e-3, abs=1e-12)


class TestTraining:
    def test_separable_data_learns(self):
        X, y = separable_data(n=500, seed=1)
        model = init_network(small_config(seed=2))
        cfg = TrainConfig(seed=3, max_epochs=60, early_stop_patience=60)
        train(model, X, y, cfg)
        preds = predict_batch(model, X)
        for h in HORIZONS:
            accuracy = float(np.mean(preds[h] == y[h]))
            assert accuracy >= 0.95
        losses = np.array([e.train_loss_total for e in model.history])
        assert losses[-1] < 0.1 * losses[0]
        # epoch-averaged loss decreases monotonically until convergence
        # (sub-1e-3 wiggles at the optimization floor are not regressions)
        descending = losses[losses > 0.2]
        assert np.all(np.diff(descending) < 0)
        assert np.mean(np.diff(losses) < 0) > 0.9

    def test_patience_zero_stops_at_first_non_improvement(self):
        # tiny noise-label set with an aggressive learning rate overfits
        # within a few epochs, so validation loss soon fails to improve
        rng = np.random.default_rng(4)
        X = rng.normal(size=(70, 10))
        y = {h: rng.integers(0, 3, size=70) for h in HORIZONS}
        model = init_network(small_config(seed=6))
        cfg = TrainConfig(
            seed=5, max_epochs=200, early_stop_patience=0, learning_rate=2e-2
        )
        train(model, X, y, cfg)
        vals = [e.val_loss_total for e in model.history]
        assert len(vals) < 200
        # every epoch before the last strictly improved the running best
        best = math.inf
        for v in vals[:-1]:
            assert v < best
            best = v
        assert vals[-1] >= best

    def test_best_epoch_parameters_restored(self):
        rng = np.random.default_rng(9)
        X = rng.normal(size=(120, 10))
        y = {h: rng.integers(0, 3, size=120) for h in HORIZONS}
        model = init_network(small_config(seed=8))
        cfg = TrainConfig(seed=7, max_epochs=30, early_stop_patience=3)
        train(model, X, y, cfg)
        vals = [e.val_loss_total for e in model.history]
        best_epoch = int(np.argmin(vals))
        assert min(vals) == vals[best_epoch]
        # retraining up to exactly the best epoch reproduces the parameters
        model2 = init_network(small_config(seed=8))
        cfg2 = TrainConfig(seed=7, max_epochs=best_epoch + 1, early_stop_patience=10**6)
        train(model2, X, y, cfg2)
        for (_, a), (_, b) in zip(model.parameters(), model2.parameters()):
            np.testing.assert_array_equal(a, b)

    def test_deterministic_per_seed(self):
        X, y = separable_data(n=200, seed=10)
        runs = []
        for _ in range(2):
            model = init_network(small_config(seed=11))
            train(model, X, y, TrainConfig(seed=12, max_epochs=5))
            runs.append([arr.copy() for _, arr in model.parameters()])
        for a, b in zip(*runs):
            np.testing.assert_array_equal(a, b)

    def test_too_few_instances(self):
        X, y = separable_data(n=40, seed=0)
        model = init_network(small_config())
        with pytest.raises(ValueError, match="at least"):
            train(model, X, y, TrainConfig(batch_size=32))

    def test_non_finite_loss_aborts(self):
        X, y = separable_data(n=200, seed=13)
        model = init_network(small_config(seed=13))
        cfg = TrainConfig(
            seed=0, max_epochs=8, optimizer="sgd", learning_rate=1e160, batch_size=32
        )
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="non-finite"):
                train(model, X, y, cfg)

    def test_masked_labels_excluded(self):
        X, y = separable_data(n=300, seed=14)
        y = {h: v.copy() for h, v in y.items()}
        # poison half the long labels, then mask them out
        y[Horizon.LONG][:150] = (y[Horizon.LONG][:150] + 1) % 3
        y[Horizon.LONG][:150] = MISSING_LABEL
        model = init_network(small_config(seed=15))
        train(model, X, y, TrainConfig(seed=16, max_epochs=15, early_stop_patience=15))
        preds = predict_batch(model, X[150:])
        accuracy = float(np.mean(preds[Horizon.LONG] == y[Horizon.LONG][150:]))
        assert accuracy >= 0.9

    def test_history_recorded(self):
        X, y = separable_data(n=200, seed=17)
        model = init_network(small_config(seed=18))
        train(model, X, y, TrainConfig(seed=19, max_epochs=4, early_stop_patience=10))
        assert len(model.history) >= 1
        for e in model.history:
            assert set(e.train_loss_per_task) == set(HORIZONS)
            assert math.isfinite(e.val_loss_total)


class TestStlEquivalence:
    def test_stl_equals_mtl_with_single_nonzero_weight(self):
        rng = np.random.default_rng(20)
        X = rng.normal(size=(200, 44))
        y = {h: rng.integers(0, 3, size=200) for h in HORIZONS}
        network = NetworkConfig(seed=21, shared_dropout_rate=0.5)
        mtl_cfg = TrainConfig(
            seed=22,
            max_epochs=6,
            task_loss_weights={Horizon.MID: 1.0, Horizon.SHORT: 0.0, Horizon.LONG: 0.0},
        )
        mtl_model = init_network(network)
        train(mtl_model, X, y, mtl_cfg)
        stl_model = train_stl(
            Horizon.MID, X, y[Horizon.MID], TrainConfig(seed=22, max_epochs=6), network=network
        )
        np.testing.assert_array_equal(
            predict_batch(mtl_model, X)[Horizon.MID],
            predict_batch(stl_model, X)[Horizon.MID],
        )
        np.testing.assert_array_equal(
            infer_proba(mtl_model, X, (Horizon.MID,))[Horizon.MID],
            infer_proba(stl_model, X, (Horizon.MID,))[Horizon.MID],
        )

    def test_stl_learns_separable(self):
        X, y = separable_data(n=300, seed=23)
        model = train_stl(
            Horizon.SHORT,
            X,
            y[Horizon.SHORT],
            TrainConfig(seed=24, max_epochs=25, early_stop_patience=25),
            network=small_config(seed=25),
        )
        preds = predict_batch(model, X)[Horizon.SHORT]
        assert float(np.mean(preds == y[Horizon.SHORT])) >= 0.95
        assert model.tasks == (Horizon.SHORT,)

    def test_stl_deterministic(self):
        X, y = separable_data(n=200, seed=26)
        a = train_stl(Horizon.LONG, X, y[Horizon.LONG], TrainConfig(seed=27, max_epochs=4),
                      network=small_config(seed=28))
        b = train_stl(Horizon.LONG, X, y[Horizon.LONG], TrainConfig(seed=27, max_epochs=4),
                      network=small_config(seed=28))
        for (_, pa), (_, pb) in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)


def noisy_labels(n, seed, missing=0):
    """Random features and labels; the first ``missing`` mid labels are masked."""
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, 10))
    y = {h: rng.integers(0, 3, size=n) for h in HORIZONS}
    y[Horizon.MID][:missing] = MISSING_LABEL
    return X, y


class TestFlatParameters:
    def assert_same_training(self, got, want):
        assert np.array_equal(got.flat, want.flat)
        assert got.history == want.history

    def test_mtl_with_dropout_and_class_weights_matches_loop_oracle(self):
        X, y = noisy_labels(150, seed=50, missing=40)
        network = small_config(seed=51, dropout=0.3)
        cfg = TrainConfig(seed=52, max_epochs=6, batch_size=16, class_weighting=True)
        got = train(init_network(network), X, y, cfg)
        want = loop_train(init_network(network), X, y, cfg)
        self.assert_same_training(got, want)

    def test_stl_matches_loop_oracle(self):
        X, y = noisy_labels(150, seed=53)
        network = small_config(seed=54, dropout=0.5)
        cfg = TrainConfig(seed=55, max_epochs=5, batch_size=16)
        got = train_stl(Horizon.SHORT, X, y[Horizon.SHORT], cfg, network=network)
        single = replace(network, task_head_widths={Horizon.SHORT: (5,)})
        single_cfg = replace(cfg, task_loss_weights={Horizon.SHORT: 1.0})
        want = loop_train(init_network(single), X, {Horizon.SHORT: y[Horizon.SHORT]}, single_cfg)
        self.assert_same_training(got, want)

    def test_sgd_matches_loop_oracle(self):
        X, y = noisy_labels(150, seed=56)
        network = small_config(seed=57)
        cfg = TrainConfig(seed=58, max_epochs=5, batch_size=16, optimizer="sgd",
                          learning_rate=0.05)
        got = train(init_network(network), X, y, cfg)
        want = loop_train(init_network(network), X, y, cfg)
        self.assert_same_training(got, want)

    def test_early_stop_restore_matches_loop_oracle(self):
        X, y = noisy_labels(120, seed=59)
        network = small_config(seed=60)
        cfg = TrainConfig(seed=61, max_epochs=40, batch_size=16, early_stop_patience=2,
                          learning_rate=2e-2)
        got = train(init_network(network), X, y, cfg)
        vals = [e.val_loss_total for e in got.history]
        # the best epoch is not the last one, so train restored an earlier epoch
        assert len(vals) < 40 and int(np.argmin(vals)) < len(vals) - 1
        want = loop_train(init_network(network), X, y, cfg)
        self.assert_same_training(got, want)

    @staticmethod
    def assert_views_alias_flat(model):
        params = model.parameters()
        assert sum(arr.size for _, arr in params) == model.flat.size
        for _, arr in params:
            assert np.shares_memory(arr, model.flat)
        # laid out back to back in parameters() order
        model.flat[...] = np.arange(model.flat.size)
        assert np.array_equal(
            np.concatenate([arr.ravel() for _, arr in params]), np.arange(model.flat.size)
        )

    def test_views_alias_flat_after_init_and_load(self, tmp_path):
        model = init_network(NetworkConfig(seed=62))
        assert model.flat.dtype == np.float64 and model.flat.size == 31049
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(path, model)
        loaded = load_checkpoint(path)
        assert np.array_equal(loaded.flat, model.flat)
        self.assert_views_alias_flat(model)
        self.assert_views_alias_flat(loaded)

    def test_optimizer_steps_once_per_batch(self, monkeypatch):
        steps = []
        step = _Adam.step
        monkeypatch.setattr(_Adam, "step", lambda self, *a: (steps.append(1), step(self, *a)))
        X, y = noisy_labels(150, seed=64)
        cfg = TrainConfig(seed=65, max_epochs=3, batch_size=16, early_stop_patience=3)
        model = train(init_network(small_config(seed=66)), X, y, cfg)
        train_idx, _ = _stratified_split(
            y[Horizon.LONG], cfg.validation_fraction, derive_seed(cfg.seed, "valsplit")
        )
        assert len(model.history) == 3
        assert len(steps) == 3 * math.ceil(len(train_idx) / cfg.batch_size)

    def test_zero_weight_head_gets_zero_gradient_from_a_reused_buffer(self):
        rng = np.random.default_rng(67)
        model = init_network(small_config(seed=68))
        X = rng.normal(size=(8, 10))
        y = {h: rng.integers(0, 3, size=8) for h in HORIZONS}
        _, _, grad = batch_step(model, X, y, {h: 1.0 for h in HORIZONS})
        assert np.any(grad.heads[Horizon.LONG][0].W != 0.0)
        assert np.any(grad.heads[Horizon.MID][0].W != 0.0)
        # a second batch into the same buffer: long has weight 0, mid no valid label
        y[Horizon.MID][:] = MISSING_LABEL
        weights = {Horizon.SHORT: 1.0, Horizon.MID: 1.0, Horizon.LONG: 0.0}
        batch_step(model, X, y, weights, grad=grad)
        want = loop_backward(model, loop_forward(model, X), y, weights, list(HORIZONS))
        for name, g in grad.parameters():
            assert np.array_equal(g, want[name])
            if name.startswith(("head.mid", "head.long")):
                assert np.all(g == 0.0)
            else:
                assert np.any(g != 0.0)

    def test_backward_with_dropout_matches_loop_oracle(self):
        # two trunk layers and two-layer heads: every rectifier is gated by
        # its output, which dropout only ever scales up or zeroes
        network = NetworkConfig(
            input_dim=10, shared_layer_widths=(12, 9), seed=72, shared_dropout_rate=0.4,
            task_head_widths={Horizon.SHORT: (6, 4), Horizon.MID: (), Horizon.LONG: (5,)},
        )
        model = init_network(network)
        rng = np.random.default_rng(73)
        for _, arr in model.parameters():  # nonzero biases put rectifiers both ways
            arr += rng.normal(0.0, 0.2, size=arr.shape)
        X = rng.normal(size=(40, 10))
        y = {h: rng.integers(0, 3, size=40) for h in HORIZONS}
        y[Horizon.MID][:10] = MISSING_LABEL
        weights = {Horizon.SHORT: 1.0, Horizon.MID: 0.5, Horizon.LONG: 2.0}
        class_weights = {h: _inverse_frequency_weights(y[h]) for h in HORIZONS}
        _, _, got = batch_step(
            model, X, y, weights, class_weights, dropout_rng=np.random.default_rng(74)
        )
        cache = loop_forward(model, X, np.random.default_rng(74))
        assert any((m == 0.0).any() for m in cache.dropout_masks)
        want = loop_backward(model, cache, y, weights, list(HORIZONS), class_weights)
        for name, g in got.parameters():
            assert np.array_equal(g, want[name]), name

    def test_zero_weight_heads_keep_their_initial_parameters(self):
        X, y = noisy_labels(150, seed=69)
        model = init_network(small_config(seed=70))
        before = dict((name, arr.copy()) for name, arr in model.parameters())
        weights = {Horizon.MID: 1.0, Horizon.SHORT: 0.0, Horizon.LONG: 0.0}
        train(model, X, y, TrainConfig(seed=71, max_epochs=3, task_loss_weights=weights,
                                       batch_size=16))
        for name, arr in model.parameters():
            unchanged = np.array_equal(arr, before[name])
            assert unchanged == name.startswith(("head.short", "head.long"))


def float32_numbers(values) -> bool:
    return np.array_equal(values.astype(np.float32).astype(values.dtype), values)


class TestFloat32Training:
    """`train` steps in float32 on a copy of the float64 parameters."""

    def test_float32_step_gradient_is_the_checked_float64_gradient(self):
        network = NetworkConfig(seed=80, shared_dropout_rate=0.0)
        model = init_network(network)
        rng = np.random.default_rng(81)
        # a point away from the rectifiers' kinks, still of float32 numbers
        model.flat[...] = (model.flat + rng.normal(0.0, 0.05, model.flat.size)).astype(np.float32)
        X = rng.normal(size=(64, 44))
        y = {h: rng.integers(0, 3, size=64) for h in HORIZONS}
        cfg = TrainConfig(class_weighting=True)
        assert gradient_check(model, X, y, cfg, jitter=0.0, seed=82) < 1e-4
        # the class weights gradient_check builds, so the float64 gradient is the one it checked
        class_weights = {h: _inverse_frequency_weights(y[h]) for h in HORIZONS}
        _, _, want = batch_step(model, X, y, cfg.task_loss_weights, class_weights)
        copy32 = _zero_model(network, np.float32)
        copy32.flat[...] = model.flat
        _, _, got = batch_step(copy32, X, y, cfg.task_loss_weights, class_weights)
        assert got.flat.dtype == np.float32
        relative = np.linalg.norm(got.flat - want.flat) / np.linalg.norm(want.flat)
        assert relative < 1e-5

    def test_init_and_trained_parameters_are_float32_numbers(self):
        model = init_network(NetworkConfig(seed=83))
        assert model.flat.dtype == np.float64 and float32_numbers(model.flat)
        X, y = noisy_labels(150, seed=84)
        cfg = TrainConfig(seed=85, max_epochs=3, batch_size=16, class_weighting=True)
        trained = train(init_network(small_config(seed=86, dropout=0.5)), X, y, cfg)
        assert trained.flat.dtype == np.float64 and float32_numbers(trained.flat)


class TestPersistence:
    def test_checkpoint_roundtrip(self, tmp_path):
        X, y = separable_data(n=120, seed=40)
        model = init_network(small_config(seed=41))
        train(model, X, y, TrainConfig(seed=42, max_epochs=3, batch_size=16))
        # the checkpoint holds the run's one copy of the standardizer
        model.standardizer = fit_standardizer(np.random.default_rng(4).normal(size=(20, 44)))
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(path, model)
        again = load_checkpoint(path)
        for name in ("mean", "std", "degenerate"):
            np.testing.assert_array_equal(
                getattr(again.standardizer, name), getattr(model.standardizer, name)
            )
        for (na, pa), (nb, pb) in zip(model.parameters(), again.parameters()):
            assert na == nb
            np.testing.assert_array_equal(pa, pb)
        np.testing.assert_array_equal(
            predict_batch(model, X)[Horizon.SHORT], predict_batch(again, X)[Horizon.SHORT]
        )
        assert len(again.history) == len(model.history)

    @staticmethod
    def one_shot_text(model) -> str:
        """The checkpoint as one ``json.dumps`` of the whole object: the
        reference for the writer, which streams it piece by piece."""
        obj = {
            "schema": CHECKPOINT_SCHEMA,
            "network": to_json(model.config),
            "standardizer": model.standardizer.to_json_obj() if model.standardizer else None,
            "parameters": [
                {"name": name, "shape": list(arr.shape), "data": arr.ravel().tolist()}
                for name, arr in model.parameters()
            ],
            "history": [to_json(e) for e in model.history],
        }
        return json.dumps(obj, sort_keys=True) + "\n"

    @pytest.mark.parametrize(
        "case", ["untrained", "trained", "standardizer", "custom-heads", "nan-loss"]
    )
    def test_streamed_checkpoint_equals_one_shot_dumps(self, tmp_path, case):
        config = small_config(seed=46)
        if case == "custom-heads":
            config = replace(config, task_head_widths={Horizon.LONG: (6, 3), Horizon.SHORT: ()})
        model = init_network(config)
        if case != "untrained":
            X, y = separable_data(n=120, seed=47)
            labels = {task: y[task] for task in model.tasks}
            train(model, X, labels, TrainConfig(seed=48, max_epochs=3, batch_size=16))
        if case == "standardizer":
            model.standardizer = fit_standardizer(np.random.default_rng(49).normal(size=(20, 44)))
        if case == "nan-loss":
            task = model.tasks[0]
            model.history.append(EpochStats(
                epoch=4, train_loss_total=math.nan, val_loss_total=math.inf,
                train_loss_per_task={task: math.nan}, val_loss_per_task={task: -0.0},
            ))
        assert bool(model.history) == (case != "untrained")
        path = tmp_path / "model.ckpt.json"
        save_checkpoint(path, model)
        assert path.read_bytes() == self.one_shot_text(model).encode("utf-8")

    def test_checkpoint_writer_holds_one_parameter_at_a_time(self, tmp_path):
        model = perturbed_network(16)
        model.standardizer = fit_standardizer(np.random.default_rng(16).normal(size=(20, 44)))
        path = tmp_path / "model.ckpt.json"
        # the default network's 31,049 values: 0.7 MB of text, and a Python
        # float list of them; a one-shot dumps held both, 4.6 MB at its peak
        assert traced_peak_bytes(lambda: save_checkpoint(path, model)) < 2e6
        assert path.stat().st_size > 6e5

    def test_json_codec_roundtrip(self):
        network = small_config(seed=41, dropout=0.25)
        net_obj = json.loads(json.dumps(to_json(network)))
        assert net_obj == {
            "input_dim": 10, "shared_layer_widths": [8],
            "task_head_widths": {"short": [5], "mid": [5], "long": [5]},
            "classes_per_task": 3, "shared_dropout_rate": 0.25, "seed": 41,
        }
        assert from_json(NetworkConfig, JSON_FIELDS[NetworkConfig], net_obj, "network") == network

        train_cfg = TrainConfig(
            learning_rate=0.01, batch_size=8, optimizer="sgd", class_weighting=True,
            task_loss_weights={Horizon.SHORT: 1.0, Horizon.LONG: 2.0}, seed=5,
        )
        train_obj = json.loads(json.dumps(to_json(train_cfg)))
        # the seed and the Adam constants are not part of the JSON form
        assert set(train_obj) == {
            "learning_rate", "batch_size", "max_epochs", "early_stop_patience",
            "task_loss_weights", "validation_fraction", "optimizer", "class_weighting",
        }
        train_back = from_json(TrainConfig, JSON_FIELDS[TrainConfig], train_obj, "train", seed=5)
        assert train_back == train_cfg

        stats = EpochStats(
            epoch=3, train_loss_total=1.5, val_loss_total=2.25,
            train_loss_per_task={Horizon.MID: 0.5}, val_loss_per_task={Horizon.MID: 0.75},
        )
        assert from_json(
            EpochStats, JSON_FIELDS[EpochStats], json.loads(json.dumps(to_json(stats))), "epoch"
        ) == stats

    def test_json_codec_rejects_unknown_keys(self):
        with pytest.raises(ValueError, match="beta1"):
            from_json(TrainConfig, JSON_FIELDS[TrainConfig], {"beta1": 0.8}, "train")
        with pytest.raises(ValueError, match="in network: seed"):
            from_json(
                NetworkConfig, JSON_FIELDS[NetworkConfig], {"seed": 1}, "network",
                keys=("shared_layer_widths",),
            )

    def test_bad_schema_rejected(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"schema": "other/9"}')
        with pytest.raises(ValueError):
            load_checkpoint(path)

    def test_training_log_csv(self, tmp_path):
        X, y = separable_data(n=120, seed=43)
        model = init_network(small_config(seed=44))
        train(model, X, y, TrainConfig(seed=45, max_epochs=3, batch_size=16))
        path = tmp_path / "log.csv"
        write_csv(path, *training_log_rows(model))
        lines = path.read_text().splitlines()
        assert lines[0] == (
            "epoch,train_loss_total,val_loss_total,"
            "train_loss_short,train_loss_mid,train_loss_long,"
            "val_loss_short,val_loss_mid,val_loss_long"
        )
        assert len(lines) == 1 + len(model.history)
