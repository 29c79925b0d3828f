"""Multi-task impact classifier: shared trunk, one 3-class head per horizon.

Plain numpy implementation: ReLU hidden layers, inverted dropout on the
shared trunk, softmax heads trained with weighted cross-entropy (adaptive
moment estimation by default), early stopping on the aggregate validation
loss with best-epoch restore. Single-task ablations reuse the same machinery
with exactly one head, and share the trunk/head init streams so a multi-task
run with one nonzero task weight is bit-for-bit equivalent.
"""

from __future__ import annotations

import json
import math
import reprlib
from dataclasses import dataclass, field, replace
from functools import partial, reduce
from typing import Callable, Iterable, Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import tables
from .corpus import HORIZONS, Horizon
from .indicators import N_FEATURES, Standardizer
from .seeding import derive_seed, derived_rng

MISSING_LABEL = -1

DEFAULT_HEAD_WIDTHS: dict[Horizon, tuple[int, ...]] = {
    Horizon.SHORT: (64, 32),
    Horizon.MID: (64,),
    Horizon.LONG: (64, 32),
}


@dataclass(frozen=True)
class NetworkConfig:
    input_dim: int = N_FEATURES
    shared_layer_widths: tuple[int, ...] = (128, 64)
    task_head_widths: Mapping[Horizon, tuple[int, ...]] = field(
        default_factory=lambda: dict(DEFAULT_HEAD_WIDTHS)
    )
    classes_per_task: int = 3
    shared_dropout_rate: float = 0.5
    seed: int = 0

    def __post_init__(self) -> None:
        if self.input_dim < 1:
            raise ValueError("input_dim must be positive")
        widths = list(self.shared_layer_widths)
        for ws in self.task_head_widths.values():
            widths.extend(ws)
        if any(w < 1 for w in widths):
            raise ValueError("layer widths must be positive")
        if not self.task_head_widths:
            raise ValueError("at least one task head is required")
        if not 0.0 <= self.shared_dropout_rate < 1.0:
            raise ValueError("dropout rate must be in [0, 1)")

    @property
    def tasks(self) -> tuple[Horizon, ...]:
        return tuple(h for h in HORIZONS if h in self.task_head_widths)


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    max_epochs: int = 200
    early_stop_patience: int = 10
    task_loss_weights: Mapping[Horizon, float] = field(
        default_factory=lambda: {h: 1.0 for h in HORIZONS}
    )
    validation_fraction: float = 0.1
    optimizer: str = "adam"
    class_weighting: bool = False
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be > 0")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 1:
            raise ValueError("max_epochs must be >= 1")
        if self.early_stop_patience < 0:
            raise ValueError("early_stop_patience must be >= 0")
        if not 0.0 < self.validation_fraction < 1.0:
            raise ValueError("validation_fraction must be in (0, 1)")
        weights = list(self.task_loss_weights.values())
        if any(w < 0 for w in weights) or not any(w > 0 for w in weights):
            raise ValueError("task weights must be >= 0 with at least one > 0")
        if self.optimizer not in ("adam", "sgd"):
            raise ValueError(f"unknown optimizer {self.optimizer!r}")

    def weight(self, task: Horizon) -> float:
        return float(self.task_loss_weights.get(task, 0.0))


@dataclass
class DenseLayer:
    W: np.ndarray  # (fan_in, fan_out)
    b: np.ndarray  # (fan_out,)


@dataclass
class EpochStats:
    epoch: int
    train_loss_total: float
    val_loss_total: float
    train_loss_per_task: dict[Horizon, float]
    val_loss_per_task: dict[Horizon, float]


# The JSON fields of each dataclass that checkpoints, best_config.json and the
# config's network/train blocks hold, with the converter of the JSON value.
JSON_FIELDS: dict[type, dict[str, Callable]] = {
    NetworkConfig: {
        "input_dim": tables.json_int,
        "shared_layer_widths": tables.json_int_list,
        "task_head_widths": partial(tables.json_keyed, Horizon, tables.json_int_list),
        "classes_per_task": tables.json_int,
        "shared_dropout_rate": tables.json_finite,
        "seed": tables.json_int,
    },
    TrainConfig: {
        "learning_rate": tables.json_finite,
        "batch_size": tables.json_int,
        "max_epochs": tables.json_int,
        "early_stop_patience": tables.json_int,
        "task_loss_weights": partial(tables.json_keyed, Horizon, tables.json_finite),
        "validation_fraction": tables.json_finite,
        "optimizer": tables.json_str,
        "class_weighting": tables.json_bool,
    },
    # a checkpoint's history may hold a NaN loss
    EpochStats: {
        "epoch": tables.json_int,
        "train_loss_total": tables.json_number,
        "val_loss_total": tables.json_number,
        "train_loss_per_task": partial(tables.json_keyed, Horizon, tables.json_number),
        "val_loss_per_task": partial(tables.json_keyed, Horizon, tables.json_number),
    },
}


def json_value(value):
    """The JSON form of a field value: horizon keys as ``short``/``mid``/``long``."""
    if isinstance(value, Mapping):
        return {h.key: json_value(v) for h, v in value.items()}
    return list(value) if isinstance(value, (tuple, list)) else value


def to_json(obj) -> dict:
    """The JSON fields of a NetworkConfig, TrainConfig or EpochStats."""
    return {name: json_value(getattr(obj, name)) for name in JSON_FIELDS[type(obj)]}


@dataclass
class MtlModel:
    config: NetworkConfig
    shared: list[DenseLayer]
    heads: dict[Horizon, list[DenseLayer]]
    flat: np.ndarray  # every parameter in parameters() order; each W and b views it
    standardizer: Optional[Standardizer] = None
    history: list[EpochStats] = field(default_factory=list)

    @property
    def tasks(self) -> tuple[Horizon, ...]:
        return self.config.tasks

    def __reduce__(self):
        # pickle rebuilds the layout, so every W and b of the copy views its flat
        return _rebuilt_model, (self.config, self.flat, self.standardizer, self.history)

    def parameters(self) -> list[tuple[str, np.ndarray]]:
        """Flat (name, array) view in a fixed order; arrays are live views."""
        out = []
        for i, layer in enumerate(self.shared):
            out.append((f"shared.{i}.W", layer.W))
            out.append((f"shared.{i}.b", layer.b))
        for task in self.tasks:
            for i, layer in enumerate(self.heads[task]):
                out.append((f"head.{task.key}.{i}.W", layer.W))
                out.append((f"head.{task.key}.{i}.b", layer.b))
        return out


def _he_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _layer_dims(config: NetworkConfig) -> list[list[tuple[int, int]]]:
    """The ``(fan_in, fan_out)`` of each layer of the trunk, then of each head."""
    trunk = [config.input_dim, *config.shared_layer_widths]
    chains = [trunk] + [
        [trunk[-1], *config.task_head_widths[task], config.classes_per_task]
        for task in config.tasks
    ]
    return [list(zip(widths, widths[1:])) for widths in chains]


def _n_values(config: NetworkConfig) -> int:
    """The number of parameter values, every W and b, of a network."""
    return sum(fan_in * fan_out + fan_out for d in _layer_dims(config) for fan_in, fan_out in d)


def _zero_model(config: NetworkConfig) -> MtlModel:
    """An all-zero model whose every W and b is a reshaped view into one new
    float64 vector, laid out back to back in `parameters()` order."""
    flat = np.zeros(_n_values(config))
    offset = 0

    def layer(fan_in: int, fan_out: int) -> DenseLayer:
        nonlocal offset
        end = offset + fan_in * fan_out
        W = flat[offset:end].reshape(fan_in, fan_out)
        offset = end + fan_out
        return DenseLayer(W=W, b=flat[end:offset])

    shared, *heads = [[layer(*d) for d in chain_dims] for chain_dims in _layer_dims(config)]
    return MtlModel(config=config, shared=shared, heads=dict(zip(config.tasks, heads)), flat=flat)


def _rebuilt_model(
    config: NetworkConfig,
    flat: np.ndarray,
    standardizer: Optional[Standardizer],
    history: list[EpochStats],
) -> MtlModel:
    model = _zero_model(config)
    model.flat[...] = flat
    model.standardizer, model.history = standardizer, history
    return model


def init_network(config: NetworkConfig) -> MtlModel:
    """Variance-scaled symmetric init, zero biases, deterministic per seed.

    The trunk and each head draw from independent derived streams, so
    models that share a trunk configuration share its initial weights
    regardless of which heads exist.
    """
    model = _zero_model(config)
    rng = derived_rng(config.seed, "init", "shared")
    for layer in model.shared:
        layer.W[...] = _he_uniform(rng, *layer.W.shape)
    for task in config.tasks:
        rng = derived_rng(config.seed, "init", "head", task.key)
        for layer in model.heads[task]:
            layer.W[...] = _he_uniform(rng, *layer.W.shape)
    return model


# --------------------------------------------------------------------------
# forward / backward
# --------------------------------------------------------------------------

#: Rows per forward in the inference-only callers (`predict_batch` and the
#: Shapley evaluator), which bounds their activations at about 0.9 MB for the
#: default network. `infer_logits` itself stays one forward over the whole
#: batch, since training's backward reads the full batch's activations.
#: Measured on OpenBLAS 0.3.31 with one thread: in a forward of a multiple of
#: 4 rows, at most 1,024, each row's outputs have the same bits whatever its
#: position, the order of the rows or their count. The Shapley evaluator
#: relies on that (`tests/test_mtl.py::TestBlasRowRule` pins it). A forward of
#: 1-3 rows or of 1,023 rows can round some rows differently in the last bits,
#: and so can one of more rows (6,000, say). Block size does not set the
#: speed: on 3,000-row batches, blocks of 128 to 1,024 rows all took
#: 2.66-2.72 µs per row on a 2-vCPU VM.
INFERENCE_BLOCK_ROWS = 256


class InferenceWorkspace:
    """Activation buffers that `infer_logits` reuses from call to call.

    Each layer writes into its own buffer, which grows when a batch is larger
    than any before and is otherwise sliced to the batch's rows, so a stream
    of batches no larger than the first allocates nothing after it. Results
    alias the buffers and are overwritten by the next call that shares the
    workspace.

    After a call, ``trunk`` holds the input and each trunk layer's output,
    ``heads`` each requested head's layer outputs (the logits last), in the
    order the heads were requested, and ``masks`` the trunk's dropout masks
    (none without dropout): what `_backward` reads.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self.trunk: list[np.ndarray] = []
        self.heads: list[list[np.ndarray]] = []
        self.masks: list[np.ndarray] = []

    def take(self, key: tuple, rows: int, width: int) -> np.ndarray:
        buf = self._buffers.get(key)
        if buf is None or buf.shape[0] < rows or buf.shape[1] != width:
            buf = np.empty((rows, width))
            self._buffers[key] = buf
        return buf[:rows]


def _dense_into(a: np.ndarray, layer: DenseLayer, out: np.ndarray, rectify: bool) -> np.ndarray:
    np.matmul(a, layer.W, out=out)
    out += layer.b
    if rectify:
        np.maximum(out, 0.0, out=out)
    return out


def _forward(
    model: MtlModel,
    X: np.ndarray,
    heads: Sequence[list[DenseLayer]],
    ws: InferenceWorkspace,
    dropout_rng: Optional[np.random.Generator] = None,
) -> None:
    """`infer_logits` for heads given by their layers: it leaves everything
    in ``ws``, and the logits of head ``k`` are ``ws.heads[k][-1]``."""
    rate = model.config.shared_dropout_rate
    a = np.asarray(X, dtype=np.float64)
    n = a.shape[0]
    ws.trunk, ws.masks = [a], []
    for i, layer in enumerate(model.shared):
        width = layer.W.shape[1]
        a = _dense_into(a, layer, ws.take(("shared", i), n, width), True)
        if dropout_rng is not None and rate > 0.0:
            mask = dropout_rng.random(out=ws.take(("mask", i), n, width))
            np.greater_equal(mask, rate, out=mask)
            mask /= 1.0 - rate
            a *= mask
            ws.masks.append(mask)
        ws.trunk.append(a)
    ws.heads = []
    for k, layers in enumerate(heads):
        outs = []
        a = ws.trunk[-1]
        for i, layer in enumerate(layers):
            out = ws.take(("head", k, i), n, layer.W.shape[1])
            a = _dense_into(a, layer, out, i < len(layers) - 1)
            outs.append(a)
        ws.heads.append(outs)


def infer_logits(
    model: MtlModel,
    X: np.ndarray,
    tasks: Optional[Sequence[Horizon]] = None,
    workspace: Optional[InferenceWorkspace] = None,
    dropout_rng: Optional[np.random.Generator] = None,
) -> dict[Horizon, np.ndarray]:
    """The forward: one trunk pass feeding every requested head.

    Does the bias add, ReLU and dropout in place, so with a reused workspace
    it allocates no activations. Trunk dropout is drawn only when given a
    ``dropout_rng``, as in training; the workspace then holds everything the
    backward pass needs.
    """
    ws = workspace if workspace is not None else InferenceWorkspace()
    tasks = tuple(tasks) if tasks is not None else model.tasks
    _forward(model, X, [model.heads[task] for task in tasks], ws, dropout_rng)
    return {task: outs[-1] for task, outs in zip(tasks, ws.heads)}


def infer_proba(
    model: MtlModel,
    X: np.ndarray,
    tasks: Optional[Sequence[Horizon]] = None,
    workspace: Optional[InferenceWorkspace] = None,
) -> dict[Horizon, np.ndarray]:
    """(n, 3) class probabilities of every requested task from one trunk pass:
    ``exp(z)`` over its row sums, from `_softmax_parts`."""
    logits = infer_logits(model, X, tasks, workspace)
    return {task: np.divide(*_softmax_parts(z)[1:]) for task, z in logits.items()}


def predict_batch(
    model: MtlModel, X: np.ndarray, tasks: Optional[Sequence[Horizon]] = None
) -> dict[Horizon, np.ndarray]:
    """Predicted class index per row of every requested task.

    The forward runs over blocks of `INFERENCE_BLOCK_ROWS` rows through one
    reused workspace, so its activations stay bounded whatever the row count.
    """
    X = np.asarray(X, dtype=np.float64)
    tasks = tuple(tasks) if tasks is not None else model.tasks
    preds = {task: np.empty(X.shape[0], dtype=np.intp) for task in tasks}
    workspace = InferenceWorkspace()
    for start in range(0, X.shape[0], INFERENCE_BLOCK_ROWS):
        rows = slice(start, start + INFERENCE_BLOCK_ROWS)
        for task, logits in infer_logits(model, X[rows], tasks, workspace).items():
            np.argmax(logits, axis=1, out=preds[task][rows])
    return preds


SoftmaxParts = tuple[np.ndarray, np.ndarray, np.ndarray]


def _softmax_parts(logits: np.ndarray) -> SoftmaxParts:
    """Row-wise pieces of the stable softmax of (rows, classes) logits: the
    max-shifted logits ``z``, ``exp(z)`` and its row sums, which the loss, its
    gradient and `infer_proba` share. The max and sum run over the columns
    left to right: for fewer than 8 classes that gives the bits of numpy's
    last-axis reductions, and on 256 rows a max in a fifth of the time."""
    z = logits - reduce(np.maximum, logits.T)[:, None]
    e = np.exp(z)
    return z, e, reduce(np.add, e.T)[:, None]


class _Labels(NamedTuple):
    """One task's labels in one batch, in the forms the loss and its gradient
    read. Rows count from the batch's first row."""

    flat: np.ndarray  # row * classes + label of each labelled row, in row order
    rows: np.ndarray  # the labelled rows
    weights: np.ndarray  # their class weights
    row_weights: np.ndarray  # every row's class weight, 0 where the label is missing


def _row_weights(y: np.ndarray, class_weights: Optional[np.ndarray]) -> np.ndarray:
    """Each row's class weight (1 without class weighting), 0 where its label
    is missing."""
    valid = y != MISSING_LABEL
    weights = np.zeros(len(y))
    weights[valid] = 1.0 if class_weights is None else class_weights[y[valid]]
    return weights


def _batch_labels(
    y: np.ndarray, row_weights: np.ndarray, n_classes: int, batch_size: int
) -> list[_Labels]:
    """The `_Labels` of each run of ``batch_size`` consecutive rows of ``y``
    (of one batch holding every row of an empty ``y``)."""
    valid = y != MISSING_LABEL
    pos = np.arange(len(y)) % batch_size
    flat, rows, weights = (pos * n_classes + y)[valid], pos[valid], row_weights[valid]
    starts = range(0, max(len(y), 1), batch_size)
    cuts = np.concatenate(([0], np.cumsum(valid)))[[*starts, len(y)]].tolist()
    return [
        _Labels(flat[c0:c1], rows[c0:c1], weights[c0:c1], row_weights[start:start + batch_size])
        for start, c0, c1 in zip(starts, cuts, cuts[1:])
    ]


def _labels(y: np.ndarray, class_weights: Optional[np.ndarray], n_classes: int) -> _Labels:
    """The `_Labels` of one batch holding every row of ``y``."""
    return _batch_labels(y, _row_weights(y, class_weights), n_classes, max(len(y), 1))[0]


def _task_loss(parts: SoftmaxParts, labels: _Labels) -> float:
    """Mean cross-entropy over the labelled rows, weighted by class; 0 for none.
    Without class weights every weight is 1, which gives the plain mean."""
    if not labels.rows.size:
        return 0.0
    z, _, row_sums = parts
    # minus the log-softmax of each row's label
    ce = z.take(labels.flat)
    ce -= np.log(row_sums.take(labels.rows))
    np.negative(ce, out=ce)
    w = labels.weights
    return float((ce * w).sum() / w.sum())


def _dlogits(parts: SoftmaxParts, labels: _Labels, task_weight: float) -> np.ndarray:
    """The gradient of ``task_weight`` times `_task_loss` w.r.t. the logits.
    A row without a label keeps its probabilities, so its 0 weight makes it 0."""
    _, e, row_sums = parts
    d = e / row_sums
    d.reshape(-1)[labels.flat] -= 1.0
    w = labels.row_weights
    d *= (task_weight / w.sum()) * w[:, None]
    return d


def _backward(model: MtlModel, ws: InferenceWorkspace, grad: MtlModel, heads: Iterable) -> None:
    """Write the gradients of the batch loss w.r.t. the trunk and ``heads``
    into ``grad``, from the activations the forward left in ``ws``. Each head
    is (its layers, the outputs the forward left, its layers in ``grad``, the
    gradient of its logits); a head whose logit gradient is None gets zeros.
    Every other gradient is written with ``out=``, so ``grad`` needs no
    clearing. A rectifier passes gradient
    where its output is positive: every dropout scale is at least 1, so that
    is exactly where its pre-activation is."""
    d_trunk = np.zeros_like(ws.trunk[-1])
    for layers, outs, grad_layers, delta in heads:
        if delta is None:
            for layer in grad_layers:
                layer.W.fill(0.0)
                layer.b.fill(0.0)
            continue
        # acts[i] is the input of head layer i
        acts = [ws.trunk[-1], *outs]
        for i in range(len(layers) - 1, -1, -1):
            np.matmul(acts[i].T, delta, out=grad_layers[i].W)
            np.add.reduce(delta, axis=0, out=grad_layers[i].b)
            delta = delta @ layers[i].W.T
            if i > 0:
                delta *= acts[i] > 0
        d_trunk += delta

    delta = d_trunk
    for i in range(len(model.shared) - 1, -1, -1):
        if ws.masks:
            delta *= ws.masks[i]
        delta *= ws.trunk[i + 1] > 0
        np.matmul(ws.trunk[i].T, delta, out=grad.shared[i].W)
        np.add.reduce(delta, axis=0, out=grad.shared[i].b)
        if i > 0:
            delta = delta @ model.shared[i].W.T


def _batch_step(
    model: MtlModel,
    X: np.ndarray,
    tasks: Sequence[Horizon],
    labels: Sequence[_Labels],
    weights: Sequence[float],
    grad: MtlModel,
    ws: InferenceWorkspace,
    dropout_rng: Optional[np.random.Generator] = None,
) -> list[float]:
    """The loss and gradient of one training batch: the forward of the heads
    of ``tasks`` through ``ws`` (trunk dropout drawn from ``dropout_rng`` when
    given), each task's `_task_loss` against its ``labels``, and the gradient
    of the loss weighted by ``weights`` written into ``grad``, a model of the
    same layout whose heads outside ``tasks`` are left as they are. Returns
    the per-task losses in ``tasks`` order; a non-finite weighted loss is a
    RuntimeError."""
    heads = [model.heads[t] for t in tasks]
    _forward(model, X, heads, ws, dropout_rng)
    parts = [_softmax_parts(outs[-1]) for outs in ws.heads]
    losses = [_task_loss(p, lab) for p, lab in zip(parts, labels)]
    if not math.isfinite(sum(w * loss for w, loss in zip(weights, losses))):
        raise RuntimeError(f"non-finite training loss: {dict(zip(tasks, losses))}")
    deltas = [
        _dlogits(p, lab, w) if lab.rows.size else None
        for p, lab, w in zip(parts, labels, weights)
    ]
    grad_heads = [grad.heads[t] for t in tasks]
    _backward(model, ws, grad, zip(heads, ws.heads, grad_heads, deltas))
    return losses


# --------------------------------------------------------------------------
# optimizer
# --------------------------------------------------------------------------

class _Adam:
    """Adam (or plain SGD) on the flat parameter vector.

    A step is a fixed sequence of in-place ufunc calls on whole vectors, with
    preallocated scratch, in the per-element order of the textbook update.
    """

    BETA1 = 0.9
    BETA2 = 0.999
    EPSILON = 1e-7

    def __init__(self, params: np.ndarray, cfg: TrainConfig):
        self.cfg = cfg
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self._scratch = (np.empty_like(params), np.empty_like(params))
        self.t = 0

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        cfg = self.cfg
        self.t += 1
        update, denom = self._scratch
        if cfg.optimizer == "sgd":
            np.multiply(cfg.learning_rate, grads, out=update)
            params -= update
            return
        b1c = 1.0 - self.BETA1 ** self.t
        b2c = 1.0 - self.BETA2 ** self.t
        # m = beta1 m + (1 - beta1) g;  v = beta2 v + ((1 - beta2) g) g
        self.m *= self.BETA1
        np.multiply(1.0 - self.BETA1, grads, out=update)
        self.m += update
        self.v *= self.BETA2
        np.multiply(1.0 - self.BETA2, grads, out=update)
        update *= grads
        self.v += update
        # params -= (lr (m / b1c)) / (sqrt(v / b2c) + eps)
        np.divide(self.m, b1c, out=update)
        update *= cfg.learning_rate
        np.divide(self.v, b2c, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.EPSILON
        update /= denom
        params -= update


# --------------------------------------------------------------------------
# training
# --------------------------------------------------------------------------

def _stratified_split(
    labels: np.ndarray, fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """(train_idx, val_idx); per-label proportional sampling, >=1 per label."""
    rng = np.random.default_rng(seed)
    val: list[int] = []
    for lab in np.unique(labels):
        members = np.flatnonzero(labels == lab)
        members = members[rng.permutation(len(members))]
        n_val = max(1, int(round(fraction * len(members)))) if len(members) > 1 else 0
        val.extend(members[:n_val].tolist())
    val_idx = np.array(sorted(val), dtype=np.int64)
    train_idx = np.setdiff1d(np.arange(len(labels)), val_idx)
    return train_idx, val_idx


def _as_label_arrays(
    labels: Mapping[Horizon, Sequence[int]], tasks: Sequence[Horizon], n: int
) -> dict[Horizon, np.ndarray]:
    out = {}
    for task in tasks:
        if task not in labels:
            raise ValueError(f"missing labels for task {task.key}")
        y = np.asarray(labels[task], dtype=np.int64)
        if y.shape != (n,):
            raise ValueError(f"labels for {task.key} must have length {n}")
        out[task] = y
    return out


def _inverse_frequency_weights(y: np.ndarray) -> np.ndarray:
    counts = np.bincount(y[y != MISSING_LABEL], minlength=3).astype(np.float64)
    weights = np.where(counts > 0, 1.0, 0.0)
    weights[counts > 0] = counts[counts > 0].sum() / (3.0 * counts[counts > 0])
    return weights


def train(
    model: MtlModel,
    X: np.ndarray,
    labels: Mapping[Horizon, Sequence[int]],
    cfg: TrainConfig,
) -> MtlModel:
    """Mini-batch training with early stopping on weighted validation loss.

    ``labels`` maps each task to per-instance class indices; -1 excludes an
    instance from that task. Returns the same model object with the best
    validation epoch's parameters restored and the epoch history attached.
    """
    X = np.asarray(X, dtype=np.float64)
    n = X.shape[0]
    if n < 2 * cfg.batch_size:
        raise ValueError(
            f"need at least {2 * cfg.batch_size} instances, got {n}"
        )
    tasks = [t for t in model.tasks if cfg.weight(t) > 0]
    if not tasks:
        raise ValueError("no task has positive weight")
    y = _as_label_arrays(labels, tasks, n)

    stratify_task = Horizon.LONG if Horizon.LONG in tasks else tasks[-1]
    train_idx, val_idx = _stratified_split(
        y[stratify_task], cfg.validation_fraction, derive_seed(cfg.seed, "valsplit")
    )

    X_tr, X_val = X[train_idx], X[val_idx]
    # per-task lists, indexed like ``tasks``
    weights = [cfg.weight(t) for t in tasks]
    n_classes = model.config.classes_per_task
    y_tr = [y[t][train_idx] for t in tasks]
    task_class_weights = [
        _inverse_frequency_weights(y_k) if cfg.class_weighting else None for y_k in y_tr
    ]
    w_tr = [_row_weights(y_k, cw) for y_k, cw in zip(y_tr, task_class_weights)]
    val_labels = [
        _labels(y[t][val_idx], cw, n_classes) for t, cw in zip(tasks, task_class_weights)
    ]

    shuffle_rng = derived_rng(cfg.seed, "shuffle")
    dropout_rng = derived_rng(cfg.seed, "dropout")
    optimizer = _Adam(model.flat, cfg)
    grad = _zero_model(model.config)
    workspace = InferenceWorkspace()
    X_epoch = np.empty_like(X_tr)

    best_val = math.inf
    best_params = model.flat.copy()
    epochs_since_improve = 0
    model.history = []

    for epoch in range(cfg.max_epochs):
        # the epoch's rows in shuffled order, so that each batch is a slice
        order = shuffle_rng.permutation(len(X_tr))
        np.take(X_tr, order, axis=0, out=X_epoch)
        batches = zip(*(
            _batch_labels(y_k.take(order), w_k.take(order), n_classes, cfg.batch_size)
            for y_k, w_k in zip(y_tr, w_tr)
        ))
        epoch_losses = [0.0] * len(tasks)
        n_batches = 0
        for start, labels_b in zip(range(0, len(order), cfg.batch_size), batches):
            X_b = X_epoch[start:start + cfg.batch_size]
            per_task = _batch_step(
                model, X_b, tasks, labels_b, weights, grad, workspace, dropout_rng
            )
            optimizer.step(model.flat, grad.flat)
            for k, loss in enumerate(per_task):
                epoch_losses[k] += loss
            n_batches += 1

        train_per_task = {t: loss / n_batches for t, loss in zip(tasks, epoch_losses)}
        val_logits = infer_logits(model, X_val, tasks, workspace)
        val_per_task = {
            t: _task_loss(_softmax_parts(val_logits[t]), lab) for t, lab in zip(tasks, val_labels)
        }
        val_total = sum(cfg.weight(t) * val_per_task[t] for t in tasks)
        model.history.append(
            EpochStats(
                epoch=epoch,
                train_loss_total=sum(cfg.weight(t) * train_per_task[t] for t in tasks),
                val_loss_total=val_total,
                train_loss_per_task=train_per_task,
                val_loss_per_task=val_per_task,
            )
        )

        if val_total < best_val:
            best_val = val_total
            best_params = model.flat.copy()
            epochs_since_improve = 0
        else:
            epochs_since_improve += 1
            if epochs_since_improve > cfg.early_stop_patience:
                break

    model.flat[...] = best_params
    return model


def train_stl(
    task: Horizon,
    X: np.ndarray,
    labels: Sequence[int],
    cfg: TrainConfig,
    network: Optional[NetworkConfig] = None,
) -> MtlModel:
    """Single-task ablation: same trunk, exactly one head, weight 1."""
    base = network if network is not None else NetworkConfig()
    single = replace(
        base, task_head_widths={task: tuple(base.task_head_widths[task])}
    )
    model = init_network(single)
    return train(model, X, {task: labels}, replace(cfg, task_loss_weights={task: 1.0}))


# --------------------------------------------------------------------------
# gradient checking
# --------------------------------------------------------------------------

def _kink_margin(model: MtlModel, X: np.ndarray, tasks: Sequence[Horizon]) -> float:
    """Smallest |pre-activation| over every rectifier in the network."""
    margins = []

    def rectified(a: np.ndarray, layers: Sequence[DenseLayer]) -> np.ndarray:
        for layer in layers:
            z = a @ layer.W + layer.b
            margins.append(float(np.abs(z).min()))
            a = np.maximum(z, 0.0)
        return a

    trunk_out = rectified(X, model.shared)
    for t in tasks:
        rectified(trunk_out, model.heads[t][:-1])
    return min(margins, default=math.inf)


def gradient_check(
    model: MtlModel,
    X: np.ndarray,
    labels: Mapping[Horizon, Sequence[int]],
    cfg: TrainConfig,
    n_coordinates: int = 200,
    step: float = 1e-5,
    seed: int = 0,
    jitter: float = 0.05,
) -> float:
    """Max relative error between the gradient that `_batch_step`, the step
    `train` runs, writes for one batch of every row and central differences
    of the weighted loss it returns.

    Dropout must be disabled (the loss is otherwise stochastic). The loss is
    non-differentiable wherever a rectifier pre-activation is exactly zero
    (zero-init biases fed by an all-dead layer sit exactly there), so by
    default the check runs at a seeded jittered parameter point with a safe
    margin around every kink; the original parameters are restored. Set
    jitter=0 to check at the exact current point.
    """
    if model.config.shared_dropout_rate != 0.0:
        raise ValueError("gradient_check requires shared_dropout_rate == 0")
    X = np.asarray(X, dtype=np.float64)
    tasks = [t for t in model.tasks if cfg.weight(t) > 0]
    y = _as_label_arrays(labels, tasks, X.shape[0])
    weights = [cfg.weight(t) for t in tasks]
    # labels as `train` builds them: class weights from the batch, 0 where missing
    labels_k = [
        _labels(
            y[t],
            _inverse_frequency_weights(y[t]) if cfg.class_weighting else None,
            model.config.classes_per_task,
        )
        for t in tasks
    ]

    saved = model.flat.copy()
    try:
        if jitter > 0.0:
            margin_needed = 100.0 * step
            for attempt in range(50):
                rng_j = derived_rng(seed, "gradcheck", "jitter", str(attempt))
                model.flat[...] = saved + rng_j.normal(0.0, jitter, size=saved.size)
                if _kink_margin(model, X, tasks) > margin_needed:
                    break
            else:
                raise RuntimeError("could not find a kink-free parameter point")

        workspace, grad = InferenceWorkspace(), _zero_model(model.config)

        def loss() -> float:
            per_task = _batch_step(model, X, tasks, labels_k, weights, grad, workspace)
            return sum(w * loss_k for w, loss_k in zip(weights, per_task))

        loss()
        grads = grad.flat.copy()

        params = model.flat
        rng = np.random.default_rng(seed)
        picks = rng.choice(params.size, size=min(n_coordinates, params.size), replace=False)
        max_rel = 0.0
        for i in picks:
            orig = params[i]
            params[i] = orig + step
            loss_plus = loss()
            params[i] = orig - step
            loss_minus = loss()
            params[i] = orig
            g_num = (loss_plus - loss_minus) / (2.0 * step)
            g_ana = grads[i]
            rel = abs(g_ana - g_num) / max(abs(g_ana), abs(g_num), 1e-8)
            max_rel = max(max_rel, rel)
        return max_rel
    finally:
        model.flat[...] = saved


# --------------------------------------------------------------------------
# grid search
# --------------------------------------------------------------------------

# the network fields a config and a grid may set; input_dim and the seeds are derived
NETWORK_FIELDS = ("shared_layer_widths", "task_head_widths", "shared_dropout_rate")

# the converter of each hyperparameter that a grid may search
HYPERPARAMETERS: dict[str, Callable] = {
    **{key: JSON_FIELDS[NetworkConfig][key] for key in NETWORK_FIELDS}, **JSON_FIELDS[TrainConfig]
}


# --------------------------------------------------------------------------
# checkpoint and training-log persistence
# --------------------------------------------------------------------------

CHECKPOINT_SCHEMA = "patimpact-checkpoint/1"


def save_checkpoint(path, model: MtlModel) -> None:
    """Write the checkpoint as ``json.dumps(obj, sort_keys=True)`` and a
    newline would, one top-level key and one parameter at a time, so no more
    than one parameter's values are held as Python floats and text at once.
    Each piece is encoded by json.dumps, which runs the C encoder; json.dump
    streams too, but never does."""
    def dumps(value) -> str:
        return json.dumps(value, sort_keys=True)

    standardizer = model.standardizer.to_json_obj() if model.standardizer else None
    with open(path, "w", encoding="utf-8") as fh:
        # the top-level keys in sorted order: history, network, parameters, schema, standardizer
        fh.write('{"history": ' + dumps([to_json(e) for e in model.history]))
        fh.write(', "network": ' + dumps(to_json(model.config)))
        fh.write(', "parameters": [')
        for i, (name, arr) in enumerate(model.parameters()):
            entry = {"name": name, "shape": list(arr.shape), "data": arr.ravel().tolist()}
            fh.write((", " if i else "") + dumps(entry))
        fh.write('], "schema": ' + dumps(CHECKPOINT_SCHEMA))
        fh.write(', "standardizer": ' + dumps(standardizer) + "}\n")


def load_checkpoint(path) -> MtlModel:
    """The model of a checkpoint; a value of the wrong JSON type, or
    parameters that do not fit the network, is a ValueError that names it."""
    with open(path, "r", encoding="utf-8") as fh:
        obj = tables.json_object(json.load(fh), "$")
    if obj.get("schema") != CHECKPOINT_SCHEMA:
        raise ValueError(f"unsupported checkpoint schema {reprlib.repr(obj.get('schema'))}")
    config = tables.from_json(
        NetworkConfig, JSON_FIELDS[NetworkConfig], obj["network"], "$.network"
    )
    by_name = {p["name"]: (i, p) for i, p in enumerate(obj["parameters"])}
    # a network of another size than the saved values is refused before it is allocated
    size = _n_values(config)
    if size != sum(len(p["data"]) for _, p in by_name.values()):
        raise ValueError(f"$.parameters do not hold the {size} values of $.network")
    model = _zero_model(config)
    for name, arr in model.parameters():
        i, saved = by_name[name]
        values = tables.json_finite_array(saved["data"], f"$.parameters[{i}].data")
        arr[...] = values.reshape(saved["shape"])
    if obj.get("standardizer") is not None:
        model.standardizer = Standardizer.from_json_obj(obj["standardizer"], "$.standardizer")
    model.history = [
        tables.from_json(EpochStats, JSON_FIELDS[EpochStats], e, f"$.history[{i}]")
        for i, e in enumerate(tables.json_list(obj.get("history", []), "$.history"))
    ]
    return model


def training_log_rows(model: MtlModel) -> tuple[list[str], list[list]]:
    """The header and rows of a training log: epoch, total train/val losses,
    then per-task train/val losses."""
    tasks = model.tasks
    header = ["epoch", "train_loss_total", "val_loss_total"]
    header += [f"train_loss_{t.key}" for t in tasks]
    header += [f"val_loss_{t.key}" for t in tasks]
    rows = [
        [e.epoch, e.train_loss_total, e.val_loss_total]
        + [e.train_loss_per_task.get(t, math.nan) for t in tasks]
        + [e.val_loss_per_task.get(t, math.nan) for t in tasks]
        for e in model.history
    ]
    return header, rows
