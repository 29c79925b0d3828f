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
import sys
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

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
    val_stratify_task: Optional[Horizon] = None
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


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    # an integer past the float range cannot become the float the field holds
    return isinstance(value, float) or _is_int(value) and abs(value) <= sys.float_info.max


def _checked(test: Callable, what: str, decode: Callable = lambda v: v) -> Callable:
    """A converter ``(value, name) -> decode(value)`` that raises a ValueError
    naming ``name`` when ``test(value)`` fails; it never coerces."""

    def convert(value, name: str):
        if not test(value):
            raise ValueError(f"{name} must be {what}, got {value!r}")
        return decode(value)

    return convert


json_int = _checked(_is_int, "a JSON integer")
json_int_or_null = _checked(lambda v: v is None or _is_int(v), "a JSON integer or null")
json_number = _checked(_is_number, "a JSON number", float)
json_bool = _checked(lambda v: isinstance(v, bool), "true or false")
json_str = _checked(lambda v: isinstance(v, str), "a JSON string")
json_int_list = _checked(
    lambda v: isinstance(v, list) and all(map(_is_int, v)), "a list of JSON integers", tuple
)


def json_finite(value, name: str) -> float:
    """A JSON number that is not NaN or infinite; Python's JSON reader accepts both."""
    number = json_number(value, name)
    if not math.isfinite(number):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return number


def json_member(enum) -> Callable:
    """A converter of a member's name, in any case (``"mid"`` gives ``Horizon.MID``)."""
    return _checked(
        lambda v: isinstance(v, str) and v.upper() in enum.__members__,
        f"one of {', '.join(enum.__members__)}",
        lambda v: enum[v.upper()],
    )


def json_by_horizon(convert: Callable) -> Callable:
    """A converter of a JSON object keyed by horizon whose values ``convert`` decodes."""
    horizon = json_member(Horizon)

    def decode(value, name: str) -> dict:
        if not isinstance(value, dict):
            raise ValueError(f"{name} must be a JSON object keyed by horizon, got {value!r}")
        return {horizon(k, f"{name} key"): convert(v, f"{name}.{k}") for k, v in value.items()}

    return decode


# The JSON fields of each dataclass that checkpoints, best_config.json and the
# config's network/train blocks hold, with the converter of the JSON value.
_JSON_FIELDS: dict[type, dict[str, Callable]] = {
    NetworkConfig: {
        "input_dim": json_int,
        "shared_layer_widths": json_int_list,
        "task_head_widths": json_by_horizon(json_int_list),
        "classes_per_task": json_int,
        "shared_dropout_rate": json_finite,
        "seed": json_int,
    },
    TrainConfig: {
        "learning_rate": json_finite,
        "batch_size": json_int,
        "max_epochs": json_int,
        "early_stop_patience": json_int,
        "task_loss_weights": json_by_horizon(json_finite),
        "validation_fraction": json_finite,
        "optimizer": json_str,
        "class_weighting": json_bool,
    },
    # a checkpoint's history may hold a NaN loss
    EpochStats: {
        "epoch": json_int,
        "train_loss_total": json_number,
        "val_loss_total": json_number,
        "train_loss_per_task": json_by_horizon(json_number),
        "val_loss_per_task": json_by_horizon(json_number),
    },
}


def json_value(value):
    """The JSON form of a field value: horizon keys as ``short``/``mid``/``long``."""
    if isinstance(value, Mapping):
        return {h.key: json_value(v) for h, v in value.items()}
    return list(value) if isinstance(value, (tuple, list)) else value


def to_json(obj) -> dict:
    """The JSON fields of a NetworkConfig, TrainConfig or EpochStats."""
    return {name: json_value(getattr(obj, name)) for name in _JSON_FIELDS[type(obj)]}


def from_json(cls, obj, keys=None, name=None, **derived):
    """A ``cls`` from its JSON fields plus the ``derived`` ones. A key outside
    ``keys`` (default: every JSON field) or a value of the wrong JSON type is
    a ValueError that names it."""
    fields = _JSON_FIELDS[cls]
    name = name or cls.__name__
    if not isinstance(obj, Mapping):
        raise TypeError(f"{name} must be a JSON object")
    unknown = sorted(set(obj) - set(fields if keys is None else keys))
    if unknown:
        raise ValueError(f"unknown key(s) in {name}: {', '.join(unknown)}")
    return cls(**derived, **{k: fields[k](v, f"{name}.{k}") for k, v in obj.items()})


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


def _softmax_inplace(z: np.ndarray) -> np.ndarray:
    z -= z.max(axis=-1, keepdims=True)
    np.exp(z, out=z)
    z /= z.sum(axis=-1, keepdims=True)
    return z


def _he_uniform(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = math.sqrt(6.0 / fan_in)
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _zero_model(config: NetworkConfig) -> MtlModel:
    """An all-zero model whose every W and b is a reshaped view into one new
    float64 vector, laid out back to back in `parameters()` order."""
    trunk = [config.input_dim, *config.shared_layer_widths]
    chains = [trunk] + [
        [trunk[-1], *config.task_head_widths[task], config.classes_per_task]
        for task in config.tasks
    ]
    dims = [list(zip(widths, widths[1:])) for widths in chains]
    flat = np.zeros(sum(fan_in * fan_out + fan_out for d in dims for fan_in, fan_out in d))
    offset = 0

    def layer(fan_in: int, fan_out: int) -> DenseLayer:
        nonlocal offset
        end = offset + fan_in * fan_out
        W = flat[offset:end].reshape(fan_in, fan_out)
        offset = end + fan_out
        return DenseLayer(W=W, b=flat[end:offset])

    shared, *heads = [[layer(*d) for d in chain_dims] for chain_dims in dims]
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
#: Shapley evaluator), which bounds their activations at about 3.7 MB for the
#: default network. `infer_logits` itself stays one forward over the whole
#: batch, since training's backward reads the full batch's activations.
#: Blocked results may differ from one call over all rows in the last bits:
#: OpenBLAS may round a layer differently at another row count.
INFERENCE_BLOCK_ROWS = 1024


class InferenceWorkspace:
    """Activation buffers that `infer_logits` reuses from call to call.

    Each layer writes into its own buffer, which grows when a batch is larger
    than any before and is otherwise sliced to the batch's rows, so a stream
    of batches no larger than the first allocates nothing after it. Results
    alias the buffers and are overwritten by the next call that shares the
    workspace.

    After a call, ``trunk`` holds the input and each trunk layer's output,
    ``heads`` each requested head's layer outputs (the logits last) and
    ``masks`` the trunk's dropout masks (none without dropout): what
    `_backward_batch` reads.
    """

    def __init__(self) -> None:
        self._buffers: dict[tuple, np.ndarray] = {}
        self.trunk: list[np.ndarray] = []
        self.heads: dict[Horizon, list[np.ndarray]] = {}
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
    ws.heads = {}
    for task in tasks if tasks is not None else model.tasks:
        layers = model.heads[task]
        outs = ws.heads[task] = []
        a = ws.trunk[-1]
        for i, layer in enumerate(layers):
            out = ws.take(("head", task, i), n, layer.W.shape[1])
            a = _dense_into(a, layer, out, i < len(layers) - 1)
            outs.append(a)
    return {task: outs[-1] for task, outs in ws.heads.items()}


def infer_proba(
    model: MtlModel,
    X: np.ndarray,
    tasks: Optional[Sequence[Horizon]] = None,
    workspace: Optional[InferenceWorkspace] = None,
) -> dict[Horizon, np.ndarray]:
    """(n, 3) class probabilities of every requested task from one trunk pass;
    the softmax overwrites the logits in the workspace."""
    logits = infer_logits(model, X, tasks, workspace)
    return {task: _softmax_inplace(z) for task, z in logits.items()}


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
    """Row-wise pieces of a stable softmax: the max-shifted logits ``z``,
    ``exp(z)`` and its row sums. The loss and its gradient share them."""
    z = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return z, e, e.sum(axis=-1, keepdims=True)


def _batch_task_losses(
    logits: dict[Horizon, np.ndarray],
    labels: Mapping[Horizon, np.ndarray],
    tasks: Sequence[Horizon],
    class_weights: Optional[Mapping[Horizon, np.ndarray]] = None,
    parts: Optional[Mapping[Horizon, SoftmaxParts]] = None,
) -> dict[Horizon, float]:
    """Per-task mean cross-entropy over instances with a label (not -1).

    ``parts`` holds each task's ``_softmax_parts`` when they are already known.
    """
    out = {}
    for task in tasks:
        y = labels[task]
        valid = y != MISSING_LABEL
        if not valid.any():
            out[task] = 0.0
            continue
        z, _, row_sums = parts[task] if parts else _softmax_parts(logits[task])
        rows, y_valid = np.flatnonzero(valid), y[valid]
        # minus the log-softmax of each row's label
        ce = -(z[rows, y_valid] - np.log(row_sums[rows, 0]))
        if class_weights is not None and task in class_weights:
            w = class_weights[task][y_valid]
            out[task] = float((ce * w).sum() / w.sum())
        else:
            out[task] = float(ce.mean())
    return out


def _backward_batch(
    model: MtlModel,
    ws: InferenceWorkspace,
    labels: Mapping[Horizon, np.ndarray],
    weights: Mapping[Horizon, float],
    tasks: Sequence[Horizon],
    class_weights: Optional[Mapping[Horizon, np.ndarray]] = None,
    grad: Optional[MtlModel] = None,
    parts: Optional[Mapping[Horizon, SoftmaxParts]] = None,
) -> MtlModel:
    """Gradients of the weighted multi-task batch loss w.r.t. every parameter,
    from the activations that `infer_logits` left in ``ws``.

    They are written into the layer views of ``grad``, a model of the same
    layout (a new one by default), which is cleared first and returned.
    ``parts`` is as in ``_batch_task_losses``. A rectifier passes gradient
    where its output is positive: every dropout scale is at least 1, so that
    is exactly where its pre-activation is.
    """
    grad = grad if grad is not None else _zero_model(model.config)
    grad.flat.fill(0.0)
    d_trunk = np.zeros_like(ws.trunk[-1])

    for task in tasks:
        w_task = float(weights.get(task, 0.0))
        if w_task == 0.0:
            continue
        y = labels[task]
        valid = y != MISSING_LABEL
        n_valid = int(valid.sum())
        if n_valid == 0:
            continue
        # acts[i] is the input of head layer i, acts[-1] the logits
        acts = [ws.trunk[-1], *ws.heads[task]]
        _, e, row_sums = parts[task] if parts else _softmax_parts(acts[-1])
        dlogits = e / row_sums
        rows = np.flatnonzero(valid)
        dlogits[rows, y[valid]] -= 1.0
        if class_weights is not None and task in class_weights:
            w_inst = np.zeros(len(y))
            w_inst[rows] = class_weights[task][y[valid]]
            dlogits *= (w_task / w_inst.sum()) * w_inst[:, None]
        else:
            dlogits[~valid] = 0.0
            dlogits *= w_task / n_valid

        layers, grad_layers = model.heads[task], grad.heads[task]
        delta = dlogits
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
    return grad


def batch_loss(
    model: MtlModel,
    X: np.ndarray,
    labels: Mapping[Horizon, np.ndarray],
    cfg: TrainConfig,
) -> float:
    tasks = [t for t in model.tasks if cfg.weight(t) > 0]
    per_task = _batch_task_losses(infer_logits(model, X, tasks), labels, tasks)
    return sum(cfg.weight(t) * per_task[t] for t in tasks)


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

    stratify_task = cfg.val_stratify_task
    if stratify_task is None or stratify_task not in tasks:
        stratify_task = Horizon.LONG if Horizon.LONG in tasks else tasks[-1]
    train_idx, val_idx = _stratified_split(
        y[stratify_task], cfg.validation_fraction, derive_seed(cfg.seed, "valsplit")
    )

    class_weights = None
    if cfg.class_weighting:
        class_weights = {
            task: _inverse_frequency_weights(y[task][train_idx]) for task in tasks
        }

    X_tr, X_val = X[train_idx], X[val_idx]
    y_tr = {t: y[t][train_idx] for t in tasks}
    y_val = {t: y[t][val_idx] for t in tasks}

    shuffle_rng = derived_rng(cfg.seed, "shuffle")
    dropout_rng = derived_rng(cfg.seed, "dropout")
    optimizer = _Adam(model.flat, cfg)
    grad = _zero_model(model.config)
    workspace = InferenceWorkspace()

    best_val = math.inf
    best_params = model.flat.copy()
    epochs_since_improve = 0
    model.history = []

    for epoch in range(cfg.max_epochs):
        order = shuffle_rng.permutation(len(X_tr))
        epoch_losses = {t: 0.0 for t in tasks}
        n_batches = 0
        for start in range(0, len(order), cfg.batch_size):
            batch = order[start : start + cfg.batch_size]
            yb = {t: y_tr[t][batch] for t in tasks}
            logits = infer_logits(model, X_tr[batch], tasks, workspace, dropout_rng)
            parts = {t: _softmax_parts(logits[t]) for t in tasks}
            per_task = _batch_task_losses(logits, yb, tasks, class_weights, parts)
            total = sum(cfg.weight(t) * per_task[t] for t in tasks)
            if not math.isfinite(total):
                raise RuntimeError(
                    f"non-finite training loss at epoch {epoch}: {per_task}"
                )
            _backward_batch(
                model, workspace, yb, cfg.task_loss_weights, tasks, class_weights, grad, parts
            )
            optimizer.step(model.flat, grad.flat)
            for t in tasks:
                epoch_losses[t] += per_task[t]
            n_batches += 1

        train_per_task = {t: epoch_losses[t] / n_batches for t in tasks}
        val_logits = infer_logits(model, X_val, tasks, workspace)
        val_per_task = _batch_task_losses(val_logits, y_val, tasks, class_weights)
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
    single_cfg = replace(
        cfg, task_loss_weights={task: 1.0}, val_stratify_task=task
    )
    model = init_network(single)
    return train(model, X, {task: labels}, single_cfg)


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
    """Max relative error between analytic and central-difference gradients.

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

        workspace = InferenceWorkspace()
        infer_logits(model, X, tasks, workspace)
        grads = _backward_batch(model, workspace, y, cfg.task_loss_weights, tasks).flat

        params = model.flat
        rng = np.random.default_rng(seed)
        picks = rng.choice(params.size, size=min(n_coordinates, params.size), replace=False)
        max_rel = 0.0
        for i in picks:
            orig = params[i]
            params[i] = orig + step
            loss_plus = batch_loss(model, X, y, cfg)
            params[i] = orig - step
            loss_minus = batch_loss(model, X, y, cfg)
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

HYPERPARAMETERS = NETWORK_FIELDS + tuple(_JSON_FIELDS[TrainConfig])


def decode_candidate(key: str, value, name: str):
    """A grid candidate for hyperparameter ``key``, decoded like that field."""
    return _JSON_FIELDS[NetworkConfig if key in NETWORK_FIELDS else TrainConfig][key](value, name)


# --------------------------------------------------------------------------
# checkpoint and training-log persistence
# --------------------------------------------------------------------------

CHECKPOINT_SCHEMA = "patimpact-checkpoint/1"


def save_checkpoint(path, model: MtlModel) -> None:
    obj = {
        "schema": CHECKPOINT_SCHEMA,
        "network": to_json(model.config),
        "standardizer": (
            model.standardizer.to_json_obj() if model.standardizer else None
        ),
        "parameters": [
            {"name": name, "shape": list(arr.shape), "data": arr.ravel().tolist()}
            for name, arr in model.parameters()
        ],
        "history": [to_json(e) for e in model.history],
    }
    # json.dumps runs the C encoder; json.dump, which streams, never does
    text = json.dumps(obj, sort_keys=True)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.write("\n")


def load_checkpoint(path) -> MtlModel:
    with open(path, "r", encoding="utf-8") as fh:
        obj = json.load(fh)
    if obj.get("schema") != CHECKPOINT_SCHEMA:
        raise ValueError(f"unsupported checkpoint schema {obj.get('schema')!r}")
    model = _zero_model(from_json(NetworkConfig, obj["network"]))
    by_name = {p["name"]: p for p in obj["parameters"]}
    for name, arr in model.parameters():
        saved = by_name[name]
        arr[...] = np.array(saved["data"]).reshape(saved["shape"])
    if obj.get("standardizer"):
        model.standardizer = Standardizer.from_json_obj(obj["standardizer"])
    model.history = [from_json(EpochStats, e) for e in obj.get("history", [])]
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
