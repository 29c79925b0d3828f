"""Three-class evaluation: confusion matrices, one-vs-rest metrics, folds.

Degenerate denominators never raise; they give conventional values:
precision, recall, F1 and MCC 0, DOR +inf when only the numerator is
positive and NaN when both products vanish. The macro DOR is +inf if any
class's is and skips the NaN ones; Gorodkin's multi-class MCC is 0 when
degenerate.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import CLASS_ORDER, HORIZONS, Horizon, ImpactClass

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class ConfusionMatrix3:
    """counts[actual][predicted] over classes ordered MT, VT, BT."""

    counts: np.ndarray

    def __post_init__(self) -> None:
        c = np.asarray(self.counts, dtype=np.int64)
        if c.shape != (3, 3) or (c < 0).any():
            raise ValueError("confusion matrix must be 3x3 with non-negative counts")
        object.__setattr__(self, "counts", c)

    @property
    def n(self) -> int:
        return int(self.counts.sum())

    def one_vs_rest(self, cls: ImpactClass) -> tuple[int, int, int, int]:
        """(TP, FP, FN, TN) for the class against the other two."""
        i = int(cls)
        tp = int(self.counts[i, i])
        fp = int(self.counts[:, i].sum()) - tp
        fn = int(self.counts[i, :].sum()) - tp
        tn = self.n - tp - fp - fn
        return tp, fp, fn, tn


class ClassMetrics(NamedTuple):
    accuracy: float
    precision: float
    recall: float
    f1: float
    mcc: float
    dor: float  # may be +inf; NaN when undefined


METRIC_NAMES = ClassMetrics._fields


def _safe_div(num: float, den: float) -> float:
    if den == 0:
        return 0.0
    return num / den


def binary_metrics(tp: int, fp: int, fn: int, tn: int) -> ClassMetrics:
    """One-vs-rest metrics from the four binary counts."""
    n = tp + fp + fn + tn
    if n < 1:
        raise ValueError("metrics need at least one instance")
    accuracy = (tp + tn) / n
    precision = _safe_div(tp, tp + fp)
    recall = _safe_div(tp, tp + fn)
    f1 = _safe_div(2 * tp, 2 * tp + fp + fn)

    mcc_den_sq = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if mcc_den_sq == 0:
        mcc = 0.0
    else:
        mcc = (tp * tn - fp * fn) / math.sqrt(mcc_den_sq)

    pos = tp * tn
    neg = fp * fn
    if neg == 0 and pos > 0:
        dor = math.inf
    elif neg == 0 and pos == 0:
        dor = math.nan
    else:
        dor = pos / neg

    return ClassMetrics(accuracy, precision, recall, f1, mcc, dor)


def class_metrics(cm: ConfusionMatrix3, cls: ImpactClass) -> ClassMetrics:
    """Metrics for one class in one-vs-rest reduction."""
    return binary_metrics(*cm.one_vs_rest(cls))


def macro_dor(dors: Sequence[float]) -> float:
    """Average diagnostic odds ratios: any infinite value makes the macro
    infinite; undefined (NaN) values are skipped, and NaN is left when all
    of them are."""
    if any(math.isinf(d) for d in dors):
        return math.inf
    finite = [d for d in dors if not math.isnan(d)]
    if not finite:
        return math.nan
    return sum(finite) / len(finite)


def multiclass_mcc(cm: ConfusionMatrix3) -> float:
    """Gorodkin's multi-class correlation; 0 when degenerate."""
    c = cm.counts.astype(np.float64)
    n = c.sum()
    trace = np.trace(c)
    row = c.sum(axis=1)
    col = c.sum(axis=0)
    num = trace * n - float(row @ col)
    den_sq = (n * n - float(row @ row)) * (n * n - float(col @ col))
    if den_sq <= 0:
        return 0.0
    return float(num / math.sqrt(den_sq))


class OverallMetrics(NamedTuple):
    """Macro-averaged one-vs-rest metrics plus the two whole-matrix scores."""

    macro: ClassMetrics
    micro_accuracy: float
    multiclass_mcc: float


def overall_metrics(cm: ConfusionMatrix3) -> OverallMetrics:
    per_class = [class_metrics(cm, cls) for cls in CLASS_ORDER]
    macro = ClassMetrics(
        accuracy=sum(m.accuracy for m in per_class) / 3,
        precision=sum(m.precision for m in per_class) / 3,
        recall=sum(m.recall for m in per_class) / 3,
        f1=sum(m.f1 for m in per_class) / 3,
        mcc=sum(m.mcc for m in per_class) / 3,
        dor=macro_dor([m.dor for m in per_class]),
    )
    return OverallMetrics(
        macro=macro,
        micro_accuracy=float(np.trace(cm.counts) / cm.n),
        multiclass_mcc=multiclass_mcc(cm),
    )


# --------------------------------------------------------------------------
# stratified folds
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class FoldAssignment:
    """Fold index per instance (positional) and the number of folds."""

    fold_of: np.ndarray
    k: int

    def fold_indices(self, fold: int) -> np.ndarray:
        return np.flatnonzero(self.fold_of == fold)

    def splits(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """(train_idx, test_idx) per fold."""
        out = []
        for f in range(self.k):
            test = self.fold_indices(f)
            train = np.flatnonzero(self.fold_of != f)
            out.append((train, test))
        return out


def stratified_kfold(
    labels: Sequence[ImpactClass], k: int, seed: int
) -> FoldAssignment:
    """Round-robin fold assignment within each class after a seeded shuffle.

    Rotating the starting fold between classes keeps total fold sizes within
    one instance of each other while per-class counts stay within one of the
    ideal proportion. If the rarest class has fewer than k members, k is
    downgraded to that count (with a warning).
    """
    if k < 2:
        raise ValueError("k must be >= 2")
    labels = tuple(labels)
    if not labels:
        raise ValueError("no labels to fold")
    class_members: dict[ImpactClass, list[int]] = {}
    for idx, lab in enumerate(labels):
        class_members.setdefault(lab, []).append(idx)
    min_count = min(len(m) for m in class_members.values())
    if min_count < k:
        if min_count < 2:
            raise ValueError(
                f"rarest class has {min_count} member(s); stratified folding impossible"
            )
        log.warning("downgrading k from %d to %d (rarest class size)", k, min_count)
        k = min_count

    rng = np.random.default_rng(seed)
    fold_of = np.full(len(labels), -1, dtype=np.int64)
    offset = 0
    for cls in CLASS_ORDER:
        members = class_members.get(cls)
        if not members:
            continue
        order = rng.permutation(len(members))
        for j, pos in enumerate(order):
            fold_of[members[pos]] = (offset + j) % k
        offset = (offset + len(members)) % k
    return FoldAssignment(fold_of=fold_of, k=k)


# --------------------------------------------------------------------------
# report export
# --------------------------------------------------------------------------

def metrics_rows(
    per_horizon: dict[Horizon, ConfusionMatrix3]
) -> list[tuple[str, str, str, float]]:
    """Flatten to (horizon, class, metric, value) rows for CSV/JSON export."""
    rows: list[tuple[str, str, str, float]] = []
    for horizon in HORIZONS:
        if horizon not in per_horizon:
            continue
        cm = per_horizon[horizon]
        for cls in CLASS_ORDER:
            for metric, value in class_metrics(cm, cls)._asdict().items():
                rows.append((horizon.key, cls.name, metric, value))
        om = overall_metrics(cm)
        for metric, value in om.macro._asdict().items():
            rows.append((horizon.key, "overall_macro", metric, value))
        rows.append((horizon.key, "overall_micro", "accuracy", om.micro_accuracy))
        rows.append((horizon.key, "overall_multiclass", "mcc", om.multiclass_mcc))
    return rows


def comparison_rows(
    reference: Sequence[tuple[str, str, str, float]],
    challenger: Sequence[tuple[str, str, str, float]],
) -> list[tuple[str, str, str, float, float]]:
    """(horizon, class, metric, challenger value, challenger - reference) for
    two `metrics_rows` tables, as in the usual ablation table: the per-class
    and macro rows, the macro ones as class ``overall``."""
    if [r[:3] for r in reference] != [r[:3] for r in challenger]:
        raise ValueError("mismatched horizons between models")
    return [
        (horizon, "overall" if cls == "overall_macro" else cls, metric, value, value - ref[3])
        for (horizon, cls, metric, value), ref in zip(challenger, reference)
        if cls not in ("overall_micro", "overall_multiclass")
    ]


def confusion_from_predictions(
    actual: Sequence[ImpactClass], predicted: Sequence[ImpactClass]
) -> ConfusionMatrix3:
    """Tally the actual and predicted class indices of the same rows (classes
    or integers 0-2, in sequences or arrays)."""
    actual = np.asarray(actual, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    if actual.shape != predicted.shape:
        raise ValueError("actual/predicted length mismatch")
    if actual.size == 0:
        raise ValueError("cannot build a confusion matrix from no pairs")
    if min(actual.min(), predicted.min()) < 0 or max(actual.max(), predicted.max()) > 2:
        raise ValueError("a class index outside 0-2")
    return ConfusionMatrix3(counts=np.bincount(3 * actual + predicted, minlength=9).reshape(3, 3))
