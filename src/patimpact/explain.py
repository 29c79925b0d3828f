"""Shapley attributions for trained models.

Attributions use the interventional (marginal-expectation) value function:
v(S) is the model output averaged over background rows with the dims in S
replaced by the explained instance's values. Exact enumeration is available
up to 20 groups and serves as the oracle for the permutation-sampling
estimator used on the full indicator set. Both estimators telescope, so the
attributions plus the base value reproduce the model output exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence, Union

import numpy as np

from . import mtl
from .corpus import Horizon, ImpactClass
from .indicators import FEATURE_NAMES, N_FEATURES
from .mtl import INFERENCE_BLOCK_ROWS, InferenceWorkspace, MtlModel
from .seeding import derive_seed

MAX_EXACT_GROUPS = 20


@dataclass(frozen=True)
class AttributionTarget:
    """Which probability is being explained: class `impact_class` of one task."""

    horizon: Horizon
    impact_class: ImpactClass = ImpactClass.BT


@dataclass(frozen=True)
class BackgroundSet:
    """Reference rows the interventional value function marginalizes over."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=np.float64)
        if m.ndim != 2 or m.shape[0] == 0:
            raise ValueError("background must be a non-empty 2-D matrix")
        object.__setattr__(self, "matrix", m)

    @property
    def n_dims(self) -> int:
        return self.matrix.shape[1]

    @classmethod
    def sample(cls, X: np.ndarray, size: int = 100, seed: int = 0) -> "BackgroundSet":
        """``size`` rows of ``X`` drawn without replacement, in their order in
        ``X``, or all of them when ``X`` has no more than ``size`` rows."""
        X = np.asarray(X, dtype=np.float64)
        if X.shape[0] > size:
            kept = np.random.default_rng(seed).choice(X.shape[0], size=size, replace=False)
            X = X[np.sort(kept)]
        return cls(matrix=X)


@dataclass(frozen=True)
class FeatureGrouping:
    """Named partition of the input dims; attribution is per group."""

    names: tuple[str, ...]
    members: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.names) != len(self.members):
            raise ValueError("names/members length mismatch")
        seen: set[int] = set()
        for dims in self.members:
            if not dims:
                raise ValueError("empty group")
            overlap = seen & set(dims)
            if overlap:
                raise ValueError(f"dims {sorted(overlap)} appear in multiple groups")
            seen.update(dims)
        object.__setattr__(self, "_covered", frozenset(seen))

    @property
    def n_groups(self) -> int:
        return len(self.names)

    def covers(self, n_dims: int) -> bool:
        return getattr(self, "_covered") == set(range(n_dims))

    @classmethod
    def singletons(cls, names: Sequence[str]) -> "FeatureGrouping":
        return cls(names=tuple(names), members=tuple((i,) for i in range(len(names))))


def default_grouping() -> FeatureGrouping:
    """Scalar indicators stay singleton; each section-frequency block
    (TE_4_A..H, PK_3_A..H) collapses to one named group. 30 groups."""
    names: list[str] = []
    members: list[tuple[int, ...]] = []
    te4 = tuple(i for i, n in enumerate(FEATURE_NAMES) if n.startswith("TE_4_"))
    pk3 = tuple(i for i, n in enumerate(FEATURE_NAMES) if n.startswith("PK_3_"))
    for i, name in enumerate(FEATURE_NAMES):
        if name.startswith("TE_4_"):
            if name == "TE_4_A":
                names.append("TE_4")
                members.append(te4)
        elif name.startswith("PK_3_"):
            if name == "PK_3_A":
                names.append("PK_3")
                members.append(pk3)
        else:
            names.append(name)
            members.append((i,))
    return FeatureGrouping(names=tuple(names), members=tuple(members))


@dataclass(frozen=True)
class AttributionRow:
    """Per-group attributions of one instance toward the target output."""

    instance_id: str
    phi: np.ndarray
    base_value: float
    model_output: float
    group_values: np.ndarray
    std_err: Optional[np.ndarray] = None

    def efficiency_gap(self) -> float:
        return abs(float(self.phi.sum()) + self.base_value - self.model_output)


ModelLike = Union[MtlModel, Callable[[np.ndarray], np.ndarray]]
TargetSpec = Union[AttributionTarget, Sequence[AttributionTarget], None]


def _evaluator(
    model: ModelLike, targets: Optional[Sequence[AttributionTarget]]
) -> Callable[[np.ndarray, np.ndarray], None]:
    """A function ``evaluate(X, out)`` that writes the outputs of (rows, dims)
    inputs into the (n_outputs, rows) array ``out``: for a trained model one
    output per target, all read from one trunk pass per block of
    `INFERENCE_BLOCK_ROWS` rows through a reused workspace; for a callable its
    one output, which must hold one value per row.

    A trained model's probabilities are `infer_proba`'s, looked up on `mtl`
    at each call so that a wrapper of it sees this inference too.
    """
    if isinstance(model, MtlModel):
        if not targets:
            raise ValueError("an attribution target is required for trained models")
        tasks = tuple(dict.fromkeys(t.horizon for t in targets))
        workspace = InferenceWorkspace()

        def evaluate(X: np.ndarray, out: np.ndarray) -> None:
            for start in range(0, X.shape[0], INFERENCE_BLOCK_ROWS):
                rows = slice(start, start + INFERENCE_BLOCK_ROWS)
                probs = mtl.infer_proba(model, X[rows], tasks, workspace)
                for k, t in enumerate(targets):
                    out[k, rows] = probs[t.horizon][:, t.impact_class]

        return evaluate
    if targets is not None and len(targets) > 1:
        raise ValueError("a callable model has one output; pass at most one target")

    def evaluate_callable(X: np.ndarray, out: np.ndarray) -> None:
        values = np.asarray(model(X), dtype=np.float64)
        if values.size != X.shape[0]:
            raise ValueError(f"the model gave {values.size} outputs for {X.shape[0]} rows")
        out[0] = values.reshape(-1)

    return evaluate_callable


def _resolve_grouping(instance: np.ndarray, grouping: Optional[FeatureGrouping]) -> FeatureGrouping:
    if grouping is not None:
        return grouping
    if instance.size == N_FEATURES:
        return default_grouping()
    return FeatureGrouping.singletons([f"x{i}" for i in range(instance.size)])


def _group_values(instance: np.ndarray, grouping: FeatureGrouping,
                  display_values: Optional[np.ndarray]) -> np.ndarray:
    source = instance if display_values is None else np.asarray(display_values, dtype=np.float64)
    return np.array([float(source[list(dims)].sum()) for dims in grouping.members])


def shapley_exact(
    model: ModelLike,
    instance: np.ndarray,
    background: BackgroundSet,
    target: Optional[AttributionTarget] = None,
    grouping: Optional[FeatureGrouping] = None,
    instance_id: str = "",
    display_values: Optional[np.ndarray] = None,
) -> AttributionRow:
    """Exact Shapley values by full subset enumeration (<= 20 groups)."""
    instance = np.asarray(instance, dtype=np.float64).reshape(-1)
    grouping = _resolve_grouping(instance, grouping)
    g = grouping.n_groups
    if g > MAX_EXACT_GROUPS:
        raise ValueError(f"{g} groups exceeds the exact enumeration bound {MAX_EXACT_GROUPS}")
    f = _evaluator(model, None if target is None else [target])
    bg = background.matrix
    out = np.empty((1, bg.shape[0]))

    # one value-function evaluation per coalition, cached by bitmask
    values = np.empty(1 << g)
    for mask in range(1 << g):
        composite = bg.copy()
        for gi in range(g):
            if mask >> gi & 1:
                dims = list(grouping.members[gi])
                composite[:, dims] = instance[dims]
        f(composite, out)
        values[mask] = float(out[0].mean())

    fact = [math.factorial(i) for i in range(g + 1)]
    weight_by_size = [fact[s] * fact[g - s - 1] / fact[g] for s in range(g)]
    phi = np.zeros(g)
    for gi in range(g):
        bit = 1 << gi
        for mask in range(1 << g):
            if mask & bit:
                continue
            s = bin(mask).count("1")
            phi[gi] += weight_by_size[s] * (values[mask | bit] - values[mask])

    return AttributionRow(
        instance_id=instance_id,
        phi=phi,
        base_value=float(values[0]),
        model_output=float(values[(1 << g) - 1]),
        group_values=_group_values(instance, grouping, display_values),
    )


def shapley_sampled(
    model: ModelLike,
    instance: np.ndarray,
    background: BackgroundSet,
    target: TargetSpec = None,
    grouping: Optional[FeatureGrouping] = None,
    n_permutations: int = 200,
    seed: int = 0,
    instance_id: str = "",
    display_values: Optional[np.ndarray] = None,
    background_size: Optional[int] = None,
) -> Union[AttributionRow, list[AttributionRow]]:
    """Permutation-sampling Shapley estimate with Monte-Carlo standard errors.

    Each sampled permutation contributes one marginal-contribution sample per
    group; the estimator is unbiased and deterministic per seed. `target` may
    also be a sequence of targets of one trained model: they then share the
    sampled permutations, each coalition batch goes through the trunk once
    for all of them, and one row per target comes back, in target order.

    With a ``background_size`` below the background's row count, the
    background is a pool: right after drawing its permutation, each
    permutation draws ``background_size`` of the pool's rows without
    replacement from the same stream (the per-sample background of Štrumbelj
    and Kononenko, KAIS 2014). The estimand is then the value function over
    the whole pool, and the standard errors cover the draws as well as the
    permutations. A permutation's samples start from its own base value, the
    mean output of its drawn rows; `base_value` and `model_output` are the
    means over the permutations of the first and last coalition values, so
    the attributions still add up to their difference. Otherwise every
    permutation uses the whole background, whose base pass runs once.

    The model sees each distinct coalition row once per permutation: a row
    that a group's joining leaves bit for bit as it was keeps its value, and a
    row that has become the instance takes the instance's value. The rows it
    does see go in batches of a multiple of 4 rows, padded with copies of a
    row; a permutation that draws sends its drawn rows at the head of its
    batch. On OpenBLAS 0.3.31 a row's outputs then do not depend on its
    position or on the batch size (see `mtl.INFERENCE_BLOCK_ROWS`), so every
    value equals the one a full coalition batch would give.
    """
    if n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")
    if background_size is not None and background_size < 1:
        raise ValueError("background_size must be >= 1")
    many = target is not None and not isinstance(target, AttributionTarget)
    targets = list(target) if many else None if target is None else [target]
    instance = np.asarray(instance, dtype=np.float64).reshape(-1)
    grouping = _resolve_grouping(instance, grouping)
    g = grouping.n_groups
    evaluate = _evaluator(model, targets)
    pool = background.matrix
    n_pool, d = pool.shape
    draw = background_size is not None and background_size < n_pool
    m = background_size if draw else n_pool
    n_out = len(targets) if targets else 1
    rng = np.random.default_rng(seed)

    member = np.zeros((g, d), dtype=bool)
    for gi, dims in enumerate(grouping.members):
        member[gi, list(dims)] = True
    # differs[gi, r]: pool row r holds other bits than the instance on group
    # gi, so that gi's joining changes the row. A row that differs on a dim
    # outside every group never becomes the instance: count that as one more
    # difference, which no join removes.
    unequal = pool.view(np.int64) != instance.view(np.int64)
    differs = np.array([unequal[:, list(dims)].any(axis=1) for dims in grouping.members])
    n_differs = differs.sum(axis=0) + unequal[:, ~member.any(axis=0)].any(axis=1)

    # the rows the model sees: a permutation's drawn background rows, if it
    # draws, then its coalition rows. The values: the instance's in column 0,
    # the background rows' in columns 4..m + 3 and the permutation's coalition
    # rows' from column m + 4 on
    first = m if draw else 0
    rows = np.empty((first + g * m + 3, d))
    values = np.empty((n_out, m + 4 + g * m + 3))

    def evaluate_rows(n_rows: int, column: int) -> None:
        padded = -(-n_rows // 4) * 4
        rows[n_rows:padded] = rows[0]
        evaluate(rows[:padded], values[:, column:column + padded])

    if not draw:
        bg, bg_differs, bg_n_differs = pool, differs, n_differs
        rows[:m] = bg
        evaluate_rows(m, 4)
        base_values = values[:, 4:m + 4].mean(axis=1)
    rows[:4] = instance
    evaluate_rows(4, 0)

    samples = np.empty((n_out, n_permutations, g))
    bases = np.empty((n_out, n_permutations))
    ends = np.empty((n_out, n_permutations))
    for p in range(n_permutations):
        order = rng.permutation(g)
        if draw:
            drawn = rng.choice(n_pool, size=m, replace=False)
            bg, bg_differs, bg_n_differs = pool[drawn], differs[:, drawn], n_differs[drawn]
            rows[:m] = bg
        # coalition state after each join: step s holds the instance's values
        # on groups order[:s + 1] and the background's elsewhere
        joined = np.logical_or.accumulate(member[order], axis=0)
        # whether step s changes row r, and whether the row still differs
        # from the instance after it
        changed = bg_differs[order]
        differs_after = changed.cumsum(axis=0) < bg_n_differs
        needed = changed & differs_after
        flat = np.flatnonzero(needed)
        if flat.size:
            # the indices are in range; "clip" lets take write into rows directly
            np.take(bg, flat % m, axis=0, out=rows[first:first + flat.size], mode="clip")
            start = first
            for s, count in enumerate(needed.sum(axis=1).tolist()):
                np.copyto(rows[start:start + count], instance, where=joined[s])
                start += count
        if first + flat.size:
            evaluate_rows(first + flat.size, m + 4 - first)
        if draw:
            base_values = values[:, 4:m + 4].mean(axis=1)
        # the column of values that holds each (step, row)'s value: the row's
        # latest evaluation, or the background row before any, and the
        # instance once the row equals it
        column = np.tile(np.arange(4, m + 4), (g, 1))
        column.flat[flat] = np.arange(m + 4, m + 4 + flat.size)
        np.maximum.accumulate(column, axis=0, out=column)
        column[~differs_after] = 0
        table = values.take(column.reshape(-1), axis=1)
        step_values = table.reshape(n_out, g, m).mean(axis=2)
        samples[:, p, order] = np.diff(step_values, axis=1, prepend=base_values[:, None])
        bases[:, p], ends[:, p] = base_values, step_values[:, -1]

    if draw:
        base_values, end_values = bases.mean(axis=1), ends.mean(axis=1)
    else:  # every permutation starts and ends on the same values
        end_values = ends[:, -1]
    group_values = _group_values(instance, grouping, display_values)
    rows = []
    for k in range(n_out):
        if n_permutations > 1:
            std_err = samples[k].std(axis=0, ddof=1) / math.sqrt(n_permutations)
        else:
            std_err = np.zeros(g)
        rows.append(
            AttributionRow(
                instance_id=instance_id,
                phi=samples[k].mean(axis=0),
                base_value=float(base_values[k]),
                model_output=float(end_values[k]),
                group_values=group_values,
                std_err=std_err,
            )
        )
    return rows if many else rows[0]


# --------------------------------------------------------------------------
# aggregation
# --------------------------------------------------------------------------

def global_importance(
    rows: Sequence[AttributionRow], grouping: FeatureGrouping
) -> list[tuple[str, float]]:
    """Groups ranked by mean |phi| (descending; ties alphabetically)."""
    if not rows:
        raise ValueError("no attribution rows")
    mean_abs = np.mean([np.abs(r.phi) for r in rows], axis=0)
    return rank_groups(zip(grouping.names, mean_abs))


def rank_groups(importance: Iterable[tuple[str, float]]) -> list[tuple[str, float]]:
    """(group, importance) pairs by importance, descending; ties by name, ascending."""
    return sorted(((name, float(v)) for name, v in importance), key=lambda kv: (-kv[1], kv[0]))


def group_summary(
    rows: Sequence[AttributionRow],
    grouping: FeatureGrouping,
    top_k: int = 10,
) -> tuple[list[tuple[str, float]], list[dict]]:
    """Summary-plot dataset: per-instance (feature value, phi) pairs for the
    top-k groups of ``rows``.

    Returns (importance ranking of the rows, record dicts). No rows yield
    empty outputs rather than an error.
    """
    if not rows:
        return [], []
    ranking = global_importance(rows, grouping)[:top_k]
    index = {name: grouping.names.index(name) for name, _ in ranking}
    records = []
    for row in rows:
        for name, _ in ranking:
            gi = index[name]
            records.append(
                {
                    "instance_id": row.instance_id,
                    "group": name,
                    "feature_value": float(row.group_values[gi]),
                    "phi": float(row.phi[gi]),
                }
            )
    return ranking, records


# --------------------------------------------------------------------------
# export
# --------------------------------------------------------------------------

def attribution_rows(
    by_target: Sequence[tuple[AttributionTarget, Sequence[AttributionRow]]],
    grouping: FeatureGrouping,
) -> tuple[list[str], list[list]]:
    """The header and rows of one table holding every (target, rows) pair, in
    pair order: a row per instance and group, with no std_err for exact rows."""
    header = [
        "instance_id", "group", "feature_value", "phi", "std_err",
        "base_value", "model_output", "horizon", "class",
    ]
    rows = [
        [
            row.instance_id,
            name,
            row.group_values[gi],
            row.phi[gi],
            None if row.std_err is None else row.std_err[gi],
            row.base_value,
            row.model_output,
            target.horizon.key,
            target.impact_class.name,
        ]
        for target, att_rows in by_target
        for row in att_rows
        for gi, name in enumerate(grouping.names)
    ]
    return header, rows


def _color_for_rank(rank: float) -> str:
    lo = (62, 102, 225)
    hi = (225, 62, 90)
    rgb = tuple(int(round(a + (b - a) * rank)) for a, b in zip(lo, hi))
    return f"rgb({rgb[0]},{rgb[1]},{rgb[2]})"


def render_beeswarm_svg(
    path,
    rows: Sequence[AttributionRow],
    grouping: FeatureGrouping,
    top_k: int = 10,
    title: str = "",
) -> None:
    """Minimal deterministic SVG summary plot.

    One horizontal band per top-ranked group; each marker is one instance,
    x-position by phi, colour by the instance's feature value rank within
    the group (blue low, red high).
    """
    ranking = global_importance(rows, grouping)[: top_k]
    if not ranking:
        raise ValueError("nothing to plot")
    names = [name for name, _ in ranking]
    idx = [grouping.names.index(name) for name in names]
    phis = np.array([[float(r.phi[i]) for i in idx] for r in rows])
    vals = np.array([[float(r.group_values[i]) for i in idx] for r in rows])

    width, row_h, left, right, top = 720, 26, 170, 30, 34
    height = top + row_h * len(names) + 30
    span = max(1e-12, float(np.abs(phis).max()))

    def x_of(phi: float) -> float:
        return left + (phi / span * 0.5 + 0.5) * (width - left - right)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}" '
        f'font-family="sans-serif" font-size="11">',
        f'<text x="{left}" y="16" font-size="13">{title}</text>',
        f'<line x1="{x_of(0):.1f}" y1="{top - 8}" x2="{x_of(0):.1f}" y2="{height - 26}" '
        'stroke="#999" stroke-dasharray="3,3"/>',
        f'<text x="{x_of(0):.1f}" y="{height - 10}" text-anchor="middle" fill="#555">0</text>',
        f'<text x="{width - right}" y="{height - 10}" text-anchor="end" fill="#555">'
        f'phi (max |phi| = {span:.4g})</text>',
    ]
    for r_i, name in enumerate(names):
        cy = top + row_h * r_i + row_h / 2
        parts.append(
            f'<text x="{left - 8}" y="{cy + 4:.1f}" text-anchor="end">{name}</text>'
        )
        column = vals[:, r_i]
        order = column.argsort(kind="stable").argsort(kind="stable")
        denom = max(1, len(column) - 1)
        for inst_i, row in enumerate(rows):
            # deterministic per-marker vertical jitter
            jitter = (derive_seed(0, "jitter", row.instance_id, name) % 1000) / 1000.0
            y = cy + (jitter - 0.5) * (row_h - 10)
            color = _color_for_rank(order[inst_i] / denom)
            parts.append(
                f'<circle cx="{x_of(phis[inst_i, r_i]):.2f}" cy="{y:.2f}" r="3" '
                f'fill="{color}" fill-opacity="0.75"/>'
            )
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
