"""Post-hoc validation: ordered-trend tests and topic-level impact scores.

The Jonckheere–Terpstra statistic sums pairwise Mann–Whitney counts (ties
count 0.5) over class-ordered groups MT < VT < BT. Significance comes from
the tie-corrected normal approximation or a seeded permutation of group
membership. Topic impact scores are class-weighted averages per
(topic, grant-year) cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence, Union

import numpy as np

from .corpus import CLASS_ORDER, Corpus, ImpactClass, PostHoc

VALUE_INDICATORS = ("maintenance_years", "transfer_count", "family_size")

JT_METHODS = ("normal_approx", "permutation")

DEFAULT_TOPIC_WEIGHTS: dict[ImpactClass, float] = {
    ImpactClass.BT: 10.0,
    ImpactClass.VT: 5.0,
    ImpactClass.MT: 1.0,
}


@dataclass(frozen=True)
class OrderedGroups:
    """Observations split by ordered class, lowest first."""

    groups: tuple[np.ndarray, ...]

    def __post_init__(self) -> None:
        arrays = tuple(np.asarray(g, dtype=np.float64).reshape(-1) for g in self.groups)
        if len(arrays) < 2:
            raise ValueError("need at least 2 groups")
        for i, g in enumerate(arrays):
            if g.size == 0:
                raise ValueError(f"group {i} is empty")
            # a NaN would rank above every number and tie with the other NaNs
            if np.isnan(g).any():
                raise ValueError(f"group {i} holds NaN")
        object.__setattr__(self, "groups", arrays)

    @property
    def sizes(self) -> tuple[int, ...]:
        return tuple(g.size for g in self.groups)

    def pooled(self) -> np.ndarray:
        return np.concatenate(self.groups)


@dataclass(frozen=True)
class JTResult:
    jt_statistic: float
    mean_h0: float
    variance_h0: float
    z: float
    p_value: float
    method: str  # "normal_approx" | "permutation"
    alternative: str = "increasing"
    n_permutations: Optional[int] = None


def _pair_count(lower: np.ndarray, upper: np.ndarray) -> float:
    """#(a < b) + 0.5 #(a == b) over a in lower, b in upper."""
    lower_sorted = np.sort(lower)
    strictly_less = np.searchsorted(lower_sorted, upper, side="left")
    less_or_equal = np.searchsorted(lower_sorted, upper, side="right")
    return float(strictly_less.sum()) + 0.5 * float((less_or_equal - strictly_less).sum())


def jt_statistic(groups: Sequence[np.ndarray]) -> float:
    """The statistic of groups lowest first; they are checked as
    `OrderedGroups` checks them, so NaN, an empty group or fewer than two
    groups raise ValueError."""
    groups = OrderedGroups(tuple(groups)).groups
    total = 0.0
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            total += _pair_count(groups[i], groups[j])
    return total


def _null_moments(sizes: Sequence[int], pooled: np.ndarray) -> tuple[float, float]:
    """Mean and tie-corrected variance of the statistic under no trend."""
    n_total = sum(sizes)
    mean = (n_total**2 - sum(s**2 for s in sizes)) / 4.0
    _, tie_counts = np.unique(pooled, return_counts=True)
    t = tie_counts.astype(np.float64)
    n = float(n_total)
    sizes_f = np.array(sizes, dtype=np.float64)
    a = (
        n * (n - 1) * (2 * n + 5)
        - float(np.sum(sizes_f * (sizes_f - 1) * (2 * sizes_f + 5)))
        - float(np.sum(t * (t - 1) * (2 * t + 5)))
    )
    b = float(np.sum(sizes_f * (sizes_f - 1) * (sizes_f - 2))) * float(
        np.sum(t * (t - 1) * (t - 2))
    )
    c = float(np.sum(sizes_f * (sizes_f - 1))) * float(np.sum(t * (t - 1)))
    variance = a / 72.0
    if n > 2:
        variance += b / (36.0 * n * (n - 1) * (n - 2))
    variance += c / (8.0 * n * (n - 1))
    return mean, variance


def _upper_tail_p(z: float) -> float:
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def _twice_jt(counts: np.ndarray) -> np.ndarray:
    """2·JT per row of a (rows, groups, codes) count table, in integers.

    A value with code c scores 2 per value of a lower group below c and 1
    per value of a lower group tied with it.
    """
    lower = counts[:, 0]
    twice = np.zeros(counts.shape[0], dtype=np.int64)
    for j in range(1, counts.shape[1]):
        score = np.cumsum(lower, axis=1)
        score *= 2
        score -= lower  # 2·#(< c) + #(= c) over the groups below j
        twice += np.einsum("rc,rc->r", counts[:, j], score)
        lower = lower + counts[:, j]
    return twice


# permutations scored per batch; bounds the (batch, groups, codes) count table
_PERMUTATION_CHUNK = 64


def _permutation_exceedances(
    batch: Sequence[OrderedGroups], observed: Sequence[float], seed: int, n_permutations: int
) -> list[int]:
    """#{JT_perm >= JT_obs} per entry; all entries score the same permutations.

    Row r of each drawn index matrix is the next ``rng.permutation`` of the
    pooled values, so the counts equal a one-permutation-at-a-time loop.
    Statistics are doubled to stay integral. Pairs with a bottom-group
    member add a base of n² - n₀² - Σ s(x) over the values drawn into the
    upper groups, with s(x) = 2·#(> x) + #(= x) over the pool, so only the
    upper groups' draws enter the per-code count table; the bottom class,
    MT, is the largest one. Pairs between two upper groups add 0 to
    2·Σ_{i<j} nᵢnⱼ more, so a row whose base reaches the target counts and
    one that stays below it even with that maximum does not: the table is
    built only for the rows in between.
    """
    sizes = batch[0].sizes
    n, n_bottom, n_upper = sum(sizes), sizes[0], len(sizes) - 1
    upper_max = 2 * sum(a * b for i, a in enumerate(sizes[1:]) for b in sizes[i + 2:])
    codes, scores, blocks, offsets = [], [], [], []
    for g in batch:
        code = np.unique(g.pooled(), return_inverse=True)[1].reshape(-1)
        ties = np.bincount(code)
        codes.append(code)
        scores.append((2 * (n - np.cumsum(ties)) + ties)[code])
        # (row, upper position) -> cell of a flat (rows, upper groups, codes) table
        blocks.append(n_upper * ties.size)
        offsets.append(
            (np.arange(_PERMUTATION_CHUNK) * blocks[-1])[:, None]
            + np.repeat(np.arange(n_upper) * ties.size, sizes[1:])
        )
    targets = [round(2.0 * obs) for obs in observed]
    at_least = [0] * len(batch)
    rng = np.random.default_rng(seed)
    identity = np.arange(n)
    for start in range(0, n_permutations, _PERMUTATION_CHUNK):
        rows = min(_PERMUTATION_CHUNK, n_permutations - start)
        upper = rng.permuted(np.broadcast_to(identity, (rows, n)), axis=1)[:, n_bottom:]
        for k in range(len(batch)):
            base = n * n - n_bottom * n_bottom - scores[k][upper].sum(axis=1)
            at_least[k] += int(np.count_nonzero(base >= targets[k]))
            open_rows = (base < targets[k]) & (base + upper_max >= targets[k])
            m = int(np.count_nonzero(open_rows))
            if m:
                cell = codes[k][upper[open_rows]]
                cell += offsets[k][:m]
                counts = np.bincount(cell.reshape(-1), minlength=m * blocks[k])
                twice = base[open_rows] + _twice_jt(counts.reshape(m, n_upper, -1))
                at_least[k] += int(np.count_nonzero(twice >= targets[k]))
    return at_least


def jonckheere_terpstra(
    groups: Union[OrderedGroups, Sequence[OrderedGroups]],
    method: str = "normal_approx",
    seed: int = 0,
    n_permutations: int = 10_000,
) -> Union[JTResult, list[JTResult]]:
    """One-sided (increasing) ordered-trend test across the groups.

    Permutation mode reassigns pooled observations to same-sized groups and
    uses p = (1 + #{JT_perm >= JT_obs}) / (1 + n_permutations). `groups` may
    also be a sequence of OrderedGroups with equal group sizes, such as
    several indicators measured on the same units: they then share the
    permutations drawn from `seed`, and one result per entry comes back, in
    order.
    """
    many = not isinstance(groups, OrderedGroups)
    batch = list(groups) if many else [groups]
    if not batch:
        raise ValueError("need at least one OrderedGroups")
    if any(g.sizes != batch[0].sizes for g in batch):
        raise ValueError("all OrderedGroups must have the same group sizes")
    if method not in JT_METHODS:
        raise ValueError(f"unknown method {method!r}")
    if method == "permutation" and n_permutations < 1:
        raise ValueError("n_permutations must be >= 1")

    observed = [jt_statistic(g.groups) for g in batch]
    moments = [_null_moments(g.sizes, g.pooled()) for g in batch]
    zs = [
        (obs - mean) / math.sqrt(variance) if variance > 0 else 0.0
        for obs, (mean, variance) in zip(observed, moments)
    ]
    if method == "normal_approx":
        if any(variance <= 0 for _, variance in moments):
            raise ValueError(
                "degenerate null variance (all observations tied); use permutation"
            )
        p_values = [_upper_tail_p(z) for z in zs]
    else:
        at_least = _permutation_exceedances(batch, observed, seed, n_permutations)
        p_values = [(1 + count) / (1 + n_permutations) for count in at_least]
    results = [
        JTResult(
            jt_statistic=obs,
            mean_h0=mean,
            variance_h0=variance,
            z=z,
            p_value=p,
            method=method,
            n_permutations=n_permutations if method == "permutation" else None,
        )
        for obs, (mean, variance), z, p in zip(observed, moments, zs, p_values)
    ]
    return results if many else results[0]


# --------------------------------------------------------------------------
# value-indicator validation
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class IndicatorValidation:
    indicator: str
    result: JTResult
    n_excluded: int
    group_sizes: tuple[int, ...]


def validate_value_indicators(
    corpus: Corpus,
    classes: Mapping[str, ImpactClass],
    method: str = "normal_approx",
    seed: int = 0,
    n_permutations: int = 10_000,
) -> dict[str, IndicatorValidation]:
    """Trend test for each post-hoc value indicator, groups ordered MT<VT<BT.

    Patents without post-hoc fields are excluded (counted, never imputed).
    Raises if any class group ends up empty. The indicators share one
    patent order, so in permutation mode they share one permutation draw.
    """
    if not classes:
        raise ValueError("no classified patents to validate")
    members: dict[ImpactClass, list[PostHoc]] = {c: [] for c in CLASS_ORDER}
    excluded = 0
    for pid, cls in classes.items():
        post_hoc = corpus.get(pid).post_hoc
        if post_hoc is None:
            excluded += 1
        else:
            members[cls].append(post_hoc)
    empty = [c.name for c in CLASS_ORDER if not members[c]]
    if empty:
        raise ValueError(f"empty class group(s) {empty} after {excluded} exclusion(s)")
    batch = [
        OrderedGroups(
            tuple(
                np.array([float(getattr(ph, indicator)) for ph in members[c]])
                for c in CLASS_ORDER
            )
        )
        for indicator in VALUE_INDICATORS
    ]
    results = jonckheere_terpstra(
        batch, method=method, seed=seed, n_permutations=n_permutations
    )
    return {
        indicator: IndicatorValidation(
            indicator=indicator,
            result=result,
            n_excluded=excluded,
            group_sizes=groups.sizes,
        )
        for indicator, groups, result in zip(VALUE_INDICATORS, batch, results)
    }


def validation_rows(
    per_horizon: Mapping[str, Mapping[str, IndicatorValidation]]
) -> tuple[list[str], list[list]]:
    """The header and rows of the validation table: horizon, indicator,
    jt_statistic, z, p_value, method, n_excluded."""
    header = ["horizon", "indicator", "jt_statistic", "z", "p_value", "method", "n_excluded"]
    rows = []
    for horizon_key, validations in per_horizon.items():
        for indicator in VALUE_INDICATORS:
            if indicator in validations:
                v = validations[indicator]
                rows.append([
                    horizon_key, indicator, v.result.jt_statistic, v.result.z,
                    v.result.p_value, v.result.method, v.n_excluded,
                ])
    return header, rows


# --------------------------------------------------------------------------
# topic impact scores
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TopicScoreTable:
    """score and patent count per (topic, grant year) cell."""

    scores: dict[tuple[str, int], float]
    counts: dict[tuple[str, int], int]


def topic_impact_scores(
    corpus: Corpus,
    classes: Mapping[str, ImpactClass],
    weights: Optional[Mapping[ImpactClass, float]] = None,
) -> TopicScoreTable:
    """Mean class weight over each topic's patents granted in each year.

    With default weights (BT 10, VT 5, MT 1) a cell of all-moderate patents
    scores exactly 1 and scores are bounded by [1, 10].
    """
    weights = dict(DEFAULT_TOPIC_WEIGHTS if weights is None else weights)
    totals: dict[tuple[str, int], float] = {}
    counts: dict[tuple[str, int], int] = {}
    for pid, cls in classes.items():
        rec = corpus.get(pid)
        if rec.topic_label is None:
            continue
        key = (rec.topic_label, rec.grant_date.year)
        totals[key] = totals.get(key, 0.0) + weights[cls]
        counts[key] = counts.get(key, 0) + 1
    if not counts:
        raise ValueError("no patents with topic labels among the classified set")
    scores = {key: totals[key] / counts[key] for key in totals}
    return TopicScoreTable(scores=scores, counts=counts)
