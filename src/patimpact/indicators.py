"""44-dimensional patent indicator vectors.

The layout is fixed and shared by extraction, training, and attribution:

    [0..4]    SC_1..SC_5    scope and coverage
    [5..6]    PR_1..PR_2    priority
    [7..12]   DEC_1..DEC_6  development effort and capabilities
    [13..14]  CP_1..CP_2    completeness
    [15..17]  TE_1..TE_3    technology-field activity/size/competitiveness
    [18..25]  TE_4_A..H     section frequencies of the patent's IPC codes
    [26]      TE_5          technology cycle time (median citation age, years)
    [27]      PK_1          non-patent (scientific) citations
    [28]      PK_2          technological recombination ratio
    [29..36]  PK_3_A..H     section frequencies of cited prior art
    [37..43]  PK_4..PK_10   prior-knowledge indicators

IPC granularity: section = first character, class = first 3 characters,
subclass = first 4 characters.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

import numpy as np

from . import tables
from .corpus import Corpus, IPC_SECTIONS, years_between

FEATURE_NAMES: tuple[str, ...] = (
    "SC_1", "SC_2", "SC_3", "SC_4", "SC_5",
    "PR_1", "PR_2",
    "DEC_1", "DEC_2", "DEC_3", "DEC_4", "DEC_5", "DEC_6",
    "CP_1", "CP_2",
    "TE_1", "TE_2", "TE_3",
    *(f"TE_4_{s}" for s in IPC_SECTIONS),
    "TE_5",
    "PK_1", "PK_2",
    *(f"PK_3_{s}" for s in IPC_SECTIONS),
    "PK_4", "PK_5", "PK_6", "PK_7", "PK_8", "PK_9", "PK_10",
)

N_FEATURES = len(FEATURE_NAMES)
assert N_FEATURES == 44

FEATURE_INDEX = {name: i for i, name in enumerate(FEATURE_NAMES)}

#: Default home country; parties from elsewhere count as "foreign" in DEC_2/DEC_5.
DEFAULT_HOME_COUNTRY = "US"


@dataclass(frozen=True)
class FeatureVector:
    """One patent's indicator values in the fixed 44-dim layout."""

    values: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != (N_FEATURES,):
            raise ValueError(f"expected {N_FEATURES} dims, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("feature vector contains non-finite values")
        object.__setattr__(self, "values", v)

    def __getitem__(self, name: str) -> float:
        return float(self.values[FEATURE_INDEX[name]])


def subclass_of(code: str) -> str:
    return code[:4]


def class_of(code: str) -> str:
    return code[:3]


def section_of(code: str) -> str:
    return code[:1]


# --------------------------------------------------------------------------
# corpus-level IPC statistics
# --------------------------------------------------------------------------

@dataclass
class IpcStats:
    """Grant-year issuance statistics per IPC subclass."""

    start_year: int
    end_year: int
    yearly_counts: dict[str, dict[int, int]]
    yearly_applicants: dict[str, dict[int, int]]
    cumulative_counts: dict[str, dict[int, int]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.cumulative_counts:
            for sub, per_year in self.yearly_counts.items():
                total = 0
                cum = {}
                for year in range(self.start_year, self.end_year + 1):
                    total += per_year.get(year, 0)
                    cum[year] = total
                self.cumulative_counts[sub] = cum

    def yearly_count(self, subclass: str, year: int) -> int:
        return self.yearly_counts.get(subclass, {}).get(year, 0)

    def cumulative_count(self, subclass: str, year: int) -> int:
        cum = self.cumulative_counts.get(subclass)
        if not cum:
            return 0
        if year < self.start_year:
            return 0
        return cum[min(year, self.end_year)]

    def applicant_count(self, subclass: str, year: int) -> int:
        return self.yearly_applicants.get(subclass, {}).get(year, 0)


def corpus_ipc_stats(corpus: Corpus) -> IpcStats:
    """Tally yearly issuance and distinct named applicants per IPC subclass."""
    if not corpus.records:
        raise ValueError("cannot build IPC statistics from an empty corpus")
    start_year, end_year = corpus.grant_year_range()
    counts: dict[str, dict[int, int]] = {}
    applicant_names: dict[str, dict[int, set[str]]] = {}
    for rec in corpus.records.values():
        year = rec.grant_date.year
        for sub in sorted({subclass_of(c) for c in rec.ipc_codes}):
            counts.setdefault(sub, {}).setdefault(year, 0)
            counts[sub][year] += 1
            names = {a.name for a in rec.assignees if a.name}
            if names:
                applicant_names.setdefault(sub, {}).setdefault(year, set()).update(names)
    applicants = {
        sub: {year: len(names) for year, names in per_year.items()}
        for sub, per_year in applicant_names.items()
    }
    return IpcStats(
        start_year=start_year,
        end_year=end_year,
        yearly_counts=counts,
        yearly_applicants=applicants,
    )


# --------------------------------------------------------------------------
# per-party history (PK_6..PK_9)
# --------------------------------------------------------------------------

@dataclass
class HistoryIndex:
    """Grant-date ordinals of each named party's patents, sorted ascending.

    Assignee patents are additionally split by domain membership (any IPC
    code under the corpus domain prefix) versus other classified fields;
    patents without IPC codes are counted in neither split.
    """

    inventor_grants: dict[str, list[int]]
    assignee_grants: dict[str, list[int]]
    assignee_domain_grants: dict[str, list[int]]
    assignee_other_grants: dict[str, list[int]]


def _prior(grants: dict[str, list[int]], name: str, before: int) -> int:
    """How many of ``name``'s grant ordinals in ``grants`` precede ``before``."""
    dates = grants.get(name)
    return bisect_left(dates, before) if dates else 0


def build_history_index(corpus: Corpus) -> HistoryIndex:
    inventor: dict[str, list[int]] = {}
    assignee: dict[str, list[int]] = {}
    assignee_domain: dict[str, list[int]] = {}
    assignee_other: dict[str, list[int]] = {}
    prefix = corpus.domain_ipc_prefix
    for rec in corpus.records.values():
        ordinal = rec.grant_date.toordinal()
        for name in {p.name for p in rec.inventors if p.name}:
            inventor.setdefault(name, []).append(ordinal)
        in_domain = any(c.startswith(prefix) for c in rec.ipc_codes)
        for name in {p.name for p in rec.assignees if p.name}:
            assignee.setdefault(name, []).append(ordinal)
            if rec.ipc_codes:
                target = assignee_domain if in_domain else assignee_other
                target.setdefault(name, []).append(ordinal)
    for index in (inventor, assignee, assignee_domain, assignee_other):
        for dates in index.values():
            dates.sort()
    return HistoryIndex(inventor, assignee, assignee_domain, assignee_other)


# --------------------------------------------------------------------------
# feature extraction
# --------------------------------------------------------------------------

def extract_features(
    corpus: Corpus,
    patent_id: str,
    stats: IpcStats,
    home_country: str = DEFAULT_HOME_COUNTRY,
    history: Optional[HistoryIndex] = None,
) -> FeatureVector:
    """Compute the 44 indicators for one patent.

    ``stats`` must come from the same corpus. ``history`` may be passed to
    amortize the party-history index across many extractions.
    """
    rec = corpus.get(patent_id)
    if history is None:
        history = build_history_index(corpus)

    v = np.zeros(N_FEATURES)
    refs = rec.backward_citations

    # scope and coverage
    v[0] = len({r.country for r in refs})
    v[1] = len(rec.independent_claim_word_counts)
    v[2] = rec.dependent_claim_count
    v[3] = statistics.fmean(rec.independent_claim_word_counts) if rec.independent_claim_word_counts else 0.0
    v[4] = len(set(rec.ipc_codes))

    # priority
    v[5] = len(rec.priorities)
    v[6] = len({p.country for p in rec.priorities})

    # development effort and capabilities
    v[7] = len(rec.assignees)
    v[8] = sum(1 for a in rec.assignees if a.country != home_country)
    v[9] = len({a.country for a in rec.assignees})
    v[10] = len(rec.inventors)
    v[11] = sum(1 for a in rec.inventors if a.country != home_country)
    v[12] = len({a.country for a in rec.inventors})

    # completeness
    v[13] = (rec.grant_date - rec.filing_date).days
    v[14] = rec.abstract_word_count

    # technology environment: per-subclass yearly statistics averaged from the
    # corpus start year through the grant year, then across subclasses
    subclasses = sorted({subclass_of(c) for c in rec.ipc_codes})
    last_year = min(rec.grant_date.year, stats.end_year)
    years = range(stats.start_year, last_year + 1)
    n_years = max(1, len(years))
    if subclasses:
        v[15] = statistics.fmean(
            stats.cumulative_count(s, last_year) / n_years for s in subclasses
        )
        v[16] = statistics.fmean(
            sum(stats.cumulative_count(s, y) for y in years) / n_years for s in subclasses
        )
        v[17] = statistics.fmean(
            sum(stats.applicant_count(s, y) for y in years) / n_years for s in subclasses
        )
    for code in rec.ipc_codes:
        section = section_of(code)
        if section in IPC_SECTIONS:
            v[18 + IPC_SECTIONS.index(section)] += 1

    # technology cycle time: median filing-date gap to prior art, in years
    if refs:
        v[26] = statistics.median(
            years_between(r.filing_date, rec.filing_date) for r in refs
        )

    # prior knowledge
    v[27] = rec.npl_citation_count
    own_subclasses = {subclass_of(c) for c in rec.ipc_codes}
    cited_subclasses = {subclass_of(c) for r in refs for c in r.ipc_codes}
    if refs and own_subclasses:
        v[28] = len(own_subclasses & cited_subclasses) / len(own_subclasses)
    for r in refs:
        for code in r.ipc_codes:
            section = section_of(code)
            if section in IPC_SECTIONS:
                v[29 + IPC_SECTIONS.index(section)] += 1
    v[37] = len({class_of(c) for r in refs for c in r.ipc_codes})
    v[38] = sum(1 for r in refs if r.in_domain)

    before = rec.grant_date.toordinal()
    if rec.inventors:
        v[39] = statistics.fmean(
            _prior(history.inventor_grants, p.name, before) if p.name else 0
            for p in rec.inventors
        )
    if rec.assignees:
        v[40] = statistics.fmean(
            _prior(history.assignee_grants, p.name, before) if p.name else 0
            for p in rec.assignees
        )
        v[41] = sum(
            _prior(history.assignee_domain_grants, p.name, before) for p in rec.assignees if p.name
        )
        v[42] = sum(
            _prior(history.assignee_other_grants, p.name, before) for p in rec.assignees if p.name
        )
    v[43] = len(refs)

    if rec.history_overrides is not None:
        ho = rec.history_overrides
        for dim, value in ((39, ho.pk_6), (40, ho.pk_7), (41, ho.pk_8), (42, ho.pk_9)):
            if value is not None:
                v[dim] = value

    return FeatureVector(values=v)


def extract_feature_matrix(
    corpus: Corpus,
    ids: Sequence[str],
    stats: Optional[IpcStats] = None,
    home_country: str = DEFAULT_HOME_COUNTRY,
) -> np.ndarray:
    """Stack feature vectors for ``ids`` into an (n, 44) matrix."""
    if stats is None:
        stats = corpus_ipc_stats(corpus)
    history = build_history_index(corpus)
    rows = [
        extract_features(corpus, pid, stats, home_country, history).values
        for pid in ids
    ]
    return np.vstack(rows) if rows else np.zeros((0, N_FEATURES))


# --------------------------------------------------------------------------
# standardization
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class Standardizer:
    """Per-dimension centering/scaling fitted on a training set.

    Zero-variance dimensions keep std 1 and are flagged degenerate.
    """

    mean: np.ndarray
    std: np.ndarray
    degenerate: np.ndarray

    def transform(self, values: np.ndarray) -> np.ndarray:
        return (np.asarray(values, dtype=np.float64) - self.mean) / self.std

    def to_json_obj(self) -> list[dict]:
        return [
            {
                "name": FEATURE_NAMES[i],
                "mean": float(self.mean[i]),
                "std": float(self.std[i]),
                "degenerate": bool(self.degenerate[i]),
            }
            for i in range(N_FEATURES)
        ]

    @classmethod
    def from_json_obj(cls, obj, name: str = "$") -> "Standardizer":
        """The standardizer of the JSON array that `to_json_obj` writes, its
        features in any order; ``name`` is its JSONPath in messages."""
        by_name = {
            tables.json_object(item, f"{name}[{i}]", _FEATURE_FIELDS)["name"]: item
            for i, item in enumerate(tables.json_list(obj, name))
        }
        mean = np.array([by_name[n]["mean"] for n in FEATURE_NAMES], dtype=np.float64)
        std = np.array([by_name[n]["std"] for n in FEATURE_NAMES], dtype=np.float64)
        degenerate = np.array([by_name[n]["degenerate"] for n in FEATURE_NAMES], dtype=bool)
        return cls(mean=mean, std=std, degenerate=degenerate)


def _positive(value, name: str) -> float:
    # a fitted std is never 0 or NaN, as a zero-variance dimension keeps std 1,
    # but it is inf where a dimension's variance overflows
    if not tables.json_number(value, name) > 0:
        raise tables.json_error(name, "a positive JSON number", value)
    return value


# the converter of each key of a feature's object in a standardizer's JSON array
_FEATURE_FIELDS = {
    "name": tables.json_str, "mean": tables.json_finite, "std": _positive,
    "degenerate": tables.json_bool,
}


def fit_standardizer(features: Iterable[FeatureVector] | np.ndarray) -> Standardizer:
    """Fit per-dimension mean and population std; needs at least 2 vectors."""
    if isinstance(features, np.ndarray):
        matrix = np.asarray(features, dtype=np.float64)
    else:
        matrix = np.vstack([fv.values for fv in features])
    if matrix.ndim != 2 or matrix.shape[0] < 2:
        raise ValueError("standardizer needs at least 2 feature vectors")
    mean = matrix.mean(axis=0)
    std = matrix.std(axis=0)
    degenerate = std == 0.0
    std = np.where(degenerate, 1.0, std)
    return Standardizer(mean=mean, std=std, degenerate=degenerate)
