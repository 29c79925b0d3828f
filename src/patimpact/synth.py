"""Seeded synthetic patent corpora for desk-scale experiments.

The generator wires citations by preferential attachment (controllable
exponent), which yields the right-skewed forward-citation distributions seen
in real corpora, and injects a learnable signal: patents with more non-patent
citations and broader IPC coverage attract more citations. Post-hoc value
fields (maintenance, transfers, family size) are drawn conditionally on the
realized citation counts so downstream trend tests have something to find.
"""

from __future__ import annotations

import datetime as dt
from dataclasses import dataclass

import numpy as np

from .corpus import CitedRef, Corpus, Party, PatentRecord, PostHoc, Priority

COUNTRY_POOL = ["US", "JP", "KR", "DE", "CN", "FR", "GB", "CA"]
COUNTRY_WEIGHTS = [0.45, 0.15, 0.12, 0.08, 0.08, 0.04, 0.04, 0.04]

OFF_DOMAIN_SUBCLASSES = [
    "H01G", "H02J", "C08J", "B60L", "G01R", "C01B", "H01B", "B32B", "C09D", "G06F",
]

TOPIC_POOL = [
    "battery pack design",
    "fuel cell power generation",
    "cathode active materials",
    "solid electrolytes",
    "anode active materials",
    "battery separators",
    "fuel cell catalysts",
    "electrolyte additives",
    "battery management systems",
    "energy storage devices",
]
TOPIC_WEIGHTS = [0.22, 0.18, 0.12, 0.10, 0.09, 0.08, 0.07, 0.06, 0.05, 0.03]


@dataclass(frozen=True)
class SynthParams:
    n_patents: int = 2000
    year_range: tuple[int, int] = (1996, 2014)
    seed: int = 0
    citation_attachment_exponent: float = 1.0
    feature_signal_strength: float = 1.2
    mean_internal_citations: float = 7.0
    mean_external_citations: float = 2.8
    recency_time_constant: float = 4.0
    domain_ipc_prefix: str = "H01M"

    def validate(self) -> None:
        if self.n_patents < 10:
            raise ValueError("n_patents must be >= 10")
        if self.year_range[0] > self.year_range[1]:
            raise ValueError("year_range start exceeds end")
        if self.citation_attachment_exponent < 0:
            raise ValueError("citation_attachment_exponent must be >= 0")
        if self.mean_internal_citations < 0 or self.mean_external_citations < 0:
            raise ValueError("mean citation counts must be >= 0")
        if self.recency_time_constant <= 0:
            raise ValueError("recency_time_constant must be > 0")


class _PoolDraw:
    """One draw from a fixed pool with fixed weights, consuming the stream
    exactly as ``Generator.choice(pool, p=weights)`` does: the same
    normalised CDF, built once, and one ``random()`` per draw."""

    def __init__(self, pool: list[str], weights: list[float]):
        self.pool = pool
        self.cdf = np.cumsum(np.asarray(weights, dtype=np.float64))
        self.cdf /= self.cdf[-1]

    def __call__(self, rng: np.random.Generator) -> str:
        return self.pool[int(self.cdf.searchsorted(rng.random(), side="right"))]


_COUNTRY = _PoolDraw(COUNTRY_POOL, COUNTRY_WEIGHTS)
_TOPIC = _PoolDraw(TOPIC_POOL, TOPIC_WEIGHTS)


def _draw_without_replacement(
    rng: np.random.Generator, p: np.ndarray, size: int
) -> np.ndarray:
    """``Generator.choice(len(p), size, replace=False, p=p)``: the same indices
    in the same order, from the same draws, without its validation or its
    copy of ``p``. ``p`` must be normalised; it is overwritten."""
    if np.count_nonzero(p > 0) < size:
        raise ValueError("fewer non-zero entries in p than size")
    found = np.empty(size, dtype=np.int64)
    n_found = 0
    while n_found < size:
        x = rng.random(size - n_found)
        if n_found > 0:
            p[found[:n_found]] = 0
        cdf = np.cumsum(p)
        cdf /= cdf[-1]
        new = cdf.searchsorted(x, side="right")
        # first occurrence of each index, kept in draw order
        _, first = np.unique(new, return_index=True)
        first.sort()
        new = new.take(first)
        found[n_found : n_found + new.size] = new
        n_found += new.size
    return found


def _ipc_code(rng: np.random.Generator, subclass: str) -> str:
    group = int(rng.integers(1, 100))
    sub = int(rng.integers(0, 100))
    return f"{subclass}{group}/{sub:02d}"


def generate_synthetic(params: SynthParams) -> Corpus:
    """Build a deterministic corpus; identical params give identical bytes."""
    params.validate()
    rng = np.random.default_rng(params.seed)
    n = params.n_patents
    y0, y1 = params.year_range
    start = dt.date(y0, 1, 1)
    end = dt.date(y1, 12, 31)

    n_firms = max(8, n // 12)
    n_inventors = max(20, n // 3)

    # Static attributes, drawn in one fixed order, then sorted by grant date
    # so citation wiring sees a stable "already granted" prefix.
    grant_days = sorted(int(rng.integers(0, (end - start).days + 1)) for _ in range(n))
    patents = []
    for i, gday in enumerate(grant_days):
        grant = start + dt.timedelta(days=gday)
        lag_days = int(380 + rng.exponential(350.0))
        filing = grant - dt.timedelta(days=lag_days)

        n_extra_codes = int(rng.poisson(0.9))
        codes = [_ipc_code(rng, params.domain_ipc_prefix)]
        for _ in range(n_extra_codes):
            subclass = OFF_DOMAIN_SUBCLASSES[int(rng.integers(0, len(OFF_DOMAIN_SUBCLASSES)))]
            codes.append(_ipc_code(rng, subclass))

        npl = int(rng.poisson(float(np.exp(rng.normal(0.8, 1.0)))))
        n_ind = 1 + int(rng.poisson(1.3))
        ind_words = [max(8, int(rng.normal(120.0, 35.0))) for _ in range(n_ind)]

        n_assignees = 1 + int(rng.poisson(0.25))
        assignees = [
            Party(
                country=_COUNTRY(rng),
                name=f"FIRM-{int(rng.integers(0, n_firms)):04d}",
            )
            for _ in range(n_assignees)
        ]
        n_inv = 1 + int(rng.poisson(1.5))
        inventors = [
            Party(
                country=_COUNTRY(rng),
                name=f"INV-{int(rng.integers(0, n_inventors)):05d}",
            )
            for _ in range(n_inv)
        ]
        priorities = tuple(
            Priority(
                country=_COUNTRY(rng),
                date=filing - dt.timedelta(days=int(30 + rng.integers(0, 365))),
            )
            for _ in range(int(rng.poisson(0.7)))
        )

        # Citation-attractiveness signal: richer science base and broader
        # IPC coverage make a patent more likely to be cited later.
        signal = 0.9 * (np.log1p(npl) - 1.1) + 0.6 * (len(codes) - 1.9)

        patents.append(
            {
                "id": f"SYN-{i:06d}",
                "grant": grant,
                "filing": filing,
                "codes": codes,
                "npl": npl,
                "ind_words": ind_words,
                "dep": int(rng.poisson(9.0)),
                "abstract": 40 + int(rng.poisson(75.0)),
                "assignees": assignees,
                "inventors": inventors,
                "priorities": priorities,
                "topic": _TOPIC(rng),
                "signal": float(signal),
            }
        )

    grants = np.array([p["grant"].toordinal() for p in patents], dtype=np.float64)
    signal_weight = np.exp(
        params.feature_signal_strength * np.array([p["signal"] for p in patents])
    )
    # an internal citation of patent i is the same record whoever cites it
    prior_art = [
        CitedRef(
            country="US",
            filing_date=p["filing"],
            ipc_codes=tuple(p["codes"]),
            cited_id=p["id"],
            in_domain=any(c.startswith(params.domain_ipc_prefix) for c in p["codes"]),
        )
        for p in patents
    ]
    popularity = np.ones(n)  # in-degree + 1
    weights_buf = np.empty(n)
    exponent = params.citation_attachment_exponent
    backrefs: list[list[CitedRef]] = [[] for _ in range(n)]

    for j, citer in enumerate(patents):
        # prior art must be granted before the citing patent's filing date
        filed = citer["filing"].toordinal()
        k = int(np.searchsorted(grants, filed, side="left"))
        m_internal = min(int(rng.poisson(params.mean_internal_citations)), k)
        refs: list[CitedRef] = []
        if m_internal > 0:
            # attachment kernel: raw popularity discounted by prior-art age,
            # all raised to the exponent (exponent 0 means uniform choice);
            # (grant - filed) / 365.25 is minus the age in years, bit for bit
            weights = weights_buf[:k]
            np.subtract(grants[:k], filed, out=weights)
            weights /= 365.25
            weights /= params.recency_time_constant
            np.exp(weights, out=weights)
            weights *= popularity[:k]
            if exponent != 1.0:  # x ** 1.0 == x
                weights **= exponent
            weights *= signal_weight[:k]
            total = weights.sum()
            if not 0.0 < total < np.inf:
                raise ValueError(
                    f"citation_attachment_exponent {exponent!r} overflows the "
                    f"attachment kernel (weight sum {total!r})"
                )
            weights /= total
            chosen = _draw_without_replacement(rng, weights, m_internal)
            chosen.sort()
            refs.extend(prior_art[idx] for idx in chosen.tolist())
            popularity[chosen] += 1.0
        for _ in range(int(rng.poisson(params.mean_external_citations))):
            subclass = (
                params.domain_ipc_prefix
                if rng.random() < 0.45
                else OFF_DOMAIN_SUBCLASSES[int(rng.integers(0, len(OFF_DOMAIN_SUBCLASSES)))]
            )
            code = _ipc_code(rng, subclass)
            refs.append(
                CitedRef(
                    country=_COUNTRY(rng),
                    filing_date=citer["filing"] - dt.timedelta(days=int(rng.integers(200, 5500))),
                    ipc_codes=(code,),
                    cited_id=None,
                    in_domain=code.startswith(params.domain_ipc_prefix),
                )
            )
        backrefs[j] = refs

    records: dict[str, PatentRecord] = {}
    for i, p in enumerate(patents):
        cited_total = int(popularity[i]) - 1
        maintenance = float(
            np.clip(rng.normal(4.0 + 2.0 * np.log1p(cited_total), 2.2), 0.5, 20.0)
        )
        post_hoc = PostHoc(
            maintenance_years=round(maintenance, 2),
            transfer_count=int(rng.poisson(0.15 + 0.10 * cited_total)),
            family_size=1 + int(rng.poisson(0.7 + 0.18 * cited_total)),
        )
        records[p["id"]] = PatentRecord(
            id=p["id"],
            filing_date=p["filing"],
            grant_date=p["grant"],
            ipc_codes=tuple(p["codes"]),
            independent_claim_word_counts=tuple(p["ind_words"]),
            dependent_claim_count=p["dep"],
            abstract_word_count=p["abstract"],
            assignees=tuple(p["assignees"]),
            inventors=tuple(p["inventors"]),
            priorities=p["priorities"],
            backward_citations=tuple(backrefs[i]),
            npl_citation_count=p["npl"],
            post_hoc=post_hoc,
            topic_label=p["topic"],
        )

    return Corpus(records=records, domain_ipc_prefix=params.domain_ipc_prefix)


def expected_uniform_indegree(corpus: Corpus) -> dict[str, float]:
    """Expected in-degree per patent if every internal citation had picked its
    target uniformly among the patents granted before the citer's filing date.

    Reference distribution for checking attachment-exponent-zero behaviour.
    """
    recs = sorted(corpus.records.values(), key=lambda r: (r.grant_date, r.id))
    grants = np.array([r.grant_date.toordinal() for r in recs])
    expected = np.zeros(len(recs))
    for rec in recs:
        k = int(np.searchsorted(grants, rec.filing_date.toordinal(), side="left"))
        m = sum(
            1
            for ref in rec.backward_citations
            if ref.cited_id is not None and ref.cited_id in corpus.records
        )
        if k > 0 and m > 0:
            expected[:k] += m / k
    return {rec.id: float(expected[i]) for i, rec in enumerate(recs)}
