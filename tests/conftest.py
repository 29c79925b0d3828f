"""Shared fixtures: a hand-crafted 10-patent corpus and cached synthetics.

Every number asserted against the crafted corpus was computed by hand from
the field values below; tests must not regenerate expectations from the
code under test.
"""

from __future__ import annotations

import datetime as dt
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from patimpact.corpus import (
    HORIZONS,
    CitedRef,
    Corpus,
    ImpactClass,
    Party,
    PatentRecord,
    PostHoc,
    Priority,
    save_corpus,
)
from patimpact.mtl import _softmax_inplace
from patimpact.pipeline import PipelineConfig, _write_csv, config_from_obj
from patimpact.synth import SynthParams, generate_synthetic


def d(iso: str) -> dt.date:
    return dt.date.fromisoformat(iso)


def softmax(logits) -> np.ndarray:
    """Row-wise stable softmax (max-logit subtraction), computed as inference does."""
    return _softmax_inplace(np.array(logits, dtype=np.float64))


def traced_peak_bytes(call) -> int:
    """The peak of the memory that ``call()`` allocates and tracemalloc
    traces (numpy arrays included), above what was live before it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def labeled_run_dir(
    out_dir: Path, corpus: Corpus, classes: dict[str, ImpactClass]
) -> PipelineConfig:
    """A config over ``out_dir``, which then holds ``corpus`` and a labels.csv
    giving each patent in ``classes`` its class at every horizon, as the
    corpus and label stages would; the stages after them can run on it."""
    save_corpus(corpus, out_dir / "corpus.jsonl")
    _write_csv(
        out_dir / "labels.csv",
        ["patent_id", "grant_year", *(f"{h.key}_class" for h in HORIZONS), "trajectory"],
        (
            [pid, corpus.get(pid).grant_date.year, *[cls.name] * len(HORIZONS), "sustained"]
            for pid, cls in classes.items()
        ),
    )
    return config_from_obj(
        {"schema": "patimpact-config/1", "out_dir": str(out_dir), "synth": {}}
    )


def make_patent(patent_id: str, **overrides) -> PatentRecord:
    """A minimal valid record; keyword overrides replace any field."""
    fields = dict(
        id=patent_id,
        filing_date=d("2004-01-01"),
        grant_date=d("2006-01-01"),
        ipc_codes=("H01M10/05",),
        independent_claim_word_counts=(30,),
        dependent_claim_count=2,
        abstract_word_count=50,
        assignees=(Party(country="US", name="ACME"),),
        inventors=(Party(country="US", name="INV-1"),),
        priorities=(),
        backward_citations=(),
        npl_citation_count=0,
        post_hoc=None,
        topic_label=None,
    )
    fields.update(overrides)
    return PatentRecord(**fields)


@pytest.fixture(scope="session")
def crafted_corpus() -> Corpus:
    """Ten patents covering every indicator path.

    Grant-year roster (H01M subclass unless noted):
      2003 P-B | 2006 P-C (G06F) | 2007 P-D | 2008 P-A (+C08J), P-F (+C08J),
      P-I (+H01G) | 2009 P-G, P-H | 2010 P-E, P-J
    """
    records = [
        # rich all-round patent; most hand computations target this one
        make_patent(
            "P-A",
            filing_date=d("2005-06-15"),
            grant_date=d("2008-06-15"),
            ipc_codes=("H01M10/05", "C08J5/22", "H01M4/38"),
            independent_claim_word_counts=(40, 50, 60),
            dependent_claim_count=5,
            abstract_word_count=120,
            assignees=(
                Party(country="US", name="ACME"),
                Party(country="JP", name="BETA"),
            ),
            inventors=(
                Party(country="US", name="INV-1"),
                Party(country="US", name="INV-2"),
                Party(country="KR", name="INV-3"),
            ),
            priorities=(
                Priority(country="US", date=d("2004-06-15")),
                Priority(country="JP", date=d("2004-08-01")),
                Priority(country="JP", date=d("2004-09-01")),
            ),
            backward_citations=(
                CitedRef(
                    country="US",
                    filing_date=d("2002-06-15"),
                    ipc_codes=("H01M10/05",),
                    cited_id="P-B",
                    in_domain=True,
                ),
                CitedRef(
                    country="JP",
                    filing_date=d("2000-06-16"),
                    ipc_codes=("B60L11/18", "C08J5/22"),
                    in_domain=False,
                ),
                CitedRef(
                    country="US",
                    filing_date=d("1996-06-17"),
                    ipc_codes=("G01R31/36",),
                    in_domain=False,
                ),
            ),
            npl_citation_count=7,
        ),
        # cited prior patent with no citations of its own
        make_patent(
            "P-B",
            filing_date=d("2002-06-15"),
            grant_date=d("2003-01-01"),
            assignees=(Party(country="US", name="ACME"),),
            inventors=(Party(country="US", name="INV-1"),),
        ),
        # off-domain patent of the same assignee (peripheral know-how)
        make_patent(
            "P-C",
            filing_date=d("2004-06-01"),
            grant_date=d("2006-01-01"),
            ipc_codes=("G06F17/00",),
            assignees=(Party(country="US", name="ACME"),),
            inventors=(Party(country="US", name="INV-9"),),
            # granted exactly 3 years after P-B: short-window boundary case
            backward_citations=(
                CitedRef(
                    country="US",
                    filing_date=d("2002-06-15"),
                    ipc_codes=("H01M10/05",),
                    cited_id="P-B",
                    in_domain=True,
                ),
            ),
        ),
        # duplicate-country citations and the 3/5-claim example
        make_patent(
            "P-D",
            filing_date=d("2005-03-10"),
            grant_date=d("2007-03-10"),
            ipc_codes=("H01M6/00",),
            independent_claim_word_counts=(40, 50, 60),
            dependent_claim_count=5,
            assignees=(Party(country="US", name="DELTA"),),
            inventors=(Party(country="US", name="INV-D"),),
            backward_citations=(
                CitedRef(country="US", filing_date=d("2001-01-01")),
                CitedRef(country="JP", filing_date=d("2000-01-01")),
                CitedRef(country="US", filing_date=d("1999-01-01")),
            ),
        ),
        # technology-cycle-time case: gaps of ~3, ~5, ~9 years
        make_patent(
            "P-E",
            filing_date=d("2010-01-01"),
            grant_date=d("2010-06-01"),
            ipc_codes=("H01M2/10",),
            assignees=(Party(country="US", name="ECHO"),),
            inventors=(Party(country="US", name="INV-E"),),
            backward_citations=(
                CitedRef(country="US", filing_date=d("2007-01-01")),
                CitedRef(country="US", filing_date=d("2005-01-01")),
                CitedRef(country="US", filing_date=d("2001-01-01")),
            ),
        ),
        # recombination ratio 0.5: {H01M, C08J} vs cited {H01M, B60L}
        make_patent(
            "P-F",
            filing_date=d("2006-09-01"),
            grant_date=d("2008-09-01"),
            ipc_codes=("H01M8/02", "C08J3/00"),
            assignees=(Party(country="US", name="FOXTROT"),),
            inventors=(Party(country="US", name="INV-F"),),
            backward_citations=(
                CitedRef(
                    country="US",
                    filing_date=d("2004-01-01"),
                    ipc_codes=("H01M8/10", "B60L3/00"),
                    in_domain=True,
                ),
            ),
        ),
        # everyone foreign relative to the US home office
        make_patent(
            "P-G",
            filing_date=d("2007-02-11"),
            grant_date=d("2009-02-11"),
            assignees=(
                Party(country="JP", name="GAMMA"),
                Party(country="KR", name="GAMMA-KR"),
            ),
            inventors=(
                Party(country="JP", name="INV-4"),
                Party(country="JP", name="INV-5"),
            ),
            priorities=(
                Priority(country="JP", date=d("2006-02-11")),
                Priority(country="KR", date=d("2006-03-01")),
                Priority(country="DE", date=d("2006-04-01")),
            ),
        ),
        # scientific-knowledge heavy, all citations in-domain
        make_patent(
            "P-H",
            filing_date=d("2007-07-04"),
            grant_date=d("2009-07-04"),
            assignees=(Party(country="US", name="HOTEL"),),
            inventors=(Party(country="US", name="INV-H"),),
            npl_citation_count=12,
            backward_citations=(
                CitedRef(
                    country="US",
                    filing_date=d("2005-01-01"),
                    ipc_codes=("H01M4/00",),
                    in_domain=True,
                ),
                CitedRef(
                    country="US",
                    filing_date=d("2004-01-01"),
                    ipc_codes=("H01M4/02",),
                    in_domain=True,
                ),
            ),
        ),
        # two subclasses for the field-statistics averages
        make_patent(
            "P-I",
            filing_date=d("2006-01-15"),
            grant_date=d("2008-01-15"),
            ipc_codes=("H01M10/42", "H01G9/00"),
            assignees=(Party(country="US", name="INDIGO"),),
            inventors=(Party(country="US", name="INV-I"),),
        ),
        # latest grant; its citations create the forward-count cases. It is
        # filed the day P-E is, so no prior art is filed after the citer.
        make_patent(
            "P-J",
            filing_date=d("2010-01-01"),
            grant_date=d("2010-12-31"),
            assignees=(Party(country="US", name="JULIET"),),
            inventors=(Party(country="US", name="INV-J"),),
            post_hoc=PostHoc(maintenance_years=12.0, transfer_count=2, family_size=4),
            topic_label="battery pack design",
            backward_citations=(
                CitedRef(
                    country="US",
                    filing_date=d("2005-06-15"),
                    ipc_codes=("H01M10/05",),
                    cited_id="P-A",
                    in_domain=True,
                ),
                CitedRef(
                    country="US",
                    filing_date=d("2002-06-15"),
                    ipc_codes=("H01M10/05",),
                    cited_id="P-B",
                    in_domain=True,
                ),
                CitedRef(
                    country="US",
                    filing_date=d("2010-01-01"),
                    ipc_codes=("H01M2/10",),
                    cited_id="P-E",
                    in_domain=True,
                ),
            ),
        ),
    ]
    return Corpus(
        records={r.id: r for r in records}, domain_ipc_prefix="H01M"
    )


@pytest.fixture(scope="session")
def synth_corpus_small() -> Corpus:
    return generate_synthetic(SynthParams(
        n_patents=300, seed=11, feature_signal_strength=1.2, mean_internal_citations=7.0
    ))


@pytest.fixture(scope="session")
def synth_corpus_default() -> Corpus:
    return generate_synthetic(SynthParams(
        n_patents=2000, seed=7, feature_signal_strength=1.2, mean_internal_citations=7.0
    ))
