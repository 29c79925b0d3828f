"""Indicator extraction tests against hand-computed expectations.

All expected numbers were worked out by hand from the crafted corpus in
conftest.py (day counts, set intersections, per-year tallies).
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patimpact.corpus import Corpus, ImpactClass
from patimpact.indicators import (
    FEATURE_INDEX,
    FEATURE_NAMES,
    FeatureVector,
    Standardizer,
    build_history_index,
    corpus_ipc_stats,
    extract_feature_matrix,
    extract_features,
    fit_standardizer,
    subclass_of,
)
from patimpact.pipeline import STAGES, RunContext
from patimpact.synth import SynthParams, generate_synthetic

from conftest import d, labeled_run_dir, make_patent


class TestLayout:
    def test_44_names_in_fixed_order(self):
        assert len(FEATURE_NAMES) == 44
        assert FEATURE_NAMES[:5] == ("SC_1", "SC_2", "SC_3", "SC_4", "SC_5")
        assert FEATURE_NAMES[5:7] == ("PR_1", "PR_2")
        assert FEATURE_NAMES[7:13] == tuple(f"DEC_{i}" for i in range(1, 7))
        assert FEATURE_NAMES[13:15] == ("CP_1", "CP_2")
        assert FEATURE_NAMES[15:18] == ("TE_1", "TE_2", "TE_3")
        assert FEATURE_NAMES[18:26] == tuple(f"TE_4_{s}" for s in "ABCDEFGH")
        assert FEATURE_NAMES[26] == "TE_5"
        assert FEATURE_NAMES[27:29] == ("PK_1", "PK_2")
        assert FEATURE_NAMES[29:37] == tuple(f"PK_3_{s}" for s in "ABCDEFGH")
        assert FEATURE_NAMES[37:] == tuple(f"PK_{i}" for i in range(4, 11))

    def test_vector_validation(self):
        with pytest.raises(ValueError):
            FeatureVector(values=np.zeros(43))
        with pytest.raises(ValueError):
            FeatureVector(values=np.full(44, np.nan))


def per_year_recount(corpus: Corpus) -> tuple[Counter, dict]:
    """Patents granted and distinct named applicants per (subclass, year),
    counted straight from the records."""
    granted: Counter = Counter()
    named: dict[tuple[str, int], set[str]] = defaultdict(set)
    for rec in corpus.records.values():
        for sub in {subclass_of(c) for c in rec.ipc_codes}:
            key = (sub, rec.grant_date.year)
            granted[key] += 1
            named[key] |= {a.name for a in rec.assignees if a.name}
    return granted, named


class TestIpcStats:
    def test_three_patent_example(self):
        records = {
            "A": make_patent("A", grant_date=d("2006-03-01"), filing_date=d("2004-01-01")),
            "B": make_patent("B", grant_date=d("2006-09-01"), filing_date=d("2004-01-01")),
            "C": make_patent("C", grant_date=d("2007-02-01"), filing_date=d("2005-01-01")),
        }
        stats = corpus_ipc_stats(Corpus(records=records, domain_ipc_prefix="H01M"))
        assert (stats.start_year, stats.end_year) == (2006, 2007)
        through, through_sum, applicants = stats.totals["H01M"]
        assert through == (2, 3)  # 2 granted in 2006, 1 in 2007
        assert through_sum == (2, 5)
        assert applicants == (1, 2)  # ACME in each year

    def test_two_subclasses_count_once_each(self, crafted_corpus):
        stats = corpus_ipc_stats(crafted_corpus)
        # P-I carries H01M and H01G in 2008; P-A carries two H01M codes
        at = 2008 - stats.start_year
        h01g, h01m = stats.totals["H01G"][0], stats.totals["H01M"][0]
        assert h01g[at] - h01g[at - 1] == 1
        assert h01m[at] - h01m[at - 1] == 3  # P-A, P-F, P-I

    def test_absent_subclass_has_no_totals(self, crafted_corpus):
        stats = corpus_ipc_stats(crafted_corpus)
        assert "Z999" not in stats.totals
        assert set(stats.totals) == {"H01M", "C08J", "G06F", "H01G"}

    def test_running_totals_equal_a_recount(self, synth_corpus_small):
        stats = corpus_ipc_stats(synth_corpus_small)
        granted, named = per_year_recount(synth_corpus_small)
        assert set(stats.totals) == {sub for sub, _ in granted}
        years = range(stats.start_year, stats.end_year + 1)
        for sub, (through, through_sum, applicants) in stats.totals.items():
            assert len(through) == len(through_sum) == len(applicants) == len(years)
            running = running_sum = running_named = 0
            for at, year in enumerate(years):
                running += granted[sub, year]
                running_sum += running
                running_named += len(named[sub, year])
                assert (through[at], through_sum[at], applicants[at]) == (
                    running, running_sum, running_named
                )

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValueError):
            corpus_ipc_stats(Corpus(records={}, domain_ipc_prefix="H01M"))


class TestFieldStatisticsFeatures:
    """TE_1-TE_3 against a per-year recount from the records."""

    def test_equal_a_per_year_recount(self, synth_corpus_small):
        corpus = synth_corpus_small
        granted, named = per_year_recount(corpus)
        start_year, end_year = corpus.grant_year_range()
        X = extract_feature_matrix(corpus, corpus.ids())
        for row, rec in zip(X, corpus.records.values()):
            subclasses = sorted({subclass_of(c) for c in rec.ipc_codes})
            last_year = min(rec.grant_date.year, end_year)
            years = range(start_year, last_year + 1)
            n_years = max(1, len(years))

            def through(sub, year):
                return sum(granted[sub, y] for y in range(start_year, year + 1))

            expected = [0.0, 0.0, 0.0]
            if subclasses:
                expected = [
                    statistics.fmean(through(s, last_year) / n_years for s in subclasses),
                    statistics.fmean(
                        sum(through(s, y) for y in years) / n_years for s in subclasses
                    ),
                    statistics.fmean(
                        sum(len(named[s, y]) for y in years) / n_years for s in subclasses
                    ),
                ]
            assert np.array_equal(row[TE_SIZE], expected), rec.id

    def test_statistics_that_do_not_cover_the_patent_read_zero(self):
        focal = make_patent(
            "F", grant_date=d("2005-06-01"), ipc_codes=("H01M10/05", "G06F17/00")
        )
        corpus = Corpus(records={"F": focal}, domain_ipc_prefix="H01M")

        def te_against(*others):
            other = Corpus(records={r.id: r for r in others}, domain_ipc_prefix="H01M")
            return extract_features(corpus, "F", corpus_ipc_stats(other)).values[TE_SIZE]

        assert te_against(focal).tolist() == [1.0] * 3
        # a subclass the statistics lack adds 0 to the mean over subclasses
        assert te_against(make_patent("H", grant_date=d("2005-01-01"))).tolist() == [0.5] * 3
        other_field = make_patent("C", ipc_codes=("C08J5/22",), grant_date=d("2004-01-01"))
        assert te_against(other_field).tolist() == [0.0] * 3
        # statistics whose first year is after the grant year
        assert te_against(make_patent("L", grant_date=d("2007-01-01"))).tolist() == [0.0] * 3


@pytest.fixture(scope="module")
def stats(crafted_corpus):
    return corpus_ipc_stats(crafted_corpus)


class TestCraftedPatents:
    """One assertion block per crafted patent; numbers derived by hand."""

    def test_patent_a_full_vector(self, crafted_corpus, stats):
        fv = extract_features(crafted_corpus, "P-A", stats)
        expected = np.zeros(44)
        expected[0:5] = [2, 3, 5, 50, 3]           # SC: nations, claims, words, codes
        expected[5:7] = [3, 2]                     # PR
        expected[7:13] = [2, 1, 2, 3, 1, 2]        # DEC
        expected[13:15] = [1096, 120]              # CP: 2005-06-15 -> 2008-06-15
        expected[15:18] = [7 / 12, 13 / 12, 3 / 4] # TE_1..TE_3 (2003..2008 averages)
        expected[20] = 1                           # TE_4_C
        expected[25] = 2                           # TE_4_H
        expected[26] = 1825 / 365.25               # median of 1096/1825/3285-day gaps
        expected[27] = 7                           # PK_1
        expected[28] = 1.0                         # PK_2: {H01M,C08J} fully recombined
        expected[30] = 1                           # PK_3_B
        expected[31] = 1                           # PK_3_C
        expected[35] = 1                           # PK_3_G
        expected[36] = 1                           # PK_3_H
        expected[37:] = [4, 1, 1 / 3, 1, 1, 1, 3]  # PK_4..PK_10
        np.testing.assert_allclose(fv.values, expected, rtol=0, atol=1e-12)

    def test_patent_b_empty_citation_conventions(self, crafted_corpus, stats):
        fv = extract_features(crafted_corpus, "P-B", stats)
        assert fv["SC_1"] == 0
        assert fv["TE_5"] == 0
        assert fv["PK_2"] == 0
        assert fv["PK_4"] == 0
        assert fv["PK_5"] == 0
        assert fv["PK_10"] == 0
        assert sum(fv[f"PK_3_{s}"] for s in "ABCDEFGH") == 0

    def test_patent_d_claims_and_nations(self, crafted_corpus, stats):
        fv = extract_features(crafted_corpus, "P-D", stats)
        assert fv["SC_1"] == 2  # {US, JP, US}
        assert fv["SC_2"] == 3
        assert fv["SC_3"] == 5
        assert fv["SC_4"] == 50

    def test_patent_e_cycle_time(self, crafted_corpus, stats):
        fv = extract_features(crafted_corpus, "P-E", stats)
        assert fv["TE_5"] == pytest.approx(1826 / 365.25, abs=1e-12)
        assert fv["TE_5"] == pytest.approx(5.0, abs=0.01)

    def test_patent_f_recombination_half(self, crafted_corpus, stats):
        fv = extract_features(crafted_corpus, "P-F", stats)
        assert fv["PK_2"] == 0.5

    def test_patent_g_foreign_parties(self, crafted_corpus, stats):
        fv = extract_features(crafted_corpus, "P-G", stats)
        assert fv["DEC_1"] == 2 and fv["DEC_2"] == 2 and fv["DEC_3"] == 2
        assert fv["DEC_4"] == 2 and fv["DEC_5"] == 2 and fv["DEC_6"] == 1
        assert fv["PR_1"] == 3 and fv["PR_2"] == 3

    def test_patent_g_home_country_configurable(self, crafted_corpus, stats):
        fv = extract_features(crafted_corpus, "P-G", stats, home_country="JP")
        assert fv["DEC_2"] == 1  # only the KR assignee is foreign to JP
        assert fv["DEC_5"] == 0

    def test_patent_h_scientific_knowledge(self, crafted_corpus, stats):
        fv = extract_features(crafted_corpus, "P-H", stats)
        assert fv["PK_1"] == 12
        assert fv["PK_5"] == 2
        assert fv["PK_10"] == 2

    def test_patent_i_field_statistics(self, crafted_corpus, stats):
        fv = extract_features(crafted_corpus, "P-I", stats)
        assert fv["TE_1"] == pytest.approx(0.5)
        assert fv["TE_2"] == pytest.approx(1.0)
        assert fv["TE_3"] == pytest.approx(7 / 12)

    def test_patent_j_assignee_history_zero(self, crafted_corpus, stats):
        fv = extract_features(crafted_corpus, "P-J", stats)
        assert fv["PK_6"] == 0 and fv["PK_7"] == 0
        assert fv["PK_10"] == 3

    def test_unknown_id(self, crafted_corpus, stats):
        from patimpact.corpus import CorpusError

        with pytest.raises(CorpusError):
            extract_features(crafted_corpus, "NOPE", stats)


class TestInvariants:
    def test_section_frequency_sums(self, synth_corpus_small):
        corpus = synth_corpus_small
        stats = corpus_ipc_stats(corpus)
        history = build_history_index(corpus)
        for pid in list(corpus.ids())[:60]:
            rec = corpus.get(pid)
            fv = extract_features(corpus, pid, stats, history=history)
            te4 = sum(fv[f"TE_4_{s}"] for s in "ABCDEFGH")
            pk3 = sum(fv[f"PK_3_{s}"] for s in "ABCDEFGH")
            assert te4 == len(rec.ipc_codes)
            assert pk3 == sum(len(r.ipc_codes) for r in rec.backward_citations)

    def test_assignee_history_identity_when_all_classified(self, crafted_corpus):
        stats = corpus_ipc_stats(crafted_corpus)
        fv = extract_features(crafted_corpus, "P-A", stats)
        assert fv["PK_8"] + fv["PK_9"] == pytest.approx(fv["PK_7"] * 2)  # 2 assignees

    def test_assignee_history_inequality_with_unclassified(self):
        # a prior patent without IPC codes counts for PK_7 but neither split
        prior = make_patent(
            "OLD", grant_date=d("2004-01-01"), filing_date=d("2002-01-01"), ipc_codes=()
        )
        focal = make_patent("NEW", grant_date=d("2008-01-01"), filing_date=d("2006-01-01"))
        corpus = Corpus(records={"OLD": prior, "NEW": focal}, domain_ipc_prefix="H01M")
        fv = extract_features(corpus, "NEW", corpus_ipc_stats(corpus))
        assert fv["PK_7"] == 1
        assert fv["PK_8"] + fv["PK_9"] == 0
        assert fv["PK_8"] + fv["PK_9"] < fv["PK_7"] * 1

    def test_monotone_under_added_citation_and_claim(self, crafted_corpus):
        from dataclasses import replace

        from patimpact.corpus import CitedRef

        def vector_for(variant):
            records = dict(crafted_corpus.records)
            records["P-A"] = variant
            corpus = Corpus(records=records, domain_ipc_prefix="H01M")
            return extract_features(corpus, "P-A", corpus_ipc_stats(corpus))

        base = crafted_corpus.get("P-A")
        fv_base = vector_for(base)
        fv_more_refs = vector_for(
            replace(
                base,
                backward_citations=base.backward_citations
                + (CitedRef(country="DE", filing_date=d("2001-01-01")),),
            )
        )
        fv_more_claims = vector_for(
            replace(
                base,
                independent_claim_word_counts=base.independent_claim_word_counts + (70,),
            )
        )
        assert fv_more_refs["PK_10"] >= fv_base["PK_10"]
        assert fv_more_claims["SC_2"] >= fv_base["SC_2"]

    def test_determinism(self, crafted_corpus):
        stats = corpus_ipc_stats(crafted_corpus)
        a = extract_features(crafted_corpus, "P-A", stats)
        b = extract_features(crafted_corpus, "P-A", stats)
        assert np.array_equal(a.values, b.values)

    def test_history_overrides_take_precedence(self):
        from patimpact.corpus import HistoryOverrides

        rec = make_patent(
            "X",
            grant_date=d("2008-01-01"),
            filing_date=d("2006-01-01"),
            history_overrides=HistoryOverrides(pk_6=99.0, pk_8=7.0),
        )
        other = make_patent("Y", grant_date=d("2007-01-01"), filing_date=d("2005-01-01"))
        corpus = Corpus(records={"X": rec, "Y": other}, domain_ipc_prefix="H01M")
        fv = extract_features(corpus, "X", corpus_ipc_stats(corpus))
        assert fv["PK_6"] == 99.0
        assert fv["PK_8"] == 7.0
        # non-overridden dims still corpus-derived (ACME granted Y in 2007)
        assert fv["PK_7"] == 1.0


TE_SIZE = [FEATURE_INDEX[name] for name in ("TE_1", "TE_2", "TE_3")]
NOT_TE_SIZE = [i for i in range(len(FEATURE_NAMES)) if i not in TE_SIZE]


class TestNoLookAhead:
    """What of the corpus a patent's features see. TE_1-TE_3 count the whole
    of its grant year; every other feature sees no patent granted after it,
    nor another one granted the same day."""

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        n_patents=st.integers(10, 80),
        # few grant years, so that grant days and parties repeat
        n_years=st.integers(1, 3),
    )
    def test_features_equal_those_of_the_corpus_cut_at_the_grant(self, seed, n_patents, n_years):
        corpus = generate_synthetic(
            SynthParams(n_patents=n_patents, year_range=(2001, 2000 + n_years), seed=seed)
        )
        full = extract_feature_matrix(corpus, corpus.ids())

        def features_on(pid, keep) -> np.ndarray:
            records = {i: r for i, r in corpus.records.items() if keep(r)}
            cut = Corpus(records=records, domain_ipc_prefix=corpus.domain_ipc_prefix)
            return extract_feature_matrix(cut, [pid])[0]

        for row, (pid, rec) in zip(full, corpus.records.items()):
            grant = rec.grant_date
            on_or_before = features_on(pid, lambda r: r.grant_date <= grant)
            before = features_on(pid, lambda r: r.grant_date < grant or r is rec)
            grant_year = features_on(pid, lambda r: r.grant_date.year <= grant.year)
            assert np.array_equal(on_or_before[NOT_TE_SIZE], row[NOT_TE_SIZE]), pid
            assert np.array_equal(before[NOT_TE_SIZE], row[NOT_TE_SIZE]), pid
            assert np.array_equal(grant_year[TE_SIZE], row[TE_SIZE]), pid


class TestStandardizer:
    def test_two_point_example(self):
        matrix = np.zeros((2, 44))
        matrix[0, 0], matrix[1, 0] = 1.0, 3.0
        s = fit_standardizer(matrix)
        assert s.mean[0] == 2.0
        assert s.std[0] == 1.0  # population std of {1,3}
        assert not s.degenerate[0]

    def test_constant_dim_flagged(self):
        matrix = np.zeros((3, 44))
        matrix[:, 5] = 5.0
        s = fit_standardizer(matrix)
        assert s.mean[5] == 5.0
        assert s.std[5] == 1.0
        assert s.degenerate[5]

    def test_fit_transform_zero_mean(self, synth_corpus_small):
        X = extract_feature_matrix(synth_corpus_small, list(synth_corpus_small.ids())[:80])
        s = fit_standardizer(X)
        Z = s.transform(X)
        np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)

    def test_identity_standardizer(self):
        s = Standardizer(
            mean=np.zeros(44), std=np.ones(44), degenerate=np.zeros(44, dtype=bool)
        )
        fv = FeatureVector(values=np.arange(44, dtype=float))
        assert np.array_equal(s.transform(fv.values), fv.values)

    def test_inverse_roundtrip(self):
        rng = np.random.default_rng(3)
        X = rng.normal(10, 4, size=(50, 44))
        s = fit_standardizer(X)
        back = s.transform(X) * s.std + s.mean
        np.testing.assert_allclose(back, X, rtol=1e-12)

    def test_needs_two_vectors(self):
        with pytest.raises(ValueError):
            fit_standardizer(np.zeros((1, 44)))

    def test_json_roundtrip(self):
        rng = np.random.default_rng(4)
        s = fit_standardizer(rng.normal(size=(20, 44)))
        s2 = Standardizer.from_json_obj(json.loads(json.dumps(s.to_json_obj())))
        np.testing.assert_array_equal(s.mean, s2.mean)
        np.testing.assert_array_equal(s.std, s2.std)
        np.testing.assert_array_equal(s.degenerate, s2.degenerate)


class TestCsv:
    def test_export_header_and_roundtrip(self, tmp_path, crafted_corpus):
        ids = sorted(crafted_corpus.ids())
        X = extract_feature_matrix(crafted_corpus, ids)
        cfg = labeled_run_dir(tmp_path, crafted_corpus, dict.fromkeys(ids, ImpactClass.MT))
        assert STAGES["features"](cfg) == ["features.csv"]
        path = cfg.path("features.csv")
        header = path.read_text().splitlines()[0]
        assert header == "patent_id," + ",".join(FEATURE_NAMES)
        position, X2 = RunContext(cfg).read("features.csv")
        assert position == {pid: i for i, pid in enumerate(ids)}
        np.testing.assert_array_equal(X, X2)
