"""Ordered-trend test and topic-score tests."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as scipy_stats

from patimpact import validate
from patimpact.corpus import Corpus, ImpactClass, PostHoc
from patimpact.validate import (
    OrderedGroups,
    jonckheere_terpstra,
    jt_statistic,
    topic_impact_scores,
    validate_value_indicators,
    validation_rows,
)

from patimpact.pipeline import STAGES
from patimpact.tables import write_csv

from conftest import d, labeled_run_dir, make_patent


def brute_force_jt(groups) -> float:
    """Exhaustive pair enumeration: the independent oracle."""
    total = 0.0
    for i in range(len(groups)):
        for j in range(i + 1, len(groups)):
            for a in groups[i]:
                for b in groups[j]:
                    if a < b:
                        total += 1.0
                    elif a == b:
                        total += 0.5
    return total


def loop_permutation_p(groups: OrderedGroups, seed: int, n_permutations: int) -> float:
    """The one-permutation-at-a-time test: the oracle for the vectorised one."""
    observed = jt_statistic(groups.groups)
    pooled = groups.pooled()
    rng = np.random.default_rng(seed)
    bounds = np.cumsum(groups.sizes)[:-1]
    at_least = 0
    for _ in range(n_permutations):
        if jt_statistic(np.split(rng.permutation(pooled), bounds)) >= observed:
            at_least += 1
    return (1 + at_least) / (1 + n_permutations)


tied_group = st.lists(st.integers(0, 5), min_size=1, max_size=12)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


class TestStatistic:
    def test_hand_case(self):
        groups = [np.array([1, 2, 3]), np.array([2, 3, 4]), np.array([3, 4, 5])]
        assert jt_statistic(groups) == 22.5
        # pairwise components: U12=7, U13=8.5, U23=7
        assert jt_statistic(groups[:2]) == 7.0
        assert jt_statistic([groups[0], groups[2]]) == 8.5
        assert jt_statistic(groups[1:]) == 7.0

    def test_matches_exhaustive_oracle_up_to_60(self):
        rng = np.random.default_rng(1)
        for trial in range(40):
            k = int(rng.integers(2, 5))
            sizes = rng.integers(2, 61 // k, size=k)
            groups = [
                rng.integers(0, 8, size=int(s)).astype(float) for s in sizes
            ]
            assert sum(len(g) for g in groups) <= 60
            assert jt_statistic(groups) == brute_force_jt(groups)

    def test_all_identical_is_half_cross_pairs(self):
        groups = [np.full(4, 7.0), np.full(5, 7.0), np.full(6, 7.0)]
        cross_pairs = 4 * 5 + 4 * 6 + 5 * 6
        assert jt_statistic(groups) == cross_pairs / 2
        result = jonckheere_terpstra(
            OrderedGroups(tuple(groups)), method="permutation", seed=0, n_permutations=200
        )
        assert result.p_value == 1.0

    def test_perfect_ordering_is_maximal(self):
        groups = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0, 6.0])]
        assert jt_statistic(groups) == 12.0
        result = jonckheere_terpstra(
            OrderedGroups(tuple(groups)), method="permutation", seed=1, n_permutations=5000
        )
        assert result.p_value < 0.02

    def test_reversal_maps_to_complement(self):
        rng = np.random.default_rng(2)
        for _ in range(20):
            groups = [rng.integers(0, 10, size=int(rng.integers(2, 12))).astype(float)
                      for _ in range(3)]
            total_cross = sum(
                len(groups[i]) * len(groups[j])
                for i in range(3)
                for j in range(i + 1, 3)
            )
            assert jt_statistic(groups[::-1]) == pytest.approx(
                total_cross - jt_statistic(groups)
            )

    def test_invariant_under_increasing_transform(self):
        rng = np.random.default_rng(3)
        groups = [rng.normal(size=15) for _ in range(3)]
        base = jt_statistic(groups)
        assert jt_statistic([np.exp(g) for g in groups]) == base
        assert jt_statistic([3 * g + 10 for g in groups]) == base

    @PROPERTY_SETTINGS
    @given(st.lists(st.lists(st.integers(0, 2), min_size=1, max_size=10), min_size=2, max_size=4))
    def test_matches_exhaustive_oracle_heavily_tied(self, groups):
        arrays = [np.array(g, dtype=float) for g in groups]
        assert jt_statistic(arrays) == brute_force_jt(arrays)

    # it once scored a NaN above every number, and a lone or empty group as 0
    @pytest.mark.parametrize(
        "groups",
        [[np.array([1.0, np.nan]), np.array([2.0])], [np.array([1.0, 2.0])],
         [np.array([1.0]), np.array([])]],
        ids=["nan", "one-group", "empty-group"],
    )
    def test_groups_checked_as_ordered_groups(self, groups):
        with pytest.raises(ValueError):
            jt_statistic(groups)


class TestPermutationCounts:
    @PROPERTY_SETTINGS
    @given(
        groups=st.lists(tied_group, min_size=2, max_size=4),
        seed=st.integers(0, 2**32 - 1),
        n_permutations=st.integers(1, 150),
    )
    def test_matches_loop_oracle_on_tied_data(self, groups, seed, n_permutations):
        og = OrderedGroups(tuple(np.array(g, dtype=float) for g in groups))
        result = jonckheere_terpstra(
            og, method="permutation", seed=seed, n_permutations=n_permutations
        )
        assert result.p_value == loop_permutation_p(og, seed, n_permutations)
        assert result.n_permutations == n_permutations

    @PROPERTY_SETTINGS
    @given(
        sizes=st.lists(st.integers(1, 8), min_size=2, max_size=4),
        n_entries=st.integers(1, 3),
        seed=st.integers(0, 2**32 - 1),
        n_permutations=st.integers(1, 150),
        data=st.data(),
    )
    def test_multi_group_call_equals_single_calls(
        self, sizes, n_entries, seed, n_permutations, data
    ):
        batch = [
            OrderedGroups(tuple(
                np.array(data.draw(st.lists(st.integers(0, 4), min_size=s, max_size=s)),
                         dtype=float)
                for s in sizes
            ))
            for _ in range(n_entries)
        ]
        together = jonckheere_terpstra(
            batch, method="permutation", seed=seed, n_permutations=n_permutations
        )
        assert together == [
            jonckheere_terpstra(og, method="permutation", seed=seed,
                                n_permutations=n_permutations)
            for og in batch
        ]

    def test_large_counts_match_loop(self):
        # chunk-crossing counts in the hundreds to thousands: no trend, then a
        # decreasing one, where almost every permutation scores >= observed
        rng = np.random.default_rng(14)
        for seed, shift in ((0, 0), (1, -3)):
            og = OrderedGroups(tuple(
                rng.integers(0, 20, size=s).astype(float) + shift * k
                for k, s in enumerate((120, 40, 15))
            ))
            p = jonckheere_terpstra(og, method="permutation", seed=seed, n_permutations=3000)
            assert p.p_value * 3001 - 1 > 100
            assert p.p_value == loop_permutation_p(og, seed, 3000)

    @pytest.mark.parametrize("n_groups", [2, 3, 4, 5])
    @pytest.mark.parametrize("trend", [3.0, -3.0, 0.0], ids=["increasing", "decreasing", "null"])
    def test_trends_match_loop(self, n_groups, trend):
        rng = np.random.default_rng(16 + n_groups)
        og = OrderedGroups(tuple(
            rng.integers(0, 6, size=s).astype(float) + trend * k
            for k, s in enumerate((30, 12, 9, 7, 5)[:n_groups])
        ))
        p = jonckheere_terpstra(og, method="permutation", seed=n_groups, n_permutations=400)
        assert p.p_value == loop_permutation_p(og, n_groups, 400)

    @pytest.mark.parametrize("n_groups", [3, 4])
    def test_rows_decided_by_bounds_build_no_table(self, monkeypatch, n_groups):
        tables = []
        real_twice_jt = validate._twice_jt

        def counting_twice_jt(counts):
            tables.append(counts.shape[0])
            return real_twice_jt(counts)

        monkeypatch.setattr(validate, "_twice_jt", counting_twice_jt)
        rng = np.random.default_rng(17)
        sizes = (40, 15, 10, 6)[:n_groups]
        for trend in (10.0, -10.0):
            og = OrderedGroups(tuple(
                rng.normal(size=s) + trend * k for k, s in enumerate(sizes)
            ))
            p = jonckheere_terpstra(og, method="permutation", seed=3, n_permutations=300)
            assert p.p_value == (1 / 301 if trend > 0 else 1.0)
        # every permutation's bottom-group pairs alone decide it
        assert tables == []
        null = OrderedGroups(tuple(rng.normal(size=s) for s in sizes))
        p = jonckheere_terpstra(null, method="permutation", seed=4, n_permutations=300)
        assert p.p_value == loop_permutation_p(null, 4, 300)
        assert 0 < sum(tables) <= 300

    def test_normal_approx_batch_equals_single_calls(self):
        rng = np.random.default_rng(15)
        batch = [OrderedGroups(tuple(rng.normal(size=s) for s in (9, 7, 5))) for _ in range(3)]
        assert jonckheere_terpstra(batch) == [jonckheere_terpstra(og) for og in batch]

    @pytest.mark.parametrize("n_permutations", [0, -1])
    def test_permutation_count_below_one_rejected(self, n_permutations):
        groups = OrderedGroups((np.arange(3.0), np.arange(3.0) + 1))
        with pytest.raises(ValueError, match="n_permutations"):
            jonckheere_terpstra(groups, method="permutation", n_permutations=n_permutations)

    def test_batch_needs_equal_sizes_and_an_entry(self):
        a = OrderedGroups((np.arange(3.0), np.arange(3.0)))
        b = OrderedGroups((np.arange(2.0), np.arange(4.0)))
        with pytest.raises(ValueError, match="same group sizes"):
            jonckheere_terpstra([a, b], method="permutation", n_permutations=10)
        with pytest.raises(ValueError, match="at least one"):
            jonckheere_terpstra([])


class TestPValues:
    def test_normal_vs_permutation_agreement(self):
        rng = np.random.default_rng(4)
        for trial in range(5):
            groups = OrderedGroups(
                tuple(rng.normal(0.25 * k, 1.0, size=20) for k in range(3))
            )
            normal = jonckheere_terpstra(groups, method="normal_approx")
            perm = jonckheere_terpstra(
                groups, method="permutation", seed=trial, n_permutations=10_000
            )
            assert abs(normal.p_value - perm.p_value) < 0.02

    def test_null_p_values_approximately_uniform(self):
        rng = np.random.default_rng(5)
        ps = []
        for _ in range(200):
            groups = OrderedGroups(tuple(rng.normal(size=40) for _ in range(3)))
            ps.append(jonckheere_terpstra(groups).p_value)
        ks = scipy_stats.kstest(ps, "uniform")
        assert ks.pvalue > 0.01

    def test_increasing_alternative_direction(self):
        rng = np.random.default_rng(6)
        increasing = OrderedGroups(
            tuple(rng.normal(loc=k, size=25) for k in range(3))
        )
        decreasing = OrderedGroups(
            tuple(rng.normal(loc=-k, size=25) for k in range(3))
        )
        assert jonckheere_terpstra(increasing).p_value < 0.001
        assert jonckheere_terpstra(decreasing).p_value > 0.999

    def test_result_fields(self):
        rng = np.random.default_rng(7)
        groups = OrderedGroups(tuple(rng.normal(size=20) for _ in range(3)))
        r = jonckheere_terpstra(groups)
        assert r.method == "normal_approx"
        assert r.alternative == "increasing"
        assert 0.0 <= r.p_value <= 1.0
        assert r.variance_h0 > 0
        assert r.mean_h0 == pytest.approx((60**2 - 3 * 20**2) / 4)

    def test_tie_correction_changes_variance(self):
        continuous = OrderedGroups(
            tuple(np.linspace(0, 1, 12) + k * 0.01 for k in range(3))
        )
        tied = OrderedGroups(
            tuple(np.round(np.linspace(0, 1, 12) * 3) + k * 0.0 for k in range(3))
        )
        v_cont = jonckheere_terpstra(continuous).variance_h0
        v_tied = jonckheere_terpstra(tied).variance_h0
        assert v_tied < v_cont

    def test_degenerate_variance_raises_in_normal_mode(self):
        groups = OrderedGroups((np.full(5, 1.0), np.full(5, 1.0)))
        with pytest.raises(ValueError, match="permutation"):
            jonckheere_terpstra(groups, method="normal_approx")

    def test_unknown_method(self):
        groups = OrderedGroups((np.arange(3.0), np.arange(3.0)))
        with pytest.raises(ValueError):
            jonckheere_terpstra(groups, method="bootstrap")


class TestOrderedGroups:
    def test_needs_two_groups(self):
        with pytest.raises(ValueError):
            OrderedGroups((np.array([1.0]),))

    def test_empty_group_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            OrderedGroups((np.array([1.0]), np.array([])))

    @pytest.mark.parametrize("bad", [0, 1, 2])
    def test_nan_rejected_naming_the_group(self, bad):
        groups = [np.array([1.0, 2.0]), np.array([3.0, 4.0]), np.array([5.0])]
        groups[bad] = np.append(groups[bad], np.nan)
        with pytest.raises(ValueError, match=f"group {bad} holds NaN"):
            OrderedGroups(tuple(groups))


def _corpus_with_posthoc(rng, group_sizes, shift):
    """Corpus + class map; post-hoc values shift upward by `shift` per class."""
    records = {}
    classes = {}
    i = 0
    for cls, size in zip(ImpactClass, group_sizes):
        for _ in range(size):
            pid = f"P{i:04d}"
            records[pid] = make_patent(
                pid,
                post_hoc=PostHoc(
                    maintenance_years=float(
                        np.clip(rng.normal(6 + shift * int(cls), 1.5), 0.5, 20)
                    ),
                    transfer_count=int(rng.poisson(0.5 + shift * int(cls))),
                    family_size=1 + int(rng.poisson(0.5 + shift * int(cls))),
                ),
                topic_label="t",
            )
            classes[pid] = cls
            i += 1
    return Corpus(records=records, domain_ipc_prefix="H01M"), classes


class TestValueIndicators:
    def test_constructed_trend_significant(self):
        rng = np.random.default_rng(8)
        corpus, classes = _corpus_with_posthoc(rng, (40, 30, 20), shift=2.0)
        results = validate_value_indicators(corpus, classes)
        assert set(results) == {"maintenance_years", "transfer_count", "family_size"}
        for v in results.values():
            assert v.result.p_value < 0.01
            assert v.n_excluded == 0
            assert v.group_sizes == (40, 30, 20)

    def test_null_gives_large_p_values_mostly(self):
        rng = np.random.default_rng(9)
        ps = []
        for _ in range(40):
            corpus, classes = _corpus_with_posthoc(rng, (25, 25, 25), shift=0.0)
            results = validate_value_indicators(corpus, classes)
            ps.append(results["maintenance_years"].result.p_value)
        assert np.mean(np.array(ps) < 0.05) < 0.25

    def test_missing_posthoc_excluded_and_counted(self):
        rng = np.random.default_rng(10)
        corpus, classes = _corpus_with_posthoc(rng, (10, 10, 10), shift=1.0)
        records = dict(corpus.records)
        some_id = next(iter(records))
        from dataclasses import replace

        records[some_id] = replace(records[some_id], post_hoc=None)
        corpus2 = Corpus(records=records, domain_ipc_prefix="H01M")
        results = validate_value_indicators(corpus2, classes)
        assert all(v.n_excluded == 1 for v in results.values())

    def test_all_missing_errors(self):
        records = {
            "A": make_patent("A"),
            "B": make_patent("B", grant_date=d("2007-01-01")),
        }
        corpus = Corpus(records=records, domain_ipc_prefix="H01M")
        classes = {"A": ImpactClass.MT, "B": ImpactClass.BT}
        with pytest.raises(ValueError, match="exclusion"):
            validate_value_indicators(corpus, classes)

    def test_empty_class_group_errors(self):
        rng = np.random.default_rng(11)
        corpus, classes = _corpus_with_posthoc(rng, (10, 10, 10), shift=1.0)
        only_mt = {pid: ImpactClass.MT for pid in classes}
        with pytest.raises(ValueError, match="empty"):
            validate_value_indicators(corpus, only_mt)

    def test_csv_export(self, tmp_path):
        rng = np.random.default_rng(12)
        corpus, classes = _corpus_with_posthoc(rng, (15, 15, 15), shift=1.0)
        results = validate_value_indicators(corpus, classes)
        path = tmp_path / "validation.csv"
        write_csv(path, *validation_rows({"long": results}))
        lines = path.read_text().splitlines()
        assert lines[0] == "horizon,indicator,jt_statistic,z,p_value,method,n_excluded"
        assert len(lines) == 4


class TestTopicScores:
    def _record(self, pid, topic, year, cls_map, cls):
        rec = make_patent(
            pid,
            grant_date=d(f"{year}-06-01"),
            filing_date=d(f"{year - 2}-01-01"),
            topic_label=topic,
        )
        cls_map[pid] = cls
        return rec

    def test_weighted_average_examples(self):
        cls_map = {}
        records = {
            r.id: r
            for r in [
                self._record("A", "cells", 2008, cls_map, ImpactClass.MT),
                self._record("B", "cells", 2008, cls_map, ImpactClass.MT),
                self._record("C", "packs", 2008, cls_map, ImpactClass.BT),
                self._record("D", "packs", 2008, cls_map, ImpactClass.MT),
                self._record("E", "packs", 2009, cls_map, ImpactClass.BT),
            ]
        }
        corpus = Corpus(records=records, domain_ipc_prefix="H01M")
        table = topic_impact_scores(corpus, cls_map)
        assert table.scores[("cells", 2008)] == 1.0
        assert table.scores[("packs", 2008)] == 5.5
        assert table.scores[("packs", 2009)] == 10.0
        assert table.counts[("packs", 2008)] == 2

    def test_single_class_cells_equal_weight(self):
        cls_map = {}
        records = {
            r.id: r
            for r in [
                self._record("A", "t", 2008, cls_map, ImpactClass.VT),
                self._record("B", "t", 2008, cls_map, ImpactClass.VT),
            ]
        }
        corpus = Corpus(records=records, domain_ipc_prefix="H01M")
        table = topic_impact_scores(corpus, cls_map)
        assert table.scores[("t", 2008)] == 5.0

    def test_bounds_on_random_corpora(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            cls_map = {}
            records = {}
            for i in range(50):
                rec = self._record(
                    f"P{i}",
                    rng.choice(["a", "b", "c"]),
                    int(rng.integers(2005, 2012)),
                    cls_map,
                    ImpactClass(int(rng.integers(0, 3))),
                )
                records[rec.id] = rec
            corpus = Corpus(records=records, domain_ipc_prefix="H01M")
            table = topic_impact_scores(corpus, cls_map)
            for score in table.scores.values():
                assert 1.0 <= score <= 10.0

    def test_unlabeled_patents_skipped_and_empty_errors(self):
        cls_map = {}
        rec = make_patent("A")  # no topic label
        cls_map["A"] = ImpactClass.MT
        corpus = Corpus(records={"A": rec}, domain_ipc_prefix="H01M")
        with pytest.raises(ValueError, match="topic"):
            topic_impact_scores(corpus, cls_map)

    def test_custom_weights(self):
        cls_map = {}
        records = {
            r.id: r
            for r in [
                self._record("A", "t", 2008, cls_map, ImpactClass.BT),
                self._record("B", "t", 2008, cls_map, ImpactClass.MT),
            ]
        }
        corpus = Corpus(records=records, domain_ipc_prefix="H01M")
        table = topic_impact_scores(
            corpus, cls_map,
            weights={ImpactClass.BT: 4.0, ImpactClass.VT: 2.0, ImpactClass.MT: 0.0},
        )
        assert table.scores[("t", 2008)] == 2.0

    def test_exports(self, tmp_path):
        cls_map = {}
        records = {
            r.id: r
            for r in [
                self._record("A", "t", 2008, cls_map, ImpactClass.BT),
                self._record("B", "u", 2009, cls_map, ImpactClass.MT),
            ]
        }
        corpus = Corpus(records=records, domain_ipc_prefix="H01M")
        cfg = labeled_run_dir(tmp_path, corpus, cls_map)
        assert STAGES["topic-score"](cfg) == ["topic_scores.csv", "topic_scores.json"]
        csv_path = cfg.path("topic_scores.csv")
        json_path = cfg.path("topic_scores.json")
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "topic,year,n_patents,score"
        assert lines[1] == "t,2008,1,10.0"
        import json

        pivot = json.loads(json_path.read_text())
        assert pivot == {"t": {"2008": 10.0}, "u": {"2009": 1.0}}
