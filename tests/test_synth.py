"""Synthetic corpus generator tests."""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from patimpact import synth
from patimpact.corpus import Corpus, Horizon, forward_citation_count, save_corpus
from patimpact.synth import SynthParams, generate_synthetic

PROPERTY_SETTINGS = settings(max_examples=150, deadline=None)


def _expected_uniform_indegree(corpus: Corpus) -> dict[str, float]:
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


def _params(**overrides) -> SynthParams:
    """SynthParams with the signal strength and internal citation mean that
    the pinned digests and distribution checks below were recorded with."""
    return SynthParams(
        **{"feature_signal_strength": 1.2, "mean_internal_citations": 7.0, **overrides}
    )


def _corpus_bytes(corpus) -> bytes:
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "c.jsonl"
        save_corpus(corpus, path)
        return path.read_bytes()


class TestDeterminism:
    def test_same_seed_byte_identical(self):
        params = _params(n_patents=120, seed=42)
        a = _corpus_bytes(generate_synthetic(params))
        b = _corpus_bytes(generate_synthetic(params))
        assert a == b

    def test_different_seed_differs(self):
        a = _corpus_bytes(generate_synthetic(_params(n_patents=120, seed=1)))
        b = _corpus_bytes(generate_synthetic(_params(n_patents=120, seed=2)))
        assert a != b

    # sha256 of the saved corpus as generated when every pool draw and every
    # citation draw still went through Generator.choice
    @pytest.mark.parametrize(
        "params, digest",
        [
            (
                _params(n_patents=300),
                "3992d1dfecea87f98ba2f44ae3299276330e7201c604c4cbc662a740fa17e123",
            ),
            (
                _params(n_patents=300, citation_attachment_exponent=0.0),
                "e8aaf5f5b66c1d3682ea3d2b688901c6d5240f85db9111522c529448e848e2c3",
            ),
            (
                _params(n_patents=300, citation_attachment_exponent=1.7),
                "0478f6996f81844a6135e699df7aae0f105f16df5fa7326bf5d6568810f6fe09",
            ),
            (
                _params(n_patents=300, feature_signal_strength=0.0),
                "f47e2d1aeb3c5a86162f489c18037c2e3b3bcb90f213571580a74d17dc30c5d1",
            ),
            (
                _params(
                    n_patents=500, seed=5, mean_internal_citations=12.0,
                    year_range=(2000, 2004),
                ),
                "5e2f4ab26ff38b29d20d202c6c803635992e80c84fe0dc161c3243e6aa87d307",
            ),
            (
                _params(
                    n_patents=400, seed=3, citation_attachment_exponent=0.5,
                    recency_time_constant=1.5,
                ),
                "d99ddde8f90986472b3ca28407b77adc2651a3d74d1ad6f9fa7088d648fe518b",
            ),
            (
                _params(n_patents=10, seed=9, mean_internal_citations=30.0),
                "f7b00420dbfbb88b70aa784a1ef8cca0fdfaefa4b243fcb82657c79f8dbcb150",
            ),
        ],
        ids=["defaults", "exponent-0", "exponent-1.7", "signal-0", "dense-citations",
             "exponent-0.5", "all-prior-art-cited"],
    )
    def test_corpus_bytes_pinned(self, params, digest):
        data = _corpus_bytes(generate_synthetic(params))
        assert hashlib.sha256(data).hexdigest() == digest


def _normalised(raw: list[float]) -> np.ndarray:
    p = np.asarray(raw, dtype=np.float64)
    return p / p.sum()


# weights from 2^0 to 2^-40: skewed sets make the no-replacement draw collide
# with itself and take several rounds
weight_lists = st.lists(
    st.one_of(st.just(0.0), st.integers(0, 40).map(lambda e: 2.0 ** -e)),
    min_size=1, max_size=40,
).filter(lambda w: any(x > 0 for x in w))


class TestSamplersMatchGeneratorChoice:
    """The CDF draws return what Generator.choice returns and leave the
    generator in the same state."""

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), raw=weight_lists, n_draws=st.integers(1, 20))
    def test_pool_draw(self, seed, raw, n_draws):
        pool = [f"item-{i}" for i in range(len(raw))]
        p = _normalised(raw)
        draw = synth._PoolDraw(pool, list(p))
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(n_draws):
            assert draw(ours) == str(theirs.choice(pool, p=p))
        assert ours.random() == theirs.random()

    def test_module_pools(self):
        ours, theirs = np.random.default_rng(3), np.random.default_rng(3)
        for _ in range(500):
            assert synth._COUNTRY(ours) == str(
                theirs.choice(synth.COUNTRY_POOL, p=synth.COUNTRY_WEIGHTS)
            )
            assert synth._TOPIC(ours) == str(
                theirs.choice(synth.TOPIC_POOL, p=synth.TOPIC_WEIGHTS)
            )
        assert ours.random() == theirs.random()

    @PROPERTY_SETTINGS
    @given(seed=st.integers(0, 2**32 - 1), raw=weight_lists, data=st.data())
    def test_draw_without_replacement(self, seed, raw, data):
        p = _normalised(raw)
        size = data.draw(st.integers(1, int(np.count_nonzero(p))), label="size")
        ours, theirs = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synth._draw_without_replacement(ours, p.copy(), size)
        expected = theirs.choice(len(p), size=size, replace=False, p=p)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)
        assert ours.random() == theirs.random()

    def test_skewed_weights_take_several_rounds(self):
        p = _normalised([1.0] + [1e-3] * 30)
        ours, theirs = np.random.default_rng(0), np.random.default_rng(0)
        got = synth._draw_without_replacement(ours, p.copy(), 20)
        np.testing.assert_array_equal(
            got, theirs.choice(len(p), size=20, replace=False, p=p)
        )
        assert ours.bit_generator.state == theirs.bit_generator.state
        # a single round would have drawn exactly 20 uniforms
        single_round = np.random.default_rng(0)
        single_round.random(20)
        assert ours.bit_generator.state != single_round.bit_generator.state

    def test_fewer_nonzero_weights_than_size(self):
        p = _normalised([0.0, 1.0, 0.0, 1.0])
        with pytest.raises(ValueError, match="non-zero"):
            synth._draw_without_replacement(np.random.default_rng(0), p, 3)
        with pytest.raises(ValueError, match="non-zero"):
            np.random.default_rng(0).choice(4, size=3, replace=False, p=p)


class TestValidation:
    def test_too_few_patents(self):
        with pytest.raises(ValueError):
            generate_synthetic(SynthParams(n_patents=5))

    def test_bad_year_range(self):
        with pytest.raises(ValueError):
            generate_synthetic(SynthParams(n_patents=50, year_range=(2010, 2000)))

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            generate_synthetic(
                SynthParams(n_patents=50, citation_attachment_exponent=-1.0)
            )

    def test_overflowing_exponent_is_named(self):
        params = _params(n_patents=200, citation_attachment_exponent=400.0)
        with np.errstate(over="ignore"):
            with pytest.raises(ValueError, match="citation_attachment_exponent 400.0 overflows"):
                generate_synthetic(params)


class TestShape:
    def test_fields_populated(self, synth_corpus_small):
        for rec in synth_corpus_small.records.values():
            assert rec.validate() == []
            assert rec.post_hoc is not None
            assert rec.topic_label is not None
            assert rec.ipc_codes[0].startswith("H01M")
            assert rec.filing_date < rec.grant_date

    def test_right_skew_default_corpus(self, synth_corpus_default):
        corpus = synth_corpus_default
        counts = [
            forward_citation_count(corpus, pid, Horizon.SHORT) for pid in corpus.ids()
        ]
        share_low = sum(1 for c in counts if c <= 1) / len(counts)
        assert share_low >= 0.60
        # skew: a small head of patents holds a large share of citations
        assert max(counts) >= 5

    def test_internal_citations_resolve(self, synth_corpus_small):
        for rec in synth_corpus_small.records.values():
            for ref in rec.backward_citations:
                if ref.cited_id is not None:
                    assert ref.cited_id in synth_corpus_small.records


class TestUniformAttachment:
    def test_exponent_zero_indegree_uniform(self):
        # with a zero attachment exponent and no feature signal each citer
        # picks uniformly among earlier patents; compare realized in-degrees
        # with the uniform-choice expectation via Pearson chi-square
        corpus = generate_synthetic(
            _params(
                n_patents=600,
                seed=19,
                citation_attachment_exponent=0.0,
                feature_signal_strength=0.0,
            )
        )
        expected = _expected_uniform_indegree(corpus)
        observed = {pid: 0 for pid in corpus.ids()}
        for rec in corpus.records.values():
            for ref in rec.backward_citations:
                if ref.cited_id is not None:
                    observed[ref.cited_id] += 1
        pairs = [(observed[pid], expected[pid]) for pid in corpus.ids() if expected[pid] >= 5.0]
        assert len(pairs) >= 100
        chi2 = sum((o - e) ** 2 / e for o, e in pairs)
        dof = len(pairs) - 1
        assert chi2 < stats.chi2.ppf(0.999, dof)

    def test_positive_exponent_more_concentrated(self):
        def gini_top_decile(exponent):
            corpus = generate_synthetic(
                _params(n_patents=600, seed=19, citation_attachment_exponent=exponent)
            )
            counts = np.sort(
                [forward_citation_count(corpus, pid, Horizon.LONG) for pid in corpus.ids()]
            )
            top = counts[-len(counts) // 10 :].sum()
            return top / max(1, counts.sum())

        assert gini_top_decile(1.5) > gini_top_decile(0.0)
