"""Corpus loading, citation counting, labeling, and trajectory tests."""

from __future__ import annotations

import datetime as dt
import json
import pickle
import tempfile
from dataclasses import FrozenInstanceError, fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patimpact.corpus import (
    FIXED_THRESHOLDS,
    HORIZONS,
    IPC_SECTIONS,
    CitedRef,
    Corpus,
    CorpusError,
    HistoryOverrides,
    Party,
    PatentRecord,
    PostHoc,
    Priority,
    Horizon,
    ImpactClass,
    ThresholdPair,
    TrajectoryPattern,
    add_years,
    assign_impact_class,
    derive_thresholds,
    forward_citation_count,
    load_corpus,
    save_corpus,
    stanine_thresholds,
    trajectory_pattern,
    years_between,
)
from patimpact.synth import SynthParams, generate_synthetic

from conftest import d, make_patent


class TestDates:
    def test_add_years_plain(self):
        assert add_years(d("2006-03-15"), 3) == d("2009-03-15")

    def test_add_years_leap_day(self):
        assert add_years(d("2008-02-29"), 1) == d("2009-02-28")
        assert add_years(d("2008-02-29"), 4) == d("2012-02-29")

    def test_years_between(self):
        assert years_between(d("2000-01-01"), d("2000-01-01")) == 0.0
        assert years_between(d("2000-01-01"), d("2004-01-01")) == pytest.approx(4.0, abs=0.01)


def _write_jsonl(path, objs):
    with open(path, "w", encoding="utf-8") as fh:
        for obj in objs:
            fh.write(json.dumps(obj) + "\n")


def _record_obj(patent_id, grant, citations=()):
    return {
        "id": patent_id,
        "filing_date": "2004-01-01",
        "grant_date": grant,
        "ipc_codes": ["H01M10/05"],
        "independent_claim_word_counts": [25],
        "dependent_claim_count": 1,
        "abstract_word_count": 40,
        "assignees": [{"country": "US", "name": "ACME"}],
        "inventors": [{"country": "US", "name": "I"}],
        "priorities": [],
        "backward_citations": list(citations),
        "npl_citation_count": 0,
    }


class TestLoading:
    def test_two_records_build_forward_index(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(
            path,
            [
                _record_obj("A", "2005-01-01"),
                _record_obj(
                    "B",
                    "2006-05-05",
                    citations=[
                        {"cited_id": "A", "country": "US", "filing_date": "2004-01-01"}
                    ],
                ),
            ],
        )
        corpus = load_corpus(path, "H01M")
        assert corpus.forward_index["A"] == [("B", d("2006-05-05"))]

    def test_empty_file(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("")
        corpus = load_corpus(path, "H01M")
        assert len(corpus) == 0

    def test_duplicate_id_names_the_id(self, tmp_path):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [_record_obj("A", "2005-01-01"), _record_obj("A", "2006-01-01")])
        with pytest.raises(CorpusError, match="'A'"):
            load_corpus(path, "H01M")

    def test_malformed_json_reports_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text(json.dumps(_record_obj("A", "2005-01-01")) + "\n{oops\n")
        with pytest.raises(CorpusError, match=":2"):
            load_corpus(path, "H01M")

    def test_invalid_date_is_a_corpus_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        bad = _record_obj("A", "2005-13-40")
        _write_jsonl(path, [bad, _record_obj("B", "2006-01-01")])
        with pytest.raises(CorpusError):
            load_corpus(path, "H01M")

    # Python 3.11's date.fromisoformat reads these, and 3.10's refuses them
    @pytest.mark.parametrize(
        "grant", ["20050101", "2005-W01-1", "2005W011"], ids=["basic", "week", "week-basic"]
    )
    def test_only_yyyy_mm_dd_is_a_date(self, tmp_path, grant):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [_record_obj("A", "2005-01-01"), _record_obj("B", grant)])
        with pytest.raises(CorpusError) as info:
            load_corpus(path, "H01M")
        assert str(info.value) == f"{path}:2: invalid date '{grant}': expected YYYY-MM-DD"

    def test_non_object_line_names_its_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text("[1, 2]\n" + json.dumps(_record_obj("B", "2006-01-01")) + "\n")
        with pytest.raises(CorpusError, match=r":1: record is a JSON list"):
            load_corpus(path, "H01M")

    # neither is a JSON integer: "many" is a string, and 1e400 is written as
    # Infinity, which reads back as the float inf
    @pytest.mark.parametrize("count", ["many", 1e400], ids=["many", "1e400"])
    def test_non_integer_count_names_the_record(self, tmp_path, count):
        path = tmp_path / "c.jsonl"
        bad = _record_obj("A", "2005-01-01")
        bad["dependent_claim_count"] = count
        _write_jsonl(path, [_record_obj("B", "2006-01-01"), bad])
        with pytest.raises(CorpusError, match=r":2: A: malformed field value"):
            load_corpus(path, "H01M")

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "c.jsonl"
        obj = _record_obj("A", "2005-01-01")
        obj["some_future_field"] = {"x": 1}
        _write_jsonl(path, [obj])
        assert load_corpus(path, "H01M").ids() == ["A"]

    @pytest.mark.parametrize(
        "field, value",
        [("cited_id", ["B"]), ("cited_id", 7), ("name", {"n": 1}), ("topic_label", [])],
        ids=["cited-id-list", "cited-id-int", "assignee-name-object", "topic-label-list"],
    )
    def test_non_string_text_field_names_the_field(self, tmp_path, field, value):
        path = tmp_path / "c.jsonl"
        bad = _record_obj("A", "2005-01-01", citations=[
            {"cited_id": "B", "country": "US", "filing_date": "2003-01-01"}
        ])
        if field == "cited_id":
            bad["backward_citations"][0]["cited_id"] = value
        elif field == "name":
            bad["assignees"][0]["name"] = value
        else:
            bad[field] = value
        _write_jsonl(path, [_record_obj("B", "2006-01-01"), bad])
        with pytest.raises(CorpusError, match=rf":2: A: malformed field value: {field} must"):
            load_corpus(path, "H01M")

    @pytest.mark.parametrize(
        "line", ["[" * 100000, '{"id": ' + "1" * 5000 + "}", "{oops"],
        ids=["deep", "long-int", "not-json"],
    )
    def test_unparseable_line_is_a_corpus_error(self, tmp_path, line):
        path = tmp_path / "c.jsonl"
        records = [json.dumps(_record_obj(pid, "2006-01-01")) for pid in ("B", "C")]
        path.write_text("\n".join([records[0], line, records[1]]) + "\n")
        with pytest.raises(CorpusError, match=":2: malformed JSON"):
            load_corpus(path, "H01M")

    def test_citation_filed_after_citer_is_a_corpus_error(self, tmp_path):
        path = tmp_path / "c.jsonl"
        # filed 2004-01-01, citing prior art filed five years later
        bad = _record_obj("A", "2005-01-01", citations=[
            {"country": "US", "filing_date": "2009-01-01"}
        ])
        _write_jsonl(path, [_record_obj("B", "2006-01-01"), bad])
        with pytest.raises(CorpusError, match=r":2: A: backward citation filed 2009-01-01 after"):
            load_corpus(path, "H01M")

    def test_citation_filed_with_citer_accepted(self, tmp_path):
        path = tmp_path / "c.jsonl"
        same_day = _record_obj("A", "2005-01-01", citations=[
            {"country": "US", "filing_date": "2004-01-01"}
        ])
        _write_jsonl(path, [same_day])
        assert load_corpus(path, "H01M").ids() == ["A"]

    def test_grant_before_filing_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        obj = _record_obj("A", "2003-01-01")  # filing is 2004-01-01
        _write_jsonl(path, [obj])
        with pytest.raises(CorpusError, match="precedes"):
            load_corpus(path, "H01M")

    def test_save_load_roundtrip(self, tmp_path, crafted_corpus):
        path = tmp_path / "c.jsonl"
        save_corpus(crafted_corpus, path)
        again = load_corpus(path, "H01M")
        assert again.records == crafted_corpus.records
        path2 = tmp_path / "c2.jsonl"
        save_corpus(again, path2)
        assert path.read_bytes() == path2.read_bytes()


# Hand-built records for the round-trip property. The writer drops an empty
# party name and an empty cited_id, so both are drawn non-empty or None.
_ids = st.text(alphabet="ABCPX0123456789-", min_size=1, max_size=6)
_dates = st.dates(dt.date(1980, 1, 1), dt.date(2030, 12, 31))
_text = st.text(max_size=10)
_ipc = st.builds(str.__add__, st.sampled_from(IPC_SECTIONS), st.text(max_size=8))
_floats = st.floats(-1e6, 1e6, allow_nan=False)
_maybe_float = st.none() | _floats
_parties = st.lists(
    st.builds(Party, country=_text, name=st.none() | st.text(min_size=1, max_size=8)),
    max_size=3,
).map(tuple)


@st.composite
def _records(draw, patent_id: str) -> PatentRecord:
    filing = draw(_dates)
    # prior art is filed no later than the citing patent
    cited_dates = st.dates(dt.date(1980, 1, 1), filing)
    return PatentRecord(
        id=patent_id,
        filing_date=filing,
        grant_date=filing + dt.timedelta(days=draw(st.integers(0, 5000))),
        ipc_codes=tuple(draw(st.lists(_ipc, max_size=3))),
        independent_claim_word_counts=tuple(
            draw(st.lists(st.integers(0, 10**6), min_size=1, max_size=3))
        ),
        dependent_claim_count=draw(st.integers(0, 500)),
        abstract_word_count=draw(st.integers(0, 10**4)),
        assignees=draw(_parties),
        inventors=draw(_parties),
        priorities=tuple(draw(st.lists(st.builds(Priority, _text, _dates), max_size=2))),
        backward_citations=tuple(draw(st.lists(
            st.builds(
                CitedRef,
                country=st.text(min_size=1, max_size=4),
                filing_date=cited_dates,
                ipc_codes=st.lists(_ipc, max_size=2).map(tuple),
                cited_id=st.none() | _ids,
                in_domain=st.booleans(),
            ),
            max_size=4,
        ))),
        npl_citation_count=draw(st.integers(0, 100)),
        post_hoc=draw(st.none() | st.builds(
            PostHoc, _floats, st.integers(0, 100), st.integers(0, 100)
        )),
        topic_label=draw(st.none() | _text),
        history_overrides=draw(st.none() | st.builds(
            HistoryOverrides, _maybe_float, _maybe_float, _maybe_float, _maybe_float
        )),
    )


@st.composite
def _hand_built_corpora(draw) -> Corpus:
    ids = draw(st.lists(_ids, min_size=1, max_size=6, unique=True))
    return Corpus(
        records={pid: draw(_records(pid)) for pid in ids}, domain_ipc_prefix="H01M"
    )


_synthetic_corpora = st.builds(
    SynthParams,
    n_patents=st.integers(10, 60),
    year_range=st.just((2000, 2008)),
    seed=st.integers(0, 2**32 - 1),
    citation_attachment_exponent=st.sampled_from([0.0, 1.0, 1.7]),
    feature_signal_strength=st.sampled_from([0.0, 1.2]),
    mean_internal_citations=st.just(7.0),
).map(generate_synthetic)


# A record with every optional field present, and every path to a field in it
# (an index names a list element; the empty path is the whole line).
_FULL_RECORD = {
    **_record_obj("A", "2006-01-01", citations=[{
        "cited_id": "B", "country": "US", "filing_date": "2003-01-01",
        "ipc_codes": ["H01M2/10"], "in_domain": True,
    }]),
    "priorities": [{"country": "JP", "date": "2003-06-01"}],
    "post_hoc": {"maintenance_years": 4.5, "transfer_count": 1, "family_size": 2},
    "topic_label": "cells",
    "history_overrides": {"pk_6": 1.0, "pk_7": 2.0, "pk_8": 3.0, "pk_9": 4.0},
}


def _field_paths(value, prefix=()):
    yield prefix
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _field_paths(child, prefix + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _field_paths(child, prefix + (i,))


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=4), children, max_size=3),
    max_leaves=8,
)


def _json_strings(value):
    """Every string value (not key) in a JSON value."""
    if isinstance(value, str):
        yield value
    elif isinstance(value, dict):
        for child in value.values():
            yield from _json_strings(child)
    elif isinstance(value, list):
        for child in value:
            yield from _json_strings(child)


class TestArbitraryFieldValues:
    """A corpus line with any JSON value in any field loads or is a CorpusError.
    A record that loads holds, in every string field, a string of its line or
    the empty default country, and in every given in_domain the line's bool."""

    @settings(max_examples=300, deadline=None)
    @given(path=st.sampled_from(list(_field_paths(_FULL_RECORD))), value=_json_values)
    def test_loads_or_raises_corpus_error(self, path, value):
        obj = json.loads(json.dumps(_FULL_RECORD))
        if path:
            *parents, last = path
            target = obj
            for key in parents:
                target = target[key]
            target[last] = value
        else:
            obj = value
        cited = _record_obj("B", "2005-01-01")
        with tempfile.TemporaryDirectory() as tmp:
            corpus_path = Path(tmp) / "c.jsonl"
            _write_jsonl(corpus_path, [cited, obj])
            try:
                corpus = load_corpus(corpus_path, "H01M")
            except CorpusError:
                return
        # str() once loaded a country 5 as "5" and IPC codes "H01M" as "H", "0", ...
        line_strings = {"", *_json_strings(cited), *_json_strings(obj)}
        assert set(_values_by_kind(corpus)["string"]) <= line_strings
        # ... and bool() an in_domain "no" as True
        for c, ref in zip(obj["backward_citations"], corpus.get(obj["id"]).backward_citations):
            if c.get("in_domain") is not None:
                assert ref.in_domain is c["in_domain"]


    # str() once made these the ids "None", "5", "True", "[1]" and "{'a': 1}"
    @pytest.mark.parametrize(
        "value", [None, 5, 1.5, True, [1], {"a": 1}, ""],
        ids=["null", "int", "float", "bool", "list", "object", "empty"],
    )
    def test_id_must_be_a_non_empty_string(self, tmp_path, value):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [_record_obj("B", "2005-01-01"), {**_FULL_RECORD, "id": value}])
        with pytest.raises(CorpusError, match=r":2: id must be a non-empty JSON string"):
            load_corpus(path, "H01M")


    # a citation that repeats an already loaded one but for one malformed field
    # is converted before any shared object is looked up, so it fails as before
    @pytest.mark.parametrize(
        "field, value, error",
        [
            (
                "cited_id", 5,
                "C: malformed field value: cited_id must be a JSON string or null, got 5",
            ),
            ("filing_date", [1], "invalid date [1]: fromisoformat: argument must be str"),
            (
                "filing_date", "2003-02-30",
                "invalid date '2003-02-30': day is out of range for month",
            ),
            ("ipc_codes", 5, "C: malformed field value: ipc_codes must be a JSON array, got 5"),
            # str() and bool() once loaded these as "5", "None", "['US']", the codes
            # "H", "0", "1", "M", and in_domain True, False and True
            ("country", 5, "C: malformed field value: country must be a JSON string, got 5"),
            ("country", None, "C: malformed field value: country must be a JSON string, got None"),
            (
                "country", ["US"],
                "C: malformed field value: country must be a JSON string, got ['US']",
            ),
            (
                "ipc_codes", "H01M",
                "C: malformed field value: ipc_codes must be a JSON array, got 'H01M'",
            ),
            ("ipc_codes", [5], "C: malformed field value: ipc_codes must be a JSON string, got 5"),
            (
                "ipc_codes", [["H01M2/10"]],
                "C: malformed field value: ipc_codes must be a JSON string, got ['H01M2/10']",
            ),
            (
                "in_domain", "no",
                "C: malformed field value: in_domain must be true or false, got 'no'",
            ),
            ("in_domain", 0, "C: malformed field value: in_domain must be true or false, got 0"),
            # 1 == True, so a 1 finds the shared citation of the True before it
            ("in_domain", 1, "C: malformed field value: in_domain must be true or false, got 1"),
        ],
        ids=[
            "cited-id-int", "filing-date-list", "filing-date-invalid", "ipc-codes-int",
            "country-int", "country-null", "country-list", "ipc-codes-string", "ipc-code-int",
            "ipc-code-list", "in-domain-string", "in-domain-zero", "in-domain-one",
        ],
    )
    def test_repeated_citation_with_one_malformed_field(self, tmp_path, field, value, error):
        ref = _FULL_RECORD["backward_citations"][0]
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [
            _record_obj("B", "2005-01-01"),
            _FULL_RECORD,
            _record_obj("C", "2006-01-01", citations=[ref, {**ref, field: value}]),
            # a later bad line is never reached: the first bad record aborts the load
            {**_FULL_RECORD, "filing_date": [1]},
        ])
        with pytest.raises(CorpusError) as info:
            load_corpus(path, "H01M")
        assert str(info.value) == f"{path}:3: {error}"


    # str() once loaded these countries as "None", "['US']" and "5", and the
    # record's IPC codes "H01M" as the four codes "H", "0", "1", "M"
    @pytest.mark.parametrize(
        "edit, error",
        [
            (
                {"priorities": [{"country": None, "date": "2003-06-01"}]},
                "country must be a JSON string, got None",
            ),
            (
                {"assignees": [{"country": ["US"], "name": "ACME"}]},
                "country must be a JSON string, got ['US']",
            ),
            ({"inventors": [{"country": 5, "name": "I"}]}, "country must be a JSON string, got 5"),
            ({"ipc_codes": "H01M"}, "ipc_codes must be a JSON array, got 'H01M'"),
            ({"ipc_codes": ["H01M", 5]}, "ipc_codes must be a JSON string, got 5"),
        ],
        ids=[
            "priority-country-null", "assignee-country-list", "inventor-country-int",
            "ipc-codes-string", "ipc-code-int",
        ],
    )
    def test_country_and_ipc_codes_are_not_coerced(self, tmp_path, edit, error):
        path = tmp_path / "c.jsonl"
        _write_jsonl(path, [
            _record_obj("B", "2005-01-01"), _FULL_RECORD, {**_record_obj("C", "2006-01-01"), **edit}
        ])
        with pytest.raises(CorpusError) as info:
            load_corpus(path, "H01M")
        assert str(info.value) == f"{path}:3: C: malformed field value: {error}"


def _values_by_kind(corpus: Corpus) -> dict[str, list]:
    """Every date, string, IPC-code tuple, party and citation in ``corpus``."""
    kinds: dict[str, list] = {
        "date": [], "string": [], "ipc_codes": [], "party": [], "citation": []
    }
    for rec in corpus.records.values():
        parties = rec.assignees + rec.inventors
        refs = rec.backward_citations
        kinds["date"] += [rec.filing_date, rec.grant_date]
        kinds["date"] += [p.date for p in rec.priorities] + [r.filing_date for r in refs]
        kinds["ipc_codes"] += [rec.ipc_codes] + [r.ipc_codes for r in refs]
        kinds["party"] += parties
        kinds["citation"] += refs
        kinds["string"] += [rec.id, *rec.ipc_codes, *(c for r in refs for c in r.ipc_codes)]
        kinds["string"] += [p.country for p in rec.priorities + parties + refs]
        kinds["string"] += [
            s for s in (rec.topic_label, *(p.name for p in parties), *(r.cited_id for r in refs))
            if s is not None
        ]
    return kinds


class TestSharedValues:
    """A loaded corpus holds one object per distinct date, string, IPC-code
    tuple, party and citation."""

    @settings(max_examples=80, deadline=None)
    @given(corpus=_hand_built_corpora() | _synthetic_corpora)
    def test_equal_values_are_one_object(self, corpus):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.jsonl"
            save_corpus(corpus, path)
            loaded = load_corpus(path, corpus.domain_ipc_prefix)
        assert loaded.records == corpus.records
        kinds = _values_by_kind(loaded)
        for kind, values in kinds.items():
            first: dict = {}
            for value in values:
                assert first.setdefault(value, value) is value, (kind, value)
        refs = kinds["citation"]
        assert len({id(r) for r in refs}) == len(set(refs))


_VALUE_OBJECTS = [
    Party(country="US", name="ACME"),
    Priority(country="DE", date=d("2003-02-01")),
    CitedRef(country="JP", filing_date=d("2001-05-06"), ipc_codes=("H01M4/00",),
             cited_id="P-9", in_domain=True),
    PostHoc(maintenance_years=12.5, transfer_count=2, family_size=7),
    HistoryOverrides(pk_6=1.0, pk_9=4.0),
    make_patent(
        "P-1",
        priorities=(Priority(country="DE", date=d("2003-02-01")),),
        post_hoc=PostHoc(maintenance_years=12.5, transfer_count=2, family_size=7),
        history_overrides=HistoryOverrides(pk_7=2.0),
    ),
]


class TestSlottedValues:
    """The corpus value classes keep their fields in slots, with no per-object
    ``__dict__``, and still behave as frozen dataclasses."""

    @pytest.mark.parametrize("value", _VALUE_OBJECTS, ids=lambda v: type(v).__name__)
    def test_frozen_slotted_value(self, value):
        assert not hasattr(value, "__dict__")
        first = fields(value)[0].name
        with pytest.raises(FrozenInstanceError):
            setattr(value, first, getattr(value, first))
        # Python 3.11 raises a TypeError for a name outside the fields: the
        # frozen __setattr__ calls super() on the class from before slots
        with pytest.raises((AttributeError, TypeError)):
            value.extra = 1
        for copy in (pickle.loads(pickle.dumps(value)), replace(value)):
            assert copy is not value
            assert copy == value and hash(copy) == hash(value)
        changed = replace(value, **{first: None})
        assert changed != value and getattr(changed, first) is None


class TestRoundTripProperty:
    """load(save(c)) gives c's records, and saving them again the same bytes."""

    @settings(max_examples=80, deadline=None)
    @given(corpus=_hand_built_corpora() | _synthetic_corpora)
    def test_save_load_save(self, corpus):
        with tempfile.TemporaryDirectory() as tmp:
            first, second = Path(tmp) / "a.jsonl", Path(tmp) / "b.jsonl"
            save_corpus(corpus, first)
            again = load_corpus(first, corpus.domain_ipc_prefix)
            assert again.records == corpus.records
            save_corpus(again, second)
            assert second.read_bytes() == first.read_bytes()


@st.composite
def _boundary_corpora(draw) -> Corpus:
    """One cited patent and citers granted on and a day either side of each
    horizon's window end, a Feb 29 grant among the draws."""
    grant = draw(
        st.dates(dt.date(1996, 1, 1), dt.date(2012, 12, 31))
        | st.sampled_from([dt.date(2000, 2, 29), dt.date(2004, 2, 29)])
    )
    cited = make_patent("X", filing_date=grant, grant_date=grant)
    offsets = draw(st.lists(
        st.tuples(st.sampled_from([h.years for h in HORIZONS]), st.integers(-1, 1)), min_size=1, max_size=6
    ))
    citers = [
        make_patent(
            f"C{i}", filing_date=grant, grant_date=add_years(grant, years) + dt.timedelta(days),
            backward_citations=(CitedRef(country="US", filing_date=grant, cited_id="X"),),
        )
        for i, (years, days) in enumerate(offsets)
    ]
    return Corpus(records={r.id: r for r in (cited, *citers)}, domain_ipc_prefix="H01M")


class TestForwardCounts:
    def test_never_cited_is_zero(self, crafted_corpus):
        for h in HORIZONS:
            assert forward_citation_count(crafted_corpus, "P-D", h) == 0

    def test_windows_from_crafted_citations(self, crafted_corpus):
        # P-B (granted 2003-01-01) is cited by P-C (2006-01-01, exactly +3y),
        # P-A (2008-06-15, ~5.5y), and P-J (2010-12-31, ~8y)
        assert forward_citation_count(crafted_corpus, "P-B", Horizon.SHORT) == 1
        assert forward_citation_count(crafted_corpus, "P-B", Horizon.MID) == 1
        assert forward_citation_count(crafted_corpus, "P-B", Horizon.LONG) == 3

    def test_boundary_exactly_included(self):
        # date-arithmetic oracle: grant + 3 years lands exactly on the
        # citing grant date, and the window is closed on the right
        from patimpact.corpus import CitedRef, Corpus

        cited = make_patent("X", grant_date=d("2003-01-01"), filing_date=d("2001-01-01"))
        citer = make_patent(
            "Y",
            grant_date=d("2006-01-01"),
            filing_date=d("2004-06-01"),
            backward_citations=(
                CitedRef(country="US", filing_date=d("2001-01-01"), cited_id="X"),
            ),
        )
        corpus = Corpus(records={"X": cited, "Y": citer}, domain_ipc_prefix="H01M")
        assert citer.grant_date == add_years(cited.grant_date, Horizon.SHORT.years)
        assert forward_citation_count(corpus, "X", Horizon.SHORT) == 1

    def test_one_day_past_boundary_excluded(self):
        from patimpact.corpus import CitedRef, Corpus

        cited = make_patent("X", grant_date=d("2003-01-01"), filing_date=d("2001-01-01"))
        citer = make_patent(
            "Y",
            grant_date=d("2006-01-02"),
            filing_date=d("2004-06-01"),
            backward_citations=(
                CitedRef(country="US", filing_date=d("2001-01-01"), cited_id="X"),
            ),
        )
        corpus = Corpus(records={"X": cited, "Y": citer}, domain_ipc_prefix="H01M")
        assert forward_citation_count(corpus, "X", Horizon.SHORT) == 0

    def test_unknown_id_errors(self, crafted_corpus):
        with pytest.raises(CorpusError):
            forward_citation_count(crafted_corpus, "NOPE", Horizon.SHORT)

    # a horizon's window holds the shorter horizon's, so a patent's count
    # never falls from short to mid to long
    @settings(max_examples=120, deadline=None)
    @given(corpus=_boundary_corpora() | _hand_built_corpora() | _synthetic_corpora)
    def test_monotone_horizons(self, corpus):
        for pid in corpus.ids():
            counts = [forward_citation_count(corpus, pid, h) for h in HORIZONS]
            assert counts[0] <= counts[1] <= counts[2], pid

    def test_forward_index_is_exact_transpose(self, synth_corpus_small):
        corpus = synth_corpus_small
        edges = set()
        for rec in corpus.records.values():
            for ref in rec.backward_citations:
                if ref.cited_id and ref.cited_id in corpus.records:
                    edges.add((rec.id, ref.cited_id))
        indexed = set()
        for cited, entries in corpus.forward_index.items():
            for citing, granted in entries:
                assert corpus.get(citing).grant_date == granted
                assert (citing, cited) not in indexed  # exactly once
                indexed.add((citing, cited))
        assert indexed == edges


class TestImpactClasses:
    @pytest.mark.parametrize(
        "count,horizon,expected",
        [
            (4, Horizon.SHORT, ImpactClass.BT),
            (3, Horizon.SHORT, ImpactClass.VT),
            (2, Horizon.SHORT, ImpactClass.VT),
            (1, Horizon.SHORT, ImpactClass.MT),
            (8, Horizon.MID, ImpactClass.VT),
            (9, Horizon.MID, ImpactClass.BT),
            (24, Horizon.LONG, ImpactClass.BT),
            (5, Horizon.LONG, ImpactClass.MT),
            (0, Horizon.MID, ImpactClass.MT),
        ],
    )
    def test_fixed_threshold_boundaries(self, count, horizon, expected):
        assert assign_impact_class(count, FIXED_THRESHOLDS, horizon) == expected

    def test_class_monotone_in_count(self):
        for h in HORIZONS:
            classes = [assign_impact_class(c, FIXED_THRESHOLDS, h) for c in range(0, 40)]
            assert all(a <= b for a, b in zip(classes, classes[1:]))

    def test_threshold_pair_validation(self):
        with pytest.raises(ValueError):
            ThresholdPair(bt_min=2, vt_min=2)
        with pytest.raises(ValueError):
            ThresholdPair(bt_min=4, vt_min=0)

    def test_thresholds_json_roundtrip(self):
        obj = FIXED_THRESHOLDS.to_json_obj()
        assert obj["short"] == {"bt_min": 4, "vt_min": 2}
        assert obj["mid"] == {"bt_min": 9, "vt_min": 3}
        assert obj["long"] == {"bt_min": 24, "vt_min": 6}


class TestDeriveThresholds:
    def test_fixed_mode_long(self, crafted_corpus):
        pair = derive_thresholds(crafted_corpus, Horizon.LONG, "fixed")
        assert (pair.bt_min, pair.vt_min) == (24, 6)

    def test_stanine_on_published_short_distribution(self):
        # 10,851 counts shaped like the short-horizon citation table:
        # 0:7635, 1:1969, 2+3:849, 4..7:307, 8+:91
        counts = (
            [0] * 7635
            + [1] * 1969
            + [2] * 425
            + [3] * 424
            + [4] * 100
            + [5] * 100
            + [6] * 60
            + [7] * 47
            + [8] * 50
            + [20] * 41
        )
        assert len(counts) == 10851
        pair = stanine_thresholds(counts)
        # top 3.67% >= 4 (within the 4.5% band); 3 would cover 7.6%
        assert pair.bt_min == 4
        # >= 2 covers 11.5% (within 23%); >= 1 covers 29.6%
        assert pair.vt_min == 2

    def test_stanine_coverage_shares(self):
        rng = np.random.default_rng(5)
        counts = rng.negative_binomial(1, 0.25, size=4000)
        pair = stanine_thresholds(counts)
        n = len(counts)
        bt_share = np.sum(counts >= pair.bt_min) / n
        vt_share = np.sum(counts >= pair.vt_min) / n
        assert bt_share <= 0.045
        assert vt_share <= 0.23

    def test_all_zero_counts_error(self):
        with pytest.raises(CorpusError, match="degenerate"):
            stanine_thresholds([0] * 100)

    def test_unknown_mode(self, crafted_corpus):
        with pytest.raises(ValueError):
            derive_thresholds(crafted_corpus, Horizon.SHORT, "quantile")


class TestTrajectory:
    def test_examples(self):
        BT, VT, MT = ImpactClass.BT, ImpactClass.VT, ImpactClass.MT
        assert trajectory_pattern(BT, BT, BT) == TrajectoryPattern.SUSTAINED
        assert trajectory_pattern(BT, VT, MT) == TrajectoryPattern.PEAK_AND_FADE
        assert trajectory_pattern(MT, MT, MT) == TrajectoryPattern.OTHER
        assert trajectory_pattern(MT, MT, BT) == TrajectoryPattern.LATE_BLOOMING
        assert trajectory_pattern(MT, VT, VT) == TrajectoryPattern.LATE_BLOOMING
        assert trajectory_pattern(VT, VT, BT) == TrajectoryPattern.OTHER

    def test_total_and_deterministic_over_all_triples(self):
        seen = {}
        for s in ImpactClass:
            for m in ImpactClass:
                for lo in ImpactClass:
                    first = trajectory_pattern(s, m, lo)
                    assert isinstance(first, TrajectoryPattern)
                    assert trajectory_pattern(s, m, lo) == first
                    seen[(s, m, lo)] = first
        assert len(seen) == 27
        assert set(seen.values()) == set(TrajectoryPattern)
