"""Patent corpus: records, citation graph, impact labels, and trajectories.

A corpus is an immutable, id-keyed collection of granted patents together
with the forward-citation index (the transpose of every resolvable backward
citation). Forward-citation counts over fixed horizons (3/5/10 years after
grant) drive the three-class impact labels: moderate (MT), valuable (VT),
and breakthrough (BT) technologies.
"""

from __future__ import annotations

import datetime as dt
import json
import re
import reprlib
from dataclasses import dataclass, field
from enum import Enum, IntEnum
from typing import Iterable, Optional

from .tables import json_bool, json_finite, json_int, json_list, json_str, json_str_or_null

IPC_SECTIONS = "ABCDEFGH"


class CorpusError(Exception):
    """Raised for unreadable, malformed, or inconsistent corpus input."""


# --------------------------------------------------------------------------
# dates
# --------------------------------------------------------------------------

# from Python 3.11 on, date.fromisoformat also reads the basic form
# "20200101" and week dates such as "2020-W01-1", which 3.10 refuses
_ISO_DATE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}")


def parse_date(s: str) -> dt.date:
    """Parse a ``YYYY-MM-DD`` string; no other ISO-8601 form is a date."""
    try:
        if isinstance(s, str) and not _ISO_DATE.fullmatch(s):
            raise ValueError("expected YYYY-MM-DD")
        return dt.date.fromisoformat(s)
    except (ValueError, TypeError) as exc:
        raise CorpusError(f"invalid date {reprlib.repr(s)}: {exc}") from None


def add_years(d: dt.date, years: int) -> dt.date:
    """Same month/day ``years`` later; Feb 29 maps to Feb 28."""
    try:
        return d.replace(year=d.year + years)
    except ValueError:
        return d.replace(year=d.year + years, month=2, day=28)


DAYS_PER_YEAR = 365.25


def years_between(earlier: dt.date, later: dt.date) -> float:
    """Signed gap ``later - earlier`` in fractional years (365.25-day year)."""
    return (later - earlier).days / DAYS_PER_YEAR


# --------------------------------------------------------------------------
# domain types
# --------------------------------------------------------------------------

class Horizon(Enum):
    """Forecasting window measured from the grant date."""

    SHORT = 3
    MID = 5
    LONG = 10

    @property
    def years(self) -> int:
        return self.value

    @property
    def key(self) -> str:
        return self.name.lower()


HORIZONS = (Horizon.SHORT, Horizon.MID, Horizon.LONG)


class ImpactClass(IntEnum):
    """Impact classes in increasing order of forward-citation intensity."""

    MT = 0
    VT = 1
    BT = 2

    @classmethod
    def from_name(cls, name: str) -> "ImpactClass":
        try:
            return cls[name.upper()]
        except KeyError:
            raise ValueError(f"unknown impact class {name!r}") from None


#: The classes lowest first (MT, VT, BT): the order of every per-class table.
CLASS_ORDER = tuple(ImpactClass)


class TrajectoryPattern(Enum):
    """Shape of the (short, mid, long) impact-class triple."""

    SUSTAINED = "sustained"
    PEAK_AND_FADE = "peak_and_fade"
    LATE_BLOOMING = "late_blooming"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class Party:
    """An assignee or inventor; name is optional and used for history matching."""

    country: str
    name: Optional[str] = None


@dataclass(frozen=True, slots=True)
class Priority:
    country: str
    date: dt.date


@dataclass(frozen=True, slots=True)
class CitedRef:
    """One backward citation (prior art) of a patent."""

    country: str
    filing_date: dt.date
    ipc_codes: tuple[str, ...] = ()
    cited_id: Optional[str] = None
    in_domain: bool = False


@dataclass(frozen=True, slots=True)
class PostHoc:
    """Value indicators observable only years after grant."""

    maintenance_years: float
    transfer_count: int
    family_size: int


@dataclass(frozen=True, slots=True)
class HistoryOverrides:
    """Precomputed inventor/assignee history indicators.

    When present these take precedence over corpus-derived counts, for
    corpora whose history was computed against a larger patent universe.
    """

    pk_6: Optional[float] = None
    pk_7: Optional[float] = None
    pk_8: Optional[float] = None
    pk_9: Optional[float] = None


@dataclass(frozen=True, slots=True)
class PatentRecord:
    id: str
    filing_date: dt.date
    grant_date: dt.date
    ipc_codes: tuple[str, ...]
    independent_claim_word_counts: tuple[int, ...]
    dependent_claim_count: int
    abstract_word_count: int
    assignees: tuple[Party, ...]
    inventors: tuple[Party, ...]
    priorities: tuple[Priority, ...]
    backward_citations: tuple[CitedRef, ...]
    npl_citation_count: int
    post_hoc: Optional[PostHoc] = None
    topic_label: Optional[str] = None
    history_overrides: Optional[HistoryOverrides] = None

    def validate(self) -> list[str]:
        """Return invariant violations (empty when the record is well formed)."""
        problems = []
        if self.grant_date < self.filing_date:
            problems.append(f"{self.id}: grant_date precedes filing_date")
        for code in self.ipc_codes:
            if not code or code[0] not in IPC_SECTIONS:
                problems.append(f"{self.id}: invalid IPC section in {code!r}")
        if not self.independent_claim_word_counts:
            problems.append(f"{self.id}: granted patent has no independent claims")
        if any(c < 0 for c in self.independent_claim_word_counts):
            problems.append(f"{self.id}: negative independent-claim word count")
        if self.dependent_claim_count < 0 or self.abstract_word_count < 0:
            problems.append(f"{self.id}: negative claim/abstract count")
        if self.npl_citation_count < 0:
            problems.append(f"{self.id}: negative npl_citation_count")
        for ref in self.backward_citations:
            if not ref.country:
                problems.append(f"{self.id}: backward citation with empty country")
            if ref.filing_date > self.filing_date:
                problems.append(
                    f"{self.id}: backward citation filed {ref.filing_date} after "
                    f"the patent's filing date {self.filing_date}"
                )
        return problems


@dataclass
class Corpus:
    """Immutable patent collection with the forward-citation index."""

    records: dict[str, PatentRecord]
    domain_ipc_prefix: str
    forward_index: dict[str, list[tuple[str, dt.date]]] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.forward_index:
            self.forward_index = _build_forward_index(self.records)

    def __len__(self) -> int:
        return len(self.records)

    def __contains__(self, patent_id: str) -> bool:
        return patent_id in self.records

    def get(self, patent_id: str) -> PatentRecord:
        try:
            return self.records[patent_id]
        except KeyError:
            raise CorpusError(f"unknown patent id {patent_id!r}") from None

    def ids(self) -> list[str]:
        return list(self.records)

    def grant_year_range(self) -> tuple[int, int]:
        years = [r.grant_date.year for r in self.records.values()]
        if not years:
            raise CorpusError("empty corpus has no year range")
        return min(years), max(years)

    def max_grant_date(self) -> dt.date:
        if not self.records:
            raise CorpusError("empty corpus has no grant dates")
        return max(r.grant_date for r in self.records.values())


def _build_forward_index(
    records: dict[str, PatentRecord],
) -> dict[str, list[tuple[str, dt.date]]]:
    # Transpose of resolvable backward citations; one entry per (citing, cited)
    # pair even if the citing record lists the same prior patent twice.
    index: dict[str, list[tuple[str, dt.date]]] = {}
    for rec in records.values():
        seen: set[str] = set()
        for ref in rec.backward_citations:
            cid = ref.cited_id
            if cid is None or cid not in records or cid in seen:
                continue
            seen.add(cid)
            index.setdefault(cid, []).append((rec.id, rec.grant_date))
    for entries in index.values():
        entries.sort()
    return index


# --------------------------------------------------------------------------
# loading
# --------------------------------------------------------------------------

class _Shared:
    """One load's lookup tables, which hand out one object per distinct value
    (hash-consing), so a value that repeats across records is stored once.

    A table is keyed by a string or by the tuple of a value's converted
    fields, not by the dataclass, whose generated ``__hash__`` runs Python
    code. Each kind of value has a table of its own: a shared table would
    return a Party for an IPC tuple equal to some ``(country, name)``.

    The IPC-code, party and citation tables are looked up with the values as
    the line holds them, and check their types only on a miss: a value of
    another JSON type never equals a key (save a number for in_domain's bool,
    which `_build_record` checks), and an array or object cannot key a table.
    """

    def __init__(self) -> None:
        self.strings: dict[str, str] = {}
        self.dates: dict[str, dt.date] = {}
        self.ipc_tuples: dict[tuple[str, ...], tuple[str, ...]] = {}
        self.parties: dict[tuple, Party] = {}
        self.refs: dict[tuple, CitedRef] = {}

    def string(self, s: Optional[str]) -> Optional[str]:
        return None if s is None else self.strings.setdefault(s, s)

    def date(self, value: object) -> dt.date:
        # only a string can key the table; any other value fails in parse_date
        if not isinstance(value, str):
            return parse_date(value)
        date = self.dates.get(value)
        if date is None:
            date = self.dates[value] = parse_date(value)
        return date

    def ipc_codes(self, codes: tuple) -> tuple[str, ...]:
        try:
            shared = self.ipc_tuples.get(codes)
        except TypeError:
            shared = None
        if shared is None:
            shared = tuple(self.string(json_str(code, "ipc_codes")) for code in codes)
            self.ipc_tuples[shared] = shared
        return shared

    def party(self, obj: dict) -> Party:
        # save_corpus drops an empty name or cited_id, so one is read as absent
        name = json_str_or_null(obj.get("name"), "name") or None
        key = (obj.get("country", ""), name)
        try:
            party = self.parties.get(key)
        except TypeError:
            party = None
        if party is None:
            party = Party(self.string(json_str(key[0], "country")), self.string(name))
            self.parties[(party.country, party.name)] = party
        return party

    def ref(self, key: tuple) -> CitedRef:
        """The citation of fields ``(country, filing_date, ipc_codes,
        cited_id, in_domain)``."""
        try:
            ref = self.refs.get(key)
        except TypeError:
            ref = None
        if ref is None:
            country, filing_date, ipc_codes, cited_id, in_domain = key
            ref = CitedRef(
                self.string(json_str(country, "country")), filing_date,
                self.ipc_codes(ipc_codes), self.string(cited_id), in_domain,
            )
            self.refs[(ref.country, filing_date, ref.ipc_codes, ref.cited_id, in_domain)] = ref
        return ref


def _parse_record(obj: object, domain_ipc_prefix: str, shared: _Shared) -> PatentRecord:
    """Build a record, turning every malformed field into a CorpusError."""
    if not isinstance(obj, dict):
        raise CorpusError(f"record is a JSON {type(obj).__name__}, not an object")
    if "id" not in obj:
        raise CorpusError("record without id")
    patent_id = obj["id"]
    # ids key the corpus and resolve citations, so none is coerced from another type
    if not isinstance(patent_id, str) or not patent_id:
        raise CorpusError(f"id must be a non-empty JSON string, got {reprlib.repr(patent_id)}")
    try:
        return _build_record(obj, shared.string(patent_id), domain_ipc_prefix, shared)
    except (TypeError, ValueError, AttributeError, OverflowError) as exc:
        raise CorpusError(f"{patent_id}: malformed field value: {exc}") from None


def _build_record(
    obj: dict, patent_id: str, domain_ipc_prefix: str, shared: _Shared
) -> PatentRecord:
    def _dates_and_refs() -> tuple:
        filing = shared.date(obj["filing_date"])
        grant = shared.date(obj["grant_date"])
        priorities = tuple(
            Priority(
                country=shared.string(json_str(p.get("country", ""), "country")),
                date=shared.date(p["date"]),
            )
            for p in obj.get("priorities", ())
        )
        refs = []
        for c in obj.get("backward_citations", ()):
            ipcs = tuple(json_list(c.get("ipc_codes", []), "ipc_codes"))
            in_domain = c.get("in_domain")
            if in_domain is None:
                in_domain = any(x.startswith(domain_ipc_prefix) for x in shared.ipc_codes(ipcs))
            refs.append(
                shared.ref((
                    c.get("country", ""),
                    shared.date(c["filing_date"]),
                    ipcs,
                    json_str_or_null(c.get("cited_id"), "cited_id") or None,
                    # checked on every citation: 1 == True, so a 1 would find a True's citation
                    json_bool(in_domain, "in_domain"),
                ))
            )
        return filing, grant, priorities, tuple(refs)

    try:
        filing, grant, priorities, refs = _dates_and_refs()
    except KeyError as exc:
        raise CorpusError(f"{patent_id}: missing field {exc}") from None

    post_hoc = None
    if obj.get("post_hoc") is not None:
        ph = obj["post_hoc"]
        try:
            post_hoc = PostHoc(
                maintenance_years=json_finite(
                    ph["maintenance_years"], "post_hoc.maintenance_years"
                ),
                transfer_count=json_int(ph["transfer_count"], "post_hoc.transfer_count"),
                family_size=json_int(ph["family_size"], "post_hoc.family_size"),
            )
        except KeyError as exc:
            raise CorpusError(f"{patent_id}: post_hoc missing {exc}") from None

    overrides = None
    if obj.get("history_overrides") is not None:
        ho = obj["history_overrides"]
        overrides = HistoryOverrides(**{
            key: None if ho.get(key) is None else json_finite(ho[key], f"history_overrides.{key}")
            for key in ("pk_6", "pk_7", "pk_8", "pk_9")
        })

    return PatentRecord(
        id=patent_id,
        filing_date=filing,
        grant_date=grant,
        ipc_codes=shared.ipc_codes(tuple(json_list(obj.get("ipc_codes", []), "ipc_codes"))),
        independent_claim_word_counts=tuple(
            json_int(count, "independent_claim_word_counts")
            for count in obj.get("independent_claim_word_counts", ())
        ),
        dependent_claim_count=json_int(
            obj.get("dependent_claim_count", 0), "dependent_claim_count"
        ),
        abstract_word_count=json_int(obj.get("abstract_word_count", 0), "abstract_word_count"),
        assignees=tuple(map(shared.party, obj.get("assignees", ()))),
        inventors=tuple(map(shared.party, obj.get("inventors", ()))),
        priorities=priorities,
        backward_citations=refs,
        npl_citation_count=json_int(obj.get("npl_citation_count", 0), "npl_citation_count"),
        post_hoc=post_hoc,
        topic_label=shared.string(json_str_or_null(obj.get("topic_label"), "topic_label")),
        history_overrides=overrides,
    )


# Reading with errors="surrogateescape" turns each byte that is not UTF-8 into
# a lone surrogate, which text decoded from UTF-8 never holds. An ASCII line
# holds none, and str.isascii answers without a scan, so only other lines are
# searched: searching every line cost ~10% of an 8,000-patent load.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def load_corpus(path, domain_ipc_prefix: str) -> Corpus:
    """Load a JSONL corpus (one patent record per line), read line by line;
    any malformed record or line that is not UTF-8, and any duplicate id,
    aborts the load with a CorpusError. Equal dates, strings, IPC-code
    tuples, parties and citations are one shared object each, looked up in
    tables that live for this load."""
    records: dict[str, PatentRecord] = {}
    shared = _Shared()
    try:
        with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
            for lineno, line in enumerate(fh, start=1):
                bad = not line.isascii() and _NOT_UTF8.search(line)
                if bad:
                    byte = ord(bad.group()) - 0xDC00
                    raise CorpusError(f"{path}:{lineno}: byte 0x{byte:02x} is not UTF-8")
                if not line.strip():
                    continue
                try:
                    # a JSONDecodeError and an integer past the digit limit are
                    # ValueErrors; nesting past the parser's depth limit is a RecursionError
                    try:
                        obj = json.loads(line)
                    except (ValueError, RecursionError) as exc:
                        raise CorpusError(f"malformed JSON: {exc}") from None
                    rec = _parse_record(obj, domain_ipc_prefix, shared)
                except CorpusError as exc:
                    raise CorpusError(f"{path}:{lineno}: {exc}") from None
                if rec.id in records:
                    raise CorpusError(f"{path}:{lineno}: duplicate patent id {rec.id!r}")
                problems = rec.validate()
                if problems:
                    raise CorpusError(f"{path}:{lineno}: " + "; ".join(problems))
                records[rec.id] = rec
    except OSError as exc:
        raise CorpusError(f"cannot read corpus file {path}: {exc}") from None
    return Corpus(records=records, domain_ipc_prefix=domain_ipc_prefix)


def record_to_json_obj(rec: PatentRecord) -> dict:
    """Serialize a record to the JSONL schema (inverse of loading)."""
    obj: dict = {
        "id": rec.id,
        "filing_date": rec.filing_date.isoformat(),
        "grant_date": rec.grant_date.isoformat(),
        "ipc_codes": list(rec.ipc_codes),
        "independent_claim_word_counts": list(rec.independent_claim_word_counts),
        "dependent_claim_count": rec.dependent_claim_count,
        "abstract_word_count": rec.abstract_word_count,
        "assignees": [
            {"country": a.country, **({"name": a.name} if a.name else {})}
            for a in rec.assignees
        ],
        "inventors": [
            {"country": a.country, **({"name": a.name} if a.name else {})}
            for a in rec.inventors
        ],
        "priorities": [
            {"country": p.country, "date": p.date.isoformat()} for p in rec.priorities
        ],
        "backward_citations": [
            {
                "country": c.country,
                "filing_date": c.filing_date.isoformat(),
                "ipc_codes": list(c.ipc_codes),
                **({"cited_id": c.cited_id} if c.cited_id else {}),
                "in_domain": c.in_domain,
            }
            for c in rec.backward_citations
        ],
        "npl_citation_count": rec.npl_citation_count,
    }
    if rec.post_hoc is not None:
        obj["post_hoc"] = {
            "maintenance_years": rec.post_hoc.maintenance_years,
            "transfer_count": rec.post_hoc.transfer_count,
            "family_size": rec.post_hoc.family_size,
        }
    if rec.topic_label is not None:
        obj["topic_label"] = rec.topic_label
    if rec.history_overrides is not None:
        ho = rec.history_overrides
        obj["history_overrides"] = {
            k: v
            for k, v in (
                ("pk_6", ho.pk_6),
                ("pk_7", ho.pk_7),
                ("pk_8", ho.pk_8),
                ("pk_9", ho.pk_9),
            )
            if v is not None
        }
    return obj


def save_corpus(corpus: Corpus, path) -> None:
    """Write the corpus as JSONL sorted by patent id (deterministic bytes)."""
    with open(path, "w", encoding="utf-8") as fh:
        for pid in sorted(corpus.records):
            fh.write(json.dumps(record_to_json_obj(corpus.records[pid]), sort_keys=True))
            fh.write("\n")


# --------------------------------------------------------------------------
# forward-citation counting and impact labels
# --------------------------------------------------------------------------

def forward_citation_count(corpus: Corpus, patent_id: str, horizon: Horizon) -> int:
    """Citations received within (grant, grant + horizon years].

    A citing patent granted exactly at the +N-year boundary is included.
    """
    rec = corpus.get(patent_id)
    start = rec.grant_date
    end = add_years(start, horizon.years)
    entries = corpus.forward_index.get(patent_id, ())
    return sum(1 for _, granted in entries if start < granted <= end)


@dataclass(frozen=True)
class ThresholdPair:
    """Class cut points for one horizon: BT at >= bt_min, VT at >= vt_min."""

    bt_min: int
    vt_min: int

    def __post_init__(self) -> None:
        if not (0 < self.vt_min < self.bt_min):
            raise ValueError(
                f"need 0 < vt_min < bt_min, got vt_min={self.vt_min} bt_min={self.bt_min}"
            )


@dataclass(frozen=True)
class ClassThresholds:
    """Per-horizon class cut points."""

    short: ThresholdPair
    mid: ThresholdPair
    long: ThresholdPair

    def for_horizon(self, horizon: Horizon) -> ThresholdPair:
        return getattr(self, horizon.key)

    def to_json_obj(self) -> dict:
        return {
            h.key: {
                "bt_min": self.for_horizon(h).bt_min,
                "vt_min": self.for_horizon(h).vt_min,
            }
            for h in HORIZONS
        }


#: Case-study cut points: short >=4 BT / >=2 VT, mid >=9 / >=3, long >=24 / >=6.
FIXED_THRESHOLDS = ClassThresholds(
    short=ThresholdPair(bt_min=4, vt_min=2),
    mid=ThresholdPair(bt_min=9, vt_min=3),
    long=ThresholdPair(bt_min=24, vt_min=6),
)

# Stanine bands: grade 1 covers roughly the top 4% (BT), grades 1-3 roughly
# the top 23% (BT + VT).
STANINE_BT_SHARE = 0.045
STANINE_VT_SHARE = 0.23


def assign_impact_class(
    count: int, thresholds: ClassThresholds, horizon: Horizon
) -> ImpactClass:
    """Map a forward-citation count to MT/VT/BT under the horizon's cut points."""
    pair = thresholds.for_horizon(horizon)
    if count >= pair.bt_min:
        return ImpactClass.BT
    if count >= pair.vt_min:
        return ImpactClass.VT
    return ImpactClass.MT


def stanine_thresholds(counts: Iterable[int]) -> ThresholdPair:
    """Smallest integer cut points whose upper tails fit the stanine bands.

    bt_min is the smallest integer with P(count >= bt_min) <= 4.5%, vt_min the
    smallest with P(count >= vt_min) <= 23%; vt_min < bt_min is enforced.
    """
    values = sorted(counts)
    n = len(values)
    if n == 0:
        raise CorpusError("cannot derive thresholds from an empty count set")

    def smallest_cut(share: float) -> int:
        # fraction with count >= c is non-increasing in c; scan candidate cuts
        cut = 1
        while sum(1 for v in values if v >= cut) / n > share:
            cut += 1
        return cut

    bt_min = smallest_cut(STANINE_BT_SHARE)
    vt_min = smallest_cut(STANINE_VT_SHARE)
    if not (0 < vt_min < bt_min):
        raise CorpusError(
            f"degenerate citation distribution: vt_min={vt_min} not below bt_min={bt_min}"
        )
    return ThresholdPair(bt_min=bt_min, vt_min=vt_min)


def derive_thresholds(
    corpus: Corpus,
    horizon: Horizon,
    mode: str = "fixed",
    ids: Optional[Iterable[str]] = None,
) -> ThresholdPair:
    """Return the horizon's cut points: the fixed defaults, or stanine-derived.

    Stanine mode expects every considered record to have a full horizon
    window; pass ``ids`` to restrict to the eligible subset.
    """
    if mode == "fixed":
        return FIXED_THRESHOLDS.for_horizon(horizon)
    if mode != "stanine":
        raise ValueError(f"unknown threshold mode {mode!r}")
    pool = list(ids) if ids is not None else corpus.ids()
    counts = [forward_citation_count(corpus, pid, horizon) for pid in pool]
    return stanine_thresholds(counts)


def trajectory_pattern(
    short: ImpactClass, mid: ImpactClass, long: ImpactClass
) -> TrajectoryPattern:
    """Classify the (short, mid, long) class triple.

    Sustained: BT throughout. Peak-and-fade: the short-term class exceeds the
    long-term one without a mid-term rebound above it. Late-blooming: starts
    at MT and ends strictly higher. Everything else is Other.
    """
    if short == mid == long == ImpactClass.BT:
        return TrajectoryPattern.SUSTAINED
    if short > long and mid <= short:
        return TrajectoryPattern.PEAK_AND_FADE
    if short < long and short == ImpactClass.MT:
        return TrajectoryPattern.LATE_BLOOMING
    return TrajectoryPattern.OTHER
