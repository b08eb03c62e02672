"""Retrieval evaluation: precision metrics, found/relevant-found deltas
with sign buckets, and three-way system comparison.

The delta machinery quantifies what switching from a baseline configuration
to a semantic one does to each query: the change in documents found
(found_delta) and in relevant documents found (relevant_delta). Positive
deltas mean the semantic configuration returned more.
"""

from __future__ import annotations

import json
import statistics
from bisect import bisect_right
from dataclasses import dataclass, field
from decimal import ROUND_HALF_UP, Decimal
from itertools import chain
from typing import Callable, Iterable, Iterator, Sequence

from ._util import DataError, TextSource, first_seen, iter_lines
from .engine import Run

Qrels = dict[str, set[str]]

DEFAULT_PRECISION_CUTOFFS = (5, 10, 20, 100, 1000)


class QrelsError(DataError):
    """Malformed qrels file."""


class EvalError(DataError):
    """Inconsistent evaluation inputs (e.g. mismatched query sets)."""


# -- record types -------------------------------------------------------------


@dataclass(frozen=True)
class EvalRecord:
    """Per-query counts and precision metrics for one system."""

    qid: str
    found: int
    relevant_found: int
    p_at: dict[int, float] = field(default_factory=dict)
    ap: float = 0.0


@dataclass(frozen=True)
class PrecisionSummary:
    """One system's row of the precision comparison table."""

    system: str
    mean_ap: float
    median_ap: float
    mean_p_at: dict[int, float]
    query_count: int


@dataclass(frozen=True)
class EvalResult:
    records: tuple[EvalRecord, ...]
    summary: PrecisionSummary
    skipped_qids: tuple[str, ...]


@dataclass(frozen=True)
class DeltaRecord:
    """Per-query found / relevant-found counts before and after a treatment."""

    qid: str
    found_before: int
    found_after: int
    relevant_before: int
    relevant_after: int

    @property
    def found_delta(self) -> int:
        return self.found_after - self.found_before

    @property
    def relevant_delta(self) -> int:
        return self.relevant_after - self.relevant_before


@dataclass(frozen=True)
class SignBuckets:
    """How many queries had a negative / zero / positive delta."""

    negative: int
    zero: int
    positive: int

    @property
    def total(self) -> int:
        return self.negative + self.zero + self.positive


@dataclass(frozen=True)
class DeltaReport:
    records: tuple[DeltaRecord, ...]
    found: SignBuckets
    relevant: SignBuckets


@dataclass(frozen=True)
class ThreeWayBuckets:
    """Strict-winner counts for one metric across three systems.

    wins[i] counts queries where system labels[i] strictly exceeds both
    others; all_equal counts three-way ties; partial_tie is the remainder
    (a top value shared by exactly two systems).
    """

    labels: tuple[str, str, str]
    wins: tuple[int, int, int]
    all_equal: int
    partial_tie: int

    @property
    def total(self) -> int:
        return sum(self.wins) + self.all_equal + self.partial_tie


@dataclass(frozen=True)
class ThreeWayReport:
    found: ThreeWayBuckets
    relevant: ThreeWayBuckets


# -- per-query metrics --------------------------------------------------------


def evaluate_run(run: Run, qrels: Qrels, system: str) -> EvalResult:
    """Per-query records plus a summary row labelled ``system``.

    Queries without (non-empty) relevance judgments are excluded and listed
    in skipped_qids rather than silently scored as zero.
    """
    records: list[EvalRecord] = []
    skipped: list[str] = []
    for ranked in run.results:
        relevant = qrels.get(ranked.qid)
        if not relevant:
            skipped.append(ranked.qid)
            continue
        # The 1-based ranks of the relevant documents (each document ranks
        # once); relevant-found, P@k (always over k) and AP all derive from them.
        hits = [rank for rank, doc_id in enumerate(ranked.doc_ids, start=1) if doc_id in relevant]
        records.append(
            EvalRecord(
                qid=ranked.qid,
                found=ranked.found_count,
                relevant_found=len(hits),
                p_at={k: bisect_right(hits, k) / k for k in DEFAULT_PRECISION_CUTOFFS},
                ap=sum(n / rank for n, rank in enumerate(hits, start=1)) / len(relevant),
            )
        )
    aps = [r.ap for r in records]
    summary = PrecisionSummary(
        system=system,
        mean_ap=statistics.fmean(aps) if aps else 0.0,
        median_ap=statistics.median(aps) if aps else 0.0,
        mean_p_at={
            k: statistics.fmean([r.p_at[k] for r in records]) if records else 0.0
            for k in DEFAULT_PRECISION_CUTOFFS
        },
        query_count=len(records),
    )
    return EvalResult(tuple(records), summary, tuple(skipped))


# -- before/after deltas -------------------------------------------------------


def _records_by_qid(
    runs: Sequence[Sequence[EvalRecord]], labels: Sequence[str], what: str
) -> list[dict[str, EvalRecord]]:
    """Each run's records keyed by qid, in record order. The runs' labels
    must be distinct, and the runs must cover the same queries, each once."""
    if len(set(labels)) != len(labels):
        raise EvalError(f"{what}: labels {list(labels)} are not distinct")
    by_label: list[dict[str, EvalRecord]] = []
    for records, label in zip(runs, labels):
        by_qid: dict[str, EvalRecord] = {}
        for record in records:
            if record.qid in by_qid:
                raise EvalError(f"{label}: duplicate qid {record.qid!r}")
            by_qid[record.qid] = record
        if by_label and by_qid.keys() != by_label[0].keys():
            offending = sorted(by_qid.keys() ^ by_label[0].keys())
            raise EvalError(f"{what}: query sets differ on qids {offending}")
        by_label.append(by_qid)
    return by_label


def sign_buckets(values: Iterable[int]) -> SignBuckets:
    negative = zero = positive = 0
    for value in values:
        if value < 0:
            negative += 1
        elif value == 0:
            zero += 1
        else:
            positive += 1
    return SignBuckets(negative, zero, positive)


def delta_report(
    before: Sequence[EvalRecord], after: Sequence[EvalRecord]
) -> DeltaReport:
    """Exact per-query count differences plus their sign buckets.

    ``before`` and ``after`` must cover the same queries; records are
    emitted in ``before`` order.
    """
    before_by, after_by = _records_by_qid((before, after), ("before", "after"), "delta_report")
    records = tuple(
        DeltaRecord(
            qid=qid,
            found_before=b.found,
            found_after=after_by[qid].found,
            relevant_before=b.relevant_found,
            relevant_after=after_by[qid].relevant_found,
        )
        for qid, b in before_by.items()
    )
    return DeltaReport(
        records,
        found=sign_buckets(r.found_delta for r in records),
        relevant=sign_buckets(r.relevant_delta for r in records),
    )


def threeway_report(
    first: Sequence[EvalRecord],
    second: Sequence[EvalRecord],
    third: Sequence[EvalRecord],
    labels: tuple[str, str, str],
) -> ThreeWayReport:
    """Which of three systems strictly returned the most, per query. The
    labels name the ``<label>_wins`` buckets, so they must be distinct."""
    by_label = _records_by_qid((first, second, third), labels, "threeway_report")
    qids = list(by_label[0])

    def classify(metric) -> ThreeWayBuckets:
        wins = [0, 0, 0]
        all_equal = 0
        partial_tie = 0
        for qid in qids:
            values = [metric(by[qid]) for by in by_label]
            best = max(values)
            winners = [i for i, v in enumerate(values) if v == best]
            if len(winners) == 1:
                wins[winners[0]] += 1
            elif len(winners) == 3:
                all_equal += 1
            else:
                partial_tie += 1
        return ThreeWayBuckets(labels, tuple(wins), all_equal, partial_tie)

    return ThreeWayReport(
        found=classify(lambda r: r.found),
        relevant=classify(lambda r: r.relevant_found),
    )


# -- qrels file (TREC format: qid 0 doc_id rel) --------------------------------


def read_qrels(source: TextSource) -> Qrels:
    qrels: Qrels = {}
    seen: dict[tuple[str, str], int] = {}
    for line_no, line in iter_lines(source):
        parts = line.split()
        if len(parts) != 4:
            raise QrelsError(f"line {line_no}: expected 4 fields, got {len(parts)}")
        qid, _iteration, doc_id, rel = parts
        if rel not in ("0", "1"):
            raise QrelsError(f"line {line_no}: relevance must be 0 or 1, got {rel!r}")
        what = f"document {doc_id!r} judged twice for query {qid!r}"
        first_seen(seen, (qid, doc_id), line_no, QrelsError, what)
        judged = qrels.setdefault(qid, set())
        if rel == "1":
            judged.add(doc_id)
    return qrels


# -- report rendering -----------------------------------------------------------


def format_percent(count: int, total: int) -> str:
    """Percentage of count/total printed to 2 decimals, half-up."""
    if total == 0:
        value = Decimal(0)
    else:
        value = Decimal(count) * 100 / Decimal(total)
    return str(value.quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _render(
    fmt: str, header: Sequence[str], rows: Iterable[Iterable], payload: Callable[[], object]
) -> str:
    """One report as text: ``header`` and ``rows`` as TSV, or ``payload()`` as
    JSON. Only the chosen format's side is evaluated."""
    if fmt == "tsv":
        return "".join("\t".join(map(str, row)) + "\n" for row in chain([header], rows))
    if fmt == "json":
        return json.dumps(payload(), ensure_ascii=False, indent=2) + "\n"
    raise ValueError(f"unknown report format: {fmt!r}")


_CUTOFF_COLUMNS = [f"p@{k}" for k in DEFAULT_PRECISION_CUTOFFS]


def _by_cutoff(values: dict[int, float]) -> dict[str, float]:
    return {str(k): values.get(k, 0.0) for k in DEFAULT_PRECISION_CUTOFFS}


def _table(fmt: str, header: Sequence[str], keys: Sequence[str], rows: Sequence[Sequence]) -> str:
    """A report of one row per item: TSV under ``header``, a dict cell (the
    P@k values) spread over its columns, or JSON objects keyed by ``keys``."""
    spread = ([v for c in row for v in (c.values() if isinstance(c, dict) else [c])] for row in rows)
    return _render(fmt, header, spread, lambda: [dict(zip(keys, row)) for row in rows])


def render_records(records: Sequence[EvalRecord], fmt: str) -> str:
    """Per-query counts and metrics (the found/relevant table analogue)."""
    header = ["qid", "found", "relevant_found", *_CUTOFF_COLUMNS, "ap"]
    keys = ("qid", "found", "relevant_found", "p_at", "ap")
    rows = [(r.qid, r.found, r.relevant_found, _by_cutoff(r.p_at), r.ap) for r in records]
    return _table(fmt, header, keys, rows)


def render_summaries(summaries: Sequence[PrecisionSummary], fmt: str) -> str:
    """One row per system: mean/median AP and mean P@k values."""
    header = ["system", "mean_ap", "median_ap", *_CUTOFF_COLUMNS, "queries"]
    keys = ("system", "mean_ap", "median_ap", "mean_p_at", "query_count")
    rows = [(s.system, s.mean_ap, s.median_ap, _by_cutoff(s.mean_p_at), s.query_count) for s in summaries]
    return _table(fmt, header, keys, rows)


_DELTA_HEADER = (
    "qid", "found_before", "found_after", "found_delta", "relevant_before", "relevant_after", "relevant_delta",
)


def render_deltas(records: Sequence[DeltaRecord], fmt: str) -> str:
    # Each column is the DeltaRecord attribute of the same name.
    rows = [[getattr(r, name) for name in _DELTA_HEADER] for r in records]
    return _table(fmt, _DELTA_HEADER, _DELTA_HEADER, rows)


_OUTCOME_HEADER = ("metric", "bucket", "queries", "percent")


def _outcome_rows(report: DeltaReport | ThreeWayReport, counts) -> Iterator[tuple]:
    """metric/bucket/queries/percent rows for the found and relevant metrics
    of a report; ``counts(buckets)`` yields its (bucket, queries) pairs."""
    for metric, buckets in (("found", report.found), ("relevant", report.relevant)):
        for bucket, count in counts(buckets):
            yield metric, bucket, count, format_percent(count, buckets.total)


def _sign_counts(buckets: SignBuckets) -> Iterator[tuple[str, int]]:
    return zip(("delta<0", "delta=0", "delta>0"), (buckets.negative, buckets.zero, buckets.positive))


def render_buckets(report: DeltaReport, fmt: str) -> str:
    def entry(buckets: SignBuckets) -> dict:
        counts = {"negative": buckets.negative, "zero": buckets.zero, "positive": buckets.positive}
        percents = {
            f"{name}_pct": float(format_percent(count, buckets.total)) for name, count in counts.items()
        }
        return {**counts, **percents}

    return _render(fmt, _OUTCOME_HEADER, _outcome_rows(report, _sign_counts), lambda: {
        "queries": report.found.total,
        "found": entry(report.found),
        "relevant": entry(report.relevant),
    })


def _threeway_counts(buckets: ThreeWayBuckets) -> Iterator[tuple[str, int]]:
    yield from zip((f"{label}_wins" for label in buckets.labels), buckets.wins)
    yield "all_equal", buckets.all_equal
    yield "partial_tie", buckets.partial_tie


def render_threeway(report: ThreeWayReport, fmt: str) -> str:
    def entry(buckets: ThreeWayBuckets) -> dict:
        payload = {}
        for name, count in _threeway_counts(buckets):
            payload[name] = count
            payload[f"{name}_pct"] = float(format_percent(count, buckets.total))
        return payload

    return _render(fmt, _OUTCOME_HEADER, _outcome_rows(report, _threeway_counts), lambda: {
        "queries": report.found.total,
        "labels": list(report.found.labels),
        "found": entry(report.found),
        "relevant": entry(report.relevant),
    })
