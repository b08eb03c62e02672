"""Four-configuration retrieval driver and TREC-format run I/O.

Search types:

    R0  plain index,    raw query        (baseline)
    R1  semantic index, expanded query
    R2  plain index,    expanded query
    R3  semantic index, raw query
"""

from __future__ import annotations

import enum
import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence

from ._util import DataError, TextSource, atomic_write_text, first_seen, is_field, iter_lines
from ._util import parse_json, read_text
from .index import DEFAULT_B, DEFAULT_K1, Index, IndexMode, RankedList
from .index import check_bm25_params, check_depth
from .lexicon import Lexicon
from .semantics import analyze, expand
from .textnorm import tokenize

DEFAULT_RUN_TAG = "semindex"


class IndexModeError(DataError):
    """A search type's index slot is empty or holds an index of the other mode."""


class RunFormatError(DataError):
    """A run that a run file cannot hold, or a malformed run file."""


class QueryFileError(DataError):
    """Malformed query file."""


class LexiconMismatchWarning(UserWarning):
    """A semantic index is being queried with a different lexicon than it
    was built with; expansion and document rewriting may disagree."""


class SearchType(enum.Enum):
    R0 = "R0"
    R1 = "R1"
    R2 = "R2"
    R3 = "R3"

    @property
    def index_mode(self) -> IndexMode:
        return IndexMode.SEMANTIC if self in (SearchType.R1, SearchType.R3) else IndexMode.PLAIN

    @property
    def expands_query(self) -> bool:
        return self in (SearchType.R1, SearchType.R2)


@dataclass(frozen=True)
class Query:
    qid: str
    text: str


@dataclass(frozen=True)
class Run:
    """One RankedList per query, in query order. The tag and each qid are
    fields of a run file, no qid comes twice and no query finds fewer
    documents than it ranks, so a run file and its sidecar can hold it."""

    tag: str
    results: tuple[RankedList, ...]

    def __post_init__(self) -> None:
        if not is_field(self.tag):
            raise RunFormatError(f"run tag {self.tag!r} cannot be a field of a run file")
        seen: set[str] = set()
        for ranked in self.results:
            if ranked.qid in seen or not is_field(ranked.qid):
                fault = "is given twice" if ranked.qid in seen else "cannot be a field of a run file"
                raise RunFormatError(f"qid {ranked.qid!r} {fault}")
            if ranked.found_count < len(ranked.doc_ids):
                raise RunFormatError(
                    f"found count {ranked.found_count} for query {ranked.qid!r} is below its "
                    f"{len(ranked.doc_ids)} ranked documents"
                )
            seen.add(ranked.qid)


@dataclass
class SearchSystem:
    """Bundle of the artifacts needed to answer queries in any search type."""

    plain_index: Index | None = None
    semantic_index: Index | None = None
    lexicon: Lexicon = field(default_factory=Lexicon)
    stoplist: frozenset[str] = frozenset()
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B

    def _index_for(self, search_type: SearchType) -> Index:
        mode = search_type.index_mode
        index = self.semantic_index if mode is IndexMode.SEMANTIC else self.plain_index
        if index is not None and index.mode is mode:
            return index
        given = "none was given" if index is None else f"the index given was built in {index.mode.value} mode"
        raise IndexModeError(f"{search_type.value} requires a {mode.value} index, but {given}")

    def query_terms(self, query: Query, search_type: SearchType) -> list[str]:
        step = expand if search_type.expands_query else None
        return analyze(tokenize(query.text), self.stoplist, step, self.lexicon)

    def run_query(
        self, query: Query, search_type: SearchType, depth: int | None = None
    ) -> RankedList:
        index = self._index_for(search_type)
        if (
            search_type is SearchType.R1
            and index.lexicon_digest != self.lexicon.digest()
        ):
            warnings.warn(
                "semantic index was built with a different lexicon than the one "
                "used for query expansion",
                LexiconMismatchWarning,
                stacklevel=2,
            )
        terms = self.query_terms(query, search_type)
        ranked = index.retrieve(terms, depth, k1=self.k1, b=self.b)
        return RankedList(query.qid, ranked.doc_ids, ranked.scores, ranked.found_count)

    def batch_run(
        self,
        queries: Sequence[Query],
        search_type: SearchType,
        depth: int | None = None,
        tag: str = DEFAULT_RUN_TAG,
    ) -> Run:
        check_depth(depth)
        check_bm25_params(self.k1, self.b)
        self._index_for(search_type)  # fail before any query, and for an empty batch too
        return Run(tag, tuple(self.run_query(q, search_type, depth) for q in queries))


# -- query file (TSV: qid<TAB>text) ------------------------------------------


def read_queries(source: TextSource) -> list[Query]:
    queries: list[Query] = []
    seen: dict[str, int] = {}
    for line_no, line in iter_lines(source):
        if "\t" not in line:
            raise QueryFileError(f"line {line_no}: expected qid<TAB>query text")
        qid, text = line.split("\t", 1)
        qid = qid.strip()
        if not qid:
            raise QueryFileError(f"line {line_no}: empty qid")
        if not is_field(qid):
            raise QueryFileError(
                f"line {line_no}: qid {qid!r} contains whitespace or cannot be encoded as UTF-8"
            )
        first_seen(seen, qid, line_no, QueryFileError, f"duplicate qid {qid!r}")
        queries.append(Query(qid, text))
    return queries


# -- run files (TREC format + found-count sidecar) ----------------------------


def format_run(run: Run) -> str:
    """TREC lines: qid Q0 doc_id rank score tag, scores at 6 decimals."""
    lines = []
    for ranked in run.results:
        for rank, (doc_id, score) in enumerate(zip(ranked.doc_ids, ranked.scores, strict=True), 1):
            lines.append(f"{ranked.qid} Q0 {doc_id} {rank} {score:.6f} {run.tag}\n")
    return "".join(lines)


def write_run(run: Run, run_path, found_path) -> None:
    """Write the TREC run file and its found-count sidecar.

    The sidecar carries each query's pre-truncation match-set size, which
    the TREC format itself cannot represent. The run file goes first and
    lands last, so it never sits beside a sidecar written with another run.
    A run that ranks no document is an empty run file, and only ranked lines
    carry the tag, so ``read_run`` gives it back with ``DEFAULT_RUN_TAG``
    (its qids and found counts come back whole from the sidecar).
    """
    text = format_run(run)
    Path(run_path).unlink(missing_ok=True)
    atomic_write_text(found_path, json.dumps({r.qid: r.found_count for r in run.results}, indent=0) + "\n")
    atomic_write_text(run_path, text)


def read_run(run_source: TextSource, found_source: TextSource | None = None) -> Run:
    """Parse a TREC run file back into a Run.

    A query ranks each document once, and every line has the run's one tag
    (``DEFAULT_RUN_TAG`` for a file with no lines). The sidecar, when given,
    lists every query the run ranks; without one, found_count falls back to
    the ranking length.
    """
    per_qid: dict[str, dict[str, float]] = {}  # qid -> doc_id -> score, in rank order
    tag, tag_line = DEFAULT_RUN_TAG, 0
    for line_no, line in iter_lines(run_source):
        parts = line.split()
        if len(parts) != 6:
            raise RunFormatError(f"line {line_no}: expected 6 fields, got {len(parts)}")
        qid, _q0, doc_id, rank_str, score_str, line_tag = parts
        if not tag_line:
            tag, tag_line = line_tag, line_no
        elif line_tag != tag:
            raise RunFormatError(
                f"line {line_no}: run tag {line_tag!r} differs from {tag!r} (first seen on line {tag_line})"
            )
        try:
            rank = int(rank_str)
            score = float(score_str)
        except ValueError:
            raise RunFormatError(f"line {line_no}: bad rank or score") from None
        scores = per_qid.setdefault(qid, {})
        if rank != len(scores) + 1:
            raise RunFormatError(
                f"line {line_no}: rank {rank} out of order for query {qid!r}"
            )
        if doc_id in scores:
            raise RunFormatError(f"line {line_no}: document {doc_id!r} ranked twice for query {qid!r}")
        scores[doc_id] = score

    # The sidecar lists every query in batch order, including zero-result
    # queries that have no TREC lines, so it is the authoritative order.
    if found_source is None:
        found_counts = {qid: len(scores) for qid, scores in per_qid.items()}
    else:
        found_counts = _read_found_counts(found_source)
        for qid in per_qid:
            if qid not in found_counts:
                raise RunFormatError(f"found-count sidecar does not list the ranked query {qid!r}")

    results = []
    for qid, found in found_counts.items():
        scores = per_qid.get(qid, {})
        if found < len(scores):
            raise RunFormatError(
                f"found-count sidecar: {found} for query {qid!r} is below its {len(scores)} ranked lines"
            )
        results.append(RankedList(qid, tuple(scores), tuple(scores.values()), found))
    return Run(tag, tuple(results))


def _read_found_counts(source: TextSource) -> dict[str, int]:
    try:
        raw = parse_json(read_text(source))
    except json.JSONDecodeError as exc:
        raise RunFormatError(f"found-count sidecar is not valid JSON ({exc})") from None
    if not isinstance(raw, dict):
        raise RunFormatError("found-count sidecar is not a JSON object")
    for qid, count in raw.items():
        if not is_field(qid):
            raise RunFormatError(f"found-count sidecar: qid {qid!r} cannot be a field of a run file")
        if type(count) is not int or count < 0:
            raise RunFormatError(f"found-count sidecar: bad count {count!r} for query {qid!r}")
    return raw
