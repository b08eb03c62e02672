"""Inverted index with BM25 ranking and a checksummed binary file format.

An index is built over a corpus in one of two modes: Plain (tokens indexed
as-is) or Semantic (monosemous concepts rewritten to their canonical lemma
before counting). Retrieval is disjunctive: a document is *found* for a
query exactly when its score is positive, i.e. when it contains at least
one query term.
"""

from __future__ import annotations

import enum
import hashlib
import heapq
import json
import math
import operator
import os
import struct
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, compress, filterfalse, islice, repeat
from typing import Iterable, NamedTuple, Sequence

from ._util import DataError, TextSource, atomic_write_bytes, first_seen, is_field, iter_lines, parse_json
from .lexicon import Lexicon
from .semantics import analyze, semantize
from .textnorm import tokenize

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

# Index.retrieve selects a ranking's head when it keeps fewer than one match
# in this many. On CPython 3.11 selection beats the full sort from about 48
# matches per kept one at depth 1, 24 at depth 10 and 10-12 at depth 100-1000.
_SELECT_RATIO = 32

_MAGIC = b"SIDX"
_FORMAT_VERSION = 3
_CHECKSUM_SIZE = 32


def check_depth(depth: int | None) -> None:
    """The ranking depth rule: None keeps every match, else at least 1."""
    if depth is not None and depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")


def check_workers(workers: int) -> None:
    """The build worker rule: at least 1."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")


def check_bm25_params(k1: float, b: float) -> None:
    """The BM25 parameter rule: a finite k1 >= 0 and a b in [0, 1], which keep
    every BM25 impact positive. Chained comparisons with nan are false."""
    if not (0.0 <= k1 < math.inf and 0.0 <= b <= 1.0):
        raise ValueError(f"bad BM25 parameters: k1={k1}, b={b}")


class IndexFormatError(DataError):
    """Index file unreadable: bad magic, version, checksum, or truncation."""


class DuplicateDocumentError(DataError):
    """The corpus stream contained the same doc_id twice."""


class IndexMode(enum.Enum):
    PLAIN = "plain"
    SEMANTIC = "semantic"


class ScoredDoc(NamedTuple):
    doc_id: str
    score: float
    rank: int


@dataclass(frozen=True)
class RankedList:
    """One query's ranking as equal-length columns, best first: rank is position + 1.

    found_count is the size of the full nonzero-score match set, recorded
    before any depth truncation, so it stays meaningful when only a prefix
    of the ranking is kept.
    """

    qid: str
    doc_ids: tuple[str, ...]
    scores: tuple[float, ...]
    found_count: int

    @property
    def entries(self) -> tuple[ScoredDoc, ...]:
        """``ScoredDoc`` rows built from the columns on every access."""
        return tuple(map(ScoredDoc, self.doc_ids, self.scores, range(1, len(self.doc_ids) + 1)))


class Index:
    """Immutable inverted index over a processed corpus, in CSR columns.

    Doc ids are kept once, in ascending order; a document's *ordinal* is its
    position in that list, so ordering by ordinal is ordering by doc id.
    Doc lengths are one ``array('Q')`` in ordinal order. Terms are kept
    once, in ascending order, and a term's *number* ``t`` is its position
    there (found by bisection); its postings are ``offsets[t]:offsets[t + 1]``
    of two parallel ``array('I')`` columns: the ordinals of the documents
    that hold it (strictly ascending within each term, at least one) and its
    term frequency in each. An index holds only these columns of its file
    and a BM25 cache, and trusts the invariants that ``build_indexes`` and
    ``load_index`` establish.
    """

    def __init__(
        self,
        mode: IndexMode,
        doc_ids: list[str],
        doc_lengths: array,
        terms: list[str],
        offsets: array,
        ordinals: array,
        tfs: array,
        lexicon_digest: str,
    ):
        self.mode = mode
        self.lexicon_digest = lexicon_digest
        self._doc_ids, self._doc_lengths = doc_ids, doc_lengths
        self._terms, self._offsets, self._ordinals, self._tfs = terms, offsets, ordinals, tfs
        # (k1, b), per-document length norms, term -> (ordinals, impacts).
        self._bm25: tuple[tuple[float, float], list[float], dict[str, tuple[array, array]]] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def doc_count(self) -> int:
        return len(self._doc_ids)

    @property
    def average_doc_length(self) -> float:
        if not self._doc_ids:
            return 0.0
        return sum(self._doc_lengths) / len(self._doc_ids)  # an exact int: no order to depend on

    @property
    def vocabulary_size(self) -> int:
        return len(self._terms)

    def terms(self) -> list[str]:
        return list(self._terms)

    def _span(self, term: str) -> slice:
        """Where ``term``'s postings lie in the ordinal and tf columns; empty if no document holds it."""
        t = bisect_left(self._terms, term)
        held = t < len(self._terms) and self._terms[t] == term
        return slice(self._offsets[t], self._offsets[t + 1]) if held else slice(0, 0)

    def postings(self, term: str) -> list[tuple[str, int]]:
        """(doc_id, term frequency) pairs for ``term``, by ascending doc_id."""
        span = self._span(term)
        return list(zip(map(self._doc_ids.__getitem__, self._ordinals[span]), self._tfs[span]))

    def document_frequency(self, term: str) -> int:
        span = self._span(term)
        return span.stop - span.start

    # -- scoring -----------------------------------------------------------

    def _idf(self, df: int) -> float:
        # +1 inside the log keeps idf strictly positive, so a document is
        # found exactly when its score is positive.
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))

    def retrieve(
        self,
        query_terms: list[str],
        depth: int | None = None,
        *,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ) -> RankedList:
        """All documents matching any query term, best first, or the first
        ``depth`` (at least 1) of them.

        Ties break by ascending doc_id. found_count counts every match, kept
        or not. Each score is the BM25 sum over the query terms in
        query-term order, so duplicate terms accumulate. A term with more
        postings than there are running sums takes the sums into its impacts
        instead; a two-operand float sum is commutative, so each score keeps
        the bits of the query-term-order sum.

        A ranking that keeps fewer than one match in ``_SELECT_RATIO`` sorts
        only the matches that reach its ``depth``-th best score. Every tie
        at that floor is among them, so the ranking equals a full sort of
        every match, which the other rankings run.

        Each queried term's ordinals and BM25 contribution to each of those
        documents ("impacts") are built on first use, empty for a term the
        index lacks, and cached with the length norms for the last (k1, b):
        12 bytes per posting. New parameters drop both, and
        ``check_bm25_params`` refuses bad ones with a ValueError.
        """
        check_depth(depth)
        cached = self._bm25
        if cached is None or cached[0] != (k1, b):
            check_bm25_params(k1, b)
            avgdl = self.average_doc_length
            # avgdl is 0 only when no document has a token, and then no
            # term has postings, so no norm is ever looked up.
            norms = [k1 * (1.0 - b + b * dl / avgdl) for dl in self._doc_lengths] if avgdl else []
            cached = self._bm25 = ((k1, b), norms, {})
        _, norms, segments = cached
        scores: dict[int, float] = {}
        for term in query_terms:
            segment = segments.get(term)
            if segment is None:
                span = self._span(term)
                # An array slice, not a memoryview: iterating it is faster.
                ordinals, tfs = self._ordinals[span], self._tfs[span]
                idf, k1_plus_1 = self._idf(len(ordinals)), k1 + 1.0
                impacts = [idf * (tf * k1_plus_1) / (tf + norms[o]) for o, tf in zip(ordinals, tfs)]
                segment = segments[term] = (ordinals, array("d", impacts))
            ordinals, impacts = segment
            if len(ordinals) > len(scores):
                # Fold the smaller side into the larger: impact + sum has the
                # bits of sum + impact, and a sum + 0.0 is the sum.
                scores, ordinals, impacts = dict(zip(ordinals, impacts)), scores.keys(), scores.values()
            # scores[o] = scores.get(o, 0.0) + impact, one C-level pass per term.
            scores.update(
                zip(ordinals, map(operator.add, map(scores.get, ordinals, repeat(0.0)), impacts))
            )
        if depth is not None and _SELECT_RATIO * depth < len(scores):
            floor = heapq.nlargest(depth, scores.values())[-1]
            # A comprehension filters faster here than compress() over map().
            ranked = sorted([o for o, score in scores.items() if score >= floor])
        else:
            ranked = sorted(scores)
        # Ascending ordinal first; the stable descending sort keeps that
        # order among equal scores, so ties break by ascending doc id.
        ranked = sorted(ranked, key=scores.__getitem__, reverse=True)[:depth]
        if len(ranked) > 1:
            get = operator.itemgetter(*ranked)
            return RankedList("", get(self._doc_ids), get(scores), len(scores))
        # itemgetter of one key returns the item itself, not a 1-tuple.
        doc_ids = tuple(map(self._doc_ids.__getitem__, ranked))
        return RankedList("", doc_ids, tuple(map(scores.__getitem__, ranked)), len(scores))

    # -- serialization -----------------------------------------------------

    def to_jsonable(self) -> dict:
        """Stable dict form of the full index, for debugging and diffing."""
        return {
            "mode": self.mode.value,
            "lexicon_digest": self.lexicon_digest,
            "doc_lengths": dict(zip(self._doc_ids, self._doc_lengths)),
            "postings": {
                term: [[doc_id, tf] for doc_id, tf in self.postings(term)] for term in self._terms
            },
        }

    def save(self, path) -> None:
        """Write the index atomically; identical indexes produce identical bytes."""
        digest = self.lexicon_digest.encode("utf-8")
        doc_ids, terms = _join(self._doc_ids), _join(self._terms)
        sizes = (len(digest), len(self._doc_ids), len(doc_ids), len(self._terms), len(terms))
        buf = bytearray(_HEADER.pack(_MAGIC, _FORMAT_VERSION, _MODE_BYTES[self.mode], *sizes))
        buf += digest + doc_ids
        buf += _little_endian(self._doc_lengths)
        buf += terms
        for column in (self._offsets, self._ordinals, self._tfs):
            buf += _little_endian(column)
        buf += hashlib.sha256(buf).digest()
        atomic_write_bytes(path, buf)


# -- file format v3 -----------------------------------------------------------
#
# The Index columns in order, integers little-endian (README, "Index files"):
#   "SIDX" | <I version 3 | <B mode | <I digest bytes | <Q doc_count | <Q doc-id bytes
#   | <Q term_count | <Q term bytes | digest | "\n"-joined doc ids | <Q doc lengths
#   | "\n"-joined terms | term_count + 1 <Q offsets | <I ordinals | <I tfs | SHA-256

_HEADER = struct.Struct("<4sIBIQQQQ")
_MODE_BYTES = {IndexMode.PLAIN: 0, IndexMode.SEMANTIC: 1}
_MODES_BY_BYTE = {v: k for k, v in _MODE_BYTES.items()}
_BIG_ENDIAN = sys.byteorder == "big"


def _join(names: list[str]) -> bytes:
    blob = "\n".join(names)
    if blob.count("\n") != max(len(names) - 1, 0):
        raise ValueError("an index file cannot hold a doc id or term with a newline")
    return blob.encode("utf-8")


def _little_endian(column: array) -> array:
    """``column`` in file byte order, or a file column in host order."""
    if _BIG_ENDIAN:
        column = array(column.typecode, column)
        column.byteswap()
    return column


def _column(typecode: str, data: memoryview) -> array:
    column = array(typecode)
    column.frombytes(data)
    return _little_endian(column)


def _decode(blob: memoryview) -> str:
    try:
        return str(blob, "utf-8")
    except UnicodeDecodeError:
        raise IndexFormatError("index file holds a string that is not UTF-8") from None


def _names(blob: memoryview, count: int, what: str) -> list[str]:
    """The ``count`` strictly ascending names of a "\n"-joined blob."""
    text = _decode(blob)
    # An empty blob is no names, or one empty name: "".split("\n") is [""].
    names = text.split("\n") if text or count else []
    if len(names) != count:
        raise IndexFormatError(f"index file holds {len(names)} {what} where its header counts {count}")
    if not _strictly_ascending(names):
        raise IndexFormatError(f"{what} out of order or repeated")
    return names


def _strictly_ascending(values) -> bool:
    return all(map(operator.lt, values, values[1:]))


def _check_run_fields(doc_ids: list[str], error: type[Exception]) -> None:
    bad_id = next(filterfalse(is_field, doc_ids), None)
    if bad_id is not None:
        raise error(f"doc id {bad_id!r} cannot be a field of a run file")


def load_index(path) -> Index:
    """Load an index file written by Index.save, verifying its checksum.

    Loading is the checksum, one header unpack, one decode and split per
    name list and one ``frombytes`` per column, then C-level passes that
    check every structural invariant ``retrieve`` relies on, and that each
    doc id can be a run file field, so a damaged or hand-made file raises
    IndexFormatError. No Python-level loop runs over terms or postings.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + 4 + _CHECKSUM_SIZE:
        raise IndexFormatError("index file truncated")
    body = memoryview(data)[:-_CHECKSUM_SIZE]
    if hashlib.sha256(body).digest() != data[-_CHECKSUM_SIZE:]:
        raise IndexFormatError("index file checksum mismatch")
    # Magic and version come first in every format version, v1 and v2 too.
    magic, version = struct.unpack_from("<4sI", body)
    if magic != _MAGIC:
        raise IndexFormatError("not an index file (bad magic)")
    if version != _FORMAT_VERSION:
        raise IndexFormatError(
            f"{path}: index format version {version} is not readable (expected {_FORMAT_VERSION}); "
            "rebuild the index with 'semindex index'"
        )
    if len(body) < _HEADER.size:
        raise IndexFormatError("index file truncated")
    _, _, mode_byte, digest_size, doc_count, ids_size, term_count, terms_size = _HEADER.unpack_from(body)
    mode = _MODES_BY_BYTE.get(mode_byte)
    if mode is None:
        raise IndexFormatError(f"unknown index mode byte {mode_byte}")

    sizes = (_HEADER.size, digest_size, ids_size, 8 * doc_count, terms_size, 8 * term_count + 8)
    ends = list(accumulate(sizes))
    if ends[-1] > len(body):
        raise IndexFormatError("index file truncated")
    digest, ids, lengths, names, offset_bytes = (body[lo:hi] for lo, hi in zip(ends, ends[1:]))
    offsets = _column("Q", offset_bytes)
    postings = body[ends[-1] :]
    count = offsets[-1]
    if len(postings) != 8 * count:
        raise IndexFormatError(f"{len(postings)} bytes of postings where the offsets need {8 * count}")
    ordinals, tfs = _column("I", postings[: 4 * count]), _column("I", postings[4 * count :])

    doc_ids = _names(ids, doc_count, "doc ids")
    _check_run_fields(doc_ids, IndexFormatError)
    terms = _names(names, term_count, "terms")
    if offsets[0] != 0 or not _strictly_ascending(offsets):
        raise IndexFormatError("term offsets do not start at 0, or a term has no postings")
    # Ordinals may fail to rise only where a term's postings begin.
    falls = set(compress(range(1, count), map(operator.ge, ordinals, islice(ordinals, 1, None))))
    if not falls.issubset(offsets):
        raise IndexFormatError("ordinals not strictly ascending within a term")
    # So the largest ordinal is the last of some term.
    lasts = map(ordinals.__getitem__, map(operator.sub, islice(offsets, 1, None), repeat(1)))
    if max(lasts, default=-1) >= doc_count:
        raise IndexFormatError(f"ordinals not all below the doc count {doc_count}")
    if 0 in tfs:
        raise IndexFormatError("posting with term frequency 0")
    # A document's length is the sum of its term frequencies; this also
    # keeps the average length above 0 whenever a term has postings.
    doc_lengths = _column("Q", lengths)
    if sum(doc_lengths) != sum(tfs):
        raise IndexFormatError("doc lengths do not add up to the term frequencies")
    return Index(mode, doc_ids, doc_lengths, terms, offsets, ordinals, tfs, _decode(digest))


# -- construction -----------------------------------------------------------


_WORKER_STATE: dict = {}


def _init_worker(modes, lex, stoplist):
    _WORKER_STATE["args"] = (modes, lex, stoplist)


def _count_document(text, modes, lex, stoplist) -> list[Counter]:
    """Tokenize ``text`` once; analyze and count its terms for each mode."""
    tokens = tokenize(text)
    steps = (semantize if mode is IndexMode.SEMANTIC else None for mode in modes)
    return [Counter(analyze(tokens, stoplist, step, lex)) for step in steps]


def _count_in_worker(text: str) -> list[Counter]:
    return _count_document(text, *_WORKER_STATE["args"])


def _fill_columns(counted: Iterable[list[Counter]], width: int) -> list[tuple]:
    """Stream each document's counts for ``width`` indexes, in ordinal order,
    into each index's columns: doc lengths, sorted terms, offsets, ordinals
    and tfs. While filling, each term holds one array of ordinal, tf pairs:
    only arrays are held, which the garbage collector does not track."""
    filling = [(array("Q"), {}) for _ in range(width)]
    for ordinal, row in enumerate(counted):
        for (doc_lengths, postings), counts in zip(filling, row):
            doc_lengths.append(counts.total())
            for term, tf in counts.items():
                pairs = postings.get(term)
                if pairs is None:
                    pairs = postings[term] = array("I")
                pairs.append(ordinal)
                pairs.append(tf)
    columns = []
    for doc_lengths, postings in filling:
        terms = sorted(postings)
        offsets, ordinals, tfs = array("Q", [0]), array("I"), array("I")
        for term in terms:
            # Popped, so a term's postings are never held twice at once.
            pairs = postings.pop(term)
            ordinals += pairs[::2]
            tfs += pairs[1::2]
            offsets.append(len(ordinals))
        columns.append((doc_lengths, terms, offsets, ordinals, tfs))
    return columns


def build_indexes(
    corpus: Iterable[tuple[str, str]],
    modes: Sequence[IndexMode],
    lex: Lexicon | None = None,
    stoplist: frozenset[str] = frozenset(),
    *,
    workers: int = 1,
) -> list[Index]:
    """Build one index per mode from (doc_id, text) pairs, in ``modes`` order.

    Each document is tokenized once and analyzed once per mode (see
    ``semantics.analyze``). The result is identical for any worker count and
    corpus order: documents are counted in doc-id order, and each count goes
    straight into its index's columns, so ordinals arrive ascending. A doc
    id that cannot be a run file field (``_util.is_field``) is a ValueError.
    """
    if IndexMode.SEMANTIC in modes and lex is None:
        raise ValueError("semantic mode requires a lexicon")
    check_workers(workers)
    docs = sorted(corpus, key=operator.itemgetter(0))
    doc_ids = [doc_id for doc_id, _ in docs]
    _check_run_fields(doc_ids, ValueError)
    for previous, doc_id in zip(doc_ids, doc_ids[1:]):
        if previous == doc_id:
            raise DuplicateDocumentError(f"duplicate doc_id: {doc_id!r}")
    texts = [text for _, text in docs]
    args = (tuple(modes), lex, stoplist)

    # Output is the same for any worker count, so the pool is no larger than
    # the documents or the CPUs can use: a fork pool starts every worker at
    # the first submit.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    workers = min(workers, len(texts), cpus)
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor  # only here: it loads multiprocessing

        chunk = max(1, (len(texts) + workers * 4 - 1) // (workers * 4))
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=args) as pool:
            columns = _fill_columns(pool.map(_count_in_worker, texts, chunksize=chunk), len(modes))
    else:
        columns = _fill_columns((_count_document(text, *args) for text in texts), len(modes))

    return [
        Index(mode, doc_ids, *cols, lexicon_digest=lex.digest() if mode is IndexMode.SEMANTIC else "")
        for mode, cols in zip(modes, columns)
    ]


def build_index(
    corpus: Iterable[tuple[str, str]],
    mode: IndexMode,
    lex: Lexicon | None = None,
    stoplist: frozenset[str] = frozenset(),
    *,
    workers: int = 1,
) -> Index:
    """Build one index from (doc_id, text) pairs; see ``build_indexes``."""
    return build_indexes(corpus, (mode,), lex, stoplist, workers=workers)[0]


# -- corpus file format ------------------------------------------------------


@dataclass(frozen=True)
class SkippedDocument:
    line_no: int
    reason: str


@dataclass(frozen=True)
class CorpusReadResult:
    documents: list[tuple[str, str]]
    skipped: list[SkippedDocument] = field(default_factory=list)


def read_corpus(source: TextSource) -> CorpusReadResult:
    """Read corpus JSONL ({"id": ..., "text": ...} per line).

    Unreadable records are skipped and reported, not fatal; an id that a
    readable record repeats is a DuplicateDocumentError naming both lines.
    """
    documents: list[tuple[str, str]] = []
    skipped: list[SkippedDocument] = []
    seen: dict[str, int] = {}
    for line_no, line in iter_lines(source):
        try:
            record = parse_json(line)
        except json.JSONDecodeError as exc:
            skipped.append(SkippedDocument(line_no, f"invalid JSON ({exc.msg})"))
            continue
        if not isinstance(record, dict):
            skipped.append(SkippedDocument(line_no, "record is not an object"))
            continue
        doc_id = record.get("id")
        text = record.get("text")
        if not isinstance(doc_id, str) or not doc_id:
            skipped.append(SkippedDocument(line_no, "missing or invalid 'id'"))
            continue
        if not is_field(doc_id):
            # A run file could not be read back, or not be written: its
            # fields split on whitespace and are UTF-8.
            fault = "contains whitespace" if doc_id.split() != [doc_id] else "cannot be encoded as UTF-8"
            skipped.append(SkippedDocument(line_no, f"'id' {doc_id!r} {fault}"))
            continue
        if not isinstance(text, str):
            skipped.append(SkippedDocument(line_no, "missing or invalid 'text'"))
            continue
        first_seen(seen, doc_id, line_no, DuplicateDocumentError, f"duplicate doc_id {doc_id!r}")
        documents.append((doc_id, text))
    return CorpusReadResult(documents, skipped)
