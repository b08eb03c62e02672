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
import json
import math
import operator
import struct
import sys
from array import array
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable, NamedTuple

from ._util import DataError, TextSource, atomic_write_bytes, is_field, iter_lines, parse_json
from .lexicon import Lexicon
from .semantics import DEFAULT_MAX_CONCEPT_TOKENS, semantize
from .textnorm import TokenStream, remove_stopwords, tokenize

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

_MAGIC = b"SIDX"
_FORMAT_VERSION = 2
_CHECKSUM_SIZE = 32


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
    """Scored ranking for one query.

    found_count is the size of the full nonzero-score match set, recorded
    before any depth truncation, so it stays meaningful when only a prefix
    of the ranking is kept.
    """

    qid: str
    entries: tuple[ScoredDoc, ...]
    found_count: int


class Index:
    """Immutable inverted index over a processed corpus, stored as columns.

    Doc ids are kept once, in ascending order; a document's *ordinal* is its
    position in that list, so ordering by ordinal is ordering by doc id.
    Doc lengths are one ``array('Q')`` in ordinal order. Each term maps to
    a pair of parallel ``array('I')`` columns: the ordinals of the
    documents that hold it (strictly ascending) and its term frequency in
    each. The constructor trusts these invariants; ``build_index`` and
    ``load_index`` establish them.
    """

    def __init__(
        self,
        mode: IndexMode,
        doc_ids: list[str],
        doc_lengths: array,
        postings: dict[str, tuple[array, array]],
        lexicon_digest: str = "",
    ):
        self.mode = mode
        self.lexicon_digest = lexicon_digest
        self._doc_ids = doc_ids
        self._doc_lengths = doc_lengths
        self._postings = postings
        # Kept as an exact integer so average_doc_length is independent of
        # summation order.
        self._total_tokens = sum(doc_lengths)
        # (k1, b), per-document length norms, term -> impacts column.
        self._bm25: tuple[tuple[float, float], list[float], dict[str, array]] | None = None

    # -- basic accessors ---------------------------------------------------

    @property
    def doc_count(self) -> int:
        return len(self._doc_ids)

    @property
    def average_doc_length(self) -> float:
        if not self._doc_ids:
            return 0.0
        return self._total_tokens / len(self._doc_ids)

    @property
    def vocabulary_size(self) -> int:
        return len(self._postings)

    def terms(self) -> list[str]:
        return sorted(self._postings)

    def postings(self, term: str) -> list[tuple[str, int]]:
        """(doc_id, term frequency) pairs for ``term``, by ascending doc_id."""
        columns = self._postings.get(term)
        if columns is None:
            return []
        doc_ids = self._doc_ids
        return [(doc_ids[o], tf) for o, tf in zip(*columns)]

    def document_frequency(self, term: str) -> int:
        columns = self._postings.get(term)
        return len(columns[0]) if columns is not None else 0

    # -- scoring -----------------------------------------------------------

    def _idf(self, df: int) -> float:
        # +1 inside the log keeps idf strictly positive, so a document is
        # found exactly when its score is positive.
        return math.log(1.0 + (self.doc_count - df + 0.5) / (df + 0.5))

    def _impacts(self, term: str, k1: float, b: float) -> array:
        """BM25 contribution of an indexed term to each document in its postings.

        Built on first use and cached with the length norms for the last
        (k1, b); new parameters drop both. The cache holds 8 bytes per
        posting of each queried term.
        """
        cached = self._bm25
        if cached is None or cached[0] != (k1, b):
            avgdl = self.average_doc_length
            # avgdl is 0 only when no document has a token, and then no
            # term has postings, so no norm is ever looked up.
            norms = [k1 * (1.0 - b + b * dl / avgdl) for dl in self._doc_lengths] if avgdl else []
            cached = self._bm25 = ((k1, b), norms, {})
        _, norms, impacts = cached
        column = impacts.get(term)
        if column is None:
            ordinals, tfs = self._postings[term]
            idf = self._idf(len(ordinals))
            k1_plus_1 = k1 + 1.0
            column = impacts[term] = array(
                "d", [idf * (tf * k1_plus_1) / (tf + norms[o]) for o, tf in zip(ordinals, tfs)]
            )
        return column

    def retrieve(
        self,
        query_terms: TokenStream,
        depth: int | None = None,
        *,
        k1: float = DEFAULT_K1,
        b: float = DEFAULT_B,
    ) -> RankedList:
        """All documents matching any query term, best first.

        Ties break by ascending doc_id. found_count is taken before the
        optional truncation to ``depth``. Each score is the BM25 sum over
        the query terms in query-term order, so duplicate terms accumulate.
        """
        scores: dict[int, float] = {}
        for term in query_terms:
            columns = self._postings.get(term)
            if columns is None:
                continue
            ordinals = columns[0]
            impacts = self._impacts(term, k1, b)
            # scores[o] = scores.get(o, 0.0) + impact, one C-level pass per term.
            scores.update(
                zip(ordinals, map(operator.add, map(scores.get, ordinals, repeat(0.0)), impacts))
            )
        # Ascending ordinal first; the stable descending sort keeps that
        # order among equal scores, so ties break by ascending doc id.
        ranked = sorted(sorted(scores), key=scores.__getitem__, reverse=True)
        if depth is not None:
            ranked = ranked[:depth]
        # tuple.__new__ is what ScoredDoc(...) runs, minus a Python-level call.
        rows = zip(
            map(self._doc_ids.__getitem__, ranked),
            map(scores.__getitem__, ranked),
            range(1, len(ranked) + 1),
        )
        entries = tuple(map(tuple.__new__, repeat(ScoredDoc), rows))
        return RankedList(qid="", entries=entries, found_count=len(scores))

    # -- serialization -----------------------------------------------------

    def to_jsonable(self) -> dict:
        """Stable dict form of the full index, for debugging and diffing."""
        return {
            "mode": self.mode.value,
            "lexicon_digest": self.lexicon_digest,
            "doc_lengths": dict(zip(self._doc_ids, self._doc_lengths)),
            "postings": {
                term: [[doc_id, tf] for doc_id, tf in self.postings(term)] for term in self.terms()
            },
        }

    def export_json(self) -> str:
        return json.dumps(self.to_jsonable(), ensure_ascii=False, indent=2, sort_keys=True)

    def _encode(self) -> bytearray:
        buf = bytearray(_MAGIC)
        buf += struct.pack("<IB", _FORMAT_VERSION, _MODE_BYTES[self.mode])
        buf += _pack_str(self.lexicon_digest)
        buf += struct.pack("<Q", len(self._doc_ids))
        for doc_id in self._doc_ids:
            buf += _pack_str(doc_id)
        buf += _little_endian(self._doc_lengths)
        buf += struct.pack("<Q", len(self._postings))
        for term in self.terms():
            ordinals, tfs = self._postings[term]
            encoded = term.encode("utf-8")
            buf += struct.pack("<II", len(encoded), len(ordinals))
            buf += encoded
            buf += _little_endian(ordinals)
            buf += _little_endian(tfs)
        buf += hashlib.sha256(buf).digest()
        return buf

    def save(self, path) -> None:
        """Write the index atomically; identical indexes produce identical bytes."""
        atomic_write_bytes(path, self._encode())


# -- file format v2 -----------------------------------------------------------
#
# All integers little-endian; strings are <I byte length + UTF-8 bytes.
#
#   "SIDX" | <I version = 2 | <B mode (0 plain, 1 semantic) | str lexicon digest
#   <Q doc_count | doc_count x str doc_id, strictly ascending
#   doc_count x <Q doc length
#   <Q term_count | term_count x (<II term byte length, df | term bytes
#                                 | df x <I ordinal, strictly ascending
#                                 | df x <I tf >= 1), terms strictly ascending
#   SHA-256 of everything above

_MODE_BYTES = {IndexMode.PLAIN: 0, IndexMode.SEMANTIC: 1}
_MODES_BY_BYTE = {v: k for k, v in _MODE_BYTES.items()}
_BIG_ENDIAN = sys.byteorder == "big"


def _pack_str(value: str) -> bytes:
    encoded = value.encode("utf-8")
    return struct.pack("<I", len(encoded)) + encoded


def _little_endian(column: array) -> array:
    if _BIG_ENDIAN:
        column = array(column.typecode, column)
        column.byteswap()
    return column


class _Reader:
    """Cursor over the binary index format; short reads raise IndexFormatError."""

    def __init__(self, data: memoryview):
        self.data = data
        self.pos = 0

    def take(self, size: int) -> memoryview:
        if self.pos + size > len(self.data):
            raise IndexFormatError("index file truncated")
        chunk = self.data[self.pos : self.pos + size]
        self.pos += size
        return chunk

    def unpack(self, fmt: str):
        return struct.unpack(fmt, self.take(struct.calcsize(fmt)))

    def take_str(self, size: int | None = None) -> str:
        if size is None:
            (size,) = self.unpack("<I")
        try:
            return str(self.take(size), "utf-8")
        except UnicodeDecodeError:
            raise IndexFormatError("index file holds a string that is not UTF-8") from None

    def take_column(self, typecode: str, count: int) -> array:
        column = array(typecode)
        column.frombytes(self.take(count * column.itemsize))
        if _BIG_ENDIAN:
            column.byteswap()
        return column


def _strictly_ascending(values) -> bool:
    return all(map(operator.lt, values, values[1:]))


def load_index(path) -> Index:
    """Load an index file written by Index.save, verifying its checksum.

    Loading costs O(terms + docs) Python operations: each column is read
    with one ``frombytes``. Every structural invariant ``retrieve`` relies
    on is checked, so a damaged or hand-made file raises IndexFormatError.
    """
    with open(path, "rb") as fh:
        data = fh.read()
    if len(data) < len(_MAGIC) + _CHECKSUM_SIZE:
        raise IndexFormatError("index file truncated")
    body = memoryview(data)[:-_CHECKSUM_SIZE]
    if hashlib.sha256(body).digest() != data[-_CHECKSUM_SIZE:]:
        raise IndexFormatError("index file checksum mismatch")

    reader = _Reader(body)
    if reader.take(len(_MAGIC)) != _MAGIC:
        raise IndexFormatError("not an index file (bad magic)")
    (version,) = reader.unpack("<I")
    if version == 1:
        raise IndexFormatError(
            f"{path}: index format version 1 is no longer readable; "
            "rebuild the index with 'semindex index'"
        )
    if version != _FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported index format version {version} (expected {_FORMAT_VERSION})"
        )
    (mode_byte,) = reader.unpack("<B")
    mode = _MODES_BY_BYTE.get(mode_byte)
    if mode is None:
        raise IndexFormatError(f"unknown index mode byte {mode_byte}")
    lexicon_digest = reader.take_str()

    (doc_count,) = reader.unpack("<Q")
    doc_ids = [reader.take_str() for _ in range(doc_count)]
    if not _strictly_ascending(doc_ids):
        raise IndexFormatError("doc ids are not sorted and unique")
    doc_lengths = reader.take_column("Q", doc_count)

    (term_count,) = reader.unpack("<Q")
    postings: dict[str, tuple[array, array]] = {}
    previous = None
    for _ in range(term_count):
        size, df = reader.unpack("<II")
        term = reader.take_str(size)
        if previous is not None and term <= previous:
            raise IndexFormatError(f"term {term!r} out of order")
        previous = term
        ordinals = reader.take_column("I", df)
        tfs = reader.take_column("I", df)
        if not df:
            raise IndexFormatError(f"term {term!r} has no postings")
        if ordinals[-1] >= doc_count or not _strictly_ascending(ordinals):
            raise IndexFormatError(
                f"term {term!r}: ordinals not strictly ascending below doc count {doc_count}"
            )
        if min(tfs) == 0:
            raise IndexFormatError(f"term {term!r}: posting with term frequency 0")
        postings[term] = (ordinals, tfs)
    if reader.pos != len(body):
        raise IndexFormatError("trailing bytes after postings")
    return Index(mode, doc_ids, doc_lengths, postings, lexicon_digest)


# -- construction -----------------------------------------------------------


def process_document(
    text: str,
    mode: IndexMode,
    lex: Lexicon | None,
    stoplist: frozenset[str],
    max_concept_tokens: int = DEFAULT_MAX_CONCEPT_TOKENS,
) -> TokenStream:
    """The per-document pipeline: tokenize, stop, then semantize if asked."""
    tokens = remove_stopwords(tokenize(text), stoplist)
    if mode is IndexMode.SEMANTIC:
        assert lex is not None
        tokens = semantize(tokens, lex, max_concept_tokens)
    return tokens


_WORKER_STATE: dict = {}


def _init_worker(mode, lex, stoplist, max_concept_tokens):
    _WORKER_STATE["args"] = (mode, lex, stoplist, max_concept_tokens)


def _count_document(text, mode, lex, stoplist, max_concept_tokens) -> tuple[Counter, int]:
    tokens = process_document(text, mode, lex, stoplist, max_concept_tokens)
    return Counter(tokens), len(tokens)


def _count_batch(texts: list[str]) -> list[tuple[Counter, int]]:
    return [_count_document(text, *_WORKER_STATE["args"]) for text in texts]


def _fill_columns(counted: Iterable[tuple[Counter, int]]) -> tuple[array, dict[str, tuple[array, array]]]:
    """Stream per-document counts, in ordinal order, into the columns."""
    doc_lengths = array("Q")
    columns: dict[str, tuple[array, array]] = {}
    for ordinal, (counts, length) in enumerate(counted):
        doc_lengths.append(length)
        for term, tf in counts.items():
            pair = columns.get(term)
            if pair is None:
                pair = columns[term] = (array("I"), array("I"))
            pair[0].append(ordinal)
            pair[1].append(tf)
    return doc_lengths, {term: columns[term] for term in sorted(columns)}


def build_index(
    corpus: Iterable[tuple[str, str]],
    mode: IndexMode,
    lex: Lexicon | None = None,
    stoplist: frozenset[str] = frozenset(),
    *,
    max_concept_tokens: int = DEFAULT_MAX_CONCEPT_TOKENS,
    workers: int = 1,
) -> Index:
    """Build an index from (doc_id, text) pairs.

    The result is identical for any worker count and corpus order: documents
    are counted in doc-id order, and each count goes straight into the
    columns, so ordinals arrive ascending.
    """
    if mode is IndexMode.SEMANTIC and lex is None:
        raise ValueError("semantic mode requires a lexicon")
    docs = sorted(corpus, key=operator.itemgetter(0))
    doc_ids = [doc_id for doc_id, _ in docs]
    for previous, doc_id in zip(doc_ids, doc_ids[1:]):
        if previous == doc_id:
            raise DuplicateDocumentError(f"duplicate doc_id: {doc_id!r}")
    texts = [text for _, text in docs]
    args = (mode, lex, stoplist, max_concept_tokens)

    if workers > 1 and len(texts) > 1:
        chunk = max(1, (len(texts) + workers * 4 - 1) // (workers * 4))
        batches = [texts[i : i + chunk] for i in range(0, len(texts), chunk)]
        with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=args) as pool:
            doc_lengths, postings = _fill_columns(
                row for result in pool.map(_count_batch, batches) for row in result
            )
    else:
        doc_lengths, postings = _fill_columns(_count_document(text, *args) for text in texts)

    digest = lex.digest() if (mode is IndexMode.SEMANTIC and lex is not None) else ""
    return Index(mode, doc_ids, doc_lengths, postings, lexicon_digest=digest)


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

    Unreadable records are skipped and reported, not fatal; duplicate ids
    are left for build_index to reject.
    """
    documents: list[tuple[str, str]] = []
    skipped: list[SkippedDocument] = []
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
        documents.append((doc_id, text))
    return CorpusReadResult(documents, skipped)
