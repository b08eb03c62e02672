"""WordNet-style lexical database: synsets and lemma lookup.

The native file format is JSONL, one synset per line:

    {"id": "s1", "pos": "n", "lemmas": ["...", "..."], "relations": [...]}

``pos`` is one of ``n`` / ``v`` / ``a`` / ``r``. ``relations`` is accepted
and ignored. Lemmas are normalized at load time with the same pipeline used
for documents and queries, so lemma/token matching is exact string equality.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Iterable

from ._util import DataError, TextSource, first_seen, iter_lines, parse_json
from .textnorm import tokenize

POS_BY_TAG = {"n": "noun", "v": "verb", "a": "adjective", "r": "adverb"}

# Synset invariant: a lemma is 1-4 space-separated tokens.
MAX_LEMMA_TOKENS = 4

# Built once: json.dumps with options builds an encoder on every call.
_DIGEST_ENCODER = json.JSONEncoder(ensure_ascii=True, separators=(",", ":"))


class LexiconError(DataError):
    """Malformed lexicon input."""


@dataclass(frozen=True)
class Synset:
    """One sense: an opaque id, a part of speech, and ordered synonym lemmas."""

    id: str
    pos: str
    lemmas: tuple[str, ...]


def normalize_lemma(raw: str) -> str:
    """Normalize a lemma the same way document text is tokenized."""
    return " ".join(tokenize(raw))


class Lexicon:
    """Immutable bidirectional lemma <-> synset store.

    A lemma's synset ids are kept in lexicon-file encounter order, which
    makes every derived choice (canonical lemma, expansion order)
    deterministic for a given lexicon file. Synset ids are unique, and a
    synset lists each lemma once, else the constructor raises LexiconError.
    """

    def __init__(self, synsets: Iterable[Synset] = ()):
        self._synsets: dict[str, Synset] = {}
        self._inverted: dict[str, tuple[str, ...]] = {}
        # First token of any lemma -> token count of the longest lemma that
        # starts with it; lets concept matching skip and bound its windows.
        self._longest_from: dict[str, int] = {}
        self._digest: str | None = None
        for syn in synsets:
            if syn.id in self._synsets:
                raise LexiconError(f"duplicate synset id: {syn.id!r}")
            self._synsets[syn.id] = syn
            for lemma in syn.lemmas:
                senses = self._inverted.get(lemma, ())
                if syn.id in senses:
                    raise LexiconError(f"synset {syn.id!r} lists lemma {lemma!r} twice")
                self._inverted[lemma] = senses + (syn.id,)
                lemma_tokens = lemma.split(" ")
                if len(lemma_tokens) > self._longest_from.get(lemma_tokens[0], 0):
                    self._longest_from[lemma_tokens[0]] = len(lemma_tokens)

    def __len__(self) -> int:
        return len(self._synsets)

    def __contains__(self, lemma: str) -> bool:
        return lemma in self._inverted

    def synset(self, synset_id: str) -> Synset:
        try:
            return self._synsets[synset_id]
        except KeyError:
            raise KeyError(f"unknown synset id: {synset_id!r}") from None

    def canonical_lemma(self, synset_id: str) -> str:
        """The synset's representative: its first lemma in stored order."""
        return self.synset(synset_id).lemmas[0]

    def lemmas_of(self, synset_id: str) -> list[str]:
        return list(self.synset(synset_id).lemmas)

    def digest(self) -> str:
        """SHA-256 over the canonical synset listing; identifies the lexicon
        content independently of file formatting."""
        if self._digest is None:
            h = hashlib.sha256()
            for sid in sorted(self._synsets):
                syn = self._synsets[sid]
                record = _DIGEST_ENCODER.encode([syn.id, syn.pos, list(syn.lemmas)])
                h.update(record.encode("ascii"))
                h.update(b"\n")
            self._digest = h.hexdigest()
        return self._digest


def _parse_record(line_no: int, line: str) -> Synset:
    try:
        record = parse_json(line)
    except json.JSONDecodeError as exc:
        raise LexiconError(f"line {line_no}: invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise LexiconError(f"line {line_no}: record is not an object")

    synset_id = record.get("id")
    if not isinstance(synset_id, str) or not synset_id:
        raise LexiconError(f"line {line_no}: missing or invalid 'id'")

    pos_tag = record.get("pos")
    if not isinstance(pos_tag, str) or pos_tag not in POS_BY_TAG:
        raise LexiconError(f"line {line_no}: unknown pos tag {pos_tag!r}")

    raw_lemmas = record.get("lemmas")
    if not isinstance(raw_lemmas, list) or not raw_lemmas:
        raise LexiconError(f"line {line_no}: 'lemmas' must be a non-empty list")

    lemmas: dict[str, None] = {}
    for raw in raw_lemmas:
        if not isinstance(raw, str):
            raise LexiconError(f"line {line_no}: lemma {raw!r} is not a string")
        lemma = normalize_lemma(raw)
        if not lemma:
            raise LexiconError(f"line {line_no}: lemma {raw!r} is empty after normalization")
        if lemma.count(" ") + 1 > MAX_LEMMA_TOKENS:
            raise LexiconError(
                f"line {line_no}: lemma {raw!r} has more than {MAX_LEMMA_TOKENS} tokens"
            )
        # Duplicates after normalization collapse to the first occurrence.
        lemmas.setdefault(lemma)

    return Synset(id=synset_id, pos=POS_BY_TAG[pos_tag], lemmas=tuple(lemmas))


def load_lexicon(source: TextSource) -> Lexicon:
    """Load a JSONL lexicon from a path or file-like object.

    Raises LexiconError on malformed lines (with line numbers), duplicate
    synset ids, empty lemma lists, or unknown pos tags.
    """
    synsets: list[Synset] = []
    seen: dict[str, int] = {}
    for line_no, line in iter_lines(source):
        syn = _parse_record(line_no, line)
        first_seen(seen, syn.id, line_no, LexiconError, f"duplicate synset id {syn.id!r}")
        synsets.append(syn)
    return Lexicon(synsets)
