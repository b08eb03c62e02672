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
from itertools import takewhile
from json.encoder import encode_basestring_ascii as _json_ascii
from typing import Iterable

from ._util import DataError, TextSource, first_seen, iter_lines, line_error, parse_json
from .textnorm import _tokenize_each, tokenize

POS_BY_TAG = {"n": "noun", "v": "verb", "a": "adjective", "r": "adverb"}

# Synset invariant: a lemma is 1-4 space-separated tokens.
MAX_LEMMA_TOKENS = 4


@dataclass(frozen=True)
class Synset:
    """One sense: an opaque id, a part of speech, and ordered synonym lemmas."""

    id: str
    pos: str
    lemmas: tuple[str, ...]


def _monosemous(synset_ids: tuple[str, ...]) -> bool:
    """The concept step's rule: a lemma with exactly one sense, counted
    across all POS classes, is rewritten and expanded."""
    return len(synset_ids) == 1


def normalize_lemma(raw: str) -> str:
    """Normalize a lemma the same way document text is tokenized."""
    return " ".join(tokenize(raw))


class Lexicon:
    """Immutable bidirectional lemma <-> synset store.

    A lemma's synset ids are kept in lexicon-file encounter order, which
    makes every derived choice (canonical lemma, expansion order)
    deterministic for a given lexicon file. Synset ids are unique, and a
    synset lists each lemma once, else the constructor raises DataError.
    """

    def __init__(self, synsets: Iterable[Synset] = ()):
        self._synsets: dict[str, Synset] = {}
        self._inverted: dict[str, tuple[str, ...]] = {}
        self._digest: str | None = None
        for syn in synsets:
            if syn.id in self._synsets:
                raise DataError(f"duplicate synset id: {syn.id!r}")
            self._synsets[syn.id] = syn
            for lemma in syn.lemmas:
                senses = self._inverted.get(lemma, ())
                if syn.id in senses:
                    raise DataError(f"synset {syn.id!r} lists lemma {lemma!r} twice")
                self._inverted[lemma] = senses + (syn.id,)
        # The first two tokens of a multiword lemma -> token count of the
        # longest lemma that starts with them: concept matching tries windows
        # only where such a pair stands, and bounds them. Each distinct token
        # is one string object: a 1-token lemma's own, else the first copy.
        words = {lemma: lemma for lemma in self._inverted if " " not in lemma}
        self._phrases: dict[tuple[str, str], int] = {}
        for lemma in self._inverted:
            if " " in lemma:
                first, second, *rest = lemma.split(" ")
                pair = words.setdefault(first, first), words.setdefault(second, second)
                self._phrases[pair] = max(self._phrases.get(pair, 0), 2 + len(rest))
        # Monosemous lemma -> its synset's canonical lemma (its first), where
        # the two differ: the whole of semantize's rewrite.
        self._rewrites: dict[str, str] = {
            lemma: syn.lemmas[0]
            for syn in self._synsets.values()
            for lemma in syn.lemmas[1:]
            if _monosemous(self._inverted[lemma])
        }

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
        content independently of file formatting. The listing is one line
        ``[<id>,<pos>,[<lemma>,...]]\\n`` per synset in ascending id order,
        each string JSON-encoded with non-ASCII characters escaped, hashed
        in one call."""
        if self._digest is None:
            records = [
                f"[{_json_ascii(syn.id)},{_json_ascii(syn.pos)},[{','.join(map(_json_ascii, syn.lemmas))}]]\n"
                for syn in map(self._synsets.__getitem__, sorted(self._synsets))
            ]
            self._digest = hashlib.sha256("".join(records).encode("ascii")).hexdigest()
        return self._digest


def _parse_record(source: TextSource, line_no: int, line: str) -> tuple[str, str, list]:
    """A line's synset id, part of speech and raw lemma list, each checked for its type."""
    try:
        record = parse_json(line)
    except json.JSONDecodeError as exc:
        raise line_error(source, line_no, f"invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise line_error(source, line_no, "record is not an object")

    synset_id = record.get("id")
    if not isinstance(synset_id, str) or not synset_id:
        raise line_error(source, line_no, "missing or invalid 'id'")

    pos_tag = record.get("pos")
    if not isinstance(pos_tag, str) or pos_tag not in POS_BY_TAG:
        raise line_error(source, line_no, f"unknown pos tag {pos_tag!r}")

    raw_lemmas = record.get("lemmas")
    if not isinstance(raw_lemmas, list) or not raw_lemmas:
        raise line_error(source, line_no, "'lemmas' must be a non-empty list")
    return synset_id, POS_BY_TAG[pos_tag], raw_lemmas


def load_lexicon(source: TextSource) -> Lexicon:
    """Load a JSONL lexicon from a path or file-like object.

    Raises DataError for the file's first fault: malformed lines (with line
    numbers), empty lemma lists, unknown pos tags, bad lemmas, or duplicate
    synset ids. Within a line, the record's fields come first, then its
    lemmas in order, then a repeated id.
    """
    # Pass 1 reads records up to the first fault but a lemma's normal form,
    # and holds that fault back: the lemmas read before it, on its line
    # too, may hold an earlier one, which pass 2 finds.
    records: list[tuple[int, str, str, list[str]]] = []
    seen: dict[str, int] = {}
    held: DataError | None = None
    try:
        for line_no, line in iter_lines(source):
            synset_id, pos, raw_lemmas = _parse_record(source, line_no, line)
            strings = list(takewhile(str.__instancecheck__, raw_lemmas))
            records.append((line_no, synset_id, pos, strings))
            if len(strings) < len(raw_lemmas):
                raise line_error(source, line_no, f"lemma {raw_lemmas[len(strings)]!r} is not a string")
            first_seen(seen, synset_id, source, line_no, f"duplicate synset id {synset_id!r}")
    except DataError as exc:
        held = exc
    # Pass 2 normalizes every lemma read in one pass over their joined text.
    normalized = _tokenize_each([raw for *_, raws in records for raw in raws])
    synsets: list[Synset] = []
    for line_no, synset_id, pos, raws in records:
        lemmas: dict[str, None] = {}
        for raw, tokens in zip(raws, normalized):  # raws first: zip stops before taking another line's lemma
            if not tokens:
                raise line_error(source, line_no, f"lemma {raw!r} is empty after normalization")
            if len(tokens) > MAX_LEMMA_TOKENS:
                raise line_error(source, line_no, f"lemma {raw!r} has more than {MAX_LEMMA_TOKENS} tokens")
            # Duplicates after normalization collapse to the first occurrence.
            lemmas.setdefault(" ".join(tokens))
        synsets.append(Synset(synset_id, pos, tuple(lemmas)))
    if held is not None:
        raise held
    return Lexicon(synsets)
