"""Concept-level rewriting of token streams.

Documents are *semantized*: every occurrence of a monosemous concept is
replaced by its synset's canonical lemma. Queries are *expanded*: the
synonyms of each monosemous concept are appended while the original tokens
stay untouched. The asymmetry is deliberate. An expanded query and a
semantized document meet on the canonical lemma, while a raw query issued
against a semantized corpus can miss terms that were rewritten away.
"""

from __future__ import annotations

from itertools import compress, count, islice
from typing import Callable, NamedTuple

from .lexicon import Lexicon, _monosemous
from .textnorm import remove_stopwords


class ConceptMatch(NamedTuple):
    """A lexicon lemma found in a token stream at [start, end)."""

    start: int
    end: int
    surface_lemma: str
    synset_ids: tuple[str, ...]

    @property
    def monosemous(self) -> bool:
        """Exactly one sense, counted across all POS classes."""
        return _monosemous(self.synset_ids)


def _units(tokens: list[str], lex: Lexicon) -> list[str]:
    """The stream as greedy leftmost-longest lexicon matching cuts it: each
    multiword match as its space-joined lemma, every other token as itself.

    Windows are tried only at the positions whose token and the next one
    start some multiword lemma, found in one C-level pass. A position inside
    an earlier match is skipped; at the others, windows from the longest
    lemma starting with that pair down to 2 tokens are tried, and the first
    whose space-joined form is a lexicon lemma is a match. A single token
    never covers another, so the tokens between these matches are exactly
    the ones the full matcher tries as 1-token windows.
    """
    # Package-internal lookups, read directly: this runs per document and query.
    phrases, senses = lex._phrases, lex._inverted
    units: list[str] = []
    end = 0
    pairs = zip(tokens, islice(tokens, 1, None))
    for i in compress(count(), map(phrases.__contains__, pairs)):
        if i < end:
            continue
        # A window past the end of the stream repeats the shorter one tried next.
        for length in range(phrases[tokens[i], tokens[i + 1]], 1, -1):
            lemma = " ".join(tokens[i : i + length])
            if lemma in senses:
                units += tokens[end:i]
                units.append(lemma)
                end = i + length
                break
    units += tokens[end:]
    return units


def match_concepts(tokens: list[str], lex: Lexicon) -> list[ConceptMatch]:
    """Greedy leftmost-longest lexicon matching over a normalized stream.

    The lexicon bounds the window: at a token that starts some lemma,
    windows from the longest lemma starting there down to 1 token are
    tried; the first window whose space-joined form is a lexicon lemma
    becomes a match and scanning resumes after it. Matches never overlap
    and come out sorted by start position. Tokens must contain no space,
    as every ``tokenize`` token does.
    """
    senses = lex._inverted
    matches: list[ConceptMatch] = []
    end = 0
    for unit in _units(tokens, lex):
        start, end = end, end + unit.count(" ") + 1
        if unit in senses:
            matches.append(ConceptMatch(start, end, unit, senses[unit]))
    return matches


def semantize(tokens: list[str], lex: Lexicon) -> list[str]:
    """Rewrite a document-side stream onto canonical concept lemmas.

    Each monosemous concept match is replaced by the tokens of its synset's
    canonical lemma; polysemous matches and unmatched tokens pass through
    unchanged. The surface form of a replaced concept does not survive
    unless it is itself the canonical lemma. Tokens must contain no space,
    as every ``tokenize`` token does: the output is one join of the kept
    and rewritten forms, split at spaces.
    """
    units = _units(tokens, lex)
    return " ".join(map(lex._rewrites.get, units, units)).split(" ") if units else []


def expand(tokens: list[str], lex: Lexicon) -> list[str]:
    """Append the synonyms of each monosemous concept to a query stream.

    The output starts with the input tokens unchanged; for each monosemous
    unit of the cut that ``semantize`` and ``match_concepts`` read, in
    stream order, every lemma of its synset not already present is appended
    (multiword lemmas contribute their tokens contiguously). Tokens must
    contain no space, as every ``tokenize`` token does: the output joined
    with spaces holds a multiword lemma only as a contiguous token run.
    """
    senses, synsets = lex._inverted, lex._synsets
    out = list(tokens)
    for unit in _units(tokens, lex):
        synset_ids = senses.get(unit, ())
        if not _monosemous(synset_ids):
            continue
        for lemma in synsets[synset_ids[0]].lemmas:
            if " " not in lemma:
                if lemma not in out:
                    out.append(lemma)
            elif f" {lemma} " not in f" {' '.join(out)} ":
                out += lemma.split(" ")
    return out


def analyze(
    tokens: list[str], stoplist: frozenset[str], concept_step: Callable | None, lex: Lexicon
) -> list[str]:
    """The analysis order of documents and queries: run the concept step
    (``semantize``, ``expand`` or None) on the whole token stream, then drop
    stopwords. So a lemma may hold a stopword, a stopword never joins the
    tokens around it into a lemma, and expansion adds no stopword back."""
    if concept_step is not None:
        tokens = concept_step(tokens, lex)
    return remove_stopwords(tokens, stoplist)

