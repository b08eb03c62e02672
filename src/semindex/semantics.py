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
from typing import Callable, Iterable, Iterator, NamedTuple

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


def _phrase_matches(tokens: list[str], lex: Lexicon, starts: Iterable[int]) -> Iterator[ConceptMatch]:
    """The multiword matches of greedy leftmost-longest matching, in order.

    ``starts`` are ascending positions, and they hold every position whose
    token and the next one start some multiword lemma. A start inside an
    earlier match is skipped; at the others, windows from the longest lemma
    starting with that pair down to 2 tokens are tried, and the first whose
    space-joined form is a lexicon lemma is a match. A single token never
    covers another, so the tokens between these matches are exactly the
    ones the full matcher tries as 1-token windows.
    """
    # Package-internal lookups, read directly: this runs per document and query.
    phrases, senses = lex._phrases, lex._inverted
    n, end = len(tokens), 0
    for i in starts:
        longest = phrases.get((tokens[i], tokens[i + 1])) if i >= end else None
        if longest is None:
            continue
        for length in range(min(n - i, longest), 1, -1):
            lemma = " ".join(tokens[i : i + length])
            synset_ids = senses.get(lemma)
            if synset_ids:
                end = i + length
                yield ConceptMatch(i, end, lemma, synset_ids)
                break


def match_concepts(tokens: list[str], lex: Lexicon) -> list[ConceptMatch]:
    """Greedy leftmost-longest lexicon matching over a normalized stream.

    The lexicon bounds the window: at a token that starts some lemma,
    windows from the longest lemma starting there down to 1 token are
    tried; the first window whose space-joined form is a lexicon lemma
    becomes a match and scanning resumes after it. Matches never overlap
    and come out sorted by start position: the multiword ones from one scan
    of the lexicon's phrase gate, and the 1-token ones between them. Tokens
    must contain no space, as every ``tokenize`` token does.
    """
    matches: list[ConceptMatch] = []
    start = 0
    # Every position is a start: on a query's few tokens, a Python loop costs
    # less than setting up semantize's C-level pass.
    for phrase in _phrase_matches(tokens, lex, range(len(tokens) - 1)):
        matches += _token_matches(tokens, start, phrase.start, lex)
        matches.append(phrase)
        start = phrase.end
    return matches + _token_matches(tokens, start, len(tokens), lex)


def _token_matches(tokens: list[str], start: int, stop: int, lex: Lexicon) -> list[ConceptMatch]:
    """The 1-token matches in tokens[start:stop], a stretch outside every phrase match."""
    senses = lex._inverted
    return [
        ConceptMatch(i, i + 1, tokens[i], senses[tokens[i]]) for i in range(start, stop) if tokens[i] in senses
    ]


def semantize(tokens: list[str], lex: Lexicon) -> list[str]:
    """Rewrite a document-side stream onto canonical concept lemmas.

    Each monosemous concept match is replaced by the tokens of its synset's
    canonical lemma; polysemous matches and unmatched tokens pass through
    unchanged. The surface form of a replaced concept does not survive
    unless it is itself the canonical lemma. Tokens must contain no space,
    as every ``tokenize`` token does: the output is one join of the kept
    and rewritten forms, split at spaces.
    """
    rewrites = lex._rewrites
    forms: list[str] = []
    start = 0
    # The positions of the token pairs that start a multiword lemma, found in
    # one C-level pass over the document.
    pairs = zip(tokens, islice(tokens, 1, None))
    starts = compress(count(), map(lex._phrases.__contains__, pairs))
    for phrase in _phrase_matches(tokens, lex, starts):
        words = tokens[start : phrase.start]
        forms += map(rewrites.get, words, words)
        forms.append(rewrites.get(phrase.surface_lemma, phrase.surface_lemma))
        start = phrase.end
    words = tokens[start:]
    forms += map(rewrites.get, words, words)
    return " ".join(forms).split(" ") if forms else []


def expand(tokens: list[str], lex: Lexicon) -> list[str]:
    """Append the synonyms of each monosemous concept to a query stream.

    The output starts with the input tokens unchanged; for each monosemous
    match in stream order, every lemma of its synset not already present is
    appended (multiword lemmas contribute their tokens contiguously).
    """
    out = list(tokens)
    for match in match_concepts(tokens, lex):
        if not match.monosemous:
            continue
        for lemma in lex.lemmas_of(match.synset_ids[0]):
            lemma_tokens = lemma.split(" ")
            if not _contains_run(out, lemma_tokens):
                out.extend(lemma_tokens)
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


def _contains_run(haystack: list[str], needle: list[str]) -> bool:
    """True if needle occurs in haystack as a contiguous token run."""
    if len(needle) == 1:
        return needle[0] in haystack
    n = len(needle)
    return any(haystack[i : i + n] == needle for i in range(len(haystack) - n + 1))
