"""Concept-level rewriting of token streams.

Documents are *semantized*: every occurrence of a monosemous concept is
replaced by its synset's canonical lemma. Queries are *expanded*: the
synonyms of each monosemous concept are appended while the original tokens
stay untouched. The asymmetry is deliberate. An expanded query and a
semantized document meet on the canonical lemma, while a raw query issued
against a semantized corpus can miss terms that were rewritten away.
"""

from __future__ import annotations

from typing import Callable, NamedTuple

from .lexicon import Lexicon
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
        return len(self.synset_ids) == 1


def match_concepts(tokens: list[str], lex: Lexicon) -> list[ConceptMatch]:
    """Greedy leftmost-longest lexicon matching over a normalized stream.

    The lexicon bounds the window: at a token that starts some lemma,
    windows from the longest lemma starting there down to 1 token are
    tried; the first window whose space-joined form is a lexicon lemma
    becomes a match and scanning resumes after it. Matches never overlap
    and come out sorted by start position. Tokens must contain no space,
    as every ``tokenize`` token does.
    """
    # Package-internal lookups, read directly: this loop runs per token.
    senses, longest_from = lex._inverted, lex._longest_from
    matches: list[ConceptMatch] = []
    i, n = 0, len(tokens)
    while i < n:
        longest = longest_from.get(tokens[i])
        if longest is None:
            i += 1
            continue
        for length in range(min(n - i, longest), 0, -1):
            lemma = " ".join(tokens[i : i + length])
            synset_ids = senses.get(lemma)
            if synset_ids:
                matches.append(ConceptMatch(i, i + length, lemma, tuple(synset_ids)))
                i += length
                break
        else:
            i += 1
    return matches


def semantize(tokens: list[str], lex: Lexicon) -> list[str]:
    """Rewrite a document-side stream onto canonical concept lemmas.

    Each monosemous concept match is replaced by the tokens of its synset's
    canonical lemma; polysemous matches and unmatched tokens pass through
    unchanged. The surface form of a replaced concept does not survive
    unless it is itself the canonical lemma.
    """
    out: list[str] = []
    prev_end = 0
    for match in match_concepts(tokens, lex):
        if match.monosemous:
            out.extend(tokens[prev_end : match.start])
            out.extend(lex.canonical_lemma(match.synset_ids[0]).split(" "))
            prev_end = match.end
    out.extend(tokens[prev_end:])
    return out


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
