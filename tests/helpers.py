"""Shared fixture builders and hypothesis strategies."""

from __future__ import annotations

import io
import json
import random
import re
import string
import unicodedata

from hypothesis import strategies as st

from semindex import Lexicon, load_lexicon
from semindex.semantics import DEFAULT_MAX_CONCEPT_TOKENS, ConceptMatch

# Already-normalized single tokens (Arabic letters and lowercase Latin).
TOKEN_POOL = ["ا", "ب", "ت", "ث", "ج", "ح", "خ", "د", "x", "y", "z", "w"]


def lexicon_jsonl(records) -> str:
    """records: iterable of (id, pos_tag, lemmas)."""
    lines = [
        json.dumps({"id": sid, "pos": pos, "lemmas": list(lemmas)}, ensure_ascii=False)
        for sid, pos, lemmas in records
    ]
    return "\n".join(lines)


def make_lexicon(records) -> Lexicon:
    """Build a lexicon through the JSONL loader (the production path)."""
    return load_lexicon(io.StringIO(lexicon_jsonl(records)))


def lemma_strategy(max_tokens: int = 3, pool=TOKEN_POOL):
    return st.lists(st.sampled_from(pool), min_size=1, max_size=max_tokens).map(" ".join)


def lexicon_strategy(max_synsets: int = 6, max_lemma_tokens: int = 3, pool=TOKEN_POOL):
    """Random lexicons with unique ids s0..sN over a token pool (the shared
    one by default; a small pool makes lemmas share first tokens and
    synsets share lemmas)."""
    synset_lemmas = st.lists(
        lemma_strategy(max_lemma_tokens, pool), min_size=1, max_size=4, unique=True
    )
    return st.lists(synset_lemmas, min_size=0, max_size=max_synsets).map(
        lambda groups: make_lexicon(
            [(f"s{i}", "n", lemmas) for i, lemmas in enumerate(groups)]
        )
    )


def token_stream_strategy(max_size: int = 12, pool=TOKEN_POOL):
    return st.lists(st.sampled_from(pool), max_size=max_size)


def reference_match_concepts(
    tokens, lex: Lexicon, max_len: int = DEFAULT_MAX_CONCEPT_TOKENS
) -> list[ConceptMatch]:
    """Exhaustive greedy leftmost-longest matcher: at every position, every
    window from max_len tokens down to 1 is joined and looked up."""
    if max_len < 1:
        raise ValueError(f"max_len must be >= 1, got {max_len}")
    matches: list[ConceptMatch] = []
    i, n = 0, len(tokens)
    while i < n:
        for length in range(min(max_len, n - i), 0, -1):
            lemma = " ".join(tokens[i : i + length])
            synset_ids = lex.synsets_of(lemma)
            if synset_ids:
                matches.append(ConceptMatch(i, i + length, lemma, tuple(synset_ids)))
                i += length
                break
        else:
            i += 1
    return matches


_REF_MARKS_RE = re.compile(r"[\u064b-\u0655]")
_REF_FOLDS = str.maketrans(
    {"\u0622": "\u0627", "\u0623": "\u0627", "\u0625": "\u0627", "\u0649": "\u064a", "\u0629": "\u0647"}
)
_REF_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)


def reference_normalize(text: str) -> str:
    """normalize as two simultaneous translate tables: NFC, mark and
    tatweel removal, then the hamza-alef / alef-maqsura / ta-marbuta folds
    and ASCII lowercasing."""
    text = unicodedata.normalize("NFC", text)
    text = _REF_MARKS_RE.sub("", text)
    text = text.replace("\u0640", "")
    text = text.translate(_REF_FOLDS)
    return text.translate(_REF_ASCII_LOWER)


def random_corpus(rng: random.Random, n_docs: int, vocab=None, min_len=3, max_len=40):
    """Deterministic synthetic corpus of (doc_id, text) pairs."""
    vocab = vocab or TOKEN_POOL
    docs = []
    for i in range(n_docs):
        length = rng.randint(min_len, max_len)
        words = [rng.choice(vocab) for _ in range(length)]
        docs.append((f"d{i:05d}", " ".join(words)))
    return docs
