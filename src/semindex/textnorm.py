"""Arabic-aware normalization, tokenization, and stopword filtering.

Every piece of text entering the system (documents, queries, lexicon
lemmas, stopword lists) goes through the same pipeline, so all downstream
matching reduces to exact string equality on normalized tokens.
"""

from __future__ import annotations

import re
import string
import unicodedata
from typing import Iterator

from ._util import TextSource, iter_lines, line_error

# Token characters: ASCII letters/digits, Arabic letters including hamza
# forms (U+0621-U+064A), tatweel, tashkeel and other combining marks up to
# U+065F, Arabic-Indic digits, superscript alef and the extended Arabic
# letters through U+06D5, less U+06D4 ARABIC FULL STOP, a punctuation mark.
# Combining marks must count as token characters: NFC folds alef+madda/hamza
# mark sequences into single letters, and splitting on the marks would make
# tokenization disagree before and after normalization.
_TOKEN_RE = re.compile(r"[0-9A-Za-zء-٩ٰ-ۓە]+")

# Character -> replacement: tashkeel (U+064B-U+0652), the combining
# madda/hamza marks (U+0653-U+0655) and tatweel removed, then the letter
# folds. The combining marks go too: NFC recomposes e.g. alef + U+0654 into
# the very hamza letters the folds erase, so keeping them would break
# idempotence. No replacement is itself edited, so applying the pairs one
# after another equals one simultaneous mapping. Nearly every character is
# a miss, which costs a translate table a dict lookup and a regex a class
# test; a guarded replace touches the text only when its character occurs.
_EDITS = (
    *((chr(mark), "") for mark in range(0x064B, 0x0656)),
    ("ـ", ""),  # tatweel
    ("آ", "ا"),  # alef madda -> alef
    ("أ", "ا"),  # alef hamza above -> alef
    ("إ", "ا"),  # alef hamza below -> alef
    ("ى", "ي"),  # alef maqsura -> yeh
    ("ة", "ه"),  # ta marbuta -> ha
)

# Only ASCII letters are case-folded. Full Unicode lowercasing can grow
# strings (U+0130 -> "i" + combining dot) and would break both the
# idempotence and the length-non-increasing guarantees.
_ASCII_LOWER = str.maketrans(string.ascii_uppercase, string.ascii_lowercase)
_HAS_ASCII_UPPER = re.compile("[A-Z]").search


def normalize(text: str) -> str:
    """Canonicalize a string for matching.

    Applies, in order: Unicode NFC, removal of tashkeel and combining
    hamza/madda marks, removal of tatweel, hamza-alef / alef-maqsura /
    ta-marbuta folding, ASCII lowercasing. Idempotent and never longer
    than its input in code points.
    """
    text = unicodedata.normalize("NFC", text)
    for old, new in _EDITS:
        if old in text:
            text = text.replace(old, new)
    if _HAS_ASCII_UPPER(text):
        text = text.translate(_ASCII_LOWER)
    return text


def tokenize(text: str) -> list[str]:
    """Split text into normalized tokens.

    Any character outside the Arabic/Latin/digit token class separates
    tokens; empty tokens are dropped. Normalization happens first, so every
    returned token is its own normalization fixed point. No token contains
    a space.
    """
    return _TOKEN_RE.findall(normalize(text))


def _tokenize_each(texts: list[str]) -> Iterator[list[str]]:
    """``tokenize`` of each text in turn, from one ``normalize`` of them all joined.

    A text's own ``"\\n"`` becomes a space first, so the joined text splits
    back into exactly these texts: both are token separators, ``normalize``
    never adds or removes either, and NFC composes across neither.
    """
    joined = "\n".join([text.replace("\n", " ") for text in texts])
    return map(_TOKEN_RE.findall, normalize(joined).split("\n") if texts else ())


def remove_stopwords(tokens: list[str], stoplist: frozenset[str] | set[str]) -> list[str]:
    """Order-preserving stopword filter; always returns a new list."""
    return [t for t in tokens if t not in stoplist]


def load_stopwords(source: TextSource) -> frozenset[str]:
    """Read a stopword file, one token per line.

    Each line is tokenized like document and query text, so a stopword
    matches exactly the token it stops. A line that yields no token (marks
    or punctuation alone) is skipped; one that yields more is a DataError.
    """
    words: set[str] = set()
    for line_no, line in iter_lines(source):
        tokens = tokenize(line)
        if len(tokens) > 1:
            raise line_error(source, line_no, f"stopword {line.strip()!r} is more than one token")
        words.update(tokens)
    return frozenset(words)
