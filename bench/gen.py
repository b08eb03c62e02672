"""Seeded synthetic Arabic inputs for the benchmark.

Everything here is a pure function of (seed, size): the same arguments
always give byte-identical files. The text imitates what semindex's
normalization and concept matching are built for:

- words are drawn from a Zipf distribution over a generated vocabulary;
- surface forms carry tashkeel, tatweel, hamza-alef, alef-maqsura and
  ta-marbuta variants that ``normalize`` folds back to the base word;
- the lexicon mixes monosemous and polysemous synsets with 1-4-token
  lemmas, and documents contain lexicon phrases, so semantize rewrites a
  real share of the tokens;
- each query has planted relevant documents that contain a synonym of its
  concept, so expansion changes what is found.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from itertools import accumulate
from pathlib import Path

# Normalized Arabic letters (no hamza-alef, alef maqsura or ta marbuta:
# those only appear as surface variants).
_LETTERS = "ابتثجحخدذرزسشصضطظعغفقكلمنهوي"
_MARKS = "ًٌٍَُِّْ"  # tashkeel, U+064B-U+0652
_TATWEEL = "ـ"
_HAMZA_ALEFS = "أإآ"

# Word length by Zipf rank, cycled. Fixing it per rank (not drawing it) keeps
# the corpus bytes per token, and so the index-to-corpus size ratio, the same
# for every seed.
_LENGTHS = (3, 3, 4, 4, 4, 5, 5, 6, 6, 7)

_SPELLINGS = 4  # surface forms kept per word for document text

# Rank band of each query term position, cycled. Term frequencies, and with
# them query cost, are heavy-tailed: drawing query terms freely would let the
# seed decide how many queries hit a head term.
_QUERY_BANDS = ("mid", "head", "tail", "mid", "tail", "head")


@dataclass(frozen=True)
class Size:
    """Shape of one generated input set."""

    docs: int
    doc_tokens: tuple[int, int]  # inclusive range of tokens per document
    vocab: int
    synsets: int
    queries: int
    query_tokens: tuple[int, int]
    multiword_share: float  # share of lemmas with 2-4 tokens
    polysemous_share: float  # share of synsets that reuse another synset's lemma
    phrase_rate: float  # chance per document position of emitting a lexicon phrase
    diacritic_rate: float  # chance per letter of a tashkeel mark
    stopwords: int = 12
    relevant_per_query: tuple[int, int] = (3, 12)


@dataclass(frozen=True)
class Inputs:
    corpus: Path
    lexicon: Path
    queries: Path
    qrels: Path
    stopwords: Path

    @classmethod
    def at(cls, directory: Path) -> "Inputs":
        """The input file paths inside ``directory``."""
        return cls(
            corpus=directory / "corpus.jsonl",
            lexicon=directory / "lexicon.jsonl",
            queries=directory / "queries.tsv",
            qrels=directory / "qrels.txt",
            stopwords=directory / "stopwords.txt",
        )


class _Words:
    """Vocabulary with a Zipf sampler and a surface-form generator."""

    def __init__(self, rng: random.Random, size: Size):
        self.rng = rng
        self.size = size
        seen: set[str] = set()
        words: list[str] = []
        while len(words) < size.vocab:
            length = _LENGTHS[len(words) % len(_LENGTHS)]
            word = "".join(rng.choice(_LETTERS) for _ in range(length))
            if word not in seen:
                seen.add(word)
                words.append(word)
        self.words = words
        self.cum = list(accumulate(1.0 / (rank + 1) ** 1.05 for rank in range(len(words))))
        self._spellings: dict[str, tuple[str, ...]] = {}

    def zipf(self, k: int) -> list[str]:
        return self.rng.choices(self.words, cum_weights=self.cum, k=k)

    def band(self, lo: float, hi: float) -> str:
        """A uniform pick among the words ranked in [lo, hi) of the vocabulary."""
        n = len(self.words)
        return self.words[self.rng.randrange(int(lo * n), max(int(lo * n) + 1, int(hi * n)))]

    def query_term(self, q: int, j: int) -> str:
        """Term ``j`` of query ``q``: head terms are spread evenly over the
        head band, mid and tail terms drawn uniformly from theirs."""
        n, stop = len(self.words), self.size.stopwords
        head_end, mid_end = stop + max(1, n // 200), max(stop + 2, n // 10)
        band = _QUERY_BANDS[j % len(_QUERY_BANDS)]
        if band == "head":
            return self.words[stop + (61 * q + 17 * j) % (head_end - stop)]
        if band == "mid":
            return self.words[self.rng.randrange(head_end, mid_end)]
        return self.words[self.rng.randrange(mid_end, n)]

    def spell(self, word: str) -> str:
        """One of a few fixed surface forms of ``word`` (cheaper than ``surface``)."""
        spellings = self._spellings.get(word)
        if spellings is None:
            spellings = self._spellings[word] = tuple(self.surface(word) for _ in range(_SPELLINGS))
        return spellings[int(self.rng.random() * _SPELLINGS)]

    def surface(self, word: str) -> str:
        """A spelling of ``word`` that normalizes back to it."""
        rng, rate = self.rng, self.size.diacritic_rate
        if word[0] == "ا" and rng.random() < 0.5:
            word = rng.choice(_HAMZA_ALEFS) + word[1:]
        if word[-1] == "ي" and rng.random() < 0.5:
            word = word[:-1] + "ى"
        elif word[-1] == "ه" and rng.random() < 0.5:
            word = word[:-1] + "ة"
        if rate <= 0.0:
            return word
        out = []
        for i, ch in enumerate(word):
            out.append(ch)
            if rng.random() < rate:
                out.append(rng.choice(_MARKS))
            if i + 1 < len(word) and rng.random() < rate / 4:
                out.append(_TATWEEL)
        return "".join(out)


def _lexicon(words: _Words, size: Size) -> list[list[str]]:
    """Synsets as lists of normalized lemmas; the first is canonical.

    Lemma words come from the upper-middle of the Zipf range so concepts
    occur often enough to matter. Polysemous synsets reuse a lemma of an
    earlier synset, which makes that lemma ambiguous.
    """
    rng = words.rng
    used: set[str] = set()
    synsets: list[list[str]] = []

    def fresh_lemma() -> str:
        while True:
            if rng.random() < size.multiword_share:
                lemma = " ".join(words.band(0.005, 0.3) for _ in range(rng.randint(2, 4)))
            else:
                lemma = words.band(0.02, 0.6)
            if lemma not in used:
                used.add(lemma)
                return lemma

    for _ in range(size.synsets):
        lemmas = [fresh_lemma() for _ in range(rng.randint(2, 4))]
        if synsets and rng.random() < size.polysemous_share:
            lemmas[rng.randrange(1, len(lemmas))] = rng.choice(rng.choice(synsets))
        synsets.append(lemmas)
    return synsets


def generate(seed: int, size: Size, out_dir: Path) -> Inputs:
    """Write corpus, lexicon, queries, qrels and stopwords into ``out_dir``."""
    rng = random.Random(seed)
    words = _Words(rng, size)
    synsets = _lexicon(words, size)
    stop = set(words.words[: size.stopwords])

    # Queries first: each plants its concept's synonyms into its relevant docs.
    queries: list[tuple[str, str]] = []
    plants: dict[int, list[list[str]]] = {}
    qrels: list[tuple[str, str, int]] = []
    lo, hi = size.query_tokens
    for q in range(size.queries):
        qid = f"q{q:04d}"
        n = lo + (q // 2) % (hi - lo + 1)
        lemma = ""
        if q % 2 == 0:
            synset = rng.choice(synsets)
            lemma = rng.choice(synset)
            relevant = [rng.choice(synset).split(" ") for _ in range(rng.randint(*size.relevant_per_query))]
            n = max(0, n - len(lemma.split(" ")))
        terms = [words.query_term(q, j) for j in range(n)]
        if lemma:
            terms.insert(rng.randint(0, len(terms)), lemma)
        else:
            terms = terms or [words.query_term(q, 0)]
            relevant = [[rng.choice(terms)] for _ in range(rng.randint(*size.relevant_per_query))]
        judged = rng.sample(range(size.docs), len(relevant) + 3)
        for d, planted in zip(judged, relevant):
            plants.setdefault(d, []).append(planted)
            qrels.append((qid, f"d{d:06d}", 1))
        for d in judged[len(relevant):]:
            qrels.append((qid, f"d{d:06d}", 0))
        queries.append((qid, " ".join(words.surface(w) for t in terms for w in t.split(" "))))

    lemma_tokens = [lemma.split(" ") for synset in synsets for lemma in synset]
    corpus_lines = []
    lo, hi = size.doc_tokens
    for d in range(size.docs):
        n = rng.randint(lo, hi)
        base = words.zipf(n)
        tokens: list[str] = []
        for word in base:
            if rng.random() < size.phrase_rate:
                tokens.extend(rng.choice(lemma_tokens))
            tokens.append(word)
        for planted in plants.get(d, ()):
            at = rng.randint(0, len(tokens))
            tokens[at:at] = planted
        text = " ".join([words.spell(w) for w in tokens])
        corpus_lines.append(json.dumps({"id": f"d{d:06d}", "text": text}, ensure_ascii=False))

    pos_tags = "nvar"
    lexicon_lines = [
        json.dumps(
            {
                "id": f"s{i:05d}",
                "pos": pos_tags[i % 4],
                "lemmas": [" ".join(words.surface(w) for w in lemma.split(" ")) for lemma in synset],
            },
            ensure_ascii=False,
        )
        for i, synset in enumerate(synsets)
    ]

    out_dir.mkdir(parents=True, exist_ok=True)
    inputs = Inputs.at(out_dir)
    _write(inputs.corpus, corpus_lines)
    _write(inputs.lexicon, lexicon_lines)
    _write(inputs.queries, [f"{qid}\t{text}" for qid, text in queries])
    _write(inputs.qrels, [f"{qid} 0 {doc} {rel}" for qid, doc, rel in sorted(set(qrels))])
    _write(inputs.stopwords, sorted(stop))
    return inputs


def _write(path: Path, lines: list[str]) -> None:
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
