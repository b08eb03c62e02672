"""Shared fixture builders and hypothesis strategies."""

from __future__ import annotations

import functools
import hashlib
import io
import json
import math
import operator
import random
import re
import string
import unicodedata
from collections import Counter
from itertools import repeat
from typing import Sequence

from hypothesis import strategies as st

from semindex import Index, IndexMode, Lexicon, RankedList, Run, Synset, load_lexicon, remove_stopwords, semantize
from semindex import tokenize
from semindex._util import TextSource, first_seen, iter_lines, line_error, parse_json
from semindex.evalkit import (
    DEFAULT_PRECISION_CUTOFFS,
    DeltaRecord,
    DeltaReport,
    EvalRecord,
    PrecisionSummary,
    SignBuckets,
    ThreeWayBuckets,
    ThreeWayReport,
    format_percent,
)
from semindex.index import DEFAULT_B, DEFAULT_K1
from semindex.lexicon import MAX_LEMMA_TOKENS, POS_BY_TAG
from semindex.semantics import ConceptMatch, match_concepts

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
    """Random lexicons with unique ids s0..sN (see ``strategy_ids``) over a
    token pool (the shared one by default; a small pool makes lemmas share
    first tokens and synsets share lemmas)."""
    synset_lemmas = st.lists(
        lemma_strategy(max_lemma_tokens, pool), min_size=1, max_size=4, unique=True
    )
    return st.lists(synset_lemmas, min_size=0, max_size=max_synsets).map(
        lambda groups: make_lexicon(
            [(f"s{i}", "n", lemmas) for i, lemmas in enumerate(groups)]
        )
    )


def strategy_ids(lex: Lexicon) -> list[str]:
    """The synset ids of a ``lexicon_strategy`` lexicon, in file order."""
    return [f"s{i}" for i in range(len(lex))]


def senses(lex: Lexicon, lemma: str) -> tuple[str, ...]:
    """A lemma's synset ids as concept matching reads them: those of a
    match spanning the whole lemma, in file order; none for an absent one."""
    matches = match_concepts(lemma.split(" "), lex)
    if matches and matches[0].surface_lemma == lemma:
        return matches[0].synset_ids
    return ()


def token_stream_strategy(max_size: int = 12, pool=TOKEN_POOL):
    return st.lists(st.sampled_from(pool), max_size=max_size)


def reference_document_terms(text: str, mode: IndexMode, lex: Lexicon | None, stoplist) -> list[str]:
    """The terms a document of ``text`` contributes to an index of ``mode``:
    its tokens, semantized for a semantic index, then stopped."""
    tokens = tokenize(text)
    if mode is IndexMode.SEMANTIC:
        tokens = semantize(tokens, lex)
    return remove_stopwords(tokens, stoplist)


@functools.lru_cache(maxsize=4)
def _reference_senses(lex: Lexicon) -> dict[str, list[str]]:
    """lemma -> synset ids in file order, from the stored synset records (the
    loader's output, not the lookup tables that match_concepts reads); a
    lexicon is immutable, so a bench-scale one is read once."""
    senses_of: dict[str, list[str]] = {}
    for syn in lex._synsets.values():
        for lemma in syn.lemmas:
            senses_of.setdefault(lemma, []).append(syn.id)
    return senses_of


def reference_match_concepts(tokens, lex: Lexicon, max_tokens: int | None = None) -> list[ConceptMatch]:
    """Exhaustive greedy leftmost-longest matcher: at every position, every
    window from the rest of the stream (or from ``max_tokens``) down to 1
    token is joined and looked up in a lemma -> synset ids map read from
    the lexicon's synsets in file order."""
    senses_of = _reference_senses(lex)
    matches: list[ConceptMatch] = []
    i, n = 0, len(tokens)
    while i < n:
        for length in range(min(n - i, max_tokens or n), 0, -1):
            lemma = " ".join(tokens[i : i + length])
            synset_ids = senses_of.get(lemma)
            if synset_ids:
                matches.append(ConceptMatch(i, i + length, lemma, tuple(synset_ids)))
                i += length
                break
        else:
            i += 1
    return matches


def reference_semantize(tokens, lex: Lexicon, max_tokens: int | None = None) -> list[str]:
    """semantize as it was before it read the lexicon's rewrite table, over
    ``reference_match_concepts``: each match with exactly one synset is
    replaced by the tokens of that synset's first lemma, and the other
    matches and tokens are copied."""
    out: list[str] = []
    prev_end = 0
    for match in reference_match_concepts(tokens, lex, max_tokens):
        if len(match.synset_ids) == 1:
            out.extend(tokens[prev_end : match.start])
            out.extend(lex.synset(match.synset_ids[0]).lemmas[0].split(" "))
            prev_end = match.end
    out.extend(tokens[prev_end:])
    return out


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


def reference_bm25(corpus_tokens: dict[str, list[str]], query: list[str], doc_id: str,
                   k1: float = 1.2, b: float = 0.75) -> float:
    """From-scratch BM25 over raw token lists, independent of the Index code.

    idf is log(1 + (N - df + 0.5) / (df + 0.5)), and each query-term
    occurrence adds its term's contribution in query order, so duplicate
    terms accumulate.
    """
    n_docs = len(corpus_tokens)
    avgdl = sum(len(toks) for toks in corpus_tokens.values()) / n_docs
    counts = Counter(corpus_tokens[doc_id])
    dl = len(corpus_tokens[doc_id])
    score = 0.0
    for term in query:
        tf = counts.get(term, 0)
        if tf == 0:
            continue
        df = sum(1 for toks in corpus_tokens.values() if term in toks)
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        score += idf * (tf * (k1 + 1.0)) / (tf + k1 * (1.0 - b + b * dl / avgdl))
    return score


def reference_scores(index: Index, terms: list[str], k1: float = DEFAULT_K1,
                     b: float = DEFAULT_B) -> dict[str, float]:
    """doc_id -> BM25 score of every document of ``index`` that holds one of
    ``terms``: the per-term fold ``Index.retrieve`` ran before it folded each
    term into the larger side, kept verbatim over the index's postings. Each
    term adds its impacts to the running sums with one ``scores.get`` + add
    pass, so every score is the query-term-order sum."""
    avgdl = index.average_doc_length
    norms = [k1 * (1.0 - b + b * dl / avgdl) for dl in index._doc_lengths] if avgdl else []
    scores: dict[int, float] = {}
    for term in terms:
        if not index.document_frequency(term):
            continue
        span = index._span(term)
        ordinals, tfs = index._ordinals[span], index._tfs[span]
        idf, k1_plus_1 = index._idf(len(ordinals)), k1 + 1.0
        impacts = [idf * (tf * k1_plus_1) / (tf + norms[o]) for o, tf in zip(ordinals, tfs)]
        # scores[o] = scores.get(o, 0.0) + impact, one C-level pass per term.
        scores.update(
            zip(ordinals, map(operator.add, map(scores.get, ordinals, repeat(0.0)), impacts))
        )
    return {index._doc_ids[o]: score for o, score in scores.items()}


def reference_ranking(scores: dict, depth: int | None) -> list:
    """The keys of ``scores`` best first, ties by ascending key, cut to
    ``depth``: the full sort ``Index.retrieve`` ran on every match before it
    selected the head of shallow rankings, kept verbatim."""
    return sorted(sorted(scores), key=scores.__getitem__, reverse=True)[:depth]


def random_corpus(rng: random.Random, n_docs: int, vocab=None, min_len=3, max_len=40):
    """Deterministic synthetic corpus of (doc_id, text) pairs."""
    vocab = vocab or TOKEN_POOL
    docs = []
    for i in range(n_docs):
        length = rng.randint(min_len, max_len)
        words = [rng.choice(vocab) for _ in range(length)]
        docs.append((f"d{i:05d}", " ".join(words)))
    return docs


def rows(ranked: RankedList) -> list[tuple[str, float]]:
    """(doc_id, score) per rank of ``ranked``, read from its two columns,
    which must have one length."""
    return list(zip(ranked.doc_ids, ranked.scores, strict=True))


# -- reference ranking metrics -------------------------------------------------
#
# The per-ranking P@k and AP functions evalkit had before evaluate_run derived
# every metric from one list of hit ranks, kept (renamed, reading doc_ids) as
# the bit-level oracle.


def reference_precision_at_k(ranked: RankedList, relevant: set[str], k: int) -> float:
    """Fraction of the first k positions holding a relevant document.

    Always divides by k; rankings shorter than k are penalized.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    hits = sum(1 for doc_id in ranked.doc_ids[:k] if doc_id in relevant)
    return hits / k


def reference_average_precision(ranked: RankedList, relevant: set[str]) -> float:
    """Mean of precision values at each relevant document's rank, divided
    by the total number of relevant documents."""
    if not relevant:
        raise ValueError("average_precision needs a non-empty relevance set")
    hits = 0
    acc = 0.0
    for position, doc_id in enumerate(ranked.doc_ids, start=1):
        if doc_id in relevant:
            hits += 1
            acc += hits / position
    return acc / len(relevant)


# -- reference report renderers ------------------------------------------------
#
# The five hand-written renderers evalkit had before they were folded onto
# one table renderer, kept verbatim (renamed) as the byte-level oracle.


def _reference_check_format(fmt: str) -> None:
    if fmt not in ("tsv", "json"):
        raise ValueError(f"unknown report format: {fmt!r}")


def _reference_json_dumps(payload) -> str:
    return json.dumps(payload, ensure_ascii=False, indent=2, sort_keys=False) + "\n"


def reference_render_records(records: Sequence[EvalRecord], fmt: str) -> str:
    """Per-query counts and metrics (the found/relevant table analogue)."""
    cutoffs = DEFAULT_PRECISION_CUTOFFS
    _reference_check_format(fmt)
    if fmt == "json":
        return _reference_json_dumps(
            [
                {
                    "qid": r.qid,
                    "found": r.found,
                    "relevant_found": r.relevant_found,
                    "p_at": {str(k): r.p_at.get(k, 0.0) for k in cutoffs},
                    "ap": r.ap,
                }
                for r in records
            ]
        )
    header = ["qid", "found", "relevant_found"] + [f"p@{k}" for k in cutoffs] + ["ap"]
    lines = ["\t".join(header)]
    for r in records:
        cells = [r.qid, str(r.found), str(r.relevant_found)]
        cells += [str(r.p_at.get(k, 0.0)) for k in cutoffs]
        cells.append(str(r.ap))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def reference_render_summaries(summaries: Sequence[PrecisionSummary], fmt: str) -> str:
    """One row per system: mean/median AP and mean P@k values."""
    cutoffs = DEFAULT_PRECISION_CUTOFFS
    _reference_check_format(fmt)
    if fmt == "json":
        return _reference_json_dumps(
            [
                {
                    "system": s.system,
                    "mean_ap": s.mean_ap,
                    "median_ap": s.median_ap,
                    "mean_p_at": {str(k): s.mean_p_at.get(k, 0.0) for k in cutoffs},
                    "query_count": s.query_count,
                }
                for s in summaries
            ]
        )
    header = ["system", "mean_ap", "median_ap"] + [f"p@{k}" for k in cutoffs] + ["queries"]
    lines = ["\t".join(header)]
    for s in summaries:
        cells = [s.system, str(s.mean_ap), str(s.median_ap)]
        cells += [str(s.mean_p_at.get(k, 0.0)) for k in cutoffs]
        cells.append(str(s.query_count))
        lines.append("\t".join(cells))
    return "\n".join(lines) + "\n"


def reference_render_deltas(records: Sequence[DeltaRecord], fmt: str) -> str:
    _reference_check_format(fmt)
    if fmt == "json":
        return _reference_json_dumps(
            [
                {
                    "qid": r.qid,
                    "found_before": r.found_before,
                    "found_after": r.found_after,
                    "found_delta": r.found_delta,
                    "relevant_before": r.relevant_before,
                    "relevant_after": r.relevant_after,
                    "relevant_delta": r.relevant_delta,
                }
                for r in records
            ]
        )
    header = [
        "qid",
        "found_before",
        "found_after",
        "found_delta",
        "relevant_before",
        "relevant_after",
        "relevant_delta",
    ]
    lines = ["\t".join(header)]
    for r in records:
        lines.append(
            "\t".join(
                str(v)
                for v in (
                    r.qid,
                    r.found_before,
                    r.found_after,
                    r.found_delta,
                    r.relevant_before,
                    r.relevant_after,
                    r.relevant_delta,
                )
            )
        )
    return "\n".join(lines) + "\n"


def _reference_bucket_rows(metric: str, buckets: SignBuckets) -> list[tuple[str, str, int]]:
    return [
        (metric, "delta<0", buckets.negative),
        (metric, "delta=0", buckets.zero),
        (metric, "delta>0", buckets.positive),
    ]


def reference_render_buckets(report: DeltaReport, fmt: str) -> str:
    _reference_check_format(fmt)
    total = report.found.total
    if fmt == "json":
        def entry(buckets: SignBuckets) -> dict:
            return {
                "negative": buckets.negative,
                "zero": buckets.zero,
                "positive": buckets.positive,
                "negative_pct": float(format_percent(buckets.negative, buckets.total)),
                "zero_pct": float(format_percent(buckets.zero, buckets.total)),
                "positive_pct": float(format_percent(buckets.positive, buckets.total)),
            }

        return _reference_json_dumps(
            {"queries": total, "found": entry(report.found), "relevant": entry(report.relevant)}
        )
    lines = ["\t".join(["metric", "bucket", "queries", "percent"])]
    for metric, buckets in (("found", report.found), ("relevant", report.relevant)):
        for name, label, count in _reference_bucket_rows(metric, buckets):
            lines.append(
                "\t".join([name, label, str(count), format_percent(count, buckets.total)])
            )
    return "\n".join(lines) + "\n"


def reference_render_threeway(report: ThreeWayReport, fmt: str) -> str:
    _reference_check_format(fmt)

    def rows(metric: str, buckets: ThreeWayBuckets) -> list[tuple[str, str, int]]:
        out = [
            (metric, f"{label}_wins", wins)
            for label, wins in zip(buckets.labels, buckets.wins)
        ]
        out.append((metric, "all_equal", buckets.all_equal))
        out.append((metric, "partial_tie", buckets.partial_tie))
        return out

    if fmt == "json":
        def entry(buckets: ThreeWayBuckets) -> dict:
            payload = {}
            for _, label, count in rows("", buckets):
                payload[label] = count
                payload[f"{label}_pct"] = float(format_percent(count, buckets.total))
            return payload

        return _reference_json_dumps(
            {
                "queries": report.found.total,
                "labels": list(report.found.labels),
                "found": entry(report.found),
                "relevant": entry(report.relevant),
            }
        )
    lines = ["\t".join(["metric", "bucket", "queries", "percent"])]
    for metric, buckets in (("found", report.found), ("relevant", report.relevant)):
        for name, label, count in rows(metric, buckets):
            lines.append(
                "\t".join([name, label, str(count), format_percent(count, buckets.total)])
            )
    return "\n".join(lines) + "\n"


# -- reference lexicon loader, digest and run formatter ------------------------
#
# The per-item loops load_lexicon, Lexicon.digest and format_run ran before
# each became one pass over a joined string, kept verbatim (renamed) as the
# byte-level oracle.

_REFERENCE_DIGEST_ENCODER = json.JSONEncoder(ensure_ascii=True, separators=(",", ":"))


def _reference_parse_record(source: TextSource, line_no: int, line: str) -> Synset:
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

    lemmas: dict[str, None] = {}
    for raw in raw_lemmas:
        if not isinstance(raw, str):
            raise line_error(source, line_no, f"lemma {raw!r} is not a string")
        lemma = " ".join(tokenize(raw))
        if not lemma:
            raise line_error(source, line_no, f"lemma {raw!r} is empty after normalization")
        if lemma.count(" ") + 1 > MAX_LEMMA_TOKENS:
            raise line_error(source, line_no, f"lemma {raw!r} has more than {MAX_LEMMA_TOKENS} tokens")
        # Duplicates after normalization collapse to the first occurrence.
        lemmas.setdefault(lemma)

    return Synset(id=synset_id, pos=POS_BY_TAG[pos_tag], lemmas=tuple(lemmas))


def reference_load_lexicon(source: TextSource) -> Lexicon:
    """load_lexicon as one pass that normalizes and checks each lemma as it reads its line."""
    synsets: list[Synset] = []
    seen: dict[str, int] = {}
    for line_no, line in iter_lines(source):
        syn = _reference_parse_record(source, line_no, line)
        first_seen(seen, syn.id, source, line_no, f"duplicate synset id {syn.id!r}")
        synsets.append(syn)
    return Lexicon(synsets)


def reference_digest(lex: Lexicon) -> str:
    """Lexicon.digest as one JSON encode and two hash updates per synset."""
    h = hashlib.sha256()
    for sid in sorted(lex._synsets):
        syn = lex._synsets[sid]
        record = _REFERENCE_DIGEST_ENCODER.encode([syn.id, syn.pos, list(syn.lemmas)])
        h.update(record.encode("ascii"))
        h.update(b"\n")
    return h.hexdigest()


def reference_format_run(run: Run) -> str:
    """format_run as one f-string per ranked document."""
    lines = []
    for ranked in run.results:
        for rank, (doc_id, score) in enumerate(zip(ranked.doc_ids, ranked.scores), 1):
            lines.append(f"{ranked.qid} Q0 {doc_id} {rank} {score:.6f} {run.tag}\n")
    return "".join(lines)
