from __future__ import annotations

import concurrent.futures
import contextlib
import gc
import hashlib
import io
import json
import math
import multiprocessing
import os
import random
import re
import struct
import subprocess
import sys
from array import array
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import semindex
from semindex import (
    DuplicateDocumentError,
    Index,
    IndexFormatError,
    IndexMode,
    build_index,
    build_indexes,
    load_index,
    load_lexicon,
    read_corpus,
    tokenize,
)
from semindex import index as index_module
from semindex._util import is_field
from semindex.config import Config, UsageError, validate_sanity
from semindex.index import ScoredDoc

from helpers import (
    TOKEN_POOL,
    lexicon_jsonl,
    lexicon_strategy,
    make_lexicon,
    random_corpus,
    reference_bm25,
    reference_document_terms,
    reference_ranking,
    reference_scores,
    rows,
    token_stream_strategy,
)


def v3_file(doc_ids, doc_lengths, terms, *, mode=0, version=3, digest="", offsets=None, order="<") -> bytes:
    """Index file bytes written straight from the v3 layout, independently of
    Index.save; ``terms`` holds (term, ordinals, tfs) triples. The header's
    doc count is ``len(doc_lengths)``, and ``offsets`` defaults to the one the
    postings imply. Lone surrogates in names become bytes that are not UTF-8.
    ``order`` is the struct byte order of the four integer columns.
    """

    def blob(names) -> bytes:
        return "\n".join(names).encode("utf-8", "surrogateescape")

    if offsets is None:
        offsets = [0]
        for _, ordinals, _ in terms:
            offsets.append(offsets[-1] + len(ordinals))
    ids, names = blob(doc_ids), blob(term for term, _, _ in terms)
    ordinals = [o for _, term_ordinals, _ in terms for o in term_ordinals]
    tfs = [tf for _, _, term_tfs in terms for tf in term_tfs]
    body = b"SIDX" + struct.pack(
        "<IBIQQQQ", version, mode, len(digest), len(doc_lengths), len(ids), len(terms), len(names)
    )
    body += digest.encode("ascii") + ids + struct.pack(f"{order}{len(doc_lengths)}Q", *doc_lengths)
    body += names + struct.pack(f"{order}{len(offsets)}Q", *offsets)
    body += struct.pack(f"{order}{len(ordinals)}I", *ordinals) + struct.pack(f"{order}{len(tfs)}I", *tfs)
    return body + hashlib.sha256(body).digest()


def sealed(body: bytes) -> bytes:
    """``body`` with a valid checksum, so the loader reads past the checksum."""
    return body + hashlib.sha256(body).digest()


def scores(idx, query, **params) -> dict[str, float]:
    """doc_id -> score of every document ``retrieve`` finds for ``query``."""
    return dict(rows(idx.retrieve(query, **params)))


class TestBuild:
    def test_plain_single_doc(self):
        idx = build_index([("d1", "اثم")], IndexMode.PLAIN)
        assert idx.doc_count == 1
        assert idx.to_jsonable()["doc_lengths"] == {"d1": 1}
        assert idx.postings("اثم") == [("d1", 1)]

    def test_semantic_replaces_terms(self):
        lex = make_lexicon([("s1", "n", ["خطيئة", "إثم"])])
        idx = build_index([("d1", "اثم")], IndexMode.SEMANTIC, lex)
        assert idx.document_frequency("اثم") == 0
        assert idx.document_frequency("خطيئه") == 1

    def test_semantic_requires_lexicon(self):
        with pytest.raises(ValueError, match="requires a lexicon"):
            build_index([("d1", "اثم")], IndexMode.SEMANTIC)

    def test_duplicate_doc_id(self):
        with pytest.raises(DuplicateDocumentError):
            build_index([("d1", "اثم"), ("d1", "ذنب")], IndexMode.PLAIN)

    @pytest.mark.parametrize("doc_id", ["a b", "d\n1", "", "d\ud800"])
    def test_doc_id_that_cannot_be_a_run_field_rejected(self, doc_id):
        # A run line "q1 Q0 a b 1 ..." would not read back, and a lone
        # surrogate cannot be written as UTF-8.
        corpus = [("d0", "اثم"), (doc_id, "ذنب")]
        with pytest.raises(ValueError, match=re.escape(f"doc id {doc_id!r} cannot be a field of a run file")):
            build_indexes(corpus, (IndexMode.PLAIN, IndexMode.SEMANTIC), make_lexicon([("s1", "n", ["اثم"])]))

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, workers):
        for corpus in ([("d1", "اثم"), ("d2", "ذنب")], []):
            with pytest.raises(ValueError, match="workers must be >= 1"):
                build_index(corpus, IndexMode.PLAIN, workers=workers)
            with pytest.raises(ValueError, match="workers must be >= 1"):
                build_indexes(corpus, (IndexMode.PLAIN,), workers=workers)

    def test_stopwords_removed(self):
        idx = build_index([("d1", "في اثم")], IndexMode.PLAIN, stoplist=frozenset({"في"}))
        assert idx.document_frequency("في") == 0
        assert idx.to_jsonable()["doc_lengths"] == {"d1": 1}

    def test_document_frequency_recount_oracle(self):
        # s4's second lemma holds a stopword, which concept matching must see.
        lex = make_lexicon([
            ("s1", "n", ["خطيئة", "إثم"]), ("s2", "n", ["ذنب"]), ("s3", "v", ["ذنب"]), ("s4", "n", ["لاجل", "في سبيل"]),
        ])
        corpus = [("d1", "اثم في البيت"), ("d2", "ذنب و خطيئة"), ("d3", "اثم اثم ذنب"), ("d4", "عمل في سبيل الله")]
        stoplist = frozenset({"في", "و"})
        for mode in IndexMode:
            idx = build_index(corpus, mode, lex, stoplist)
            processed = {
                doc_id: reference_document_terms(text, mode, lex, stoplist)
                for doc_id, text in corpus
            }
            vocabulary = {t for toks in processed.values() for t in toks}
            assert idx.vocabulary_size == len(vocabulary)
            for term in vocabulary:
                expected_df = sum(1 for toks in processed.values() if term in toks)
                assert idx.document_frequency(term) == expected_df
                expected_postings = [
                    (doc_id, processed[doc_id].count(term))
                    for doc_id in sorted(processed)
                    if term in processed[doc_id]
                ]
                assert idx.postings(term) == expected_postings

    def test_doc_length_counts_processed_tokens(self):
        # multiword canonical lemma changes the token count
        lex = make_lexicon([("s1", "n", ["x y", "z"])])
        idx = build_index([("d1", "z a")], IndexMode.SEMANTIC, lex)
        assert idx.to_jsonable()["doc_lengths"] == {"d1": 3}


class TestScore:
    """BM25 scores as ``retrieve`` reports them."""

    def test_zero_when_no_term_present(self):
        idx = build_index([("d1", "اثم"), ("d2", "ذنب")], IndexMode.PLAIN)
        assert scores(idx, ["غائب", "ذنب"]).keys() == {"d2"}

    def test_hand_evaluated_formula_single_doc(self):
        idx = build_index([("d1", "ا ب ا")], IndexMode.PLAIN)
        # N=1, df=1, tf=2, dl=avgdl=3
        idf = math.log(1.0 + (1 - 1 + 0.5) / (1 + 0.5))
        expected = idf * (2 * 2.2) / (2 + 1.2 * (1 - 0.75 + 0.75 * 1.0))
        assert scores(idx, ["ا"])["d1"] == pytest.approx(expected, rel=1e-15)

    def test_matches_reference_on_small_corpus(self):
        texts = {"d1": "ا ب ا ت", "d2": "ب ت ث", "d3": "ا ا ا ا ب"}
        idx = build_index(list(texts.items()), IndexMode.PLAIN)
        corpus_tokens = {d: tokenize(t) for d, t in texts.items()}
        for query in (["ا"], ["ا", "ب"], ["ث", "ث"], ["غائب", "ت"]):
            got = scores(idx, query)
            for doc_id in texts:
                assert got.get(doc_id, 0.0) == reference_bm25(corpus_tokens, query, doc_id)

    def test_duplicate_query_terms_accumulate(self):
        idx = build_index([("d1", "ا ب"), ("d2", "ب ت")], IndexMode.PLAIN)
        single = scores(idx, ["ا"])["d1"]
        double = scores(idx, ["ا", "ا"])["d1"]
        assert double == pytest.approx(2 * single, rel=1e-15)

    def test_tf_monotonicity(self):
        idx = build_index([("d1", "ا ا ب"), ("d2", "ا ب ب")], IndexMode.PLAIN)
        got = scores(idx, ["ا"])
        assert got["d1"] > got["d2"]

    def test_custom_parameters(self):
        idx = build_index([("d1", "ا ا ب")], IndexMode.PLAIN)
        assert scores(idx, ["ا"], k1=2.0, b=0.5) != scores(idx, ["ا"])


class TestRetrieve:
    def test_unknown_terms(self):
        idx = build_index([("d1", "اثم")], IndexMode.PLAIN)
        ranked = idx.retrieve(["غائب"])
        assert (ranked.doc_ids, ranked.scores) == ((), ())
        assert ranked.found_count == 0

    def test_one_kept_document_is_a_one_tuple_per_column(self):
        idx = build_index([("d1", "اثم اثم"), ("d2", "اثم ب")], IndexMode.PLAIN)
        ranked, full = idx.retrieve(["اثم"], depth=1), idx.retrieve(["اثم"])
        assert (ranked.doc_ids, ranked.scores) == (("d1",), full.scores[:1])
        assert ranked.found_count == 2

    def test_empty_query(self):
        idx = build_index([("d1", "اثم")], IndexMode.PLAIN)
        assert idx.retrieve([]).found_count == 0

    @pytest.mark.parametrize(
        "term",
        ["a", "e", "c", "b", "bbb", "dd", ""],
        ids=["before-first", "after-last", "between", "prefix", "extension", "extension-of-last", "empty"],
    )
    def test_term_the_index_lacks_is_found_nowhere(self, term):
        # The index holds "bb" and "d"; a term's number is its position in
        # the sorted terms, so a lacked term must not take a neighbour's.
        idx = build_index([("d1", "bb d"), ("d2", "d")], IndexMode.PLAIN)
        assert idx.terms() == ["bb", "d"]
        ranked = idx.retrieve([term])
        assert (ranked.doc_ids, ranked.found_count) == ((), 0)
        assert (idx.postings(term), idx.document_frequency(term)) == ([], 0)
        assert idx.retrieve([term, "bb", term]) == idx.retrieve(["bb"])
        assert (idx.postings("bb"), idx.postings("d")) == ([("d1", 1)], [("d1", 1), ("d2", 1)])

    def test_each_distinct_term_is_looked_up_once_per_parameters(self, monkeypatch):
        # A term the index lacks is cached like any other: its empty segment
        # spares every later call the bisection.
        idx = build_index([("d1", "bb d"), ("d2", "d")], IndexMode.PLAIN)
        looked_up = Counter()
        span = Index._span

        def counting_span(self, term):
            looked_up[term] += 1
            return span(self, term)

        monkeypatch.setattr(Index, "_span", counting_span)
        query = ["zz", "bb", "zz", "bb"]
        ranked = idx.retrieve(query)
        for depth in (None, 1, None):
            assert idx.retrieve(query, depth) == idx.retrieve(["bb", "bb"], depth)
        assert looked_up == {"zz": 1, "bb": 1}
        assert idx.retrieve(query, k1=2.0).scores != ranked.scores
        assert looked_up == {"zz": 2, "bb": 2}

    @pytest.mark.parametrize("corpus", [[], [("d1", "")]], ids=["no-documents", "no-tokens"])
    def test_empty_index_finds_nothing(self, corpus):
        idx = build_index(corpus, IndexMode.PLAIN)
        for term in ("", "a", "اثم"):
            ranked = idx.retrieve([term])
            assert (ranked.doc_ids, ranked.found_count) == ((), 0)
            assert (idx.postings(term), idx.document_frequency(term)) == ([], 0)

    def test_matches_score_all_and_sort_oracle(self):
        texts = {
            "d1": "ا ب ت",
            "d2": "ا ا ب ب ت ث",
            "d3": "ث ج",
            "d4": "ا",
            "d5": "ب ت ث ج ح",
        }
        idx = build_index(list(texts.items()), IndexMode.PLAIN)
        corpus_tokens = {d: tokenize(t) for d, t in texts.items()}
        for query in (["ا", "ث"], ["ب"], ["ا", "ا", "ج"], ["غائب"]):
            scored = [(d, reference_bm25(corpus_tokens, query, d)) for d in texts]
            positive = [(d, s) for d, s in scored if s > 0]
            expected = sorted(positive, key=lambda item: (-item[1], item[0]))
            ranked = idx.retrieve(query)
            assert rows(ranked) == expected
            assert ranked.found_count == len(expected)

    def test_found_iff_score_positive(self):
        texts = {"d1": "ا ب", "d2": "ت", "d3": "ب ت"}
        idx = build_index(list(texts.items()), IndexMode.PLAIN)
        query = ["ب", "ت"]
        found = scores(idx, query).keys()
        corpus_tokens = {d: tokenize(t) for d, t in texts.items()}
        for doc_id in texts:
            assert (doc_id in found) == (reference_bm25(corpus_tokens, query, doc_id) > 0)

    def test_tie_broken_by_doc_id(self):
        idx = build_index([("b", "ا"), ("a", "ا"), ("c", "ا")], IndexMode.PLAIN)
        ranked = idx.retrieve(["ا"])
        assert [doc_id for doc_id, _ in rows(ranked)] == ["a", "b", "c"]
        assert len(set(ranked.scores)) == 1

    def test_depth_truncation_keeps_found_count(self):
        idx = build_index([(f"d{i}", "ا") for i in range(10)], IndexMode.PLAIN)
        ranked = idx.retrieve(["ا"], depth=3)
        assert len(rows(ranked)) == 3
        assert ranked.found_count == 10

    @pytest.mark.parametrize("depth", [5, 20, None])
    def test_exact_ties_come_in_doc_id_order(self, depth):
        # 24 documents of length 2 hold one of two terms of equal df once, so
        # they tie exactly. The first query term reaches the even ids first;
        # doc ids sort as strings (d0, d1, d10, ...), not in corpus order.
        tied = [(f"d{i}", "ا ب" if i % 2 else "ت ب") for i in range(24)]
        corpus = tied + [("top", "ا ت"), ("miss1", "ب ث"), ("miss2", "ث ج")]
        random.Random(7).shuffle(corpus)
        ranked = build_index(corpus, IndexMode.PLAIN).retrieve(["ت", "ا"], depth)
        expected = ["top"] + sorted(doc_id for doc_id, _ in tied)
        assert [doc_id for doc_id, _ in rows(ranked)] == expected[:depth]
        assert ranked.found_count == 25
        assert len(set(ranked.scores[1:])) == 1

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        idx = build_index([(f"d{i}", "ا") for i in range(3)], IndexMode.PLAIN)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            idx.retrieve(["ا"], depth)

    # Each of these made a found document's score zero, negative or nan, or
    # raised ZeroDivisionError (k1=-1, b=0 makes every norm -1).
    @pytest.mark.parametrize(
        "k1, b",
        [(-1.0, 0.0), (-1.2, 0.75), (math.nan, 0.75), (math.inf, 0.75), (1.2, -0.1), (1.2, 1.5), (1.2, math.nan)],
    )
    def test_bad_bm25_parameters_rejected(self, k1, b):
        idx = build_index([("d1", "ا ب"), ("d2", "ا")], IndexMode.PLAIN)
        idx.retrieve(["ا"])  # a cache for other parameters does not skip the check
        with pytest.raises(ValueError, match="bad BM25 parameters"):
            idx.retrieve(["ا"], k1=k1, b=b)
        with pytest.raises(UsageError, match=re.escape(f"bad BM25 parameters: k1={k1}, b={b}")):
            validate_sanity(Config(k1=k1, b=b))

    @pytest.mark.parametrize("k1, b", [(0.0, 0.0), (0.0, 1.0), (100.0, 0.5)])
    def test_bm25_parameter_bounds_accepted(self, k1, b):
        idx = build_index([("d1", "ا ب"), ("d2", "ا")], IndexMode.PLAIN)
        assert all(score > 0 for score in idx.retrieve(["ا"], k1=k1, b=b).scores)
        validate_sanity(Config(k1=k1, b=b))

    # Match counts one below, at and one above the size where retrieve
    # starts to select the head instead of sorting every match.
    @pytest.mark.parametrize("offset", [-1, 0, 1])
    @pytest.mark.parametrize("depth", [1, 2, 10])
    @settings(max_examples=8, deadline=None)
    @given(
        query=st.lists(st.sampled_from(["ا", "ب", "ت"]), min_size=1, max_size=3),
        extras=st.lists(token_stream_strategy(max_size=3), min_size=1, max_size=4),
        rng=st.randoms(use_true_random=False),
    )
    def test_selection_equals_the_full_sort_on_ties(self, depth, offset, query, extras, rng):
        # Each matching document repeats one of a few term lists, so its
        # score is one of a few values and ties at the floor are many.
        shapes = [[rng.choice(query)] + tokens for tokens in extras]
        found = index_module._SELECT_RATIO * depth + offset
        texts = [" ".join(rng.choice(shapes)) for _ in range(found)]
        texts += [" ".join(rng.choices(["x", "y"], k=rng.randint(1, 3))) for _ in range(rng.randint(0, 5))]
        corpus = [(f"d{i}", text) for i, text in enumerate(texts)]
        rng.shuffle(corpus)
        idx = build_index(corpus, IndexMode.PLAIN)
        corpus_tokens = {doc_id: tokenize(text) for doc_id, text in corpus}
        score_of: dict[str, float] = {}
        scores = {}
        for doc_id, text in corpus:
            if set(corpus_tokens[doc_id]) & set(query):
                if text not in score_of:
                    score_of[text] = reference_bm25(corpus_tokens, query, doc_id)
                scores[doc_id] = score_of[text]
        assert len(scores) == found
        for kept in (depth, found, found + 1, None):
            ranked = idx.retrieve(query, kept)
            expected = reference_ranking(scores, kept)
            assert [(doc_id, score.hex()) for doc_id, score in rows(ranked)] == [
                (doc_id, scores[doc_id].hex()) for doc_id in expected
            ]
            assert ranked.found_count == found

    def test_scores_equal_the_per_term_fold(self):
        """Queries in ascending document frequency make retrieve fold a term
        into the running sums at some positions and the sums into a larger
        term at others; its rankings equal the per-term fold's to the bit."""
        words = [a + b for a in "abcdef" for b in "ghijk"]
        # Word i is drawn len(words) - i times as often as the last one, so
        # document frequencies range from a few documents to most of them.
        vocab = [word for i, word in enumerate(words) for _ in range(len(words) - i)]
        corpus = random_corpus(random.Random(11), n_docs=200, vocab=vocab)
        idx = build_index(corpus, IndexMode.PLAIN)
        holders = {word: {doc_id for doc_id, _ in idx.postings(word)} for word in words}
        rng = random.Random(5)
        queries = []
        for _ in range(20):
            known = rng.sample(words, rng.randint(1, 6))
            query = known + [rng.choice(known), "غائب"]  # a repeated and an unknown term
            queries.append(sorted(query, key=lambda term: (idx.document_frequency(term), term)))
        # Both sides of the fold are taken after a query's first known term,
        # and some document holds three or more of a query's terms.
        sides, most_held = set(), 0
        for query in queries:
            found: set[str] = set()
            for term in query:
                if found:
                    sides.add(idx.document_frequency(term) > len(found))
                found |= holders.get(term, set())
            held = Counter(doc_id for term in set(query) for doc_id in holders.get(term, ()))
            most_held = max(most_held, *held.values())
        assert sides == {True, False}
        assert most_held >= 3
        for k1, b in ((1.2, 0.75), (2.0, 0.3)):
            for query in queries:
                expected_scores = reference_scores(idx, query, k1, b)
                for depth in (1, 2, 10, None):
                    ranked = idx.retrieve(query, depth, k1=k1, b=b)
                    expected = reference_ranking(expected_scores, depth)
                    assert ranked.doc_ids == tuple(expected)
                    assert [score.hex() for score in ranked.scores] == [
                        expected_scores[doc_id].hex() for doc_id in expected
                    ]
                    assert ranked.found_count == len(expected_scores)

    def test_cache_follows_parameters_across_calls(self):
        """Norms and term impacts are cached per (k1, b): interleaved
        parameters and term sets score as a fresh index and as the reference."""
        corpus = random_corpus(random.Random(3), n_docs=30)
        corpus_tokens = {doc_id: tokenize(text) for doc_id, text in corpus}
        idx = build_index(corpus, IndexMode.PLAIN)
        terms = sorted(idx.terms(), key=idx.document_frequency, reverse=True)
        params_a, params_b = (1.2, 0.75), (2.0, 0.3)
        calls = [
            (params_a, terms[:3]),
            (params_b, terms[1:4]),
            (params_a, [terms[0], "غائب", terms[0], terms[4]]),
            ((1.2, 0.3), terms[:3]),  # only b changes
            (params_b, terms[:3]),  # only k1 changes
            (params_a, terms[2:5] + [terms[2]]),
        ]
        for (k1, b), query in calls:
            got = idx.retrieve(query, k1=k1, b=b)
            fresh = build_index(corpus, IndexMode.PLAIN).retrieve(query, k1=k1, b=b)
            as_hex = [(doc_id, score.hex()) for doc_id, score in rows(got)]
            assert as_hex == [(doc_id, score.hex()) for doc_id, score in rows(fresh)]
            assert got.found_count == fresh.found_count > 0
            for doc_id, score in rows(got):
                expected = reference_bm25(corpus_tokens, query, doc_id, k1=k1, b=b)
                assert score.hex() == expected.hex()

    @settings(max_examples=40)
    @given(token_stream_strategy(max_size=5), st.sampled_from(["ا", "ب", "x"]))
    def test_found_count_monotone_in_query_terms(self, query, extra):
        corpus = [("d1", "ا ب ت"), ("d2", "x y"), ("d3", "ب x")]
        idx = build_index(corpus, IndexMode.PLAIN)
        base = idx.retrieve(query).found_count
        assert idx.retrieve(query + [extra]).found_count >= base


    @settings(max_examples=150)
    @given(
        st.lists(token_stream_strategy(max_size=8), max_size=14),
        token_stream_strategy(max_size=5),
        st.one_of(st.none(), st.integers(min_value=1, max_value=6)),
        st.sampled_from([(1.2, 0.75), (0.0, 0.75), (2.0, 0.0), (0.9, 1.0)]),
        st.randoms(use_true_random=False),
    )
    def test_matches_exhaustive_score_oracle(self, docs, query, depth, params, rng):
        corpus = [(f"d{i}", " ".join(tokens)) for i, tokens in enumerate(docs)]
        rng.shuffle(corpus)
        idx = build_index(corpus, IndexMode.PLAIN)
        k1, b = params
        idx.retrieve(query)  # fill the length-norm cache with other parameters first
        full = idx.retrieve(query, k1=k1, b=b)
        corpus_tokens = {doc_id: tokenize(text) for doc_id, text in corpus}
        holders = {doc_id for doc_id, tokens in corpus_tokens.items() if set(tokens) & set(query)}
        assert full.found_count == len(holders)
        assert {doc_id for doc_id, _ in rows(full)} == holders
        for doc_id, score in rows(full):
            expected = reference_bm25(corpus_tokens, query, doc_id, k1=k1, b=b)
            assert score.hex() == expected.hex()
        keys = [(-score, doc_id) for doc_id, score in rows(full)]
        assert keys == sorted(keys)
        reference = {d: reference_bm25(corpus_tokens, query, d, k1=k1, b=b) for d in holders}
        order = sorted(holders, key=lambda d: (-reference[d], d))
        assert list(full.doc_ids) == order
        assert [s.hex() for s in full.scores] == [reference[d].hex() for d in order]
        truncated = idx.retrieve(query, depth, k1=k1, b=b)
        assert (truncated.doc_ids, truncated.scores) == (full.doc_ids[:depth], full.scores[:depth])
        assert truncated.found_count == full.found_count


class TestScoredDoc:
    """``ScoredDoc`` rows, kept for ``RankedList.entries``, which the bench reads."""

    def test_ranked_entries_are_the_rows_of_the_columns(self):
        idx = build_index([("b", "ا ا ب"), ("a", "ا"), ("c", "ب ت"), ("d", "ت")], IndexMode.PLAIN)
        for depth in (None, 2):
            ranked = idx.retrieve(["ا", "ب"], depth)
            expected = [ScoredDoc(d, s, rank) for rank, (d, s) in enumerate(rows(ranked), start=1)]
            assert ranked.entries == tuple(expected)
            assert [entry.rank for entry in ranked.entries] == list(range(1, len(ranked.doc_ids) + 1))
        assert [entry.doc_id for entry in idx.retrieve(["ا", "ب"]).entries] == ["b", "a", "c"]

    def test_positional_and_keyword_construction(self):
        assert ScoredDoc("d1", 0.5, 1) == ScoredDoc(doc_id="d1", score=0.5, rank=1)
        assert ScoredDoc("d1", 0.5, 1) == ("d1", 0.5, 1)

    def test_fields_are_read_only(self):
        entry = ScoredDoc("d1", 0.5, 1)
        with pytest.raises(AttributeError):
            entry.score = 1.0


class TestPersistence:
    def test_empty_round_trip(self, tmp_path):
        idx = build_index([], IndexMode.PLAIN)
        path = tmp_path / "empty.idx"
        idx.save(path)
        loaded = load_index(path)
        assert loaded.doc_count == 0
        assert loaded.vocabulary_size == 0
        assert loaded.mode is IndexMode.PLAIN
        assert loaded.to_jsonable() == idx.to_jsonable()

    def test_random_corpus_round_trip(self, tmp_path):
        rng = random.Random(7)
        corpus = random_corpus(rng, 100)
        idx = build_index(corpus, IndexMode.PLAIN)
        path = tmp_path / "idx.bin"
        idx.save(path)
        loaded = load_index(path)
        assert loaded.to_jsonable() == idx.to_jsonable()
        vocab = sorted({t for _, text in corpus for t in tokenize(text)})
        for _ in range(20):
            query = [rng.choice(vocab) for _ in range(rng.randint(1, 4))]
            assert loaded.retrieve(query) == idx.retrieve(query)

    def test_semantic_header_preserved(self, tmp_path):
        lex = make_lexicon([("s1", "n", ["خطيئة", "إثم"])])
        idx = build_index([("d1", "اثم")], IndexMode.SEMANTIC, lex)
        path = tmp_path / "sem.idx"
        idx.save(path)
        loaded = load_index(path)
        assert loaded.mode is IndexMode.SEMANTIC
        assert loaded.lexicon_digest == lex.digest()

    def test_save_writes_the_v3_layout(self, tmp_path):
        lex = make_lexicon([("s1", "n", ["خطيئة", "إثم"])])
        # d15 has no token characters: length 0 at ordinal 1, and no posting.
        idx = build_index([("d2", "اثم بيت اثم"), ("d1", "بيت"), ("d15", "؟ - !")], IndexMode.SEMANTIC, lex)
        path = tmp_path / "x.idx"
        idx.save(path)
        expected = v3_file(
            ["d1", "d15", "d2"],
            [1, 0, 3],
            [("بيت", [0, 2], [1, 1]), ("خطيئه", [2], [2])],
            mode=1,
            digest=lex.digest(),
        )
        assert path.read_bytes() == expected

    def test_empty_index_layout(self, tmp_path):
        path = tmp_path / "x.idx"
        build_index([], IndexMode.PLAIN).save(path)
        assert path.read_bytes() == v3_file([], [], [])

    def test_newline_in_a_doc_id_cannot_be_saved(self, tmp_path):
        # build_indexes refuses such an id, so the index is made directly.
        columns = (array("Q", [1]), ["اثم"], array("Q", [0, 1]), array("I", [0]), array("I", [1]))
        idx = Index(IndexMode.PLAIN, ["d\n1"], *columns, lexicon_digest="")
        with pytest.raises(ValueError, match="newline"):
            idx.save(tmp_path / "x.idx")

    def test_a_big_endian_host_swaps_each_integer_column(self, tmp_path, monkeypatch):
        # Patched to the host's opposite order (True on a little-endian
        # host), so the integer columns land big-endian either way: swapped
        # from the little-endian file order, and swapped back on load.
        corpus = random_corpus(random.Random(5), 30)
        idx, twin = build_index(corpus, IndexMode.PLAIN), build_index(corpus, IndexMode.PLAIN)
        monkeypatch.setattr(index_module, "_BIG_ENDIAN", sys.byteorder == "little")
        path, again = tmp_path / "x.idx", tmp_path / "again.idx"
        idx.save(path)
        assert path.read_bytes() == v3_file(*spec_of(twin), order=">")
        # save swaps copies: the index it saved from is unchanged.
        queries = [twin.terms()[i : i + 3] for i in range(0, twin.vocabulary_size, 7)]
        assert idx.to_jsonable() == twin.to_jsonable()
        assert [idx.retrieve(q) for q in queries] == [twin.retrieve(q) for q in queries]
        loaded = load_index(path)
        assert loaded.to_jsonable() == twin.to_jsonable()
        assert [loaded.retrieve(q) for q in queries] == [twin.retrieve(q) for q in queries]
        loaded.save(again)
        assert again.read_bytes() == path.read_bytes()

    def test_save_load_save_is_byte_identical(self, tmp_path):
        corpus = random_corpus(random.Random(9), 60)
        first, second = tmp_path / "a.idx", tmp_path / "b.idx"
        build_index(corpus, IndexMode.PLAIN).save(first)
        load_index(first).save(second)
        assert first.read_bytes() == second.read_bytes()

    def test_load_tracks_objects_per_term_and_doc_not_per_posting(self, tmp_path):
        corpus = random_corpus(random.Random(13), 40, min_len=60, max_len=120)
        path = tmp_path / "x.idx"
        build_index(corpus, IndexMode.PLAIN).save(path)
        gc.collect()
        before = len(gc.get_objects())
        loaded = load_index(path)
        added = len(gc.get_objects()) - before
        postings = sum(loaded.document_frequency(t) for t in loaded.terms())
        bound = loaded.vocabulary_size + loaded.doc_count + 20
        assert postings > 5 * bound
        assert added <= bound

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "x.idx"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(IndexFormatError):
            load_index(path)

    def test_version_mismatch(self, tmp_path):
        idx = build_index([("d1", "اثم")], IndexMode.PLAIN)
        path = tmp_path / "x.idx"
        idx.save(path)
        data = bytearray(path.read_bytes())
        data[4] = 99  # bump the version field
        # refresh the checksum so only the version is wrong
        import hashlib

        body = bytes(data[:-32])
        path.write_bytes(body + hashlib.sha256(body).digest())
        with pytest.raises(IndexFormatError, match="version 99 .* rebuild the index with 'semindex index'"):
            load_index(path)

    def test_v1_file_names_the_rebuild(self, tmp_path):
        path = tmp_path / "old.idx"
        for version in (1, 2):
            # The empty index as format v2 wrote it: shorter than a v3 header.
            path.write_bytes(sealed(b"SIDX" + struct.pack("<IBIQQ", version, 0, 0, 0, 0)))
            with pytest.raises(IndexFormatError, match=f"version {version} .* rebuild the index with 'semindex index'"):
                load_index(path)
            path.write_bytes(v3_file(["d1"], [1], [("ا", [0], [1])], version=version))
            with pytest.raises(IndexFormatError, match="rebuild the index with 'semindex index'"):
                load_index(path)

    # One case per loader check. Each spec starts from two documents of
    # length 1 that hold one term once each.
    @pytest.mark.parametrize(
        "fields, message",
        [
            ({"mode": 2}, "mode byte 2"),
            ({"terms": [("ا", [0, 2], [1, 1])]}, "ordinals"),
            ({"terms": [("ا", [1, 0], [1, 1])]}, "ordinals"),
            ({"terms": [("ا", [1, 1], [1, 1])]}, "ordinals"),
            ({"terms": [("ا", [0, 1], [2, 0])]}, "term frequency 0"),
            ({"terms": [("ا", [], []), ("ب", [0, 1], [1, 1])]}, "no postings"),
            ({"terms": [("ب", [0], [1]), ("ا", [1], [1])]}, "out of order"),
            ({"doc_ids": ["d2", "d1"]}, "doc ids"),
            ({"doc_ids": ["d1", "d1"]}, "doc ids"),
            ({"doc_ids": ["d1"]}, "1 doc ids where its header counts 2"),
            ({"doc_ids": ["d1"], "doc_lengths": [], "terms": []}, "1 doc ids where its header counts 0"),
            ({"offsets": [1, 2]}, "start at 0"),
            ({"offsets": [0, 1]}, "bytes of postings"),
            ({"doc_ids": ["d1", "d\udcff"]}, "not UTF-8"),
            ({"doc_lengths": [0, 0]}, "add up"),
            ({"doc_lengths": [1, 2]}, "add up"),
            # Ordinal 2 is out of range at a term's last posting that is not
            # the file's last, and in the middle of a term.
            ({"doc_lengths": [1, 2], "terms": [("ا", [0, 2], [1, 1]), ("ب", [1], [1])]}, "below the doc count 2"),
            ({"doc_lengths": [1, 2], "terms": [("ا", [0, 2, 1], [1, 1, 1])]}, "strictly ascending"),
            ({"doc_ids": ["a b", "d2"]}, "doc id 'a b' cannot be a field of a run file"),
            ({"doc_ids": ["", "d2"]}, "doc id '' cannot be a field of a run file"),
        ],
    )
    def test_structural_violations_rejected(self, tmp_path, fields, message):
        spec = {"doc_ids": ["d1", "d2"], "doc_lengths": [1, 1], "terms": [("ا", [0, 1], [1, 1])]}
        spec.update(fields)
        path = tmp_path / "x.idx"
        path.write_bytes(v3_file(**spec))
        with pytest.raises(IndexFormatError, match=message):
            load_index(path)

    def test_crafted_valid_file_loads(self, tmp_path):
        path = tmp_path / "x.idx"
        path.write_bytes(v3_file(["d1", "d2"], [1, 2], [("ا", [0, 1], [1, 2])]))
        idx = load_index(path)
        assert idx.postings("ا") == [("d1", 1), ("d2", 2)]
        assert idx.to_jsonable()["doc_lengths"] == {"d1": 1, "d2": 2}

    @pytest.mark.parametrize("size", [20, 60])
    def test_truncated_under_a_valid_checksum(self, tmp_path, size):
        # 20 bytes end inside the header, 60 inside the sections it sizes.
        path = tmp_path / "x.idx"
        body = v3_file(["d1", "d2"], [1, 2], [("ا", [0, 1], [1, 2])])[:-32]
        path.write_bytes(sealed(body[:size]))
        with pytest.raises(IndexFormatError, match="truncated"):
            load_index(path)

    def test_checksum_failure(self, tmp_path):
        idx = build_index([("d1", "اثم")], IndexMode.PLAIN)
        path = tmp_path / "x.idx"
        idx.save(path)
        data = bytearray(path.read_bytes())
        data[10] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(IndexFormatError, match="checksum"):
            load_index(path)

    def test_truncated_file(self, tmp_path):
        idx = build_index([("d1", "اثم اثم ذنب")], IndexMode.PLAIN)
        path = tmp_path / "x.idx"
        idx.save(path)
        path.write_bytes(path.read_bytes()[:20])
        with pytest.raises(IndexFormatError):
            load_index(path)


def spec_of(index) -> tuple[list[str], list[int], list[tuple[str, list[int], list[int]]]]:
    """The ``v3_file`` arguments that describe ``index``, read through its public API."""
    form = index.to_jsonable()
    ordinal_of = {doc_id: i for i, doc_id in enumerate(form["doc_lengths"])}
    terms = [
        (term, [ordinal_of[doc_id] for doc_id, _ in pairs], [tf for _, tf in pairs])
        for term, pairs in form["postings"].items()
    ]
    return list(form["doc_lengths"]), list(form["doc_lengths"].values()), terms


def swapped(items: list, i: int) -> list:
    items = list(items)
    items[i], items[i + 1] = items[i + 1], items[i]
    return items


# Byte offset and format of each size field of the v3 header.
HEADER_SIZES = [("<I", 9), ("<Q", 13), ("<Q", 21), ("<Q", 29), ("<Q", 37)]


def mutants(data: bytes, index):
    """Damaged variants of the index file ``data`` of ``index``."""
    body = data[:-32]
    for size in range(len(data)):
        yield data[:size]
        yield sealed(data[:size])
    for bit in range(8 * len(body)):
        flipped = bytearray(body)
        flipped[bit // 8] ^= 1 << (bit % 8)
        yield sealed(bytes(flipped))
    for fmt, offset in HEADER_SIZES:
        (value,) = struct.unpack_from(fmt, body, offset)
        for changed in (value - 1, value + 1):
            if changed >= 0:
                patched = bytearray(body)
                struct.pack_into(fmt, patched, offset, changed)
                yield sealed(bytes(patched))
    doc_ids, doc_lengths, terms = spec_of(index)
    header = {"mode": int(index.mode is IndexMode.SEMANTIC), "digest": index.lexicon_digest}
    for i in range(len(doc_ids) - 1):
        yield v3_file(swapped(doc_ids, i), doc_lengths, terms, **header)
    if doc_ids:
        # A first doc id that a run line would split in two; it still sorts first.
        yield v3_file(["a b", *doc_ids[1:]], doc_lengths, terms, **header)
    for i in range(len(terms) - 1):
        yield v3_file(doc_ids, doc_lengths, swapped(terms, i), **header)
    ordinals = [o for _, term_ordinals, _ in terms for o in term_ordinals]
    for i in range(len(ordinals) - 1):
        column, regrouped = iter(swapped(ordinals, i)), []
        for term, term_ordinals, tfs in terms:
            regrouped.append((term, [next(column) for _ in term_ordinals], tfs))
        yield v3_file(doc_ids, doc_lengths, regrouped, **header)


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


class TestLoaderFuzz:
    @settings(max_examples=6, deadline=None)
    @example(docs=[], mode=IndexMode.PLAIN)
    @example(docs=[["ا"], ["ب", "ا"]], mode=IndexMode.PLAIN)
    @given(
        docs=st.lists(token_stream_strategy(max_size=4), max_size=3),
        mode=st.sampled_from(IndexMode),
    )
    def test_damaged_files_are_refused_or_round_trip(self, workdir, docs, mode):
        lex = make_lexicon([("s1", "n", ["ا", "ب"])])
        index = build_index([(f"d{i}", " ".join(tokens)) for i, tokens in enumerate(docs)], mode, lex)
        path = workdir / "x.idx"
        index.save(path)
        data = path.read_bytes()
        doc_ids, doc_lengths, terms = spec_of(index)
        assert v3_file(doc_ids, doc_lengths, terms, mode=int(mode is IndexMode.SEMANTIC), digest=index.lexicon_digest) == data
        for mutant in mutants(data, index):
            path.write_bytes(mutant)
            try:
                loaded = load_index(path)
            except IndexFormatError:
                continue
            assert all(map(is_field, loaded.to_jsonable()["doc_lengths"]))
            loaded.save(path)
            assert load_index(path).to_jsonable() == loaded.to_jsonable()
            loaded.retrieve(loaded.terms())


@contextlib.contextmanager
def in_process_pool(cpus: int):
    """Builds see ``cpus`` usable CPUs and run their pool's calls in this
    process, so no process starts; yields the size of each pool started."""
    sizes: list[int] = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            sizes.append(max_workers)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, iterable, chunksize=1):
            return map(fn, iterable)

    with pytest.MonkeyPatch.context() as mp:
        # build_indexes imports the pool class when it starts a pool.
        mp.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
        mp.setattr(index_module, "_WORKER_STATE", {})
        mp.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
        yield sizes


# Builds both indexes of the stdin corpus and stoplist with the argv[2]
# lexicon in two workers started by argv[1]. Prints the sizes of the pools
# started and each index's to_jsonable().
PARALLEL_BUILD_SCRIPT = """
import concurrent.futures, json, multiprocessing, os, sys
from semindex import IndexMode, build_indexes, load_lexicon

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    os.sched_getaffinity = lambda pid: {0, 1}  # two usable CPUs, whatever the machine has
    pools = []

    class Pool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    concurrent.futures.ProcessPoolExecutor = Pool
    given = json.load(sys.stdin)
    corpus, stoplist = [tuple(doc) for doc in given["corpus"]], frozenset(given["stoplist"])
    modes = (IndexMode.PLAIN, IndexMode.SEMANTIC)
    indexes = build_indexes(corpus, modes, load_lexicon(sys.argv[2]), stoplist, workers=2)
    print(json.dumps({"pools": pools, "indexes": [index.to_jsonable() for index in indexes]}))
"""


class TestDeterminism:
    def test_rebuild_is_byte_identical(self, tmp_path):
        corpus = random_corpus(random.Random(3), 50)
        shuffled = list(corpus)
        random.Random(4).shuffle(shuffled)
        a = build_index(corpus, IndexMode.PLAIN)
        b = build_index(shuffled, IndexMode.PLAIN)
        p1, p2 = tmp_path / "a.idx", tmp_path / "b.idx"
        a.save(p1)
        b.save(p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_build_equals_serial(self, tmp_path):
        lex = make_lexicon([("s1", "n", ["خطيئة", "إثم"]), ("s2", "n", ["ذنب", "خطا"])])
        corpus = random_corpus(random.Random(11), 40, vocab=["اثم", "ذنب", "خطيئه", "بيت", "x"])
        serial = build_index(corpus, IndexMode.SEMANTIC, lex, workers=1)
        serial.save(tmp_path / "serial.idx")
        for workers in (2, 4):
            parallel = build_index(corpus, IndexMode.SEMANTIC, lex, workers=workers)
            assert serial.to_jsonable() == parallel.to_jsonable()
            parallel.save(tmp_path / "parallel.idx")
            assert (tmp_path / "parallel.idx").read_bytes() == (tmp_path / "serial.idx").read_bytes()

    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_parallel_build_equals_serial_under_start_method(self, tmp_path, method):
        # A spawned or forkserver worker shares no memory with the parent, so
        # its arguments are pickled and semindex is imported afresh.
        if method not in multiprocessing.get_all_start_methods():
            pytest.skip(f"no {method} start method here")
        lexicon = tmp_path / "lexicon.jsonl"
        lexicon.write_text(lexicon_jsonl([("s1", "n", ["خطيئة", "إثم"]), ("s2", "n", ["ذنب", "خطا"])]), "utf-8")
        corpus = random_corpus(random.Random(11), 40, vocab=["اثم", "ذنب", "خطيئه", "بيت", "x"])
        modes, stoplist = (IndexMode.PLAIN, IndexMode.SEMANTIC), frozenset({"بيت"})
        script = tmp_path / "build.py"
        script.write_text(PARALLEL_BUILD_SCRIPT, "utf-8")
        env = {**os.environ, "PYTHONPATH": str(Path(semindex.__file__).parents[1])}
        args = [sys.executable, str(script), method, str(lexicon)]
        given = json.dumps({"corpus": corpus, "stoplist": sorted(stoplist)})
        done = subprocess.run(args, input=given, capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        serial = build_indexes(corpus, modes, load_lexicon(lexicon), stoplist, workers=1)
        assert json.loads(done.stdout) == {"pools": [2], "indexes": [index.to_jsonable() for index in serial]}

    def test_pool_is_no_larger_than_its_input(self):
        """Workers beyond the documents or the usable CPUs are never started."""
        corpus = [("d1", "اثم ذنب"), ("d2", "ذنب"), ("d3", "بيت اثم")]
        serial = build_index(corpus, IndexMode.PLAIN)
        for cpus, expected in ((64, 3), (2, 2)):
            with in_process_pool(cpus) as requested:
                pooled = build_index(corpus, IndexMode.PLAIN, workers=10_000)
            assert requested == [expected]
            assert pooled.to_jsonable() == serial.to_jsonable()

    @settings(max_examples=40, deadline=None)
    @given(
        docs=st.lists(token_stream_strategy(max_size=8), max_size=6),
        lex=lexicon_strategy(),
        stoplist=st.frozensets(st.sampled_from(TOKEN_POOL), max_size=4),
        workers=st.sampled_from([1, 2]),
    )
    def test_one_pass_equals_one_build_per_mode(self, workdir, docs, lex, stoplist, workers):
        """Both indexes from one pass over the documents are those of two
        separate builds, in memory and on disk."""
        corpus = [(f"d{i}", " ".join(tokens)) for i, tokens in enumerate(docs)]
        with in_process_pool(cpus=2) as requested:
            both = build_indexes(corpus, (IndexMode.PLAIN, IndexMode.SEMANTIC), lex, stoplist, workers=workers)
        assert requested == ([2] if workers == 2 and len(corpus) > 1 else [])
        for mode, index in zip((IndexMode.PLAIN, IndexMode.SEMANTIC), both):
            alone = build_index(corpus, mode, lex, stoplist)
            assert index.mode is mode
            assert index.to_jsonable() == alone.to_jsonable()
            index.save(workdir / "one_pass.idx")
            alone.save(workdir / "alone.idx")
            assert (workdir / "one_pass.idx").read_bytes() == (workdir / "alone.idx").read_bytes()

    def test_postings_sorted_ascending(self):
        corpus = random_corpus(random.Random(5), 30)
        idx = build_index(corpus, IndexMode.PLAIN)
        for term in idx.terms():
            ids = [doc_id for doc_id, _ in idx.postings(term)]
            assert ids == sorted(ids)
            assert len(ids) == idx.document_frequency(term)

    def test_average_doc_length_exact(self):
        corpus = [("d1", "ا ب"), ("d2", "ا ب ت ث")]
        idx = build_index(corpus, IndexMode.PLAIN)
        assert idx.average_doc_length == 3.0


class TestReadCorpus:
    def test_valid_lines(self):
        text = '{"id": "d1", "text": "اثم"}\n{"id": "d2", "text": "ذنب"}\n'
        result = read_corpus(io.StringIO(text))
        assert result.documents == [("d1", "اثم"), ("d2", "ذنب")]
        assert result.skipped == []

    def test_bad_lines_skipped_with_reasons(self):
        lines = [
            '{"id": "d1", "text": "اثم"}',
            "{broken",
            '["not", "object"]',
            '{"text": "بلا هوية"}',
            '{"id": "d5", "text": 3}',
        ]
        result = read_corpus(io.StringIO("\n".join(lines)))
        assert [d[0] for d in result.documents] == ["d1"]
        assert [s.line_no for s in result.skipped] == [2, 3, 4, 5]

    @pytest.mark.parametrize("doc_id", ["d 1", "d\t1", " d1", "d1\u00a0", "d\u20031"])
    def test_whitespace_in_id_skipped(self, doc_id):
        line = json.dumps({"id": doc_id, "text": "اثم"})
        result = read_corpus(io.StringIO(line + '\n{"id": "d2", "text": "ذنب"}\n'))
        assert [d[0] for d in result.documents] == ["d2"]
        assert result.skipped[0].line_no == 1
        assert "whitespace" in result.skipped[0].reason

    def test_repeated_id_names_both_lines(self):
        lines = ['{"id": "d1", "text": "اثم"}', '{"id": "d2", "text": "ذنب"}', '{"id": "d1", "text": "بيت"}']
        with pytest.raises(DuplicateDocumentError, match=r"^line 3: duplicate doc_id 'd1' \(first seen on line 1\)$"):
            read_corpus(io.StringIO("\n".join(lines)))

    def test_skipped_record_does_not_claim_its_id(self):
        lines = ['{"id": "d1", "text": 3}', '{"id": "d1", "text": "اثم"}']
        result = read_corpus(io.StringIO("\n".join(lines)))
        assert result.documents == [("d1", "اثم")]
        assert [s.line_no for s in result.skipped] == [1]

    def test_blank_lines_ignored(self):
        result = read_corpus(io.StringIO('\n{"id": "d1", "text": "اثم"}\n\n'))
        assert len(result.documents) == 1
        assert result.skipped == []
