from __future__ import annotations

from collections import Counter
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semindex import Lexicon, expand, match_concepts, semantize, tokenize
from semindex import semantics
from semindex.lexicon import MAX_LEMMA_TOKENS

from helpers import (
    TOKEN_POOL,
    lexicon_strategy,
    make_lexicon,
    reference_match_concepts,
    reference_semantize,
    senses,
    strategy_ids,
    token_stream_strategy,
)

SIN = " ".join(tokenize("خطيئة"))  # canonical in the replacement fixture


@pytest.fixture
def sin_lexicon() -> Lexicon:
    return make_lexicon([("s1", "n", ["خطيئة", "إثم"])])


class TestMatchConcepts:
    def test_single_token_match(self, sin_lexicon):
        matches = match_concepts(["اثم"], sin_lexicon)
        assert len(matches) == 1
        m = matches[0]
        assert (m.start, m.end) == (0, 1)
        assert m.surface_lemma == "اثم"
        assert m.synset_ids == ("s1",)
        assert m.monosemous

    def test_unknown_tokens(self, sin_lexicon):
        assert match_concepts(["غائب", "اخر"], sin_lexicon) == []

    def test_longest_match_wins(self):
        lex = make_lexicon([("s1", "n", ["x y"]), ("s2", "n", ["x"])])
        matches = match_concepts(["x", "y"], lex)
        assert [(m.start, m.end, m.surface_lemma) for m in matches] == [(0, 2, "x y")]
        # oracle: enumerate every candidate window, confirm greedy's pick is
        # the leftmost-longest one
        candidates = []
        tokens = ["x", "y"]
        for start in range(len(tokens)):
            for end in range(start + 1, len(tokens) + 1):
                lemma = " ".join(tokens[start:end])
                if lemma in lex:
                    candidates.append((start, end, lemma))
        best = min(candidates, key=lambda c: (c[0], -(c[1] - c[0])))
        assert (matches[0].start, matches[0].end, matches[0].surface_lemma) == best

    def test_resumes_after_match(self):
        lex = make_lexicon([("s1", "n", ["x y"]), ("s2", "n", ["y"])])
        # After consuming "x y" at 0-2, the second "y" still matches.
        matches = match_concepts(["x", "y", "y"], lex)
        assert [(m.start, m.end) for m in matches] == [(0, 2), (2, 3)]

    def test_polysemous_match_flagged(self):
        lex = make_lexicon([("s1", "n", ["اثم"]), ("s2", "v", ["اثم"])])
        (m,) = match_concepts(["اثم"], lex)
        assert m.synset_ids == ("s1", "s2")
        assert not m.monosemous

    @settings(max_examples=60)
    @given(lexicon_strategy(), token_stream_strategy())
    def test_matches_sorted_disjoint_and_sized(self, lex, tokens):
        matches = match_concepts(tokens, lex)
        prev_end = 0
        for m in matches:
            assert prev_end <= m.start < m.end <= len(tokens)
            assert m.end - m.start == len(m.surface_lemma.split(" "))
            assert m.surface_lemma == " ".join(tokens[m.start : m.end])
            assert m.synset_ids
            assert m.monosemous == (len(m.synset_ids) == 1)
            prev_end = m.end


class TestSemantize:
    def test_replacement(self, sin_lexicon):
        assert semantize(["اثم"], sin_lexicon) == [SIN]

    def test_empty_lexicon_is_identity(self):
        empty = Lexicon()
        tokens = ["اثم", "غائب", "x"]
        assert semantize(tokens, empty) == tokens

    def test_polysemous_tokens_pass_through(self):
        lex = make_lexicon([("s1", "n", ["اثم", "ذنب"]), ("s2", "v", ["اثم"])])
        assert semantize(["اثم"], lex) == ["اثم"]

    def test_unmatched_context_preserved(self, sin_lexicon):
        assert semantize(["في", "اثم", "اخر"], sin_lexicon) == ["في", SIN, "اخر"]

    def test_multiword_span_replaced(self):
        lex = make_lexicon([("s1", "n", ["z", "x y"])])
        assert semantize(["a", "x", "y", "b"], lex) == ["a", "z", "b"]

    def test_multiword_canonical_inserted(self):
        lex = make_lexicon([("s1", "n", ["x y", "z"])])
        assert semantize(["a", "z"], lex) == ["a", "x", "y"]

    def test_canonical_surface_form_survives(self, sin_lexicon):
        assert semantize([SIN], sin_lexicon) == [SIN]

    @settings(max_examples=60)
    @given(lexicon_strategy(max_lemma_tokens=1), token_stream_strategy())
    def test_idempotent_on_single_token_lexicons(self, lex, tokens):
        once = semantize(tokens, lex)
        assert semantize(once, lex) == once

    @settings(max_examples=40)
    @given(token_stream_strategy())
    def test_empty_lexicon_identity_property(self, tokens):
        assert semantize(tokens, Lexicon()) == tokens


class TestExpand:
    def test_synonym_appended_original_kept(self, sin_lexicon):
        assert expand(["اثم"], sin_lexicon) == ["اثم", SIN]

    def test_polysemous_and_unknown_untouched(self):
        lex = make_lexicon([("s1", "n", ["اثم"]), ("s2", "v", ["اثم"])])
        assert expand(["اثم", "غائب"], lex) == ["اثم", "غائب"]

    def test_present_synonym_not_duplicated(self, sin_lexicon):
        assert expand(["اثم", SIN], sin_lexicon) == ["اثم", SIN]

    def test_multiword_lemma_appended_contiguously(self):
        lex = make_lexicon([("s1", "n", ["e", "c d"])])
        assert expand(["e"], lex) == ["e", "c", "d"]

    def test_multiword_presence_detected(self):
        lex = make_lexicon([("s1", "n", ["e", "c d"])])
        assert expand(["e", "c", "d"], lex) == ["e", "c", "d"]
        # the same tokens non-contiguously do not count as present
        assert expand(["e", "c", "x", "d"], lex) == ["e", "c", "x", "d", "c", "d"]

    @settings(max_examples=60)
    @given(lexicon_strategy(), token_stream_strategy())
    def test_output_prefix_is_input(self, lex, tokens):
        out = expand(tokens, lex)
        assert out[: len(tokens)] == tokens

    @settings(max_examples=60)
    @given(lexicon_strategy(), token_stream_strategy())
    def test_input_multiset_contained(self, lex, tokens):
        out = expand(tokens, lex)
        assert not Counter(tokens) - Counter(out)

    @settings(max_examples=40)
    @given(token_stream_strategy())
    def test_empty_lexicon_identity(self, tokens):
        assert expand(tokens, Lexicon()) == tokens


# A four-token pool: lemmas share first tokens and synsets share lemmas
# (polysemy) often, and streams hit the lexicon at most positions.
_SMALL_POOL = TOKEN_POOL[:4]
dense_lexicons = lexicon_strategy(
    max_synsets=8, max_lemma_tokens=MAX_LEMMA_TOKENS, pool=_SMALL_POOL
)
dense_streams = token_stream_strategy(max_size=16, pool=_SMALL_POOL)


class TestAgainstExhaustiveMatcher:
    """The first-token-bounded matcher against the exhaustive reference."""

    @settings(max_examples=200)
    @given(dense_lexicons, dense_streams)
    def test_match_concepts(self, lex, tokens):
        assert match_concepts(tokens, lex) == reference_match_concepts(tokens, lex)

    @settings(max_examples=100)
    @given(dense_lexicons, dense_streams)
    def test_semantize(self, lex, tokens):
        assert semantize(tokens, lex) == reference_semantize(tokens, lex)

    @settings(max_examples=100)
    @given(dense_lexicons, dense_streams)
    def test_expand(self, lex, tokens):
        with mock.patch.object(semantics, "match_concepts", reference_match_concepts):
            expected = expand(tokens, lex)
        assert expand(tokens, lex) == expected

    def test_shared_first_token_tries_every_length(self):
        # "x" starts a 1-, a 2- and a 4-token lemma; the bound is 4, and
        # shorter windows are still tried when the longest one misses.
        lex = make_lexicon([("s1", "n", ["x"]), ("s2", "n", ["x y"]), ("s3", "n", ["x y z w"])])
        tokens = ["x", "y", "z", "x", "y", "z", "w", "x"]
        got = [(m.start, m.end) for m in match_concepts(tokens, lex)]
        assert got == [(0, 2), (3, 7), (7, 8)]
        assert match_concepts(tokens, lex) == reference_match_concepts(tokens, lex)


class TestPhraseGate:
    """Multiword matches are tried only where a lemma's first two tokens stand;
    each case holds for semantize and match_concepts alike."""

    @staticmethod
    def check(lex, tokens, expected):
        assert semantize(tokens, lex) == reference_semantize(tokens, lex) == expected
        assert match_concepts(tokens, lex) == reference_match_concepts(tokens, lex)

    def test_phrase_at_the_end_of_the_stream(self):
        # The 4-token window is the last one the stream holds.
        lex = make_lexicon([("s1", "n", ["p", "x y z w"])])
        self.check(lex, ["w", "x", "y", "z", "w"], ["w", "p"])

    def test_failed_phrase_window_falls_back_to_a_token_rewrite(self):
        # "x y" passes the gate, but neither "x y w" nor "x y" is a lemma.
        lex = make_lexicon([("s1", "n", ["q", "x"]), ("s2", "n", ["x y z"])])
        self.check(lex, ["x", "y", "w", "x", "z"], ["q", "y", "w", "q", "z"])

    def test_token_rewritten_to_a_multiword_canonical_lemma(self):
        lex = make_lexicon([("s1", "n", ["x y z", "w"])])
        self.check(lex, ["w", "a", "w"], ["x", "y", "z", "a", "x", "y", "z"])

    def test_polysemous_phrase_keeps_its_tokens(self):
        # Matched as a phrase, "x y" hides the rewrite its first token has alone.
        lex = make_lexicon([("s1", "n", ["p", "x y"]), ("s2", "v", ["x y"]), ("s3", "n", ["q", "x"])])
        self.check(lex, ["x", "y", "x"], ["x", "y", "q"])

    def test_candidate_inside_an_earlier_phrase_is_skipped(self):
        # "y z" starts inside "x y"; "z" after it is matched on its own.
        lex = make_lexicon([("s1", "n", ["p", "x y"]), ("s2", "n", ["r", "y z"]), ("s3", "n", ["s", "z"])])
        self.check(lex, ["x", "y", "z"], ["p", "s"])

    def test_phrase_windows_stop_at_the_end_of_the_stream(self):
        # "x y z" bounds the windows at "x y" to 3 tokens, but only 2 are left.
        lex = make_lexicon([("s1", "n", ["p", "x y"]), ("s2", "n", ["x y z"])])
        self.check(lex, ["w", "x", "y"], ["w", "p"])
        assert match_concepts(["w", "x", "y"], lex)[-1].end == 3


class TestUnification:
    def test_query_and_document_meet_on_canonical(self, sin_lexicon):
        # query says one synonym, document says the other
        query_tokens = expand(["اثم"], sin_lexicon)
        doc_tokens = semantize([SIN], sin_lexicon)
        assert set(query_tokens) & set(doc_tokens)

    def test_unification_both_directions(self, sin_lexicon):
        query_tokens = expand([SIN], sin_lexicon)
        doc_tokens = semantize(["اثم"], sin_lexicon)
        assert set(query_tokens) & set(doc_tokens)

    @settings(max_examples=60)
    @given(lexicon_strategy(max_lemma_tokens=1), st.data())
    def test_monosemous_synonym_pairs_unify(self, lex, data):
        monosemous = [
            (sid, lemma)
            for sid in strategy_ids(lex)
            for lemma in lex.lemmas_of(sid)
            if senses(lex, lemma) == (sid,)
        ]
        if not monosemous:
            return
        sid, query_lemma = data.draw(st.sampled_from(monosemous))
        doc_candidates = [l for l in lex.lemmas_of(sid) if senses(lex, l) == (sid,)]
        doc_lemma = data.draw(st.sampled_from(doc_candidates))
        query_tokens = expand(query_lemma.split(" "), lex)
        doc_tokens = semantize(doc_lemma.split(" "), lex)
        assert set(query_tokens) & set(doc_tokens)
