from __future__ import annotations

import io
import re
import string
import unicodedata

import pytest
from hypothesis import given
from hypothesis import strategies as st

from semindex import DataError
from semindex.lexicon import normalize_lemma
from semindex.textnorm import _tokenize_each, load_stopwords, normalize, remove_stopwords, tokenize

from helpers import reference_normalize

# Fuzzing alphabet: Arabic letters, tashkeel and combining hamza/madda
# marks, tatweel, Latin, digits, punctuation, whitespace.
_ALPHABET = (
    [chr(c) for c in range(0x0621, 0x064B)]
    + [chr(c) for c in range(0x064B, 0x0656)]
    + list("ـٰىةABCxyz012 .,!?؟،-\n\t")
)
fuzz_text = st.text(alphabet=_ALPHABET, max_size=50)

# Pieces for the differential test against the translate-based reference:
# every fold input and output, every removed mark, tatweel, the whole ASCII
# upper case, dotted capital I (not lowercased), and alef followed by a
# combining madda, hamza above or hamza below, which NFC composes into
# fold inputs.
_FOLD_PIECES = (
    list("آأإىة")
    + list("ايه")
    + [chr(c) for c in range(0x064B, 0x0656)]
    + ["ـ", "İ", "a", "z", " ", "."]
    + list(string.ascii_uppercase)
    + ["ا\u0653", "ا\u0654", "ا\u0655"]
)
fold_fuzz_text = st.lists(st.sampled_from(_FOLD_PIECES), max_size=40).map("".join)

_TOKEN_CHAR = re.compile(r"[0-9A-Za-zء-٩ٰ-ە]")


class TestNormalize:
    def test_hamza_alef_folding(self):
        assert normalize("إثم") == "اثم"
        assert normalize("أب") == "اب"
        assert normalize("آخر") == "اخر"

    def test_empty(self):
        assert normalize("") == ""

    def test_tashkeel_removed(self):
        assert normalize("كَتَبَ") == "كتب"
        assert normalize("مٌدرِّسة") == "مدرسه"

    def test_tatweel_removed(self):
        assert normalize("كـــتاب") == "كتاب"

    def test_alef_maqsura_to_yeh(self):
        assert normalize("مستشفى") == "مستشفي"

    def test_ta_marbuta_to_ha(self):
        assert normalize("خطيئة") == "خطيئه"

    def test_latin_lowercased(self):
        assert normalize("TREC Run 01") == "trec run 01"

    def test_decomposed_hamza_sequences_fold(self):
        # alef + combining hamza above recomposes under NFC and then folds.
        assert normalize("أثم") == "اثم"

    @given(fuzz_text)
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(fuzz_text)
    def test_never_longer(self, text):
        assert len(normalize(text)) <= len(text)

    @given(fold_fuzz_text)
    def test_equals_translate_reference(self, text):
        assert normalize(text) == reference_normalize(text)


class TestTokenize:
    def test_punctuation_split(self):
        assert tokenize("اثم، خطيئة") == ["اثم", "خطيئه"]

    def test_empty(self):
        assert tokenize("") == []

    def test_separators_only(self):
        assert tokenize(" .,؟! \n") == []

    def test_mixed_scripts(self):
        assert tokenize("BM25 اثم x1") == ["bm25", "اثم", "x1"]

    def test_every_character_but_letters_marks_and_digits_splits(self):
        # U+06D4 ARABIC FULL STOP is punctuation inside the extended Arabic letters.
        assert tokenize("كتاب۔ قلم") == ["كتاب", "قلم"]
        separators = [chr(c) for c in range(0x0700) if unicodedata.category(chr(c))[0] not in "LMN"]
        assert [c for c in separators if tokenize(f"ب{c}ب") != ["ب", "ب"]] == []

    @given(fuzz_text)
    def test_tokens_contain_no_separators(self, text):
        for token in tokenize(text):
            assert token
            assert all(_TOKEN_CHAR.fullmatch(ch) for ch in token)

    @given(fuzz_text)
    def test_normalizing_first_changes_nothing(self, text):
        assert tokenize(normalize(text)) == tokenize(text)

    @given(fuzz_text)
    def test_tokens_are_normalization_fixed_points(self, text):
        for token in tokenize(text):
            assert normalize(token) == token

    @given(fuzz_text)
    def test_deterministic(self, text):
        assert tokenize(text) == tokenize(text)

    def test_suffixes_are_not_stemmed(self):
        assert tokenize("كتابكم كتابها") == ["كتابكم", "كتابها"]


def _is_subsequence(part: list[str], whole: list[str]) -> bool:
    it = iter(whole)
    return all(any(tok == cand for cand in it) for tok in part)


# Lemma pieces for the bulk tokenizer: Arabic letters, every removed mark,
# tatweel, ARABIC FULL STOP, line ends, spaces and ASCII capitals; at each
# end of a lemma, also Hangul jamo and combining accents, which NFC composes
# with a neighbour, and alef and combining madda/hamza, which it folds.
_LEMMA_BODY = st.text(
    alphabet=list("ابتةىأإآي") + [chr(c) for c in range(0x064B, 0x0656)] + ["ـ", "۔", "\n", "\r", " ", "A", "Z"],
    max_size=10,
)
_LEMMA_EDGE = st.text(alphabet=["\u1100", "\u1161", "\u11a8", "\u0300", "\u0301", "e", "ا", "\u0653", "\u0654", "\n"],
                      max_size=2)
lemma_text = st.tuples(_LEMMA_EDGE, _LEMMA_BODY, _LEMMA_EDGE).map("".join)


class TestTokenizeEach:
    @given(st.lists(lemma_text, max_size=8))
    def test_equals_tokenizing_each_text(self, raws):
        assert list(_tokenize_each(raws)) == [tokenize(raw) for raw in raws]
        assert list(map(" ".join, _tokenize_each(raws))) == list(map(normalize_lemma, raws))

    def test_a_line_end_inside_a_text_separates_tokens_of_that_text(self):
        assert list(_tokenize_each(["ا\nب", "ت\u0653", "\u0653"])) == [["ا", "ب"], ["ت"], []]


class TestRemoveStopwords:
    def test_filters(self):
        assert remove_stopwords(["في", "اثم"], {"في"}) == ["اثم"]

    def test_empty_stoplist_is_identity(self):
        tokens = ["اثم", "في", "اثم"]
        assert remove_stopwords(tokens, set()) == tokens

    def test_returns_copy(self):
        tokens = ["اثم"]
        assert remove_stopwords(tokens, set()) is not tokens

    @given(st.lists(st.sampled_from(["ا", "ب", "ت", "x"]), max_size=15),
           st.sets(st.sampled_from(["ا", "ب", "x"])))
    def test_result_is_subsequence_without_stopwords(self, tokens, stoplist):
        result = remove_stopwords(tokens, stoplist)
        assert _is_subsequence(result, tokens)
        assert not set(result) & stoplist
        # everything dropped really was a stopword
        assert len(tokens) - len(result) == sum(1 for t in tokens if t in stoplist)


class TestLoadStopwords:
    def test_reads_and_normalizes(self):
        words = load_stopwords(io.StringIO("فِي\nعَلى\n\nAND\n"))
        assert words == {"في", "علي", "and"}

    def test_empty_file(self):
        assert load_stopwords(io.StringIO("")) == frozenset()

    def test_entries_are_tokens(self):
        # "café" tokenizes to "caf", so only a tokenized entry stops the query "café".
        words = load_stopwords(io.StringIO("café\n«في»\n"))
        assert words == {"caf", "في"}
        assert remove_stopwords(tokenize("café في بيت"), words) == ["بيت"]

    def test_line_without_a_token_is_skipped(self):
        assert load_stopwords(io.StringIO("ـ\nً\n!!\nو\n")) == {"و"}

    def test_line_of_two_tokens_is_data_error(self):
        with pytest.raises(DataError, match="line 2"):
            load_stopwords(io.StringIO("في\nعلى الرغم\n"))
