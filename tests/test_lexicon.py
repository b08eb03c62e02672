from __future__ import annotations

import hashlib
import io
import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semindex import DataError, Lexicon, Synset, load_lexicon, match_concepts
from semindex.lexicon import MAX_LEMMA_TOKENS, POS_BY_TAG, normalize_lemma

from helpers import lexicon_jsonl, lexicon_strategy, make_lexicon, reference_digest, reference_load_lexicon, senses
from helpers import strategy_ids


class TestLoad:
    def test_single_record(self):
        lex = make_lexicon([("s1", "n", ["اثم"])])
        assert len(lex) == 1
        assert senses(lex, "اثم") == ("s1",)

    def test_empty_stream(self):
        lex = load_lexicon(io.StringIO(""))
        assert len(lex) == 0
        assert "اثم" not in lex
        assert match_concepts(["اثم"], lex) == []

    def test_lemmas_normalized_at_load(self):
        lex = make_lexicon([("s1", "n", ["إِثْم"])])
        assert senses(lex, "اثم") == ("s1",)
        assert lex.lemmas_of("s1") == ["اثم"]

    def test_blank_lines_skipped(self):
        text = '\n{"id": "s1", "pos": "n", "lemmas": ["اثم"]}\n\n'
        assert len(load_lexicon(io.StringIO(text))) == 1

    def test_relations_field_ignored(self):
        line = json.dumps({"id": "s1", "pos": "n", "lemmas": ["اثم"], "relations": [["hyp", "s9"]]})
        lex = load_lexicon(io.StringIO(line))
        assert lex.lemmas_of("s1") == ["اثم"]

    def test_malformed_json_reports_line(self):
        text = '{"id": "s1", "pos": "n", "lemmas": ["اثم"]}\n{oops\n'
        with pytest.raises(DataError, match="line 2"):
            load_lexicon(io.StringIO(text))

    def test_duplicate_id(self):
        text = lexicon_jsonl([("s1", "n", ["اثم"]), ("s1", "v", ["ذنب"])])
        with pytest.raises(DataError, match="duplicate synset id"):
            load_lexicon(io.StringIO(text))

    def test_duplicate_id_in_synsets_given_directly(self):
        # load_lexicon refuses a repeated id by line first; the constructor
        # keeps its own check for synsets that no file numbered.
        synsets = [Synset("s1", "noun", ("اثم",)), Synset("s1", "verb", ("ذنب",))]
        with pytest.raises(DataError, match=r"^duplicate synset id: 's1'$"):
            Lexicon(synsets)

    def test_lemma_listed_twice_in_synsets_given_directly(self):
        # load_lexicon keeps the first of repeated lemmas; given directly, a
        # repeat would list the synset twice for its lemma, so a single-sense
        # concept would read as polysemous.
        synsets = [Synset("s0", "noun", ("ذنب",)), Synset("s1", "noun", ("اثم", "ذنب", "اثم"))]
        with pytest.raises(DataError, match=r"^synset 's1' lists lemma 'اثم' twice$"):
            Lexicon(synsets)

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"pos": "n", "lemmas": ["اثم"]}, "missing or invalid 'id'"),
            ({"id": "", "pos": "n", "lemmas": ["اثم"]}, "missing or invalid 'id'"),
            ({"id": 7, "pos": "n", "lemmas": ["اثم"]}, "missing or invalid 'id'"),
            ({"id": "s2", "pos": "n", "lemmas": ["اثم", 5]}, "lemma 5 is not a string"),
        ],
    )
    def test_invalid_field_names_its_line(self, record, message):
        text = lexicon_jsonl([("s1", "n", ["ذنب"])]) + "\n" + json.dumps(record, ensure_ascii=False)
        with pytest.raises(DataError, match=f"^input stream: line 2: {re.escape(message)}$"):
            load_lexicon(io.StringIO(text))

    def test_empty_lemma_list(self):
        with pytest.raises(DataError, match="non-empty"):
            load_lexicon(io.StringIO('{"id": "s1", "pos": "n", "lemmas": []}'))

    def test_lemma_empty_after_normalization(self):
        with pytest.raises(DataError, match="empty after normalization"):
            load_lexicon(io.StringIO('{"id": "s1", "pos": "n", "lemmas": ["ًّ"]}'))

    def test_unknown_pos(self):
        with pytest.raises(DataError, match="unknown pos tag"):
            load_lexicon(io.StringIO('{"id": "s1", "pos": "adj", "lemmas": ["اثم"]}'))

    def test_record_not_object(self):
        with pytest.raises(DataError, match="line 1"):
            load_lexicon(io.StringIO('["s1"]'))

    def test_lemma_too_many_tokens(self):
        with pytest.raises(DataError, match="more than 4 tokens"):
            load_lexicon(io.StringIO('{"id": "s1", "pos": "n", "lemmas": ["ا ب ت ث ج"]}'))

    def test_duplicate_lemmas_collapse_keeping_first(self):
        lex = make_lexicon([("s1", "n", ["خطيئة", "إثم", "اثم"])])
        assert lex.lemmas_of("s1") == ["خطيئه", "اثم"]


class TestLookups:
    """Sense lookup as concept matching reads it."""

    def test_absent_lemma(self):
        lex = make_lexicon([("s1", "n", ["اثم"])])
        assert senses(lex, "ذنب") == ()

    def test_single_synset(self):
        lex = make_lexicon([("s1", "n", ["اثم"])])
        assert senses(lex, "اثم") == ("s1",)

    def test_encounter_order(self):
        lex = make_lexicon([("s2", "n", ["اثم"]), ("s1", "v", ["اثم"])])
        assert senses(lex, "اثم") == ("s2", "s1")

    def test_monosemous_single(self):
        lex = make_lexicon([("s1", "n", ["اثم"])])
        assert match_concepts(["اثم"], lex)[0].monosemous

    def test_monosemous_absent(self):
        # No match, so nothing to rewrite or expand.
        lex = make_lexicon([("s1", "n", ["اثم"])])
        assert match_concepts(["ذنب"], lex) == []

    def test_monosemous_two_synsets(self):
        lex = make_lexicon([("s1", "n", ["اثم"]), ("s2", "v", ["اثم"])])
        assert not match_concepts(["اثم"], lex)[0].monosemous

    def test_contains(self):
        lex = make_lexicon([("s1", "n", ["اثم"])])
        assert "اثم" in lex
        assert "ذنب" not in lex


class TestCanonicalLemma:
    def test_first_lemma_wins(self):
        lex = make_lexicon([("s1", "n", ["خطيئة", "اثم"])])
        assert lex.canonical_lemma("s1") == normalize_lemma("خطيئة")

    def test_singleton(self):
        lex = make_lexicon([("s1", "n", ["اثم"])])
        assert lex.canonical_lemma("s1") == "اثم"

    def test_member_of_lemmas(self):
        lex = make_lexicon([("s1", "n", ["خطيئة", "اثم"]), ("s2", "v", ["ذنب"])])
        for sid in ("s1", "s2"):
            assert lex.canonical_lemma(sid) in lex.lemmas_of(sid)

    def test_unknown_synset(self):
        lex = make_lexicon([("s1", "n", ["اثم"])])
        with pytest.raises(KeyError, match="unknown synset"):
            lex.canonical_lemma("nope")


class TestLemmasOf:
    def test_stored_order(self):
        lex = make_lexicon([("s1", "n", ["a", "b"])])
        assert lex.lemmas_of("s1") == ["a", "b"]

    def test_round_trip(self):
        lex = make_lexicon([("s1", "n", ["a", "b"]), ("s2", "v", ["b", "c"])])
        for sid in ("s1", "s2"):
            for lemma in lex.lemmas_of(sid):
                assert sid in senses(lex, lemma)

    def test_transpose_oracle_three_synsets(self):
        records = [("s1", "n", ["a", "b"]), ("s2", "v", ["b"]), ("s3", "n", ["c", "a"])]
        lex = make_lexicon(records)
        all_lemmas = {lemma for _, _, lemmas in records for lemma in lemmas}
        for lemma in all_lemmas | {"zz"}:
            expected = [sid for sid, _, lemmas in records if lemma in lemmas]
            assert list(senses(lex, lemma)) == expected

    def test_unknown_synset(self):
        lex = make_lexicon([("s1", "n", ["a"])])
        with pytest.raises(KeyError):
            lex.lemmas_of("s9")


class TestStats:
    """Lexicon totals (synsets, synsets per POS, distinct lemmas) read
    through ``len``, ``synset`` and ``lemmas_of``."""

    def test_small_fixture(self):
        lex = make_lexicon([("s1", "n", ["a"]), ("s2", "n", ["b"]), ("s3", "v", ["c"])])
        assert len(lex) == 3
        assert [lex.synset(sid).pos for sid in ("s1", "s2", "s3")] == ["noun", "noun", "verb"]
        assert {lemma for sid in ("s1", "s2", "s3") for lemma in lex.lemmas_of(sid)} == {"a", "b", "c"}

    def test_total_equals_accepted_lines(self):
        records = [(f"s{i}", "n", ["a", f"t{i}"]) for i in range(7)]
        lex = make_lexicon(records)
        assert len(lex) == 7

    def test_total_words_counts_distinct_lemmas(self):
        lex = make_lexicon([("s1", "n", ["a", "b"]), ("s2", "v", ["b"])])
        assert {lemma for sid in ("s1", "s2") for lemma in lex.lemmas_of(sid)} == {"a", "b"}
        assert senses(lex, "b") == ("s1", "s2")

    def test_per_pos_sums_to_total(self):
        lex = make_lexicon(
            [("s1", "n", ["a"]), ("s2", "v", ["b"]), ("s3", "a", ["c"]), ("s4", "r", ["d"])]
        )
        per_pos = {pos: 0 for pos in POS_BY_TAG.values()}
        for sid in ("s1", "s2", "s3", "s4"):
            per_pos[lex.synset(sid).pos] += 1
        assert per_pos == dict.fromkeys(POS_BY_TAG.values(), 1)
        assert sum(per_pos.values()) == len(lex) == 4


class TestProperties:
    @settings(max_examples=50)
    @given(lexicon_strategy())
    def test_transpose_rebuild_matches(self, lex: Lexicon):
        rebuilt: dict[str, list[str]] = {}
        for sid in strategy_ids(lex):
            for lemma in lex.lemmas_of(sid):
                rebuilt.setdefault(lemma, []).append(sid)
        for lemma, sids in rebuilt.items():
            assert list(senses(lex, lemma)) == sids
            assert lemma in lex

    @settings(max_examples=50)
    @given(lexicon_strategy())
    def test_monosemy_definition(self, lex: Lexicon):
        sense_counts: dict[str, int] = {}
        for sid in strategy_ids(lex):
            for lemma in lex.lemmas_of(sid):
                sense_counts[lemma] = sense_counts.get(lemma, 0) + 1
        for lemma, count in sense_counts.items():
            assert match_concepts(lemma.split(" "), lex)[0].monosemous == (count == 1)
        assert match_concepts(["غائب"], lex) == []

    def test_deterministic_reload(self):
        text = lexicon_jsonl(
            [("s1", "n", ["خطيئة", "اثم"]), ("s2", "v", ["ذنب", "خطا"])]
        )
        first = load_lexicon(io.StringIO(text))
        second = load_lexicon(io.StringIO(text))
        assert first.digest() == second.digest()
        for sid in ("s1", "s2"):
            assert first.canonical_lemma(sid) == second.canonical_lemma(sid)

    def test_digest_changes_with_content(self):
        a = make_lexicon([("s1", "n", ["اثم"])])
        b = make_lexicon([("s1", "n", ["ذنب"])])
        assert a.digest() != b.digest()


# Lemmas of a generated lexicon file: ones that load, ones that normalize
# alike, and each lemma fault (not a string, empty after normalization, more
# than MAX_LEMMA_TOKENS tokens).
_GOOD_LEMMAS = ["اثم", "إثم", "ذنب خطا", "ا ب ت ث", "X\ny", "ـكتاب", "كَتَبَ"]
_BAD_LEMMAS = [1, None, ["ا"], "", "ً", "!!", " ".join("ابتثج"[: MAX_LEMMA_TOKENS + 1]), "ا\nب\nت\nث\nج"]


def _record(synset_id, lemmas, pos="n") -> str:
    return json.dumps({"id": synset_id, "pos": pos, "lemmas": lemmas}, ensure_ascii=False)


_good_line = st.builds(_record, st.sampled_from(["s1", "s2", "s3", "s4", "s5", "s6"]),
                       st.lists(st.sampled_from(_GOOD_LEMMAS), min_size=1, max_size=4))
_any_line = st.one_of(
    _good_line,
    st.builds(_record, st.sampled_from(["s1", "s2", "s3"]),
              st.lists(st.sampled_from(_GOOD_LEMMAS + _BAD_LEMMAS), min_size=1, max_size=5)),
    st.sampled_from(["{bad json", "[1]", _record("", ["ا"]), _record("s9", ["ا"], pos="x"), _record("s9", []),
                     "   "]),
)


def _outcome(load, text: str) -> tuple[str | None, list | None, str | None]:
    """(error message, synsets in file order, digest by the reference) of loading ``text``."""
    try:
        lex = load(io.StringIO(text))
    except DataError as exc:
        return str(exc), None, None
    return None, list(lex._synsets.items()), reference_digest(lex)


class TestAgainstTheReferenceLoader:
    """load_lexicon normalizes the file's lemmas in one pass; the reference checks each as it reads it."""

    @settings(max_examples=300)
    @given(st.lists(_any_line, max_size=6))
    def test_the_first_fault_wins_as_in_the_reference(self, lines):
        text = "\n".join(lines)
        assert _outcome(load_lexicon, text) == _outcome(reference_load_lexicon, text)

    @settings(max_examples=100)
    @given(st.lists(st.lists(st.sampled_from(_GOOD_LEMMAS), min_size=1, max_size=4), max_size=6))
    def test_a_file_without_a_fault_loads_the_reference_lexicon(self, groups):
        text = "\n".join(_record(f"s{i}", lemmas) for i, lemmas in enumerate(groups))
        error, synsets, digest = _outcome(load_lexicon, text)
        assert (error, synsets, digest) == _outcome(reference_load_lexicon, text)
        assert error is None and load_lexicon(io.StringIO(text)).digest() == digest

    @pytest.mark.parametrize("lemmas, fault", [
        (["ا", 1, ""], "lemma 1 is not a string"),
        (["ا", "", 1], "lemma '' is empty after normalization"),
        (["ً", "ا ب ت ث ج"], "lemma 'ً' is empty after normalization"),
        (["ا ب ت ث ج", None], "lemma 'ا ب ت ث ج' has more than 4 tokens"),
    ])
    def test_a_line_reports_its_first_lemma_fault(self, lemmas, fault):
        text = _record("s1", lemmas)
        assert _outcome(load_lexicon, text)[0] == f"input stream: line 1: {fault}"

    def test_a_repeated_id_comes_after_its_line_lemma_faults(self):
        text = "\n".join([_record("s1", ["ا"]), _record("s2", ["ب"]), _record("s1", ["ت", "ً"])])
        assert _outcome(load_lexicon, text)[0] == "input stream: line 3: lemma 'ً' is empty after normalization"
        text = "\n".join([_record("s1", ["ا"]), _record("s1", ["ت"]), _record("s2", ["ً"])])
        assert _outcome(load_lexicon, text)[0] == (
            "input stream: line 2: duplicate synset id 's1' (first seen on line 1)")


_DIGEST_TEXT = st.text(alphabet=['"', "\\", "\x00", "\x1f", "\x7f", "\n", "\ud800", "\udfff", "\U0001f600", "\u00e9",
                                 "ا", " ", "/", "a"], min_size=1, max_size=6)


class TestDigest:
    @given(st.dictionaries(_DIGEST_TEXT, st.tuples(_DIGEST_TEXT, st.lists(_DIGEST_TEXT, min_size=1, max_size=3,
                                                                          unique=True)), max_size=5))
    def test_equals_the_reference_listing(self, records):
        lex = Lexicon(Synset(sid, pos, tuple(lemmas)) for sid, (pos, lemmas) in records.items())
        assert lex.digest() == reference_digest(lex)

    def test_is_the_sha256_of_the_listing(self):
        lex = Lexicon([Synset("s2", "noun", ("b",)), Synset("s1", "verb", ("\u0627", 'q"\\'))])
        listing = '["s1","verb",["\\u0627","q\\"\\\\"]]\n["s2","noun",["b"]]\n'
        assert lex.digest() == hashlib.sha256(listing.encode("ascii")).hexdigest()
