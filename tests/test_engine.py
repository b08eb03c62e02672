from __future__ import annotations

import io
import json
import random
import re
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from semindex import (
    DataError,
    IndexMode,
    Lexicon,
    LexiconMismatchWarning,
    Query,
    RankedList,
    Run,
    SearchSystem,
    SearchType,
    build_index,
    build_indexes,
    format_run,
    read_queries,
    read_run,
    write_run,
)
from semindex import engine

from helpers import TOKEN_POOL, lexicon_strategy, make_lexicon, random_corpus, reference_format_run, rows
from helpers import token_stream_strategy

SIN_RECORDS = [("s1", "n", ["خطيئة", "إثم"])]


def build_system(corpus, lex: Lexicon, stoplist=frozenset()) -> SearchSystem:
    return SearchSystem(
        plain_index=build_index(corpus, IndexMode.PLAIN, stoplist=stoplist),
        semantic_index=build_index(corpus, IndexMode.SEMANTIC, lex, stoplist=stoplist),
        lexicon=lex,
        stoplist=stoplist,
    )


class TestSearchType:
    def test_index_and_expansion_mapping(self):
        plain, semantic = IndexMode.PLAIN, IndexMode.SEMANTIC
        assert SearchType.R0.index_mode is plain and not SearchType.R0.expands_query
        assert SearchType.R1.index_mode is semantic and SearchType.R1.expands_query
        assert SearchType.R2.index_mode is plain and SearchType.R2.expands_query
        assert SearchType.R3.index_mode is semantic and not SearchType.R3.expands_query


class TestRunQuery:
    def test_empty_lexicon_collapses_all_types(self):
        corpus = [("d1", "اثم ذنب"), ("d2", "بيت"), ("d3", "ذنب")]
        system = build_system(corpus, Lexicon())
        for text in ("اثم", "ذنب بيت", "غائب"):
            results = [
                system.run_query(Query("q", text), st) for st in SearchType
            ]
            assert all(r == results[0] for r in results[1:])

    def test_expansion_bridges_synonyms(self):
        # document says one synonym, query says the other
        lex = make_lexicon(SIN_RECORDS)
        system = build_system([("d1", "خطيئة")], lex)
        query = Query("q1", "اثم")
        assert system.run_query(query, SearchType.R0).found_count == 0
        assert system.run_query(query, SearchType.R2).found_count == 1
        assert system.run_query(query, SearchType.R1).found_count == 1

    def test_semantic_index_loses_surface_form(self):
        # document says the non-canonical synonym; R3's raw query misses it
        lex = make_lexicon(SIN_RECORDS)
        system = build_system([("d1", "اثم")], lex)
        query = Query("q1", "اثم")
        assert system.run_query(query, SearchType.R3).found_count == 0
        assert system.run_query(query, SearchType.R0).found_count == 1

    def test_stopwords_removed_from_query(self):
        system = build_system([("d1", "اثم")], Lexicon(), stoplist=frozenset({"في"}))
        ranked = system.run_query(Query("q1", "في اثم"), SearchType.R0)
        assert ranked.found_count == 1

    def test_qid_carried(self):
        system = build_system([("d1", "اثم")], Lexicon())
        assert system.run_query(Query("q42", "اثم"), SearchType.R0).qid == "q42"

    @pytest.mark.parametrize("slot", ["missing", "other-mode"])
    @pytest.mark.parametrize("st", SearchType, ids=lambda st: st.value)
    def test_index_gate(self, st, slot):
        # An empty slot and an index of the other mode are one fault. run_query
        # refuses it, and so does batch_run before any query, even for no query.
        indexes = {mode: build_index([], mode, Lexicon()) for mode in IndexMode}
        slots = {f"{mode.value}_index": indexes[mode] for mode in IndexMode}
        other = next(mode for mode in IndexMode if mode is not st.index_mode)
        slots[f"{st.index_mode.value}_index"] = None if slot == "missing" else indexes[other]
        system = SearchSystem(**slots)
        given = "none was given" if slot == "missing" else f"the index given was built in {other.value} mode"
        message = f"^{st.value} requires a {st.index_mode.value} index, but {given}$"
        with pytest.raises(DataError, match=message):
            system.run_query(Query("q", "اثم"), st)
        with pytest.raises(DataError, match=message):
            system.batch_run([], st)

    def test_missing_semantic_index(self):
        system = SearchSystem(plain_index=build_index([], IndexMode.PLAIN))
        with pytest.raises(DataError, match="semantic index, but none was given"):
            system.run_query(Query("q", "اثم"), SearchType.R1)

    def test_lexicon_mismatch_warns_on_expansion(self):
        lex = make_lexicon(SIN_RECORDS)
        other = make_lexicon([("s9", "n", ["بيت", "دار"])])
        semantic = build_index([("d1", "اثم")], IndexMode.SEMANTIC, lex)
        system = SearchSystem(semantic_index=semantic, lexicon=other)
        with pytest.warns(LexiconMismatchWarning):
            system.run_query(Query("q", "بيت"), SearchType.R1)

    def test_matching_lexicon_does_not_warn(self, recwarn):
        lex = make_lexicon(SIN_RECORDS)
        semantic = build_index([("d1", "اثم")], IndexMode.SEMANTIC, lex)
        system = SearchSystem(semantic_index=semantic, lexicon=lex)
        system.run_query(Query("q", "اثم"), SearchType.R1)
        assert not [w for w in recwarn if issubclass(w.category, LexiconMismatchWarning)]

    def test_r2_found_set_contains_r0(self):
        rng = random.Random(23)
        vocab = ["اثم", "ذنب", "خطيئه", "بيت", "دار", "x", "y"]
        for trial in range(25):
            n_synsets = rng.randint(0, 4)
            records = []
            for i in range(n_synsets):
                lemmas = rng.sample(vocab, rng.randint(1, 3))
                records.append((f"s{i}", "n", lemmas))
            lex = make_lexicon(records)
            corpus = random_corpus(rng, rng.randint(1, 8), vocab=vocab, min_len=1, max_len=10)
            system = build_system(corpus, lex)
            query = Query("q", " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3))))
            r0 = set(system.run_query(query, SearchType.R0).doc_ids)
            r2 = set(system.run_query(query, SearchType.R2).doc_ids)
            assert r0 <= r2

    def test_r1_and_r3_produce_valid_rankings(self):
        # replacement can lose or gain matches relative to R0; the only
        # guarantee is a well-formed ranking
        rng = random.Random(31)
        vocab = ["اثم", "ذنب", "خطيئه", "بيت", "دار", "x"]
        for _ in range(25):
            records = [
                (f"s{i}", "n", rng.sample(vocab, rng.randint(1, 3)))
                for i in range(rng.randint(0, 3))
            ]
            lex = make_lexicon(records)
            corpus = random_corpus(rng, rng.randint(1, 6), vocab=vocab, min_len=1, max_len=8)
            system = build_system(corpus, lex)
            query = Query("q", " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 3))))
            for st in (SearchType.R1, SearchType.R3):
                ranked = system.run_query(query, st)
                scores = [score for _, score in rows(ranked)]
                assert all(a >= b for a, b in zip(scores, scores[1:]))
                assert all(s > 0 for s in scores)
                assert ranked.found_count >= len(ranked.doc_ids)


class TestAnalysisOrder:
    """Documents and queries meet concepts before stopwords are removed."""

    # "في" is a stopword inside the lemma "في سبيل"; "x" separates "alpha beta".
    STOPLIST = frozenset({"في", "x"})
    RECORDS = [("s1", "n", ["لاجل", "في سبيل"]), ("s2", "n", ["gamma", "alpha beta"])]

    def terms(self, text, search_type):
        system = SearchSystem(lexicon=make_lexicon(self.RECORDS), stoplist=self.STOPLIST)
        return system.query_terms(Query("q", text), search_type)

    def test_lemma_holding_stopword_rewritten_in_documents(self):
        idx = build_index([("d1", "عمل في سبيل الله")], IndexMode.SEMANTIC, make_lexicon(self.RECORDS), self.STOPLIST)
        assert idx.terms() == sorted(["عمل", "لاجل", "الله"])

    def test_lemma_holding_stopword_expands_queries(self):
        assert self.terms("في سبيل", SearchType.R1) == ["سبيل", "لاجل"]
        assert self.terms("في سبيل", SearchType.R3) == ["سبيل"]

    def test_expansion_adds_no_stopword(self):
        assert self.terms("لاجل", SearchType.R2) == ["لاجل", "سبيل"]

    def test_stopword_between_lemma_tokens_yields_no_concept(self):
        for mode in IndexMode:
            idx = build_index([("d1", "alpha x beta")], mode, make_lexicon(self.RECORDS), self.STOPLIST)
            assert idx.terms() == ["alpha", "beta"]
        assert self.terms("alpha x beta", SearchType.R1) == ["alpha", "beta"]

    @settings(max_examples=80)
    @given(
        lexicon_strategy(pool=TOKEN_POOL[:6]),
        st.frozensets(st.sampled_from(TOKEN_POOL[:6])),
        st.lists(token_stream_strategy(pool=TOKEN_POOL[:6]), max_size=4),
        token_stream_strategy(pool=TOKEN_POOL[:6]),
    )
    def test_no_stopword_survives_analysis(self, lex, stoplist, docs, query_tokens):
        # The stoplist and the lemmas share one token pool, so they overlap.
        corpus = [(f"d{i}", " ".join(tokens)) for i, tokens in enumerate(docs)]
        indexes = build_indexes(corpus, list(IndexMode), lex, stoplist)
        for idx in indexes:
            assert stoplist.isdisjoint(idx.terms())
        system = SearchSystem(*indexes, lexicon=lex, stoplist=stoplist)
        query = Query("q", " ".join(query_tokens))
        terms = {search_type: system.query_terms(query, search_type) for search_type in SearchType}
        for search_type_terms in terms.values():
            assert stoplist.isdisjoint(search_type_terms)
        # Expansion only appends, so R2's terms start with R0's.
        assert terms[SearchType.R2][: len(terms[SearchType.R0])] == terms[SearchType.R0]


class TestBatchRun:
    def test_empty_query_list(self):
        system = build_system([("d1", "اثم")], Lexicon())
        run = system.batch_run([], SearchType.R0)
        assert run.results == ()
        assert format_run(run) == ""

    def test_duplicate_qids_rejected(self):
        system = build_system([("d1", "اثم")], Lexicon())
        with pytest.raises(DataError, match=re.escape("qid 'q1' is given twice")):
            system.batch_run([Query("q1", "اثم"), Query("q1", "ذنب")], SearchType.R0)

    def test_batch_equals_concatenated_singles(self):
        system = build_system([("d1", "اثم ذنب"), ("d2", "ذنب"), ("d3", "بيت")], Lexicon())
        queries = [Query("q1", "اثم"), Query("q2", "ذنب"), Query("q3", "غائب")]
        batch = system.batch_run(queries, SearchType.R0, tag="t")
        singles = "".join(
            format_run(system.batch_run([q], SearchType.R0, tag="t")) for q in queries
        )
        assert format_run(batch) == singles

    def test_rerun_is_identical(self, tmp_path):
        lex = make_lexicon(SIN_RECORDS)
        system = build_system([("d1", "اثم ذنب"), ("d2", "خطيئة")], lex)
        queries = [Query("q1", "اثم"), Query("q2", "بيت")]
        paths = []
        for name in ("a", "b"):
            run = system.batch_run(queries, SearchType.R1, depth=10)
            run_path = tmp_path / f"{name}.run"
            found_path = tmp_path / f"{name}.found.json"
            write_run(run, run_path, found_path)
            paths.append((run_path, found_path))
        assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
        assert paths[0][1].read_bytes() == paths[1][1].read_bytes()

    def test_query_order_preserved(self):
        system = build_system([("d1", "اثم")], Lexicon())
        run = system.batch_run([Query("b", "اثم"), Query("a", "اثم")], SearchType.R0)
        assert [rl.qid for rl in run.results] == ["b", "a"]

    @pytest.mark.parametrize("depth", [0, -1])
    def test_depth_below_one_rejected(self, depth):
        system = build_system([("d1", "اثم"), ("d2", "اثم ذنب")], Lexicon())
        with pytest.raises(ValueError, match="depth must be >= 1"):
            system.run_query(Query("q1", "اثم"), SearchType.R0, depth)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            system.batch_run([Query("q1", "اثم")], SearchType.R2, depth)
        with pytest.raises(ValueError, match="depth must be >= 1"):
            system.batch_run([], SearchType.R2, depth)

    @pytest.mark.parametrize("k1, b", [(-1.0, 0.75), (1.2, 2.0), (float("nan"), 0.75)])
    def test_bad_bm25_parameters_rejected_before_any_query(self, k1, b):
        system = build_system([("d1", "اثم")], Lexicon())
        system.k1, system.b = k1, b
        for queries in ([Query("q1", "اثم")], []):
            with pytest.raises(ValueError, match="bad BM25 parameters"):
                system.batch_run(queries, SearchType.R0)

    def test_index_checked_before_any_query(self):
        # A missing or wrong-mode index fails the batch whatever its queries.
        plain = build_index([], IndexMode.PLAIN)
        with pytest.raises(DataError, match="semantic index, but none was given"):
            SearchSystem(plain_index=plain).batch_run([], SearchType.R1)
        with pytest.raises(DataError, match="plain mode"):
            SearchSystem(semantic_index=plain).batch_run([], SearchType.R3)


class TestRunFiles:
    def test_trec_line_format(self):
        system = build_system([("d1", "اثم")], Lexicon())
        run = system.batch_run([Query("q1", "اثم")], SearchType.R0, tag="mytag")
        line = format_run(run).splitlines()[0]
        qid, q0, doc_id, rank, score, tag = line.split()
        assert (qid, q0, doc_id, rank, tag) == ("q1", "Q0", "d1", "1", "mytag")
        assert len(score.split(".")[1]) == 6

    @given(
        st.text(alphabet="%sdx.", min_size=1, max_size=4),
        st.dictionaries(
            st.text(alphabet="%sdq1", min_size=1, max_size=4),
            st.one_of(*(
                st.lists(st.tuples(st.text(alphabet="%sdx", min_size=1, max_size=3), st.floats()),
                         min_size=low, max_size=high, unique_by=lambda row: row[0])
                for low, high in ((0, 0), (1, 1), (2, 40))
            )),
            max_size=4,
        ),
    )
    def test_format_run_equals_one_line_per_document(self, tag, rankings):
        # One % over a repeated template: a % in a qid, tag or doc id stays text.
        run = Run(tag, tuple(
            RankedList(qid, tuple(doc_id for doc_id, _ in ranking), tuple(score for _, score in ranking), len(ranking))
            for qid, ranking in rankings.items()
        ))
        assert format_run(run) == reference_format_run(run)

    @pytest.mark.parametrize(
        "doc_ids, scores",
        [(("d1", "d2"), (2.0,)), (("d1",), (2.0, 1.0))],
        ids=["fewer-scores", "more-scores"],
    )
    def test_columns_of_unequal_length_are_refused(self, doc_ids, scores):
        # Run owns the rule, so format_run and write_run never meet such a ranking.
        what = f"doc_ids ({len(doc_ids)}) and scores ({len(scores)}) of query 'q1' differ in length"
        with pytest.raises(DataError, match=re.escape(what)):
            Run("t", (RankedList("q1", doc_ids, scores, found_count=2),))

    @pytest.mark.parametrize("failing", ["run", "sidecar"])
    def test_failed_write_leaves_no_stale_pair(self, tmp_path, monkeypatch, failing):
        # Whichever file fails to land, a run file that exists reads back
        # whole with the sidecar written with it, never with the old one's.
        run_path, found_path = tmp_path / "t.run", tmp_path / "t.found.json"
        old = Run("t", (RankedList("q1", ("d1", "d2", "d3"), (3.0, 2.0, 1.0), 3),))
        new = Run("t", (RankedList("q1", ("d9",), (1.0,), 1),))
        write_run(old, run_path, found_path)
        target = run_path if failing == "run" else found_path
        write = engine.atomic_write_text

        def write_or_fail(path, text):
            if Path(path) == target:
                raise OSError("no space left on device")
            write(path, text)

        monkeypatch.setattr(engine, "atomic_write_text", write_or_fail)
        with pytest.raises(OSError, match="no space left"):
            write_run(new, run_path, found_path)
        if run_path.exists():
            assert read_run(run_path, found_path) in (old, new)

    @pytest.mark.parametrize(
        "doc_ids, found", [(("d1", "d2"), 1), ((), -1)], ids=["below-ranked", "negative"]
    )
    def test_found_count_below_the_ranked_documents_refused(self, doc_ids, found):
        # read_run would refuse the sidecar of such a run, so none is made.
        message = f"found count {found} for query 'q1' is below its {len(doc_ids)} ranked documents"
        with pytest.raises(DataError, match=re.escape(message)):
            Run("t", (RankedList("q1", doc_ids, (1.0,) * len(doc_ids), found),))

    def test_ranking_that_lists_a_document_twice_refused(self, tmp_path):
        # read_run would refuse the second line of such a run, so none is
        # made and none is written.
        with pytest.raises(DataError, match=re.escape("document 'd1' is ranked twice for query 'q1'")):
            run = Run("t", (RankedList("q1", ("d1", "d1"), (2.0, 1.0), 2),))
            write_run(run, tmp_path / "x.run", tmp_path / "x.found.json")
        assert not list(tmp_path.iterdir())

    def test_the_document_ranked_twice_is_named(self):
        # The repeated document, not the first one ranked.
        with pytest.raises(DataError, match=re.escape("document 'd2' is ranked twice for query 'q1'")):
            Run("t", (RankedList("q1", ("d1", "d2", "d2"), (3.0, 2.0, 1.0), 3),))

    def test_messages_start_with_the_run_files_name(self, tmp_path):
        # A path, a stream's name or "input stream", for a fault of the
        # sidecar too; a file that is not UTF-8 is named once, by itself.
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 d1\n", encoding="utf-8")
        named = io.StringIO("q1 Q0 d1\n")
        named.name = "named.run"
        for source, name in ((path, str(path)), (named, "named.run"), (io.StringIO("q1 Q0 d1\n"), "input stream")):
            with pytest.raises(DataError) as raised:
                read_run(source)
            assert str(raised.value) == f"{name}: line 1: expected 6 fields, got 3"
        with pytest.raises(DataError) as raised:
            read_run(io.StringIO(""), io.StringIO("[1]"))
        assert str(raised.value) == "input stream: found-count sidecar is not a JSON object"
        path.write_bytes(b"q1 Q0 d\xff 1 1.0 t\n")
        with pytest.raises(DataError) as raised:
            read_run(path)
        assert str(raised.value) == f"{path}: not UTF-8 text (invalid start byte at byte 7)"

    @pytest.mark.parametrize(
        "line, fault",
        [("q\ud800 Q0 d1 1 1.0 t", "qid 'q\\ud800'"), ("q1 Q0 d1 1 1.0 t\ud800", "run tag 't\\ud800'")],
    )
    def test_a_field_no_file_can_hold_names_the_stream(self, line, fault):
        # Only a str stream can hold a lone surrogate; Run refuses it.
        with pytest.raises(DataError) as raised:
            read_run(io.StringIO(line + "\n"))
        assert str(raised.value) == f"input stream: {fault} cannot be a field of a run file"

    @pytest.mark.parametrize("qid, shown", [("q 2", "'q 2'"), ("q\ud800", "'q\\ud800'")], ids=["space", "surrogate"])
    def test_a_sidecar_qid_no_file_can_hold_names_the_run_file(self, tmp_path, qid, shown):
        # A query that found nothing is listed only in the sidecar; Run refuses its qid.
        run_path, found_path = tmp_path / "x.run", tmp_path / "x.found.json"
        run_path.write_text("q1 Q0 d1 1 1.0 t\n", encoding="utf-8")
        found_path.write_text(json.dumps({"q1": 1, qid: 0}), encoding="utf-8")
        with pytest.raises(DataError) as raised:
            read_run(run_path, found_path)
        assert str(raised.value) == f"{run_path}: qid {shown} cannot be a field of a run file"

    def test_lines_with_two_tags_rejected(self):
        run = "q1 Q0 d1 1 2.0 alpha\nq1 Q0 d2 2 1.0 beta\n"
        message = "line 2: run tag 'beta' differs from 'alpha' (first seen on line 1)"
        with pytest.raises(DataError, match=re.escape(message)):
            read_run(io.StringIO(run))
        assert read_run(io.StringIO("q1 Q0 d1 1 2.0 alpha\nq2 Q0 d2 1 1.0 alpha\n")).tag == "alpha"
        assert read_run(io.StringIO("")).tag == engine.DEFAULT_RUN_TAG

    def test_run_that_ranks_nothing_reads_back_with_the_default_tag(self, tmp_path):
        # The TREC format carries the tag only on ranked lines, and the
        # sidecar only the found counts, so such a run cannot keep its tag.
        run_path, found_path = tmp_path / "e.run", tmp_path / "e.found.json"
        write_run(Run("mytag", (RankedList("q1", (), (), 0),)), run_path, found_path)
        assert run_path.read_bytes() == b""
        back = read_run(run_path, found_path)
        assert back == Run("semindex", (RankedList("q1", (), (), 0),))

    @pytest.mark.parametrize(
        "qids, tag, refused",
        [
            (["q 1"], "semindex", "qid 'q 1'"),
            (["q1"], "my tag", "run tag 'my tag'"),
            (["q1", "q1"], "semindex", "qid 'q1' is given twice"),
            (["q\ud800"], "semindex", "qid 'q\\ud800'"),
        ],
        ids=["qid-with-space", "tag-with-space", "duplicate-qid", "surrogate-qid"],
    )
    def test_run_that_cannot_be_read_back_is_refused(self, tmp_path, qids, tag, refused):
        # read_run could not read these lines back, so no such Run is made
        # and none is written.
        system = build_system([("d1", "اثم")], Lexicon())
        queries = [Query(qid, "اثم") for qid in qids]
        with pytest.raises(DataError, match=re.escape(refused)):
            run = Run(tag, tuple(system.run_query(q, SearchType.R0) for q in queries))
            write_run(run, tmp_path / "x.run", tmp_path / "x.found.json")
        with pytest.raises(DataError, match=re.escape(refused)):
            system.batch_run(queries, SearchType.R0, tag=tag)
        assert not list(tmp_path.iterdir())

    def test_round_trip_with_sidecar(self, tmp_path):
        system = build_system([("d1", "اثم ذنب"), ("d2", "ذنب")], Lexicon())
        queries = [Query("q1", "ذنب"), Query("q2", "غائب"), Query("q3", "اثم")]
        run = system.batch_run(queries, SearchType.R0, depth=1, tag="t")
        run_path, found_path = tmp_path / "t.run", tmp_path / "t.found.json"
        write_run(run, run_path, found_path)
        loaded = read_run(run_path, found_path)
        assert [rl.qid for rl in loaded.results] == ["q1", "q2", "q3"]
        by_qid = {rl.qid: rl for rl in loaded.results}
        assert by_qid["q1"].found_count == 2  # truncated to depth 1 but found 2
        assert len(rows(by_qid["q1"])) == 1
        assert by_qid["q2"].found_count == 0
        assert rows(by_qid["q2"]) == []
        original = {rl.qid: rl for rl in run.results}
        for qid, rl in by_qid.items():
            assert rl.found_count == original[qid].found_count
            assert rl.doc_ids == original[qid].doc_ids

    def test_format_read_format_is_byte_identical(self, tmp_path):
        corpus = [(f"d{i}", "اثم ذنب") for i in range(22)] + [("e", "ذنب ذنب"), ("f", "اثم")]
        system = build_system(corpus, Lexicon())
        queries = [Query("q1", "ذنب"), Query("q2", "غائب"), Query("q3", "اثم ذنب")]
        for depth in (5, None):
            text = format_run(system.batch_run(queries, SearchType.R0, depth=depth, tag="t"))
            path = tmp_path / "t.run"
            path.write_text(text, encoding="utf-8")
            assert format_run(read_run(path)) == text

    def test_read_without_sidecar_falls_back_to_length(self, tmp_path):
        system = build_system([("d1", "اثم")], Lexicon())
        run = system.batch_run([Query("q1", "اثم")], SearchType.R0)
        run_path = tmp_path / "t.run"
        run_path.write_text(format_run(run), encoding="utf-8")
        loaded = read_run(run_path)
        assert loaded.results[0].found_count == 1

    def test_malformed_line_reports_number(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 d1 1 0.5 tag\nq1 Q0 d2 2\n", encoding="utf-8")
        with pytest.raises(DataError) as raised:
            read_run(path)
        assert str(raised.value) == f"{path}: line 2: expected 6 fields, got 4"

    def test_sidecar_count_below_the_ranked_lines_rejected(self):
        run = "q1 Q0 d1 1 0.5 t\nq1 Q0 d2 2 0.4 t\nq2 Q0 d3 1 0.3 t\n"
        loaded = read_run(io.StringIO(run), io.StringIO('{"q1": 2, "q2": 1}'))
        assert [rl.found_count for rl in loaded.results] == [2, 1]
        with pytest.raises(DataError, match="sidecar: 1 for query 'q1' is below its 2 ranked lines"):
            read_run(io.StringIO(run), io.StringIO('{"q1": 1, "q2": 1}'))

    def test_document_ranked_twice_under_one_query_rejected(self):
        # Counted twice, d1 would give relevant_found 2 and AP 2.0.
        run = "q1 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t\n"
        with pytest.raises(DataError, match="line 2: document 'd1' ranked twice for query 'q1'"):
            read_run(io.StringIO(run))
        loaded = read_run(io.StringIO("q1 Q0 d1 1 2.0 t\nq2 Q0 d1 1 1.0 t\n"))
        assert [rl.qid for rl in loaded.results] == ["q1", "q2"]

    def test_sidecar_must_list_every_ranked_query(self):
        run = "q1 Q0 d1 1 0.5 t\nq2 Q0 d2 1 0.4 t\n"
        with pytest.raises(DataError, match="sidecar does not list the ranked query 'q1'"):
            read_run(io.StringIO(run), io.StringIO('{"q2": 5}'))
        loaded = read_run(io.StringIO(run), io.StringIO('{"q2": 5, "q1": 1, "q3": 0}'))
        assert [(rl.qid, rl.found_count) for rl in loaded.results] == [("q2", 5), ("q1", 1), ("q3", 0)]

    def test_out_of_order_rank_rejected(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 d1 2 0.5 tag\n", encoding="utf-8")
        with pytest.raises(DataError) as raised:
            read_run(path)
        assert str(raised.value) == f"{path}: line 1: rank 2 out of order for query 'q1'"


class TestReadQueries:
    def test_tsv(self):
        queries = read_queries(io.StringIO("q1\tاثم كبير\nq2\tذنب\n"))
        assert queries == [Query("q1", "اثم كبير"), Query("q2", "ذنب")]

    def test_missing_tab(self):
        with pytest.raises(DataError, match="line 1"):
            read_queries(io.StringIO("q1 اثم\n"))

    def test_blank_qid(self):
        with pytest.raises(DataError, match=r"^input stream: line 1: empty qid$"):
            read_queries(io.StringIO(" \tاثم\n"))

    def test_duplicate_qid(self):
        with pytest.raises(DataError, match="duplicate qid"):
            read_queries(io.StringIO("q1\tاثم\nq1\tذنب\n"))

    def test_blank_lines_skipped(self):
        assert len(read_queries(io.StringIO("\nq1\tاثم\n\n"))) == 1
