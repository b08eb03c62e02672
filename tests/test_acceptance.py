"""Acceptance gate: one test per release criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS/FAIL line
per criterion. Criterion 9 needs operator-supplied lexicon data and skips
when it is absent (see its docstring).
"""

from __future__ import annotations

import json
import os
import random
import time
from collections import Counter
from contextlib import contextmanager

import pytest

from semindex import (
    EvalRecord,
    IndexMode,
    Lexicon,
    Query,
    RankedList,
    Run,
    SearchSystem,
    SearchType,
    build_index,
    delta_report,
    evaluate_run,
    load_index,
    load_lexicon,
)
from semindex.cli import main
from semindex.evalkit import format_percent

from helpers import lexicon_jsonl, make_lexicon, random_corpus


@contextmanager
def criterion(number: int, title: str):
    try:
        yield
    except BaseException as exc:
        label = "SKIP" if isinstance(exc, pytest.skip.Exception) else "FAIL"
        print(f"\n[criterion {number}] {label}: {title}")
        raise
    print(f"\n[criterion {number}] PASS: {title}")


def record(qid: str, found: int, relevant: int) -> EvalRecord:
    return EvalRecord(qid=qid, found=found, relevant_found=relevant, p_at={}, ap=0.0)


# Reference per-query (found, relevant-found) counts for the four
# configurations, for queries 1, 2, 3, 4, 49, 50, 70.
REFERENCE_COUNTS = {
    "1": {"R0": (405, 164), "R1": (11588, 6287), "R2": (518, 329), "R3": (8937, 6092)},
    "2": {"R0": (674, 272), "R1": (9332, 5071), "R2": (2579, 1630), "R3": (1914, 1265)},
    "3": {"R0": (366, 96), "R1": (4237, 2225), "R2": (3560, 2163), "R3": (357, 95)},
    "4": {"R0": (3539, 361), "R1": (17687, 10985), "R2": (9825, 5564), "R3": (3781, 2438)},
    "49": {"R0": (681, 423), "R1": (6652, 3161), "R2": (4860, 1414), "R3": (663, 423)},
    "50": {"R0": (1578, 1129), "R1": (6163, 5267), "R2": (1938, 1154), "R3": (3077, 1451)},
    "70": {"R0": (170, 50), "R1": (7176, 3071), "R2": (573, 297), "R3": (155, 49)},
}


def test_criterion_1_reference_count_deltas():
    with criterion(1, "reference per-query counts reproduce exact integer deltas"):
        start = time.perf_counter()
        baseline = [record(q, *row["R0"]) for q, row in REFERENCE_COUNTS.items()]
        for system in ("R1", "R2", "R3"):
            treatment = [record(q, *row[system]) for q, row in REFERENCE_COUNTS.items()]
            report = delta_report(baseline, treatment)
            for rec in report.records:
                base_found, base_rel = REFERENCE_COUNTS[rec.qid]["R0"]
                new_found, new_rel = REFERENCE_COUNTS[rec.qid][system]
                assert rec.found_delta == new_found - base_found
                assert rec.relevant_delta == new_rel - base_rel
            by_qid = {r.qid: r for r in report.records}
            if system == "R1":
                assert by_qid["1"].found_delta == 11183
                assert by_qid["1"].relevant_delta == 6123
            if system == "R3":
                assert by_qid["70"].found_delta == -15
                assert by_qid["70"].relevant_delta == -1
        assert time.perf_counter() - start < 1.0


def test_criterion_2_sign_bucket_percentages():
    with criterion(2, "70-query planted sign pattern gives 0.00/12.86/87.14 buckets"):
        start = time.perf_counter()
        before = [record(f"q{i}", 200, 100) for i in range(70)]
        after = [
            record(f"q{i}", 200 + (0 if i < 9 else 3 + i), 100) for i in range(70)
        ]
        report = delta_report(before, after)
        buckets = report.found
        assert (buckets.negative, buckets.zero, buckets.positive) == (0, 9, 61)
        rendered = (
            float(format_percent(buckets.negative, buckets.total)),
            float(format_percent(buckets.zero, buckets.total)),
            float(format_percent(buckets.positive, buckets.total)),
        )
        for got, expected in zip(rendered, (0.00, 12.86, 87.14)):
            assert abs(got - expected) <= 0.02
        assert time.perf_counter() - start < 1.0


def test_criterion_3_metric_oracle_equivalence():
    with criterion(3, "P@k and AP match brute-force oracles on 1000 random instances"):
        start = time.perf_counter()
        rng = random.Random(2024)
        universe = [f"d{i}" for i in range(80)]

        def oracle_p_at_k(doc_ids, relevant, k):
            hits = 0
            for position in range(1, k + 1):
                if position <= len(doc_ids) and doc_ids[position - 1] in relevant:
                    hits += 1
            return hits / k

        def oracle_ap(doc_ids, relevant):
            total = 0.0
            for position in range(1, len(doc_ids) + 1):
                if doc_ids[position - 1] in relevant:
                    total += oracle_p_at_k(doc_ids, relevant, position)
            return total / len(relevant)

        for _ in range(1000):
            doc_ids = rng.sample(universe, rng.randint(0, 50))
            relevant = set(rng.sample(universe, rng.randint(1, 30)))
            scores = tuple(float(len(doc_ids) - i) for i in range(len(doc_ids)))
            ranked = RankedList("q", tuple(doc_ids), scores, found_count=len(doc_ids))
            (record,) = evaluate_run(Run("t", (ranked,)), {"q": relevant}, "R0").records
            for k in (5, 10, 20, 100, 1000):
                assert record.p_at[k] == oracle_p_at_k(doc_ids, relevant, k)
            assert abs(record.ap - oracle_ap(doc_ids, relevant)) <= 1e-12
        assert time.perf_counter() - start < 10.0


def _synonym_fixture_system() -> SearchSystem:
    lex = make_lexicon([("s1", "n", ["خطيئة", "إثم"])])
    corpus = [
        ("d1", "خطيئة"),
        ("d2", "بيت واسع"),
        ("d3", "شجرة خضراء"),
        ("d4", "علم نافع"),
        ("d5", "بحر عميق"),
    ]
    return SearchSystem(
        plain_index=build_index(corpus, IndexMode.PLAIN),
        semantic_index=build_index(corpus, IndexMode.SEMANTIC, lex),
        lexicon=lex,
    )


def test_criterion_4_synonym_unification():
    with criterion(4, "monosemous synonym bridges query and document (R1/R2 find, R0 misses)"):
        start = time.perf_counter()
        system = _synonym_fixture_system()
        query = Query("q1", "اثم")
        assert system.run_query(query, SearchType.R0).found_count == 0
        assert system.run_query(query, SearchType.R1).found_count == 1
        assert system.run_query(query, SearchType.R2).found_count == 1
        assert time.perf_counter() - start < 1.0


def test_criterion_5_semantic_rewrite_hides_surface_form():
    with criterion(5, "document rewritten to canonical lemma is invisible to a raw R3 query"):
        lex = make_lexicon([("s1", "n", ["خطيئة", "إثم"])])
        corpus = [("d1", "اثم"), ("d2", "بيت")]
        system = SearchSystem(
            plain_index=build_index(corpus, IndexMode.PLAIN),
            semantic_index=build_index(corpus, IndexMode.SEMANTIC, lex),
            lexicon=lex,
        )
        query = Query("q1", "اثم")
        assert system.run_query(query, SearchType.R3).found_count == 0
        assert system.run_query(query, SearchType.R0).found_count == 1


def test_criterion_6_mode_collapse_with_empty_lexicon(tmp_path):
    with criterion(6, "empty lexicon makes the four run files byte-identical"):
        corpus_path = tmp_path / "corpus.jsonl"
        corpus_path.write_text(
            "\n".join(
                json.dumps({"id": f"d{i}", "text": text}, ensure_ascii=False)
                for i, text in enumerate(
                    ["اثم كبير", "خطيئة", "بيت واسع", "ذنب", "شجرة خضراء"]
                )
            )
            + "\n",
            encoding="utf-8",
        )
        lexicon_path = tmp_path / "lexicon.jsonl"
        lexicon_path.write_text("", encoding="utf-8")
        queries_path = tmp_path / "queries.tsv"
        queries_path.write_text("q1\tاثم\nq2\tبيت شجرة\nq3\tغائب\n", encoding="utf-8")
        args = [
            "--corpus", str(corpus_path),
            "--lexicon", str(lexicon_path),
            "--queries", str(queries_path),
            "--index-dir", str(tmp_path / "indexes"),
            "--report-dir", str(tmp_path / "reports"),
        ]
        assert main(["index", "--mode", "plain"] + args) == 0
        assert main(["index", "--mode", "semantic"] + args) == 0
        blobs = []
        for st in SearchType:
            assert main(["batch", "--search-type", st.value] + args) == 0
            run_blob = (tmp_path / "reports" / f"semindex.{st.value}.run").read_bytes()
            found_blob = (tmp_path / "reports" / f"semindex.{st.value}.found.json").read_bytes()
            blobs.append((run_blob, found_blob))
        assert all(blob == blobs[0] for blob in blobs[1:])


def test_criterion_7_deterministic_parallel_build_and_round_trip(tmp_path):
    with criterion(7, "serial and 8-way builds are byte-identical; save/load preserves retrieval"):
        start = time.perf_counter()
        vocab = [
            "اثم", "خطيئه", "ذنب", "بيت", "شجره", "بحر", "علم", "كتاب", "قلم", "نور",
            "x", "y", "z", "data", "text", "term",
        ]
        lex = make_lexicon(
            [("s1", "n", ["خطيئة", "إثم"]), ("s2", "n", ["بيت", "دار"]), ("s3", "v", ["علم"])]
        )
        corpus = random_corpus(random.Random(77), 1000, vocab=vocab, min_len=5, max_len=60)

        serial = build_index(corpus, IndexMode.SEMANTIC, lex, workers=1)
        parallel = build_index(corpus, IndexMode.SEMANTIC, lex, workers=8)
        serial_path, parallel_path = tmp_path / "serial.idx", tmp_path / "parallel.idx"
        serial.save(serial_path)
        parallel.save(parallel_path)
        assert serial_path.read_bytes() == parallel_path.read_bytes()

        loaded = load_index(serial_path)
        rng = random.Random(78)
        for _ in range(20):
            query = [rng.choice(vocab) for _ in range(rng.randint(1, 4))]
            assert loaded.retrieve(query) == serial.retrieve(query)
        assert time.perf_counter() - start < 30.0


def test_criterion_8_expanded_query_found_set_contains_baseline():
    with criterion(8, "R2 found set always contains the R0 found set (200 random trials)"):
        rng = random.Random(4242)
        vocab = ["اثم", "ذنب", "خطيئه", "بيت", "دار", "علم", "بحر", "x", "y", "z"]
        for trial in range(200):
            n_synsets = rng.randint(0, 5)
            records = []
            for i in range(n_synsets):
                records.append((f"s{i}", rng.choice("nvar"), rng.sample(vocab, rng.randint(1, 3))))
            lex = make_lexicon(records)
            corpus = random_corpus(
                rng, rng.randint(1, 10), vocab=vocab, min_len=1, max_len=12
            )
            system = SearchSystem(
                plain_index=build_index(corpus, IndexMode.PLAIN), lexicon=lex
            )
            query = Query(
                "q", " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 4)))
            )
            r0_found = set(system.run_query(query, SearchType.R0).doc_ids)
            r2_found = set(system.run_query(query, SearchType.R2).doc_ids)
            assert r0_found <= r2_found, f"trial {trial}: {r0_found - r2_found}"


AWN_PATH = os.environ.get("SEMINDEX_AWN_LEXICON")


def test_criterion_9_real_lexicon_statistics():
    """Data-dependent check against a real Arabic WordNet export.

    Supply the export (converted to lexicon JSONL) via SEMINDEX_AWN_LEXICON;
    expected totals can be overridden with SEMINDEX_AWN_SYNSETS and
    SEMINDEX_AWN_WORDS (defaults 11269 / 23481).
    """
    with criterion(9, "real lexicon export matches its documented totals"):
        if not AWN_PATH:
            pytest.skip("SEMINDEX_AWN_LEXICON not set; skipping data-dependent check")
        lex = load_lexicon(AWN_PATH)
        # The ids come from the file itself; load_lexicon has rejected
        # any duplicate, so each synset is counted once.
        with open(AWN_PATH, encoding="utf-8") as fh:
            synsets = [lex.synset(json.loads(line)["id"]) for line in fh if line.strip()]
        per_pos = Counter(syn.pos for syn in synsets)
        expected_synsets = int(os.environ.get("SEMINDEX_AWN_SYNSETS", "11269"))
        expected_words = int(os.environ.get("SEMINDEX_AWN_WORDS", "23481"))
        print(f"observed per-POS synset counts: {dict(per_pos)}")
        assert len(lex) == len(synsets) == expected_synsets
        assert len({lemma for syn in synsets for lemma in syn.lemmas}) == expected_words
