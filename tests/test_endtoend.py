"""End-to-end checks at bench scale on the seed-1 pipeline inputs of ``bench/gen.py``, which is only read here."""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest
from helpers import reference_expand, reference_match_concepts, reference_ranking, reference_scores, reference_semantize

from semindex import IndexMode, Lexicon, Run, SearchSystem, SearchType, build_indexes, load_lexicon, load_stopwords
from semindex import expand, match_concepts, read_corpus, read_queries, read_run, semantize, tokenize, write_run
from semindex.cli import main
from semindex.lexicon import MAX_LEMMA_TOKENS

ROOT = Path(__file__).resolve().parent.parent
sys.path.append(str(ROOT / "bench"))
import gen  # noqa: E402
import workloads  # noqa: E402

# The golden hashes cover depths 10 and 1000; these also cross the selection cut (one in 32) and hold ties.
DEPTHS = (1, 2, 10, 31, 32, 33, 100, 1000, None)


@pytest.fixture(scope="module")
def inputs(tmp_path_factory) -> gen.Inputs:
    return gen.generate(1, workloads.SIZES["pipeline"], tmp_path_factory.mktemp("inputs"))


@pytest.fixture(scope="module")
def rankings(inputs) -> dict:
    """(search type, depth) -> [(``run_query``'s ranking, the per-term fold's found count, doc ids, score bits)]."""
    lex, stop = load_lexicon(inputs.lexicon), load_stopwords(inputs.stopwords)
    indexes = dict(zip(IndexMode, build_indexes(read_corpus(inputs.corpus).documents, tuple(IndexMode), lex, stop)))
    system = SearchSystem(indexes[IndexMode.PLAIN], indexes[IndexMode.SEMANTIC], lex, stop)
    found: dict = {}
    for query in read_queries(inputs.queries):
        for st in SearchType:
            scores = reference_scores(indexes[st.index_mode], system.query_terms(query, st), system.k1, system.b)
            for depth in DEPTHS:
                doc_ids = reference_ranking(scores, depth)
                want = (len(scores), tuple(doc_ids), [scores[doc_id].hex() for doc_id in doc_ids])
                found.setdefault((st, depth), []).append((system.run_query(query, st, depth), want))
    return found


def test_rankings_equal_the_per_term_fold(rankings):
    pairs = [(key, *pair) for key, pairs in rankings.items() for pair in pairs]
    differ = [(got.qid, *key) for key, got, want in pairs
              if (got.found_count, got.doc_ids, [score.hex() for score in got.scores]) != want]
    assert (differ, len(pairs)) == ([], 3600)


def test_every_written_run_reads_back(rankings, tmp_path):
    def fields(run):
        return run.tag, [(r.qid, r.doc_ids, r.found_count, [f"{s:.6f}" for s in r.scores]) for r in run.results]

    run_path, found_path = tmp_path / "check.run", tmp_path / "check.found.json"
    for (st, depth), pairs in rankings.items():
        run = Run(f"{st.value}-{depth}", tuple(got for got, _ in pairs))
        write_run(run, run_path, found_path)
        assert fields(read_run(run_path, found_path)) == fields(run), f"{st.value} depth {depth}"
    assert len(rankings) == 36


def _concept_step_faults(inputs: gen.Inputs) -> tuple[list, list[list[str]], list[list[str]], Lexicon]:
    """(step, stream index) wherever a concept step differs from its exhaustive oracle: ``semantize`` and
    ``match_concepts`` on the documents, ``match_concepts`` and ``expand`` on the queries. Windows up to the
    longest lemma ``load_lexicon`` accepts are every window that can match. Returns the faults, the documents,
    the queries and the lexicon."""
    lex = load_lexicon(inputs.lexicon)
    documents = [tokenize(text) for _, text in read_corpus(inputs.corpus).documents]
    queries = [tokenize(query.text) for query in read_queries(inputs.queries)]
    faults = [("semantize", i) for i, tokens in enumerate(documents)
              if semantize(tokens, lex) != reference_semantize(tokens, lex, MAX_LEMMA_TOKENS)]
    for kind, streams in ("documents", documents), ("queries", queries):
        faults += [(f"match_concepts on {kind}", i) for i, tokens in enumerate(streams)
                   if match_concepts(tokens, lex) != reference_match_concepts(tokens, lex, MAX_LEMMA_TOKENS)]
    faults += [("expand", i) for i, tokens in enumerate(queries)
               if expand(tokens, lex) != reference_expand(tokens, lex, MAX_LEMMA_TOKENS)]
    return faults, documents, queries, lex


def test_the_concept_step_equals_the_exhaustive_matcher(inputs):
    faults, documents, queries, _ = _concept_step_faults(inputs)
    assert (faults, len(documents), len(queries)) == ([], 600, 100)


# Seed and size chosen once: over a 100-word vocabulary lemmas share tokens, so multiword lemmas start
# inside earlier phrase matches, where the cut must not start another. The seed-1 inputs hold no such start.
DENSE_SEED, DENSE_SIZE = 3, gen.Size(
    docs=100, doc_tokens=(20, 80), vocab=100, synsets=40, queries=40, query_tokens=(1, 6),
    multiword_share=0.7, polysemous_share=0.3, phrase_rate=0.1, diacritic_rate=0.25,
)


def test_the_concept_step_equals_the_exhaustive_matcher_where_lemmas_overlap(tmp_path):
    faults, documents, queries, lex = _concept_step_faults(gen.generate(DENSE_SEED, DENSE_SIZE, tmp_path))
    assert (faults, len(documents), len(queries)) == ([], 100, 40)
    # Positions inside a phrase match where a multiword lemma starts, in documents and in queries alike.
    inside = {kind for kind, streams in (("document", documents), ("query", queries)) for tokens in streams
              for match in reference_match_concepts(tokens, lex, MAX_LEMMA_TOKENS)
              for at in range(match.start + 1, match.end)
              if any(" ".join(tokens[at : at + n]) in lex for n in range(2, MAX_LEMMA_TOKENS + 1)
                     if at + n <= len(tokens))}
    assert inside == {"document", "query"}


def _flags(inputs: gen.Inputs, *names: str) -> list[str]:
    return [arg for name in names for arg in (f"--{name}", str(getattr(inputs, name)))]


def _cli(*argv) -> None:
    assert main([str(arg) for arg in argv]) == 0


def _pipeline(inputs: gen.Inputs, out: Path, workers: int = 1) -> Path:
    _cli("pipeline", *_flags(inputs, "corpus", "lexicon", "queries", "qrels", "stopwords"),
         "--index-dir", out / "indexes", "--report-dir", out / "reports", "--depth", 1000, "--workers", workers)
    return out


def _tree(root: Path, *skip: str) -> dict[str, bytes]:
    """Every file under ``root`` by relative path, with its bytes; names matching a ``skip`` glob aside."""
    return {str(path.relative_to(root)): path.read_bytes() for path in sorted(root.rglob("*"))
            if path.is_file() and not any(path.match(pattern) for pattern in skip)}


@pytest.fixture(scope="module")
def out(inputs, tmp_path_factory) -> Path:
    return _pipeline(inputs, tmp_path_factory.mktemp("one-worker"))


# SHA-256 of each file the seed-1 pipeline writes to its index directory, and the digest of its lexicon. Only a
# change to the index format or to the analysis moves them; such a change edits them here and says why.
INDEX_SHA256 = {
    "plain.build.json": "122433619ca8850e65584c576c184f9ace62277f6e950869e2ee7eb4f70e245f",
    "plain.idx": "25439efea6d805f5b582f03f1a6330d832bbb953a7de5428c7a4763b64a0cc04",
    "semantic.build.json": "18be0bd9e1842d3b35c5495f1f8e6fb14259b76dd9481f203475576ee108b733",
    "semantic.idx": "a0ea773c5644163b29767da696f19bf4a1685bfcaca98542cbcdb49b9c28995f",
}
LEXICON_DIGEST = "7d8d4fd682080c756588d8a941b833d4ebdf3c9fcefba015cfbbae0a834ccf7f"


def test_the_index_files_and_the_lexicon_digest_keep_their_bytes(inputs, out):
    assert {name: hashlib.sha256(data).hexdigest() for name, data in _tree(out / "indexes").items()} == INDEX_SHA256
    assert load_lexicon(inputs.lexicon).digest() == LEXICON_DIGEST


def test_two_workers_write_what_one_writes(inputs, out, tmp_path):
    _pipeline(inputs, tmp_path, workers=2)
    assert _tree(tmp_path / "indexes") == _tree(out / "indexes")
    assert _tree(tmp_path / "reports") == _tree(out / "reports")


def test_index_run_once_per_mode_writes_the_pipeline_indexes(inputs, out, tmp_path):
    for mode in ("plain", "semantic"):
        _cli("index", "--mode", mode, *_flags(inputs, "corpus", "lexicon", "stopwords"), "--index-dir", tmp_path)
    assert _tree(tmp_path) == _tree(out / "indexes")


def test_eval_and_compare_rewrite_the_pipeline_reports(inputs, out, tmp_path):
    """The bench never calls read_run, so this checks that every run the program writes keeps its rules."""
    runs = [out / "reports" / f"semindex.{st.value}.run" for st in SearchType]
    for command in ("eval", "compare"):
        _cli(command, *runs, *_flags(inputs, "qrels", "stopwords"), "--report-dir", tmp_path)
    assert _tree(tmp_path) == _tree(out / "reports", "*.run", "*.found.json")


def test_search_prints_the_first_query_lines_of_the_r1_run(inputs, out, capsys):
    qid, text = inputs.queries.read_text(encoding="utf-8").split("\n", 1)[0].split("\t", 1)
    lines = (line.split() for line in (out / "reports" / "semindex.R1.run").read_text(encoding="utf-8").splitlines())
    expected = "".join(f"{rank}\t{doc_id}\t{score}\n" for q, _, doc_id, rank, score, _ in lines if q == qid)
    assert expected
    capsys.readouterr()
    _cli("search", "--search-type", "R1", "--depth", 1000, *_flags(inputs, "qrels", "stopwords", "lexicon"),
         "--index-dir", out / "indexes", text)
    assert capsys.readouterr().out == expected


def test_a_byte_order_mark_and_crlf_line_ends_change_no_output(inputs, out, tmp_path):
    """Some editors save UTF-8 with a byte-order mark and CRLF line ends."""
    for path in inputs.corpus.parent.iterdir():
        (tmp_path / path.name).write_bytes(b"\xef\xbb\xbf" + path.read_bytes().replace(b"\n", b"\r\n"))
    _pipeline(gen.Inputs.at(tmp_path), tmp_path)
    assert _tree(tmp_path / "reports") == _tree(out / "reports")
    assert _tree(tmp_path / "indexes") == _tree(out / "indexes")


# The pipeline tokenizes and semantizes its 600 documents once each and expands its 100 queries for R1 and R2.
# Search makes 2,400 retrieve calls (300 queries x R0-R3 x depth 10 and 1000). A bench change that moves a count
# edits it here.
TRACED_COUNTS = {
    "pipeline": {"textnorm.tokenize.calls": 600, "semantics.semantize.calls": 600, "semantics.expand.calls": 200,
                 "textnorm.tokenize.tokens": 113742, "semantics.semantize.tokens_out": 119246},
    "search": {"index.retrieve.calls": 2400, "index.retrieve.postings_touched": 869086,
               "index.retrieve.found": 775630, "index.retrieve.returned": 399595},
}


@pytest.fixture(scope="module")
def bench_run(tmp_path_factory):
    """Starts every seed-1 ``bench/run.py`` run of ``TRACED_COUNTS`` at once, untraced and traced, and returns
    a function that waits for one: (workload, trace) -> (exit code, stdout, stderr). Each run works in its own
    copy of the checkout, so its work directory and spans land there; a run no test waited for is killed."""
    procs = {}
    for workload in TRACED_COUNTS:
        for trace in (0, 1):
            root = tmp_path_factory.mktemp(f"bench-{workload}-{trace}")
            for name in ("src", "bench"):
                shutil.copytree(ROOT / name, root / name, ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", root / "BENCHMARK.json")
            argv = ["--workload", workload, "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            procs[workload, trace] = subprocess.Popen([sys.executable, root / "bench" / "run.py", *argv], cwd=root,
                                                      stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    done = {}

    def wait(workload: str, trace: int) -> tuple[int, str, str]:
        if (workload, trace) not in done:
            stdout, stderr = procs[workload, trace].communicate(timeout=600)
            done[workload, trace] = procs[workload, trace].returncode, stdout, stderr
        return done[workload, trace]

    yield wait
    for key, proc in procs.items():
        if key not in done:
            proc.kill()
            proc.communicate()


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(TRACED_COUNTS))
def test_seed_1_bench_run_is_correct(workload, trace, bench_run):
    """``bench/run.py`` exits 0 when a check or a golden hash fails: the verdict is its last line's ``correct``."""
    returncode, stdout, stderr = bench_run(workload, trace)
    assert returncode == 0, stdout + stderr
    verdict = json.loads(stdout.splitlines()[-1])
    assert verdict["correct"] is True, stdout
    if trace:  # the tracer patches functions by name and only notes those it cannot find
        assert "tracer: not found" not in stdout
        counts = TRACED_COUNTS[workload]
        assert {name: verdict["metrics"].get(name, {}).get("value") for name in counts} == counts


def test_importing_the_cli_loads_no_multiprocessing():
    """Only a build with more than one worker starts a process pool, so search, batch, eval, compare and a
    one-worker pipeline do not pay for importing ``concurrent.futures`` and ``multiprocessing``."""
    code = "import sys, semindex.cli; print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
