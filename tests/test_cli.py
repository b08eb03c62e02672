from __future__ import annotations

import argparse
import dataclasses
import json
from array import array
from pathlib import Path

import pytest

from semindex import config as config_module
from semindex import index as index_module
from semindex import Index, IndexMode, build_index, load_stopwords, read_corpus, read_run, tokenize
from semindex.cli import build_parser, main, resolve_config
from semindex.config import Config

from helpers import lexicon_jsonl

CORPUS_LINES = [
    {"id": "d1", "text": "اثم كبير"},
    {"id": "d2", "text": "خطيئة"},
    {"id": "d3", "text": "بيت واسع"},
    {"id": "d4", "text": "ذنب"},
    {"id": "d5", "text": "شجرة خضراء"},
]

LEXICON_RECORDS = [("s1", "n", ["خطيئة", "إثم"]), ("s2", "n", ["ذنب", "خطا"])]

QUERIES = "q1\tاثم\nq2\tبيت\nq3\tذنب\n"

QRELS = "q1 0 d1 1\nq1 0 d2 1\nq2 0 d3 1\nq3 0 d4 1\n"

STOPWORDS = "كبير\nواسع\n"

# JSON that json.loads gives up on without a JSONDecodeError: nesting
# deeper than its parser allows, an integer literal past Python's digit limit.
DEEP_JSON = "[" * 100_000
LONG_INT_JSON = '{"id": ' + "1" * 5000 + "}"

PATH_KEYS = [f.name for f in dataclasses.fields(Config) if "Path" in str(f.type)]


# The shortest command line each subcommand parses.
SUBCOMMAND_ARGV = {
    "index": ["index", "--mode", "plain"],
    "batch": ["batch", "--search-type", "R0"],
    "search": ["search", "text"],
    "eval": ["eval", "x.run"],
    "compare": ["compare", "a.run", "b.run"],
    "pipeline": ["pipeline"],
}

# A valid value other than the default, by the function that reads a key.
SAMPLE_VALUES = {config_module.nonempty_path: "some/dir", float: "0.5", int: "7", str: "mytag"}


@pytest.fixture
def workspace(tmp_path: Path) -> dict[str, Path]:
    paths = {
        "corpus": tmp_path / "corpus.jsonl",
        "lexicon": tmp_path / "lexicon.jsonl",
        "empty_lexicon": tmp_path / "empty_lexicon.jsonl",
        "queries": tmp_path / "queries.tsv",
        "qrels": tmp_path / "qrels.txt",
        "stopwords": tmp_path / "stopwords.txt",
        "index_dir": tmp_path / "indexes",
        "report_dir": tmp_path / "reports",
    }
    paths["corpus"].write_text(
        "\n".join(json.dumps(rec, ensure_ascii=False) for rec in CORPUS_LINES) + "\n",
        encoding="utf-8",
    )
    paths["lexicon"].write_text(lexicon_jsonl(LEXICON_RECORDS) + "\n", encoding="utf-8")
    paths["empty_lexicon"].write_text("", encoding="utf-8")
    paths["queries"].write_text(QUERIES, encoding="utf-8")
    paths["qrels"].write_text(QRELS, encoding="utf-8")
    paths["stopwords"].write_text(STOPWORDS, encoding="utf-8")
    return paths


def common_args(ws, lexicon_key="lexicon"):
    return [
        "--corpus", str(ws["corpus"]),
        "--lexicon", str(ws[lexicon_key]),
        "--queries", str(ws["queries"]),
        "--qrels", str(ws["qrels"]),
        "--index-dir", str(ws["index_dir"]),
        "--report-dir", str(ws["report_dir"]),
    ]


def flag_of(key: str) -> str:
    return "--" + key.replace("_", "-")


def copy_run(ws, label: str, subdir: str) -> Path:
    """Copy run ``label`` and its sidecar from report_dir into a sibling directory."""
    target = ws["report_dir"].parent / subdir
    target.mkdir()
    for name in (f"{label}.run", f"{label}.found.json"):
        (target / name).write_bytes((ws["report_dir"] / name).read_bytes())
    return target / f"{label}.run"


def subcommand_parsers() -> dict[str, argparse.ArgumentParser]:
    (subparsers,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return subparsers.choices


def build_indexes(ws, lexicon_key="lexicon"):
    assert main(["index", "--mode", "plain"] + common_args(ws, lexicon_key)) == 0
    assert main(["index", "--mode", "semantic"] + common_args(ws, lexicon_key)) == 0


class TestIndexCommand:
    def test_plain_build_writes_index_and_report(self, workspace, capsys):
        code = main(["index", "--mode", "plain"] + common_args(workspace))
        assert code == 0
        assert (workspace["index_dir"] / "plain.idx").exists()
        report = json.loads((workspace["index_dir"] / "plain.build.json").read_text())
        assert report["documents_indexed"] == 5
        assert report["documents_skipped"] == 0
        assert "indexed 5 documents" in capsys.readouterr().out
        assert not list(workspace["index_dir"].glob("*.tmp"))

    def test_doc_id_with_lone_surrogate_is_skipped(self, workspace, capsys):
        # json.dumps writes the surrogate as a \u escape, so the file is UTF-8;
        # the parsed id could not be written to the index or a run file.
        with open(workspace["corpus"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "\ud800", "text": "اثم"}) + "\n")
        assert main(["index", "--mode", "plain"] + common_args(workspace)) == 0
        report = json.loads((workspace["index_dir"] / "plain.build.json").read_text(encoding="utf-8"))
        assert report["documents_indexed"] == 5
        assert report["skipped"] == [{"line": 6, "reason": "'id' '\\ud800' cannot be encoded as UTF-8"}]
        assert "Traceback" not in capsys.readouterr().err

    def test_two_doc_fixture_reports_two(self, tmp_path, workspace):
        corpus = tmp_path / "two.jsonl"
        corpus.write_text(
            '{"id": "a", "text": "اثم"}\n{"id": "b", "text": "بيت"}\n', encoding="utf-8"
        )
        args = common_args(workspace)
        args[1] = str(corpus)
        assert main(["index", "--mode", "plain"] + args) == 0
        report = json.loads((workspace["index_dir"] / "plain.build.json").read_text())
        assert report["documents_indexed"] == 2

    def test_non_utf8_corpus_is_data_error(self, workspace, capsys, caplog):
        workspace["corpus"].write_bytes(b'{"id": "d1", "text": "\xff\xfe"}\n')
        assert main(["index", "--mode", "plain"] + common_args(workspace)) == 2
        assert str(workspace["corpus"]) in caplog.text and "UTF-8" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_repeated_doc_id_is_data_error_naming_both_lines(self, workspace, capsys, caplog):
        lines = workspace["corpus"].read_text(encoding="utf-8").splitlines()
        lines[2] = lines[2].replace('"d3"', '"d1"')
        workspace["corpus"].write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert main(["index", "--mode", "plain"] + common_args(workspace)) == 2
        assert f"{workspace['corpus']}: line 3: duplicate doc_id 'd1' (first seen on line 1)" in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not (workspace["index_dir"] / "plain.idx").exists()

    def test_semantic_without_lexicon_is_usage_error(self, workspace):
        args = [
            "--corpus", str(workspace["corpus"]),
            "--index-dir", str(workspace["index_dir"]),
        ]
        assert main(["index", "--mode", "semantic"] + args) == 1

    def test_missing_corpus_is_io_error(self, workspace):
        args = common_args(workspace)
        args[1] = str(workspace["corpus"].parent / "nope.jsonl")
        assert main(["index", "--mode", "plain"] + args) == 3

    def test_malformed_lexicon_is_data_error(self, workspace):
        workspace["lexicon"].write_text("{broken\n", encoding="utf-8")
        assert main(["index", "--mode", "semantic"] + common_args(workspace)) == 2

    def test_lexicon_pos_that_is_not_a_string_is_data_error(self, workspace, caplog):
        workspace["lexicon"].write_text('{"id": "s1", "pos": ["n"], "lemmas": ["اثم"]}\n', encoding="utf-8")
        assert main(["index", "--mode", "semantic"] + common_args(workspace)) == 2
        assert f"{workspace['lexicon']}: line 1: unknown pos tag" in caplog.text

    def test_skipped_corpus_lines_counted(self, workspace):
        workspace["corpus"].write_text(
            '{"id": "d1", "text": "اثم"}\n{nope\n', encoding="utf-8"
        )
        assert main(["index", "--mode", "plain"] + common_args(workspace)) == 0
        report = json.loads((workspace["index_dir"] / "plain.build.json").read_text())
        assert report["documents_indexed"] == 1
        assert report["documents_skipped"] == 1
        assert report["skipped"][0]["line"] == 2

    def test_json_files_are_sorted_indented_utf8(self, workspace, tmp_path):
        workspace["corpus"].write_text(
            '{"id": "وثيقة", "text": "اثم كبير"}\n{"id": "d2", "text": "بيت"}\n{nope\n', encoding="utf-8"
        )
        export = tmp_path / "plain.json"
        assert main(["index", "--mode", "plain", "--export-json", str(export)] + common_args(workspace)) == 0

        def dumped(obj) -> bytes:
            return (json.dumps(obj, ensure_ascii=False, indent=2, sort_keys=True) + "\n").encode("utf-8")

        assert export.read_bytes() == dumped({
            "mode": "plain",
            "lexicon_digest": "",
            "doc_lengths": {"وثيقة": 2, "d2": 1},
            "postings": {"اثم": [["وثيقة", 1]], "بيت": [["d2", 1]], "كبير": [["وثيقة", 1]]},
        })
        assert (workspace["index_dir"] / "plain.build.json").read_bytes() == dumped({
            "mode": "plain",
            "documents_indexed": 2,
            "documents_skipped": 1,
            "skipped": [{"line": 3, "reason": "invalid JSON (Expecting property name enclosed in double quotes)"}],
            "vocabulary_size": 3,
        })
        assert "وثيقة".encode("utf-8") in export.read_bytes()

    def test_plain_and_semantic_exports_differ_only_in_replaced_terms(self, workspace, tmp_path):
        plain_json = tmp_path / "plain.json"
        semantic_json = tmp_path / "semantic.json"
        assert main(["index", "--mode", "plain", "--export-json", str(plain_json)]
                    + common_args(workspace)) == 0
        assert main(["index", "--mode", "semantic", "--export-json", str(semantic_json)]
                    + common_args(workspace)) == 0
        plain = json.loads(plain_json.read_text(encoding="utf-8"))
        semantic = json.loads(semantic_json.read_text(encoding="utf-8"))
        assert plain["doc_lengths"] == semantic["doc_lengths"]
        # Monosemous synonyms trade places; the rest of the vocabulary is
        # untouched. In this fixture: اثم -> خطيئه and ذنب -> (canonical) ذنب.
        plain_terms = set(plain["postings"])
        semantic_terms = set(semantic["postings"])
        assert plain_terms - semantic_terms == {"اثم"}
        assert semantic_terms - plain_terms == set()
        for term in plain_terms & semantic_terms:
            if term == "خطيئه":
                continue
            assert plain["postings"][term] == semantic["postings"][term]
        assert semantic["postings"]["خطيئه"] == [["d1", 1], ["d2", 1]]
        assert plain["postings"]["خطيئه"] == [["d2", 1]]

    def test_stopword_file_is_applied(self, workspace, tmp_path, capsys):
        # --stopwords drops its words from the index and from a query.
        stop = ["--stopwords", str(workspace["stopwords"])] + common_args(workspace)
        export = tmp_path / "plain.json"
        assert main(["index", "--mode", "plain", "--export-json", str(export)] + stop) == 0
        stoplist = load_stopwords(workspace["stopwords"])
        exported = json.loads(export.read_text(encoding="utf-8"))
        assert stoplist == {"كبير", "واسع"} and not stoplist & exported["postings"].keys()
        corpus = read_corpus(workspace["corpus"]).documents
        assert exported == build_index(corpus, IndexMode.PLAIN, stoplist=stoplist).to_jsonable()
        # Against an index that keeps the word, the file still drops it from the query.
        assert main(["index", "--mode", "plain"] + common_args(workspace)) == 0
        capsys.readouterr()
        assert main(["search", "--search-type", "R0", "كبير"] + common_args(workspace)) == 0
        assert capsys.readouterr().out.split("\t")[1] == "d1"
        assert main(["search", "--search-type", "R0", "كبير"] + stop) == 0
        assert capsys.readouterr().out == ""


UNPARSABLE = pytest.mark.parametrize("bad", [DEEP_JSON, LONG_INT_JSON], ids=["deep", "long-int"])


class TestUnparsableJson:
    """A line json.loads gives up on is malformed input like any other."""

    @UNPARSABLE
    def test_corpus_line_is_skipped(self, workspace, capsys, bad):
        with open(workspace["corpus"], "a", encoding="utf-8") as fh:
            fh.write(bad + "\n")
        assert main(["index", "--mode", "plain"] + common_args(workspace)) == 0
        report = json.loads((workspace["index_dir"] / "plain.build.json").read_text())
        assert report["documents_indexed"] == 5
        [skipped] = report["skipped"]
        assert skipped["line"] == 6 and skipped["reason"].startswith("invalid JSON")
        assert "Traceback" not in capsys.readouterr().err

    @UNPARSABLE
    def test_lexicon_line_is_data_error(self, workspace, capsys, caplog, bad):
        with open(workspace["lexicon"], "a", encoding="utf-8") as fh:
            fh.write(bad + "\n")
        assert main(["index", "--mode", "semantic"] + common_args(workspace)) == 2
        assert f"{workspace['lexicon']}: line 3: invalid JSON" in caplog.text
        assert "Traceback" not in capsys.readouterr().err


class TestBatchCommand:
    def test_r0_run_is_parseable(self, workspace):
        build_indexes(workspace)
        assert main(["batch", "--search-type", "R0"] + common_args(workspace)) == 0
        run_path = workspace["report_dir"] / "semindex.R0.run"
        found_path = workspace["report_dir"] / "semindex.R0.found.json"
        assert run_path.exists() and found_path.exists()
        run = read_run(run_path, found_path)
        assert {rl.qid for rl in run.results} == {"q1", "q2", "q3"}

    def test_whitespace_in_qid_is_data_error(self, workspace, caplog):
        build_indexes(workspace)
        workspace["queries"].write_text("q1\tاثم\nq 2\tبيت\n", encoding="utf-8")
        assert main(["batch", "--search-type", "R0"] + common_args(workspace)) == 2
        assert f"{workspace['queries']}: line 2: qid 'q 2' contains whitespace" in caplog.text
        assert not (workspace["report_dir"] / "semindex.R0.run").exists()

    def test_doc_id_that_cannot_be_a_run_field_is_data_error(self, workspace, caplog):
        # A hand-made plain.idx with a valid checksum: a run line ranking
        # "a b" would hold seven fields, which eval could not read back.
        workspace["index_dir"].mkdir()
        columns = (array("Q", [1]), ["اثم"], array("Q", [0, 1]), array("I", [0]), array("I", [1]))
        Index(IndexMode.PLAIN, ["a b"], *columns, lexicon_digest="").save(workspace["index_dir"] / "plain.idx")
        assert main(["batch", "--search-type", "R0"] + common_args(workspace)) == 2
        assert "'a b' cannot be a field of a run file" in caplog.text
        assert not workspace["report_dir"].exists()

    def test_missing_index_names_artifact(self, workspace, caplog):
        code = main(["batch", "--search-type", "R0"] + common_args(workspace))
        assert code == 3
        assert "plain.idx" in caplog.text

    def test_mode_collapse_with_empty_lexicon(self, workspace):
        build_indexes(workspace, lexicon_key="empty_lexicon")
        bodies = {}
        for st in ("R0", "R1", "R2", "R3"):
            assert main(["batch", "--search-type", st]
                        + common_args(workspace, lexicon_key="empty_lexicon")) == 0
            bodies[st] = (
                (workspace["report_dir"] / f"semindex.{st}.run").read_bytes(),
                (workspace["report_dir"] / f"semindex.{st}.found.json").read_bytes(),
            )
        assert len({b for b, _ in bodies.values()}) == 1
        assert len({f for _, f in bodies.values()}) == 1

    def test_rerun_is_byte_identical(self, workspace):
        build_indexes(workspace)
        args = ["batch", "--search-type", "R1"] + common_args(workspace)
        assert main(args) == 0
        first = (workspace["report_dir"] / "semindex.R1.run").read_bytes()
        assert main(args) == 0
        assert (workspace["report_dir"] / "semindex.R1.run").read_bytes() == first


@pytest.mark.parametrize("command", [["batch"], ["search", "اثم"]], ids=["batch", "search"])
@pytest.mark.parametrize("search_type", ["R1", "R2"])
def test_query_expansion_without_lexicon_is_usage_error(workspace, caplog, capsys, command, search_type):
    build_indexes(workspace)
    capsys.readouterr()
    args = common_args(workspace)
    del args[2:4]  # --lexicon and its path
    assert main(command + ["--search-type", search_type] + args) == 1
    assert "--lexicon" in caplog.text
    assert capsys.readouterr().out == ""
    assert not workspace["report_dir"].exists()


@pytest.mark.parametrize("command", [["batch"], ["search", "اثم"]], ids=["batch", "search"])
@pytest.mark.parametrize("search_type", ["R0", "R1", "R2", "R3"])
def test_index_file_of_the_other_mode_is_data_error(workspace, caplog, capsys, command, search_type):
    # plain.idx holds the semantic index and semantic.idx the plain one.
    build_indexes(workspace)
    plain, semantic = (workspace["index_dir"] / f"{mode}.idx" for mode in ("plain", "semantic"))
    plain_bytes = plain.read_bytes()
    plain.write_bytes(semantic.read_bytes())
    semantic.write_bytes(plain_bytes)
    capsys.readouterr()
    assert main(command + ["--search-type", search_type] + common_args(workspace)) == 2
    (error,) = [record.getMessage() for record in caplog.records if record.levelname == "ERROR"]
    assert "plain" in error and "semantic" in error and "\n" not in error
    assert capsys.readouterr() == ("", "")
    assert not workspace["report_dir"].exists()


@pytest.mark.parametrize("command", [["batch"], ["search", "اثم"]], ids=["batch", "search"])
@pytest.mark.parametrize("search_type, mode", [("R0", "plain"), ("R1", "semantic")])
def test_missing_index_file_names_the_command_that_builds_it(workspace, caplog, command, search_type, mode):
    workspace["index_dir"].mkdir()
    assert main(command + ["--search-type", search_type] + common_args(workspace)) == 3
    assert f"{mode}.idx; build it with 'semindex index --mode {mode}'" in caplog.text


class TestSearchCommand:
    def test_prints_ranking(self, workspace, capsys):
        build_indexes(workspace)
        capsys.readouterr()  # drop the index-build chatter
        code = main(["search", "--search-type", "R2", "اثم"] + common_args(workspace))
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines
        rank, doc_id, score = lines[0].split("\t")
        assert rank == "1"
        assert doc_id in {"d1", "d2"}
        float(score)

    @pytest.mark.parametrize("depth", [[], ["--depth", "1"]], ids=["default-depth", "depth-1"])
    def test_prints_the_rank_doc_and_score_of_the_batch_run(self, workspace, capsys, depth):
        build_indexes(workspace)
        args = ["--search-type", "R2"] + depth + common_args(workspace)
        assert main(["batch"] + args) == 0
        run_text = (workspace["report_dir"] / "semindex.R2.run").read_text(encoding="utf-8")
        expected = [
            f"{rank}\t{doc_id}\t{score}"
            for qid, _, doc_id, rank, score, _ in map(str.split, run_text.splitlines())
            if qid == "q1"
        ]
        assert len(expected) == (1 if depth else 2)  # R2 expands q1 to reach d1 and d2
        capsys.readouterr()
        assert main(["search"] + args + ["اثم"]) == 0  # the text of q1
        assert capsys.readouterr().out.splitlines() == expected


class TestEvalCommand:
    def test_writes_records_and_summary(self, workspace, capsys):
        build_indexes(workspace)
        main(["batch", "--search-type", "R0"] + common_args(workspace))
        run_path = workspace["report_dir"] / "semindex.R0.run"
        assert main(["eval", str(run_path)] + common_args(workspace)) == 0
        assert (workspace["report_dir"] / "semindex.R0.eval.tsv").exists()
        assert (workspace["report_dir"] / "semindex.R0.eval.json").exists()
        summary = json.loads((workspace["report_dir"] / "summary.json").read_text())
        assert summary[0]["system"] == "semindex.R0"
        assert "system\tmean_ap" in capsys.readouterr().out
        records = json.loads(
            (workspace["report_dir"] / "semindex.R0.eval.json").read_text()
        )
        by_qid = {row["qid"]: row for row in records}
        # R0 for query q1 ("اثم") reaches only d1; d2 says "خطيئة"
        assert by_qid["q1"]["found"] == 1
        assert by_qid["q1"]["relevant_found"] == 1
        assert by_qid["q1"]["ap"] == 0.5
        assert by_qid["q1"]["p_at"]["5"] == 0.2

    def test_malformed_run_is_data_error(self, workspace):
        bad = workspace["report_dir"]
        bad.mkdir(parents=True, exist_ok=True)
        bad_run = bad / "bad.run"
        bad_run.write_text("q1 Q0 d1\n", encoding="utf-8")
        assert main(["eval", str(bad_run)] + common_args(workspace)) == 2

    def test_run_that_ranks_a_document_twice_is_data_error(self, workspace, caplog):
        workspace["report_dir"].mkdir(parents=True, exist_ok=True)
        run_path = workspace["report_dir"] / "twice.run"
        run_path.write_text("q1 Q0 d1 1 2.0 t\nq1 Q0 d1 2 1.0 t\n", encoding="utf-8")
        assert main(["eval", str(run_path)] + common_args(workspace)) == 2
        assert main(["compare", str(run_path), str(run_path)] + common_args(workspace)) == 2
        assert "ranked twice" in caplog.text

    @pytest.mark.parametrize(
        "sidecar",
        [
            "{broken",
            '{"q1": "many"}',
            '{"q1": -1}',
            "[1]",
            pytest.param(DEEP_JSON, id="deep"),
            pytest.param(LONG_INT_JSON, id="long-int"),
            pytest.param('{"q1": 0}', id="count-below-ranked-lines"),
            pytest.param('{"q2": 99, "q3": 99}', id="ranked-query-not-listed"),
            pytest.param('{"q1": 99, "q2": 99, "q3": 99, "q 1": 0}', id="qid-with-space"),
            pytest.param('{"q1": 99, "q2": 99, "q3": 99, "": 0}', id="empty-qid"),
        ],
    )
    def test_malformed_sidecar_is_data_error(self, workspace, capsys, caplog, sidecar):
        build_indexes(workspace)
        assert main(["batch", "--search-type", "R0"] + common_args(workspace)) == 0
        (workspace["report_dir"] / "semindex.R0.found.json").write_text(sidecar, encoding="utf-8")
        run_path = workspace["report_dir"] / "semindex.R0.run"
        assert main(["eval", str(run_path)] + common_args(workspace)) == 2
        assert "sidecar" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize(
        "run_text, sidecar, fault",
        [
            ("q1 Q0 d1 1 2.0\n", None, "line 1: expected 6 fields, got 5"),
            ("q1 Q0 d1 1 2.0 t\n", '{"q1": 0}', "found-count sidecar: 0 for query 'q1'"),
        ],
        ids=["run-line", "sidecar"],
    )
    def test_malformed_run_file_is_named(self, workspace, caplog, command, run_text, sidecar, fault):
        build_indexes(workspace)
        assert main(["batch", "--search-type", "R0"] + common_args(workspace)) == 0
        good, bad = workspace["report_dir"] / "semindex.R0.run", workspace["report_dir"] / "b.run"
        bad.write_text(run_text, encoding="utf-8")
        if sidecar is not None:
            (workspace["report_dir"] / "b.found.json").write_text(sidecar, encoding="utf-8")
        assert main([command, str(good), str(bad)] + common_args(workspace)) == 2
        assert f"{bad}: {fault}" in caplog.text

    @pytest.mark.parametrize("command", ["eval", "compare"])
    @pytest.mark.parametrize("not_utf8", ["run", "sidecar"])
    def test_file_that_is_not_utf8_is_named_once(self, workspace, caplog, command, not_utf8):
        build_indexes(workspace)
        assert main(["batch", "--search-type", "R0"] + common_args(workspace)) == 0
        good, bad = workspace["report_dir"] / "semindex.R0.run", workspace["report_dir"] / "b.run"
        sidecar = workspace["report_dir"] / "b.found.json"
        bad.write_bytes(b"q1 Q0 d1 1 2.0 t\n")
        sidecar.write_bytes(b'{"q1": 1}')
        target = bad if not_utf8 == "run" else sidecar
        target.write_bytes(b"\xff" + target.read_bytes())
        assert main([command, str(good), str(bad)] + common_args(workspace)) == 2
        assert f"{target}: not UTF-8 text" in caplog.text
        assert caplog.text.count(str(target)) == 1
        assert caplog.text.count(str(bad)) == (target == bad)

    def test_runs_that_share_a_label_are_usage_error(self, workspace, caplog):
        build_indexes(workspace)
        main(["batch", "--search-type", "R0"] + common_args(workspace))
        first, second = copy_run(workspace, "semindex.R0", "a"), copy_run(workspace, "semindex.R0", "b")
        assert main(["eval", str(first), str(second)] + common_args(workspace)) == 1
        assert f"runs {first} and {second} share the label 'semindex.R0'" in caplog.text
        assert not list(workspace["report_dir"].glob("*.tsv"))

    def test_requires_qrels(self, workspace):
        build_indexes(workspace)
        main(["batch", "--search-type", "R0"] + common_args(workspace))
        run_path = workspace["report_dir"] / "semindex.R0.run"
        args = [
            "--corpus", str(workspace["corpus"]),
            "--report-dir", str(workspace["report_dir"]),
        ]
        assert main(["eval", str(run_path)] + args) == 1


class TestCompareCommand:
    def _runs(self, workspace):
        build_indexes(workspace)
        for st in ("R0", "R1", "R2", "R3"):
            main(["batch", "--search-type", st] + common_args(workspace))
        return {
            st: workspace["report_dir"] / f"semindex.{st}.run"
            for st in ("R0", "R1", "R2", "R3")
        }

    def test_deltas_buckets_and_threeway(self, workspace, capsys):
        runs = self._runs(workspace)
        code = main(
            ["compare", str(runs["R0"]), str(runs["R1"]), str(runs["R2"]), str(runs["R3"])]
            + common_args(workspace)
        )
        assert code == 0
        report_dir = workspace["report_dir"]
        for st in ("R1", "R2", "R3"):
            assert (report_dir / f"semindex.R0_vs_semindex.{st}.deltas.tsv").exists()
            assert (report_dir / f"semindex.R0_vs_semindex.{st}.buckets.json").exists()
        assert (report_dir / "threeway.tsv").exists()
        out = capsys.readouterr().out
        assert "threeway" in out

    def test_single_treatment_skips_threeway(self, workspace):
        runs = self._runs(workspace)
        (workspace["report_dir"] / "threeway.tsv").unlink(missing_ok=True)
        code = main(["compare", str(runs["R0"]), str(runs["R1"])] + common_args(workspace))
        assert code == 0
        assert not (workspace["report_dir"] / "threeway.tsv").exists()

    def test_treatments_that_share_a_label_are_usage_error(self, workspace, caplog):
        runs = self._runs(workspace)
        first, second = copy_run(workspace, "semindex.R1", "a"), copy_run(workspace, "semindex.R1", "b")
        argv = ["compare", str(runs["R0"]), str(first), str(second), str(runs["R2"])]
        assert main(argv + common_args(workspace)) == 1
        assert f"runs {first} and {second} share the label 'semindex.R1'" in caplog.text
        assert not list(workspace["report_dir"].glob("*.tsv"))

    def test_baseline_may_share_a_label_with_a_treatment(self, workspace):
        runs = self._runs(workspace)
        old = copy_run(workspace, "semindex.R0", "old")
        assert main(["compare", str(old), str(runs["R0"])] + common_args(workspace)) == 0
        assert (workspace["report_dir"] / "semindex.R0_vs_semindex.R0.deltas.tsv").exists()

    def test_query_set_mismatch_is_data_error(self, workspace):
        runs = self._runs(workspace)
        crippled = workspace["report_dir"] / "crippled.run"
        lines = runs["R1"].read_text(encoding="utf-8").splitlines()
        kept = [line for line in lines if not line.startswith("q1 ")]
        crippled.write_text("\n".join(kept) + "\n", encoding="utf-8")
        code = main(["compare", str(runs["R0"]), str(crippled)] + common_args(workspace))
        assert code == 2


class TestPipelineCommand:
    def test_end_to_end(self, workspace, capsys):
        assert main(["pipeline"] + common_args(workspace)) == 0
        report_dir = workspace["report_dir"]
        for st in ("R0", "R1", "R2", "R3"):
            assert (report_dir / f"semindex.{st}.run").exists()
            assert (report_dir / f"semindex.{st}.eval.tsv").exists()
        assert (report_dir / "summary.tsv").exists()
        assert (report_dir / "threeway.json").exists()
        out = capsys.readouterr().out
        assert "semindex.R1" in out

    def test_requires_all_inputs(self, workspace):
        args = ["--corpus", str(workspace["corpus"])]
        assert main(["pipeline"] + args) == 1

    # Each input file's line fault names that file, as a run file's does.
    @pytest.mark.parametrize(
        "key, line, fault",
        [
            ("lexicon", '{"id": "s1"}', "line 1: unknown pos tag None"),
            ("stopwords", "من في", "line 1: stopword 'من في' is more than one token"),
            (
                "corpus",
                '{"id": "d1", "text": "a"}\n{"id": "d1", "text": "b"}',
                "line 2: duplicate doc_id 'd1' (first seen on line 1)",
            ),
            ("queries", "q1 اثم", "line 1: expected qid<TAB>query text"),
            ("qrels", "q1 d1 1", "line 1: expected 4 fields, got 3"),
        ],
        ids=["lexicon", "stopwords", "corpus", "queries", "qrels"],
    )
    def test_a_line_fault_names_its_file(self, workspace, caplog, key, line, fault):
        workspace[key].write_text(line + "\n", encoding="utf-8")
        assert main(["pipeline", "--stopwords", str(workspace["stopwords"])] + common_args(workspace)) == 2
        assert f"{workspace[key]}: {fault}" in caplog.text

    def test_reports_equal_the_step_by_step_commands(self, workspace, tmp_path):
        # One unjudged query, so evaluation skips a qid on both paths.
        with open(workspace["queries"], "a", encoding="utf-8") as fh:
            fh.write("q4\tشجرة\n")
        assert main(["pipeline"] + common_args(workspace)) == 0

        steps = dict(workspace, index_dir=tmp_path / "step_indexes", report_dir=tmp_path / "step_reports")
        build_indexes(steps)
        for st in ("R0", "R1", "R2", "R3"):
            assert main(["batch", "--search-type", st] + common_args(steps)) == 0
        runs = [str(steps["report_dir"] / f"semindex.{st}.run") for st in ("R0", "R1", "R2", "R3")]
        assert main(["eval"] + runs + common_args(steps)) == 0
        assert main(["compare"] + runs + common_args(steps)) == 0

        for key in ("index_dir", "report_dir"):
            pipeline_files = {p.name: p.read_bytes() for p in workspace[key].iterdir()}
            step_files = {p.name: p.read_bytes() for p in steps[key].iterdir()}
            assert pipeline_files == step_files, key

    def test_each_document_is_tokenized_once(self, workspace, monkeypatch):
        calls = []

        def counting_tokenize(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(index_module, "tokenize", counting_tokenize)
        assert main(["pipeline"] + common_args(workspace)) == 0
        assert sorted(calls) == sorted(line["text"] for line in CORPUS_LINES)

    def test_whitespace_in_doc_id_is_skipped_and_runs_read_back(self, workspace):
        with open(workspace["corpus"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps({"id": "d 6", "text": "اثم"}, ensure_ascii=False) + "\n")
        assert main(["pipeline"] + common_args(workspace)) == 0
        report = json.loads((workspace["index_dir"] / "plain.build.json").read_text())
        assert report["documents_indexed"] == 5
        assert report["skipped"] == [{"line": 6, "reason": "'id' 'd 6' contains whitespace"}]
        for st in ("R0", "R1", "R2", "R3"):
            run_path = workspace["report_dir"] / f"semindex.{st}.run"
            read_run(run_path, run_path.with_name(f"semindex.{st}.found.json"))

    def test_rerun_is_idempotent(self, workspace):
        assert main(["pipeline"] + common_args(workspace)) == 0
        snapshot = {
            p: p.read_bytes() for p in sorted(workspace["report_dir"].glob("*")) if p.is_file()
        }
        assert main(["pipeline"] + common_args(workspace)) == 0
        for path, blob in snapshot.items():
            assert path.read_bytes() == blob, path


class TestConfigHandling:
    def test_config_file_with_flag_override(self, workspace, tmp_path):
        config = tmp_path / "exp.conf"
        config.write_text(
            "\n".join(
                [
                    "# experiment settings",
                    f"corpus = {workspace['corpus']}",
                    f"lexicon = {workspace['lexicon']}",
                    f"queries = {workspace['queries']}",
                    f"qrels = {workspace['qrels']}",
                    f"index_dir = {workspace['index_dir']}",
                    f"report_dir = {workspace['report_dir']}",
                    "depth = 2",
                    'tag = "fromfile"',
                ]
            )
            + "\n",
            encoding="utf-8",
        )
        assert main(["index", "--mode", "plain", "--config", str(config)]) == 0
        assert main(["index", "--mode", "semantic", "--config", str(config)]) == 0
        assert main(["batch", "--search-type", "R0", "--config", str(config),
                     "--tag", "cli"]) == 0
        # flag beat the file for the tag; depth came from the file
        run_path = workspace["report_dir"] / "cli.R0.run"
        assert run_path.exists()
        run = read_run(run_path)
        assert all(len(rl.doc_ids) <= 2 for rl in run.results)

    # "t\udcff" is how argv decodes the non-UTF-8 bytes of --tag $'t\xff'.
    # A tag with a path separator would put run files outside report_dir;
    # "{tmp}" stands for the test's own directory, so nothing lands elsewhere.
    @pytest.mark.parametrize("tag", ["my tag", "tab\there", "", "t\udcff", "a/b", "{tmp}/abs/x"])
    def test_tag_that_would_break_run_lines_is_rejected(self, workspace, tmp_path, caplog, tag):
        build_indexes(workspace)
        tag = tag.format(tmp=tmp_path)
        code = main(["batch", "--search-type", "R0", "--tag", tag] + common_args(workspace))
        assert code == 1
        assert "tag" in caplog.text
        assert not workspace["report_dir"].exists()
        assert not (tmp_path / "abs").exists()

    # argparse reads a path flag as it reads a path argument, below.
    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_empty_path_flag_is_usage_error(self, workspace, tmp_path, monkeypatch, capsys, key):
        self.test_empty_path_argument_is_usage_error(
            workspace, tmp_path, monkeypatch, capsys, ["batch", "--search-type", "R2", flag_of(key), ""]
        )

    @pytest.mark.parametrize("key", PATH_KEYS)
    def test_empty_path_in_config_file_is_usage_error(self, workspace, tmp_path, monkeypatch, caplog, key):
        build_indexes(workspace)
        monkeypatch.chdir(tmp_path)
        config = tmp_path / "empty.conf"
        config.write_text(f"{key} =\n", encoding="utf-8")
        args = common_args(workspace)
        if flag_of(key) in args:  # the flag would override the file's value
            at = args.index(flag_of(key))
            del args[at:at + 2]
        code = main(["batch", "--search-type", "R2", "--config", str(config)] + args)
        assert code == 1
        assert f"invalid value for {key!r}: ''" in caplog.text
        assert not workspace["report_dir"].exists() and not list(tmp_path.glob("*.run"))

    # No file name holds a NUL byte, and opening one raises ValueError, not OSError.
    @pytest.mark.parametrize("key", PATH_KEYS + ["tag"])
    def test_nul_in_config_value_is_usage_error(self, workspace, tmp_path, capsys, caplog, key):
        config = tmp_path / "nul.conf"
        config.write_text(f"{key} = a\0b\n", encoding="utf-8")
        args = common_args(workspace)
        if flag_of(key) in args:  # the flag would override the file's value
            at = args.index(flag_of(key))
            del args[at:at + 2]
        code = main(["pipeline", "--config", str(config)] + args)
        assert code == 1
        assert repr("a\0b") in caplog.text
        assert "Traceback" not in capsys.readouterr().err
        assert not workspace["index_dir"].exists() and not workspace["report_dir"].exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["search", "--config", "", "x"],
            ["index", "--mode", "plain", "--export-json", ""],
            ["eval", ""],
            ["compare", "", ""],
        ],
        ids=["config", "export-json", "eval-run", "compare-run"],
    )
    def test_empty_path_argument_is_usage_error(self, workspace, tmp_path, monkeypatch, capsys, argv):
        # Path("") is the working directory, which no path argument means.
        monkeypatch.chdir(tmp_path)
        assert main(argv + common_args(workspace)) == 1
        assert "invalid nonempty_path value: ''" in capsys.readouterr().err
        assert not workspace["index_dir"].exists() and not workspace["report_dir"].exists()

    def test_unknown_config_key(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("nonsense = 1\n", encoding="utf-8")
        assert main(["index", "--mode", "plain", "--config", str(config)]) == 1

    def test_key_set_twice_is_config_error(self, tmp_path, caplog):
        config = tmp_path / "twice.conf"
        config.write_text("depth = 5\n# deeper\ndepth = 7\n", encoding="utf-8")
        assert main(["index", "--mode", "plain", "--config", str(config)]) == 1
        assert f"{config}: line 3: option 'depth' set twice (first seen on line 1)" in caplog.text

    def test_max_concept_tokens_is_not_an_option(self, workspace, tmp_path):
        # The lexicon's own lemmas bound concept matching.
        assert main(["index", "--mode", "plain", "--max-concept-tokens", "2"] + common_args(workspace)) == 1
        config = tmp_path / "old.conf"
        config.write_text("max_concept_tokens = 4\n", encoding="utf-8")
        assert main(["index", "--mode", "plain", "--config", str(config)] + common_args(workspace)) == 1
        assert not workspace["index_dir"].exists()

    # "#" starts a comment even inside quotes, so each value below loses its
    # closing quote; it used to become a tag or a path starting with a quote.
    @pytest.mark.parametrize(
        "line", ['tag = "a#b"', "corpus = '/d/x#1.jsonl'", 'tag = "', "tag = 'a\""]
    )
    def test_unterminated_quote_is_config_error(self, tmp_path, caplog, line):
        config = tmp_path / "quoted.conf"
        config.write_text(f"# settings\n{line}\n", encoding="utf-8")
        assert main(["index", "--mode", "plain", "--config", str(config)]) == 1
        assert f"{config}: line 2: unterminated quote" in caplog.text
        assert "'#' starts a comment" in caplog.text

    def test_invalid_value(self, tmp_path):
        config = tmp_path / "bad.conf"
        config.write_text("depth = soon\n", encoding="utf-8")
        assert main(["index", "--mode", "plain", "--config", str(config)]) == 1

    # A value its key's reader refuses is a fault on a line like any other.
    @pytest.mark.parametrize(
        "line, key, raw", [("depth = x", "depth", "x"), ("k1 = x", "k1", "x"), ("corpus = ''", "corpus", "")],
        ids=["int", "float", "path"],
    )
    def test_invalid_value_names_the_file_and_line(self, workspace, tmp_path, caplog, line, key, raw):
        config = tmp_path / "exp.conf"
        config.write_text(f"# settings\n{line}\n", encoding="utf-8")
        assert main(["pipeline", "--config", str(config)] + common_args(workspace)) == 1
        assert caplog.messages == [f"{config}: line 2: invalid value for {key!r}: {raw!r}"]
        assert not workspace["index_dir"].exists() and not workspace["report_dir"].exists()

    @pytest.mark.parametrize("flag, kind", [("--depth", "int"), ("--k1", "float")])
    def test_unreadable_flag_value_is_reported_by_argparse(self, workspace, capsys, caplog, flag, kind):
        assert main(["pipeline", flag, "x"] + common_args(workspace)) == 1
        assert f"argument {flag}: invalid {kind} value: 'x'" in capsys.readouterr().err
        assert caplog.messages == []
        assert not workspace["index_dir"].exists() and not workspace["report_dir"].exists()

    @pytest.mark.parametrize(
        "flag", [["--k1", "nan"], ["--k1", "inf"], ["--b", "nan"]], ids=["k1-nan", "k1-inf", "b-nan"]
    )
    def test_non_finite_bm25_flag_is_rejected(self, workspace, caplog, flag):
        assert main(["pipeline"] + flag + common_args(workspace)) == 1
        assert "bad BM25 parameters" in caplog.text
        assert not workspace["report_dir"].exists()

    def test_non_finite_k1_in_config_file_is_rejected(self, workspace, tmp_path, caplog):
        config = tmp_path / "nan.conf"
        config.write_text("k1 = nan\n", encoding="utf-8")
        code = main(["pipeline", "--config", str(config)] + common_args(workspace))
        assert code == 1
        assert "bad BM25 parameters" in caplog.text
        assert not workspace["report_dir"].exists()

    def test_non_utf8_config_file_is_config_error(self, tmp_path, capsys, caplog):
        config = tmp_path / "latin1.conf"
        config.write_bytes("tag = café\n".encode("latin-1"))
        assert main(["index", "--mode", "plain", "--config", str(config)]) == 1
        assert "latin1.conf" in caplog.text and "UTF-8" in caplog.text
        assert "Traceback" not in capsys.readouterr().err

    def test_every_config_field_has_a_coercer(self):
        assert set(config_module._COERCERS) == {f.name for f in dataclasses.fields(Config)}

    @pytest.mark.parametrize("command", SUBCOMMAND_ARGV)
    @pytest.mark.parametrize("option", dataclasses.fields(Config), ids=lambda f: f.name)
    def test_every_config_field_is_a_flag_and_a_key(self, tmp_path, option, command):
        key = option.name
        flag_help = {a.dest: a.help for a in subcommand_parsers()[command]._actions}[key]
        assert flag_help.startswith(option.metadata["help"])
        raw = SAMPLE_VALUES[config_module._COERCERS[key]]
        parser = build_parser()
        from_flag = resolve_config(parser.parse_args(SUBCOMMAND_ARGV[command] + [flag_of(key), raw]))
        config = tmp_path / "one.conf"
        config.write_text(f"{key} = {raw}\n", encoding="utf-8")
        from_file = resolve_config(parser.parse_args(SUBCOMMAND_ARGV[command] + ["--config", str(config)]))
        assert from_flag == from_file
        assert getattr(from_flag, key) != getattr(Config(), key)
        assert dataclasses.replace(from_flag, **{key: getattr(Config(), key)}) == Config()

    # The CLI refuses a setting by the library's own rule and message.
    @pytest.mark.parametrize("command", SUBCOMMAND_ARGV)
    @pytest.mark.parametrize(
        "flag, raw, check, values",
        [
            ("--depth", "0", index_module.check_depth, (0,)),
            ("--workers", "0", index_module.check_workers, (0,)),
            ("--k1", "-1", index_module.check_bm25_params, (-1.0, Config.b)),
            ("--b", "1.5", index_module.check_bm25_params, (Config.k1, 1.5)),
        ],
        ids=["depth", "workers", "k1", "b"],
    )
    def test_setting_is_refused_with_the_library_message(
        self, workspace, capsys, caplog, command, flag, raw, check, values
    ):
        with pytest.raises(ValueError) as refused:
            check(*values)
        assert main(SUBCOMMAND_ARGV[command] + [flag, raw] + common_args(workspace)) == 1
        assert caplog.messages == [str(refused.value)]
        assert "Traceback" not in capsys.readouterr().err
        assert not workspace["index_dir"].exists() and not workspace["report_dir"].exists()

    def test_flag_test_covers_every_subcommand(self):
        assert set(subcommand_parsers()) == set(SUBCOMMAND_ARGV)

    def test_option_help_shows_the_config_defaults(self, capsys):
        assert main(["pipeline", "--help"]) == 0
        out = " ".join(capsys.readouterr().out.split())
        for default in (
            f"(default {Config.k1})",
            f"(default {Config.b})",
            f"(default {Config.depth})",
            f"(default {Config.workers})",
            f"(default {Config.tag!r})",
        ):
            assert default in out

    def test_no_command_is_usage_error(self):
        assert main([]) == 1

    def test_bad_flag_value_is_usage_error(self):
        assert main(["batch", "--search-type", "R9"]) == 1
