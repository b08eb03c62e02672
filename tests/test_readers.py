"""Every input reader turns arbitrary text or bytes into data or into
DataError (the config reader into UsageError), never into any other
exception."""

from __future__ import annotations

import io
import json
import re

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semindex import (
    DataError,
    Lexicon,
    Query,
    load_lexicon,
    load_stopwords,
    read_corpus,
    read_qrels,
    read_queries,
    read_run,
)
from semindex.config import UsageError, load_config

READERS = {
    "corpus": (read_corpus, DataError),
    "lexicon": (load_lexicon, DataError),
    "queries": (read_queries, DataError),
    "qrels": (read_qrels, DataError),
    "run": (read_run, DataError),
    "sidecar": (lambda source: read_run(io.StringIO(""), source), DataError),
    "config": (load_config, UsageError),
    "stopwords": (load_stopwords, DataError),
}

# Pieces of the input formats, so that generated text often gets past a
# reader's first check and reaches the later ones.
FRAGMENTS = [
    "{", "}", "[", "]", '"', ":", ",", " ", "\t", "\n", "\r", " ", "#", "=", "\\", "'",
    "0", "1", "-1", "1.5", "1e999", "nan", "null", "true", "Q0",
    '"id"', '"text"', '"pos"', '"n"', '"lemmas"', '"relations"', '"q1"',
    "k1", "b", "depth", "workers", "tag", "corpus",
    "اثم", "إ", "ـ", "ً", "\ud800",
]

TEXT = st.one_of(
    st.text(),
    st.lists(st.sampled_from(FRAGMENTS) | st.text(max_size=3), max_size=40).map("".join),
)
INPUTS = st.one_of(TEXT, st.binary(), TEXT.map(lambda t: t.encode("utf-8", "surrogatepass")))


@pytest.mark.parametrize("reader", READERS)
@given(data=INPUTS)
@example(data="[" * 100_000)
@example(data='{"id": ' + "1" * 5000 + "}")
@example(data='{"id": "s1", "pos": ["n"], "lemmas": ["x"]}')
@example(data=b"\xff\xfe")
def test_reader_raises_only_its_own_errors(reader, data):
    read, error = READERS[reader]
    source = io.BytesIO(data) if isinstance(data, bytes) else io.StringIO(data)
    try:
        read(source)
    except error:
        pass


# One valid input per reader.
SAMPLES = {
    "corpus": '{"id": "d1", "text": "اثم"}\n{"id": "d2", "text": "ذنب"}\n',
    "lexicon": '{"id": "s1", "pos": "n", "lemmas": ["اثم", "ذنب"]}\n',
    "queries": "q1\tاثم\nq2\tذنب\n",
    "qrels": "q1 0 d1 1\nq1 0 d2 0\n",
    "run": "q1 Q0 d1 1 1.500000 t\nq1 Q0 d2 2 0.500000 t\n",
    "sidecar": '{"q1": 3, "q2": 0}\n',
    "config": "depth = 5\ntag = t\n",
    "stopwords": "في\nمن\n",
}


@pytest.mark.parametrize("reader", READERS)
def test_a_leading_byte_order_mark_is_not_text(reader, tmp_path):
    # A BOM is a signature (RFC 3629, section 6): it used to reach the first
    # record, so a qid became "\ufeffq1" and a first JSON line was invalid.
    read, _ = READERS[reader]
    text = SAMPLES[reader]
    plain, marked = tmp_path / "plain", tmp_path / "marked"
    plain.write_bytes(text.encode("utf-8"))
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))

    def comparable(result):  # a Lexicon has no __eq__; its digest covers its content
        return result.digest() if isinstance(result, Lexicon) else result

    expected = comparable(read(plain))
    for source in (marked, io.BytesIO(marked.read_bytes()), io.StringIO("\ufeff" + text)):
        assert comparable(read(source)) == expected


# Each line reader with a key, its error class, an input whose key on line 1
# comes back on line 3, and the reader's words for that repeat.
DUPLICATE_KEYS = {
    "corpus": (
        DataError,
        ['{"id": "d1", "text": "a"}', '{"id": "d2", "text": "b"}', '{"id": "d1", "text": "c"}'],
        "duplicate doc_id 'd1'",
    ),
    "lexicon": (
        DataError,
        [
            '{"id": "s1", "pos": "n", "lemmas": ["a"]}',
            '{"id": "s2", "pos": "n", "lemmas": ["b"]}',
            '{"id": "s1", "pos": "v", "lemmas": ["c"]}',
        ],
        "duplicate synset id 's1'",
    ),
    "queries": (DataError, ["q1\ta", "q2\tb", "q1\tc"], "duplicate qid 'q1'"),
    "qrels": (
        DataError,
        ["q1 0 d1 1", "q1 0 d2 1", "q1 0 d1 0"],
        "document 'd1' judged twice for query 'q1'",
    ),
    "config": (UsageError, ["depth = 5", "tag = t", "depth = 7"], "option 'depth' set twice"),
}


@pytest.mark.parametrize("reader", DUPLICATE_KEYS)
def test_a_repeated_key_names_both_lines(reader):
    read, _ = READERS[reader]
    error, lines, what = DUPLICATE_KEYS[reader]
    with pytest.raises(error) as raised:
        read(io.StringIO("\n".join(lines) + "\n"))
    assert type(raised.value) is error
    assert str(raised.value) == f"input stream: line 3: {what} (first seen on line 1)"


# Each line reader but read_run (see tests/test_engine.py), an input with a
# fault on one line, and its message.
LINE_FAULTS = {
    **{reader: (lines, f"line 3: {what} (first seen on line 1)")
       for reader, (_, lines, what) in DUPLICATE_KEYS.items()},
    "stopwords": (["في", "من في"], "line 2: stopword 'من في' is more than one token"),
}


@pytest.mark.parametrize("reader", LINE_FAULTS)
def test_a_line_fault_names_its_source(reader, tmp_path):
    # As read_text names a file that is not UTF-8: the path, a stream's name,
    # or "input stream"; and that file is named once.
    read, error = READERS[reader]
    lines, message = LINE_FAULTS[reader]
    path = tmp_path / "input"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    unnamed = io.StringIO(path.read_text(encoding="utf-8"))
    with open(path, encoding="utf-8") as named:
        for source, name in ((path, str(path)), (named, str(path)), (unnamed, "input stream")):
            with pytest.raises(error) as raised:
                read(source)
            assert str(raised.value) == f"{name}: {message}"
    path.write_bytes(b"\xff\n")
    with pytest.raises(error) as raised:
        read(path)
    assert str(raised.value) == f"{path}: not UTF-8 text (invalid start byte at byte 0)"


# A JSON object that repeats a key is malformed, at any depth. Each JSON
# reader reports it its own way, naming the key and no made-up position.


def test_a_corpus_record_that_repeats_a_key_is_skipped():
    lines = [
        '{"id": "a", "id": "b", "text": "x"}',
        '{"id": "c", "text": "y", "relations": {"r": 1, "r": 2}}',
        '{"id": "d", "text": "z"}',
    ]
    corpus = read_corpus(io.StringIO("\n".join(lines) + "\n"))
    assert corpus.documents == [("d", "z")]
    assert [(skip.line_no, skip.reason) for skip in corpus.skipped] == [
        (1, "invalid JSON (duplicate key 'id')"),
        (2, "invalid JSON (duplicate key 'r')"),
    ]


def test_a_lexicon_record_that_repeats_a_key_is_an_error():
    lines = ['{"id": "s1", "pos": "n", "lemmas": ["a"]}', '{"id": "s2", "pos": "n", "lemmas": ["b"], "lemmas": ["c"]}']
    with pytest.raises(DataError) as raised:
        load_lexicon(io.StringIO("\n".join(lines) + "\n"))
    assert str(raised.value) == "input stream: line 2: invalid JSON (duplicate key 'lemmas')"


def test_a_sidecar_that_repeats_a_qid_is_an_error():
    with pytest.raises(DataError) as raised:
        read_run(io.StringIO("q1 Q0 d1 1 1.0 t\n"), io.StringIO('{"q1": 9, "q1": 1}'))
    assert str(raised.value) == "input stream: found-count sidecar is not valid JSON (duplicate key 'q1')"


# str.splitlines() ends a line at each of these; a text editor does not, and
# json.dumps(..., ensure_ascii=False) writes U+2028, U+2029 and U+0085 raw.
NON_NEWLINE_BREAKS = ["\u2028", "\u2029", "\x85", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e"]


@pytest.mark.parametrize("char", NON_NEWLINE_BREAKS, ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"], ids=["LF", "CRLF", "CR"])
def test_records_hold_characters_that_are_not_line_ends(tmp_path, char, newline):
    text = f"alpha{char}beta"
    path = tmp_path / "input"

    def write(*lines):
        path.write_bytes(newline.join(lines).encode("utf-8") + newline.encode())
        return path

    corpus = read_corpus(write(json.dumps({"id": "d1", "text": text}, ensure_ascii=False), "{broken"))
    assert corpus.documents == [("d1", text)]
    assert [skip.line_no for skip in corpus.skipped] == [2]

    lexicon = load_lexicon(write(json.dumps({"id": f"s{char}1", "pos": "n", "lemmas": ["x"]}, ensure_ascii=False)))
    assert lexicon.synset(f"s{char}1").lemmas == ("x",)
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 2: invalid JSON"):
        load_lexicon(write(json.dumps({"id": "s1", "pos": "n", "lemmas": ["x"]}), "{broken"))

    assert read_queries(write(f"q1\t{text}")) == [Query("q1", text)]
    with pytest.raises(DataError, match=f"^{re.escape(str(path))}: line 2: expected qid<TAB>query text"):
        read_queries(write(f"q1\t{text}", "no tab"))
