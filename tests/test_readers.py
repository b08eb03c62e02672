"""Every input reader turns arbitrary text or bytes into data or into its
own error class, never into any other exception."""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semindex import Query, load_lexicon, load_stopwords, read_corpus, read_qrels, read_queries, read_run
from semindex._util import DataError
from semindex.config import ConfigError, load_config

READERS = {
    "corpus": (read_corpus, DataError),
    "lexicon": (load_lexicon, DataError),
    "queries": (read_queries, DataError),
    "qrels": (read_qrels, DataError),
    "run": (read_run, DataError),
    "sidecar": (lambda source: read_run(io.StringIO(""), source), DataError),
    "config": (load_config, ConfigError),
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
    with pytest.raises(DataError, match="^line 2: invalid JSON"):
        load_lexicon(write(json.dumps({"id": "s1", "pos": "n", "lemmas": ["x"]}), "{broken"))

    assert read_queries(write(f"q1\t{text}")) == [Query("q1", text)]
    with pytest.raises(DataError, match="^line 2: expected qid<TAB>query text"):
        read_queries(write(f"q1\t{text}", "no tab"))
