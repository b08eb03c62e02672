"""Every input reader turns arbitrary text or bytes into data or into its
own error class, never into any other exception."""

from __future__ import annotations

import io

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from semindex import load_lexicon, load_stopwords, read_corpus, read_qrels, read_queries, read_run
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
