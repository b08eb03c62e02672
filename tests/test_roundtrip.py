"""What semindex accepts as input, it writes and reads back unchanged.

Inputs are drawn from any text, lone surrogates included, and kept only
when the readers and ``validate_sanity`` accept them. A writer given
unfiltered values either refuses them or writes what reads back unchanged.
"""

from __future__ import annotations

import io
import json

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from semindex import (
    DataError,
    IndexMode,
    Query,
    Run,
    SearchSystem,
    SearchType,
    build_index,
    format_run,
    load_index,
    read_corpus,
    read_queries,
    read_run,
    write_run,
)
from semindex.config import Config, UsageError, validate_sanity

from helpers import lexicon_strategy

# st.characters() never yields a lone surrogate; the sampled ones do.
chars = st.one_of(st.characters(), st.sampled_from(["\ud800", "\udcff", " ", "\t", "\u2028", "x", "ا"]))
fields = st.one_of(st.text(chars, min_size=1, max_size=6), st.text("dqx019", min_size=1, max_size=3))
# Few distinct tokens, so that queries find documents and runs have lines.
token_texts = st.lists(st.sampled_from(["ا", "ب", "x", "y"]), min_size=1, max_size=5).map(" ".join)
texts = st.one_of(token_texts, st.text(chars, max_size=12))


def records(text_strategy):
    return st.lists(st.tuples(fields, text_strategy), min_size=1, max_size=8, unique_by=lambda r: r[0])


def corpus_of(pairs) -> list[tuple[str, str]]:
    """The documents read_corpus accepts from a JSONL file of ``pairs``."""
    lines = [json.dumps({"id": doc_id, "text": text}) for doc_id, text in pairs]
    return read_corpus(io.StringIO("\n".join(lines))).documents


def accepted_queries(pairs) -> list:
    """The queries read_queries accepts, each read from a one-line file."""
    queries, seen = [], set()
    for qid, text in pairs:
        try:
            read = read_queries(io.StringIO(f"{qid}\t{text}\n"))
        except DataError:
            continue
        for query in read:  # none for a blank line
            if query.qid not in seen:
                seen.add(query.qid)
                queries.append(query)
    return queries


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("roundtrip")


@settings(deadline=None)
@example(pairs=[("\ud800", "x"), ("d1", "x")], lex_mode=(None, IndexMode.PLAIN))
@given(pairs=records(texts), lex_mode=st.tuples(lexicon_strategy(), st.sampled_from(IndexMode)))
def test_index_save_load_round_trip(workdir, pairs, lex_mode):
    lex, mode = lex_mode
    index = build_index(corpus_of(pairs), mode, lex)
    path = workdir / "x.idx"
    index.save(path)
    assert load_index(path).to_jsonable() == index.to_jsonable()


@settings(deadline=None)
@example(pairs=[("d1", "x")], queries=[("q1", "x")], tag="t\udcff")
@example(pairs=[("d1", "x")], queries=[("q 1", "x")], tag="semindex")
@example(pairs=[("d1", "x")], queries=[("q1", "x"), ("q1", "x")], tag="semindex")
@given(
    pairs=records(token_texts),
    queries=st.lists(st.tuples(fields, texts), min_size=1, max_size=6),
    tag=fields,
)
def test_run_write_read_round_trip(workdir, pairs, queries, tag):
    system = SearchSystem(plain_index=build_index(corpus_of(pairs), IndexMode.PLAIN))
    run_path, found_path = workdir / "x.run", workdir / "x.found.json"
    # Unfiltered qids and tag: Run refuses what read_run could not read
    # back, and what it holds reads back unchanged.
    rankings = tuple(system.run_query(Query(qid, text), SearchType.R0, 3) for qid, text in queries)
    try:
        raw = Run(tag, rankings)
        lines = format_run(raw)
    except DataError:
        pass
    else:
        write_run(raw, run_path, found_path)
        back = read_run(run_path, found_path)
        assert format_run(back) == lines
        assert [(r.qid, r.found_count) for r in back.results] == [(r.qid, r.found_count) for r in raw.results]
    try:
        validate_sanity(Config(tag=tag))
    except UsageError:
        return  # not a tag semindex accepts
    run = system.batch_run(accepted_queries(queries), SearchType.R0, depth=3, tag=tag)
    write_run(run, run_path, found_path)
    back = read_run(run_path, found_path)
    assert format_run(back) == format_run(run)
    assert [(r.qid, r.found_count) for r in back.results] == [(r.qid, r.found_count) for r in run.results]
