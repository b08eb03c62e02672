"""The public names, settings and flags of ``semindex``: each one is kept on purpose."""

from __future__ import annotations

import argparse
import dataclasses
import inspect

import semindex
from semindex.cli import build_parser
from semindex.config import Config

PUBLIC_NAMES = {
    "ConceptMatch", "DeltaRecord", "DeltaReport", "DuplicateDocumentError", "EvalRecord", "EvalResult",
    "Index", "IndexFormatError", "IndexMode", "IndexModeError", "Lexicon", "LexiconError",
    "LexiconMismatchWarning", "MissingIndexError", "PrecisionSummary", "Qrels", "Query", "QueryFileError",
    "RankedList", "Run", "RunFormatError", "SearchSystem", "SearchType", "SignBuckets", "Synset",
    "ThreeWayBuckets", "ThreeWayReport", "build_index", "build_indexes", "delta_report", "evaluate_run",
    "expand", "format_run", "load_index", "load_lexicon", "load_stopwords", "match_concepts", "normalize",
    "normalize_lemma", "read_corpus", "read_qrels", "read_queries", "read_run", "remove_stopwords",
    "semantize", "threeway_report", "tokenize", "write_run",
}


def test_the_public_names_are_exactly_these():
    # Counted as the CI summary counts them: submodules and _names aside.
    names = {name for name, value in vars(semindex).items() if not name.startswith("_") and not inspect.ismodule(value)}
    assert names == PUBLIC_NAMES
    assert len(names) == 48


def test_the_settings_are_exactly_these():
    # A Config field is a setting of the config file and a flag of every subcommand.
    names = [f.name for f in dataclasses.fields(Config)]
    assert names == [
        "lexicon", "corpus", "stopwords", "queries", "qrels", "index_dir", "report_dir", "k1", "b", "depth",
        "workers", "tag",
    ]


def test_each_subcommand_has_this_many_flags():
    # Counted as the CI summary counts them: every option, -h included.
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    counts = {name: sum(bool(a.option_strings) for a in parser._actions) for name, parser in sub.choices.items()}
    assert counts == {"index": 17, "batch": 16, "search": 16, "eval": 15, "compare": 15, "pipeline": 15}
