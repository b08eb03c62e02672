"""The public names of ``semindex``: each one is kept on purpose."""

from __future__ import annotations

import inspect

import semindex

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
