"""Concept-based semantic indexing and ranked retrieval for Arabic text.

The pipeline: a WordNet-style lexicon supplies synonym sets; documents are
rewritten onto canonical concept lemmas at index time, queries are expanded
with synonyms at search time, and an evaluation kit compares the four
resulting retrieval configurations (R0-R3).
"""

from ._util import DataError
from .engine import (
    LexiconMismatchWarning,
    Query,
    Run,
    SearchSystem,
    SearchType,
    format_run,
    read_queries,
    read_run,
    write_run,
)
from .evalkit import (
    DeltaRecord,
    DeltaReport,
    EvalRecord,
    EvalResult,
    PrecisionSummary,
    Qrels,
    SignBuckets,
    ThreeWayBuckets,
    ThreeWayReport,
    delta_report,
    evaluate_run,
    read_qrels,
    threeway_report,
)
from .index import (
    Index,
    IndexMode,
    RankedList,
    build_index,
    build_indexes,
    load_index,
    read_corpus,
)
from .lexicon import Lexicon, Synset, load_lexicon, normalize_lemma
from .semantics import ConceptMatch, expand, match_concepts, semantize
from .textnorm import load_stopwords, normalize, remove_stopwords, tokenize

__version__ = "0.1.0"
