"""The public names, error and warning classes, settings and flags of
``semindex``: each one is kept on purpose.

The counting functions import nothing beyond the package, so the CI summary
prints the same numbers these tests assert, before pytest is installed:
``PYTHONPATH=src:tests python -c 'import test_api; print(len(test_api.public_names()))'``.
"""

from __future__ import annotations

import argparse
import dataclasses
import importlib
import inspect
import pkgutil

import semindex
from semindex.cli import build_parser
from semindex.config import Config

PUBLIC_NAMES = {
    "ConceptMatch", "DataError", "DeltaRecord", "DeltaReport", "EvalRecord", "EvalResult", "Index",
    "IndexMode", "Lexicon", "LexiconMismatchWarning", "PrecisionSummary", "Qrels", "Query", "RankedList",
    "Run", "SearchSystem", "SearchType", "SignBuckets", "Synset", "ThreeWayBuckets",
    "ThreeWayReport", "build_index", "build_indexes", "delta_report", "evaluate_run", "expand", "format_run",
    "load_index", "load_lexicon", "load_stopwords", "match_concepts", "normalize",
    "read_corpus", "read_qrels", "read_queries", "read_run", "remove_stopwords", "semantize",
    "threeway_report", "tokenize", "write_run",
}


def public_names() -> set[str]:
    """What ``semindex`` exports, submodules and _names aside."""
    return {name for name, value in vars(semindex).items() if not name.startswith("_") and not inspect.ismodule(value)}


def error_classes() -> set[str]:
    """The exception and warning classes each module of the package defines, _names aside."""
    modules = [importlib.import_module(f"semindex.{info.name}") for info in pkgutil.iter_modules(semindex.__path__)]
    return {
        name
        for module in modules
        for name, value in vars(module).items()
        if inspect.isclass(value) and issubclass(value, BaseException) and value.__module__ == module.__name__
        and not name.startswith("_")
    }


def settings() -> list[str]:
    """The settable options: a Config field is a setting of the config file and a flag of every subcommand."""
    return [f.name for f in dataclasses.fields(Config)]


def flag_counts() -> dict[str, int]:
    """Each subcommand's number of flags: every option, -h included."""
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    return {name: sum(bool(a.option_strings) for a in parser._actions) for name, parser in sub.choices.items()}


def optional_parameters() -> dict[str, list[str]]:
    """Every public function, and each public class's __init__ and public
    methods, by the names of its parameters that have defaults."""
    callables = {}
    for name, value in vars(semindex).items():
        if name.startswith("_"):
            continue
        if inspect.isfunction(value):
            callables[name] = value
        elif inspect.isclass(value):
            for attr, member in vars(value).items():
                if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                    callables[f"{name}.{attr}"] = member
    optional = {}
    for name, func in callables.items():
        params = [p.name for p in inspect.signature(func).parameters.values() if p.default is not p.empty]
        if params:
            optional[name] = params
    return optional


def test_the_public_names_are_exactly_these():
    names = public_names()
    assert names == PUBLIC_NAMES
    assert len(names) == 41


def test_the_error_and_warning_classes_are_exactly_these():
    # One class per exit code: UsageError 1, DataError 2.
    assert error_classes() == {"DataError", "UsageError", "LexiconMismatchWarning"}


def test_the_settings_are_exactly_these():
    assert settings() == [
        "lexicon", "corpus", "stopwords", "queries", "qrels", "index_dir", "report_dir", "k1", "b", "depth",
        "workers", "tag",
    ]


def test_each_subcommand_has_this_many_flags():
    assert flag_counts() == {"index": 17, "batch": 16, "search": 16, "eval": 15, "compare": 15, "pipeline": 15}


def test_the_optional_parameters_are_exactly_these():
    optional = optional_parameters()
    assert optional == {
        "Index.retrieve": ["depth", "k1", "b"],
        "Lexicon.__init__": ["synsets"],
        "SearchSystem.__init__": ["plain_index", "semantic_index", "lexicon", "stoplist", "k1", "b"],
        "SearchSystem.run_query": ["depth"],
        "SearchSystem.batch_run": ["depth", "tag"],
        "build_index": ["lex", "stoplist", "workers"],
        "build_indexes": ["lex", "stoplist", "workers"],
        "read_run": ["found_source"],
    }
    assert sum(map(len, optional.values())) == 20
