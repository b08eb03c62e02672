"""Run configuration: defaults, config-file parsing, flag overrides.

A ``Config`` field is one setting: config-file key ``index_dir`` is flag
``--index-dir``. The config file is flat ``key = value`` text; ``#`` starts
a comment. Flags win over file values, which win over the defaults.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import get_args, get_type_hints

from ._util import DataError, TextSource, is_field, iter_lines
from .engine import DEFAULT_RUN_TAG
from .index import DEFAULT_B, DEFAULT_K1, bm25_params_valid


class ConfigError(ValueError):
    """Bad config file or invalid option value."""


def _option(default, help: str):
    """A Config field: its default and the help text of its flag."""
    return field(default=default, metadata={"help": help})


@dataclass
class Config:
    lexicon: Path | None = _option(None, "lexicon JSONL file")
    corpus: Path | None = _option(None, "corpus JSONL file")
    stopwords: Path | None = _option(None, "stopword file, one token per line")
    queries: Path | None = _option(None, "query TSV file (qid<TAB>text)")
    qrels: Path | None = _option(None, "TREC qrels file")
    index_dir: Path = _option(Path("indexes"), "index output directory")
    report_dir: Path = _option(Path("reports"), "report output directory")
    k1: float = _option(DEFAULT_K1, "BM25 k1")
    b: float = _option(DEFAULT_B, "BM25 b")
    depth: int = _option(1000, "ranking depth kept in run files")
    workers: int = _option(1, "parallel workers for index builds")
    tag: str = _option(DEFAULT_RUN_TAG, "run tag")


def nonempty_path(raw: str) -> Path:
    # Path("") would be the working directory; no file name holds a NUL.
    if not raw or "\0" in raw:
        raise ValueError("empty path or NUL in path")
    return Path(raw)


# Config key -> the function that reads its value from text: nonempty_path
# for a Path or Path | None field, the field's type (float, int, str) else.
_COERCERS = {
    key: nonempty_path if Path in (hint, *get_args(hint)) else hint
    for key, hint in get_type_hints(Config).items()
}


def coerce(key: str, raw: str):
    """The value of config key ``key`` given as text, in a file or a flag."""
    try:
        return _COERCERS[key](raw)
    except ValueError:
        raise ConfigError(f"invalid value for {key!r}: {raw!r}") from None


def load_config(source: TextSource) -> Config:
    try:
        lines = list(iter_lines(source))
    except DataError as exc:  # the file is not UTF-8
        raise ConfigError(str(exc)) from None
    values: dict = {}
    seen: dict[str, int] = {}
    for line_no, line in lines:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:  # a comment line
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _COERCERS:
            raise ConfigError(f"line {line_no}: unknown option {key!r}")
        if key in seen:
            raise ConfigError(f"line {line_no}: option {key!r} set twice (first set on line {seen[key]})")
        seen[key] = line_no
        if raw[:1] in ("\"", "'"):
            if len(raw) < 2 or raw[-1] != raw[0]:
                raise ConfigError(
                    f"line {line_no}: unterminated quote in {raw!r} ('#' starts a comment, even in quotes)"
                )
            raw = raw[1:-1]
        values[key] = coerce(key, raw)
    return Config(**values)


def validate_sanity(config: Config) -> None:
    """Cheap value checks shared by every command."""
    if not bm25_params_valid(config.k1, config.b):
        raise ConfigError(f"bad BM25 parameters: k1={config.k1}, b={config.b}")
    if config.depth < 1:
        raise ConfigError("depth must be >= 1")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    # The tag names run files inside report_dir, so it holds no path separator or NUL.
    if not is_field(config.tag) or any(c in config.tag for c in filter(None, ("/", os.sep, os.altsep, "\0"))):
        raise ConfigError(
            f"tag {config.tag!r} must be non-empty UTF-8 with no whitespace, NUL or path separator"
        )
