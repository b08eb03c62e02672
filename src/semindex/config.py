"""Run configuration: defaults, config-file parsing, flag overrides.

The config file is flat ``key = value`` text; ``#`` starts a comment.
Command-line flags win over file values, which win over the defaults.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

from ._util import DataError, TextSource, is_field, iter_lines
from .engine import DEFAULT_RUN_TAG
from .index import DEFAULT_B, DEFAULT_K1


class ConfigError(ValueError):
    """Bad config file or invalid option value."""


@dataclass
class Config:
    lexicon: Path | None = None
    corpus: Path | None = None
    stopwords: Path | None = None
    queries: Path | None = None
    qrels: Path | None = None
    index_dir: Path = Path("indexes")
    report_dir: Path = Path("reports")
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B
    depth: int = 1000
    workers: int = 1
    tag: str = DEFAULT_RUN_TAG


def nonempty_path(raw: str) -> Path:
    if not raw:  # Path("") would be the working directory
        raise ValueError("empty path")
    return Path(raw)


# Config key -> the function that reads its value from text.
_COERCERS = {
    **dict.fromkeys(("lexicon", "corpus", "stopwords", "queries", "qrels", "index_dir", "report_dir"), nonempty_path),
    **dict.fromkeys(("k1", "b"), float),
    **dict.fromkeys(("depth", "workers"), int),
    "tag": str,
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
    for line_no, line in lines:
        stripped = line.split("#", 1)[0].strip()
        if not stripped:  # a comment line
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _COERCERS:
            raise ConfigError(f"line {line_no}: unknown option {key!r}")
        if raw and raw[0] in "\"'" and raw[-1:] == raw[0]:
            raw = raw[1:-1]
        values[key] = coerce(key, raw)
    return Config(**values)


def validate_sanity(config: Config) -> None:
    """Cheap value checks shared by every command."""
    # Chained comparisons with nan are false, so nan fails both checks.
    if not (0.0 <= config.k1 < math.inf and 0.0 <= config.b <= 1.0):
        raise ConfigError(f"bad BM25 parameters: k1={config.k1}, b={config.b}")
    if config.depth < 1:
        raise ConfigError("depth must be >= 1")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    # The tag names run files inside report_dir, so it holds no path separator.
    if not is_field(config.tag) or any(sep in config.tag for sep in filter(None, ("/", os.sep, os.altsep))):
        raise ConfigError(f"tag {config.tag!r} must be non-empty UTF-8 with no whitespace or path separator")
