"""Run configuration: defaults, config-file parsing, flag overrides.

The config file is flat ``key = value`` text; ``#`` starts a comment.
Command-line flags win over file values, which win over the defaults.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from pathlib import Path

from ._util import TextSource, is_field, read_text


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
    k1: float = 1.2
    b: float = 0.75
    max_concept_tokens: int = 4
    depth: int = 1000
    workers: int = 1
    tag: str = "semindex"


_PATH_KEYS = {"lexicon", "corpus", "stopwords", "queries", "qrels", "index_dir", "report_dir"}
_FLOAT_KEYS = {"k1", "b"}
_INT_KEYS = {"max_concept_tokens", "depth", "workers"}
_STR_KEYS = {"tag"}
_ALL_KEYS = _PATH_KEYS | _FLOAT_KEYS | _INT_KEYS | _STR_KEYS


def _coerce(key: str, raw: str):
    try:
        if key in _PATH_KEYS:
            return Path(raw)
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        return raw
    except ValueError:
        raise ConfigError(f"invalid value for {key!r}: {raw!r}") from None


def parse_config_text(text: str) -> dict:
    values: dict = {}
    for line_no, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {line_no}: expected key = value")
        key, raw = (part.strip() for part in stripped.split("=", 1))
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {line_no}: unknown option {key!r}")
        if raw and raw[0] in "\"'" and raw[-1:] == raw[0]:
            raw = raw[1:-1]
        values[key] = _coerce(key, raw)
    return values


def load_config(source: TextSource) -> Config:
    return Config(**parse_config_text(read_text(source)))


def apply_overrides(config: Config, overrides: dict) -> Config:
    for key, value in overrides.items():
        if value is None:
            continue
        if key not in _ALL_KEYS:
            raise ConfigError(f"unknown option {key!r}")
        setattr(config, key, _coerce(key, str(value)) if isinstance(value, str) else value)
    return config


def validate_sanity(config: Config) -> None:
    """Cheap value checks shared by every command."""
    if config.k1 < 0 or not (0.0 <= config.b <= 1.0):
        raise ConfigError(f"bad BM25 parameters: k1={config.k1}, b={config.b}")
    if config.max_concept_tokens < 1:
        raise ConfigError("max_concept_tokens must be >= 1")
    if config.depth < 1:
        raise ConfigError("depth must be >= 1")
    if config.workers < 1:
        raise ConfigError("workers must be >= 1")
    if not is_field(config.tag):
        raise ConfigError(f"tag {config.tag!r} must be non-empty and contain no whitespace")


def config_field_names() -> list[str]:
    return [f.name for f in fields(Config)]
