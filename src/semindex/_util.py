"""Small shared helpers: error base class, text-source reading, atomic writes."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Iterator, Union

TextSource = Union[str, os.PathLike, IO[str], IO[bytes]]


class DataError(ValueError):
    """Malformed input data (lexicon, corpus, run, qrels, config, index file)."""


def read_text(source: TextSource) -> str:
    """Return the full UTF-8 text of a path or file-like object, less a
    leading byte-order mark. Bytes that are not UTF-8 raise DataError naming
    the source and the offset of the first bad byte in it."""
    is_stream = hasattr(source, "read")
    data = source.read() if is_stream else Path(source).read_bytes()
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        where = getattr(source, "name", "input stream") if is_stream else source
        raise DataError(f"{where}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return text.removeprefix("\ufeff")


def iter_lines(source: TextSource) -> Iterator[tuple[int, str]]:
    """(line number from 1, line) for each non-blank line of the source.

    A line ends at ``\\n``, ``\\r\\n`` or ``\\r`` only: str.splitlines would
    also split at U+2028, U+0085 or a form feed inside a record.
    """
    text = read_text(source).replace("\r\n", "\n").replace("\r", "\n")
    for line_no, line in enumerate(text.split("\n"), start=1):
        if line.strip():
            yield line_no, line


def first_seen(seen: dict, key, line_no: int, error: type[Exception], what: str) -> None:
    """Record ``key`` as seen on ``line_no``; a key seen before raises
    ``error`` naming both lines, after the reader's own words ``what``."""
    first = seen.setdefault(key, line_no)
    if first != line_no:
        raise error(f"line {line_no}: {what} (first seen on line {first})")


def parse_json(text: str):
    """``json.loads``, with every malformed document reported as JSONDecodeError.

    json.loads itself raises RecursionError for nesting deeper than its
    parser allows and a plain ValueError for an integer literal longer than
    Python's digit limit.
    """
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        reason = "number too long"
    except RecursionError:
        reason = "nesting too deep"
    raise json.JSONDecodeError(reason, text, 0)


def is_field(value: str) -> bool:
    """True if ``value`` can be one field of a whitespace-separated UTF-8
    line (a TREC run or qrels line): non-empty, free of whitespace, and free
    of lone surrogates, which UTF-8 cannot encode."""
    try:
        value.encode("utf-8")
    except UnicodeEncodeError:
        return False
    return value.split() == [value]


def atomic_write_bytes(path: Union[str, os.PathLike], data: bytes) -> None:
    """Write via a uniquely named sibling temp file, fsync, then rename, so a
    partial file never lands at ``path`` and a landed one survives a crash.
    The temp file is created by open(), so it has a plain write's mode."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")  # outside the try: a name already taken is not ours to unlink
    try:
        with fh:
            fh.write(data)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: Union[str, os.PathLike], text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
