"""Small shared helpers: error base class, text-source reading, atomic writes."""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import IO, Iterator, Union

TextSource = Union[str, os.PathLike, IO[str], IO[bytes]]


class DataError(ValueError):
    """Input data that semindex cannot use: a malformed lexicon, corpus,
    stopword, query, qrels, run or index file, or inputs that do not fit
    together. The one class the CLI exits 2 for (``load_config`` turns it
    into ``config.UsageError``). A reader names its file first: ``read_text``
    for bytes that are not UTF-8, ``line_error`` for a fault on one line."""


def source_name(source: TextSource) -> str:
    """How a message names a source: the path, a stream's ``name`` or ``input stream``."""
    return str(getattr(source, "name", "input stream") if hasattr(source, "read") else source)


def read_text(source: TextSource) -> str:
    """Return the full UTF-8 text of a path or file-like object, less a
    leading byte-order mark. Bytes that are not UTF-8 raise DataError naming
    the source and the offset of the first bad byte in it."""
    is_stream = hasattr(source, "read")
    data = source.read() if is_stream else Path(source).read_bytes()
    try:
        text = data.decode("utf-8") if isinstance(data, bytes) else data
    except UnicodeDecodeError as exc:
        raise DataError(f"{source_name(source)}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
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


def line_error(source: TextSource, line_no: int, what: str) -> DataError:
    """The error to raise for a fault on line ``line_no`` of ``source``:
    ``<source name>: line N: <what>``. The name is worked out only here."""
    return DataError(f"{source_name(source)}: line {line_no}: {what}")


def first_seen(seen: dict, key, source: TextSource, line_no: int, what: str) -> None:
    """Record ``key`` as seen on ``line_no``; a key seen before raises
    DataError naming both lines, after the reader's own words ``what``."""
    first = seen.setdefault(key, line_no)
    if first != line_no:
        raise line_error(source, line_no, f"{what} (first seen on line {first})")


class _UnplacedJSONError(json.JSONDecodeError):
    """A malformed document with no position to name: str() is the reason alone."""

    def __str__(self) -> str:
        return self.msg


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    obj = dict(pairs)
    if len(obj) < len(pairs):
        keys = [key for key, _ in pairs]
        key = next(key for i, key in enumerate(keys) if key in keys[:i])
        raise _UnplacedJSONError(f"duplicate key {key!r}", "", 0)
    return obj


# Built once: json.loads with a hook builds a decoder on every call.
_DECODER = json.JSONDecoder(object_pairs_hook=_unique_keys)


def parse_json(text: str):
    """``json.loads``, with every malformed document reported as JSONDecodeError.

    An object that repeats a key, at any depth, is malformed. The decoder
    itself raises RecursionError for nesting deeper than its parser allows
    and a plain ValueError for an integer literal longer than Python's digit
    limit.
    """
    if text.startswith("\ufeff"):  # as json.loads: a byte-order mark is not JSON whitespace
        raise json.JSONDecodeError("Unexpected UTF-8 BOM (decode using utf-8-sig)", text, 0)
    try:
        return _DECODER.decode(text)
    except json.JSONDecodeError:
        raise
    except ValueError:
        reason = "number too long"
    except RecursionError:
        reason = "nesting too deep"
    raise _UnplacedJSONError(reason, text, 0)


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
    """Write via a uniquely named sibling temp file, fsync, rename, then fsync
    the directory, so a partial file never lands at ``path`` and a landed one
    survives a crash.
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
    if os.name == "posix":  # the rename is durable once the directory is; Windows cannot open one
        fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)


def atomic_write_text(path: Union[str, os.PathLike], text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))
