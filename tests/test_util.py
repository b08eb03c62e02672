from __future__ import annotations

import io
import json
import os
import stat

import pytest

from semindex import DataError
from semindex._util import atomic_write_bytes, iter_lines, parse_json, read_text


class TestAtomicWrite:
    def test_leaves_a_same_named_tmp_file_alone(self, tmp_path):
        target = tmp_path / "out.bin"
        bystander = tmp_path / "out.bin.tmp"
        bystander.write_bytes(b"not ours")
        atomic_write_bytes(target, b"data")
        assert target.read_bytes() == b"data"
        assert bystander.read_bytes() == b"not ours"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out.bin", "out.bin.tmp"]

    def test_failed_write_leaves_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")

        def failing_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(os, "fsync", failing_fsync)
        with pytest.raises(OSError, match="disk full"):
            atomic_write_bytes(target, b"new")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
        assert target.read_bytes() == b"old"

    def test_failed_rename_is_raised_and_leaves_no_temp_file(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")

        def failing_replace(src, dst):
            raise OSError("rename refused")

        monkeypatch.setattr(os, "replace", failing_replace)
        with pytest.raises(OSError, match="rename refused"):
            atomic_write_bytes(target, b"new")
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]
        assert target.read_bytes() == b"old"

    @pytest.mark.skipif(os.name != "posix", reason="only POSIX can open a directory to fsync it")
    def test_directory_is_fsynced_after_the_file(self, tmp_path, monkeypatch):
        # On POSIX the rename is durable only once its directory is synced.
        real_fsync, synced = os.fsync, []

        def spy(fd):
            synced.append(stat.S_ISDIR(os.fstat(fd).st_mode))
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", spy)
        atomic_write_bytes(tmp_path / "out.bin", b"new")
        assert synced == [False, True]

    @pytest.mark.skipif(os.name != "posix", reason="only POSIX can open a directory to fsync it")
    def test_failed_directory_fsync_is_raised_after_the_rename(self, tmp_path, monkeypatch):
        target = tmp_path / "out.bin"
        target.write_bytes(b"old")
        real_fsync = os.fsync

        def failing_directory_fsync(fd):
            if stat.S_ISDIR(os.fstat(fd).st_mode):
                raise OSError("directory sync failed")
            real_fsync(fd)

        monkeypatch.setattr(os, "fsync", failing_directory_fsync)
        with pytest.raises(OSError, match="directory sync failed"):
            atomic_write_bytes(target, b"new")
        assert target.read_bytes() == b"new"
        assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]

    def test_file_mode_matches_a_plain_write(self, tmp_path):
        plain = tmp_path / "plain.bin"
        plain.write_bytes(b"x")
        atomic = tmp_path / "atomic.bin"
        atomic_write_bytes(atomic, b"x")
        assert atomic.stat().st_mode == plain.stat().st_mode

    def test_never_sets_the_process_umask(self, tmp_path, monkeypatch):
        # The umask is process-wide: setting it, even to read it, races
        # every other thread that creates a file meanwhile.
        plain = tmp_path / "plain.bin"
        plain.write_bytes(b"x")

        def no_umask(mask):
            raise AssertionError("os.umask called")

        monkeypatch.setattr(os, "umask", no_umask)
        atomic = tmp_path / "atomic.bin"
        atomic_write_bytes(atomic, b"x")
        assert atomic.read_bytes() == b"x"
        assert atomic.stat().st_mode == plain.stat().st_mode


class TestReadText:
    def test_non_utf8_path_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes("café".encode("latin-1"))
        with pytest.raises(DataError, match="latin1.txt: not UTF-8"):
            read_text(path)

    def test_non_utf8_stream(self):
        with pytest.raises(DataError, match="not UTF-8"):
            read_text(io.BytesIO(b"\xff"))

    def test_error_offset_counts_the_byte_order_mark(self, tmp_path):
        # The offset is the bad byte's in the file, BOM included, as a hex
        # dump shows it ("utf-8-sig" would report 2).
        path = tmp_path / "bom.txt"
        path.write_bytes(b"\xef\xbb\xbfab\xff")
        for source in (path, io.BytesIO(path.read_bytes())):
            with pytest.raises(DataError, match="at byte 5\\)$"):
                read_text(source)


class TestIterLines:
    def test_skips_blank_lines_and_keeps_line_numbers(self):
        text = "a\n\n  \t\nb \r\nc"
        assert list(iter_lines(io.StringIO(text))) == [(1, "a"), (4, "b "), (5, "c")]

    def test_stream_lines_end_at_universal_newlines_only(self):
        text = "a\rb c\x0cd\r\ne\x85f\n"
        assert list(iter_lines(io.StringIO(text))) == [(1, "a"), (2, "b c\x0cd"), (3, "e\x85f")]

    def test_empty_source(self):
        assert list(iter_lines(io.BytesIO(b""))) == []


class TestParseJson:
    @pytest.mark.parametrize(
        "text, reason",
        [
            ("[" * 100_000, "nesting too deep"),
            ("1" * 5000, "number too long"),
            ("{x", "Expecting"),
            ('{"a": 1, "a": 1}', "duplicate key 'a'"),
            ('[{"b": {"c": 1, "d": 2, "c": 3}}]', "duplicate key 'c'"),
            ("\ufeff{}", "Unexpected UTF-8 BOM"),
        ],
    )
    def test_every_failure_is_a_decode_error(self, text, reason):
        with pytest.raises(json.JSONDecodeError, match=reason):
            parse_json(text)

    def test_valid_document(self):
        assert parse_json('{"a": [1, 2.5, "ب"]}') == {"a": [1, 2.5, "ب"]}
