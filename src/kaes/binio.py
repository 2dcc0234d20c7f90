"""The one reader, and the shared writing helpers, of the binary file formats
(embeddings, kernel cache, model).

Every loader reads through :class:`Reader`.  It raises
:class:`BinaryFormatError` with the byte offset of any problem, and it never
asks its stream for more than one chunk beyond the bytes already received,
so a header that declares a huge size costs at most about the file's size
before the read fails.
"""
from __future__ import annotations

import contextlib
import functools
import operator
import re
import struct
from itertools import accumulate, compress, repeat
from pathlib import Path
from typing import BinaryIO, Callable, Iterator

from .errors import BinaryFormatError


@contextlib.contextmanager
def open_binary(target: str | Path | BinaryIO, mode: str) -> Iterator[BinaryIO]:
    """A path is opened in ``mode`` and closed on exit; a stream is used as is."""
    if isinstance(target, (str, Path)):
        with open(target, mode) as stream:
            yield stream
    else:
        yield target


def write_id(stream: BinaryIO, doc_id: str) -> None:
    """Write a document id as its UTF-8 byte length (u32 LE), then the bytes."""
    raw = doc_id.encode("utf-8")
    stream.write(struct.pack("<I", len(raw)))
    stream.write(raw)


@functools.lru_cache(maxsize=8)
def _record_pattern(size: int) -> re.Pattern[bytes]:
    return re.compile(rb"([^ ]*) (?s:.){%d}" % size)


class Reader:
    """Buffered reader of a binary stream that tracks the absolute byte offset.

    ``what`` names the field being read in error messages.
    """

    def __init__(self, stream: BinaryIO, chunk: int = 1 << 20):
        self._stream = stream
        self._chunk = chunk
        self._buf = b""
        self._pos = 0
        self.offset = 0

    def read(self, n: int, what: str) -> bytes:
        """Exactly the next ``n`` bytes (``bytes``, or a ``bytearray`` when they
        span chunks)."""
        end = self._pos + n
        if end <= len(self._buf):
            out = self._buf[self._pos : end]
            self._pos = end
        else:
            # Appended chunk by chunk, so n bytes cost O(n) time and memory;
            # the last chunk stays buffered for the reads that follow.
            out = bytearray(self._buf[self._pos :])
            while len(out) < n:
                data = self._stream.read(self._chunk)
                if not data:
                    raise BinaryFormatError(
                        f"truncated {what}: expected {n} bytes, only {len(out)} available",
                        offset=self.offset,
                    )
                self._buf, self._pos = data, min(len(data), n - len(out))
                out += memoryview(data)[: self._pos]
        self.offset += n
        return out

    def skip(self, n: int, what: str) -> None:
        """Consume the next ``n`` bytes as :meth:`read` does, copying them only
        when they span chunks."""
        end = self._pos + n
        if end <= len(self._buf):
            self._pos = end
            self.offset += n
        else:
            self.read(n, what)

    def unpack(self, fmt: str, what: str) -> tuple:
        """The fields of the ``struct`` format ``fmt``."""
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def expect_magic(self, magic: bytes) -> None:
        found = self.read(len(magic), "magic")
        if found != magic:
            raise BinaryFormatError(
                f"bad magic {bytes(found)!r}, expected {magic!r}", offset=self.offset - len(magic)
            )

    def expect_end(self) -> None:
        """Fail if any byte follows the last field."""
        if self._pos < len(self._buf) or self._stream.read(1):
            raise BinaryFormatError("trailing bytes after the last field", offset=self.offset)

    def read_id(self) -> str:
        """A document id written by :func:`write_id`."""
        (length,) = self.unpack("<I", "id length")
        at = self.offset
        try:
            return self.read(length, "id").decode("utf-8")
        except UnicodeDecodeError as exc:
            raise BinaryFormatError(f"document id is not UTF-8: {exc}", offset=at) from exc

    def read_until(self, delim: bytes, what: str) -> bytes:
        """The bytes before the next ``delim`` (one byte), which is consumed too."""
        idx = self._buf.find(delim, self._pos)
        if idx != -1:
            out = self._buf[self._pos : idx]
        else:
            parts = [self._buf[self._pos :]]
            while True:
                data = self._stream.read(self._chunk)
                if not data:
                    raise BinaryFormatError(
                        f"stream ended while reading {what}", offset=self.offset
                    )
                idx = data.find(delim)
                if idx != -1:
                    break
                parts.append(data)
            parts.append(data[:idx])
            self._buf = data
            out = b"".join(parts)
        self._pos = idx + 1
        self.offset += len(out) + 1
        return out

    def skip_newlines(self) -> None:
        """Consume the newline bytes at the current position, if any."""
        while True:
            if self._pos >= len(self._buf):
                self._buf, self._pos = self._stream.read(self._chunk), 0
                if not self._buf:
                    return
            if self._buf[self._pos] != 0x0A:
                return
            self._pos += 1
            self.offset += 1

    def read_records(
        self, size: int, limit: int, wanted: Callable[[bytes], bool] | None
    ) -> tuple[int, list[tuple[bytes, bytes]]]:
        """Consume the word2vec records that lie wholly in the buffer, at most ``limit``.

        A record is newlines, a field that ends at a space, the space, and
        ``size`` more bytes.  Returns how many records were consumed, with the
        field and the ``size`` bytes of each one whose field ``wanted`` accepts
        (of every one when ``wanted`` is None).  It consumes none, and never
        reads the stream, when the next record is not wholly in the buffer:
        that one is read by :meth:`skip_newlines`, :meth:`read_until` and
        :meth:`read` or :meth:`skip`, which fetch more and raise the errors of
        a cut record.

        One ``findall`` of ``([^ ]*) (?s:.){size}`` splits the records, and
        it splits them exactly as those steps do:

        - At a record that is wholly in the buffer, the pattern matches on its
          first try: the greedy ``[^ ]*`` runs to the first space, where
          ``read_until(b" ")`` stops too, and ``size`` bytes follow that
          space.  Before the field it takes the newlines that
          :meth:`skip_newlines` consumes, and stripping them leaves the field.
        - At a record that is not, no match starts: ``[^ ]*`` cannot pass a
          space, so every way of matching needs the same first space, and
          fewer than ``size`` bytes follow it (or there is none).  No match
          starts at a later position either, as every later space has fewer
          bytes after it.
        - Each match is longer than ``size`` bytes, and the next search starts
          where a match ended, trying that position first.

        So the matches are the complete records from the current position,
        back to back, up to the first record that is cut.
        """
        start = self._pos
        # No record fits; this also keeps the pattern's count below the chunk size.
        if len(self._buf) - start <= size:
            return 0, []
        heads = _record_pattern(size).findall(self._buf, start)
        del heads[limit:]
        if not heads:
            return 0, []
        fields = list(map(bytes.lstrip, heads, repeat(b"\n")))
        # ends[i + 1] is where record i ends: after its newlines, field, space and size bytes.
        ends = list(accumulate(map(operator.add, map(len, heads), repeat(size + 1)),
                               initial=start))
        picked = range(len(heads))
        if wanted is not None:
            picked = compress(picked, map(wanted, fields))
        buf = self._buf
        found = [(fields[i], buf[ends[i + 1] - size : ends[i + 1]]) for i in picked]
        self._pos = ends[-1]
        self.offset += ends[-1] - start
        return len(heads), found
