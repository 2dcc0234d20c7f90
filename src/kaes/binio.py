"""The one reader, and the shared writing helpers, of the binary file formats
(embeddings, kernel cache, codebook, model).

Every loader reads through :class:`Reader`.  It raises
:class:`BinaryFormatError` with the byte offset of any problem, and it never
asks its stream for more than one chunk beyond the bytes already received,
so a header that declares a huge size costs at most about the file's size
before the read fails.
"""
from __future__ import annotations

import contextlib
import struct
from pathlib import Path
from typing import BinaryIO, Iterator

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
