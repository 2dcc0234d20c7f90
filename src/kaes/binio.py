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
import math
import operator
import os
import re
import secrets
import stat
import struct
from itertools import accumulate, repeat
from pathlib import Path
from typing import BinaryIO, Callable, Iterable, Iterator

from .errors import BinaryFormatError


@contextlib.contextmanager
def open_binary(target: str | Path | BinaryIO, mode: str) -> Iterator[BinaryIO]:
    """A path is opened in ``mode`` and closed on exit; a stream is used as is.

    A regular file, or a new one, written in ``"wb"`` gets its bytes through a
    temporary file beside it, renamed over it once complete, so a failed write
    keeps the old file; any other path (a FIFO, ``/dev/stdout``) is written in place.
    An OSError on the temporary file names ``target`` instead.
    """
    if not isinstance(target, (str, Path)):
        yield target
    elif mode != "wb" or not _replaceable(target):
        with open(target, mode) as stream:
            yield stream
    else:
        tmp = f"{target}.{secrets.token_hex(4)}.tmp"
        try:
            with open(tmp, "xb") as stream:
                yield stream
            os.replace(tmp, target)
        except BaseException as exc:
            Path(tmp).unlink(missing_ok=True)
            if isinstance(exc, OSError) and exc.filename == tmp:
                raise OSError(exc.errno, exc.strerror, os.fspath(target)) from None
            raise


def _replaceable(path: str | Path) -> bool:
    """Whether ``path`` is nothing, or a regular file and not a link to one."""
    return not os.path.lexists(path) or stat.S_ISREG(os.lstat(path).st_mode)


def write_id(stream: BinaryIO, doc_id: str) -> None:
    """Write a document id (or text) as its UTF-8 byte length (u32 LE), then the bytes;
    a lone surrogate from corpus parsing is written as its own code (surrogatepass)."""
    raw = doc_id.encode("utf-8", "surrogatepass")
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

    def unpack(self, fmt: str, what: str) -> tuple:
        """The fields of the ``struct`` format ``fmt``."""
        return struct.unpack(fmt, self.read(struct.calcsize(fmt), what))

    def read_finite(self, what: str) -> float:
        """An f64; NaN or infinity is a BinaryFormatError at its offset."""
        at = self.offset
        (value,) = self.unpack("<d", what)
        if not math.isfinite(value):
            raise BinaryFormatError(f"{what} is not finite: {value}", offset=at)
        return value

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

    def read_id(self, what: str = "id") -> str:
        """A document id, or the ``what`` string, written by :func:`write_id`."""
        (length,) = self.unpack("<I", f"{what} length")
        at = self.offset
        try:
            return self.read(length, what).decode("utf-8", "surrogatepass")
        except UnicodeDecodeError as exc:
            raise BinaryFormatError(f"{what} is not UTF-8: {exc}", offset=at) from exc

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

    def read_records(
        self, size: int, limit: int, pick: Callable[[list[bytes]], Iterable[int]] | None
    ) -> tuple[int, list[tuple[bytes, bytes]]]:
        """Consume the next word2vec records: at least one, at most ``limit``.

        A record is a token up to its first space, less any leading newlines,
        the space and ``size`` more bytes.  Returns how many were consumed,
        with the token and bytes of each that ``pick`` (if given) selects:
        ``pick(tokens)`` gives the ascending indices of the tokens to keep.
        One ``findall`` splits the buffer's whole records, back to back up to
        the first cut one: its greedy ``[^ ]*`` stops at the first space, as
        :meth:`read_until` does, and a match needs ``size`` bytes after it.
        If none is whole, :meth:`read_until` and :meth:`read` read the next
        record, fetching more and raising the errors of a cut record.
        """
        start = self._pos
        # No record fits; this also keeps the pattern's count below the chunk size.
        heads = (_record_pattern(size).findall(self._buf, start)
                 if len(self._buf) - start > size else [])
        del heads[limit:]
        if not heads:
            token = self.read_until(b" ", "token").lstrip(b"\n")
            what = f"vector of {token.decode('utf-8', errors='surrogateescape')!r}"
            vector = self.read(size, what)
            return 1, [(token, vector)] if pick is None or list(pick([token])) else []
        tokens = list(map(bytes.lstrip, heads, repeat(b"\n")))
        # ends[i + 1] is where record i ends: after its newlines, token, space and size bytes.
        ends = list(accumulate(map(operator.add, map(len, heads), repeat(size + 1)),
                               initial=start))
        picked = range(len(heads)) if pick is None else pick(tokens)
        buf = self._buf
        found = [(tokens[i], buf[ends[i + 1] - size : ends[i + 1]]) for i in picked]
        self._pos = ends[-1]
        self.offset += ends[-1] - start
        return len(heads), found
