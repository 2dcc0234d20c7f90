"""Pre-trained word embeddings (word2vec binary format) and tokenization.

The binary format is an ASCII header ``"<vocab_size> <dim>\\n"`` followed by
one record per word: the token bytes, a single space, then ``dim`` 4-byte
little-endian floats.  A newline after the floats is optional and tolerated.
Vectors are loaded verbatim; no renormalization.
"""
from __future__ import annotations

import re
import sys
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Collection

import numpy as np

from .binio import Reader, open_binary
from .errors import BinaryFormatError

DEFAULT_VOCAB_LIMIT = 500_000
# A vector's byte length must be addressable, or even an empty table of them
# cannot be made.
_MAX_DIM = sys.maxsize // 4

# Lowercase word characters, with "@person1"-style anonymization markers
# kept as single tokens.
_TOKEN_RE = re.compile(r"@[a-z]+\d+|[a-z0-9]+")


@dataclass
class EmbeddingModel:
    """Immutable token-to-vector table."""

    dim: int
    vocab: dict[str, int]
    vectors: np.ndarray  # (len(vocab), dim) float32

    def __len__(self) -> int:
        return len(self.vocab)


def tokenize(text: str) -> list[str]:
    """Lowercase tokens split on non-alphanumeric boundaries.

    Anonymization markers like "@PERSON1" survive as one token.  The output
    re-tokenizes to itself when joined with spaces.
    """
    return _TOKEN_RE.findall(text.lower())


def load_word2vec_binary(
    source: str | Path | BinaryIO,
    vocab_limit: int | None = DEFAULT_VOCAB_LIMIT,
    keep: Collection[str] | None = None,
) -> EmbeddingModel:
    """Load a word2vec binary model, scanning its first ``vocab_limit`` records.

    word2vec files are frequency-ordered, so the limit keeps the most
    frequent words.  Pass ``vocab_limit=None`` for the full vocabulary.
    Duplicate tokens keep their first (most frequent) vector.

    With ``keep``, only records whose token is in it are kept; the others are
    still scanned, so they count towards ``vocab_limit`` and a truncated one
    still fails, but their tokens are not decoded and their vectors not
    converted.  Every kept token has the vector a full load gives it; only
    row numbers differ.
    """
    wanted = None if keep is None else _token_bytes(keep).__contains__
    with open_binary(source, "rb") as stream:
        reader = Reader(stream)
        header = reader.read_until(b"\n", "header")
        try:
            count_s, dim_s = header.split()
            vocab_size, dim = int(count_s), int(dim_s)
        except ValueError:
            raise BinaryFormatError(f"malformed header {header!r}", offset=0) from None
        if vocab_size <= 0 or dim <= 0:
            raise BinaryFormatError(f"non-positive header values {header!r}", offset=0)
        if dim > _MAX_DIM:
            raise BinaryFormatError(f"dimension too large in header {header!r}", offset=0)

        n_scan = vocab_size if vocab_limit is None else min(vocab_limit, vocab_size)
        vocab: dict[str, int] = {}
        table = bytearray()
        scanned = 0
        while scanned < n_scan:
            count, found = reader.read_records(4 * dim, n_scan - scanned, wanted)
            scanned += count
            for raw, vector in found:
                token = raw.decode("utf-8", errors="surrogateescape")
                if token not in vocab:
                    vocab[token] = len(vocab)
                    table += vector
    vectors = np.frombuffer(table, dtype="<f4").reshape(len(vocab), dim)
    return EmbeddingModel(dim=dim, vocab=vocab, vectors=vectors)


def _token_bytes(tokens: Collection[str]) -> set[bytes]:
    """The bytes of the records whose tokens are ``tokens``.

    A record's token is its bytes decoded with surrogateescape, which every
    byte string survives, so a string that does not come back from its own
    encoding is no record's token and is left out.
    """
    out = set()
    for token in tokens:
        try:
            raw = token.encode("utf-8", errors="surrogateescape")
        except UnicodeEncodeError:  # a surrogate no decoding produces
            continue
        if raw.decode("utf-8", errors="surrogateescape") == token:
            out.add(raw)
    return out
