"""Blended character n-gram profiles and the intersection string kernel.

A document is profiled once into a sparse map from every character n-gram
(all lengths in a configured range, blended together) to its occurrence
count.  The kernel value of two documents is the sum over shared n-grams of
the smaller occurrence count, which equals the sum of the per-length
intersection kernels; profiles are therefore merged over the whole range and
each pair is compared in a single pass.

Text is canonicalized before profiling: lowercased, runs of whitespace
collapsed to a single space, everything else (punctuation, "@PERSON1"-style
anonymization markers) kept verbatim.
"""
from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Sequence

import numpy as np

from .binio import open_binary
from .errors import BinaryFormatError, KernelMismatchError

DEFAULT_NGRAM_MIN = 1
DEFAULT_NGRAM_MAX = 15

KERNEL_MAGIC = b"KAESKM01"
KIND_TAGS = {"hisk-raw": 0, "hisk-normalized": 1, "boswe": 2, "fused": 3, "linear": 4}
_TAG_KINDS = {v: k for k, v in KIND_TAGS.items()}


def normalize_text(text: str) -> str:
    """Lowercase and collapse all whitespace runs to single spaces."""
    return " ".join(text.lower().split())


@dataclass(frozen=True)
class NGramProfile:
    """Occurrence counts of every n-gram of one document, all lengths blended."""

    n_min: int
    n_max: int
    counts: dict[str, int]
    total: int

    def same_range(self, other: "NGramProfile") -> bool:
        return self.n_min == other.n_min and self.n_max == other.n_max


def extract_ngram_counts(
    text: str, n_min: int = DEFAULT_NGRAM_MIN, n_max: int = DEFAULT_NGRAM_MAX
) -> NGramProfile:
    """Count every contiguous substring with length in [n_min, n_max].

    Counting runs over the canonicalized text (see :func:`normalize_text`).
    Empty text yields an empty profile.
    """
    if n_min < 1 or n_max < n_min:
        raise KernelMismatchError(f"invalid n-gram range [{n_min}, {n_max}]")
    s = normalize_text(text)
    counts: Counter[str] = Counter()
    total = 0
    for n in range(n_min, min(n_max, len(s)) + 1):
        positions = len(s) - n + 1
        counts.update(s[i : i + n] for i in range(positions))
        total += positions
    return NGramProfile(n_min=n_min, n_max=n_max, counts=dict(counts), total=total)


def hisk_pair(p: NGramProfile, q: NGramProfile) -> int:
    """Intersection kernel of two profiles: sum of min counts over shared n-grams."""
    if not p.same_range(q):
        raise KernelMismatchError(
            f"n-gram range mismatch: [{p.n_min},{p.n_max}] vs [{q.n_min},{q.n_max}]"
        )
    small, large = (p.counts, q.counts) if len(p.counts) <= len(q.counts) else (q.counts, p.counts)
    value = 0
    for gram, count in small.items():
        other = large.get(gram)
        if other is not None:
            value += count if count <= other else other
    return value


@dataclass
class KernelMatrix:
    """Dense similarity matrix with document ids and provenance.

    ``diag_rows``/``diag_cols`` hold the self-similarities of the row and
    column documents so rectangular blocks can be normalized consistently
    with the square training matrix they came from.
    """

    values: np.ndarray
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]
    kind: str
    diag_rows: np.ndarray | None = None
    diag_cols: np.ndarray | None = None

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise KernelMismatchError("kernel values must be a 2-d matrix")
        if self.values.shape != (len(self.row_ids), len(self.col_ids)):
            raise KernelMismatchError(
                f"kernel shape {self.values.shape} does not match id lists "
                f"({len(self.row_ids)} x {len(self.col_ids)})"
            )
        if self.kind not in KIND_TAGS:
            raise KernelMismatchError(f"unknown kernel kind {self.kind!r}")

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    @property
    def is_square(self) -> bool:
        return self.row_ids == self.col_ids

    def take(self, row_ids: Sequence[str], col_ids: Sequence[str]) -> "KernelMatrix":
        """Slice a sub-block by document ids, keeping kind and diagonals."""
        row_pos = {eid: i for i, eid in enumerate(self.row_ids)}
        col_pos = {eid: i for i, eid in enumerate(self.col_ids)}
        try:
            ri = np.array([row_pos[eid] for eid in row_ids], dtype=np.intp)
            ci = np.array([col_pos[eid] for eid in col_ids], dtype=np.intp)
        except KeyError as exc:
            raise KernelMismatchError(f"unknown document id {exc.args[0]!r}") from None
        return KernelMatrix(
            values=self.values[np.ix_(ri, ci)],
            row_ids=tuple(row_ids),
            col_ids=tuple(col_ids),
            kind=self.kind,
            diag_rows=None if self.diag_rows is None else self.diag_rows[ri],
            diag_cols=None if self.diag_cols is None else self.diag_cols[ci],
        )


def _default_ids(n: int, prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def _indexed(profiles: Sequence[NGramProfile], vocab: dict[str, int]):
    arrays = []
    for p in profiles:
        ids = np.empty(len(p.counts), dtype=np.int64)
        cts = np.empty(len(p.counts), dtype=np.int64)
        for j, (gram, count) in enumerate(p.counts.items()):
            idx = vocab.setdefault(gram, len(vocab))
            ids[j] = idx
            cts[j] = count
        order = np.argsort(ids)
        arrays.append((ids[order], cts[order]))
    return arrays


def _pair_from_arrays(a, b) -> int:
    a_ids, a_cts = a
    b_ids, b_cts = b
    if a_ids.size == 0 or b_ids.size == 0:
        return 0
    if a_ids.size > b_ids.size:
        a_ids, a_cts, b_ids, b_cts = b_ids, b_cts, a_ids, a_cts
    # Both id arrays are sorted and unique: probe the smaller into the larger.
    pos = np.searchsorted(b_ids, a_ids)
    pos[pos == b_ids.size] = 0  # out-of-range probes can never match b_ids[0]
    match = b_ids[pos] == a_ids
    if not match.any():
        return 0
    return int(np.minimum(a_cts[match], b_cts[pos[match]]).sum())


def kernel_matrix(
    rows: Sequence[NGramProfile],
    cols: Sequence[NGramProfile] | None = None,
    row_ids: Sequence[str] | None = None,
    col_ids: Sequence[str] | None = None,
) -> KernelMatrix:
    """Raw intersection-kernel matrix between two profile lists.

    With ``cols=None`` (or the identical list) the Gram matrix is computed
    once per unordered pair and mirrored, so it is exactly symmetric.
    """
    symmetric = cols is None or cols is rows
    if len(rows) == 0 or (cols is not None and len(cols) == 0):
        raise KernelMismatchError("cannot build a kernel matrix from an empty document list")
    cols_eff = rows if symmetric else cols
    for p in list(rows) + list(cols_eff):
        if not rows[0].same_range(p):
            raise KernelMismatchError("all profiles must share one n-gram range")

    vocab: dict[str, int] = {}
    row_arrays = _indexed(rows, vocab)
    col_arrays = row_arrays if symmetric else _indexed(cols_eff, vocab)

    values = np.zeros((len(rows), len(cols_eff)), dtype=np.float64)
    if symmetric:
        for i in range(len(rows)):
            values[i, i] = rows[i].total
            for j in range(i + 1, len(rows)):
                v = _pair_from_arrays(row_arrays[i], row_arrays[j])
                values[i, j] = v
                values[j, i] = v
    else:
        for i in range(len(rows)):
            for j in range(len(cols_eff)):
                values[i, j] = _pair_from_arrays(row_arrays[i], col_arrays[j])

    rids = tuple(row_ids) if row_ids is not None else _default_ids(len(rows), "doc")
    cids = rids if symmetric and col_ids is None else (
        tuple(col_ids) if col_ids is not None else _default_ids(len(cols_eff), "col")
    )
    if len(rids) != len(rows) or len(cids) != len(cols_eff):
        raise KernelMismatchError("id list length does not match profile list length")
    return KernelMatrix(
        values=values,
        row_ids=rids,
        col_ids=cids,
        kind="hisk-raw",
        diag_rows=np.array([p.total for p in rows], dtype=np.float64),
        diag_cols=np.array([p.total for p in cols_eff], dtype=np.float64),
    )


def normalize_kernel(kernel: KernelMatrix) -> KernelMatrix:
    """Scale a raw intersection kernel so every self-similarity becomes 1.

    Entry (i, j) is divided by sqrt(diag_rows[i] * diag_cols[j]); a square
    input therefore comes out with a unit diagonal.  Documents with zero
    self-similarity (empty after canonicalization) cannot be normalized and
    are reported by id.
    """
    if kernel.kind != "hisk-raw":
        raise KernelMismatchError(f"can only normalize hisk-raw matrices, got {kernel.kind!r}")
    if kernel.diag_rows is None or kernel.diag_cols is None:
        raise KernelMismatchError("kernel lacks self-similarities; cannot normalize")
    for ids, diag in ((kernel.row_ids, kernel.diag_rows), (kernel.col_ids, kernel.diag_cols)):
        bad = np.flatnonzero(diag <= 0)
        if bad.size:
            raise KernelMismatchError(
                f"document {ids[bad[0]]!r} has zero self-similarity (empty text?)"
            )
    scale = np.sqrt(np.outer(kernel.diag_rows, kernel.diag_cols))
    return KernelMatrix(
        values=kernel.values / scale,
        row_ids=kernel.row_ids,
        col_ids=kernel.col_ids,
        kind="hisk-normalized",
        diag_rows=np.ones(len(kernel.row_ids)),
        diag_cols=np.ones(len(kernel.col_ids)),
    )


def _write_id(stream: BinaryIO, doc_id: str) -> None:
    raw = doc_id.encode("utf-8")
    stream.write(struct.pack("<I", len(raw)))
    stream.write(raw)


def _read_exact(stream: BinaryIO, n: int, offset: int) -> bytes:
    raw = stream.read(n)
    if len(raw) != n:
        raise BinaryFormatError(
            f"truncated kernel file: wanted {n} bytes, got {len(raw)}", offset=offset
        )
    return raw


def save_kernel_matrix(kernel: KernelMatrix, path: str | Path | BinaryIO) -> None:
    """Write a kernel matrix in the binary cache format (bit-exact)."""
    with open_binary(path, "wb") as stream:
        rows, cols = kernel.shape
        stream.write(KERNEL_MAGIC)
        stream.write(struct.pack("<IIB", rows, cols, KIND_TAGS[kernel.kind]))
        stream.write(np.ascontiguousarray(kernel.values, dtype="<f8").tobytes())
        for doc_id in kernel.row_ids:
            _write_id(stream, doc_id)
        for doc_id in kernel.col_ids:
            _write_id(stream, doc_id)


def load_kernel_matrix(path: str | Path | BinaryIO) -> KernelMatrix:
    """Read a kernel matrix written by :func:`save_kernel_matrix`.

    Square matrices recover their self-similarities from the main diagonal;
    rectangular ones come back without diagonals (re-normalization of a
    loaded rectangular block requires recomputing profiles).
    """
    with open_binary(path, "rb") as stream:
        offset = 0
        magic = _read_exact(stream, len(KERNEL_MAGIC), offset)
        if magic != KERNEL_MAGIC:
            raise BinaryFormatError(f"bad magic {magic!r}, expected {KERNEL_MAGIC!r}", offset=0)
        offset += len(KERNEL_MAGIC)
        header = _read_exact(stream, 9, offset)
        rows, cols, tag = struct.unpack("<IIB", header)
        offset += 9
        if tag not in _TAG_KINDS:
            raise BinaryFormatError(f"unknown kind tag {tag}", offset=offset - 1)
        nbytes = rows * cols * 8
        values = np.frombuffer(_read_exact(stream, nbytes, offset), dtype="<f8")
        values = values.reshape(rows, cols).copy()
        offset += nbytes
        ids: list[str] = []
        for _ in range(rows + cols):
            (length,) = struct.unpack("<I", _read_exact(stream, 4, offset))
            offset += 4
            raw_id = _read_exact(stream, length, offset)
            try:
                ids.append(raw_id.decode("utf-8"))
            except UnicodeDecodeError as exc:
                raise BinaryFormatError(f"document id is not UTF-8: {exc}", offset=offset) from exc
            offset += length
        row_ids, col_ids = tuple(ids[:rows]), tuple(ids[rows:])
        diag = None
        if rows == cols and row_ids == col_ids:
            diag = np.diagonal(values).copy()
        return KernelMatrix(
            values=values,
            row_ids=row_ids,
            col_ids=col_ids,
            kind=_TAG_KINDS[tag],
            diag_rows=diag,
            diag_cols=None if diag is None else diag.copy(),
        )
