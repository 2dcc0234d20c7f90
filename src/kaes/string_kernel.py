"""Blended character n-gram counts and the histogram intersection string kernel.

A document's features are the occurrence counts of every character n-gram
(all lengths in a configured range, blended together).  The kernel value of
two documents is the sum over shared n-grams of the smaller occurrence
count, which equals the sum of the per-length intersection kernels.

Text is canonicalized before counting: lowercased, runs of whitespace
collapsed to a single space, everything else (punctuation, "@PERSON1"-style
anonymization markers) kept verbatim.
"""
from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import BinaryIO, Iterator, Sequence

import numpy as np

from .binio import Reader, open_binary, write_id
from .errors import BinaryFormatError, KernelMismatchError

DEFAULT_NGRAM_MIN = 1
DEFAULT_NGRAM_MAX = 15

KERNEL_MAGIC = b"KAESKM01"
# The header's kind byte.  Only raw n-gram Grams are written, so it is always 0.
_RAW_KIND = 0

# Cells (documents x threshold columns) of one float32 0/1 block of the Gram
# product.
_GRAM_BLOCK_CELLS = 1 << 22
# Integers up to this one are exact in float32.
_EXACT_F32 = 1 << 24
# A shared n-gram held at most once by each of at most this many documents
# leaves the refinement and the 0/1 product; its pairs of occurrences are
# extended character by character instead.  Median kernel_matrix seconds on
# perfbench/synth.py essays (one BLAS thread, 2-vCPU guest, limits timed in
# alternating rounds in one process), by limit:
#   60 essays:  0.074 (4), 0.078 (8), 0.084 (16); 4 beat 8 in 14 of 21 rounds;
#   360 essays: 1.20 (4), 1.09 (8), 1.18 (16); 8 beat 4 and 16 in 9 and 8 of 9.
# Limits 0, 2 and 32 trailed at both sizes in an earlier sweep.
_ONCE_GROUP_DOCS = 8
# The refinement packs each (key, position) into one int64 below this power
# of two; a level whose keys would pass it is ranked densely first.
_PACK_BITS = 63


def normalize_text(text: str) -> str:
    """Lowercase and collapse all whitespace runs to single spaces."""
    return " ".join(text.lower().split())


@dataclass
class KernelMatrix:
    """Dense similarity matrix with document ids.

    It holds no self-similarities: :func:`normalize_kernel` takes those of
    the row and column texts, from :func:`self_similarities`.
    """

    values: np.ndarray
    row_ids: tuple[str, ...]
    col_ids: tuple[str, ...]

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.ndim != 2:
            raise KernelMismatchError("kernel values must be a 2-d matrix")
        if self.values.shape != (len(self.row_ids), len(self.col_ids)):
            raise KernelMismatchError(
                f"kernel shape {self.values.shape} does not match id lists "
                f"({len(self.row_ids)} x {len(self.col_ids)})"
            )

    @property
    def shape(self) -> tuple[int, int]:
        return self.values.shape

    def take(self, row_ids: Sequence[str], col_ids: Sequence[str]) -> "KernelMatrix":
        """Slice a sub-block by document ids."""
        row_pos = {eid: i for i, eid in enumerate(self.row_ids)}
        col_pos = {eid: i for i, eid in enumerate(self.col_ids)}
        try:
            ri = np.array([row_pos[eid] for eid in row_ids], dtype=np.intp)
            ci = np.array([col_pos[eid] for eid in col_ids], dtype=np.intp)
        except KeyError as exc:
            raise KernelMismatchError(f"unknown document id {exc.args[0]!r}") from None
        return KernelMatrix(values=self.values[np.ix_(ri, ci)], row_ids=tuple(row_ids),
                            col_ids=tuple(col_ids))


def first_divergent(a: Sequence[str], b: Sequence[str]) -> str:
    """Where two differing id lists first disagree: both ids, or ``<missing>`` past the shorter."""
    for x, y in zip(a, b):
        if x != y:
            return f"{x!r} vs {y!r}"
    return f"{a[len(b)]!r} vs <missing>" if len(a) > len(b) else f"<missing> vs {b[len(a)]!r}"


def self_similarities(texts: Sequence[str], n_min: int, n_max: int) -> np.ndarray:
    """Each text's kernel value with itself: ``sum_n max(len - n + 1, 0)``.

    ``len`` is the canonicalized length and n runs over n_min .. n_max.  The
    terms are an arithmetic series, summed in closed form as exact integers,
    so the cost does not grow with the n-gram range.
    """
    return _self_similarities([len(normalize_text(t)) for t in texts], n_min, n_max)


def _self_similarities(lengths: Sequence[int], n_min: int, n_max: int) -> np.ndarray:
    """:func:`self_similarities` of texts of canonicalized ``lengths``."""
    lengths = np.array(lengths, dtype=np.int64)
    longest = int(lengths.max(initial=0))
    lo, hi = min(n_min, longest + 1), min(n_max, longest)
    top = np.minimum(lengths, hi)
    count = np.maximum(top - lo + 1, 0)
    return (count * (2 * lengths + 2 - lo - top) // 2).astype(np.float64)


def _default_ids(n: int, prefix: str) -> tuple[str, ...]:
    return tuple(f"{prefix}{i}" for i in range(n))


def _char_ranks(texts: Sequence[str]) -> tuple[np.ndarray, np.ndarray]:
    """The code points of all texts as ranks, each text followed by an end mark.

    Returns ``(char_rank, doc_of)``: ``char_rank`` ranks the characters in
    code-point order, and the end mark above them all; ``doc_of`` is the
    index of the text of each element.  At least one text must be non-empty.
    """
    lengths = np.array([len(t) for t in texts], dtype=np.int64)
    # Corpus text holds lone surrogates (bytes decoded with surrogateescape);
    # surrogatepass encodes each as one code unit, like any other character.
    codes = np.frombuffer("".join(texts).encode("utf-32-le", "surrogatepass"), dtype="<u4")
    seen = np.zeros(int(codes.max()) + 1, dtype=bool)
    seen[codes] = True
    rank = np.cumsum(seen, dtype=np.int32) - 1
    char_rank = np.insert(rank[codes], np.cumsum(lengths), rank[-1] + 1)
    doc_of = np.repeat(np.arange(len(texts), dtype=np.int32), lengths + 1)
    return char_rank, doc_of


def _shared_ngram_counts(
    char_rank: np.ndarray, doc_of: np.ndarray, n_rows: int, square: bool,
    n_min: int, n_max: int, leaving: list[tuple[int, np.ndarray, np.ndarray]],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """Per n-gram length from n_min up, the counts that reach off-diagonal entries.

    ``char_rank`` and ``doc_of`` are as returned by :func:`_char_ranks`.
    Yields ``(doc, count, pairs, parent)``.  ``doc`` and ``count`` have one
    element per (n-gram, document) pair of nonzero count, sorted by n-gram
    id and then document; ``pairs[g]`` is the number of pairs of n-gram g,
    and ``parent[g]`` is the id of the (n-1)-gram prefix of a kept n-gram g
    if all occurrences of that prefix extend to g, and -1 otherwise.  An
    n-gram is kept only if it occurs in two documents (``square``), or in a
    row document (index below ``n_rows``) and in a column document; any
    other adds to self-similarities alone, and has no pairs.

    A shared n-gram that each document holds at most once, in at most
    ``_ONCE_GROUP_DOCS`` documents, leaves instead: it is yielded with no
    pairs and parent -1, and ``leaving`` gains ``(n, p, q)``, the start
    positions of each pair of its occurrences that reaches an entry (see
    :func:`_add_once_per_document`).

    N-grams get their ids by rank refinement over the code points of all
    texts at once: the (n+1)-gram at a position is ranked by the pair (id of
    its n-gram prefix, next character).  Each length takes one ``np.sort`` of
    int64 values that hold the pair's key above the position; a length whose
    keys could pass ``2**_PACK_BITS`` once packed replaces them by their dense
    ranks first, which keeps the order.  Each text is followed by an end
    mark, which ranks above every character, and an n-gram ending in it is
    never kept.  An n-gram that is not kept has no kept extension, unless it
    left; either way its positions leave the refinement.
    """
    n_chars = int(char_rank[-1]) + 1  # the characters and the end mark
    # Each level sorts the values (key << shift) | start.  They are distinct,
    # so the sort orders positions by (key, position), which also orders each
    # n-gram's occurrences by document.
    shift = char_rank.size.bit_length()
    mask = (1 << shift) - 1
    start = np.arange(char_rank.size)
    key = np.zeros(char_rank.size, dtype=np.int64)  # prefix id * n_chars, nondecreasing
    prefix_size = np.array([char_rank.size])  # occurrences per prefix; the empty one is everywhere
    for n in range(1, n_max + 1):
        bound = int(key[-1]) + n_chars
        key += char_rank[n - 1:][start]
        distinct = None
        if bound << shift > 1 << _PACK_BITS:
            # Dense ranks keep the order and stay below char_rank.size.
            distinct, key = np.unique(key, return_inverse=True)
        key <<= shift
        key |= start
        key.sort()
        start = key & mask
        key >>= shift
        if distinct is not None:
            key = distinct[key]
        doc = doc_of[start]
        new = np.empty(key.size, dtype=bool)
        new[0] = True
        np.not_equal(key[1:], key[:-1], out=new[1:])
        heads = np.flatnonzero(new)
        size = np.diff(heads, append=key.size)
        # Documents ascend within an n-gram, so its first and last positions
        # tell whether it is shared.
        first_doc, last_doc = doc[heads], doc[heads + size - 1]
        if square:
            shared = first_doc != last_doc
        else:
            shared = (first_doc < n_rows) & (last_doc >= n_rows)
        head_key = key[heads]
        shared &= head_key % n_chars != n_chars - 1  # does not end in the end mark
        pair_new = new.copy()
        pair_new[1:] |= doc[1:] != doc[:-1]
        first = np.flatnonzero(pair_new)  # the first position of each pair
        pairs = np.diff(np.flatnonzero(new[first]), append=first.size)
        once = shared & (size <= _ONCE_GROUP_DOCS) & (pairs == size)
        if once.any():
            leaving.append((n, *_occurrence_pairs(start, doc, heads[once], size[once],
                                                   n_rows, square)))
            shared &= ~once
        if n >= n_min:
            kept = np.repeat(shared, pairs)
            count = np.diff(first, append=key.size)
            parent = head_key // n_chars
            parent[(size != prefix_size[parent]) | ~shared] = -1
            yield doc[first[kept]], count[kept], np.where(shared, pairs, 0), parent
        start = start[np.repeat(shared, size)]
        if start.size == 0:
            return
        key = np.repeat(np.flatnonzero(shared) * n_chars, size[shared])
        prefix_size = size


def _occurrence_pairs(
    start: np.ndarray, doc: np.ndarray, heads: np.ndarray, size: np.ndarray,
    n_rows: int, square: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Start positions ``(p, q)`` of each pair of occurrences of some n-grams.

    The occurrences of n-gram g are ``start[heads[g]:heads[g] + size[g]]``,
    in ascending document ``doc``, so ``doc[p] < doc[q]``; in a rectangle
    only (row, column) pairs are returned.
    """
    # The pairs (i, j), i < j, in the order (0, 1), (0, 2), (1, 2), (0, 3), ...:
    # those of an n-gram with s occurrences are the first s * (s - 1) / 2.
    tri = np.arange(int(size.max()))
    j = np.repeat(tri, tri)
    i = np.arange(j.size) - np.repeat(tri * (tri - 1) // 2, tri)
    m = size * (size - 1) // 2
    nth = np.arange(m.sum()) - np.repeat(np.cumsum(m) - m, m)
    first = np.repeat(heads, m)
    p, q = first + i[nth], first + j[nth]
    if not square:
        rect = (doc[p] < n_rows) & (doc[q] >= n_rows)
        p, q = p[rect], q[rect]
    return start[p], start[q]


def _add_once_per_document(
    values: np.ndarray, char_rank: np.ndarray, doc_of: np.ndarray,
    leaving: list[tuple[int, np.ndarray, np.ndarray]], square: bool, n_min: int, n_max: int,
) -> None:
    """Add the intersections of the n-grams that left :func:`_shared_ngram_counts`.

    Each document holds such an n-gram at most once, so it holds each of
    its extensions at most once too: every min-count is 0 or 1.  A pair of
    occurrences at p and q of an n-gram of length n therefore adds to its
    entry the number of lengths from max(n, n_min) to n_max at which the
    text at p and the text at q still agree, before an end mark.  The sums
    are integers, exact in float64 below 2**53.
    """
    if not leaving:
        return
    n, p, q = zip(*leaving)
    n = np.repeat(n, [pairs.size for pairs in p])
    p, q = np.concatenate(p), np.concatenate(q)
    end_mark = char_rank[-1]
    # agree[i]: characters the occurrences share, counted up to n_max.  The
    # first n are the n-gram; an end mark stops each text before the array ends.
    agree = n.copy()
    at = np.flatnonzero(agree < n_max)
    while at.size:
        a, b = char_rank[p[at] + agree[at]], char_rank[q[at] + agree[at]]
        at = at[(a == b) & (a != end_mark)]
        agree[at] += 1
        at = at[agree[at] < n_max]
    counted = np.maximum(agree - np.maximum(n, n_min) + 1, 0)
    n_rows, n_cols = values.shape
    cells = doc_of[p].astype(np.int64) * n_cols + doc_of[q] - (0 if square else n_rows)
    sums = np.bincount(cells, weights=counted, minlength=values.size).reshape(values.shape)
    values += sums
    if square:
        values += sums.T


def _merged_columns(
    levels: Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]],
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The counts of :func:`_shared_ngram_counts`, with repeats merged and weighted.

    An n-gram that occurs as often as its (n-1)-gram prefix has the same
    count in every document, so the two add the same amount to every
    kernel value.  Each such chain of n-grams is yielded once, as its
    longest n-gram, with a weight: the number of n-grams it stands for (at
    most 2**24).  Yields ``(doc, count, pairs, weight)``, where ``pairs``
    and ``weight`` have one element per n-gram, sorted by weight.
    """
    held = None
    for doc, count, pairs, parent in levels:
        weight = np.ones(parent.size, dtype=np.int64)
        if held is not None:
            h_weight = held[3]
            (merge,) = np.nonzero(parent >= 0)
            up = parent[merge]
            below_cap = h_weight[up] < _EXACT_F32
            merge, up = merge[below_cap], up[below_cap]
            weight[merge] += h_weight[up]
            h_weight[up] = 0
            yield from _by_weight(*held)
        held = doc, count, pairs, weight
    if held is not None:
        yield from _by_weight(*held)


def _by_weight(
    doc: np.ndarray, count: np.ndarray, pairs: np.ndarray, weight: np.ndarray,
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]]:
    """The n-grams with pairs and nonzero ``weight``, in the order of their weights."""
    grams = np.flatnonzero((pairs > 0) & (weight > 0))
    if grams.size == 0:
        return
    # Weights that fit 16 bits are sorted as such, which numpy does by radix sort.
    by = weight[grams]
    grams = grams[np.argsort(by.astype(np.uint16) if weight.max() < 1 << 16 else by,
                             kind="stable")]
    first = (np.cumsum(pairs) - pairs)[grams]
    pairs = pairs[grams]
    at = np.repeat(first - (np.cumsum(pairs) - pairs), pairs) + np.arange(pairs.sum())
    yield doc[at], count[at], pairs, weight[grams]


def _add_intersections(
    values: np.ndarray, doc: np.ndarray, count: np.ndarray, pairs: np.ndarray,
    weight: np.ndarray, square: bool, budget: int,
) -> None:
    """Add sum_g weight[g] * min(count[i, g], count[j, g]) to each entry (i, j) of ``values``.

    ``min(a, b) = sum_t [a >= t][b >= t]``, so n-gram g expands into the 0/1
    columns t = 1 .. (its largest count), and ``values`` gains
    ``B_rows @ W @ B_cols.T``, summed over float32 blocks of at most
    ``budget`` cells (documents x columns).  Arguments are as yielded by
    :func:`_merged_columns`; column documents follow the row documents.
    """
    n_rows = values.shape[0]
    n_docs = n_rows if square else n_rows + values.shape[1]
    depth = np.maximum.reduceat(count, np.cumsum(pairs) - pairs)
    col_hi = np.repeat(np.cumsum(depth), pairs)
    col_lo = col_hi - np.repeat(depth, pairs)
    col_weight = np.repeat(weight, depth)
    # A block holds B's columns lo .. hi - 1 as rows, one column per document.
    # The ones of entry e are rows col_lo[e] .. col_lo[e] + count[e] - 1 of
    # column doc[e]; their offsets (row * n_docs + doc) are stored at
    # one_start[e] .. one_start[e + 1] - 1 of one_at.
    one_start = np.zeros(count.size + 1, dtype=np.int64)
    np.cumsum(count, out=one_start[1:])
    one_at = np.repeat((col_lo - one_start[:-1]) * n_docs + doc, count)
    one_at += np.arange(one_start[-1]) * n_docs
    n_cols = int(col_hi[-1])
    # A block's sums are at most its column weights' sum, kept to 2**24.
    width = max(1, min(budget // n_docs, _EXACT_F32 // int(col_weight[-1])))
    for lo in range(0, n_cols, width):
        hi = min(lo + width, n_cols)
        # Entries are sorted by weight and n-gram, so col_lo and col_hi never decrease.
        a = one_start[np.searchsorted(col_hi, lo, "right")]
        b = one_start[np.searchsorted(col_lo, hi, "left")]
        at = one_at[a:b]
        if width < n_cols:  # entries at the block's edges have ones outside it
            at = at[(at >= lo * n_docs) & (at < hi * n_docs)] - lo * n_docs
        block = np.zeros((hi - lo, n_docs), dtype=np.float32)
        block.reshape(-1)[at] = 1.0
        # One product per run of equal weight; square ones are symmetric
        # rank-k updates, which numpy hands to the BLAS as such.
        w = col_weight[lo:hi]
        runs = np.flatnonzero(np.r_[True, w[1:] != w[:-1]])
        total = None
        for r0, r1 in zip(runs, [*runs[1:], hi - lo]):
            part = block[r0:r1]
            product = part.T @ part if square else part[:, :n_rows].T @ part[:, n_rows:]
            product *= w[r0]
            if total is None:
                total = product
            else:
                total += product
        values += total


def kernel_matrix(
    rows: Sequence[str],
    cols: Sequence[str] | None = None,
    row_ids: Sequence[str] | None = None,
    col_ids: Sequence[str] | None = None,
    n_min: int = DEFAULT_NGRAM_MIN,
    n_max: int = DEFAULT_NGRAM_MAX,
) -> KernelMatrix:
    """Raw intersection-kernel matrix between two lists of texts.

    Entry (i, j) is the sum, over every n-gram of length n_min .. n_max of
    the canonicalized texts (see :func:`normalize_text`), of the smaller of
    its counts in text i and in text j.  With ``cols=None`` (or the
    identical list) this is the square Gram matrix of ``rows``, whose
    diagonal is :func:`self_similarities`.  An empty list on either side
    gives an empty block.

    Every value is exact.  A block's products are 0/1 columns times integer
    weights, so its sums are integers of at most the sum of its column
    weights, which the block width keeps at 2**24 or less, exact in float32;
    blocks add up in float64, exact while an entry stays below 2**53.  A
    rare n-gram that each document holds at most once skips the product: each
    pair of its occurrences adds an integer count of n-gram lengths, summed
    by ``np.bincount`` in float64, also exact below 2**53.  The result does
    not depend on the block size, on how repeated columns are merged, on
    which n-grams skip the product or on how the BLAS orders its sums.
    """
    if n_min < 1 or n_max < n_min:
        raise KernelMismatchError(f"invalid n-gram range [{n_min}, {n_max}]")
    square = cols is None or cols is rows
    cols_eff = rows if square else cols
    rids = tuple(row_ids) if row_ids is not None else _default_ids(len(rows), "doc")
    cids = rids if square and col_ids is None else (
        tuple(col_ids) if col_ids is not None else _default_ids(len(cols_eff), "col")
    )
    if len(rids) != len(rows) or len(cids) != len(cols_eff):
        raise KernelMismatchError("id list length does not match text list length")

    texts = [normalize_text(t) for t in (rows if square else [*rows, *cols])]
    values = np.zeros((len(rows), len(cols_eff)), dtype=np.float64)
    if any(texts):
        char_rank, doc_of = _char_ranks(texts)
        leaving = []
        levels = _shared_ngram_counts(char_rank, doc_of, len(rows), square, n_min, n_max, leaving)
        for doc, count, pairs, weight in _merged_columns(levels):
            _add_intersections(values, doc, count, pairs, weight, square, _GRAM_BLOCK_CELLS)
        _add_once_per_document(values, char_rank, doc_of, leaving, square, n_min, n_max)
    if square:
        np.fill_diagonal(values, _self_similarities([len(t) for t in texts], n_min, n_max))
    return KernelMatrix(values=values, row_ids=rids, col_ids=cids)


def normalize_kernel(
    kernel: KernelMatrix, row_self: np.ndarray, col_self: np.ndarray
) -> KernelMatrix:
    """Scale a raw intersection kernel so every self-similarity becomes 1.

    ``row_self`` and ``col_self`` are the :func:`self_similarities` of the
    row and the column texts.  Entry (i, j) is divided by
    sqrt(row_self[i] * col_self[j]), so a square Gram comes out with a unit
    diagonal.  Documents with zero self-similarity (empty after
    canonicalization) cannot be normalized and are reported by id.
    """
    if (len(row_self), len(col_self)) != kernel.shape:
        raise KernelMismatchError(
            f"{len(row_self)} x {len(col_self)} self-similarities do not match "
            f"kernel shape {kernel.shape}"
        )
    for ids, diag in ((kernel.row_ids, row_self), (kernel.col_ids, col_self)):
        bad = np.flatnonzero(diag <= 0)
        if bad.size:
            raise KernelMismatchError(
                f"document {ids[bad[0]]!r} has zero self-similarity (empty text?)"
            )
    scale = np.sqrt(np.outer(row_self, col_self))
    return KernelMatrix(values=kernel.values / scale, row_ids=kernel.row_ids,
                        col_ids=kernel.col_ids)


def save_kernel_matrix(kernel: KernelMatrix, path: str | Path | BinaryIO) -> None:
    """Write a kernel matrix in the binary cache format (bit-exact).

    Values and ids are stored; the kind byte is always 0.
    """
    with open_binary(path, "wb") as stream:
        rows, cols = kernel.shape
        stream.write(KERNEL_MAGIC)
        stream.write(struct.pack("<IIB", rows, cols, _RAW_KIND))
        stream.write(np.ascontiguousarray(kernel.values, dtype="<f8").tobytes())
        for doc_id in kernel.row_ids:
            write_id(stream, doc_id)
        for doc_id in kernel.col_ids:
            write_id(stream, doc_id)


def load_kernel_matrix(path: str | Path | BinaryIO) -> KernelMatrix:
    """Read a kernel matrix written by :func:`save_kernel_matrix`."""
    with open_binary(path, "rb") as stream, Reader(stream) as reader:
        reader.expect_magic(KERNEL_MAGIC)
        rows, cols, tag = reader.unpack("<IIB", "header")
        if tag != _RAW_KIND:
            raise BinaryFormatError(f"unknown kind tag {tag}", offset=reader.offset - 1)
        values = np.frombuffer(reader.read(rows * cols * 8, "values"), dtype="<f8")
        ids = [reader.read_id() for _ in range(rows + cols)]
        return KernelMatrix(values=values.reshape(rows, cols).copy(), row_ids=tuple(ids[:rows]),
                            col_ids=tuple(ids[rows:]))
