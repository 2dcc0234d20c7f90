"""Super-word codebooks and histogram document representations.

Word vectors from the training documents are clustered with k-means; each
centroid acts as one vocabulary item ("super word").  A document becomes a
histogram of how many of its embedded tokens fall in each cluster,
L1-normalized so documents of different lengths are comparable, and
histograms are compared with the same min-sum intersection kernel used for
character n-grams.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import KernelMismatchError, KaesError
from .seeding import KMEANS, derive_rng
from .string_kernel import KernelMatrix

DEFAULT_CLUSTERS = 500
DEFAULT_KMEANS_ITERS = 100

# Unit roundoffs of float64 and float32, the smallest float64 subnormal
# (twice the largest absolute error of one operation whose result
# underflows), and float32's smallest normal number.
_U, _UNDERFLOW = 2.0 ** -53, 2.0 ** -1074
_U32, _TINY32 = 2.0 ** -24, 2.0 ** -126


def _margin(sq, dim: int, u: float, tiny: float, sq_max: float) -> np.ndarray:
    """4 (2 dim + 8) (2 u sq + tiny) in float64; NaN where ``sq`` is NaN or
    not below ``sq_max``."""
    sq = np.asarray(sq, dtype=np.float64)
    return np.where(sq < sq_max, 4.0 * (2 * dim + 8) * (2 * u * sq + tiny), np.nan)


def _screen_margin(sq, dim: int) -> np.ndarray:
    """Margin terms m of the float64 GEMM screen of squared distances of dimension ``dim``.

    ``sq`` holds squared norms of rows or centroids, computed in float64;
    m = 4 (2 dim + 8) (2u sq + 2^-1074) with u = 2^-53, and NaN where sq is
    NaN or at least 2^998.  For a row x and a centroid c, m(x) + m(c) is at
    least M = 4 (2 dim + 8) (u (||x|| + ||c||)^2 + 2^-1074), because
    (||x|| + ||c||)^2 <= 2 ||x||^2 + 2 ||c||^2; so one outlying vector
    widens only its own margins.  The exact value of a squared distance is
    taken to be the elementwise formula e = ``((x - c) ** 2).sum()`` in
    float64; the screen is the GEMM form g = ``||x||^2 - 2 x.c + ||c||^2``,
    or h = ``||c||^2 - 2 x.c`` where only one row's centroids are compared,
    whose sums the BLAS may order and block as it likes.

    Why M bounds the gap.  Let n = dim, D = ||x - c||^2 exactly and
    S = (||x|| + ||c||)^2, which bounds ||x||^2, 2|x.c|, ||c||^2 and D.  With
    g_m = m u / (1 - m u):

    * A sum of n products, summed in any order or blocking, with or without
      fused multiply-adds, is within g_n of the sum of the products'
      magnitudes (Higham, Accuracy and Stability of Numerical Algorithms,
      sec. 3.1).  So the three GEMM terms together err by at most g_n S, and
      the two additions joining them by at most 2u(1 + g_n)(1 + u) S: g is
      within g_(n+3) S of D, and h within g_(n+2) S of D - ||x||^2.
    * Each elementwise term (x_i - c_i)^2 has relative error at most g_3 and
      the nonnegative terms sum with g_(n-1), so e is within
      g_(n+2) D <= g_(n+2) S of D.

    So g and e, and h and e - ||x||^2, differ by at most E = g_(2n+5) S,
    plus at most 2^-1075 per operation whose result underflows.  M is at
    least 2E plus the rounding of M itself, for any practical n, and M - 2E
    exceeds the rounding of the few additions that apply the margins, at
    most u (|g| + 2M) each, since |g| is at most about S.  The slack also
    covers squared norms computed in float64, which are within a relative
    (n + 1) u of the exact ones.  Below 2^998, each squared norm keeps S
    below 2^1000 and no step overflows.  Two screens follow:

    * Argmin.  Let h'_j = h_j - m(c_j) / 2 and let m be the centroid with the
      smallest h'.  If every other centroid j has
      ``h'_j > h'_m + m(c_m) + m(x)``, then
      e_j - e_m >= h_j - h_m - E_j - E_m
      > m(x) + (m(c_j) + m(c_m)) / 2 - E_j - E_m >= 0, so m is the only
      elementwise argmin.
    * Lower bound.  ``g - m(x) - m(c)``, as computed, is at most e.  So a row
      whose computed value exceeds v has e > v.

    A NaN margin, or a non-finite g, h or norm, proves nothing: the callers
    compare so that such rows always fall back.
    """
    return _margin(sq, dim, _U, _UNDERFLOW, 2.0 ** 998)


def _screen_margin32(sq, dim: int) -> np.ndarray:
    """Margin terms m of the same two screens run in float32, on x and c rounded to float32.

    ``sq`` holds squared norms of rows or centroids, computed in float32
    from the rounded copies; m = 4 (2 dim + 8) (2u sq + 16 t) with u = 2^-24
    and t = 2^-126, float32's smallest normal number, and NaN where sq is
    NaN or at least 2^118, or everywhere if ``dim`` is 2^14 or more.  The
    exact value is still e, the elementwise formula on x and c in float64.
    With n, D, E and M as in :func:`_screen_margin` and a = ||x|| + ||c||,
    three errors add up:

    * Rounding.  Each component of x' = fl32(x) is within u |x_i| + t of
      x_i: t covers a component below float32's normal range, whether it
      becomes a subnormal or zero (flushed, or read as zero by the BLAS).  So
      r = u a + 2 sqrt(n) t bounds ||x' - x|| + ||c' - c||, and the exact
      distance D' = ||x' - c'||^2 lies within r (2a + r) of D, which is at
      most 4u a^2 + n t (as 4 sqrt(n) t a <= u a^2 + 4 n t^2 / u).
    * float32 sums.  The screen on x' and c' errs from D' as in
      :func:`_screen_margin`, by g_(n+3) (a + r)^2 with float32's u, plus at
      most 2t for each of its fewer than 6n operations whose result
      underflows: at most 1.04 (n + 3) u a^2 + 13 n t for n below 2^14.
    * float64.  e lies within g_(n+2) a^2 of D with u = 2^-53, less than
      u a^2 / 2^14 here, plus less than t for its underflows.

    So E is at most (1.05 n + 8) u a^2 + 16 n t for n below 2^14.  A
    computed squared norm s_x understates ||x'||^2 by at most a relative g_n
    and an absolute 2 n t, so ||x||^2 <= 1.003 s_x + 2.01 n t, likewise for
    c, and a^2 <= 2.006 (s_x + s_c) + 8.1 n t.  Then 2E is at most
    (4.3 n + 33) u (s_x + s_c) + 33 n t, and m(x) + m(c) =
    (16 n + 64) u (s_x + s_c) + (256 n + 1024) t exceeds it by far more
    than the roundings of the few additions that apply the margins, at most
    u (|h| + 2 m) each, in float32 or float64.

    Non-finite values.  Below 2^118, each squared norm keeps a^2 below
    2^121 and no float32 step overflows.  A component that float32 rounds
    to inf, or a square that overflows, makes the squared norm inf and m
    NaN; a NaN makes both NaN.  So a value that is not finite in float32
    proves nothing, and its row falls back to the float64 screen.
    """
    if dim >= 2 ** 14:  # past the bound above: every row falls back
        return np.full(np.shape(sq), np.nan)
    return _margin(sq, dim, _U32, 16 * _TINY32, 2.0 ** 118)


def _as_float(vectors) -> np.ndarray:
    """``vectors`` as an array of float32 if it is one, else of float64."""
    vectors = np.asarray(vectors)
    return vectors if vectors.dtype == np.float32 else vectors.astype(np.float64, copy=False)


def _screen_nearest(x: np.ndarray, c: np.ndarray, margin) -> tuple[np.ndarray, np.ndarray]:
    """Screened nearest-centroid ids of the rows of ``x``, and the rows left open.

    The screen is h'_j = ``||c_j||^2 - 2 x.c_j - m(c_j) / 2``, in the
    precision of ``x`` and ``c``, with the margin terms m of ``margin``.  A
    row is settled when its smallest h', at centroid m, is below every
    other centroid's by more than ``m(c_m) + m(x)``; the others are
    returned, in order, as open.
    """
    dim = x.shape[1]
    c_sq = np.einsum("ij,ij->i", c, c)
    m_c = margin(c_sq, dim)
    d = x @ (-2 * c).T
    d += (c_sq - m_c / 2).astype(d.dtype)
    labels = d.argmin(axis=1)
    rows = np.arange(len(d))
    bound = d[rows, labels] + m_c[labels] + margin(np.einsum("ij,ij->i", x, x), dim)
    d[rows, labels] = np.inf
    return labels, np.flatnonzero(~(d.min(axis=1) > bound))


def _assign_blocked(
    points: np.ndarray, centroids: np.ndarray, budget: int = 8_000_000
) -> np.ndarray:
    """Exact nearest-centroid ids for every row of ``points``; ties to the lowest id.

    ``points`` are float32 or float64.  The result is by definition the
    argmin of the elementwise formula ``((x - c) ** 2).sum()``, evaluated in
    float64, over the centroids in id order.  Three tiers find it, each on
    the rows that the one before leaves open:

    * the float32 screen (:func:`_screen_margin32`) on the rows and
      centroids rounded to float32, one sgemm per block of rows;
    * the float64 screen (:func:`_screen_margin`) on the open rows;
    * the elementwise formula on the rows still open (near ties, and
      values that are not finite).

    A row is settled only when one centroid's screened value lies below
    every other centroid's by more than their margins (:func:`_screen_nearest`),
    so labels do not depend on the block size or on how the BLAS orders its
    sums.  A block of rows and its
    distances hold at most ``budget`` values.
    """
    n, dim = points.shape
    k = centroids.shape[0]
    c64 = np.asarray(centroids, dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow leaves every row open
        c32 = c64.astype(np.float32)
    out = np.empty(n, dtype=np.int64)
    block = max(1, budget // (k + dim))
    for start in range(0, n, block):
        chunk = points[start : start + block]
        with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows stay open
            labels, open_ = _screen_nearest(chunk.astype(np.float32, copy=False), c32,
                                            _screen_margin32)
        if open_.size:
            rows = chunk[open_].astype(np.float64)
            labels[open_], still = _screen_nearest(rows, c64, _screen_margin)
            for i in still:
                labels[open_[i]] = ((rows[i] - c64) ** 2).sum(axis=1).argmin()
        out[start : start + block] = labels
    return out


@dataclass
class Codebook:
    """Cluster centroids; :meth:`assign_batch` maps vectors to them exactly.

    Centroids are stored as float32, the precision of word vectors, and
    must be finite there.
    """

    centroids: np.ndarray  # (k, dim) float32

    def __post_init__(self):
        with np.errstate(over="ignore"):  # an overflow is reported below
            self.centroids = np.ascontiguousarray(self.centroids, dtype=np.float32)
        if self.centroids.ndim != 2 or 0 in self.centroids.shape:
            raise KaesError(f"empty codebook: centroids of shape {self.centroids.shape}")
        bad = np.flatnonzero(~np.isfinite(self.centroids).all(axis=1))
        if bad.size:
            raise KaesError(f"codebook centroid {bad[0]} is not finite in float32")

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def assign_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Nearest-centroid id of every row; exact, ties to the lowest id.

        float32 rows are screened as they are, a block at a time, so a
        large float32 table costs no copy of itself.
        """
        vectors = _as_float(vectors)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise KernelMismatchError(
                f"vectors have shape {vectors.shape}, expected (n, {self.dim})"
            )
        return _assign_blocked(vectors, self.centroids)


def _kmeans_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeds, and each point's squared distance to its nearest seed.

    ``points`` are finite, float32 or float64.  Each new center is drawn with
    probability proportional to the points' elementwise squared distances
    (in float64) to their nearest earlier center.  Those distances are
    screened with one float32 matrix-vector product per center: a row whose
    lower bound ``g - m(x) - m(c)`` (:func:`_screen_margin32`) exceeds its
    current distance keeps it, and every other row (a NaN bound included)
    takes the minimum with its elementwise distance.  So distances, draws
    and centers equal those of the elementwise loop bit for bit.  The
    float64 screen is not tried here: on one center, it costs a row about
    as much as the elementwise distance, which most open rows need anyway.

    A draw with positive mass always picks a row distinct from every chosen
    center, so an input with fewer than k distinct rows runs out of positive
    finite mass before its k-th draw; only then are distinct rows counted.
    Squared distances to the first center that sum past float64's range are
    a KaesError.
    """
    n, dim = points.shape
    centers = np.empty((k, dim), dtype=np.float64)
    with np.errstate(over="ignore"):  # an overflow leaves its rows open
        p32 = points.astype(np.float32, copy=False)
        sq32 = np.einsum("ij,ij->i", p32, p32)
    # ||x||^2 - m(x) of every point; g - m(x) - m(c) = base_x - 2 x.c + base_c.
    base = sq32 - _screen_margin32(sq32, dim)
    first = int(rng.integers(n))
    centers[0] = points[first]
    with np.errstate(over="ignore"):  # a total that overflows is an error below
        closest = ((points - centers[0]) ** 2).sum(axis=1)
        total = closest.sum()
    counted = False
    for j in range(1, k):
        if not counted and not 0 < total < np.inf:
            counted = True
            _require_distinct(points, k)
            if total == np.inf:
                raise KaesError("the squared distances of the vectors to the first k-means++ "
                                "center overflow float64: their sum is inf")
        if total <= 0:
            # All remaining points coincide with chosen centers; any pick works.
            idx = int(rng.integers(n))
        else:
            # rng.choice(n, p=closest / total) without its checks of p: the same
            # cumulative sum and uniform draw, so the same index.
            cdf = np.cumsum(closest / total)
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), "right"))
        centers[j] = points[idx]
        # An overflow leaves its rows open, and an open row's distance that
        # overflows is inf, so the row keeps its current one.
        with np.errstate(over="ignore", invalid="ignore"):
            low = base + p32 @ (-2 * p32[idx])
            low += base[idx]
            todo = np.flatnonzero(~(low > closest))
            closest[todo] = np.minimum(closest[todo],
                                       ((points[todo] - centers[j]) ** 2).sum(axis=1))
        total = closest.sum()
    return centers, closest


def _require_distinct(points: np.ndarray, k: int) -> None:
    n_distinct = np.unique(points, axis=0).shape[0]
    if n_distinct < k:
        raise KaesError(f"need at least k={k} distinct vectors, got {n_distinct}")


def fit_codebook(
    vectors: np.ndarray,
    k: int = DEFAULT_CLUSTERS,
    seed: int = 0,
    max_iters: int = DEFAULT_KMEANS_ITERS,
) -> Codebook:
    """Cluster word vectors into a codebook with k-means.

    k-means++ seeding followed by Lloyd iterations; stops when no assignment
    changes or after ``max_iters``.  Deterministic given ``seed``.  Clusters
    that empty out keep their previous centroid, so the mean squared
    distance of the points to their centroids never increases between
    iterations.  Fewer than k distinct vectors, or a NaN or infinite
    component, is an error.

    float32 vectors are not copied to float64: distances and centroid sums
    take each component in float64 inside the ufunc, which gives the same
    bits as a float64 copy would.
    """
    points = np.ascontiguousarray(_as_float(vectors))
    if points.ndim != 2 or points.shape[0] == 0:
        raise KaesError("vectors must be a nonempty 2-d array")
    if not np.isfinite(points).all():
        raise KaesError("vectors hold NaN or infinite values")
    if k < 1:
        raise KaesError(f"empty codebook: k={k}")
    if k > len(points):  # fails before k centers are allocated
        _require_distinct(points, k)

    rng = derive_rng(seed, KMEANS)
    centers, _ = _kmeans_pp_init(points, k, rng)
    labels = _assign_blocked(points, centers)
    for _ in range(max_iters):
        order = np.argsort(labels, kind="stable")
        sorted_labels = labels[order]
        present, starts = np.unique(sorted_labels, return_index=True)
        sums = np.add.reduceat(points[order], starts, axis=0, dtype=np.float64)
        counts = np.diff(np.append(starts, labels.size))
        centers = centers.copy()
        centers[present] = sums / counts[:, None]
        new_labels = _assign_blocked(points, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return Codebook(centroids=centers)


def boswe_kernel_matrix(
    rows: Sequence[np.ndarray],
    cols: Sequence[np.ndarray],
    k: int,
    row_ids: Sequence[str],
    col_ids: Sequence[str],
) -> KernelMatrix:
    """Intersection-kernel block between the histograms of two document lists.

    Each document is given as the super-word labels of its embedded tokens:
    their cluster ids among ``k``.  Entry (a, b) is
    ``sum_j min(h_a[j], h_b[j])`` over the documents' L1-normalized
    histograms, added in ascending cluster id from 0.0 over the clusters
    where both documents have mass: clusters are visited in ascending id, and
    each adds its minima to the block of rows and columns that have mass in
    it.  So the values do not depend on the block shape, and a block equals
    the matching entries of the square matrix over its documents; an empty
    list gives an empty block.  A label outside ``[0, k)`` is an error.
    """
    # The histograms of rows and columns together; a document with no
    # labels has an all-zero histogram.
    docs, n = [*rows, *cols], len(rows)
    lengths = np.array([len(doc) for doc in docs], dtype=np.int64)
    labels = np.concatenate([np.empty(0, dtype=np.int64), *docs]).astype(np.int64, copy=False)
    if labels.size and not 0 <= labels.min() <= labels.max() < k:
        raise KernelMismatchError(f"super-word labels must lie in [0, {k}), "
                                  f"got {labels.min()} to {labels.max()}")
    doc = np.repeat(np.arange(len(docs)), lengths)
    counts = np.bincount(doc * k + labels, minlength=len(docs) * k)
    weights = counts.reshape(len(docs), k) / np.maximum(lengths, 1)[:, None]
    values = np.zeros((n, len(cols)), dtype=np.float64)
    for h in np.ascontiguousarray(weights.T):  # one cluster's weights, in ascending id
        r, c = np.flatnonzero(h[:n]), np.flatnonzero(h[n:])
        if r.size and c.size:
            values[np.ix_(r, c)] += np.minimum.outer(h[r], h[n + c])
    return KernelMatrix(values=values, row_ids=tuple(row_ids), col_ids=tuple(col_ids))
