"""Super-word codebooks and histogram document representations.

Word vectors from the training documents are clustered with k-means; each
centroid acts as one vocabulary item ("super word").  A document becomes a
histogram of how many of its embedded tokens fall in each cluster,
L1-normalized so documents of different lengths are comparable, and
histograms are compared with the same min-sum intersection kernel used for
character n-grams.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import KernelMismatchError, KaesError
from .seeding import KMEANS, derive_rng
from .string_kernel import KernelMatrix

DEFAULT_CLUSTERS = 500
DEFAULT_KMEANS_ITERS = 100

# Unit roundoff of float64, and the smallest subnormal (twice the largest
# absolute error of one operation whose result underflows).
_U = 2.0 ** -53
_UNDERFLOW = 2.0 ** -1074


def _screen_margin(x_norm, c_norm, dim: int):
    """Margin M of the GEMM screen of squared distances of dimension ``dim``.

    ``x_norm`` and ``c_norm`` are (bounds on) the norms of a row x and a
    centroid c; M = 4 (2 dim + 8) (u (||x|| + ||c||)^2 + 2^-1074).  The exact
    value of a squared distance is taken to be the elementwise formula
    e = ``((x - c) ** 2).sum()`` in float64; the screen is the GEMM form
    g = ``||x||^2 - 2 x.c + ||c||^2``, whose sums the BLAS may order and block
    as it likes.

    Why M bounds the gap.  Let n = dim, D = ||x - c||^2 exactly and
    S = (||x|| + ||c||)^2, which bounds ||x||^2, 2|x.c|, ||c||^2 and D.  With
    g_m = m u / (1 - m u):

    * A sum of n products, summed in any order or blocking, with or without
      fused multiply-adds, is within g_n of the sum of the products'
      magnitudes (Higham, Accuracy and Stability of Numerical Algorithms,
      sec. 3.1).  So the three GEMM terms together err by at most g_n S, and
      the two additions joining them by at most 2u(1 + g_n)(1 + u) S: g is
      within g_(n+3) S of D.
    * Each elementwise term (x_i - c_i)^2 has relative error at most g_3 and
      the nonnegative terms sum with g_(n-1), so e is within
      g_(n+2) D <= g_(n+2) S of D.

    So g and e differ by at most E = g_(2n+5) S, plus at most 2^-1075 per
    operation whose result underflows.  M is at least 2E plus the rounding of
    M itself, for any practical n, and M - E exceeds the rounding
    u |g - M| of one more subtraction, since |g - M| is at most about S.
    Two screens follow:

    * Argmin.  If m is the elementwise argmin over centroids, for every j
      ``g_m <= e_m + E <= e_j + E <= g_j + 2E``, so m lies within M of the
      smallest GEMM value.
    * Lower bound.  ``g - M``, as computed, is at most e.  So a row whose
      computed ``g - M`` exceeds v has e > v.

    A non-finite g, norm or margin proves nothing: the callers compare so
    that such rows always fall back to the elementwise formula.
    """
    return 4.0 * (2 * dim + 8) * (_U * (x_norm + c_norm) ** 2 + _UNDERFLOW)


def _assign_blocked(
    points: np.ndarray, centroids: np.ndarray, budget: int = 8_000_000
) -> np.ndarray:
    """Exact nearest-centroid ids for every row of ``points``; ties to the lowest id.

    The result is by definition the argmin of the elementwise formula
    ``((x - c) ** 2).sum()``, evaluated in float64, over the centroids in id
    order.  Distances are screened with the GEMM form
    ``||x||^2 - 2 x.c + ||c||^2`` and only ambiguous rows pay for the
    elementwise formula, so labels do not depend on the block size or on how
    the BLAS orders its sums.  Each block holds at most ``budget`` float64
    distances.

    The elementwise argmin lies within :func:`_screen_margin` of the
    smallest GEMM value (taken with the largest centroid norm), so a row with
    exactly one centroid inside that margin has found it.  Any other row (a
    near tie, or a non-finite value) is recomputed with the elementwise
    formula.
    """
    n, dim = points.shape
    k = centroids.shape[0]
    out = np.empty(n, dtype=np.int64)
    c_sq = np.einsum("ij,ij->i", centroids, centroids)
    c_norm_max = float(np.sqrt(c_sq.max()))
    block = max(1, budget // max(1, k))
    for start in range(0, n, block):
        chunk = points[start : start + block]
        x_sq = np.einsum("ij,ij->i", chunk, chunk)
        d = chunk @ centroids.T
        d *= -2.0
        d += x_sq[:, None]
        d += c_sq[None, :]
        margin = _screen_margin(np.sqrt(x_sq), c_norm_max, dim)
        within = d <= (d.min(axis=1) + margin)[:, None]
        labels = within.argmax(axis=1)
        for i in np.flatnonzero(within.sum(axis=1) != 1):
            labels[i] = ((chunk[i] - centroids) ** 2).sum(axis=1).argmin()
        out[start : start + block] = labels
    return out


@dataclass
class Codebook:
    """Cluster centroids; :meth:`assign_batch` maps vectors to them exactly.

    Centroids are stored as float32 (the on-disk precision); all distance
    arithmetic runs on one shared float64 copy.
    """

    centroids: np.ndarray  # (k, dim) float32
    seed: int
    _centroids64: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.centroids = np.ascontiguousarray(self.centroids, dtype=np.float32)
        self._centroids64 = self.centroids.astype(np.float64)

    @property
    def k(self) -> int:
        return self.centroids.shape[0]

    @property
    def dim(self) -> int:
        return self.centroids.shape[1]

    def assign_batch(self, vectors: np.ndarray) -> np.ndarray:
        """Nearest-centroid id of every row; exact, ties to the lowest id."""
        vectors = np.asarray(vectors, dtype=np.float64)
        if vectors.ndim != 2 or vectors.shape[1] != self.dim:
            raise KernelMismatchError(
                f"vectors have shape {vectors.shape}, expected (n, {self.dim})"
            )
        return _assign_blocked(vectors, self._centroids64)


def _kmeans_pp_init(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeds, and each point's squared distance to its nearest seed.

    Each new center is drawn with probability proportional to the points'
    elementwise squared distances to their nearest earlier center.  Those
    distances are screened with one matrix-vector product per center: a row
    whose :func:`_screen_margin` lower bound exceeds its current distance
    keeps it, and every other row (NaN and inf included) takes the minimum
    with its elementwise distance.  So distances, draws and centers equal
    those of the elementwise loop bit for bit.

    A draw with positive mass always picks a row distinct from every chosen
    center, so an input with fewer than k distinct rows runs out of positive
    finite mass before its k-th draw; only then are distinct rows counted.
    """
    n, dim = points.shape
    centers = np.empty((k, dim), dtype=np.float64)
    x_sq = np.einsum("ij,ij->i", points, points)
    x_norm = np.sqrt(x_sq)
    first = int(rng.integers(n))
    centers[0] = points[first]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    counted = False
    for j in range(1, k):
        total = closest.sum()
        if not counted and not 0 < total < np.inf:
            counted = True
            _require_distinct(points, k)
        if total <= 0:
            # All remaining points coincide with chosen centers; any pick works.
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        center = points[idx]
        centers[j] = center
        low = x_sq - 2.0 * (points @ center) + x_sq[idx]
        low -= _screen_margin(x_norm, x_norm[idx], dim)
        todo = np.flatnonzero(~(low > closest))
        closest[todo] = np.minimum(closest[todo], ((points[todo] - center) ** 2).sum(axis=1))
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
    """
    points = np.ascontiguousarray(vectors, dtype=np.float64)
    if points.ndim != 2 or points.shape[0] == 0:
        raise KaesError("vectors must be a nonempty 2-d array")
    if not np.isfinite(points).all():
        raise KaesError("vectors hold NaN or infinite values")
    if k > len(points):  # fails before k centers are allocated
        _require_distinct(points, k)

    rng = derive_rng(seed, KMEANS)
    centers, _ = _kmeans_pp_init(points, k, rng)
    labels = _assign_blocked(points, centers)
    for _ in range(max_iters):
        order = np.argsort(labels, kind="stable")
        sorted_labels = labels[order]
        present, starts = np.unique(sorted_labels, return_index=True)
        sums = np.add.reduceat(points[order], starts, axis=0)
        counts = np.diff(np.append(starts, labels.size))
        centers = centers.copy()
        centers[present] = sums / counts[:, None]
        new_labels = _assign_blocked(points, centers)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
    return Codebook(centroids=centers.astype(np.float32), seed=seed)


def boswe_kernel_matrix(
    rows: Sequence[np.ndarray],
    cols: Sequence[np.ndarray],
    codebook: Codebook,
    vectors: np.ndarray,
    row_ids: Sequence[str],
    col_ids: Sequence[str],
) -> KernelMatrix:
    """Intersection-kernel block between the histograms of two document lists.

    Each document is given as the rows of ``vectors`` of its embedded
    tokens.  Entry (a, b) is ``sum_j min(h_a[j], h_b[j])`` over the
    documents' L1-normalized ``codebook`` histograms, added in ascending
    cluster id from 0.0 over the clusters where both documents have mass:
    clusters are visited in ascending id, and each adds its minima to the
    block of rows and columns that have mass in it.  So the values do not
    depend on the block shape, and a block equals the matching entries of
    the square matrix over its documents; an empty list gives an empty block.
    """
    # The histograms of rows and columns together, so each distinct row is
    # assigned once.  A document with no rows has an all-zero histogram.
    docs, n = [*rows, *cols], len(rows)
    lengths = np.array([len(doc) for doc in docs], dtype=np.int64)
    distinct, inverse = np.unique(np.concatenate([np.empty(0, dtype=np.intp), *docs]),
                                  return_inverse=True)
    labels = codebook.assign_batch(vectors[distinct])[inverse]
    doc = np.repeat(np.arange(len(docs)), lengths)
    counts = np.bincount(doc * codebook.k + labels, minlength=len(docs) * codebook.k)
    weights = counts.reshape(len(docs), codebook.k) / np.maximum(lengths, 1)[:, None]
    values = np.zeros((n, len(cols)), dtype=np.float64)
    for h in np.ascontiguousarray(weights.T):  # one cluster's weights, in ascending id
        r, c = np.flatnonzero(h[:n]), np.flatnonzero(h[n:])
        if r.size and c.size:
            values[np.ix_(r, c)] += np.minimum.outer(h[r], h[n + c])
    return KernelMatrix(values=values, row_ids=tuple(row_ids), col_ids=tuple(col_ids))
