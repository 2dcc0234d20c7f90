from __future__ import annotations

import hashlib
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kaes.boswe import (
    DEFAULT_KMEANS_ITERS,
    Codebook,
    _assign_blocked,
    _kmeans_pp_init,
    _screen_margin,
    _screen_margin32,
    _screen_nearest,
    boswe_kernel_matrix,
    fit_codebook,
)
from kaes.embeddings import EmbeddingModel
from kaes.errors import BinaryFormatError, KaesError, KernelMismatchError
from kaes.harness import ScoringModel, SuperWords, load_model, save_model
from kaes.seeding import KMEANS, derive_rng
from kaes.svr import SvrModel
from oracles import (
    codebook_distortion,
    histogram_dicts,
    hik_reference,
    kmeans_pp_reference,
    nearest_centroid_linear,
)


def toy_model(words: dict[str, np.ndarray]) -> EmbeddingModel:
    vocab = {w: i for i, w in enumerate(words)}
    vectors = np.vstack([np.asarray(v, dtype=np.float32) for v in words.values()])
    return EmbeddingModel(dim=vectors.shape[1], vocab=vocab, vectors=vectors)


def rows_of(model: EmbeddingModel, tokens) -> np.ndarray:
    """A document's in-vocabulary tokens as rows of ``model``."""
    return np.array([model.vocab[t] for t in tokens if t in model.vocab], dtype=np.intp)


def labels_of(codebook: Codebook, model: EmbeddingModel, tokens) -> np.ndarray:
    """A document's in-vocabulary tokens as super-word labels."""
    return codebook.assign_batch(model.vectors[rows_of(model, tokens)])


def gram(codebook: Codebook, model: EmbeddingModel, rows, cols) -> np.ndarray:
    """The block between two lists of token lists."""
    rows = [labels_of(codebook, model, d) for d in rows]
    cols = [labels_of(codebook, model, d) for d in cols]
    return boswe_kernel_matrix(rows, cols, codebook.k, [f"r{i}" for i in range(len(rows))],
                               [f"c{i}" for i in range(len(cols))]).values


def probe_weights(codebook: Codebook, docs, model: EmbeddingModel) -> np.ndarray:
    """Each document's histogram weights in the clusters that vocabulary tokens fall in.

    A probe document holding one token t gives K(d, [t]) = d's weight in
    t's cluster; column j probes cluster j through its first token, and is
    all zero for a cluster that no token falls in.
    """
    labels = codebook.assign_batch(model.vectors)
    words = list(model.vocab)
    probes = [[words[int(np.argmax(labels == j))]] if (labels == j).any() else []
              for j in range(codebook.k)]
    return gram(codebook, model, docs, probes)


def histogram(codebook: Codebook, tokens, model: EmbeddingModel) -> dict[int, float]:
    """One document's nonzero weights as {cluster id: weight}."""
    weights = probe_weights(codebook, [tokens], model)[0]
    return {int(j): float(weights[j]) for j in np.flatnonzero(weights)}


_shapes = dict(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 40),
    k=st.integers(1, 30),
    n=st.integers(1, 60),
)


# float32 hazards: magnitudes that overflow float32 (1e39), whose squares
# do (1e19, 1e38), whose squares fall below its normal range (1e-22), that
# do themselves (1e-38, 1e-42), and that float32 rounds to zero (1e-46).
_float32_scales = st.lists(
    st.sampled_from([1e-46, 1e-42, 1e-38, 1e-22, 1.0, 1e19, 1e38, 3e38, 1e39]),
    min_size=1, max_size=3)


def _at_scales(rng, shape, scales) -> np.ndarray:
    """Normal values, each column at one of ``scales``."""
    return rng.normal(size=shape) * rng.choice(scales, size=shape[1])


def _rounded_apart(rng, n: int, dim: int, ulps: float) -> np.ndarray:
    """float64 rows within ``ulps`` float32 spacings of repeated float32 rows,
    so that rows distinct in float64 often share one float32 copy."""
    base = rng.normal(size=(n, dim)).astype(np.float32)[rng.integers(0, n, size=n)]
    return base + rng.uniform(-ulps, ulps, size=(n, dim)) * np.spacing(base)


def _near_bisectors(rng, centroids: np.ndarray, n: int, gap: float) -> np.ndarray:
    """n points on the bisector of two random centroids a and b, moved
    towards b by ``gap`` (b - a): their squared distances to a and b differ
    by 2 gap ||b - a||^2."""
    a, b = centroids[rng.integers(0, len(centroids), size=(2, n))]
    w = b - a
    z = rng.normal(size=w.shape) * 0.1
    w_sq = np.maximum(np.einsum("ij,ij->i", w, w), 1e-300)
    z -= (np.einsum("ij,ij->i", z, w) / w_sq)[:, None] * w
    return (a + b) / 2 + z + gap * w


class TestKMeans:
    def test_exact_cover(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        codebook = fit_codebook(points, k=4, seed=1)
        assert codebook_distortion(points, codebook) == 0.0
        assert {tuple(c) for c in codebook.centroids} == {tuple(p) for p in points}

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_vectors_rejected(self, bad):
        points = np.random.default_rng(0).normal(size=(20, 3))
        points[7, 1] = bad
        with pytest.raises(KaesError, match="NaN or infinite"):
            fit_codebook(points, k=4, seed=0)

    def test_distances_that_overflow_are_rejected(self):
        # Finite points whose squared distances sum past float64's range: no
        # draw, and no RuntimeWarning (tier-1 makes one an error).
        points = np.random.default_rng(0).normal(size=(200, 300)) * 1e153
        with pytest.raises(KaesError, match="overflow float64: their sum is inf"):
            fit_codebook(points, k=5, seed=0)

    def test_two_blob_means(self):
        blob_a = np.array([[0.0, 0.0], [0.5, 0.0]])
        blob_b = np.array([[10.0, 10.0], [10.5, 10.0]])
        codebook = fit_codebook(np.vstack([blob_a, blob_b]), k=2, seed=3)
        centroids = sorted(map(tuple, codebook.centroids))
        assert centroids[0] == pytest.approx((0.25, 0.0), abs=1e-6)
        assert centroids[1] == pytest.approx((10.25, 10.0), abs=1e-6)

    def test_seed_determinism(self):
        rng = np.random.default_rng(0)
        points = rng.normal(size=(60, 4))
        a = fit_codebook(points, k=5, seed=9)
        b = fit_codebook(points, k=5, seed=9)
        assert np.array_equal(a.centroids, b.centroids)
        assert a.centroids.tobytes() == b.centroids.tobytes()

    def test_too_few_distinct(self):
        points = np.array([[1.0, 1.0]] * 10)
        with pytest.raises(KaesError, match="distinct"):
            fit_codebook(points, k=2, seed=0)

    def test_distortion_monotone(self):
        # Stopping after m Lloyd iterations, for every m up to convergence
        # (10 iterations here), traces the distortion of the full run.
        rng = np.random.default_rng(4)
        points = rng.normal(size=(200, 3))
        final = fit_codebook(points, k=7, seed=2)
        history = []
        for m in range(DEFAULT_KMEANS_ITERS + 1):
            codebook = fit_codebook(points, k=7, seed=2, max_iters=m)
            history.append(codebook_distortion(points, codebook))
            if np.array_equal(codebook.centroids, final.centroids):
                break
        assert len(history) >= 2
        assert history[-1] == codebook_distortion(points, final)
        assert all(b < a for a, b in zip(history, history[1:]))

    @pytest.mark.parametrize("points, k", [
        (np.array([[1.0, 1.0]] * 10), 2),
        (np.array([[0.0, 1.0], [2.0, 3.0], [0.0, 1.0], [2.0, 3.0], [4.0, 4.0]]), 4),
        (np.array([[0.0], [-0.0], [1.0]]), 3),
        (np.array([[5.0, 5.0]]), 7),
    ])
    def test_too_few_distinct_names_the_count(self, points, k):
        distinct = len({tuple(float(x) for x in row) for row in points})
        with pytest.raises(KaesError) as info:
            fit_codebook(points, k=k, seed=0)
        assert str(info.value) == f"need at least k={k} distinct vectors, got {distinct}"

    # fingerprint (sha256 of the centroid bytes) and distortion of fixed seeded
    # inputs, recorded when seeding computed every distance with the
    # elementwise formula
    @pytest.mark.parametrize("name, fingerprint, distortion", [
        ("gaussian", "13daa57623960b01", 3.892164104321965),
        ("grid", "4e64f73752e3e27c", 0.5164886069467068),
        ("near-duplicates", "cc77757bbe7cf61f", 2.9632410776710357e-06),
    ])
    def test_golden_codebooks(self, name, fingerprint, distortion):
        if name == "gaussian":
            points = np.random.default_rng(101).normal(size=(300, 8)).astype(np.float32)
            codebook = fit_codebook(points, k=20, seed=5)
        elif name == "grid":
            rng = np.random.default_rng(102)
            points = rng.integers(0, 4, size=(200, 3)).astype(np.float64)
            codebook = fit_codebook(points, k=16, seed=11)
        else:
            rng = np.random.default_rng(103)
            base = rng.normal(size=6) * 1e4
            points = base + rng.normal(size=(150, 6)) * 1e-3
            points[:40] = points[rng.integers(40, 150, size=40)]
            codebook = fit_codebook(points, k=10, seed=3, max_iters=10)
        assert hashlib.sha256(codebook.centroids.tobytes()).hexdigest()[:16] == fingerprint
        assert codebook_distortion(points, codebook) == distortion


def _seeding_outcome(seeding, points: np.ndarray, k: int, seed: int):
    """The seeds and distances, or the exception's type and text."""
    try:
        return seeding(points, k, derive_rng(seed, KMEANS))
    except (KaesError, ValueError) as exc:
        return type(exc), str(exc)


def _check_seeding_against_reference(points: np.ndarray, k: int, seed: int) -> None:
    points = np.ascontiguousarray(points, dtype=np.float64)
    expected = _seeding_outcome(kmeans_pp_reference, points, k, seed)
    got = _seeding_outcome(_kmeans_pp_init, points, k, seed)
    if isinstance(expected[0], type):
        assert got == expected
    else:
        assert not isinstance(got[0], type), got
        for a, b in zip(got, expected):
            assert np.array_equal(a, b, equal_nan=True)
            assert np.array_equal(np.signbit(a), np.signbit(b))


class TestSeeding:
    """The screened k-means++ seeding equals the elementwise loop bit for bit."""

    @settings(deadline=None)
    @given(**_shapes, repeats=st.integers(0, 20))
    def test_random_points_with_duplicates(self, seed, dim, k, n, repeats):
        rng = np.random.default_rng(seed)
        points = rng.normal(size=(n, dim))
        points = np.vstack([points, points[rng.integers(0, n, size=repeats)]])
        _check_seeding_against_reference(points, k, seed)

    @settings(deadline=None)
    @given(**_shapes, offset=st.sampled_from([0.0, 1.0, 1e3, 1e6]),
           spread=st.sampled_from([1e-9, 1e-6, 1e-3, 1.0]))
    def test_near_duplicates_far_from_origin(self, seed, dim, k, n, offset, spread):
        # The GEMM form cancels nearly all its digits here.
        rng = np.random.default_rng(seed)
        base = rng.normal(size=dim) * offset
        points = base + rng.normal(size=(n, dim)) * spread
        points[: n // 3] = points[rng.integers(0, n, size=n // 3)]
        _check_seeding_against_reference(points, k, seed)

    @settings(deadline=None)
    @given(**_shapes, spread=st.sampled_from([1e148, 1e150, 1e152]))
    def test_overflowing_squared_norms(self, seed, dim, k, n, spread):
        # The squared norms overflow, so the screen is NaN, while the
        # elementwise distances stay finite.
        rng = np.random.default_rng(seed)
        points = rng.normal(size=dim) * 1e160 + rng.normal(size=(n, dim)) * spread
        with np.errstate(over="ignore", invalid="ignore"):
            _check_seeding_against_reference(points, k, seed)

    @settings(deadline=None)
    @given(**_shapes, levels=st.integers(1, 4))
    def test_integer_grids(self, seed, dim, k, n, levels):
        rng = np.random.default_rng(seed)
        points = rng.integers(0, levels, size=(n, dim)).astype(np.float64)
        _check_seeding_against_reference(points, k, seed)

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(2, 12), distinct=st.integers(1, 11))
    def test_too_few_distinct_rows(self, seed, k, distinct):
        rng = np.random.default_rng(seed)
        rows = rng.normal(size=(distinct, 3))
        points = rows[rng.integers(0, distinct, size=3 * k)]
        _check_seeding_against_reference(points, k, seed)

    @settings(deadline=None)
    @given(**_shapes, scales=_float32_scales)
    def test_components_at_float32_limits(self, seed, dim, k, n, scales):
        # The float32 screen proves nothing past float32's range: those rows
        # fall back.  Below its normal range its absolute error term covers them.
        rng = np.random.default_rng(seed)
        _check_seeding_against_reference(_at_scales(rng, (n, dim), scales), k, seed)

    @settings(deadline=None)
    @given(**_shapes, ulps=st.sampled_from([0.25, 0.5, 2.0]))
    def test_float64_points_that_float32_rounds(self, seed, dim, k, n, ulps):
        rng = np.random.default_rng(seed)
        _check_seeding_against_reference(_rounded_apart(rng, n, dim, ulps), k, seed)

    @settings(deadline=None)
    @given(**_shapes, gap=st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-5]))
    def test_near_ties_within_float32_rounding(self, seed, dim, k, n, gap):
        # Gaps of 1e-9 to 1e-7 tie in float32 but not in float64.
        rng = np.random.default_rng(seed)
        anchors = rng.normal(size=(max(2, n // 4), dim))
        points = np.vstack([anchors, _near_bisectors(rng, anchors, n, gap)])
        _check_seeding_against_reference(points, k, seed)


def _check_against_linear_scan(points: np.ndarray, centroids: np.ndarray) -> None:
    expected = nearest_centroid_linear(points, centroids)
    assert np.array_equal(_assign_blocked(points, centroids), expected)
    assert np.array_equal(_assign_blocked(points, centroids, budget=1), expected)


class TestAssign:
    def _codebook(self, centroids) -> Codebook:
        return Codebook(centroids=np.asarray(centroids, dtype=np.float32))

    def test_exact_centroid_match(self):
        rng = np.random.default_rng(1)
        centroids = rng.normal(size=(10, 4))
        codebook = self._codebook(centroids)
        queries = codebook.centroids[[0, 3, 9]]
        assert list(codebook.assign_batch(queries)) == [0, 3, 9]

    def test_tie_breaks_to_lower_id(self):
        # Centroids 3 and 7 sit symmetrically around the query.
        centroids = np.zeros((8, 3), dtype=np.float32)
        centroids[:, 0] = np.arange(8) * 100.0
        query = np.array([1000.0, 0.0, 0.0])
        centroids[3] = [1000.0, 2.0, 0.0]
        centroids[7] = [1000.0, -2.0, 0.0]
        codebook = self._codebook(centroids)
        assert list(codebook.assign_batch(query[None, :])) == [3]

    @settings(deadline=None)
    @given(**_shapes)
    def test_matches_linear_scan_on_random_data(self, seed, dim, k, n):
        rng = np.random.default_rng(seed)
        _check_against_linear_scan(rng.normal(size=(n, dim)), rng.normal(size=(k, dim)))

    def test_index_equals_linear_scan_on_random_queries(self):
        # The codebook's own entry point, on its float32 centroids.
        rng = np.random.default_rng(7)
        codebook = self._codebook(rng.normal(size=(50, 8)))
        queries = rng.normal(size=(1000, 8))
        expected = nearest_centroid_linear(queries, codebook.centroids)
        assert np.array_equal(codebook.assign_batch(queries), expected)

    @settings(deadline=None)
    @given(**_shapes, offset=st.floats(0.0, 1e6), spread=st.sampled_from([1e-9, 1e-6, 1e-3]))
    def test_near_duplicates_far_from_origin_match_linear_scan(
        self, seed, dim, k, n, offset, spread
    ):
        # ||x||^2 and ||c||^2 dwarf the distances here, so the GEMM form
        # cancels nearly all its digits; some points repeat a centroid exactly.
        rng = np.random.default_rng(seed)
        base = rng.normal(size=dim) * offset
        centroids = base + rng.normal(size=(k, dim)) * spread
        points = base + rng.normal(size=(n, dim)) * spread
        points[: n // 3] = centroids[rng.integers(0, k, size=n // 3)]
        _check_against_linear_scan(points, centroids)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(8)
        centroids = rng.normal(size=(20, 5))
        codebook = self._codebook(centroids)
        queries = rng.normal(size=(64, 5))
        batch = codebook.assign_batch(queries)
        assert [codebook.assign_batch(q[None, :])[0] for q in queries] == list(batch)

    def test_dimension_mismatch(self):
        codebook = self._codebook(np.zeros((2, 3)))
        with pytest.raises(KernelMismatchError):
            codebook.assign_batch(np.zeros((1, 4)))

    def test_float32_table_labels_as_its_float64_copy(self):
        # assign_batch screens float32 rows as they are, one block at a time.
        rng = np.random.default_rng(23)
        codebook = self._codebook(rng.normal(size=(6, 5)))
        table = rng.normal(size=(300, 5)).astype(np.float32)
        expected = nearest_centroid_linear(table.astype(np.float64), codebook.centroids)
        assert np.array_equal(codebook.assign_batch(table), expected)
        assert np.array_equal(_assign_blocked(table, codebook.centroids.astype(np.float64),
                                              budget=23), expected)

    def test_blocked_assignment_independent_of_block_size(self):
        rng = np.random.default_rng(19)
        centroids = rng.normal(size=(30, 7))
        queries = rng.normal(size=(200, 7))
        full = _assign_blocked(queries, centroids)
        tiny_blocks = _assign_blocked(queries, centroids, budget=1)
        assert np.array_equal(full, tiny_blocks)

    @settings(deadline=None)
    @given(**_shapes, levels=st.integers(1, 4))
    def test_integer_grid_ties_match_linear_scan(self, seed, dim, k, n, levels):
        # Integer coordinates force many exact distance ties, and repeated
        # centroids.
        rng = np.random.default_rng(seed)
        centroids = rng.integers(0, levels, size=(k, dim)).astype(np.float64)
        points = rng.integers(0, levels, size=(n, dim)).astype(np.float64)
        _check_against_linear_scan(points, centroids)

    @settings(deadline=None)
    @given(**_shapes, scales=_float32_scales)
    def test_components_at_float32_limits_match_linear_scan(self, seed, dim, k, n, scales):
        # Half the points lie within 0.1% of a centroid, where a wrong screen
        # would settle on a wrong neighbour.
        rng = np.random.default_rng(seed)
        both = _at_scales(rng, (n + k, dim), scales)
        points, centroids = both[:n], both[n:]
        near = centroids[rng.integers(0, k, size=n // 2)]
        points[: n // 2] = near * (1 + 1e-3 * rng.normal(size=near.shape))
        _check_against_linear_scan(points, centroids)

    @settings(deadline=None)
    @given(**_shapes, ulps=st.sampled_from([0.25, 0.5, 2.0]))
    def test_float64_points_that_float32_rounds_match_linear_scan(self, seed, dim, k, n, ulps):
        rng = np.random.default_rng(seed)
        both = _rounded_apart(rng, n + k, dim, ulps)
        _check_against_linear_scan(both[:n], both[n:])

    @settings(deadline=None)
    @given(**_shapes, gap=st.sampled_from([0.0, 1e-12, 1e-9, 1e-7, 1e-5]))
    def test_near_ties_within_float32_rounding_match_linear_scan(self, seed, dim, k, n, gap):
        rng = np.random.default_rng(seed)
        centroids = rng.normal(size=(k, dim))
        _check_against_linear_scan(_near_bisectors(rng, centroids, n, gap), centroids)

    def test_float32_near_tie_is_settled_by_the_float64_screen(self):
        rng = np.random.default_rng(5)
        centroids = rng.normal(size=(2, 8))
        x = (centroids[0] + centroids[1]) / 2 + 1e-8 * (centroids[1] - centroids[0])
        rows = x[None, :]
        _, open32 = _screen_nearest(rows.astype(np.float32), centroids.astype(np.float32),
                                    _screen_margin32)
        labels, open64 = _screen_nearest(rows, centroids, _screen_margin)
        assert list(open32) == [0] and list(open64) == []
        assert list(labels) == [1] == list(nearest_centroid_linear(rows, centroids))

    def test_float32_overflow_leaves_the_row_open(self):
        # Every square is finite in float32, but 2 x.c of centroid 1 is not:
        # its screen value is -inf, the smallest, though centroid 0 is x.
        rows, centroids = np.array([[1.3e19]]), np.array([[1.3e19], [1.313e19]])
        with np.errstate(over="ignore"):
            _, open32 = _screen_nearest(rows.astype(np.float32), centroids.astype(np.float32),
                                        _screen_margin32)
        assert list(open32) == [0]
        assert list(_assign_blocked(rows, centroids)) == [0]

    def test_outlying_centroid_widens_only_its_own_margin(self):
        # Margins taken with the largest centroid norm would leave every row
        # open here; per-centroid margins settle them all in float32.
        rng = np.random.default_rng(13)
        centroids = rng.normal(size=(8, 300))
        centroids[3] *= 1e4
        rows = centroids[rng.integers(0, 8, size=200)] + 0.1 * rng.normal(size=(200, 300))
        labels, open32 = _screen_nearest(rows.astype(np.float32), centroids.astype(np.float32),
                                         _screen_margin32)
        assert open32.size == 0
        assert list(labels) == list(nearest_centroid_linear(rows, centroids))

    def test_float32_screen_leaves_every_row_open_from_dim_2_to_the_14(self):
        # The float32 margin is proven for dimensions below 2^14 only.
        rng = np.random.default_rng(17)
        centroids = rng.normal(size=(3, 2 ** 14))
        rows = centroids[[0, 2, 1, 0]] + 0.01 * rng.normal(size=(4, 2 ** 14))
        for dim, expected in [(2 ** 14, [0, 1, 2, 3]), (2 ** 14 - 1, [])]:
            _, open32 = _screen_nearest(rows[:, :dim].astype(np.float32),
                                        centroids[:, :dim].astype(np.float32), _screen_margin32)
            assert list(open32) == expected
        assert list(_assign_blocked(rows, centroids)) == [0, 2, 1, 0]

    def test_squares_below_float32_normal_range_match_linear_scan(self):
        # Squares of about 1e-44 keep two or three digits in float32.
        rng = np.random.default_rng(9)
        centroids = rng.uniform(0.5e-22, 3e-22, size=(64, 2))
        points = centroids[rng.integers(0, 64, size=500)] * (1 + 1e-3 * rng.normal(size=(500, 2)))
        _check_against_linear_scan(points, centroids)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39, -1e39])
    def test_non_finite_centroid_rejected(self, bad):
        # 1e39 is finite in float64 but overflows float32 when stored.
        centroids = np.zeros((4, 3))
        centroids[[2, 3], 1] = bad
        with pytest.raises(KaesError, match=r"^codebook centroid 2 is not finite in float32$"):
            Codebook(centroids=centroids)


class TestHistograms:
    """Histogram weights, read through the block with one-token probe documents."""

    def setup_method(self):
        self.model = toy_model({
            "left": [0.0, 0.0],
            "leftish": [0.2, 0.0],
            "right": [10.0, 0.0],
            "rightish": [10.2, 0.0],
        })
        self.codebook = fit_codebook(self.model.vectors, k=2, seed=0)

    def test_single_cluster_document(self):
        weights = histogram(self.codebook, ["left", "leftish", "left"], self.model)
        assert len(weights) == 1
        assert sum(weights.values()) == pytest.approx(1.0)

    def test_empty_token_list(self):
        assert histogram(self.codebook, [], self.model) == {}
        assert probe_weights(self.codebook, [[]], self.model).shape == (1, 2)
        assert gram(self.codebook, self.model, [[]], [[]])[0, 0] == 0.0

    def test_three_one_split(self):
        weights = histogram(self.codebook, ["left", "leftish", "left", "right"], self.model)
        assert sorted(weights.values()) == [0.25, 0.75]

    def test_oov_skipped_but_counted(self):
        # Only the two embedded tokens count: each weighs 1/2, not 1/3.
        weights = histogram(self.codebook, ["left", "missing", "right"], self.model)
        assert sorted(weights.values()) == [0.5, 0.5]

    def test_raw_counts(self):
        # Weights are the raw counts over the token count.
        weights = histogram(self.codebook, ["left", "right", "right"], self.model)
        assert sorted(w * 3 for w in weights.values()) == [1.0, 2.0]

    def test_mass_property(self):
        rng = np.random.default_rng(3)
        tokens = list(rng.choice(list(self.model.vocab), size=17))
        weights = histogram(self.codebook, tokens, self.model)
        assert sum(round(w * 17) for w in weights.values()) == 17
        assert sum(weights.values()) == pytest.approx(1.0, abs=1e-12)

    def _fresh(self) -> Codebook:
        return Codebook(centroids=self.codebook.centroids)

    def test_other_vectors_give_other_histograms(self):
        # The same tokens, with each vector moved to the other cluster.
        swapped = toy_model({
            "left": [10.0, 0.0], "leftish": [10.2, 0.0], "right": [0.0, 0.0],
            "rightish": [0.2, 0.0],
        })
        tokens = ["left", "leftish", "right"]
        before = probe_weights(self.codebook, [tokens], self.model)
        after = probe_weights(self.codebook, [tokens], swapped)
        assert np.array_equal(after, probe_weights(self._fresh(), [tokens], swapped))
        assert not np.array_equal(after, before)

    def test_documents_are_independent_rows(self):
        rng = np.random.default_rng(6)
        docs = [list(rng.choice(list(self.model.vocab), size=int(size)))
                for size in rng.integers(0, 12, size=7)]
        together = probe_weights(self.codebook, docs, self.model)
        for i, doc in enumerate(docs):
            alone = probe_weights(self._fresh(), [doc], self.model)
            assert np.array_equal(together[i], alone[0])
            assert sum(round(w * len(doc)) for w in together[i]) == len(doc)


class TestHik:
    def setup_method(self):
        self.model = toy_model({
            "a": [0.0, 0.0], "b": [10.0, 0.0], "c": [0.0, 10.0], "d": [10.0, 10.0],
        })
        self.codebook = fit_codebook(self.model.vectors, k=4, seed=0)

    def _square(self, *docs) -> np.ndarray:
        return gram(self.codebook, self.model, docs, docs)

    def _pair(self, a, b) -> float:
        return gram(self.codebook, self.model, [a], [b])[0, 0]

    def test_self_intersection_is_one(self):
        assert self._pair(["a", "b", "a"], ["a", "b", "a"]) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert self._pair(["a", "a"], ["b", "c"]) == 0.0

    def test_crossing_weights(self):
        h1 = ["a", "a", "a", "b"]  # 0.75 / 0.25
        h2 = ["a", "b", "b", "b"]  # 0.25 / 0.75
        assert self._pair(h1, h2) == pytest.approx(0.5)

    def test_bound(self):
        k = self._square(["a", "b", "c"], ["a", "d"])
        assert k[0, 1] <= min(k[0, 0], k[1, 1]) + 1e-12

    def test_kernel_matrix_identical_histograms(self):
        assert np.allclose(self._square(*[["a", "b"]] * 3), 1.0)

    def test_kernel_matrix_symmetric_and_psd(self):
        rng = np.random.default_rng(9)
        k = self._square(*[
            list(rng.choice(["a", "b", "c", "d"], size=rng.integers(1, 12)))
            for _ in range(10)
        ])
        assert np.array_equal(k, k.T)
        assert np.linalg.eigvalsh(k).min() >= -1e-8 * np.trace(k)

    def test_empty_document_list_gives_an_empty_block(self):
        assert gram(self.codebook, self.model, [], [["a"], []]).shape == (0, 2)
        assert gram(self.codebook, self.model, [["a"]], []).shape == (1, 0)

    def test_empty_histogram_in_matrix(self):
        k = self._square(["a"], [])
        assert k[0, 1] == 0.0
        assert k[1, 1] == 0.0
        assert list(np.diagonal(k)) == [1.0, 0.0]


def _random_documents(rng, k: int, docs: int, max_tokens: int):
    """Random documents as super-word labels among ``k`` (some empty), and
    their histograms as dicts."""
    labels = [rng.integers(0, k, size=int(rng.integers(0, max_tokens + 1)))
              for _ in range(docs)]
    return labels, histogram_dicts(labels)


def _block(rows, cols, k: int) -> np.ndarray:
    return boswe_kernel_matrix(rows, cols, k, [f"r{i}" for i in range(len(rows))],
                               [f"c{i}" for i in range(len(cols))]).values


class TestGramOracle:
    """The dense Gram equals the pair-by-pair dict loop entry for entry."""

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40), docs=st.integers(1, 12),
           max_tokens=st.integers(0, 60))
    def test_square(self, seed, k, docs, max_tokens):
        rows, dicts = _random_documents(np.random.default_rng(seed), k, docs, max_tokens)
        assert np.array_equal(_block(rows, rows, k), hik_reference(dicts))

    @settings(deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), k=st.integers(1, 40), docs=st.integers(2, 14),
           max_tokens=st.integers(0, 60), split=st.integers(1, 13))
    def test_rectangular(self, seed, k, docs, max_tokens, split):
        split = min(split, docs - 1)
        rows, dicts = _random_documents(np.random.default_rng(seed), k, docs, max_tokens)
        gram = _block(rows[:split], rows[split:], k)
        square = _block(rows, rows, k)
        assert np.array_equal(gram, hik_reference(dicts[:split], dicts[split:]))
        assert np.array_equal(gram, square[:split, split:])
        # Rows that contain the columns, as a protocol cell's (train + eval) x train block.
        block = _block(rows, rows[:split], k)
        assert np.array_equal(block, hik_reference(dicts, dicts[:split]))
        assert np.array_equal(block, square[:, :split])

    @pytest.mark.parametrize("label", [-1, 3])
    def test_label_outside_the_codebook_is_rejected(self, label):
        with pytest.raises(KernelMismatchError, match=r"labels must lie in \[0, 3\)"):
            _block([np.array([0, label])], [np.array([1])], 3)


class TestCodebookIO:
    """A codebook as a boswe or fused model file carries it: each token's
    super-word, the id of its cluster."""

    @staticmethod
    def saved(super_words: SuperWords) -> bytes:
        svr = SvrModel(coefficients=np.array([0.5]), bias=0.0, epsilon_star=0.0,
                       train_ids=("a",), converged=True, iterations=1)
        buf = io.BytesIO()
        save_model(ScoringModel(svr, "boswe", 1, 15, 1, ("a",), super_words), buf)
        return buf.getvalue()

    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        vectors = rng.normal(size=(40, 6))
        codebook = fit_codebook(vectors, k=5, seed=17)
        tokens = [f"w{i}" for i in rng.permutation(40)]
        super_words = SuperWords(5, dict(zip(tokens, codebook.assign_batch(vectors).tolist())))
        path = tmp_path / "model.bin"
        path.write_bytes(self.saved(super_words))
        loaded = load_model(path).super_words
        assert loaded == super_words
        assert list(loaded.labels) == sorted(tokens)
        assert self.saved(loaded) == path.read_bytes()

    def test_k_is_the_centroid_count(self):
        # A codebook's size cannot disagree with its centroids, so every
        # codebook's labels save to a model file that loads.
        codebook = Codebook(centroids=np.arange(12.0).reshape(3, 4))
        assert (codebook.k, codebook.dim) == (3, 4)
        labels = codebook.assign_batch(np.array([[0.0] * 4, [8.0] * 4])).tolist()
        assert labels == [0, 2]
        loaded = load_model(io.BytesIO(self.saved(SuperWords(codebook.k, {"a": 0, "b": 2}))))
        assert loaded.super_words.k == 3
        with pytest.raises(TypeError):
            Codebook(k=2, centroids=np.zeros((3, 4)))

    def test_bad_magic(self):
        with pytest.raises(BinaryFormatError, match="magic"):
            load_model(io.BytesIO(b"WRONG!!!" + b"\x00" * 16))

    @pytest.mark.parametrize("k, dim", [(0, 3), (2, 0)])
    def test_no_centroids_rejected(self, k, dim):
        # A codebook without centroids labels no token: it is not made, and
        # a model file whose super-words claim one (k=0) does not load.
        with pytest.raises(KaesError, match=re.escape(f"empty codebook: centroids of shape "
                                                      f"({k}, {dim})")):
            Codebook(centroids=np.zeros((k, dim)))
        with pytest.raises(KaesError, match="empty codebook: k=0"):
            fit_codebook(np.ones((4, 3)), k=0)
        data = self.saved(SuperWords(1, {"a": 0}))
        at = len(data) - 16 - 2 - 4  # the super-word header, the token "a\n", one label
        assert data[at:at + 16] == struct.pack("<IIQ", 1, 1, 2)
        with pytest.raises(BinaryFormatError, match="empty codebook") as info:
            load_model(io.BytesIO(data[:at] + struct.pack("<IIQ", 0, 1, 2) + data[at + 16:]))
        assert info.value.offset == at
