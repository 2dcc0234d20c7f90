from __future__ import annotations

import io
import struct

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kaes.boswe import (
    Codebook,
    _assign_blocked,
    boswe_kernel_matrix,
    build_histogram,
    fit_codebook,
    hik_pair,
    load_codebook,
    save_codebook,
)
from kaes.embeddings import EmbeddingModel
from kaes.errors import BinaryFormatError, KaesError, KernelMismatchError
from oracles import nearest_centroid_linear


def toy_model(words: dict[str, np.ndarray]) -> EmbeddingModel:
    vocab = {w: i for i, w in enumerate(words)}
    vectors = np.vstack([np.asarray(v, dtype=np.float32) for v in words.values()])
    return EmbeddingModel(dim=vectors.shape[1], vocab=vocab, vectors=vectors)


class TestKMeans:
    def test_exact_cover(self):
        points = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [5.0, 5.0]])
        codebook = fit_codebook(points, k=4, seed=1)
        assert codebook.distortion == 0.0
        assert {tuple(c) for c in codebook.centroids} == {tuple(p) for p in points}

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
        assert a.fingerprint == b.fingerprint

    def test_too_few_distinct(self):
        points = np.array([[1.0, 1.0]] * 10)
        with pytest.raises(KaesError, match="distinct"):
            fit_codebook(points, k=2, seed=0)

    def test_distortion_monotone(self):
        rng = np.random.default_rng(4)
        points = rng.normal(size=(200, 3))
        _, history = fit_codebook(points, k=7, seed=2, return_history=True)
        assert len(history) >= 1
        assert all(b <= a + 1e-12 for a, b in zip(history, history[1:]))


def _check_against_linear_scan(points: np.ndarray, centroids: np.ndarray) -> None:
    expected = nearest_centroid_linear(points, centroids)
    assert np.array_equal(_assign_blocked(points, centroids), expected)
    assert np.array_equal(_assign_blocked(points, centroids, budget=1), expected)


_shapes = dict(
    seed=st.integers(0, 2**32 - 1),
    dim=st.integers(1, 40),
    k=st.integers(1, 30),
    n=st.integers(1, 60),
)


class TestAssign:
    def _codebook(self, centroids) -> Codebook:
        return Codebook(k=len(centroids), centroids=np.asarray(centroids, dtype=np.float32),
                        seed=0, distortion=None)

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


class TestHistograms:
    def setup_method(self):
        self.model = toy_model({
            "left": [0.0, 0.0],
            "leftish": [0.2, 0.0],
            "right": [10.0, 0.0],
            "rightish": [10.2, 0.0],
        })
        self.codebook = fit_codebook(self.model.vectors, k=2, seed=0)

    def test_single_cluster_document(self):
        hist = build_histogram(self.codebook, ["left", "leftish", "left"], self.model)
        assert len(hist.weights) == 1
        assert sum(hist.weights.values()) == pytest.approx(1.0)

    def test_empty_token_list(self):
        hist = build_histogram(self.codebook, [], self.model)
        assert hist.weights == {}
        assert hist.token_count == 0

    def test_three_one_split(self):
        hist = build_histogram(self.codebook, ["left", "leftish", "left", "right"], self.model)
        assert sorted(hist.weights.values()) == [0.25, 0.75]
        assert hist.token_count == 4

    def test_oov_skipped_but_counted(self):
        hist = build_histogram(self.codebook, ["left", "missing", "right"], self.model)
        assert hist.token_count == 2

    def test_raw_counts(self):
        hist = build_histogram(self.codebook, ["left", "right", "right"], self.model,
                               normalize=False)
        assert sorted(hist.weights.values()) == [1.0, 2.0]

    def test_mass_property(self):
        rng = np.random.default_rng(3)
        tokens = list(rng.choice(list(self.model.vocab), size=17))
        raw = build_histogram(self.codebook, tokens, self.model, normalize=False)
        assert sum(raw.weights.values()) == raw.token_count == 17
        normalized = build_histogram(self.codebook, tokens, self.model)
        assert sum(normalized.weights.values()) == pytest.approx(1.0, abs=1e-12)

    def _fresh(self) -> Codebook:
        return Codebook(k=self.codebook.k, centroids=self.codebook.centroids,
                        seed=self.codebook.seed, distortion=None)

    def test_warm_memo_equals_fresh_codebook(self, monkeypatch):
        rng = np.random.default_rng(5)
        docs = [list(rng.choice(list(self.model.vocab), size=9)) for _ in range(4)]
        for doc in docs:
            build_histogram(self.codebook, doc, self.model)
        assign_batch, calls = Codebook.assign_batch, []
        monkeypatch.setattr(Codebook, "assign_batch",
                            lambda cb, vectors: calls.append(cb) or assign_batch(cb, vectors))
        warm = [build_histogram(self.codebook, doc, self.model) for doc in docs]
        assert calls == []  # every type was assigned by the first pass
        fresh = self._fresh()
        assert warm == [build_histogram(fresh, doc, self.model) for doc in docs]
        assert calls and all(cb is fresh for cb in calls)

    def test_other_model_clears_memo(self):
        # The same tokens, with each vector moved to the other cluster.
        swapped = toy_model({
            "left": [10.0, 0.0], "leftish": [10.2, 0.0], "right": [0.0, 0.0],
            "rightish": [0.2, 0.0],
        })
        tokens = ["left", "leftish", "right"]
        before = build_histogram(self.codebook, tokens, self.model, normalize=False)
        after = build_histogram(self.codebook, tokens, swapped, normalize=False)
        assert after == build_histogram(self._fresh(), tokens, swapped, normalize=False)
        assert after != before


class TestHik:
    def setup_method(self):
        self.model = toy_model({
            "a": [0.0, 0.0], "b": [10.0, 0.0], "c": [0.0, 10.0], "d": [10.0, 10.0],
        })
        self.codebook = fit_codebook(self.model.vectors, k=4, seed=0)

    def _hist(self, tokens):
        return build_histogram(self.codebook, tokens, self.model)

    def test_self_intersection_is_one(self):
        h = self._hist(["a", "b", "a"])
        assert hik_pair(h, h) == pytest.approx(1.0)

    def test_disjoint_supports(self):
        assert hik_pair(self._hist(["a", "a"]), self._hist(["b", "c"])) == 0.0

    def test_crossing_weights(self):
        h1 = self._hist(["a", "a", "a", "b"])  # 0.75 / 0.25
        h2 = self._hist(["a", "b", "b", "b"])  # 0.25 / 0.75
        assert hik_pair(h1, h2) == pytest.approx(0.5)

    def test_codebook_mismatch(self):
        other = fit_codebook(self.model.vectors, k=3, seed=1)
        h1 = self._hist(["a"])
        h2 = build_histogram(other, ["a"], self.model)
        with pytest.raises(KernelMismatchError):
            hik_pair(h1, h2)

    def test_bound(self):
        h1 = self._hist(["a", "b", "c"])
        h2 = self._hist(["a", "d"])
        assert hik_pair(h1, h2) <= min(hik_pair(h1, h1), hik_pair(h2, h2)) + 1e-12

    def test_kernel_matrix_identical_histograms(self):
        hists = [self._hist(["a", "b"]) for _ in range(3)]
        k = boswe_kernel_matrix(hists)
        assert np.allclose(k.values, 1.0)
        assert k.kind == "boswe"

    def test_kernel_matrix_symmetric_and_psd(self):
        rng = np.random.default_rng(9)
        hists = [
            self._hist(list(rng.choice(["a", "b", "c", "d"], size=rng.integers(1, 12))))
            for _ in range(10)
        ]
        k = boswe_kernel_matrix(hists)
        assert np.array_equal(k.values, k.values.T)
        assert np.linalg.eigvalsh(k.values).min() >= -1e-8 * np.trace(k.values)

    def test_empty_histogram_in_matrix(self):
        hists = [self._hist(["a"]), build_histogram(self.codebook, [], self.model)]
        k = boswe_kernel_matrix(hists)
        assert k.values[0, 1] == 0.0
        assert k.values[1, 1] == 0.0


class TestCodebookIO:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(21)
        codebook = fit_codebook(rng.normal(size=(40, 6)), k=5, seed=17)
        path = tmp_path / "cb.bin"
        save_codebook(codebook, path)
        loaded = load_codebook(path)
        assert np.array_equal(
            loaded.centroids.view(np.uint32), codebook.centroids.view(np.uint32)
        )
        assert loaded.k == 5
        assert loaded.seed == 17
        assert loaded.distortion is None
        assert loaded.fingerprint == codebook.fingerprint

    def test_bad_magic(self):
        with pytest.raises(BinaryFormatError, match="magic"):
            load_codebook(io.BytesIO(b"WRONG!!!" + b"\x00" * 16))

    def test_truncated_centroids(self):
        rng = np.random.default_rng(22)
        codebook = fit_codebook(rng.normal(size=(20, 3)), k=2, seed=1)
        buf = io.BytesIO()
        save_codebook(codebook, buf)
        with pytest.raises(BinaryFormatError, match="truncated"):
            load_codebook(io.BytesIO(buf.getvalue()[:-5]))

    @pytest.mark.parametrize("k, dim", [(0, 3), (2, 0)])
    def test_no_centroids_rejected(self, k, dim):
        with pytest.raises(BinaryFormatError, match="empty codebook") as info:
            load_codebook(io.BytesIO(b"KAESCB01" + struct.pack("<IIQ", k, dim, 1)))
        assert info.value.offset == 8
