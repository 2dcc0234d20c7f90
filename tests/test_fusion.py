from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kaes.errors import KernelMismatchError
from kaes.fusion import sum_kernels
from kaes.string_kernel import KernelMatrix

from oracles import FeatureMatrix, concat_features, linear_gram


def km(values, ids=None):
    values = np.asarray(values, dtype=float)
    ids = ids or tuple(f"d{i}" for i in range(values.shape[0]))
    return KernelMatrix(values=values, row_ids=tuple(ids), col_ids=tuple(ids))


def random_psd(rng, n):
    x = rng.normal(size=(n, n))
    return x @ x.T


class TestSumKernels:
    def test_additive_identity(self):
        rng = np.random.default_rng(0)
        k1 = km(random_psd(rng, 4))
        k2 = km(np.zeros((4, 4)))
        fused = sum_kernels(k1, k2)
        assert np.array_equal(fused.values, k1.values)

    def test_sum_of_psd_is_psd(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            a, b = random_psd(rng, 6), random_psd(rng, 6)
            fused = sum_kernels(km(a), km(b))
            assert np.linalg.eigvalsh(fused.values).min() >= -1e-8 * np.trace(fused.values)

    def test_commutative_and_associative(self):
        rng = np.random.default_rng(2)
        a, b, c = (km(random_psd(rng, 5)) for _ in range(3))
        assert np.array_equal(sum_kernels(a, b).values, sum_kernels(b, a).values)
        left = sum_kernels(sum_kernels(a, b), c).values
        right = sum_kernels(a, sum_kernels(b, c)).values
        assert np.allclose(left, right, atol=1e-12)

    def test_id_mismatch_names_first_divergence(self):
        a = km(np.zeros((2, 2)), ids=("x", "y"))
        b = km(np.zeros((2, 2)), ids=("x", "z"))
        with pytest.raises(KernelMismatchError, match="'y' vs 'z'"):
            sum_kernels(a, b)

    def test_shape_mismatch(self):
        # A block's shape is its id counts, so the id checks see it.
        with pytest.raises(KernelMismatchError, match="row ids diverge at <missing> vs 'd2'"):
            sum_kernels(km(np.zeros((2, 2))), km(np.zeros((3, 3))))


class TestLinearGram:
    def test_one_hot_rows_give_identity(self):
        x = FeatureMatrix(ids=("a", "b", "c"), values=np.eye(3))
        assert np.array_equal(linear_gram(x).values, np.eye(3))

    def test_single_row_norm(self):
        x = FeatureMatrix(ids=("a",), values=np.array([[3.0, 4.0]]))
        assert linear_gram(x).values[0, 0] == pytest.approx(25.0)

    def test_dimension_mismatch(self):
        x = FeatureMatrix(ids=("a",), values=np.ones((1, 3)))
        y = FeatureMatrix(ids=("b",), values=np.ones((1, 4)))
        with pytest.raises(KernelMismatchError):
            linear_gram(x, y)

    def test_concat_requires_same_ids(self):
        x = FeatureMatrix(ids=("a",), values=np.ones((1, 2)))
        y = FeatureMatrix(ids=("b",), values=np.ones((1, 2)))
        with pytest.raises(KernelMismatchError):
            concat_features(x, y)


class TestConcatenationEquivalence:
    @given(
        st.integers(1, 20), st.integers(1, 20), st.integers(1, 20),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_sum_equals_concatenated_gram(self, r, m1, m2, seed):
        rng = np.random.default_rng(seed)
        ids = tuple(f"d{i}" for i in range(r))
        x1 = FeatureMatrix(ids=ids, values=rng.normal(size=(r, m1)))
        x2 = FeatureMatrix(ids=ids, values=rng.normal(size=(r, m2)))
        summed = sum_kernels(linear_gram(x1), linear_gram(x2))
        concatenated = linear_gram(concat_features(x1, x2))
        assert np.abs(summed.values - concatenated.values).max() <= 1e-10
