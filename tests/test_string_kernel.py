from __future__ import annotations

import io

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kaes.errors import BinaryFormatError, KernelMismatchError
from kaes.string_kernel import (
    KernelMatrix,
    extract_ngram_counts,
    hisk_pair,
    kernel_matrix,
    load_kernel_matrix,
    normalize_kernel,
    normalize_text,
    save_kernel_matrix,
)

from oracles import naive_hisk, naive_ngram_counts

short_text = st.text(alphabet="abc ", max_size=30)


class TestExtract:
    def test_abab_counts(self):
        profile = extract_ngram_counts("abab", 1, 2)
        assert profile.counts == {"a": 2, "b": 2, "ab": 2, "ba": 1}
        assert profile.total == 7

    def test_empty_text(self):
        profile = extract_ngram_counts("", 1, 15)
        assert profile.counts == {}
        assert profile.total == 0

    def test_text_shorter_than_n_max(self):
        profile = extract_ngram_counts("x", 1, 2)
        assert profile.counts == {"x": 1}
        assert profile.total == 1

    def test_lowercase_and_whitespace_collapse(self):
        a = extract_ngram_counts("The  CAT\n sat", 1, 3)
        b = extract_ngram_counts("the cat sat", 1, 3)
        assert a.counts == b.counts

    def test_invalid_range(self):
        with pytest.raises(KernelMismatchError):
            extract_ngram_counts("abc", 2, 1)

    @given(short_text, st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=60)
    def test_matches_naive_enumeration(self, text, n_min, extra):
        n_max = n_min + extra
        profile = extract_ngram_counts(text, n_min, n_max)
        assert profile.counts == naive_ngram_counts(text, n_min, n_max)
        assert profile.total == sum(profile.counts.values())

    @given(short_text, st.integers(1, 4))
    @settings(max_examples=40)
    def test_total_formula(self, text, n_max):
        s = normalize_text(text)
        profile = extract_ngram_counts(text, 1, n_max)
        expected = sum(len(s) - n + 1 for n in range(1, n_max + 1) if len(s) >= n)
        assert profile.total == expected


class TestHiskPair:
    def test_abab_vs_ba(self):
        p = extract_ngram_counts("abab", 1, 2)
        q = extract_ngram_counts("ba", 1, 2)
        assert hisk_pair(p, q) == 3

    def test_self_similarity_is_total(self):
        p = extract_ngram_counts("hello world", 1, 5)
        assert hisk_pair(p, p) == p.total

    def test_empty_profile(self):
        p = extract_ngram_counts("anything", 1, 3)
        empty = extract_ngram_counts("", 1, 3)
        assert hisk_pair(p, empty) == 0

    def test_range_mismatch(self):
        with pytest.raises(KernelMismatchError):
            hisk_pair(extract_ngram_counts("ab", 1, 2), extract_ngram_counts("ab", 1, 3))

    @given(short_text, short_text)
    @settings(max_examples=60)
    def test_symmetry_and_bound(self, x, y):
        p = extract_ngram_counts(x, 1, 3)
        q = extract_ngram_counts(y, 1, 3)
        v = hisk_pair(p, q)
        assert v == hisk_pair(q, p)
        assert v <= min(hisk_pair(p, p), hisk_pair(q, q))

    @given(short_text, short_text)
    @settings(max_examples=40)
    def test_oracle_equivalence(self, x, y):
        p = extract_ngram_counts(x, 1, 4)
        q = extract_ngram_counts(y, 1, 4)
        assert hisk_pair(p, q) == naive_hisk(x, y, 1, 4)

    @given(short_text, short_text)
    @settings(max_examples=30)
    def test_blend_additivity(self, x, y):
        blended = hisk_pair(extract_ngram_counts(x, 1, 5), extract_ngram_counts(y, 1, 5))
        per_length = sum(
            hisk_pair(extract_ngram_counts(x, n, n), extract_ngram_counts(y, n, n))
            for n in range(1, 6)
        )
        assert blended == per_length


class TestKernelMatrix:
    def test_identical_documents(self):
        profiles = [extract_ngram_counts("same text", 1, 3) for _ in range(3)]
        k = kernel_matrix(profiles)
        assert np.all(k.values == profiles[0].total)

    def test_disjoint_alphabets(self):
        k = kernel_matrix([extract_ngram_counts("aaa", 1, 2), extract_ngram_counts("bbb", 1, 2)])
        assert k.values[0, 1] == 0.0
        assert k.values[1, 0] == 0.0

    def test_exact_symmetry(self):
        rng = np.random.default_rng(0)
        texts = ["".join(rng.choice(list("abcd "), size=30)) for _ in range(8)]
        k = kernel_matrix([extract_ngram_counts(t, 1, 4) for t in texts])
        assert np.array_equal(k.values, k.values.T)

    def test_psd(self):
        rng = np.random.default_rng(1)
        texts = ["".join(rng.choice(list("abcd "), size=40)) for _ in range(8)]
        k = kernel_matrix([extract_ngram_counts(t, 1, 5) for t in texts])
        eigenvalues = np.linalg.eigvalsh(k.values)
        assert eigenvalues.min() >= -1e-8 * np.trace(k.values)

    def test_entries_bounded_by_self_similarities(self):
        rng = np.random.default_rng(6)
        texts = ["".join(rng.choice(list("abc "), size=25)) for _ in range(6)]
        k = kernel_matrix([extract_ngram_counts(t, 1, 4) for t in texts])
        cap = np.minimum.outer(k.diag_rows, k.diag_cols)
        assert np.all(k.values <= cap)

    def test_rectangular_matches_pairs(self):
        rows = [extract_ngram_counts(t, 1, 3) for t in ("abc", "bcd")]
        cols = [extract_ngram_counts(t, 1, 3) for t in ("cde", "abc", "xyz")]
        k = kernel_matrix(rows, cols)
        for i in range(2):
            for j in range(3):
                assert k.values[i, j] == hisk_pair(rows[i], cols[j])

    def test_empty_list_error(self):
        with pytest.raises(KernelMismatchError):
            kernel_matrix([])

    def test_take_slices_by_id(self):
        profiles = [extract_ngram_counts(t, 1, 2) for t in ("aa", "ab", "bb")]
        k = kernel_matrix(profiles, row_ids=("x", "y", "z"))
        sub = k.take(("z", "x"), ("y",))
        assert sub.values[0, 0] == k.values[2, 1]
        assert sub.values[1, 0] == k.values[0, 1]
        assert sub.diag_rows[0] == profiles[2].total

    def test_take_unknown_id(self):
        k = kernel_matrix([extract_ngram_counts("ab", 1, 2)], row_ids=("x",))
        with pytest.raises(KernelMismatchError, match="nope"):
            k.take(("nope",), ("x",))


class TestNormalize:
    def test_unit_diagonal(self):
        texts = ["alpha beta", "gamma delta", "alpha delta"]
        k = normalize_kernel(kernel_matrix([extract_ngram_counts(t, 1, 4) for t in texts]))
        assert np.allclose(np.diagonal(k.values), 1.0)
        assert k.kind == "hisk-normalized"

    def test_disjoint_pair_zero(self):
        k = normalize_kernel(
            kernel_matrix([extract_ngram_counts("aaa", 1, 2), extract_ngram_counts("bbb", 1, 2)])
        )
        assert k.values[0, 1] == 0.0

    def test_identical_pair_one(self):
        k = normalize_kernel(
            kernel_matrix([extract_ngram_counts("abc", 1, 2), extract_ngram_counts("abc", 1, 2)])
        )
        assert k.values[0, 1] == pytest.approx(1.0)

    def test_empty_document_error_names_id(self):
        k = kernel_matrix(
            [extract_ngram_counts("ok", 1, 2), extract_ngram_counts("", 1, 2)],
            row_ids=("good", "empty"),
        )
        with pytest.raises(KernelMismatchError, match="empty"):
            normalize_kernel(k)

    def test_wrong_kind_rejected(self):
        k = kernel_matrix([extract_ngram_counts("ab", 1, 2)])
        normalized = normalize_kernel(k)
        with pytest.raises(KernelMismatchError):
            normalize_kernel(normalized)


class TestKernelIO:
    def _random_kernel(self, rows=3, cols=4):
        rng = np.random.default_rng(5)
        return KernelMatrix(
            values=rng.normal(size=(rows, cols)),
            row_ids=tuple(f"r{i}" for i in range(rows)),
            col_ids=tuple(f"c{j}" for j in range(cols)),
            kind="fused",
        )

    def test_round_trip_bit_exact(self, tmp_path):
        original = self._random_kernel()
        path = tmp_path / "k.km"
        save_kernel_matrix(original, path)
        loaded = load_kernel_matrix(path)
        assert np.array_equal(loaded.values, original.values)
        assert loaded.values.dtype == np.float64
        assert loaded.row_ids == original.row_ids
        assert loaded.col_ids == original.col_ids
        assert loaded.kind == original.kind

    def test_square_recovers_diagonal(self, tmp_path):
        k = kernel_matrix([extract_ngram_counts(t, 1, 2) for t in ("ab", "cd")])
        path = tmp_path / "sq.km"
        save_kernel_matrix(k, path)
        loaded = load_kernel_matrix(path)
        assert np.array_equal(loaded.diag_rows, np.diagonal(k.values))
        normalize_kernel(loaded)  # diagonals present, so this works

    def test_bad_magic(self):
        with pytest.raises(BinaryFormatError, match="magic"):
            load_kernel_matrix(io.BytesIO(b"NOTMAGIC" + b"\x00" * 16))

    def test_truncated(self, tmp_path):
        original = self._random_kernel()
        buf = io.BytesIO()
        save_kernel_matrix(original, buf)
        with pytest.raises(BinaryFormatError, match="truncated"):
            load_kernel_matrix(io.BytesIO(buf.getvalue()[:20]))

    def test_id_bytes_not_utf8(self):
        buf = io.BytesIO()
        save_kernel_matrix(self._random_kernel(), buf)
        damaged = buf.getvalue()[:-1] + b"\xff"
        with pytest.raises(BinaryFormatError, match="UTF-8"):
            load_kernel_matrix(io.BytesIO(damaged))
