from __future__ import annotations

import hashlib
import io
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kaes import string_kernel
from kaes.corpus import parse_asap_tsv
from kaes.errors import BinaryFormatError, KernelMismatchError
from kaes.string_kernel import (
    KernelMatrix,
    kernel_matrix,
    load_kernel_matrix,
    normalize_kernel,
    normalize_text,
    save_kernel_matrix,
    self_similarities,
)

from oracles import naive_hisk, naive_ngram_counts
from synthesis import make_corpus_tsv

short_text = st.text(alphabet="abc ", max_size=30)

# "\udc81" is what parse_asap_tsv makes of byte 0x81 ("?" is what a lossy
# encoder would make of it); "İ" lowercases to two code points; the
# whitespace runs collapse to one space.
_PIECES = ["a", "b", "A", "B", "é", "İ", "\udc81", "?", " ", "\t", "\n", "  \t\n "]
mixed_text = st.lists(st.sampled_from(_PIECES), max_size=12).map("".join)
# Adds texts of one repeated character or phrase, whose n-grams form long
# chains that merge into weighted columns.
chain_text = mixed_text | st.builds(str.__mul__, st.sampled_from(["q", "\udc81", " ", "ab "]),
                                    st.integers(0, 8))


@st.composite
def rows_and_cols_with_a_suffix(draw):
    """Row and column texts; the last column is a suffix of some row.

    An n-gram that ends a text and its suffix runs into both end marks at
    the same offset.
    """
    rows = draw(st.lists(chain_text, min_size=1, max_size=4))
    cols = draw(st.lists(chain_text, max_size=3))
    source = draw(st.sampled_from(rows))
    return rows, [*cols, source[draw(st.integers(0, len(source))):]]


def refined_levels(texts, n_rows, square, n_min, n_max):
    """The levels of ``_shared_ngram_counts``, with no shared n-gram leaving them."""
    char_rank, doc_of = string_kernel._char_ranks(texts)
    with mock.patch.object(string_kernel, "_ONCE_GROUP_DOCS", 0):
        return list(string_kernel._shared_ngram_counts(
            char_rank, doc_of, n_rows, square, n_min, n_max, []
        ))


def interned_counts(text: str, n_min: int, n_max: int) -> dict[str, int]:
    """N-gram counts of ``text`` as the kernel's interning step finds them.

    The text is paired with a copy of itself so that every n-gram is shared,
    hence kept; ids rank in code-point order the n-grams of one length and
    those that end in the end mark that follows each text.
    """
    s = normalize_text(text)
    if not s:
        return {}
    marked = [*map(ord, s), 0x110000]  # above every code point, like the end mark
    counts = {}
    for n, (doc, count, pairs, _) in zip(
        range(n_min, n_max + 1), refined_levels([s, s], 1, True, n_min, n_max)
    ):
        gram = np.repeat(np.arange(pairs.size), pairs)
        names = sorted({tuple(marked[i : i + n]) for i in range(len(s) - n + 2)})
        mine = doc == 0
        counts.update(zip(("".join(map(chr, names[g])) for g in gram[mine]),
                          count[mine].tolist()))
    return counts


def kernel_at_budgets(*args, **kwargs) -> KernelMatrix:
    """``kernel_matrix`` with one-column Gram blocks and with the default blocks.

    Returns the default result after checking that both agree bit for bit.
    """
    with mock.patch.object(string_kernel, "_GRAM_BLOCK_CELLS", 1):
        tiny = kernel_matrix(*args, **kwargs)
    k = kernel_matrix(*args, **kwargs)
    assert np.array_equal(tiny.values, k.values)
    return k


class TestExtract:
    def test_abab_counts(self):
        assert naive_ngram_counts("abab", 1, 2) == {"a": 2, "b": 2, "ab": 2, "ba": 1}
        assert interned_counts("abab", 1, 2) == {"a": 2, "b": 2, "ab": 2, "ba": 1}
        assert kernel_matrix(["abab"], n_min=1, n_max=2).values[0, 0] == 7

    def test_empty_text(self):
        assert interned_counts("", 1, 15) == {}
        k = kernel_matrix(["", "abc", " \t\n"], n_min=1, n_max=15)
        assert np.array_equal(k.values, [[0, 0, 0], [0, 6, 0], [0, 0, 0]])
        assert np.array_equal(self_similarities(["", "abc", " \t\n"], 1, 15), [0, 6, 0])

    def test_text_shorter_than_n_max(self):
        assert interned_counts("x", 1, 2) == {"x": 1}
        k = kernel_matrix(["x", "xx"], n_min=1, n_max=2)
        assert np.array_equal(k.values, [[1, 1], [1, 3]])

    def test_lowercase_and_whitespace_collapse(self):
        assert interned_counts("The  CAT\n sat", 1, 3) == interned_counts("the cat sat", 1, 3)
        # K(a, b) equals both self-similarities only if the counts are equal.
        k = kernel_matrix(["The  CAT\n sat", "the cat sat"], n_min=1, n_max=3)
        assert np.all(k.values == k.values[0, 0])

    def test_invalid_range(self):
        for n_min, n_max in ((2, 1), (0, 3)):
            with pytest.raises(KernelMismatchError, match="invalid n-gram range"):
                kernel_matrix(["abc"], n_min=n_min, n_max=n_max)

    @given(mixed_text, st.integers(1, 3), st.integers(0, 3))
    @settings(max_examples=60)
    def test_matches_naive_enumeration(self, text, n_min, extra):
        n_max = n_min + extra
        counts = interned_counts(text, n_min, n_max)
        assert counts == naive_ngram_counts(text, n_min, n_max)
        diag = kernel_matrix([text], n_min=n_min, n_max=n_max).values[0, 0]
        assert diag == sum(counts.values())

    @given(mixed_text, st.integers(1, 4))
    @settings(max_examples=40)
    def test_total_formula(self, text, n_max):
        s = normalize_text(text)
        k = kernel_matrix([text, text], n_min=1, n_max=n_max)
        expected = sum(len(s) - n + 1 for n in range(1, n_max + 1) if len(s) >= n)
        assert np.all(k.values == expected)
        assert np.all(self_similarities([text], 1, n_max) == expected)


class TestHiskPair:
    def test_abab_vs_ba(self):
        assert kernel_matrix(["abab"], ["ba"], n_min=1, n_max=2).values[0, 0] == 3

    def test_self_similarity_is_total(self):
        k = kernel_matrix(["hello world", "hello world"], n_min=1, n_max=5)
        assert np.all(k.values == 11 + 10 + 9 + 8 + 7)

    def test_empty_profile(self):
        assert kernel_matrix(["anything"], [""], n_min=1, n_max=3).values[0, 0] == 0

    @given(short_text, short_text)
    @settings(max_examples=60)
    def test_symmetry_and_bound(self, x, y):
        k = kernel_matrix([x, y], n_min=1, n_max=3)
        assert k.values[0, 1] == k.values[1, 0]
        assert k.values[0, 1] <= min(k.values[0, 0], k.values[1, 1])
        assert kernel_matrix([y], [x], n_min=1, n_max=3).values[0, 0] == k.values[0, 1]

    @given(short_text, short_text)
    @settings(max_examples=40)
    def test_oracle_equivalence(self, x, y):
        assert kernel_matrix([x], [y], n_min=1, n_max=4).values[0, 0] == naive_hisk(x, y, 1, 4)

    @given(short_text, short_text)
    @settings(max_examples=30)
    def test_blend_additivity(self, x, y):
        blended = kernel_matrix([x, y], n_min=1, n_max=5).values
        per_length = sum(kernel_matrix([x, y], n_min=n, n_max=n).values for n in range(1, 6))
        assert np.array_equal(blended, per_length)


class TestOracle:
    @given(st.lists(mixed_text, min_size=1, max_size=6), st.integers(1, 3), st.integers(0, 4))
    @settings(max_examples=60, deadline=None)
    def test_square_equals_naive_hisk(self, texts, n_min, extra):
        n_max = n_min + extra
        k = kernel_at_budgets(texts, n_min=n_min, n_max=n_max)
        expected = [[naive_hisk(x, y, n_min, n_max) for y in texts] for x in texts]
        assert np.array_equal(k.values, expected)
        assert np.array_equal(self_similarities(texts, n_min, n_max), np.diagonal(expected))

    @given(
        st.lists(mixed_text, min_size=1, max_size=4),
        st.lists(mixed_text, min_size=1, max_size=4),
        st.integers(1, 3), st.integers(0, 4),
    )
    @settings(max_examples=60, deadline=None)
    def test_rectangular_equals_naive_hisk_and_square_slice(self, rows, cols, n_min, extra):
        n_max = n_min + extra
        k = kernel_at_budgets(rows, cols, n_min=n_min, n_max=n_max)
        expected = [[naive_hisk(x, y, n_min, n_max) for y in cols] for x in rows]
        assert np.array_equal(k.values, expected)
        union = kernel_matrix(rows + cols, n_min=n_min, n_max=n_max)
        assert np.array_equal(k.values, union.values[: len(rows), len(rows):])
        assert np.array_equal(self_similarities(rows + cols, n_min, n_max),
                              np.diagonal(union.values))

    def test_cols_given_as_the_rows_list_give_the_square_values(self):
        # A rectangle, whatever its lists; only cols=None makes a square.
        texts = ["ab c", "b ca"]
        k = kernel_matrix(texts, texts, n_min=1, n_max=3)
        assert (k.row_ids, k.col_ids) == (("doc0", "doc1"), ("col0", "col1"))
        assert np.array_equal(k.values, kernel_matrix(texts, n_min=1, n_max=3).values)


class TestMergedColumns:
    @given(
        st.lists(chain_text, min_size=1, max_size=5),
        st.lists(chain_text, min_size=1, max_size=4),
        st.integers(1, 3), st.integers(0, 5), st.sampled_from([1, 2, 3, 1 << 24]),
    )
    @example(["qqqq", "qq", "q"], ["qqq"], 1, 3, 2)
    @example(["ab ab ab ", "ab ab "], ["ab "], 1, 5, 1 << 24)
    @example(["  ", "\udc81\udc81 a", "a \udc81"], [""], 1, 1, 1 << 24)
    @settings(max_examples=80, deadline=None)
    def test_any_weight_cap_equals_naive_hisk(self, rows, cols, n_min, extra, cap):
        # The cap bounds both the chain weights and the block widths.
        n_max = n_min + extra
        with mock.patch.object(string_kernel, "_EXACT_F32", cap):
            square = kernel_at_budgets(rows, n_min=n_min, n_max=n_max)
            rect = kernel_at_budgets(rows, cols, n_min=n_min, n_max=n_max)
        assert np.array_equal(square.values,
                              [[naive_hisk(x, y, n_min, n_max) for y in rows] for x in rows])
        assert np.array_equal(rect.values,
                              [[naive_hisk(x, y, n_min, n_max) for y in cols] for x in rows])

    def test_a_chain_of_ngrams_is_one_column_weighted_by_its_length(self):
        # "a" -> "ab" -> "abc" -> "abcd" occur exactly as often as each other,
        # and so do "b" -> "bc" -> "bcd" and "c" -> "cd"; "d" stands alone.
        levels = refined_levels(["abcd", "abcd"], 2, True, 1, 4)
        weights = [w.tolist() for *_, w in string_kernel._merged_columns(levels)]
        assert weights == [[1], [2], [3], [4]]
        assert kernel_matrix(["abcd", "abcd"], n_min=1, n_max=4).values[0, 1] == 10

    def test_weights_stop_growing_at_the_cap(self):
        with mock.patch.object(string_kernel, "_EXACT_F32", 2):
            levels = refined_levels(["abcd", "abcd"], 2, True, 1, 4)
            weights = [w.tolist() for *_, w in string_kernel._merged_columns(levels)]
            assert weights == [[1], [2, 2, 2], [1], [2]]
            assert kernel_matrix(["abcd", "abcd"], n_min=1, n_max=4).values[0, 1] == 10

    def test_large_alphabet_is_ranked_densely_past_the_packing_bound(self):
        # 8 texts of 300 characters take 12 position bits.  At the default
        # budget every level packs its keys as they are; with 16 bits left for
        # keys, the levels whose keys pass 2**16 are ranked densely first; with
        # none left, every level is.
        rng = np.random.default_rng(3)
        alphabet = [chr(0x100 + i) for i in range(1000)]
        texts = ["".join(rng.choice(alphabet, 300)) for _ in range(8)]
        expected = np.array([[naive_hisk(x, y, 1, 4) for y in texts] for x in texts])
        ranked = []
        for pack_bits in (string_kernel._PACK_BITS, 28, 0):
            with mock.patch.object(string_kernel, "_PACK_BITS", pack_bits), \
                    mock.patch.object(np, "unique", wraps=np.unique) as unique:
                square = kernel_at_budgets(texts, n_min=1, n_max=4)
                rect = kernel_at_budgets(texts[:3], texts[3:], n_min=1, n_max=4)
            ranked.append(unique.call_count)
            assert np.array_equal(square.values, expected)
            assert np.array_equal(rect.values, expected[:3, 3:])
        assert 0 == ranked[0] < ranked[1] < ranked[2]


class TestOncePerDocument:
    @given(rows_and_cols_with_a_suffix(), st.integers(1, 4), st.integers(0, 5),
           st.sampled_from(["never", "pairs", "all"]))
    @example((["hello world"], ["world"]), 1, 6, "all")
    @example((["ab ab ab ", "xab "], ["qqq", "ab "]), 2, 5, "pairs")
    @example((["\udc81a\udc81b", "b\udc81"], ["a\udc81b"]), 1, 3, "all")
    @settings(max_examples=100, deadline=None)
    def test_any_size_limit_equals_naive_hisk(self, texts, n_min, extra, limit):
        rows, cols = texts
        n_max = n_min + extra
        docs = [*rows, *cols]
        size_limit = {"never": 0, "pairs": 2, "all": len(docs) + 1}[limit]
        with mock.patch.object(string_kernel, "_ONCE_GROUP_DOCS", size_limit):
            square = kernel_at_budgets(docs, n_min=n_min, n_max=n_max)
            rect = kernel_at_budgets(rows, cols, n_min=n_min, n_max=n_max)
        assert np.array_equal(square.values,
                              [[naive_hisk(x, y, n_min, n_max) for y in docs] for x in docs])
        assert np.array_equal(rect.values,
                              [[naive_hisk(x, y, n_min, n_max) for y in cols] for x in rows])

    def test_once_per_document_ngrams_skip_the_product(self):
        # Every n-gram here occurs in at most 4 documents, below the limit, so
        # only those that some document holds twice reach the 0/1 columns.
        texts = ["the cat sat", "a cat sat on a mat", "the dog sat", "cats"]
        char_rank, doc_of = string_kernel._char_ranks(texts)
        leaving = []
        levels = string_kernel._shared_ngram_counts(char_rank, doc_of, 4, True, 1, 15, leaving)
        columns = list(string_kernel._merged_columns(levels))
        for doc, count, pairs, _ in columns:
            assert np.all(np.maximum.reduceat(count, np.cumsum(pairs) - pairs) > 1)
        assert columns and leaving

    def test_leaving_pairs_are_start_positions(self):
        # "a" and "b" occur once in each text and leave at length 1; each
        # text is followed by an end mark, so "yab" starts at position 4.
        char_rank, doc_of = string_kernel._char_ranks(["xab", "yab", "ab"])
        leaving = []
        levels = string_kernel._shared_ngram_counts(char_rank, doc_of, 3, True, 1, 3, leaving)
        assert list(string_kernel._merged_columns(levels)) == []
        [(n, p, q)] = leaving
        assert n == 1
        pairs = sorted(zip(p.tolist(), q.tolist()))
        assert pairs == [(1, 5), (1, 8), (2, 6), (2, 9), (5, 8), (6, 9)]
        assert np.array_equal(kernel_matrix(["xab", "yab", "ab"], n_min=1, n_max=3).values,
                              [[6, 3, 3], [3, 6, 3], [3, 3, 3]])

    def test_golden_digests(self):
        # sha256 of the values and of the cache-file bytes, recorded before
        # once-per-document n-grams left the refinement.
        essays = parse_asap_tsv(make_corpus_tsv(30, seed=12, prompts=(1, 2)))
        texts, ids = [e.text for e in essays], tuple(e.id for e in essays)
        square = kernel_matrix(texts, row_ids=ids)
        rect = kernel_matrix(texts[:40], texts[40:], row_ids=ids[:40], col_ids=ids[40:])
        digests = []
        for k in (square, rect):
            buf = io.BytesIO()
            save_kernel_matrix(k, buf)
            digests += [hashlib.sha256(np.ascontiguousarray(k.values, "<f8")).hexdigest(),
                        hashlib.sha256(buf.getvalue()).hexdigest()]
        assert digests == [
            "19794f410cddf486e90ce92130edc4adc1b5c49ffa91f1a7979adef18808df74",
            "75c631ef8a29aa67b2fe5ccf36f501bc65d5238d307a4191797b687923b96594",
            "a1202291f8056892b7d1197662e9becb80c86051ffdb124a2f321656740b79ed",
            "02156edd82e6b072aaa1deea0a897069f86efee80e701e97f21876736db61086",
        ]


class TestKernelMatrix:
    @pytest.mark.parametrize("n_min", [1, 3, 12])
    def test_huge_ngram_max_equals_the_longest_text(self, n_min):
        # No n-gram is longer than the longest text, so a larger n_max adds
        # nothing; the self-similarities cost O(documents) whatever it is.
        rows, cols = ["the cat sat", "a dog"], ["cat", "dogs and cats"]
        longest = max(len(normalize_text(t)) for t in rows + cols)
        for args in ([rows], [rows, cols]):
            huge = kernel_matrix(*args, n_min=n_min, n_max=10**12)
            exact = kernel_matrix(*args, n_min=n_min, n_max=longest)
            assert np.array_equal(huge.values, exact.values)
        assert np.array_equal(self_similarities(rows + cols, n_min, 10**12),
                              self_similarities(rows + cols, n_min, longest))
        assert np.array_equal(self_similarities(rows + cols, n_min, 10**12),
                              [sum(naive_ngram_counts(t, n_min, longest).values())
                               for t in rows + cols])

    def test_identical_documents(self):
        k = kernel_matrix(["same text"] * 3, n_min=1, n_max=3)
        assert np.all(k.values == 9 + 8 + 7)

    def test_disjoint_alphabets(self):
        k = kernel_matrix(["aaa", "bbb"], n_min=1, n_max=2)
        assert k.values[0, 1] == 0.0
        assert k.values[1, 0] == 0.0

    def test_exact_symmetry(self):
        rng = np.random.default_rng(0)
        texts = ["".join(rng.choice(list("abcd "), size=30)) for _ in range(8)]
        k = kernel_matrix(texts, n_min=1, n_max=4)
        assert np.array_equal(k.values, k.values.T)

    def test_psd(self):
        rng = np.random.default_rng(1)
        texts = ["".join(rng.choice(list("abcd "), size=40)) for _ in range(8)]
        k = kernel_matrix(texts, n_min=1, n_max=5)
        eigenvalues = np.linalg.eigvalsh(k.values)
        assert eigenvalues.min() >= -1e-8 * np.trace(k.values)

    def test_entries_bounded_by_self_similarities(self):
        rng = np.random.default_rng(6)
        texts = ["".join(rng.choice(list("abc "), size=25)) for _ in range(6)]
        k = kernel_matrix(texts, n_min=1, n_max=4)
        cap = np.minimum.outer(np.diagonal(k.values), np.diagonal(k.values))
        assert np.all(k.values <= cap)

    def test_rectangular_matches_pairs(self):
        rows, cols = ("abc", "bcd"), ("cde", "abc", "xyz")
        k = kernel_matrix(rows, cols, n_min=1, n_max=3)
        for i in range(2):
            for j in range(3):
                assert k.values[i, j] == naive_hisk(rows[i], cols[j], 1, 3)

    @pytest.mark.parametrize("rows, cols", [([], None), ([], []), (["ab"], []), ([], ["ab"])],
                             ids=["0x0-square", "0x0", "1x0", "0x1"])
    def test_empty_side_gives_a_zero_block(self, rows, cols):
        k = kernel_matrix(rows, cols, n_min=1, n_max=3)
        shape = (len(rows), len(rows if cols is None else cols))
        assert k.values.shape == shape and not k.values.any()
        normalized = normalize_kernel(k, self_similarities(rows, 1, 3),
                                      self_similarities(rows if cols is None else cols, 1, 3))
        assert normalized.shape == shape

    def test_id_count_mismatch(self):
        with pytest.raises(KernelMismatchError, match="id list"):
            kernel_matrix(["a", "b"], row_ids=("x",))

    def test_take_slices_by_id(self):
        k = kernel_matrix(["aa", "ab", "bb"], row_ids=("x", "y", "z"), n_min=1, n_max=2)
        sub = k.take(("z", "x"), ("y",))
        assert sub.values[0, 0] == k.values[2, 1]
        assert sub.values[1, 0] == k.values[0, 1]

    def test_take_unknown_id(self):
        k = kernel_matrix(["ab"], row_ids=("x",), n_min=1, n_max=2)
        with pytest.raises(KernelMismatchError, match="nope"):
            k.take(("nope",), ("x",))


def normalized(texts, n_min, n_max, **ids) -> KernelMatrix:
    """The normalized square n-gram Gram of ``texts``."""
    own = self_similarities(texts, n_min, n_max)
    return normalize_kernel(kernel_matrix(texts, n_min=n_min, n_max=n_max, **ids), own, own)


class TestNormalize:
    def test_unit_diagonal(self):
        k = normalized(["alpha beta", "gamma delta", "alpha delta"], 1, 4)
        assert np.allclose(np.diagonal(k.values), 1.0)

    def test_disjoint_pair_zero(self):
        assert normalized(["aaa", "bbb"], 1, 2).values[0, 1] == 0.0

    def test_identical_pair_one(self):
        assert normalized(["abc", "abc"], 1, 2).values[0, 1] == pytest.approx(1.0)

    def test_empty_document_error_names_id(self):
        with pytest.raises(KernelMismatchError, match="empty"):
            normalized(["ok", ""], 1, 2, row_ids=("good", "empty"))

    def test_self_similarities_must_match_the_shape(self):
        rows, cols = ["ab", "bc"], ["abc"]
        k = kernel_matrix(rows, cols, n_min=1, n_max=2)
        for row_self, col_self in ((rows, rows), (cols, cols), (rows, rows + cols)):
            with pytest.raises(KernelMismatchError, match="do not match kernel shape"):
                normalize_kernel(k, self_similarities(row_self, 1, 2),
                                 self_similarities(col_self, 1, 2))


class TestKernelIO:
    def _random_kernel(self, rows=3, cols=4):
        rng = np.random.default_rng(5)
        return KernelMatrix(
            values=rng.normal(size=(rows, cols)),
            row_ids=tuple(f"r{i}" for i in range(rows)),
            col_ids=tuple(f"c{j}" for j in range(cols)),
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

    @pytest.mark.parametrize("tag", [1, 4])
    def test_kind_byte_other_than_zero_rejected(self, tag):
        buf = io.BytesIO()
        save_kernel_matrix(self._random_kernel(), buf)
        data = buf.getvalue()
        assert data[16] == 0
        with pytest.raises(BinaryFormatError, match=f"unknown kind tag {tag}") as info:
            load_kernel_matrix(io.BytesIO(data[:16] + bytes([tag]) + data[17:]))
        assert info.value.offset == 16

    def test_square_recovers_diagonal(self, tmp_path):
        k = kernel_matrix(["ab", "cd"], n_min=1, n_max=2)
        path = tmp_path / "sq.km"
        save_kernel_matrix(k, path)
        loaded = load_kernel_matrix(path)
        assert np.array_equal(np.diagonal(loaded.values), self_similarities(["ab", "cd"], 1, 2))

    @pytest.mark.parametrize("n_min, n_max", [(1, 15), (2, 3), (5, 10**12)])
    def test_loaded_rectangle_normalizes_as_computed(self, tmp_path, n_min, n_max):
        essays = parse_asap_tsv(make_corpus_tsv(30, seed=12, prompts=(1, 2)))
        rows, cols = [e.text for e in essays[:40]], [e.text for e in essays[40:]]
        row_self, col_self = (self_similarities(rows, n_min, n_max),
                              self_similarities(cols, n_min, n_max))
        raw = kernel_matrix(rows, cols, n_min=n_min, n_max=n_max)
        path = tmp_path / "rect.km"
        save_kernel_matrix(raw, path)
        loaded = normalize_kernel(load_kernel_matrix(path), row_self, col_self)
        computed = normalize_kernel(raw, row_self, col_self)
        assert loaded.values.tobytes() == computed.values.tobytes()
        # The rows x cols corner of the normalized square over both lists.
        union = normalized(rows + cols, n_min, n_max).values[:40, 40:]
        assert loaded.values.tobytes() == np.ascontiguousarray(union).tobytes()

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
