from __future__ import annotations

import io
import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kaes.embeddings import (
    _TOKEN_RE,
    TOKENIZABLE,
    EmbeddingModel,
    load_word2vec_binary,
    tokenize,
)
from kaes.errors import BinaryFormatError
from oracles import load_word2vec_reference
from synthesis import save_word2vec_binary


def vector_of(model: EmbeddingModel, token: str) -> np.ndarray | None:
    """The vector the model holds for ``token``, or None when out of vocabulary."""
    return model.vectors[model.vocab[token]] if token in model.vocab else None


def fixture_bytes(trailing_newline: bool = True) -> bytes:
    vec1 = np.array([1.0, 2.0, 3.0], dtype="<f4").tobytes()
    vec2 = np.array([-1.0, 0.5, 0.25], dtype="<f4").tobytes()
    sep = b"\n" if trailing_newline else b""
    return b"2 3\n" + b"cat " + vec1 + sep + b"dog " + vec2 + sep


class TestLoader:
    def test_fixture(self):
        model = load_word2vec_binary(io.BytesIO(fixture_bytes()))
        assert model.dim == 3
        assert len(model) == 2
        assert list(model.vocab) == ["cat", "dog"]
        np.testing.assert_array_equal(vector_of(model, "cat"), [1.0, 2.0, 3.0])

    def test_without_record_newlines(self):
        model = load_word2vec_binary(io.BytesIO(fixture_bytes(trailing_newline=False)))
        assert len(model) == 2
        np.testing.assert_array_equal(vector_of(model, "dog"), [-1.0, 0.5, 0.25])

    def test_vocab_limit(self):
        model = load_word2vec_binary(io.BytesIO(fixture_bytes()), vocab_limit=1)
        assert list(model.vocab) == ["cat"]
        assert model.vectors.shape == (1, 3)

    def test_truncated_vector_reports_bytes(self):
        data = fixture_bytes()[:-8]  # cut inside dog's vector
        with pytest.raises(BinaryFormatError, match="expected 12 bytes"):
            load_word2vec_binary(io.BytesIO(data))

    @pytest.mark.parametrize("chunk_reads", [False, True])
    def test_token_cut_after_blank_lines_reports_its_first_newline(self, chunk_reads):
        # The record's newlines belong to its token, so the cut shows where they start.
        records = fixture_bytes(trailing_newline=False)[4:]
        data = b"3 3\n" + records + b"\n\nbir"
        stream = _ShortReads(data, seed=3) if chunk_reads else io.BytesIO(data)
        with pytest.raises(BinaryFormatError, match="stream ended while reading token") as info:
            load_word2vec_binary(stream)
        assert info.value.offset == 4 + len(records)

    def test_bad_header(self):
        with pytest.raises(BinaryFormatError, match="header"):
            load_word2vec_binary(io.BytesIO(b"not a header\njunk"))

    def test_truncated_header(self):
        with pytest.raises(BinaryFormatError):
            load_word2vec_binary(io.BytesIO(b"2 3"))

    def test_duplicate_token_keeps_first(self):
        vec = np.array([9.0, 9.0, 9.0], dtype="<f4").tobytes()
        data = b"3 3\n" + fixture_bytes()[4:] + b"cat " + vec + b"\n"
        model = load_word2vec_binary(io.BytesIO(data))
        np.testing.assert_array_equal(vector_of(model, "cat"), [1.0, 2.0, 3.0])

    def test_round_trip_bit_identical(self):
        model = load_word2vec_binary(io.BytesIO(fixture_bytes()))
        buf = io.BytesIO()
        save_word2vec_binary(model, buf)
        again = load_word2vec_binary(io.BytesIO(buf.getvalue()))
        assert list(again.vocab) == list(model.vocab)
        assert np.array_equal(again.vectors, model.vectors)
        assert again.vectors.dtype == np.float32

    def test_vectors_loaded_verbatim(self):
        # Denormal/odd float bits must survive untouched.
        odd = np.array([np.float32(1e-42), np.float32(-0.0), np.float32(3.14)], dtype="<f4")
        data = b"1 3\n" + b"w " + odd.tobytes()
        model = load_word2vec_binary(io.BytesIO(data))
        assert np.array_equal(
            model.vectors[0].view(np.uint32), odd.view(np.uint32)
        )

    @pytest.mark.parametrize("kwargs", [{}, {"vocab_limit": 0}, {"keep": set()}])
    def test_unaddressable_dimension_is_a_header_error(self, kwargs):
        with pytest.raises(BinaryFormatError, match="dimension") as info:
            load_word2vec_binary(io.BytesIO(b"1 99999999999999999999\n"), **kwargs)
        assert info.value.offset == 0


# A small pool, so that random files repeat tokens; "\udc81" is a byte that
# is not UTF-8, kept by surrogateescape.
TOKENS = ["cat", "dog", "é", "x\udc81", "a1", "@caps1"]


def _vectors_file(tokens: list[str], dim: int, newlines: bool, seed: int) -> bytes:
    """A word2vec file with one record per entry of ``tokens``, repeats included."""
    vectors = np.random.default_rng(seed).normal(size=(len(tokens), dim)).astype("<f4")
    parts = [f"{len(tokens)} {dim}\n".encode()]
    for token, vec in zip(tokens, vectors):
        parts.append(token.encode("utf-8", errors="surrogateescape") + b" " + vec.tobytes())
        if newlines:
            parts.append(b"\n")
    return b"".join(parts)


def _outcome(data: bytes, **kwargs):
    try:
        return load_word2vec_binary(io.BytesIO(data), **kwargs)
    except BinaryFormatError as exc:
        return exc


def _load_outcome(load, stream, **kwargs):
    try:
        model = load(stream, **kwargs)
    except BinaryFormatError as exc:
        return exc.offset, str(exc)
    return model.dim, list(model.vocab.items()), model.vectors.dtype, model.vectors.tobytes()


class TestKeep:
    def test_list_keep_loads_as_set_keep(self):
        data = _vectors_file(["cat", "dog", "cat", "é"], 3, True, seed=1)
        want = _load_outcome(load_word2vec_binary, io.BytesIO(data), keep={"cat", "é", "bird"})
        got = _load_outcome(load_word2vec_binary, io.BytesIO(data), keep=["bird", "é", "cat"])
        assert got == want
        assert want[1] == [("cat", 0), ("é", 1)]

    def test_keeps_only_listed_tokens(self):
        model = load_word2vec_binary(io.BytesIO(fixture_bytes()), keep={"dog", "bird"})
        assert list(model.vocab) == ["dog"]
        assert model.vectors.shape == (1, 3)
        np.testing.assert_array_equal(vector_of(model, "dog"), [-1.0, 0.5, 0.25])

    def test_vocab_limit_counts_scanned_records(self):
        model = load_word2vec_binary(io.BytesIO(fixture_bytes()), vocab_limit=1, keep={"dog"})
        assert len(model) == 0
        assert model.vectors.shape == (0, 3)

    @settings(max_examples=200, deadline=None)
    @given(
        tokens=st.lists(st.sampled_from(TOKENS), min_size=1, max_size=12),
        keep=st.sets(st.sampled_from(TOKENS + ["absent"])),
        vocab_limit=st.one_of(st.none(), st.integers(0, 14)),
        dim=st.integers(1, 4),
        newlines=st.booleans(),
        seed=st.integers(0, 2**16),
        cut=st.one_of(st.none(), st.floats(0, 1)),
    )
    @example(tokens=["cat", "dog", "cat"], keep={"cat"}, vocab_limit=None, dim=2,
             newlines=True, seed=0, cut=None)
    def test_filtered_load_equals_full_load(self, tokens, keep, vocab_limit, dim, newlines,
                                            seed, cut):
        data = _vectors_file(tokens, dim, newlines, seed)
        if cut is not None:
            data = data[: int(cut * len(data))]
        full = _outcome(data, vocab_limit=vocab_limit)
        kept = _outcome(data, vocab_limit=vocab_limit, keep=keep)
        if isinstance(full, BinaryFormatError):
            # Truncation shows at the same byte, with the same message.
            assert isinstance(kept, BinaryFormatError)
            assert (kept.offset, str(kept)) == (full.offset, str(full))
            return
        assert len(kept) <= len(keep)
        assert set(kept.vocab) <= keep
        for token in TOKENS + ["absent"]:
            want = vector_of(full, token) if token in keep else None
            got = vector_of(kept, token)
            assert (got is None) == (want is None)
            if want is not None:
                assert got.tobytes() == want.tobytes()


class _ShortReads(io.BytesIO):
    """A stream whose every read returns 1-7 bytes, so that records straddle chunks."""

    def __init__(self, data: bytes, seed: int):
        super().__init__(data)
        self._rng = random.Random(seed)

    def read(self, size=-1):
        n = self._rng.randint(1, 7)
        return super().read(n if size < 0 else min(size, n))


# Token bytes: "\xc3" alone and "\xff" are not UTF-8, "\n" may sit inside a
# token, and short draws repeat tokens and give empty ones.
TOKEN_PARTS = [b"a", b"b", b"\n", b"\xc3\xa9", b"\xc3", b"\xff"]
# Strings no record decodes to: a surrogate that surrogateescape never makes,
# and two escaped bytes that together decode to "\xe9".
NO_TOKEN = ["absent", "\ud800", "\udcc3\udca9"]


@st.composite
def word2vec_files(draw):
    """A word2vec file of random records, and a ``keep`` for it (or None)."""
    dim = draw(st.integers(1, 4))
    records = draw(st.lists(st.tuples(
        st.integers(0, 2),  # newlines before the record: blank lines before the first
        st.lists(st.sampled_from(TOKEN_PARTS), max_size=3).map(b"".join),
        st.binary(min_size=4 * dim, max_size=4 * dim),
        st.booleans(),  # a newline after the vector
    ), max_size=8))
    declared = len(records) + draw(st.integers(-1, 2))
    parts = [f"{declared} {dim}\n".encode()]
    for newlines, token, vector, newline_after in records:
        parts += [b"\n" * newlines, token, b" ", vector, b"\n" * newline_after]
    strings = [token.decode("utf-8", errors="surrogateescape") for _, token, _, _ in records]
    strings = st.sampled_from(strings + NO_TOKEN)
    keep = draw(st.one_of(st.none(), st.sets(strings), st.lists(strings).map(tuple)))
    return b"".join(parts), keep


class TestReferenceLoader:
    @settings(max_examples=120, deadline=None)
    @given(file=word2vec_files(), vocab_limit=st.one_of(st.none(), st.integers(0, 14)),
           seed=st.integers(0, 2**16))
    @example(file=(b"2 1\n\n\n\xc3\xa9 abcd\n\xc3 efgh", {"\udcc3\udca9", "\udcc3"}),
             vocab_limit=None, seed=0)
    def test_every_truncation_loads_as_record_by_record(self, file, vocab_limit, seed):
        content, keep = file
        for end in range(len(content) + 1):
            cut = content[:end]
            want = _load_outcome(load_word2vec_reference, cut, vocab_limit=vocab_limit,
                                 keep=keep)
            for stream in (io.BytesIO(cut), _ShortReads(cut, seed)):
                got = _load_outcome(load_word2vec_binary, stream,
                                    vocab_limit=vocab_limit, keep=keep)
                assert got == want, (end, type(stream).__name__)


# Record tokens for the train-time selection: some that tokenize produces (a
# marker with an Arabic-Indic digit among them) and some it cannot: upper
# case, "_", an inner newline, a lone "@", a marker without a digit, bytes
# that are not UTF-8 and the empty token.
SELECTION_TOKENS = ["cat", "a1", "42", "@caps1", "@caps\u0661", "Cat", "snake_case",
                    "in\nner", "@", "@caps", "x\udc81", "caf\u00e9", ""]


def _records_file(records: list[tuple[int, str]], dim: int, seed: int) -> bytes:
    """A word2vec file with one record per (leading newlines, token)."""
    vectors = np.random.default_rng(seed).normal(size=(len(records), dim)).astype("<f4")
    parts = [f"{len(records)} {dim}\n".encode()]
    for (newlines, token), vec in zip(records, vectors):
        parts += [b"\n" * newlines, token.encode("utf-8", errors="surrogateescape"), b" ",
                  vec.tobytes()]
    return b"".join(parts)


def _tokenizable_reference(data: bytes, vocab_limit):
    """The reference loader's full load, less the tokens _TOKEN_RE does not match whole."""
    try:
        full = load_word2vec_reference(data, vocab_limit=vocab_limit)
    except BinaryFormatError as exc:
        return exc.offset, str(exc)
    tokens = [t for t in full.vocab if _TOKEN_RE.fullmatch(t)]
    vectors = full.vectors[[full.vocab[t] for t in tokens]].reshape(-1, full.dim)
    return full.dim, [(t, i) for i, t in enumerate(tokens)], vectors.dtype, vectors.tobytes()


class TestTokenizable:
    """``keep=TOKENIZABLE``, the selection that ``kaes train`` labels."""

    def test_kept_tokens(self):
        records = [(2, "cat"), (0, "Cat"), (1, "snake_case"), (0, "in\nner"),
                   (0, "@caps\u0661"), (1, "cat"), (0, "@caps1"), (0, "a1")]
        data = _records_file(records, 3, seed=0)
        model = load_word2vec_binary(io.BytesIO(data), keep=TOKENIZABLE)
        assert list(model.vocab) == ["cat", "@caps\u0661", "@caps1", "a1"]
        full = load_word2vec_binary(io.BytesIO(data))
        for token in model.vocab:  # the first of two "cat" records wins
            assert vector_of(model, token).tobytes() == vector_of(full, token).tobytes()
        # tokenize produces each kept token, from any case.
        assert tokenize("CAT @CAPS\u0661 @Caps1 A1") == list(model.vocab)

    def test_vocab_limit_counts_scanned_records(self):
        data = _records_file([(0, "Cat"), (0, "dog"), (0, "cat")], 2, seed=1)
        model = load_word2vec_binary(io.BytesIO(data), vocab_limit=2, keep=TOKENIZABLE)
        assert list(model.vocab) == ["dog"]

    @settings(max_examples=120, deadline=None)
    @given(records=st.lists(st.tuples(st.integers(0, 2), st.sampled_from(SELECTION_TOKENS)),
                            min_size=1, max_size=10),
           vocab_limit=st.one_of(st.none(), st.integers(0, 12)), dim=st.integers(1, 3),
           seed=st.integers(0, 2**16))
    def test_every_truncation_selects_as_the_reference(self, records, vocab_limit, dim, seed):
        data = _records_file(records, dim, seed)
        for end in range(len(data) + 1):
            cut = data[:end]
            want = _tokenizable_reference(cut, vocab_limit)
            for stream in (io.BytesIO(cut), _ShortReads(cut, seed)):
                got = _load_outcome(load_word2vec_binary, stream, vocab_limit=vocab_limit,
                                    keep=TOKENIZABLE)
                assert got == want, (end, type(stream).__name__)
            if isinstance(want[0], int) and isinstance(want[1], str):
                # A cut record fails as a full load fails: same byte, same message.
                assert _load_outcome(load_word2vec_binary, io.BytesIO(cut),
                                     vocab_limit=vocab_limit) == want


class TestTokenize:
    def test_case_folding_and_punctuation(self):
        assert tokenize("The cat, the CAT.") == ["the", "cat", "the", "cat"]

    def test_anonymization_marker(self):
        assert tokenize("@PERSON1 went home") == ["@person1", "went", "home"]

    def test_empty(self):
        assert tokenize("") == []

    def test_numbers_kept(self):
        assert tokenize("in 1984 there were 2 cats") == ["in", "1984", "there", "were", "2", "cats"]

    def test_bare_at_sign_splits(self):
        assert tokenize("email@example.com") == ["email", "example", "com"]

    @given(st.text(max_size=60))
    @settings(max_examples=80)
    def test_idempotent_on_own_output(self, text):
        tokens = tokenize(text)
        assert tokenize(" ".join(tokens)) == tokens


class TestLookup:
    def test_in_vocab_verbatim(self):
        model = load_word2vec_binary(io.BytesIO(fixture_bytes()))
        np.testing.assert_array_equal(vector_of(model, "dog"), [-1.0, 0.5, 0.25])

    def test_oov_is_none(self):
        model = load_word2vec_binary(io.BytesIO(fixture_bytes()))
        assert vector_of(model, "bird") is None

    def test_pipeline_case_consistency(self):
        model = load_word2vec_binary(io.BytesIO(fixture_bytes()))
        (token,) = tokenize("Cat")
        assert vector_of(model, token) is not None
