"""The shared binary reader, the byte layout of the three formats, and fuzzing
of their loaders: a malformed file may only raise BinaryFormatError."""
from __future__ import annotations

import functools
import io
import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from kaes.binio import Reader
from kaes.boswe import Codebook
from kaes.embeddings import EmbeddingModel, load_word2vec_binary
from kaes.errors import BinaryFormatError
from kaes.harness import ScoringModel, load_model, save_model
from kaes.string_kernel import KernelMatrix, load_kernel_matrix, save_kernel_matrix
from kaes.svr import SvrConfig, SvrModel
from synthesis import save_word2vec_binary

KERNEL = KernelMatrix(values=[[1.0, 0.5, -0.25], [0.5, 1.0, 2.0]], row_ids=("a", "bé"),
                      col_ids=("x", "y", "z"))
CODEBOOK = Codebook(k=2, centroids=np.array([[1, 2, 3], [4, -5, 6.5]]), seed=7)
SVR = SvrModel(coefficients=np.array([0.5, -0.25]), bias=0.125, epsilon_star=0.01,
               train_ids=("a", "bé"), config=SvrConfig(c=10.0, nu=0.5), seed=3,
               converged=True, iterations=12)
HISK_MODEL = ScoringModel(SVR, "hisk", 1, 15, 500_000, None)
FUSED_MODEL = ScoringModel(SVR, "fused", 2, 5, None, CODEBOOK)
VECTORS = EmbeddingModel(dim=3, vocab={"cat": 0, "dog": 1},
                         vectors=np.array([[1, 2, 3], [-1, 0.5, 0.25]], dtype=np.float32))


def _ids(*ids: str) -> bytes:
    return b"".join(struct.pack("<I", len(i.encode())) + i.encode() for i in ids)


# The SVR record of a model file: rows, each id and coefficient, bias and
# epsilon, then the config echo.
SVR_RECORD = (struct.pack("<I", 2)
              + _ids("a") + struct.pack("<d", 0.5) + _ids("bé") + struct.pack("<d", -0.25)
              + struct.pack("<dd", 0.125, 0.01)
              + struct.pack("<dddQBQQ", 10.0, 0.5, 1e-3, 10_000_000, 1, 3, 12))

# name: (object, save, load, its bytes spelled out field by field)
FORMATS = {
    "kernel": (KERNEL, save_kernel_matrix, load_kernel_matrix,
               b"KAESKM01" + struct.pack("<IIB", 2, 3, 0)
               + np.array(KERNEL.values, dtype="<f8").tobytes() + _ids("a", "bé", "x", "y", "z")),
    "model": (HISK_MODEL, save_model, load_model,
              b"KAESMD01" + struct.pack("<BIIQ", 0, 1, 15, 500_000) + SVR_RECORD),
    "fused-model": (FUSED_MODEL, save_model, load_model,
                    b"KAESMD01" + struct.pack("<BIIQ", 2, 2, 5, 0) + SVR_RECORD
                    + struct.pack("<IIQ", 2, 3, 7)
                    + np.array([[1, 2, 3], [4, -5, 6.5]], dtype="<f4").tobytes()),
    "word2vec": (VECTORS, save_word2vec_binary, load_word2vec_binary,
                 b"2 3\ncat " + np.array([1, 2, 3], dtype="<f4").tobytes()
                 + b"\ndog " + np.array([-1, 0.5, 0.25], dtype="<f4").tobytes() + b"\n"),
}
# The same file, loaded keeping only "dog": the "cat" record is scanned and skipped.
FORMATS["word2vec-keep"] = (VECTORS, save_word2vec_binary,
                            functools.partial(load_word2vec_binary, keep={"dog"}),
                            FORMATS["word2vec"][3])
# The top bit of the little-endian u32 row count: at byte 8 of a kernel file,
# at byte 25 of a model file (after the magic and its kernel settings).
TOP_BIT_OF_COUNT = {"kernel": 95, "model": 231, "fused-model": 231}


def _flip(data: bytes, bit: int) -> bytes:
    out = bytearray(data)
    out[bit // 8] ^= 1 << (bit % 8)
    return bytes(out)


def _load_both_ways(load, data: bytes, path) -> None:
    """Load ``data`` from memory and from a file; only BinaryFormatError may escape."""
    path.write_bytes(data)
    for source in (io.BytesIO(data), path):
        try:
            load(source)
        except BinaryFormatError as exc:
            assert exc.offset is not None and 0 <= exc.offset <= len(data), exc


class _RecordingStream(io.BytesIO):
    def __init__(self, data: bytes):
        super().__init__(data)
        self.requests: list[int] = []

    def read(self, size=-1):
        self.requests.append(size)
        return super().read(size)


class TestReader:
    def test_reads_across_chunk_boundaries(self):
        data = b"ab\n\n\ncd efgh-skipped-" + _ids("hé") + struct.pack("<Id", 9, 0.5)
        reader = Reader(io.BytesIO(data), chunk=3)
        assert reader.read_until(b"\n", "header") == b"ab"
        reader.skip_newlines()
        assert reader.offset == 5
        assert reader.read_until(b" ", "token") == b"cd"
        assert reader.read(4, "vector") == b"efgh"
        reader.skip(1, "gap")
        reader.skip(8, "gap")
        assert reader.offset == 21
        assert reader.read_id() == "hé"
        assert reader.unpack("<Id", "pair") == (9, 0.5)
        assert reader.offset == len(data)
        reader.skip_newlines()
        with pytest.raises(BinaryFormatError, match="expected 1 bytes, only 0") as info:
            reader.read(1, "tail")
        assert info.value.offset == len(data)
        with pytest.raises(BinaryFormatError, match="expected 2 bytes, only 0") as info:
            reader.skip(2, "tail")
        assert info.value.offset == len(data)

    def test_unterminated_field_reports_its_start(self):
        reader = Reader(io.BytesIO(b"1 2\nword-without-space"), chunk=4)
        reader.read_until(b"\n", "header")
        with pytest.raises(BinaryFormatError, match="token") as info:
            reader.read_until(b" ", "token")
        assert info.value.offset == 4

    @pytest.mark.parametrize("name", sorted(FORMATS))
    def test_huge_declared_size_asks_the_stream_for_one_chunk_at_most(self, name):
        _, _, load, data = FORMATS[name]
        if name.startswith("word2vec"):
            data = data.replace(b"2 3\n", b"2 3000000000\n")
        else:
            data = _flip(data, TOP_BIT_OF_COUNT[name])
        stream = _RecordingStream(data)
        with pytest.raises(BinaryFormatError):
            load(stream)
        assert max(stream.requests) <= 1 << 20


@pytest.mark.parametrize("name", sorted(FORMATS))
class TestFormats:
    def test_save_writes_the_documented_layout(self, name):
        obj, save, _, layout = FORMATS[name]
        buf = io.BytesIO()
        save(obj, buf)
        assert buf.getvalue() == layout

    def test_every_truncation(self, name, tmp_path):
        _, _, load, data = FORMATS[name]
        for n in range(len(data)):
            _load_both_ways(load, data[:n], tmp_path / "cut.bin")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(bits=st.lists(st.one_of(st.integers(0, 8 * 24 - 1), st.integers(0, 1 << 16)),
                         min_size=1, max_size=3))
    @example(bits=[TOP_BIT_OF_COUNT["kernel"]])
    @example(bits=[TOP_BIT_OF_COUNT["model"]])
    def test_bit_flips(self, name, tmp_path, bits):
        _, _, load, data = FORMATS[name]
        for bit in bits:
            data = _flip(data, bit % (8 * len(data)))
        _load_both_ways(load, data, tmp_path / "flipped.bin")


class TestModelFile:
    def test_round_trip(self):
        for model in (HISK_MODEL, FUSED_MODEL):
            buf = io.BytesIO()
            save_model(model, buf)
            loaded = load_model(io.BytesIO(buf.getvalue()))
            assert (loaded.representation, loaded.ngram_min, loaded.ngram_max,
                    loaded.vocab_limit) == (model.representation, model.ngram_min,
                                            model.ngram_max, model.vocab_limit)
            assert np.array_equal(loaded.svr.coefficients, SVR.coefficients)
            assert loaded.svr.train_ids == SVR.train_ids and loaded.svr.config == SVR.config
            if model.codebook is None:
                assert loaded.codebook is None
            else:
                assert loaded.codebook.fingerprint == CODEBOOK.fingerprint

    def test_model_and_codebook_pair_of_earlier_versions_is_rejected(self):
        # The model file that earlier versions wrote beside a `.codebook` file.
        data = b"KAESSV01" + SVR_RECORD
        with pytest.raises(BinaryFormatError, match="bad magic") as info:
            load_model(io.BytesIO(data))
        assert info.value.offset == 0

    @pytest.mark.parametrize("settings, reason", [
        (struct.pack("<BIIQ", 3, 1, 15, 0), "representation 3"),
        (struct.pack("<BIIQ", 0, 0, 15, 0), r"n-gram range \[0, 15\]"),
        (struct.pack("<BIIQ", 2, 4, 3, 0), r"n-gram range \[4, 3\]"),
    ])
    def test_invalid_kernel_settings(self, settings, reason):
        with pytest.raises(BinaryFormatError, match=reason) as info:
            load_model(io.BytesIO(b"KAESMD01" + settings + SVR_RECORD))
        assert info.value.offset == 8

    def test_bytes_after_the_last_record_are_rejected(self):
        layout = FORMATS["fused-model"][3]
        # A fused model relabelled hisk leaves its codebook after the last record.
        for data in (FORMATS["model"][3] + b"\0", layout[:8] + b"\0" + layout[9:]):
            with pytest.raises(BinaryFormatError, match="trailing bytes") as info:
                load_model(io.BytesIO(data))
            assert info.value.offset == 25 + len(SVR_RECORD)
