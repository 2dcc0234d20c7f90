"""The shared binary reader, the byte layout of the three formats, and fuzzing
of their loaders: a malformed file may only raise BinaryFormatError."""
from __future__ import annotations

import errno
import functools
import io
import math
import os
import struct
import threading

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import kaes.harness
from kaes.binio import Reader, write_id
from kaes.boswe import Codebook
from kaes.embeddings import EmbeddingModel, load_word2vec_binary
from kaes.errors import BinaryFormatError, KernelMismatchError
from kaes.harness import MODEL_MAGIC, ScoringModel, load_model, save_model
from kaes.string_kernel import KernelMatrix, load_kernel_matrix, save_kernel_matrix
from kaes.svr import SvrModel
from synthesis import save_word2vec_binary

KERNEL = KernelMatrix(values=[[1.0, 0.5, -0.25], [0.5, 1.0, 2.0]], row_ids=("a", "bé"),
                      col_ids=("x", "y", "z"))
CODEBOOK = Codebook(centroids=np.array([[1, 2, 3], [4, -5, 6.5]]))
SVR = SvrModel(coefficients=np.array([0.5, -0.25]), bias=0.125, epsilon_star=0.01,
               train_ids=("a", "bé"), converged=True, iterations=12)
# One text per support row; the second holds a byte that Windows-1252 leaves
# undefined, which corpus parsing makes a lone surrogate.
SUPPORT_TEXTS = ("one text", "t\udc81wo")
DIGEST = bytes(range(32))
HISK_MODEL = ScoringModel(SVR, "hisk", 1, 15, 500_000, None, SUPPORT_TEXTS, None)
FUSED_MODEL = ScoringModel(SVR, "fused", 2, 5, None, CODEBOOK, SUPPORT_TEXTS, DIGEST)
VECTORS = EmbeddingModel(dim=3, vocab={"cat": 0, "dog": 1},
                         vectors=np.array([[1, 2, 3], [-1, 0.5, 0.25]], dtype=np.float32))


def _ids(*ids: str) -> bytes:
    raw = [i.encode("utf-8", "surrogatepass") for i in ids]
    return b"".join(struct.pack("<I", len(r)) + r for r in raw)


# The SVR record of a model file: rows, each id, coefficient and support text
# (written as an id), then bias, epsilon, converged and iterations.
SVR_RECORD = (struct.pack("<I", 2)
              + _ids("a") + struct.pack("<d", 0.5) + b"\x08\0\0\0one text"
              + _ids("bé") + struct.pack("<d", -0.25) + b"\x06\0\0\0t\xed\xb2\x81wo"
              + struct.pack("<ddBQ", 0.125, 0.01, 1, 12))

# name: (object, save, load, its bytes spelled out field by field)
FORMATS = {
    "kernel": (KERNEL, save_kernel_matrix, load_kernel_matrix,
               b"KAESKM01" + struct.pack("<IIB", 2, 3, 0)
               + np.array(KERNEL.values, dtype="<f8").tobytes() + _ids("a", "bé", "x", "y", "z")),
    "model": (HISK_MODEL, save_model, load_model,
              b"KAESMD04" + struct.pack("<BIIQ", 0, 1, 15, 500_000) + SVR_RECORD),
    "fused-model": (FUSED_MODEL, save_model, load_model,
                    b"KAESMD04" + struct.pack("<BIIQ", 2, 2, 5, 0) + SVR_RECORD
                    + DIGEST + struct.pack("<II", 2, 3)
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


class TestAtomicWrite:
    def test_failed_write_keeps_the_old_file(self, tmp_path, monkeypatch):
        path = tmp_path / "model.bin"
        save_model(FUSED_MODEL, path)
        ids_written = 0

        def write_id_until_the_disk_fills(stream, doc_id):
            nonlocal ids_written
            ids_written += 1
            if ids_written == 3:
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
            write_id(stream, doc_id)

        monkeypatch.setattr(kaes.harness, "write_id", write_id_until_the_disk_fills)
        with pytest.raises(OSError, match="No space left on device"):
            save_model(HISK_MODEL, path)
        assert path.read_bytes() == FORMATS["fused-model"][3]
        assert list(tmp_path.iterdir()) == [path]  # no temporary file is left

    def test_error_names_the_target_not_the_temporary_file(self, tmp_path):
        path = tmp_path / "missing" / "model.bin"
        with pytest.raises(FileNotFoundError) as info:
            save_model(HISK_MODEL, path)
        assert info.value.filename == str(path)
        assert ".tmp" not in str(info.value)

    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes")
    def test_fifo_is_written_in_place(self, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_bytes()),
                                  daemon=True)
        reader.start()
        save_model(FUSED_MODEL, fifo)
        reader.join(timeout=10)
        assert received == [FORMATS["fused-model"][3]]
        assert list(tmp_path.iterdir()) == [fifo]


class TestReader:
    def test_reads_across_chunk_boundaries(self):
        data = b"ab\n\n\ncd efgh-skipped-" + _ids("hé") + struct.pack("<Id", 9, 0.5)
        reader = Reader(io.BytesIO(data), chunk=3)
        assert reader.read_until(b"\n", "header") == b"ab"
        assert reader.read_until(b" ", "token") == b"\n\ncd"
        assert reader.read(4, "vector") == b"efgh"
        assert reader.read(9, "gap") == b"-skipped-"
        assert reader.offset == 21
        assert reader.read_id() == "hé"
        assert reader.unpack("<Id", "pair") == (9, 0.5)
        assert reader.offset == len(data)
        with pytest.raises(BinaryFormatError, match="expected 1 bytes, only 0") as info:
            reader.read(1, "tail")
        assert info.value.offset == len(data)

    @pytest.mark.parametrize("doc_id, raw", [
        ("hé", b"h\xc3\xa9"),
        # The lone surrogate that corpus parsing makes of byte 0x81.
        ("x\udc81", b"x\xed\xb2\x81"),
    ])
    def test_id_round_trips(self, doc_id, raw):
        buf = io.BytesIO()
        write_id(buf, doc_id)
        assert buf.getvalue() == struct.pack("<I", len(raw)) + raw
        assert Reader(io.BytesIO(buf.getvalue())).read_id() == doc_id

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
            assert (loaded.svr.bias, loaded.svr.epsilon_star, loaded.svr.train_ids,
                    loaded.svr.converged, loaded.svr.iterations) == (
                        SVR.bias, SVR.epsilon_star, SVR.train_ids, SVR.converged, SVR.iterations)
            assert loaded.support_texts == SUPPORT_TEXTS
            assert loaded.vectors_digest == model.vectors_digest
            if model.codebook is None:
                assert loaded.codebook is None
            else:
                assert loaded.codebook.centroids.tobytes() == CODEBOOK.centroids.tobytes()

    def test_model_and_codebook_pair_of_earlier_versions_is_rejected(self):
        # The model file that earlier versions wrote beside a `.codebook` file,
        # the one-file model that held no support texts and no vectors digest,
        # the one that stored --seed before the iterations of its config echo,
        # and the one that kept every training row, a config echo and a second
        # pass of support texts.
        settings = struct.pack("<BIIQ", 0, 1, 15, 500_000)
        rows = (struct.pack("<I", 2) + _ids("a") + struct.pack("<d", 0.5) + _ids("bé")
                + struct.pack("<d", -0.25) + struct.pack("<dd", 0.125, 0.01))
        echo = struct.pack("<dddQB", 10.0, 0.5, 1e-3, 10_000_000, 1)
        texts = _ids(*SUPPORT_TEXTS)
        for data in (b"KAESSV01" + rows + echo + struct.pack("<Q", 12),
                     b"KAESMD01" + settings + rows + echo + struct.pack("<Q", 12),
                     b"KAESMD02" + settings + rows + echo + struct.pack("<QQ", 3, 12) + texts,
                     b"KAESMD03" + settings + rows + echo + struct.pack("<Q", 12) + texts):
            with pytest.raises(BinaryFormatError, match="bad magic") as info:
                load_model(io.BytesIO(data))
            assert info.value.offset == 0

    @pytest.mark.parametrize("texts", [SUPPORT_TEXTS[:1], SUPPORT_TEXTS + ("three",)],
                             ids=["one-too-few", "one-too-many"])
    def test_support_texts_not_one_per_row_are_rejected(self, texts):
        # save_model would write them misaligned with the row ids.
        with pytest.raises(KernelMismatchError, match=f"^{len(texts)} support texts for 2 SVR"):
            ScoringModel(SVR, "hisk", 1, 15, None, None, texts, None)

    @pytest.mark.parametrize("settings, reason", [
        (struct.pack("<BIIQ", 3, 1, 15, 0), "representation 3"),
        (struct.pack("<BIIQ", 0, 0, 15, 0), r"n-gram range \[0, 15\]"),
        (struct.pack("<BIIQ", 2, 4, 3, 0), r"n-gram range \[4, 3\]"),
    ])
    def test_invalid_kernel_settings(self, settings, reason):
        with pytest.raises(BinaryFormatError, match=reason) as info:
            load_model(io.BytesIO(MODEL_MAGIC + settings + SVR_RECORD))
        assert info.value.offset == 8

    # A number of the fused-model layout that must be finite: its offset (from
    # the end for centroids), format, value there and name in the error.
    @pytest.mark.parametrize("at, fmt, value, what", [
        (34, "<d", 0.5, "coefficient"),
        (61, "<d", -0.25, "coefficient"),
        (79, "<d", 0.125, "bias"),
        (87, "<d", 0.01, "epsilon"),
        (-24, "<f", 1.0, "centroid value"),
        (-4, "<f", 6.5, "centroid value"),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_is_rejected(self, at, fmt, value, what, bad):
        layout = FORMATS["fused-model"][3]
        at, size = at % len(layout), struct.calcsize(fmt)
        assert struct.unpack(fmt, layout[at:at + size]) == (value,)
        data = layout[:at] + struct.pack(fmt, bad) + layout[at + size:]
        with pytest.raises(BinaryFormatError, match=f"{what} is not finite") as info:
            load_model(io.BytesIO(data))
        assert info.value.offset == at

    def test_bytes_after_the_last_record_are_rejected(self):
        layout = FORMATS["fused-model"][3]
        # A fused model relabelled hisk leaves its codebook after the last record.
        for data in (FORMATS["model"][3] + b"\0", layout[:8] + b"\0" + layout[9:]):
            with pytest.raises(BinaryFormatError, match="trailing bytes") as info:
                load_model(io.BytesIO(data))
            assert info.value.offset == 25 + len(SVR_RECORD)
