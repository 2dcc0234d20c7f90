"""The shared binary reader, the byte layout of the three formats, and fuzzing
of their loaders: a malformed file may only raise BinaryFormatError."""
from __future__ import annotations

import errno
import functools
import io
import math
import os
import re
import struct
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import kaes.harness
from kaes.binio import Reader, write_id
from kaes.embeddings import TOKENIZABLE, EmbeddingModel, load_word2vec_binary
from kaes.errors import BinaryFormatError, KernelMismatchError
from kaes.harness import MODEL_MAGIC, ScoringModel, SuperWords, load_model, save_model
from kaes.string_kernel import KernelMatrix, load_kernel_matrix, save_kernel_matrix
from kaes.svr import SvrModel
from synthesis import save_word2vec_binary

KERNEL = KernelMatrix(values=[[1.0, 0.5, -0.25], [0.5, 1.0, 2.0]], row_ids=("a", "bé"),
                      col_ids=("x", "y", "z"))
# A marker with an Arabic-Indic digit, as tokenize makes of "@CAPS\u0661".
SUPER_WORDS = SuperWords(3, {"@caps\u0661": 0, "cat": 2, "dog": 2})
SVR = SvrModel(coefficients=np.array([0.5, -0.25]), bias=0.125, epsilon_star=0.01,
               train_ids=("a", "bé"), converged=True, iterations=12)
# One text per support row; the second holds a byte that Windows-1252 leaves
# undefined, which corpus parsing makes a lone surrogate.
SUPPORT_TEXTS = ("one text", "t\udc81wo")
HISK_MODEL = ScoringModel(SVR, "hisk", 1, 15, 500_000, SUPPORT_TEXTS, None)
FUSED_MODEL = ScoringModel(SVR, "fused", 2, 5, None, SUPPORT_TEXTS, SUPER_WORDS)
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
# The super-word record of a boswe or fused model: k, the token count and the
# tokens' byte length, the tokens each ended by a newline, then the labels.
TOKEN_BLOB = b"@caps\xd9\xa1\ncat\ndog\n"
SUPER_WORD_RECORD = (struct.pack("<IIQ", 3, 3, len(TOKEN_BLOB)) + TOKEN_BLOB
                     + struct.pack("<III", 0, 2, 2))

# name: (object, save, load, its bytes spelled out field by field)
FORMATS = {
    "kernel": (KERNEL, save_kernel_matrix, load_kernel_matrix,
               b"KAESKM01" + struct.pack("<IIB", 2, 3, 0)
               + np.array(KERNEL.values, dtype="<f8").tobytes() + _ids("a", "bé", "x", "y", "z")),
    "model": (HISK_MODEL, save_model, load_model,
              b"KAESMD05" + struct.pack("<BIIQ", 0, 1, 15, 500_000) + SVR_RECORD),
    "fused-model": (FUSED_MODEL, save_model, load_model,
                    b"KAESMD05" + struct.pack("<BIIQ", 2, 2, 5, 0) + SVR_RECORD
                    + SUPER_WORD_RECORD),
    "word2vec": (VECTORS, save_word2vec_binary, load_word2vec_binary,
                 b"2 3\ncat " + np.array([1, 2, 3], dtype="<f4").tobytes()
                 + b"\ndog " + np.array([-1, 0.5, 0.25], dtype="<f4").tobytes() + b"\n"),
}
# The same file, loaded keeping only "dog": the "cat" record is scanned and skipped.
FORMATS["word2vec-keep"] = (VECTORS, save_word2vec_binary,
                            functools.partial(load_word2vec_binary, keep={"dog"}),
                            FORMATS["word2vec"][3])
# And keeping the tokens that tokenize can produce, here both.
FORMATS["word2vec-tokenizable"] = (VECTORS, save_word2vec_binary,
                                   functools.partial(load_word2vec_binary, keep=TOKENIZABLE),
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

    @pytest.mark.parametrize("chunk", [1, 9, 16, 40, 1 << 20])
    def test_mapped_file_splits_records_as_its_stream(self, tmp_path, chunk):
        # Windows of a mapped file end inside records as chunks of a stream do;
        # the records and the error at the cut are the same.
        records = [b"a", b"\n\nbc", b"", b"\nd\ne", b"\n" + b"f" * 30, b"\ng"]
        vectors = [bytes([i]) * 4 + b" \n\n " for i in range(len(records))]
        data = b"".join(t + b" " + v for t, v in zip(records, vectors)) + b"\nh i"
        path = tmp_path / "records.bin"
        path.write_bytes(data)

        def scan(stream):
            out = []
            with Reader(stream, chunk=chunk) as reader:
                try:
                    while True:
                        _, found = reader.read_records(8, 3, None)
                        out += [(token, bytes(vector)) for token, vector in found]
                except BinaryFormatError as exc:
                    return out, exc.offset, str(exc)

        with open(path, "rb") as stream:
            got = scan(stream)
        assert got == scan(io.BytesIO(data))
        assert got[0] == [(t.lstrip(b"\n"), v) for t, v in zip(records, vectors)]
        assert got[1:] == (len(data) - 1, f"at byte {len(data) - 1}: truncated vector of 'h': "
                                          "expected 8 bytes, only 1 available")

    @pytest.mark.skipif(not os.path.exists("/proc/self/smaps"), reason="needs /proc/self/smaps")
    @pytest.mark.parametrize("scan", ["records", "read"])
    def test_reads_release_the_mapped_pages_behind_them(self, tmp_path, scan):
        # A vectors scan, and one large field such as a Gram cache's values.
        size = 4096
        path = tmp_path / "records.bin"
        path.write_bytes((b"t " + bytes(size)) * 2048)  # 8 MiB: eight 1 MiB windows
        with open(path, "rb") as stream, Reader(stream) as reader:
            if scan == "records":
                for _ in range(7):
                    reader.read_records(size, 1 << 20, None)
            else:
                reader.read(7 << 20, "values")
            smaps = Path("/proc/self/smaps").read_text().splitlines()
        at = next(i for i, line in enumerate(smaps) if line.endswith(str(path)))
        rss_kib = next(int(line.split()[1]) for line in smaps[at:] if line.startswith("Rss:"))
        assert reader.offset > 7 * ((1 << 20) - 4098)  # seven windows of whole records
        assert rss_kib < 3 << 10  # not the 7 MiB read

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
            assert loaded.super_words == model.super_words
            if loaded.super_words is not None:
                assert list(loaded.super_words.labels) == sorted(SUPER_WORDS.labels)

    def test_model_and_codebook_pair_of_earlier_versions_is_rejected(self):
        # The model file that earlier versions wrote beside a `.codebook` file,
        # the one-file model that held no support texts and no vectors digest,
        # the one that stored --seed before the iterations of its config echo,
        # the one that kept every training row, a config echo and a second
        # pass of support texts, and the one that held a vectors digest and
        # the codebook's centroids instead of each token's super-word.
        settings = struct.pack("<BIIQ", 0, 1, 15, 500_000)
        rows = (struct.pack("<I", 2) + _ids("a") + struct.pack("<d", 0.5) + _ids("bé")
                + struct.pack("<d", -0.25) + struct.pack("<dd", 0.125, 0.01))
        echo = struct.pack("<dddQB", 10.0, 0.5, 1e-3, 10_000_000, 1)
        texts = _ids(*SUPPORT_TEXTS)
        for data in (b"KAESSV01" + rows + echo + struct.pack("<Q", 12),
                     b"KAESMD01" + settings + rows + echo + struct.pack("<Q", 12),
                     b"KAESMD02" + settings + rows + echo + struct.pack("<QQ", 3, 12) + texts,
                     b"KAESMD03" + settings + rows + echo + struct.pack("<Q", 12) + texts,
                     b"KAESMD04" + struct.pack("<BIIQ", 2, 2, 5, 0) + SVR_RECORD
                     + bytes(range(32)) + struct.pack("<II", 2, 3)
                     + np.array([[1, 2, 3], [4, -5, 6.5]], dtype="<f4").tobytes()):
            with pytest.raises(BinaryFormatError, match="bad magic") as info:
                load_model(io.BytesIO(data))
            assert info.value.offset == 0

    @pytest.mark.parametrize("texts", [SUPPORT_TEXTS[:1], SUPPORT_TEXTS + ("three",)],
                             ids=["one-too-few", "one-too-many"])
    def test_support_texts_not_one_per_row_are_rejected(self, texts):
        # save_model would write them misaligned with the row ids.
        with pytest.raises(KernelMismatchError, match=f"^{len(texts)} support texts for 2 SVR"):
            ScoringModel(SVR, "hisk", 1, 15, None, texts, None)

    @pytest.mark.parametrize("representation, super_words", [
        ("hisk", SUPER_WORDS), ("boswe", None), ("fused", None),
    ])
    def test_super_words_exactly_for_a_codebook(self, representation, super_words):
        # save_model would write a file that load_model rejects.
        with pytest.raises(KernelMismatchError, match=f"^a {representation} model has"):
            ScoringModel(SVR, representation, 1, 15, None, SUPPORT_TEXTS, super_words)

    @pytest.mark.parametrize("settings, reason", [
        (struct.pack("<BIIQ", 3, 1, 15, 0), "representation 3"),
        (struct.pack("<BIIQ", 0, 0, 15, 0), r"n-gram range \[0, 15\]"),
        (struct.pack("<BIIQ", 2, 4, 3, 0), r"n-gram range \[4, 3\]"),
    ])
    def test_invalid_kernel_settings(self, settings, reason):
        with pytest.raises(BinaryFormatError, match=reason) as info:
            load_model(io.BytesIO(MODEL_MAGIC + settings + SVR_RECORD))
        assert info.value.offset == 8

    # A number of the fused-model layout that must be finite: its offset,
    # format, value there and name in the error.
    @pytest.mark.parametrize("at, fmt, value, what", [
        (34, "<d", 0.5, "coefficient"),
        (61, "<d", -0.25, "coefficient"),
        (79, "<d", 0.125, "bias"),
        (87, "<d", 0.01, "epsilon"),
    ])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_number_is_rejected(self, at, fmt, value, what, bad):
        layout = FORMATS["fused-model"][3]
        size = struct.calcsize(fmt)
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


# Where the super-word record starts in the fused-model layout, and its parts.
RECORD_AT = len(FORMATS["fused-model"][3]) - len(SUPER_WORD_RECORD)
BLOB_AT = RECORD_AT + 16
LABELS_AT = BLOB_AT + len(TOKEN_BLOB)


def _super_word_record(k: int, count: int, blob: bytes, labels: tuple[int, ...]) -> bytes:
    return struct.pack("<IIQ", k, count, len(blob)) + blob + struct.pack(f"<{len(labels)}I",
                                                                         *labels)


class TestSuperWordRecord:
    """Each malformed super-word table is a BinaryFormatError at its offset."""

    @pytest.mark.parametrize("record, at, message", [
        (_super_word_record(0, 3, TOKEN_BLOB, (0, 0, 0)), RECORD_AT,
         "super-words of an empty codebook: k=0"),
        (_super_word_record(3, 3, b"cat\n@caps\xd9\xa1\ndog\n", (0, 2, 2)), BLOB_AT + 4,
         "super-word token '@caps\u0661' does not follow 'cat' in ascending order"),
        (_super_word_record(3, 3, b"@caps\xd9\xa1\ncat\ncat\n", (0, 2, 2)), BLOB_AT + 12,
         "super-word token 'cat' does not follow 'cat' in ascending order"),
        (_super_word_record(3, 3, TOKEN_BLOB, (0, 3, 2)), LABELS_AT + 4,
         "super-word label 3 of 'cat' is not below k=3"),
        (_super_word_record(3, 3, TOKEN_BLOB, (0, 2, 2**32 - 1)), LABELS_AT + 8,
         f"super-word label {2**32 - 1} of 'dog' is not below k=3"),
        (_super_word_record(3, 3, b"@caps\xd9\ncat\ndog\n", (0, 2, 2)), BLOB_AT + 5,
         "super-word tokens are not UTF-8"),
        (_super_word_record(3, 4, TOKEN_BLOB, (0, 2, 2, 1)), BLOB_AT,
         "super-word tokens are not 4 newline-ended tokens"),
        (_super_word_record(3, 3, TOKEN_BLOB[:-1], (0, 2, 2)), BLOB_AT,
         "super-word tokens are not 3 newline-ended tokens"),
        # The blob declares one byte more than the file holds before its end.
        (struct.pack("<IIQ", 3, 3, len(TOKEN_BLOB) + 13) + TOKEN_BLOB + bytes(12), BLOB_AT,
         "truncated super-word tokens"),
        (SUPER_WORD_RECORD[:-1], LABELS_AT, "truncated super-word labels"),
    ], ids=["k-zero", "unsorted", "repeated", "label-k", "label-max", "not-utf8",
            "too-few-tokens", "unended-token", "cut-blob", "cut-labels"])
    def test_malformed_table(self, record, at, message):
        data = FORMATS["fused-model"][3][:RECORD_AT] + record
        with pytest.raises(BinaryFormatError, match=re.escape(message)) as info:
            load_model(io.BytesIO(data))
        assert info.value.offset == at

    def test_token_with_a_newline_is_not_written(self, tmp_path):
        path = tmp_path / "model.bin"
        words = SuperWords(3, {"cat": 0, "in\nner": 1})
        with pytest.raises(KernelMismatchError, match="super-word token holds a newline"):
            save_model(ScoringModel(SVR, "boswe", 1, 15, None, SUPPORT_TEXTS, words), path)
        assert not list(tmp_path.iterdir())

    def test_old_magic_is_rejected(self):
        data = b"KAESMD04" + FORMATS["fused-model"][3][8:]
        with pytest.raises(BinaryFormatError, match="bad magic b'KAESMD04'") as info:
            load_model(io.BytesIO(data))
        assert info.value.offset == 0
