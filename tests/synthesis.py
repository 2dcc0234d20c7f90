"""Synthetic corpora and embeddings for end-to-end tests.

Essays are bags of filler words plus a variable number of copies of the
keyword "omega"; the score is a clipped linear function of that count, so
any pipeline that can see the keyword (as character n-grams or as an
embedded token) should score essays almost perfectly.
"""
from __future__ import annotations

import io
from pathlib import Path
from typing import BinaryIO

import numpy as np

from kaes.binio import open_binary
from kaes.corpus import ASAP_SCORE_RANGES
import kaes.harness
from kaes.embeddings import (
    DEFAULT_VOCAB_LIMIT,
    EmbeddingModel,
    load_word2vec_binary,
)

FILLER_WORDS = [
    "able", "bridge", "candle", "desert", "ember", "forest", "garden", "hollow",
    "island", "jungle", "kettle", "ladder", "meadow", "needle", "orchard", "pillar",
    "quarry", "river", "signal", "timber", "useful", "valley", "window", "yonder",
    "zephyr", "anchor", "basket", "copper", "dragon", "engine", "falcon", "glacier",
    "hammer", "indigo", "jacket", "kernel", "lantern", "marble", "nectar", "oyster",
]
KEYWORD = "omega"


def make_corpus_tsv(
    n_essays: int, seed: int, prompts: tuple[int, ...] = (1,), filler: tuple[int, int] = (25, 50)
) -> bytes:
    """Essays whose raw score is min-clipped keyword count mapped into range.

    Each essay holds ``filler[0]`` to ``filler[1] - 1`` filler words.
    """
    rng = np.random.default_rng(seed)
    lines = ["essay_id\tessay_set\tessay\tdomain1_score"]
    essay_id = 1
    for prompt in prompts:
        score_range = ASAP_SCORE_RANGES[prompt]
        span = min(10, score_range.width)
        for _ in range(n_essays):
            count = int(rng.integers(0, span + 1))
            n_filler = int(rng.integers(*filler))
            words = list(rng.choice(FILLER_WORDS, size=n_filler)) + [KEYWORD] * count
            rng.shuffle(words)
            raw = min(score_range.min + count, score_range.max)
            lines.append(f"{essay_id}\t{prompt}\t{' '.join(words)}\t{raw}")
            essay_id += 1
    return ("\n".join(lines) + "\n").encode("utf-8")


def save_word2vec_binary(model: EmbeddingModel, target: str | Path | BinaryIO) -> None:
    """Write a model in the word2vec binary format that ``load_word2vec_binary`` reads."""
    with open_binary(target, "wb") as stream:
        stream.write(f"{len(model.vocab)} {model.dim}\n".encode("ascii"))
        by_index = sorted(model.vocab.items(), key=lambda item: item[1])
        for token, idx in by_index:
            stream.write(token.encode("utf-8", errors="surrogateescape"))
            stream.write(b" ")
            stream.write(np.ascontiguousarray(model.vectors[idx], dtype="<f4").tobytes())
            stream.write(b"\n")


def make_embeddings_bytes(dim: int = 16, seed: int = 0, decoys: int = 0) -> bytes:
    """Random vectors for the synthetic vocabulary; the keyword is set apart.

    ``decoys`` words that no essay uses ("decoy0", ...) are interleaved with
    the vocabulary, as the rest of a real vectors file would be.
    """
    rng = np.random.default_rng(seed)
    words = FILLER_WORDS + [KEYWORD]
    for i in range(decoys):
        words.insert(2 * i, f"decoy{i}")
    vectors = rng.normal(size=(len(words), dim)).astype(np.float32)
    vectors[words.index(KEYWORD), 0] += 10.0
    model = EmbeddingModel(
        dim=dim, vocab={w: i for i, w in enumerate(words)}, vectors=vectors
    )
    buf = io.BytesIO()
    save_word2vec_binary(model, buf)
    return buf.getvalue()


def record_vector_loads(monkeypatch, full: bool = False) -> list[EmbeddingModel]:
    """Patch the loader the pipeline calls so that every model it loads is
    recorded; with ``full``, each load ignores its ``keep`` set."""
    loaded: list[EmbeddingModel] = []

    def load(source, vocab_limit=DEFAULT_VOCAB_LIMIT, keep=None):
        model = load_word2vec_binary(source, vocab_limit, None if full else keep)
        loaded.append(model)
        return model

    monkeypatch.setattr(kaes.harness, "load_word2vec_binary", load)
    return loaded
