"""Deterministic ASAP-shaped essays and 300-d word2vec vectors for the benchmark.

The vocabulary is fixed (it does not depend on the seed); everything drawn
from it is a pure function of the workload seed:

* every essay has a latent quality ``q`` in [0, 1] (stratified, see
  ``QUALITY_BLOCK``) that sets its gold score on
  prompt 1's 2-12 scale (rounded; there is no rater noise), its length (250-400 words), how
  flat its Zipf word distribution is, how often it uses a fixed set of
  "advanced" words and how often it misspells a word;
* word vectors group words by topic, and the advanced words share one region
  of the space, so the super-word histograms can see quality as well as the
  character n-grams can;
* the vectors file carries ``extra_words`` non-corpus words after the corpus
  words, so that loading it costs about what a real embeddings file costs;
  those words contain ``_`` and can never match a token.  The file does not
  depend on the seed (its words are fixed), so every seed shares one copy.

Out-of-vocabulary tokens come from misspellings, "@CAPS1"-style markers and a
fixed share of corpus words left out of the vectors file (``OMITTED_EVERY``).

Run as a script to write ``essays-<seed>.tsv``, and ``vectors.bin`` unless it
is there already, into a directory: ``python3 perfbench/synth.py --seed 1 --out DIR``.
"""
from __future__ import annotations

import argparse
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

PROMPT = 1
SCORE_MIN, SCORE_MAX = 2, 12  # ASAP prompt 1
DIM = 300
VOCAB_SIZE = 4000
ADVANCED_SIZE = 60
COMMON_PHRASES = 400
ADVANCED_PHRASES = 40
TOPICS = 40
OMITTED_EVERY = 23  # every 23rd corpus word past rank 200 has no vector
VECTOR_SEED = 7005
ESSAYS = 120
EXTRA_WORDS = 100_000
MIN_WORDS, MAX_WORDS = 250, 400
# Qualities are stratified over each block of 10 essays, so every slice the
# workloads take (multiples of 10) spans the score scale evenly and QWK moves
# little from seed to seed.
QUALITY_BLOCK = 10
MARKERS = ("@CAPS1", "@PERSON1", "@LOCATION1", "@NUM1", "@DATE1", "@ORGANIZATION1")

_ONSETS = ("b", "c", "d", "f", "g", "h", "l", "m", "n", "p", "r", "s", "t", "v",
           "w", "br", "ch", "cl", "dr", "fr", "gr", "pl", "pr", "sh", "st", "str", "th", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ea", "ou", "io")
_CODAS = ("", "", "", "n", "r", "s", "t", "l", "nd", "st", "ng", "ck")


def _fixed_words(n: int, seed: int, min_syll: int, max_syll: int, taken: set) -> list[str]:
    rng = np.random.default_rng(seed)
    words: list[str] = []
    while len(words) < n:
        syllables = int(rng.integers(min_syll, max_syll + 1))
        word = "".join(
            _ONSETS[rng.integers(len(_ONSETS))] + _VOWELS[rng.integers(len(_VOWELS))]
            for _ in range(syllables)
        ) + _CODAS[rng.integers(len(_CODAS))]
        if word not in taken:
            taken.add(word)
            words.append(word)
    return words


@dataclass(frozen=True)
class Vocabulary:
    """The fixed corpus vocabulary; it does not depend on the workload seed."""

    common: list[str]  # Zipf-ranked, most frequent first
    advanced: list[str]
    common_phrases: list[tuple[str, ...]]  # Zipf-ranked collocations
    advanced_phrases: list[tuple[str, ...]]


def vocabulary() -> Vocabulary:
    taken: set[str] = set()
    common = _fixed_words(VOCAB_SIZE, 7001, 2, 3, taken)
    common.sort(key=len)  # frequent words are short, as in English
    advanced = _fixed_words(ADVANCED_SIZE, 7002, 2, 3, taken)
    return Vocabulary(
        common=common,
        advanced=advanced,
        common_phrases=_phrases(COMMON_PHRASES, 7003, [common[:300]]),
        advanced_phrases=_phrases(ADVANCED_PHRASES, 7004, [advanced, common[:300]]),
    )


def _misspell(word: str, rng: np.random.Generator) -> str:
    if len(word) < 4:
        return word + word[-1]
    i = int(rng.integers(1, len(word) - 1))
    if rng.random() < 0.5:
        return word[:i] + word[i + 1:]  # drop a letter
    return word[:i] + word[i + 1] + word[i] + word[i + 2:]  # swap two letters


def _phrases(n: int, seed: int, pools: list[list[str]]) -> list[tuple[str, ...]]:
    """Fixed multi-word phrases; word i of a phrase is drawn from pools[i % len(pools)]."""
    rng = np.random.default_rng(seed)
    out: list[tuple[str, ...]] = []
    for _ in range(n):
        words = []
        for i in range(int(rng.integers(2, 5))):
            pool = pools[i % len(pools)]
            words.append(pool[int(rng.integers(len(pool)))])
        out.append(tuple(words))
    return out


def _zipf(n: int, exponent: float) -> np.ndarray:
    p = (np.arange(1, n + 1, dtype=np.float64) + 2.7) ** -exponent
    return p / p.sum()


def _essay(q: float, vocab: Vocabulary, rng: np.random.Generator) -> str:
    """One essay: Zipf words and fixed phrases, richer and cleaner as ``q`` grows."""
    n_words = int(np.clip(round(MIN_WORDS + 150 * q + rng.normal(0, 25)), MIN_WORDS, MAX_WORDS))
    word_p = _zipf(len(vocab.common), 1.15 - 0.50 * q)
    phrase_p = _zipf(len(vocab.common_phrases), 1.0)
    words: list[str] = []
    while len(words) < n_words:
        u = rng.random()
        if u < 0.02 + 0.60 * q:
            words.extend(vocab.advanced_phrases[int(rng.integers(len(vocab.advanced_phrases)))])
        elif u < 0.04 + 0.80 * q:
            words.append(vocab.advanced[int(rng.integers(len(vocab.advanced)))])
        elif u < 0.34 + 0.40 * q:
            words.extend(vocab.common_phrases[int(rng.choice(len(vocab.common_phrases), p=phrase_p))])
        else:
            words.append(vocab.common[int(rng.choice(len(vocab.common), p=word_p))])
    words = words[:n_words]
    typo = rng.random(n_words) < 0.40 * (1.0 - q)
    words = [_misspell(w, rng) if t else w for w, t in zip(words, typo)]
    if rng.random() < 0.5:
        words[int(rng.integers(n_words))] = MARKERS[int(rng.integers(len(MARKERS)))]
    out, sentence = [], []
    for word in words:
        sentence.append(word)
        if len(sentence) >= 8 and rng.random() < 0.12:
            out.append(_sentence(sentence, rng))
            sentence = []
    if sentence:
        out.append(_sentence(sentence, rng))
    return " ".join(out)


def _sentence(words: list[str], rng: np.random.Generator) -> str:
    if len(words) > 6 and rng.random() < 0.4:
        words[int(rng.integers(2, len(words) - 2))] += ","
    return words[0].capitalize() + " " + " ".join(words[1:]) + "."


def essays_tsv(seed: int, n_essays: int = ESSAYS) -> bytes:
    """ASAP-format TSV of ``n_essays`` prompt-1 essays drawn from ``seed``."""
    vocab = vocabulary()
    rng = np.random.default_rng([seed, 1])
    qualities: list[float] = []
    for start in range(0, n_essays, QUALITY_BLOCK):
        m = min(QUALITY_BLOCK, n_essays - start)
        qualities.extend((rng.permutation(m) + rng.random(m)) / m)
    lines = ["essay_id\tessay_set\tessay\tdomain1_score"]
    for i, q in enumerate(qualities):
        score = round(SCORE_MIN + q * (SCORE_MAX - SCORE_MIN))
        lines.append(f"{1001 + i}\t{PROMPT}\t{_essay(q, vocab, rng)}\t{score}")
    return ("\n".join(lines) + "\n").encode("ascii")


def write_vectors(path: Path, extra_words: int = EXTRA_WORDS) -> None:
    """word2vec binary file: corpus words (minus omitted ones), then extras."""
    vocab = vocabulary()
    rng = np.random.default_rng(VECTOR_SEED)
    centers = rng.normal(0.0, 0.12, size=(TOPICS + 1, DIM))
    words = [w for r, w in enumerate(vocab.common) if r < 200 or r % OMITTED_EVERY]
    words += vocab.advanced
    topic = rng.integers(TOPICS, size=len(words))
    topic[len(words) - len(vocab.advanced):] = TOPICS  # the advanced region
    corpus_vecs = centers[topic] + rng.normal(0.0, 0.06, size=(len(words), DIM))
    with open(path, "wb") as f:
        f.write(f"{len(words) + extra_words} {DIM}\n".encode("ascii"))
        for word, vec in zip(words, corpus_vecs.astype("<f4")):
            f.write(word.encode("ascii") + b" " + vec.tobytes() + b"\n")
        chunk = 10_000
        for start in range(0, extra_words, chunk):
            n = min(chunk, extra_words - start)
            vecs = rng.normal(0.0, 0.12, size=(n, DIM)).astype("<f4")
            f.write(b"".join(
                f"X_{start + j:06d}_w ".encode("ascii") + vecs[j].tobytes() + b"\n"
                for j in range(n)
            ))


def generate(seed: int, out: Path, n_essays: int = ESSAYS, extra_words: int = EXTRA_WORDS) -> None:
    """Write ``essays-<seed>.tsv`` into ``out``, and ``vectors.bin`` if it is missing.

    Each file appears under its name only once it is complete.
    """
    out.mkdir(parents=True, exist_ok=True)
    essays = out / f"essays-{seed}.tsv"
    tmp = essays.with_name(f"{essays.name}.{os.getpid()}")
    tmp.write_bytes(essays_tsv(seed, n_essays))
    os.replace(tmp, essays)
    vectors = out / "vectors.bin"
    if not vectors.exists():
        tmp = vectors.with_name(f"{vectors.name}.{os.getpid()}")
        write_vectors(tmp, extra_words)
        os.replace(tmp, vectors)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()
    generate(args.seed, Path(args.out))


if __name__ == "__main__":
    main()
