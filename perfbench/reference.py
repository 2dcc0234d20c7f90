"""A fixed reference task that measures how fast the machine runs right now.

On a shared host the speed of one core drifts by up to 1.75x, over seconds
and over minutes, as other tenants come and go, and a whole benchmark run can
sit at one speed.  The benchmark therefore times this task before and after
every set-up and call, and reports kaes's times at the reference speed, the
speed at which one sample of the task takes ``NOMINAL_S``:

    scaled time = measured time * NOMINAL_S / mean(the samples on either side)

The task never calls ``kaes`` and its inputs are fixed, so a change to the
program cannot move it; it mixes the kinds of work kaes does: Python dict
building over character n-grams (``string_kernel``), and single-threaded
numpy products and memory-bound broadcast differences with arg-mins
(``boswe``).
"""
from __future__ import annotations

import time

import numpy as np

# A round figure a little above the median sample (about 0.22 s) on the
# 2-vCPU Xeon guest of the first baseline (see README.md); scaled times read
# as seconds on that machine when it runs a little slower than usual.
NOMINAL_S = 0.25
REPEATS = 3  # task runs per sample

_rng = np.random.default_rng(20141)
_WORDS = ["".join(chr(97 + int(c)) for c in _rng.integers(0, 26, _rng.integers(2, 9)))
          for _ in range(400)]
_TEXTS = tuple(" ".join(_WORDS[int(i) % 400] for i in _rng.zipf(1.3, 700))[:2200]
               for _ in range(2))
_POINTS = _rng.standard_normal((600, 300))
_CENTROIDS = _rng.standard_normal((32, 300))
_BLOCK = _rng.standard_normal((256, 300))


def _profile(text: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for n in range(1, 16):
        for i in range(len(text) - n + 1):
            gram = text[i:i + n]
            counts[gram] = counts.get(gram, 0) + 1
    return counts


def _task() -> int:
    a, b = (_profile(t) for t in _TEXTS)
    shared = sum(min(v, b[g]) for g, v in a.items() if g in b)
    sq = (_CENTROIDS * _CENTROIDS).sum(1)[None, :]
    for _ in range(20):  # products, as in k-means
        d = (_POINTS * _POINTS).sum(1)[:, None] - 2.0 * _POINTS @ _CENTROIDS.T + sq
        shared += int(d.argmin(1).sum())
    for _ in range(4):  # 20 MB broadcast differences, as in blocked assignment
        d = ((_BLOCK[:, None, :] - _CENTROIDS[None, :, :]) ** 2).sum(axis=2)
        shared += int(d.argmin(1).sum())
    return shared


def sample() -> float:
    """Seconds the reference task took just now (``REPEATS`` runs)."""
    start = time.perf_counter()
    for _ in range(REPEATS):
        _task()
    return time.perf_counter() - start
