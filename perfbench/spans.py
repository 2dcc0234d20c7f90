"""Span recorder for the traced benchmark run.

The recorder wraps the public functions of ``kaes`` under the names by which
``kaes.harness`` and ``kaes.cli`` imported them (both use ``from .x import y``,
so patching the defining module would not be seen).  Every call made while
the recorder is enabled becomes a :class:`Span` with its name, start, end,
parent and a few counts taken from its arguments and return value.  Spans
stay in memory; :func:`layer_metrics` turns them into per-layer numbers and
:func:`as_records` into the JSON that the run's record holds.

A layer is the ``kaes`` module that defines the function, so a span's layer
does not depend on which module called it.
"""
from __future__ import annotations

import contextlib
import functools
import os
import time
from dataclasses import dataclass, field
from typing import Callable

CountFn = Callable[[tuple, dict, object], dict]  # (args, kwargs, result) -> counts


@dataclass
class Span:
    name: str  # "<layer>.<function>"
    via: str  # module whose namespace held the wrapped name
    start: float
    end: float = 0.0
    parent: int | None = None  # index into Recorder.spans
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """Collects nested spans from wrapped functions; one thread only."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self.enabled = False
        self._stack: list[int] = []

    @contextlib.contextmanager
    def enabled_block(self):
        """Record spans only inside this block."""
        self.enabled = True
        try:
            yield self
        finally:
            self.enabled = False

    def wrap(self, fn: Callable, name: str, via: str, count: CountFn | None = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            span = Span(name, via, start=0.0, parent=self._stack[-1] if self._stack else None)
            self.spans.append(span)
            self._stack.append(len(self.spans) - 1)
            span.start = self.clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = self.clock()
                self._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its direct children cover."""
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.duration
    return out


def layer_self_times(spans: list[Span]) -> dict[str, float]:
    totals: dict[str, float] = {}
    for span, own in zip(spans, self_times(spans)):
        totals[span.layer] = totals.get(span.layer, 0.0) + own
    return totals


def as_records(spans: list[Span]) -> list[dict]:
    """Spans as JSON-ready dicts, times in seconds from the first span's start.

    Set-valued counts (the token types of a histogram) are reduced to their sizes.
    """
    t0 = spans[0].start if spans else 0.0
    return [{"name": s.name, "via": s.via, "start": s.start - t0, "end": s.end - t0,
             "parent": s.parent,
             "counts": {k: len(v) if isinstance(v, set) else v for k, v in s.counts.items()}}
            for s in spans]


# ---------------------------------------------------------------------------
# Which names to wrap, and the counts taken at each boundary


def _arg(args: tuple, kwargs: dict, pos: int, name: str):
    return args[pos] if len(args) > pos else kwargs.get(name)


def _pairs(args, kwargs, result) -> dict:
    rows = len(_arg(args, kwargs, 0, "rows"))
    cols = _arg(args, kwargs, 1, "cols")
    if cols is None or cols is _arg(args, kwargs, 0, "rows"):
        return {"pairs": rows * (rows - 1) // 2}
    return {"pairs": rows * len(cols)}


def _histogram(args, kwargs, result) -> dict:
    tokens = _arg(args, kwargs, 1, "tokens")
    vocab = _arg(args, kwargs, 2, "model").vocab
    return {
        "tokens": len(tokens),
        "assigned": result.token_count,
        "types": {(result.codebook_fingerprint, t) for t in tokens if t in vocab},
    }


def _svr(args, kwargs, result) -> dict:
    return {
        "iterations": result.iterations,
        "converged": int(result.converged),
        "support": int(result.support_mask.sum()),
        "rows": len(result.train_ids),
    }


def _cache_write(args, kwargs, result) -> dict:
    path = _arg(args, kwargs, 1, "path")
    return {"bytes": os.path.getsize(path) if isinstance(path, (str, os.PathLike)) else 0}


COUNTERS: dict[str, CountFn | None] = {
    "parse_asap_tsv": lambda a, k, r: {"essays": len(r)},
    "load_word2vec_binary": None,
    "tokenize": lambda a, k, r: {"tokens": len(r)},
    "extract_ngram_counts": lambda a, k, r: {"ngrams": len(r.counts)},
    "kernel_matrix": _pairs,
    "normalize_kernel": None,
    "save_kernel_matrix": _cache_write,
    "load_kernel_matrix": None,
    "fit_codebook": lambda a, k, r: {"points": len(_arg(a, k, 0, "vectors"))},
    "build_histogram": _histogram,
    "boswe_kernel_matrix": _pairs,
    "sum_kernels": None,
    "train_nu_svr": _svr,
    "predict": None,
    "qwk": None,
    "make_folds": None,
    "normalized_hisk_gram": None,
    "run_in_domain": None,
    "save_svr_model": None,
    "load_svr_model": None,
    "save_codebook": None,
    "load_codebook": None,
    "cmd_train": None,
    "cmd_predict": None,
    "main": None,
}


def install(recorder: Recorder, modules) -> Callable[[], None]:
    """Wrap every name of :data:`COUNTERS` found in ``modules``; return an undo."""
    saved = []
    for module in modules:
        via = module.__name__.rsplit(".", 1)[-1]
        for attr, count in COUNTERS.items():
            fn = getattr(module, attr, None)
            if fn is None or not fn.__module__.startswith("kaes."):
                continue
            layer = fn.__module__.rsplit(".", 1)[-1]
            saved.append((module, attr, fn))
            setattr(module, attr, recorder.wrap(fn, f"{layer}.{attr}", via, count))

    def undo() -> None:
        for module, attr, fn in reversed(saved):
            setattr(module, attr, fn)

    return undo


# ---------------------------------------------------------------------------
# Per-layer metrics

LAYERS = ("corpus", "embeddings", "string_kernel", "harness", "boswe", "fusion",
          "svr", "metrics", "cli")

METRICS = (
    "corpus.parse_s", "corpus.essays", "corpus.self_s",
    "embeddings.load_s", "embeddings.load_calls", "embeddings.tokenize_s",
    "embeddings.tokens", "embeddings.oov_share", "embeddings.self_s",
    "string_kernel.profile_s", "string_kernel.profiles", "string_kernel.ngrams_per_profile",
    "string_kernel.gram_s", "string_kernel.gram_pairs", "string_kernel.us_per_pair",
    "string_kernel.normalize_s", "string_kernel.cache_write_s", "string_kernel.cache_bytes",
    "string_kernel.self_s",
    "harness.gram_s", "harness.cache_hits", "harness.cache_misses", "harness.cells",
    "harness.self_s",
    "boswe.codebook_s", "boswe.codebooks", "boswe.codebook_points", "boswe.histogram_s",
    "boswe.histograms", "boswe.tokens_assigned", "boswe.us_per_token",
    "boswe.assign_useful_share", "boswe.gram_s", "boswe.gram_pairs", "boswe.self_s",
    "fusion.sum_s", "fusion.self_s",
    "svr.train_s", "svr.fits", "svr.iterations", "svr.converged_share", "svr.support_share",
    "svr.predict_s", "svr.self_s",
    "metrics.qwk_s", "metrics.calls", "metrics.self_s",
    "cli.train_s", "cli.predict_s", "cli.self_s",
)


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Every name in :data:`METRICS`, computed from one set of spans.

    Times are summed over calls; ``*.self_s`` is the layer's self time, so
    the ``self_s`` values add up to the duration of the root spans.
    """
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def total(name: str) -> float:
        return sum(s.duration for s in by_name.get(name, ()))

    def calls(name: str) -> int:
        return len(by_name.get(name, ()))

    def count(name: str, key: str) -> int:
        return sum(s.counts.get(key, 0) for s in by_name.get(name, ()))

    def share(num: float, den: float) -> float:
        return num / den if den else 0.0

    m: dict[str, float] = {}
    m["corpus.parse_s"] = total("corpus.parse_asap_tsv")
    m["corpus.essays"] = count("corpus.parse_asap_tsv", "essays")

    tokens_in = count("boswe.build_histogram", "tokens")
    assigned = count("boswe.build_histogram", "assigned")
    m["embeddings.load_s"] = total("embeddings.load_word2vec_binary")
    m["embeddings.load_calls"] = calls("embeddings.load_word2vec_binary")
    m["embeddings.tokenize_s"] = total("embeddings.tokenize")
    m["embeddings.tokens"] = count("embeddings.tokenize", "tokens")
    m["embeddings.oov_share"] = share(tokens_in - assigned, tokens_in)

    profiles = calls("string_kernel.extract_ngram_counts")
    gram_s = total("string_kernel.kernel_matrix")
    gram_pairs = count("string_kernel.kernel_matrix", "pairs")
    m["string_kernel.profile_s"] = total("string_kernel.extract_ngram_counts")
    m["string_kernel.profiles"] = profiles
    m["string_kernel.ngrams_per_profile"] = share(
        count("string_kernel.extract_ngram_counts", "ngrams"), profiles)
    m["string_kernel.gram_s"] = gram_s
    m["string_kernel.gram_pairs"] = gram_pairs
    m["string_kernel.us_per_pair"] = share(gram_s * 1e6, gram_pairs)
    m["string_kernel.normalize_s"] = total("string_kernel.normalize_kernel")
    m["string_kernel.cache_write_s"] = total("string_kernel.save_kernel_matrix")
    m["string_kernel.cache_bytes"] = count("string_kernel.save_kernel_matrix", "bytes")

    # A Gram request that had to compute the matrix missed the cache.
    computing = {s.parent for s in by_name.get("string_kernel.kernel_matrix", ())}
    misses = sum(1 for i, s in enumerate(spans)
                 if s.name == "harness.normalized_hisk_gram" and i in computing)
    m["harness.gram_s"] = total("harness.normalized_hisk_gram")
    m["harness.cache_hits"] = calls("harness.normalized_hisk_gram") - misses
    m["harness.cache_misses"] = misses
    m["harness.cells"] = sum(1 for s in by_name.get("svr.train_nu_svr", ()) if s.via == "harness")

    histogram_s = total("boswe.build_histogram")
    types: set = set()
    for s in by_name.get("boswe.build_histogram", ()):
        types |= s.counts.get("types", set())
    m["boswe.codebook_s"] = total("boswe.fit_codebook")
    m["boswe.codebooks"] = calls("boswe.fit_codebook")
    m["boswe.codebook_points"] = count("boswe.fit_codebook", "points")
    m["boswe.histogram_s"] = histogram_s
    m["boswe.histograms"] = calls("boswe.build_histogram")
    m["boswe.tokens_assigned"] = assigned
    m["boswe.us_per_token"] = share(histogram_s * 1e6, assigned)
    m["boswe.assign_useful_share"] = share(len(types), assigned)
    m["boswe.gram_s"] = total("boswe.boswe_kernel_matrix")
    m["boswe.gram_pairs"] = count("boswe.boswe_kernel_matrix", "pairs")

    m["fusion.sum_s"] = total("fusion.sum_kernels")

    fits = calls("svr.train_nu_svr")
    m["svr.train_s"] = total("svr.train_nu_svr")
    m["svr.fits"] = fits
    m["svr.iterations"] = count("svr.train_nu_svr", "iterations")
    m["svr.converged_share"] = share(count("svr.train_nu_svr", "converged"), fits)
    m["svr.support_share"] = share(count("svr.train_nu_svr", "support"),
                                   count("svr.train_nu_svr", "rows"))
    m["svr.predict_s"] = total("svr.predict")

    m["metrics.qwk_s"] = total("metrics.qwk")
    m["metrics.calls"] = calls("metrics.qwk")

    m["cli.train_s"] = total("cli.cmd_train")
    m["cli.predict_s"] = total("cli.cmd_predict")

    own = layer_self_times(spans)
    for layer in LAYERS:
        m[f"{layer}.self_s"] = own.get(layer, 0.0)
    return {name: float(m[name]) for name in METRICS}
