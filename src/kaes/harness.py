"""Experiment protocols: repeated cross-validation and source-to-target transfer.

In-domain: per prompt, a 5-fold cross-validation repeated several times with
fresh random partitions; every fold trains its own model (and, for the
histogram representation, its own codebook, fitted on training-fold tokens
only so nothing leaks from the evaluation fold).

Cross-domain: all essays of a source prompt train the model, optionally
augmented with a small sub-sample of target-prompt essays; evaluation is on
a held-out target fold, repeated over sub-sample draws.

The expensive character-n-gram Gram matrix depends only on the text, never
on the fold split, so it is computed once per document set and sliced per
fold; it can be cached on disk and reloaded bit-exactly.  Histogram kernels
are fold-dependent (the codebook is refit per fold) and are always computed
in place.
"""
from __future__ import annotations

import csv
import functools
import hashlib
import io
import logging
import struct
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .binio import Reader, open_binary, write_id
from .boswe import (
    DEFAULT_CLUSTERS,
    DEFAULT_KMEANS_ITERS,
    Codebook,
    boswe_kernel_matrix,
    fit_codebook,
)
from .corpus import (
    ASAP_SCORE_RANGES,
    Essay,
    ScoreRange,
    make_folds,
    make_transfer_split,
    parse_asap_tsv,
    unscale_score,
)
from .embeddings import DEFAULT_VOCAB_LIMIT, EmbeddingModel, load_word2vec_binary, tokenize
from .errors import BinaryFormatError, KaesError, KernelMismatchError, check_number
from .fusion import sum_kernels
from .metrics import average_qwk, qwk
from .seeding import CODEBOOK, derive_rng
from .string_kernel import (
    DEFAULT_NGRAM_MAX,
    DEFAULT_NGRAM_MIN,
    KernelMatrix,
    kernel_matrix,
    load_kernel_matrix,
    normalize_kernel,
    normalize_text,
    save_kernel_matrix,
    self_similarities,
)
from .svr import SvrConfig, SvrModel, predict, train_nu_svr

logger = logging.getLogger(__name__)

REPRESENTATIONS = ("hisk", "boswe", "fused")
DEFAULT_SUBSAMPLE_SIZES = (0, 10, 25, 50, 100)
MODES = ("in-domain", "cross-domain")


@dataclass
class ExperimentConfig:
    """Everything one experiment needs; file paths are explicit, no env vars."""

    mode: str
    data_path: str
    representation: str = "hisk"
    prompt: int | None = None  # in-domain; None runs every prompt in the data
    source: int | None = None  # cross-domain pair
    target: int | None = None
    embeddings_path: str | None = None
    cache_dir: str | None = None
    ngram_min: int = DEFAULT_NGRAM_MIN
    ngram_max: int = DEFAULT_NGRAM_MAX
    k: int = DEFAULT_CLUSTERS
    svr: SvrConfig = field(default_factory=SvrConfig)
    seed: int = 42
    folds: int = 5
    repetitions: int | None = None  # None: 10 in-domain, 5 cross-domain
    nt: tuple[int, ...] = DEFAULT_SUBSAMPLE_SIZES
    vocab_limit: int | None = DEFAULT_VOCAB_LIMIT
    kmeans_iters: int = DEFAULT_KMEANS_ITERS

    def resolved_repetitions(self) -> int:
        if self.repetitions is not None:
            return self.repetitions
        return 10 if self.mode == "in-domain" else 5

    def validate(self) -> None:
        for setting in fields(self):  # an ``int | None`` setting may be None: unset
            value = getattr(self, setting.name)
            if setting.type == "int" or (setting.type == "int | None" and value is not None):
                check_number(f"--{setting.name.replace('_', '-')}", value, integer=True)
        if not isinstance(self.nt, (tuple, list)):
            raise KaesError(f"--nt must be a list of sub-sample sizes, got {self.nt!r}")
        for i, n in enumerate(self.nt):
            check_number("--nt", n, integer=True)
            if n in self.nt[:i]:  # one report row per size
                raise KaesError(f"--nt lists sub-sample size {n} more than once")
        if not isinstance(self.svr, SvrConfig):
            raise KaesError(f"svr must be an SvrConfig, got {self.svr!r}")
        if self.mode not in MODES:
            raise KaesError(f"unknown mode {self.mode!r}")
        if self.representation not in REPRESENTATIONS:
            raise KaesError(f"unknown representation {self.representation!r}")
        if self.representation in ("boswe", "fused") and not self.embeddings_path:
            raise KaesError(f"representation {self.representation!r} requires --embeddings")
        if self.mode == "cross-domain":
            if self.source is None or self.target is None:
                raise KaesError("cross-domain mode requires --source and --target")
            for p in (self.source, self.target):
                if p not in ASAP_SCORE_RANGES:
                    raise KaesError(f"invalid prompt id {p}")
            if self.source == self.target:
                raise KaesError(f"--source and --target must differ, got {self.source} for both")
        elif self.prompt is not None and self.prompt not in ASAP_SCORE_RANGES:
            raise KaesError(f"invalid prompt id {self.prompt}")
        # Cross-validation needs a fold to train on besides the one it scores.
        min_folds = 2 if self.mode == "in-domain" else 1
        if self.folds < min_folds:
            raise KaesError(f"--folds must be at least {min_folds} in {self.mode} mode, "
                            f"got {self.folds}")
        if self.ngram_min < 1:
            raise KaesError(f"--ngram-min must be at least 1, got {self.ngram_min}")
        if self.ngram_max < self.ngram_min:
            raise KaesError(f"--ngram-max must be at least --ngram-min ({self.ngram_min}), "
                            f"got {self.ngram_max}")
        if self.ngram_max >= 2**32:  # the model file stores the n-gram range as u32
            raise KaesError(f"--ngram-max must be below 2**32, got {self.ngram_max}")
        if self.k < 1:
            raise KaesError(f"--k must be at least 1, got {self.k}")
        if self.kmeans_iters < 0:
            raise KaesError(f"--kmeans-iters must be at least 0, got {self.kmeans_iters}")
        if self.repetitions is not None and self.repetitions < 1:
            raise KaesError(f"--repetitions must be at least 1, got {self.repetitions}")
        if not self.nt:
            raise KaesError("--nt must list at least one sub-sample size")
        if any(n < 0 for n in self.nt):
            raise KaesError(f"--nt sizes must be at least 0, got {min(self.nt)}")
        if self.vocab_limit is not None and self.vocab_limit < 0:
            raise KaesError(f"--vocab-limit must be at least 0, got {self.vocab_limit}")
        if self.vocab_limit is not None and self.vocab_limit >= 2**64:  # a u64 in the model file
            raise KaesError(f"--vocab-limit must be below 2**64, got {self.vocab_limit}")
        if not 0 <= self.seed < 2**64:  # a u64, as documented
            raise KaesError(f"--seed must be in [0, 2**64), got {self.seed}")

    def summary(self) -> str:
        parts = [
            f"mode={self.mode}",
            f"representation={self.representation}",
            f"ngram=[{self.ngram_min},{self.ngram_max}]",
            f"k={self.k}",
            f"c={self.svr.c:g}",
            f"nu={self.svr.nu:g}",
            f"seed={self.seed}",
            f"folds={self.folds}",
            f"repetitions={self.resolved_repetitions()}",
        ]
        if self.mode == "cross-domain":
            parts.append(f"pair={self.source}->{self.target}")
            parts.append("nt=" + ",".join(str(n) for n in self.nt))
        elif self.prompt is not None:
            parts.append(f"prompt={self.prompt}")
        return " ".join(parts)


@dataclass
class ResultCell:
    """Aggregated QWK of one (prompt or pair, n_t) cell."""

    key: str
    n_t: int | None
    representation: str
    mean: float | None
    std: float | None
    values: tuple[float, ...] = ()
    n_runs: int = 0
    failed: str | None = None


@dataclass
class ResultTable:
    mode: str
    meta: str = ""
    cells: list[ResultCell] = field(default_factory=list)

    def overall(self) -> float | None:
        """Unweighted mean over per-key means (in-domain all-prompt runs)."""
        means = [c.mean for c in self.cells if c.mean is not None]
        if not means:
            return None
        return average_qwk(means)


def _fmt(value: float | None, decimals: int) -> str:
    return "-" if value is None else f"{value:.{decimals}f}"


def emit_report(table: ResultTable, format: str = "text") -> bytes:
    """Render a result table deterministically as text or csv.

    Rows are ordered by key then sub-sample size; kappa values print with 3
    decimals.  The csv variant is a plain table (no comment lines) so any
    csv reader round-trips it.
    """
    cells = sorted(table.cells, key=lambda c: (c.key, -1 if c.n_t is None else c.n_t))
    if format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["key", "n_t", "representation", "qwk_mean", "qwk_std", "runs", "failed"])
        for c in cells:
            writer.writerow(
                [
                    c.key,
                    "" if c.n_t is None else c.n_t,
                    c.representation,
                    "" if c.mean is None else f"{c.mean:.3f}",
                    "" if c.std is None else f"{c.std:.4f}",
                    c.n_runs,
                    c.failed or "",
                ]
            )
        return buf.getvalue().encode("utf-8")
    if format != "text":
        raise KaesError(f"unknown report format {format!r}")

    lines = []
    if table.meta:
        lines.append(f"# {table.meta}")
    lines.append(f"{'key':<12} {'n_t':>5} {'qwk':>7} {'std':>8} {'runs':>5}  note")
    for c in cells:
        nt = "-" if c.n_t is None else str(c.n_t)
        lines.append(
            f"{c.key:<12} {nt:>5} {_fmt(c.mean, 3):>7} {_fmt(c.std, 4):>8} "
            f"{c.n_runs:>5}  {c.failed or ''}".rstrip()
        )
    if table.mode == "in-domain" and len(cells) > 1:
        lines.append(
            f"{'overall':<12} {'-':>5} {_fmt(table.overall(), 3):>7} {'-':>8} "
            f"{sum(c.mean is not None for c in cells):>5}".rstrip()
        )
    return ("\n".join(lines) + "\n").encode("utf-8")


def table_from_csv(data: bytes) -> ResultTable:
    """Rebuild a table from the csv emitted by :func:`emit_report`."""
    try:
        reader = csv.reader(io.StringIO(data.decode("utf-8")))
    except UnicodeDecodeError as exc:
        raise KaesError(f"result table is not UTF-8: {exc}") from None
    if next(reader, [])[:3] != ["key", "n_t", "representation"]:
        raise KaesError("not a result-table csv (missing header row)")
    cells = []
    for row in reader:
        try:
            key, nt, representation, mean, std, runs, failed = row
            cells.append(
                ResultCell(
                    key=key,
                    n_t=None if nt == "" else int(nt),
                    representation=representation,
                    mean=None if mean == "" else float(mean),
                    std=None if std == "" else float(std),
                    n_runs=int(runs),
                    failed=failed or None,
                )
            )
        except ValueError as exc:
            raise KaesError(f"result table line {reader.line_num}: {exc}") from None
    mode = "cross-domain" if any(c.n_t is not None for c in cells) else "in-domain"
    return ResultTable(mode=mode, cells=cells)


# ---------------------------------------------------------------------------
# Shared plumbing


def load_essays(path: str | Path, prompt: int | None = None) -> list[Essay]:
    """The essays of an ASAP-format TSV file; only those of ``prompt`` when given."""
    if prompt is not None and prompt not in ASAP_SCORE_RANGES:
        raise KaesError(f"invalid prompt id {prompt}")
    return parse_asap_tsv(Path(path).read_bytes(), prompt_filter=prompt)


def without_blank(essays: list[Essay]) -> list[Essay]:
    """``essays`` minus those with no text once normalized, dropped with a warning.

    A blank essay has no n-grams and no tokens, so no kernel can score it.
    Nothing left is an error.
    """
    kept, blank = [], []
    for e in essays:
        (kept if normalize_text(e.text) else blank).append(e)
    if blank:
        logger.warning("dropping %d blank essays: %s", len(blank), ", ".join(e.id for e in blank))
    if not kept:
        raise KaesError("no essays selected; check --data and the prompt ids")
    return kept


def _gram_cache_key(essays: Sequence[Essay], cfg: ExperimentConfig) -> str:
    digest = hashlib.sha256()
    digest.update(f"hisk-gram|v1|{cfg.ngram_min}|{cfg.ngram_max}|".encode())
    for e in essays:
        digest.update(e.id.encode("utf-8", errors="surrogatepass"))
        digest.update(b"\x00")
        digest.update(e.text.encode("utf-8", errors="surrogatepass"))
        digest.update(b"\x01")
    return digest.hexdigest()[:24]


def _cache_mismatch(
    raw: KernelMatrix, essays: Sequence[Essay], self_sims: np.ndarray
) -> str | None:
    """Why a loaded cache file cannot be the raw n-gram Gram of ``essays``, or None."""
    ids = tuple(e.id for e in essays)
    if raw.row_ids != ids or raw.col_ids != ids:
        return "it does not match the document set"
    if not np.isfinite(raw.values).all():
        return "it holds NaN or infinite values"
    if not np.array_equal(raw.values, raw.values.T):
        return "it is not symmetric"
    if not np.array_equal(np.diagonal(raw.values), self_sims):
        return "its diagonal is not the documents' self-similarities"
    return None


def normalized_hisk_gram(
    essays: Sequence[Essay], cfg: ExperimentConfig, must_cache: bool = False
) -> KernelMatrix:
    """Full normalized n-gram Gram over a document set, disk-cached when possible.

    A cache file that cannot be read, or that cannot be the raw Gram matrix
    of these documents, is a miss: it is logged, recomputed and rewritten.
    A cache that cannot be written is logged and the computed Gram is used,
    unless ``must_cache``: then the OSError is raised.
    """
    ids = tuple(e.id for e in essays)
    self_sims = self_similarities([e.text for e in essays], cfg.ngram_min, cfg.ngram_max)
    cache_path = None
    if cfg.cache_dir:
        cache_path = Path(cfg.cache_dir) / f"hisk_{_gram_cache_key(essays, cfg)}.km"
        if cache_path.exists():
            logger.info("loading cached Gram matrix %s", cache_path.name)
            try:
                raw = load_kernel_matrix(cache_path)
            except (BinaryFormatError, OSError) as exc:
                logger.warning("ignoring unreadable cache file %s: %s", cache_path, exc)
            else:
                mismatch = _cache_mismatch(raw, essays, self_sims)
                if mismatch is None:
                    return normalize_kernel(raw, self_sims, self_sims)
                logger.warning("ignoring cache file %s: %s", cache_path, mismatch)
    logger.info(
        "computing %d-document n-gram Gram matrix (range [%d,%d])",
        len(essays), cfg.ngram_min, cfg.ngram_max,
    )
    raw = kernel_matrix(
        [e.text for e in essays], row_ids=ids, n_min=cfg.ngram_min, n_max=cfg.ngram_max
    )
    if cache_path is not None:
        try:
            cache_path.parent.mkdir(parents=True, exist_ok=True)
            save_kernel_matrix(raw, cache_path)
        except OSError as exc:
            if must_cache:
                raise
            logger.warning("cannot write cache file %s: %s", cache_path, exc)
        else:
            logger.info("cached Gram matrix at %s", cache_path.name)
    return normalize_kernel(raw, self_sims, self_sims)


@dataclass(frozen=True)
class _Embedded:
    """A run's essays as rows of one table of word vectors.

    ``model`` holds the essays' in-vocabulary token types, its rows in
    sorted token order, so a sorted set of rows is a sorted set of types.
    ``rows[eid]`` is essay ``eid``'s tokens as rows of it, in text order,
    with out-of-vocabulary tokens dropped.
    """

    model: EmbeddingModel
    rows: dict[str, np.ndarray]


def _embedded_essays(
    path: str, vocab_limit: int | None, *essay_lists: Iterable[tuple[str, str]]
) -> tuple[_Embedded, ...]:
    """Each list of (id, text) pairs as rows of one table of the word vectors they use.

    The vectors file ``path`` is read once, keeping only the essays' token
    types, so every lookup gets the vector a full load would give.  Rows are
    keyed by id per list, as two lists may hold the same ids.  A NaN or
    infinite vector is an error that names its token.
    """
    tokens = [{eid: tokenize(text) for eid, text in essays} for essays in essay_lists]
    keep = {t for by_id in tokens for words in by_id.values() for t in words}
    logger.info("loading embeddings of %d token types from %s", len(keep), path)
    model = load_word2vec_binary(path, vocab_limit=vocab_limit, keep=keep)
    index = {t: i for i, t in enumerate(sorted(model.vocab))}
    table = EmbeddingModel(dim=model.dim, vocab=index, vectors=model.vectors[
        np.array([model.vocab[t] for t in index], dtype=np.intp)])
    finite = np.isfinite(table.vectors).all(axis=1)
    if not finite.all():
        bad = [t for t, i in index.items() if not finite[i]]
        raise KaesError(f"{path}: NaN or infinite vectors of {len(bad)} tokens: "
                        + ", ".join(repr(t) for t in bad[:5]))
    rows = [{eid: np.array([index[t] for t in words if t in index], dtype=np.intp)
             for eid, words in by_id.items()} for by_id in tokens]
    sizes = [(len(r[eid]), len(words))
             for r, by_id in zip(rows, tokens) for eid, words in by_id.items() if words]
    if sizes:
        kept, total = np.array(sizes).T
        oov = 1.0 - kept / total
        logger.debug("histograms: mean OOV rate %.3f, per-document %s", oov.mean(), oov)
    return tuple(_Embedded(table, r) for r in rows)


def _embedded(cfg: ExperimentConfig, essays: Sequence[Essay]) -> _Embedded | None:
    """The essays' embedded tokens for ``cfg.representation``; None for hisk."""
    if cfg.representation == "hisk":
        return None
    return _embedded_essays(cfg.embeddings_path, cfg.vocab_limit,
                            [(e.id, e.text) for e in essays])[0]


def _type_rows(embedded: _Embedded, ids: Sequence[str]) -> np.ndarray:
    """The table rows of the essays' embedded token types, in sorted token order."""
    return np.unique(np.concatenate([np.empty(0, dtype=np.intp),
                                     *(embedded.rows[eid] for eid in ids)]))


def _vectors_digest(embedded: _Embedded, ids: Sequence[str]) -> bytes:
    """The sha256 of the dimension, then of the word2vec records (token, space,
    f32 LE vector) of the essays' embedded token types in sorted token order."""
    model = embedded.model
    tokens = list(model.vocab)  # the table's rows are in sorted token order
    digest = hashlib.sha256(b"%d\n" % model.dim)
    for row in _type_rows(embedded, ids):
        digest.update(tokens[row].encode("utf-8", errors="surrogateescape") + b" ")
        digest.update(model.vectors[row].astype("<f4").tobytes())
    return digest.digest()


def kernel_block(
    row_ids: tuple[str, ...],
    col_ids: tuple[str, ...],
    hisk: KernelMatrix | None,
    codebook: Codebook | None,
    row_tokens: _Embedded | None,
    col_tokens: _Embedded | None,
) -> KernelMatrix:
    """The rows x cols kernel block of a representation.

    ``hisk`` is a normalized n-gram block holding these rows and columns,
    None for boswe; ``codebook`` is None for hisk.  ``row_tokens`` and
    ``col_tokens`` hold the row and the column essays' embedded tokens, as
    rows of one table.  Fused is the sum of the n-gram and histogram blocks.
    """
    blocks = []
    if hisk is not None:
        blocks.append(hisk.take(row_ids, col_ids))
    if codebook is not None:
        blocks.append(boswe_kernel_matrix(
            [row_tokens.rows[eid] for eid in row_ids], [col_tokens.rows[eid] for eid in col_ids],
            codebook, row_tokens.model.vectors, row_ids, col_ids))
    return sum_kernels(*blocks) if len(blocks) == 2 else blocks[0]


def _fit_split(
    cfg: ExperimentConfig, by_id: dict[str, Essay], hisk: KernelMatrix | None,
    embedded: _Embedded | None, seed: int, train_ids: tuple[str, ...], eval_ids: tuple[str, ...],
) -> tuple[Codebook | None, SvrModel, np.ndarray]:
    """Fit one split: its codebook, its nu-SVR and its eval essays' predictions.

    When ``embedded`` is given, the codebook is fitted with ``seed`` on the
    vectors of the training essays' embedded token types, in sorted token
    order.  One (train + eval) x train kernel block serves the fit (its train
    rows) and the predictions (its eval rows).
    """
    codebook = None
    if embedded is not None:
        rows = _type_rows(embedded, train_ids)
        if not rows.size:
            raise KaesError("no embedded tokens in the training documents")
        codebook = fit_codebook(embedded.model.vectors[rows], k=cfg.k, seed=seed,
                                max_iters=cfg.kmeans_iters)
    block = kernel_block(train_ids + eval_ids, train_ids, hisk, codebook, embedded, embedded)
    train_block = block.take(train_ids, train_ids) if eval_ids else block  # train: skip a copy
    svr = train_nu_svr(train_block, np.array([by_id[eid].unit_score for eid in train_ids]),
                       cfg.svr)
    return codebook, svr, predict(svr, block.take(eval_ids, train_ids))


# ---------------------------------------------------------------------------
# Protocols


def run_in_domain(cfg: ExperimentConfig) -> ResultTable:
    """Repeated cross-validation per prompt; one result cell per prompt."""
    cfg.validate()
    if cfg.mode != "in-domain":
        raise KaesError(f"run_in_domain called with mode {cfg.mode!r}")
    essays = without_blank(load_essays(cfg.data_path, cfg.prompt))
    embedded = _embedded(cfg, essays)
    reps = cfg.resolved_repetitions()

    table = ResultTable(mode=cfg.mode, meta=cfg.summary())
    for prompt in sorted({e.prompt for e in essays}):
        subset = [e for e in essays if e.prompt == prompt]
        logger.info("prompt %d: %d essays, %d repetitions x %d folds",
                    prompt, len(subset), reps, cfg.folds)

        def splits(subset=subset):
            plan = make_folds(subset, fold_count=cfg.folds, repetitions=reps, seed=cfg.seed)
            return [(0, rep, (rep, fold), f"rep{rep}/fold{fold}",
                     functools.partial(plan.split_ids, rep, fold))
                    for rep in range(reps) for fold in range(cfg.folds)]

        table.cells += _protocol_cells(cfg, str(prompt), (None,), subset, splits,
                                       ASAP_SCORE_RANGES[prompt], embedded)
    return table


def run_cross_domain(cfg: ExperimentConfig) -> ResultTable:
    """Source-to-target transfer over the configured sub-sample sizes."""
    cfg.validate()
    if cfg.mode != "cross-domain":
        raise KaesError(f"run_cross_domain called with mode {cfg.mode!r}")
    essays = without_blank([e for e in load_essays(cfg.data_path)
                             if e.prompt in (cfg.source, cfg.target)])
    source_essays = [e for e in essays if e.prompt == cfg.source]
    target_essays = [e for e in essays if e.prompt == cfg.target]
    if not source_essays or not target_essays:
        raise KaesError(
            f"data must contain both prompts {cfg.source} and {cfg.target} "
            f"(got {len(source_essays)} and {len(target_essays)} essays)"
        )
    pair_essays = source_essays + target_essays
    embedded = _embedded(cfg, pair_essays)
    reps = cfg.resolved_repetitions()
    source_ids = tuple(e.id for e in source_essays)

    def split(n_t: int, rep: int):
        extra_ids, eval_ids = make_transfer_split(
            target_essays, n_t, rep, cfg.seed, fold_count=cfg.folds
        )
        return source_ids + extra_ids, eval_ids

    def splits():
        return [(cell, rep, (rep, cell), f"rep{rep}", functools.partial(split, n_t, rep))
                for cell, n_t in enumerate(cfg.nt) for rep in range(reps)]

    table = ResultTable(mode=cfg.mode, meta=cfg.summary())
    table.cells += _protocol_cells(cfg, f"{cfg.source}->{cfg.target}", cfg.nt, pair_essays,
                                   splits, ASAP_SCORE_RANGES[cfg.target], embedded)
    return table


def _protocol_cells(
    cfg: ExperimentConfig,
    key: str,
    n_ts: Sequence[int | None],
    essays: list[Essay],
    splits,
    score_range: ScoreRange,
    embedded: _Embedded | None,
) -> list[ResultCell]:
    """One result cell per entry of ``n_ts``, all over one document set.

    ``splits()`` returns the splits of every cell as one list of
    ``(cell, rep, tags, where, ids)``: ``cell`` indexes ``n_ts``, ``tags``
    seed the split's codebook, ``where`` names it in failure notes and
    ``ids()`` gives its (train, eval) ids.  The Gram matrix is prepared
    once; if that or ``splits()`` fails, every cell fails with the reason.
    A failing split, its ids included, only costs its own kappa.
    """
    what = f"pair {key}" if cfg.mode == "cross-domain" else f"prompt {key}"
    try:
        split_list = splits()
        hisk_gram = None
        if cfg.representation in ("hisk", "fused"):
            hisk_gram = normalized_hisk_gram(essays, cfg)
    except Exception as exc:  # noqa: BLE001 - a failed cell must not kill siblings
        reason = str(exc) or type(exc).__name__
        logger.error("%s failed during preparation: %s", what, reason)
        return [ResultCell(key=key, n_t=n_t, representation=cfg.representation,
                           mean=None, std=None, failed=f"prepare: {reason}") for n_t in n_ts]

    by_id = {e.id: e for e in essays}
    outcomes = [({}, []) for _ in n_ts]  # per cell: kappas by repetition, failure notes
    for cell, rep, tags, where, ids in split_list:
        by_rep, failures = outcomes[cell]
        try:
            train_ids, eval_ids = ids()
            logger.debug("%s n_t=%s %s: train=%d eval=%d",
                         what, n_ts[cell], where, len(train_ids), len(eval_ids))
            seed = int(derive_rng(cfg.seed, CODEBOOK, *tags).integers(0, 2**31 - 1))
            _, _, preds = _fit_split(cfg, by_id, hisk_gram, embedded, seed, train_ids, eval_ids)
            report = qwk([unscale_score(p, score_range) for p in preds],
                         [by_id[eid].raw_score for eid in eval_ids], score_range)
            logger.debug("split report: %s", report.to_text())
        except Exception as exc:  # noqa: BLE001
            reason = str(exc) or type(exc).__name__
            failures.append(f"{where}: {reason}")
            logger.error("%s n_t=%s %s failed: %s", what, n_ts[cell], where, reason)
            continue
        by_rep.setdefault(rep, []).append(report.kappa)
    return [_result_cell(cfg, key, n_t, *outcome) for n_t, outcome in zip(n_ts, outcomes)]


def _result_cell(
    cfg: ExperimentConfig,
    key: str,
    n_t: int | None,
    by_rep: dict[int, list[float]],
    failures: list[str],
) -> ResultCell:
    """Aggregate kappas grouped by repetition; std is over repetition means.

    A cross-domain repetition scores one split, so there its mean is its
    kappa and the std is over the kappas themselves.
    """
    failed = "; ".join(failures) or None
    values = [v for rep in sorted(by_rep) for v in by_rep[rep]]
    if not values:
        return ResultCell(key=key, n_t=n_t, representation=cfg.representation,
                          mean=None, std=None, failed=failed or "no runs")
    rep_means = [float(np.mean(by_rep[rep])) for rep in sorted(by_rep)]
    return ResultCell(
        key=key,
        n_t=n_t,
        representation=cfg.representation,
        mean=float(np.mean(values)),
        std=float(np.std(rep_means)) if len(rep_means) > 1 else 0.0,
        values=tuple(values),
        n_runs=len(values),
        failed=failed,
    )


# ---------------------------------------------------------------------------
# One model: `kaes train` and `kaes predict`

MODEL_MAGIC = b"KAESMD04"


@dataclass
class ScoringModel:
    """A trained scorer and the kernel it was trained on.

    ``svr`` holds the support essays only, and ``support_texts`` are their
    texts, one per row in ``svr.train_ids`` order: the columns of every
    kernel block the model scores with.  ``codebook`` and ``vectors_digest``
    (see :func:`_vectors_digest`) are None exactly for hisk.  The n-gram
    range is read only by representations with an n-gram kernel, and
    ``vocab_limit`` (None scans every vector) only by those with a codebook.
    """

    svr: SvrModel
    representation: str
    ngram_min: int
    ngram_max: int
    vocab_limit: int | None
    codebook: Codebook | None
    support_texts: tuple[str, ...]
    vectors_digest: bytes | None

    def __post_init__(self):
        if len(self.support_texts) != len(self.svr.train_ids):
            raise KernelMismatchError(f"{len(self.support_texts)} support texts for "
                                      f"{len(self.svr.train_ids)} SVR rows")


def train_model(cfg: ExperimentConfig, essays: Sequence[Essay]) -> ScoringModel:
    """A nu-SVR scorer over the ``cfg.representation`` kernel of ``essays``.

    Blank essays are dropped with a warning, as the protocols drop them;
    two essays with one id are an error.  The model is one split with every
    essay in training and none to score.  The vectors are read before the
    n-gram Gram, so that a bad vectors file fails before the costly step;
    the codebook is fitted after it.
    """
    cfg.validate()
    essays = without_blank(essays)
    by_id = {e.id: e for e in essays}
    if len(by_id) != len(essays):  # a model row is keyed by its essay's id
        raise KaesError("duplicate essay ids in the training essays")
    embedded = _embedded(cfg, essays)
    hisk = normalized_hisk_gram(essays, cfg) if cfg.representation != "boswe" else None
    codebook, fit, _ = _fit_split(cfg, by_id, hisk, embedded, cfg.seed, tuple(by_id), ())
    svr = replace(fit, coefficients=fit.coefficients[fit.support_mask], train_ids=fit.support_ids)
    texts = tuple(by_id[eid].text for eid in svr.train_ids)
    digest = None if embedded is None else _vectors_digest(embedded, svr.train_ids)
    return ScoringModel(svr, cfg.representation, cfg.ngram_min, cfg.ngram_max, cfg.vocab_limit,
                        codebook, texts, digest)


def predict_scores(
    model: ScoringModel, essays: Sequence[Essay], embeddings_path: str | None = None
) -> list[tuple[Essay, int]]:
    """Each essay of ``essays`` with its score under ``model``, on its prompt's scale.

    The kernel is the model's own test x support block, over the support
    texts it holds.  ``embeddings_path`` is the vectors file that boswe and
    fused models need; one that gives the support essays' token types other
    vectors than the model was trained with is an error.  Blank essays are
    dropped with a warning.  A model with no support vectors scores every
    essay at its bias.
    """
    if model.codebook is not None and not embeddings_path:
        raise KaesError(f"representation {model.representation!r} requires --embeddings")
    support_ids = model.svr.train_ids
    essays = without_blank(essays)
    ids = tuple(e.id for e in essays)
    support_embedded = embedded = hisk = None
    if model.codebook is not None:
        support_embedded, embedded = _embedded_essays(
            embeddings_path, model.vocab_limit, zip(support_ids, model.support_texts),
            [(e.id, e.text) for e in essays])
        if _vectors_digest(support_embedded, support_ids) != model.vectors_digest:
            raise KaesError(f"{embeddings_path}: the support essays' tokens have other "
                            "vectors than the model was trained with")
    if model.representation != "boswe":
        texts, n_min, n_max = [e.text for e in essays], model.ngram_min, model.ngram_max
        hisk = normalize_kernel(
            kernel_matrix(texts, model.support_texts, row_ids=ids, col_ids=support_ids,
                          n_min=n_min, n_max=n_max),
            self_similarities(texts, n_min, n_max),
            self_similarities(model.support_texts, n_min, n_max))
    block = kernel_block(ids, support_ids, hisk, model.codebook, embedded, support_embedded)
    preds = predict(model.svr, block)
    return [(e, unscale_score(float(p), ASAP_SCORE_RANGES[e.prompt]))
            for e, p in zip(essays, preds)]


def save_model(model: ScoringModel, path: str | Path | BinaryIO) -> None:
    """Write ``model`` as one file; the layout is in the README (Binary formats)."""
    svr, codebook = model.svr, model.codebook
    with open_binary(path, "wb") as stream:
        stream.write(MODEL_MAGIC)
        stream.write(struct.pack("<BIIQ", REPRESENTATIONS.index(model.representation),
                                 model.ngram_min, model.ngram_max, model.vocab_limit or 0))
        stream.write(struct.pack("<I", len(svr.train_ids)))
        for doc_id, coef, text in zip(svr.train_ids, svr.coefficients, model.support_texts):
            write_id(stream, doc_id)
            stream.write(struct.pack("<d", float(coef)))
            write_id(stream, text)
        stream.write(struct.pack("<ddBQ", svr.bias, svr.epsilon_star, svr.converged,
                                 svr.iterations))
        if codebook is not None:
            stream.write(model.vectors_digest)
            stream.write(struct.pack("<II", codebook.k, codebook.dim))
            stream.write(np.ascontiguousarray(codebook.centroids, dtype="<f4").tobytes())


def load_model(path: str | Path | BinaryIO) -> ScoringModel:
    """Read a model written by :func:`save_model`; a malformed file is a BinaryFormatError."""
    with open_binary(path, "rb") as stream:
        reader = Reader(stream)
        reader.expect_magic(MODEL_MAGIC)
        code, ngram_min, ngram_max, vocab_limit = reader.unpack("<BIIQ", "kernel settings")
        if code >= len(REPRESENTATIONS) or not 1 <= ngram_min <= ngram_max:
            raise BinaryFormatError(f"invalid kernel settings: representation {code}, "
                                    f"n-gram range [{ngram_min}, {ngram_max}]",
                                    offset=len(MODEL_MAGIC))
        (count,) = reader.unpack("<I", "row count")
        rows = [(reader.read_id(), reader.read_finite("coefficient"),
                 reader.read_id("support text")) for _ in range(count)]
        bias, epsilon_star = reader.read_finite("bias"), reader.read_finite("epsilon")
        converged, iterations = reader.unpack("<BQ", "solver state")
        svr = SvrModel(coefficients=np.array([row[1] for row in rows], dtype=np.float64),
                       bias=bias, epsilon_star=epsilon_star,
                       train_ids=tuple(row[0] for row in rows),
                       converged=bool(converged), iterations=iterations)
        support_texts = tuple(row[2] for row in rows)
        codebook = digest = None
        if REPRESENTATIONS[code] != "hisk":
            digest = bytes(reader.read(32, "vectors digest"))
            at = reader.offset
            k, dim = reader.unpack("<II", "codebook header")
            if k == 0 or dim == 0:
                raise BinaryFormatError(f"empty codebook: k={k}, dim={dim}", offset=at)
            at = reader.offset
            centroids = np.frombuffer(reader.read(k * dim * 4, "centroids"), dtype="<f4")
            bad = np.flatnonzero(~np.isfinite(centroids))
            if bad.size:
                raise BinaryFormatError(f"centroid value is not finite: {centroids[bad[0]]}",
                                        offset=at + 4 * int(bad[0]))
            codebook = Codebook(centroids.reshape(k, dim).copy())
        reader.expect_end()
    return ScoringModel(svr, REPRESENTATIONS[code], ngram_min, ngram_max, vocab_limit or None,
                        codebook, support_texts, digest)
