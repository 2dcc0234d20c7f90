"""Independent reference implementations used to check the real code.

Everything here is deliberately brute force and shares no code with the
package: substring counting by rescanning the strings, kappa by double
loops over the formula, nearest centroids by a linear scan, k-means++
seeding and histogram intersections by the elementwise formulas, the nu-SVR
dual solved by projected gradient with an accelerated first-order method
run to a tight fixed-point tolerance, the SMO loop of that dual as first
written (the bit-for-bit reference of the solver), and explicit feature
rows whose inner products are the linear kernel, a word2vec loader that
finds each record's fields in the whole byte string.  The in-domain
protocol and ``train_model`` are rebuilt from these pieces; only the fold
plan, the seed streams, the tokenizer and k-means come from the package.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Collection, Sequence

import numpy as np

from kaes.boswe import Codebook, fit_codebook
from kaes.corpus import ASAP_SCORE_RANGES, Essay, make_folds
from kaes.embeddings import _MAX_DIM, DEFAULT_VOCAB_LIMIT, EmbeddingModel, tokenize
from kaes.errors import BinaryFormatError, KaesError, KernelMismatchError
from kaes.seeding import CODEBOOK, derive_rng
from kaes.string_kernel import KernelMatrix, normalize_text


def count_occurrences(haystack: str, needle: str) -> int:
    """Occurrences of needle as a (possibly overlapping) substring."""
    n = len(needle)
    return sum(1 for i in range(len(haystack) - n + 1) if haystack[i : i + n] == needle)


def naive_ngram_counts(text: str, n_min: int, n_max: int) -> dict[str, int]:
    s = normalize_text(text)
    counts: dict[str, int] = {}
    for n in range(n_min, n_max + 1):
        for i in range(len(s) - n + 1):
            gram = s[i : i + n]
            counts[gram] = counts.get(gram, 0) + 1
    return counts


def naive_hisk(x: str, y: str, n_min: int, n_max: int) -> int:
    """Min-sum intersection kernel by direct double-loop substring matching."""
    sx, sy = normalize_text(x), normalize_text(y)
    total = 0
    for n in range(n_min, n_max + 1):
        seen: set[str] = set()
        for i in range(len(sx) - n + 1):
            gram = sx[i : i + n]
            if gram in seen:
                continue
            seen.add(gram)
            in_y = count_occurrences(sy, gram)
            if in_y:
                total += min(count_occurrences(sx, gram), in_y)
    return total


def qwk_direct(pred, gold, lo: int, hi: int) -> float:
    """Quadratic weighted kappa straight from the definition."""
    n_levels = hi - lo + 1
    n = len(pred)
    observed = [[0.0] * n_levels for _ in range(n_levels)]
    for p, g in zip(pred, gold):
        observed[p - lo][g - lo] += 1
    pred_marginal = [sum(observed[i][j] for j in range(n_levels)) for i in range(n_levels)]
    gold_marginal = [sum(observed[i][j] for i in range(n_levels)) for j in range(n_levels)]
    num = 0.0
    den = 0.0
    for i in range(n_levels):
        for j in range(n_levels):
            w = (i - j) ** 2 / (n_levels - 1) ** 2
            num += w * observed[i][j]
            den += w * pred_marginal[i] * gold_marginal[j] / n
    if den == 0.0:
        return 1.0
    return 1.0 - num / den


def nearest_centroid_linear(points: np.ndarray, centroids: np.ndarray) -> np.ndarray:
    """Nearest-centroid id of each point by a linear scan; ties to the lowest id.

    Distances are the elementwise float64 sums of squared differences, the
    definition the codebook's assignment must reproduce bit for bit.
    """
    centroids = np.asarray(centroids, dtype=np.float64)
    return np.array(
        [int(np.argmin(((centroids - p) ** 2).sum(axis=1)))
         for p in np.asarray(points, dtype=np.float64)],
        dtype=np.int64,
    )


def codebook_distortion(points: np.ndarray, codebook) -> float:
    """Mean squared distance of the points to their nearest centroids of ``codebook``.

    The codebook's stored float32 centroids are compared in float64, nearest
    by :func:`nearest_centroid_linear`.
    """
    points = np.asarray(points, dtype=np.float64)
    centroids = np.asarray(codebook.centroids, dtype=np.float64)
    labels = nearest_centroid_linear(points, centroids)
    return float(((points - centroids[labels]) ** 2).sum(axis=1).mean())


def kmeans_pp_reference(
    points: np.ndarray, k: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """k-means++ seeds, and each point's squared distance to its nearest seed.

    Every distance is the elementwise float64 formula, recomputed for every
    point at every new center; fewer than k distinct rows is an error before
    any draw.
    """
    n_distinct = np.unique(points, axis=0).shape[0]
    if n_distinct < k:
        raise KaesError(f"need at least k={k} distinct vectors, got {n_distinct}")
    n = points.shape[0]
    centers = np.empty((k, points.shape[1]), dtype=np.float64)
    centers[0] = points[int(rng.integers(n))]
    closest = ((points - centers[0]) ** 2).sum(axis=1)
    for j in range(1, k):
        total = closest.sum()
        if total <= 0:
            idx = int(rng.integers(n))
        else:
            idx = int(rng.choice(n, p=closest / total))
        centers[j] = points[idx]
        closest = np.minimum(closest, ((points - centers[j]) ** 2).sum(axis=1))
    return centers, closest


def histogram_dicts(labels_per_doc) -> list[dict[int, float]]:
    """L1-normalized cluster histograms as {cluster id: weight}, ids ascending."""
    out = []
    for labels in labels_per_doc:
        counts: dict[int, int] = {}
        for label in sorted(int(x) for x in labels):
            counts[label] = counts.get(label, 0) + 1
        out.append({cid: count / len(labels) for cid, count in counts.items()})
    return out


def hik_reference(
    rows: list[dict[int, float]], cols: list[dict[int, float]] | None = None
) -> np.ndarray:
    """Min-sum intersection Gram of dict histograms, one pair at a time.

    Each entry adds the smaller weight of every shared cluster in ascending
    cluster id, starting from 0.0.
    """

    def pair(a: dict[int, float], b: dict[int, float]) -> float:
        value = 0.0
        for cid in sorted(a):
            if cid in b:
                value += min(a[cid], b[cid])
        return value

    cols = rows if cols is None else cols
    return np.array([[pair(a, b) for b in cols] for a in rows], dtype=np.float64)


def project_capped_simplex(v: np.ndarray, cap: float, total: float) -> np.ndarray:
    """Project v onto {0 <= x <= cap, sum(x) = total}.

    The optimum is clip(v - shift, 0, cap) for the shift that makes the sum
    hit ``total``; the sum is piecewise linear in the shift with breakpoints
    at v_i and v_i - cap, so the exact shift comes from bracketing those
    breakpoints and solving the linear piece.
    """
    breakpoints = np.unique(np.concatenate([v, v - cap]))
    sums = np.clip(v[None, :] - breakpoints[:, None], 0.0, cap).sum(axis=1)
    # sums is non-increasing in the shift; find the segment containing total.
    idx = int(np.searchsorted(-sums, -total))
    if idx == 0:
        shift = breakpoints[0] - (total - sums[0]) / len(v)
    elif idx == len(breakpoints):
        shift = breakpoints[-1]
    else:
        left, right = breakpoints[idx - 1], breakpoints[idx]
        s_left, s_right = sums[idx - 1], sums[idx]
        if s_left == s_right:
            shift = left
        else:
            shift = left + (total - s_left) * (right - left) / (s_right - s_left)
    return np.clip(v - shift, 0.0, cap)


def dual_objective(kernel: KernelMatrix, y: np.ndarray, coefficients: np.ndarray) -> float:
    """nu-SVR dual objective 0.5 c' K c - y' c of signed coefficients c = a - s."""
    coef = np.asarray(coefficients, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return 0.5 * float(coef @ kernel.values @ coef) - float(y @ coef)


def solve_nu_svr_qp(
    kernel: np.ndarray,
    y: np.ndarray,
    c: float,
    nu: float,
    max_iters: int = 100_000,
    tol: float = 1e-10,
):
    """Brute-force projected-gradient solution of the nu-SVR dual.

    Minimizes 0.5 (a-s)' K (a-s) - y' (a-s) over 0 <= a, s <= c/r with
    sum(a) = sum(s) = c*nu/2 (the two equality constraints of the nu dual,
    decoupled per block).  Accelerated with FISTA plus a monotone restart,
    iterated until the projected-gradient fixed-point residual is tiny.

    Returns (a, s, objective).
    """
    kernel = np.asarray(kernel, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    r = kernel.shape[0]
    cap = c / r
    half = c * nu / 2.0

    lipschitz = 2.0 * float(np.linalg.eigvalsh(kernel).max()) + 1e-12
    step = 1.0 / lipschitz

    def objective(a, s):
        coef = a - s
        return 0.5 * float(coef @ kernel @ coef) - float(y @ coef)

    def gradient(a, s):
        u = kernel @ (a - s)
        return u - y, y - u

    def project(a, s):
        return (
            project_capped_simplex(a, cap, half),
            project_capped_simplex(s, cap, half),
        )

    a = np.full(r, half / r)
    s = np.full(r, half / r)
    best_obj = objective(a, s)
    acc_a, acc_s = a.copy(), s.copy()
    t = 1.0
    for it in range(max_iters):
        ga, gs = gradient(acc_a, acc_s)
        new_a, new_s = project(acc_a - step * ga, acc_s - step * gs)
        new_obj = objective(new_a, new_s)
        if new_obj > best_obj:  # monotone restart
            acc_a, acc_s = a.copy(), s.copy()
            t = 1.0
            ga, gs = gradient(acc_a, acc_s)
            new_a, new_s = project(acc_a - step * ga, acc_s - step * gs)
            new_obj = objective(new_a, new_s)
        t_next = 0.5 * (1.0 + np.sqrt(1.0 + 4.0 * t * t))
        momentum = (t - 1.0) / t_next
        acc_a = new_a + momentum * (new_a - a)
        acc_s = new_s + momentum * (new_s - s)
        a, s, best_obj, t = new_a, new_s, new_obj, t_next
        if it % 20 == 19:
            ga, gs = gradient(a, s)
            pa, ps = project(a - step * ga, s - step * gs)
            residual = max(np.abs(pa - a).max(), np.abs(ps - s).max())
            if residual < tol * max(1.0, cap):
                break
    return a, s, objective(a, s)


def _class_level(g: np.ndarray, beta: np.ndarray, bound: float) -> float:
    free = (beta > 0.0) & (beta < bound)
    if free.any():
        return float(g[free].mean())
    at_upper = beta >= bound
    at_lower = beta <= 0.0
    lo = float(g[at_upper].max()) if at_upper.any() else -np.inf
    hi = float(g[at_lower].min()) if at_lower.any() else np.inf
    if np.isinf(lo) and np.isinf(hi):
        return 0.0
    if np.isinf(lo):
        return hi
    if np.isinf(hi):
        return lo
    return (lo + hi) / 2.0


def smo_reference(
    values: np.ndarray,
    y: np.ndarray,
    c: float,
    nu: float,
    kkt_tolerance: float,
    max_iterations: int,
    refresh_interval: int = 1 << 16,
):
    """The nu-SVR SMO loop as first written, one numpy expression per step.

    Each block (a and a*) keeps its own arrays, the maximal violating pair
    of each comes from ``np.where`` sentinels, and each update reads two
    strided kernel columns.  ``kaes.svr.train_nu_svr`` must return the same
    coefficients, bias, epsilon, iteration count and convergence flag bit
    for bit.  ``values`` must be a valid training kernel (square, finite,
    symmetric to 1e-12) with at least one row.

    Returns (coefficients, bias, epsilon_star, iterations, converged).
    """
    r = values.shape[0]
    bound = c / r
    budget = c * nu
    beta_a = np.clip(budget / 2.0 - np.arange(r) * bound, 0.0, bound)
    beta_s = beta_a.copy()
    u = np.zeros(r)

    tol = kkt_tolerance
    iterations = 0
    converged = False
    while iterations < max_iterations:
        g_a = u - y

        up_a = np.where(beta_a < bound, g_a, np.inf)
        i_up_a = int(np.argmin(up_a))
        low_a = np.where(beta_a > 0.0, g_a, -np.inf)
        i_low_a = int(np.argmax(low_a))
        viol_a = low_a[i_low_a] - up_a[i_up_a]

        g_s = -g_a
        up_s = np.where(beta_s < bound, g_s, np.inf)
        i_up_s = int(np.argmin(up_s))
        low_s = np.where(beta_s > 0.0, g_s, -np.inf)
        i_low_s = int(np.argmax(low_s))
        viol_s = low_s[i_low_s] - up_s[i_up_s]

        if max(viol_a, viol_s) < tol:
            converged = True
            break

        if viol_a >= viol_s:
            beta, g, i, j, sign = beta_a, g_a, i_up_a, i_low_a, 1.0
        else:
            beta, g, i, j, sign = beta_s, g_s, i_up_s, i_low_s, -1.0

        eta = values[i, i] + values[j, j] - 2.0 * values[i, j]
        if eta < 1e-12:
            eta = 1e-12
        room_i = bound - beta[i]
        room_j = beta[j]
        delta = min((g[j] - g[i]) / eta, room_i, room_j)
        if delta == room_i:
            beta[i] = bound
        else:
            beta[i] += delta
        if delta == room_j:
            beta[j] = 0.0
        else:
            beta[j] -= delta

        u += (sign * delta) * (values[:, i] - values[:, j])
        iterations += 1
        if iterations % refresh_interval == 0:
            u = values @ (beta_a - beta_s)

    g_a = u - y
    rho_a = _class_level(g_a, beta_a, bound)
    rho_s = _class_level(-g_a, beta_s, bound)
    return beta_a - beta_s, (rho_s - rho_a) / 2.0, -(rho_a + rho_s) / 2.0, iterations, converged


@dataclass(frozen=True)
class FeatureMatrix:
    """Explicit feature rows for documents."""

    ids: tuple[str, ...]
    values: np.ndarray  # (documents, features)

    @property
    def cols(self) -> int:
        return self.values.shape[1]


def linear_gram(x: FeatureMatrix, y: FeatureMatrix | None = None) -> KernelMatrix:
    """Inner-product matrix between explicit feature rows."""
    y_eff = x if y is None else y
    if x.cols != y_eff.cols:
        raise KernelMismatchError(f"feature counts differ: {x.cols} vs {y_eff.cols}")
    return KernelMatrix(values=x.values @ y_eff.values.T, row_ids=x.ids, col_ids=y_eff.ids)


def concat_features(x1: FeatureMatrix, x2: FeatureMatrix) -> FeatureMatrix:
    """Column-concatenate two feature matrices over the same documents."""
    if x1.ids != x2.ids:
        raise KernelMismatchError(f"document ids differ: {x1.ids} vs {x2.ids}")
    return FeatureMatrix(ids=x1.ids, values=np.hstack([x1.values, x2.values]))


def load_word2vec_reference(
    data: bytes,
    vocab_limit: int | None = DEFAULT_VOCAB_LIMIT,
    keep: Collection[str] | None = None,
) -> EmbeddingModel:
    """``load_word2vec_binary`` of the file ``data``, one record at a time: the
    token runs to the next space, less its leading newlines, and the vector is
    the ``4 * dim`` bytes after that space."""
    end = data.find(b"\n")
    if end == -1:
        raise BinaryFormatError("stream ended while reading header", offset=0)
    header = data[:end]
    try:
        count_s, dim_s = header.split()
        vocab_size, dim = int(count_s), int(dim_s)
    except ValueError:
        raise BinaryFormatError(f"malformed header {header!r}", offset=0) from None
    if vocab_size <= 0 or dim <= 0:
        raise BinaryFormatError(f"non-positive header values {header!r}", offset=0)
    if dim > _MAX_DIM:
        raise BinaryFormatError(f"dimension too large in header {header!r}", offset=0)

    n_scan = vocab_size if vocab_limit is None else min(vocab_limit, vocab_size)
    vocab: dict[str, int] = {}
    rows: list[np.ndarray] = []
    pos = end + 1
    for _ in range(n_scan):
        space = data.find(b" ", pos)
        if space == -1:
            raise BinaryFormatError("stream ended while reading token", offset=pos)
        token = data[pos:space].lstrip(b"\n").decode("utf-8", errors="surrogateescape")
        pos = space + 1 + 4 * dim
        vector = data[space + 1 : pos]
        if len(vector) < 4 * dim:
            raise BinaryFormatError(f"truncated vector of {token!r}: expected {4 * dim} bytes, "
                                    f"only {len(vector)} available", offset=space + 1)
        if token not in vocab and (keep is None or token in keep):
            vocab[token] = len(rows)
            rows.append(np.frombuffer(vector, dtype="<f4"))
    vectors = np.vstack(rows) if rows else np.zeros((0, dim), dtype=np.float32)
    return EmbeddingModel(dim=dim, vocab=vocab, vectors=vectors)


@dataclass(frozen=True)
class ReferenceSplit:
    """One split as :func:`reference_split` computes it.

    ``points`` and ``codebook`` are None for hisk; ``fit`` is what
    :func:`smo_reference` returns for ``train_block`` and ``y``.
    """

    train_ids: tuple[str, ...]
    eval_ids: tuple[str, ...]
    points: np.ndarray | None
    seed: int
    codebook: Codebook | None
    train_block: np.ndarray
    eval_block: np.ndarray
    y: np.ndarray
    fit: tuple


def reference_split(
    cfg, by_id: dict[str, Essay], vectors: EmbeddingModel, seed: int,
    train_ids: Sequence[str], eval_ids: Sequence[str], memo: dict | None = None,
) -> ReferenceSplit:
    """Fit one split of ``cfg.representation`` from the references above.

    The codebook's points are the vectors of the training essays'
    in-vocabulary token types in sorted token order.  It is fitted with the
    package's ``fit_codebook``: its Lloyd step sums each cluster with
    ``np.add.reduceat``, which neither a row loop nor a masked sum matches
    bit for bit.  Each essay's labels are those of its in-vocabulary tokens
    by :func:`nearest_centroid_linear`, its histogram is
    :func:`histogram_dicts`' and the block :func:`hik_reference`'s.  The
    n-gram block is :func:`naive_hisk` over the square root of the two
    self-similarities; ``memo`` keeps the pair values across splits.  Fused
    adds the two.  ``cfg`` supplies the settings (an ``ExperimentConfig``).
    """
    train_ids, eval_ids = tuple(train_ids), tuple(eval_ids)
    rows = train_ids + eval_ids
    memo = {} if memo is None else memo

    def hisk(x: str, y: str) -> int:
        if (x, y) not in memo:
            memo[x, y] = memo[y, x] = naive_hisk(x, y, cfg.ngram_min, cfg.ngram_max)
        return memo[x, y]

    blocks = []
    if cfg.representation != "boswe":
        text = {eid: by_id[eid].text for eid in rows}
        blocks.append(np.array(
            [[hisk(text[a], text[b]) / math.sqrt(hisk(text[a], text[a]) * hisk(text[b], text[b]))
              for b in train_ids] for a in rows], dtype=np.float64))
    points = codebook = None
    if cfg.representation != "hisk":
        tokens = {eid: [t for t in tokenize(by_id[eid].text) if t in vectors.vocab] for eid in rows}
        types = sorted({t for eid in train_ids for t in tokens[eid]})
        points = vectors.vectors[[vectors.vocab[t] for t in types]]
        codebook = fit_codebook(points, k=cfg.k, seed=seed, max_iters=cfg.kmeans_iters)
        labels = [nearest_centroid_linear(
            vectors.vectors[[vectors.vocab[t] for t in tokens[eid]]].reshape(-1, vectors.dim),
            codebook.centroids) for eid in rows]
        histograms = histogram_dicts(labels)
        blocks.append(hik_reference(histograms, histograms[:len(train_ids)]))
    block = blocks[0] if len(blocks) == 1 else blocks[0] + blocks[1]
    train_block, eval_block = block[:len(train_ids)], block[len(train_ids):]
    y = np.array([by_id[eid].unit_score for eid in train_ids])
    svr = cfg.svr
    fit = smo_reference(train_block, y, svr.c, svr.nu, svr.kkt_tolerance, svr.max_iterations)
    return ReferenceSplit(train_ids, eval_ids, points, seed, codebook, train_block, eval_block,
                          y, fit)


def reference_kappa(split: ReferenceSplit, by_id: dict[str, Essay], prompt: int) -> float:
    """QWK of a split's eval essays: each scored by its kernel row, one
    product at a time, unscaled half-up and clamped to the prompt's range."""
    score_range = ASAP_SCORE_RANGES[prompt]
    coefficients, bias = split.fit[0], split.fit[1]
    predictions = []
    for row in split.eval_block:
        unit = bias
        for value, coefficient in zip(row, coefficients):
            unit += value * coefficient
        raw = math.floor(unit * (score_range.max - score_range.min) + score_range.min + 0.5)
        predictions.append(min(max(raw, score_range.min), score_range.max))
    gold = [by_id[eid].raw_score for eid in split.eval_ids]
    return qwk_direct(predictions, gold, score_range.min, score_range.max)


def reference_train(cfg, essays: Sequence[Essay], vectors: EmbeddingModel) -> ReferenceSplit:
    """``train_model``'s one split: every essay but the blank ones in
    training, none to score, the codebook fitted with ``cfg.seed``."""
    by_id = {e.id: e for e in essays if normalize_text(e.text)}
    return reference_split(cfg, by_id, vectors, cfg.seed, tuple(by_id), ())


def reference_in_domain(
    cfg, essays: Sequence[Essay], vectors: EmbeddingModel
) -> list[tuple[ReferenceSplit, float]]:
    """Every split of the in-domain protocol, with its kappa, in report order.

    Blank essays (nothing left once normalized) are dropped.  Per prompt,
    ascending, the splits come from ``make_folds`` over its essays,
    repetition by repetition and fold by fold; each split's codebook seed
    is drawn from ``derive_rng(cfg.seed, CODEBOOK, rep, fold)``.
    ``cfg.repetitions`` must be set.
    """
    essays = [e for e in essays if normalize_text(e.text)]
    by_id = {e.id: e for e in essays}
    reps, memo, out = cfg.repetitions, {}, []
    for prompt in sorted({e.prompt for e in essays}):
        plan = make_folds([e for e in essays if e.prompt == prompt], fold_count=cfg.folds,
                          repetitions=reps, seed=cfg.seed)
        for rep in range(reps):
            for fold in range(cfg.folds):
                seed = int(derive_rng(cfg.seed, CODEBOOK, rep, fold).integers(0, 2**31 - 1))
                split = reference_split(cfg, by_id, vectors, seed, *plan.split_ids(rep, fold),
                                        memo=memo)
                out.append((split, reference_kappa(split, by_id, prompt)))
    return out
