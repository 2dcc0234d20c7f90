"""Quadratic weighted kappa over integer scores.

Agreement is chance-corrected with quadratic penalties on the disagreement
distance.  The confusion and expected matrices are always built over the
full declared score range (not just the observed values), so folds that
happen to miss a score level stay comparable.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .corpus import ScoreRange
from .errors import KaesError, ScoreValidationError


@dataclass(frozen=True)
class QwkReport:
    """One kappa value with its observed-count matrix (rows: predicted)."""

    kappa: float
    confusion: np.ndarray
    n_items: int
    score_range: ScoreRange
    degenerate: bool = False

    def to_text(self) -> str:
        return (
            f"qwk={self.kappa:.6f} n_items={self.n_items} "
            f"range={self.score_range} degenerate={str(self.degenerate).lower()}"
        )


def qwk(
    pred: Sequence[int], gold: Sequence[int], score_range: ScoreRange
) -> QwkReport:
    """Quadratic weighted kappa between predicted and gold integer scores.

    Degenerate inputs where both sides are concentrated on a single score
    are flagged: kappa is 1 when they agree on that score (the chance
    denominator vanishes) and 0 when they do not.
    """
    pred = np.asarray(pred, dtype=np.int64)
    gold = np.asarray(gold, dtype=np.int64)
    if pred.ndim != 1 or pred.shape != gold.shape:
        raise KaesError(f"length mismatch: {pred.shape} vs {gold.shape}")
    if pred.size == 0:
        raise KaesError("cannot compute kappa of empty score lists")
    for name, arr in (("pred", pred), ("gold", gold)):
        bad = (arr < score_range.min) | (arr > score_range.max)
        if bad.any():
            raise ScoreValidationError(
                f"{name} score {int(arr[bad][0])} outside range {score_range}"
            )
    n_levels = score_range.n_levels

    n = pred.size
    confusion = np.zeros((n_levels, n_levels), dtype=np.int64)
    np.add.at(confusion, (pred - score_range.min, gold - score_range.min), 1)

    pred_constant = np.all(pred == pred[0])
    gold_constant = np.all(gold == gold[0])
    if pred_constant and gold_constant:
        kappa = 1.0 if pred[0] == gold[0] else 0.0
        return QwkReport(
            kappa=kappa, confusion=confusion, n_items=n, score_range=score_range,
            degenerate=True,
        )

    levels = np.arange(n_levels)
    weights = ((levels[:, None] - levels[None, :]) ** 2) / (n_levels - 1) ** 2
    expected = np.outer(confusion.sum(axis=1), confusion.sum(axis=0)) / n
    numerator = float((weights * confusion).sum())
    denominator = float((weights * expected).sum())
    return QwkReport(
        kappa=1.0 - numerator / denominator,
        confusion=confusion,
        n_items=n,
        score_range=score_range,
    )


def average_qwk(reports: Sequence[QwkReport | float]) -> float:
    """Unweighted mean kappa across folds, repetitions, or prompts."""
    if len(reports) == 0:
        raise KaesError("cannot average an empty list of reports")
    values = [r.kappa if isinstance(r, QwkReport) else float(r) for r in reports]
    return float(np.mean(values))
