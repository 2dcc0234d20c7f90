"""ASAP-format essay ingestion, score scaling, and split planning.

The public ASAP training file is a tab-separated table with one essay per
row.  Parsing is deliberately strict (wrong column counts are errors, scores
are validated against the per-prompt ranges) because silent row drops would
bias every downstream result.  Bytes are decoded as Windows-1252 with
``surrogateescape`` so undecodable bytes survive round trips instead of
corrupting n-gram statistics.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ScoreValidationError, TsvParseError
from .seeding import FOLD_PLAN, TRANSFER_PARTITION, TRANSFER_SUBSAMPLE, derive_rng

_ENCODING = "cp1252"
_REQUIRED_COLUMNS = ("essay_id", "essay_set", "essay", "domain1_score")


@dataclass(frozen=True)
class ScoreRange:
    """Closed integer score interval for one prompt."""

    min: int
    max: int

    def __post_init__(self):
        if not (isinstance(self.min, int) and isinstance(self.max, int)):
            raise ScoreValidationError(f"score range bounds must be integers, got {self!r}")
        if self.min >= self.max:
            raise ScoreValidationError(f"score range must satisfy min < max, got {self!r}")

    @property
    def width(self) -> int:
        return self.max - self.min

    @property
    def n_levels(self) -> int:
        return self.max - self.min + 1

    def contains(self, raw: int) -> bool:
        return self.min <= raw <= self.max

    def __str__(self) -> str:
        return f"{self.min}-{self.max}"


#: Score ranges of the 8 prompts in the public ASAP training data.
ASAP_SCORE_RANGES: dict[int, ScoreRange] = {
    1: ScoreRange(2, 12),
    2: ScoreRange(1, 6),
    3: ScoreRange(0, 3),
    4: ScoreRange(0, 3),
    5: ScoreRange(0, 4),
    6: ScoreRange(0, 4),
    7: ScoreRange(0, 30),
    8: ScoreRange(0, 60),
}


@dataclass(frozen=True)
class Essay:
    """One essay with its raw integer score and the unit-scaled target."""

    id: str
    prompt: int
    text: str
    raw_score: int
    unit_score: float


def scale_score(raw: int, score_range: ScoreRange) -> float:
    """Map an in-range integer score linearly onto [0, 1]."""
    if not score_range.contains(raw):
        raise ScoreValidationError(f"score {raw} outside range {score_range}")
    return (raw - score_range.min) / score_range.width


def unscale_score(unit: float, score_range: ScoreRange) -> int:
    """Map a unit-scale value back to an integer score.

    The inverse is rounded half-up and clamped into the range, so regression
    outputs slightly outside [0, 1] still yield valid scores.
    """
    raw = math.floor(unit * score_range.width + score_range.min + 0.5)
    return min(max(raw, score_range.min), score_range.max)


def parse_asap_tsv(
    data: bytes,
    prompt_filter: int | None = None,
) -> list[Essay]:
    """Parse ASAP-format TSV bytes into validated essays.

    Args:
        data: raw file content (header row required; CR/LF tolerated).
        prompt_filter: if given, keep only rows of that prompt.

    Raises:
        TsvParseError: missing columns, wrong column count, non-integer
            fields (message carries the 1-based line number).
        ScoreValidationError: unknown prompt or out-of-range score (message
            carries the essay id).
    """
    text = data.decode(_ENCODING, errors="surrogateescape")
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise TsvParseError("empty file", line=1)

    header = [c.strip() for c in lines[0].rstrip("\r").split("\t")]
    missing = [c for c in _REQUIRED_COLUMNS if c not in header]
    if missing:
        raise TsvParseError(f"missing required columns: {', '.join(missing)}", line=1)
    col = {name: header.index(name) for name in _REQUIRED_COLUMNS}

    essays: list[Essay] = []
    seen_ids: set[str] = set()
    for lineno, line in enumerate(lines[1:], start=2):
        row = line.rstrip("\r").split("\t")
        if line.strip() == "":
            continue
        if len(row) != len(header):
            raise TsvParseError(
                f"wrong column count: expected {len(header)}, got {len(row)}", line=lineno
            )
        essay_id = row[col["essay_id"]].strip()
        try:
            prompt = int(row[col["essay_set"]])
        except ValueError:
            raise TsvParseError(f"non-integer essay_set {row[col['essay_set']]!r}", line=lineno)
        if prompt_filter is not None and prompt != prompt_filter:
            continue
        if prompt not in ASAP_SCORE_RANGES:
            raise ScoreValidationError(f"essay {essay_id}: unknown prompt {prompt}")
        try:
            raw_score = int(row[col["domain1_score"]])
        except ValueError:
            raise TsvParseError(
                f"non-integer domain1_score {row[col['domain1_score']]!r}", line=lineno
            )
        score_range = ASAP_SCORE_RANGES[prompt]
        if not score_range.contains(raw_score):
            raise ScoreValidationError(
                f"essay {essay_id}: score {raw_score} outside range {score_range}"
                f" of prompt {prompt}"
            )
        if essay_id in seen_ids:
            raise TsvParseError(f"duplicate essay_id {essay_id!r}", line=lineno)
        seen_ids.add(essay_id)
        essays.append(
            Essay(
                id=essay_id,
                prompt=prompt,
                text=row[col["essay"]],
                raw_score=raw_score,
                unit_score=scale_score(raw_score, score_range),
            )
        )
    return essays


@dataclass(frozen=True)
class FoldPlan:
    """Per-repetition partition of a fixed essay set into folds.

    ``assignment[rep][essay_id]`` is the fold index of that essay in that
    repetition.  Every repetition partitions the same id set; fold sizes
    differ by at most one.
    """

    assignment: tuple[dict[str, int], ...]

    def split_ids(self, repetition: int, fold: int) -> tuple[tuple[str, ...], tuple[str, ...]]:
        """Return (train_ids, eval_ids) for one repetition/fold cell."""
        mapping = self.assignment[repetition]
        train = tuple(eid for eid, f in mapping.items() if f != fold)
        evaluation = tuple(eid for eid, f in mapping.items() if f == fold)
        return train, evaluation


def make_folds(essays: list[Essay], fold_count: int, repetitions: int, seed: int) -> FoldPlan:
    """Build a deterministic fold plan: one uniform partition per repetition."""
    ids = [e.id for e in essays]
    if len(set(ids)) != len(ids):
        raise ScoreValidationError("duplicate essay ids in fold input")
    if len(ids) < fold_count:
        raise ScoreValidationError(
            f"cannot split {len(ids)} essays into {fold_count} folds"
        )
    assignment = []
    for rep in range(repetitions):
        rng = derive_rng(seed, FOLD_PLAN, rep)
        order = rng.permutation(len(ids))
        mapping: dict[str, int] = {}
        base, extra = divmod(len(ids), fold_count)
        start = 0
        for fold in range(fold_count):
            size = base + (1 if fold < extra else 0)
            for pos in order[start : start + size]:
                mapping[ids[pos]] = fold
            start += size
        # Re-key in corpus order so iteration over the mapping is stable.
        assignment.append({eid: mapping[eid] for eid in ids})
    return FoldPlan(assignment=tuple(assignment))


def make_transfer_split(
    target_essays: list[Essay],
    n_t: int,
    repetition: int,
    seed: int,
    fold_count: int = 5,
) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split target-prompt essays for one transfer repetition.

    The target set is partitioned once per root seed into ``fold_count``
    folds; repetition ``i`` evaluates on fold ``i mod fold_count`` and draws
    a fresh sub-sample of ``n_t`` ids (without replacement) from the other
    folds.  Returns ``(extra_train_ids, eval_ids)``, always disjoint.
    """
    plan = make_folds(target_essays, fold_count=fold_count, repetitions=1,
                      seed=_mix_partition_seed(seed))
    eval_fold = repetition % fold_count
    pool, eval_ids = plan.split_ids(0, eval_fold)
    if n_t > len(pool):
        raise ScoreValidationError(
            f"sub-sample size {n_t} exceeds the {len(pool)} essays outside the eval fold"
        )
    if n_t == 0:
        return (), eval_ids
    rng = derive_rng(seed, TRANSFER_SUBSAMPLE, repetition)
    picked = rng.choice(len(pool), size=n_t, replace=False)
    return tuple(pool[i] for i in sorted(picked)), eval_ids


def _mix_partition_seed(seed: int) -> int:
    # The fixed partition shared by all repetitions lives on its own stream.
    return int(derive_rng(seed, TRANSFER_PARTITION).integers(0, 2**31 - 1))
