from __future__ import annotations

import pytest
from hypothesis import given, strategies as st

from kaes.corpus import (
    ASAP_SCORE_RANGES,
    Essay,
    ScoreRange,
    make_folds,
    make_transfer_split,
    parse_asap_tsv,
    scale_score,
    unscale_score,
)
from kaes.errors import ScoreValidationError, TsvParseError


def tsv(rows: list[str]) -> bytes:
    header = "essay_id\tessay_set\tessay\tdomain1_score"
    return ("\n".join([header] + rows) + "\n").encode("cp1252")


def make_essays(n: int, prompt: int = 1) -> list[Essay]:
    rng = ASAP_SCORE_RANGES[prompt]
    return [
        Essay(id=str(i), prompt=prompt, text=f"essay number {i}", raw_score=rng.min,
              unit_score=0.0)
        for i in range(n)
    ]


class TestScaling:
    def test_midpoint(self):
        assert scale_score(7, ScoreRange(2, 12)) == 0.5

    def test_lower_endpoint(self):
        assert scale_score(2, ScoreRange(2, 12)) == 0.0

    def test_linear_map(self):
        assert scale_score(45, ScoreRange(0, 60)) == 0.75

    def test_out_of_range(self):
        with pytest.raises(ScoreValidationError):
            scale_score(13, ScoreRange(2, 12))

    def test_unscale_midpoint(self):
        assert unscale_score(0.5, ScoreRange(2, 12)) == 7

    def test_unscale_clamps_high(self):
        assert unscale_score(1.3, ScoreRange(0, 4)) == 4

    def test_unscale_clamps_low(self):
        assert unscale_score(-0.1, ScoreRange(0, 30)) == 0

    def test_invalid_range(self):
        with pytest.raises(ScoreValidationError):
            ScoreRange(5, 5)

    @given(st.sampled_from(sorted(ASAP_SCORE_RANGES)), st.data())
    def test_round_trip_on_integers(self, prompt, data):
        rng = ASAP_SCORE_RANGES[prompt]
        raw = data.draw(st.integers(rng.min, rng.max))
        assert unscale_score(scale_score(raw, rng), rng) == raw


class TestParse:
    def test_two_row_fixture_endpoints(self):
        essays = parse_asap_tsv(tsv(["1\t1\tfirst essay\t2", "2\t1\tsecond essay\t12"]))
        assert [e.unit_score for e in essays] == [0.0, 1.0]

    def test_prompt8_top_score(self):
        (essay,) = parse_asap_tsv(tsv(["9\t8\tlong answer\t60"]))
        assert essay.unit_score == 1.0

    def test_score_outside_range_names_essay(self):
        with pytest.raises(ScoreValidationError, match="essay 5"):
            parse_asap_tsv(tsv(["5\t1\ttext\t13"]))

    def test_wrong_column_count_reports_line(self):
        with pytest.raises(TsvParseError, match="line 3"):
            parse_asap_tsv(tsv(["1\t1\tok\t2", "2\t1\tbroken"]))

    def test_missing_column(self):
        data = b"essay_id\tessay\n1\thello\n"
        with pytest.raises(TsvParseError, match="essay_set"):
            parse_asap_tsv(data)

    def test_prompt_filter(self):
        data = tsv(["1\t1\tone\t2", "2\t2\ttwo\t3", "3\t1\tthree\t12"])
        essays = parse_asap_tsv(data, prompt_filter=1)
        assert [e.id for e in essays] == ["1", "3"]

    def test_windows_1252_text(self):
        row = "1\t1\tcaf\xe9 visit\t2".encode("cp1252")
        header = b"essay_id\tessay_set\tessay\tdomain1_score\n"
        (essay,) = parse_asap_tsv(header + row)
        assert "caf\xe9" in essay.text

    def test_crlf_tolerated(self):
        data = b"essay_id\tessay_set\tessay\tdomain1_score\r\n1\t1\thello\t2\r\n"
        (essay,) = parse_asap_tsv(data)
        assert essay.text == "hello"

    def test_duplicate_id(self):
        with pytest.raises(TsvParseError, match="duplicate"):
            parse_asap_tsv(tsv(["1\t1\tone\t2", "1\t1\ttwo\t3"]))

    def test_non_integer_score(self):
        with pytest.raises(TsvParseError, match="line 2"):
            parse_asap_tsv(tsv(["1\t1\tone\tX"]))

    def test_anonymization_tokens_survive(self):
        (essay,) = parse_asap_tsv(tsv(["1\t1\t@PERSON1 went home\t2"]))
        assert "@PERSON1" in essay.text


class TestFolds:
    def test_balanced_partition(self):
        plan = make_folds(make_essays(10), fold_count=5, repetitions=1, seed=0)
        sizes = [len(plan.split_ids(0, f)[1]) for f in range(5)]
        assert sizes == [2, 2, 2, 2, 2]

    def test_remainder_rule(self):
        plan = make_folds(make_essays(11), fold_count=5, repetitions=1, seed=0)
        sizes = sorted(len(plan.split_ids(0, f)[1]) for f in range(5))
        assert sizes == [2, 2, 2, 2, 3]

    def test_determinism(self):
        a = make_folds(make_essays(23), fold_count=5, repetitions=3, seed=7)
        b = make_folds(make_essays(23), fold_count=5, repetitions=3, seed=7)
        assert a.assignment == b.assignment

    def test_different_seeds_differ(self):
        a = make_folds(make_essays(23), fold_count=5, repetitions=1, seed=7)
        b = make_folds(make_essays(23), fold_count=5, repetitions=1, seed=8)
        assert a.assignment != b.assignment

    def test_partition_property(self):
        essays = make_essays(17)
        plan = make_folds(essays, fold_count=5, repetitions=4, seed=3)
        all_ids = {e.id for e in essays}
        for rep in range(4):
            folds = [set(plan.split_ids(rep, f)[1]) for f in range(5)]
            assert set().union(*folds) == all_ids
            assert sum(len(f) for f in folds) == len(all_ids)

    def test_too_few_essays(self):
        with pytest.raises(ScoreValidationError):
            make_folds(make_essays(3), fold_count=5, repetitions=1, seed=0)


class TestTransferSplit:
    def test_zero_subsample(self):
        extra, evaluation = make_transfer_split(make_essays(30), 0, 0, seed=5)
        assert extra == ()
        assert len(evaluation) > 0

    def test_exact_subsample_size(self):
        extra, evaluation = make_transfer_split(make_essays(30), 10, 1, seed=5)
        assert len(extra) == 10
        assert set(extra).isdisjoint(evaluation)

    @pytest.mark.parametrize("n_t", [0, 5, 10, 20])
    def test_disjointness(self, n_t):
        for rep in range(5):
            extra, evaluation = make_transfer_split(make_essays(40), n_t, rep, seed=9)
            assert set(extra).isdisjoint(evaluation)
            assert len(extra) == n_t

    def test_determinism(self):
        a = make_transfer_split(make_essays(40), 10, 2, seed=9)
        b = make_transfer_split(make_essays(40), 10, 2, seed=9)
        assert a == b

    def test_eval_fold_rotates(self):
        evals = [set(make_transfer_split(make_essays(40), 0, rep, seed=9)[1])
                 for rep in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                assert evals[i].isdisjoint(evals[j])

    def test_subsample_too_large(self):
        with pytest.raises(ScoreValidationError):
            make_transfer_split(make_essays(10), 9, 0, seed=1)
