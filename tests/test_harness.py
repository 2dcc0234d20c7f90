from __future__ import annotations

import csv
import errno
import hashlib
import io
import logging
import os
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import kaes.harness
import kaes.string_kernel
from kaes.boswe import Codebook
from kaes.cli import _read_config
from kaes.corpus import parse_asap_tsv
from kaes.embeddings import load_word2vec_binary, tokenize
from kaes.errors import KaesError
from kaes.harness import (
    ExperimentConfig,
    ResultCell,
    ResultTable,
    emit_report,
    load_essays,
    load_model,
    predict_scores,
    run_cross_domain,
    run_in_domain,
    save_model,
    table_from_csv,
    train_model,
)
from kaes.string_kernel import KernelMatrix, load_kernel_matrix, save_kernel_matrix
from oracles import (
    load_word2vec_reference,
    nearest_centroid_linear,
    reference_in_domain,
    reference_predict,
    reference_train,
)
from synthesis import make_corpus_tsv, make_embeddings_bytes, record_vector_loads


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("corpus")
    (tmp / "prompt1.tsv").write_bytes(make_corpus_tsv(120, seed=5))
    (tmp / "pair.tsv").write_bytes(make_corpus_tsv(60, seed=5, prompts=(1, 2)))
    (tmp / "pair30.tsv").write_bytes(make_corpus_tsv(30, seed=5, prompts=(1, 2)))
    (tmp / "tiny.tsv").write_bytes(make_corpus_tsv(10, seed=2))
    (tmp / "emb.bin").write_bytes(make_embeddings_bytes())
    (tmp / "decoys.bin").write_bytes(make_embeddings_bytes(decoys=200))
    return tmp


def in_domain_cfg(corpus_dir, **overrides) -> ExperimentConfig:
    defaults = dict(
        mode="in-domain",
        representation="fused",
        data_path=str(corpus_dir / "prompt1.tsv"),
        prompt=1,
        embeddings_path=str(corpus_dir / "emb.bin"),
        k=8,
        repetitions=1,
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def cross_domain_cfg(corpus_dir, **overrides) -> ExperimentConfig:
    defaults = dict(
        mode="cross-domain",
        representation="hisk",
        data_path=str(corpus_dir / "pair.tsv"),
        source=1,
        target=2,
        nt=(0, 10),
        seed=7,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def record_cells(monkeypatch) -> list:
    """Record each split's (train ids, eval ids) as passed to ``_fit_split``."""
    cells, fit_split = [], kaes.harness._fit_split

    def record(cfg, by_id, hisk, embedded, seed, train_ids, eval_ids):
        cells.append((train_ids, eval_ids))
        return fit_split(cfg, by_id, hisk, embedded, seed, train_ids, eval_ids)

    monkeypatch.setattr(kaes.harness, "_fit_split", record)
    return cells


class TestInDomain:
    def test_fused_learns_keyword_signal(self, corpus_dir):
        table = run_in_domain(in_domain_cfg(corpus_dir))
        (cell,) = table.cells
        assert cell.failed is None
        assert cell.mean >= 0.8
        assert cell.n_runs == 5

    @pytest.mark.parametrize("representation", ["hisk", "boswe"])
    def test_single_representations_run(self, corpus_dir, representation):
        table = run_in_domain(in_domain_cfg(corpus_dir, representation=representation))
        (cell,) = table.cells
        assert cell.failed is None
        assert cell.mean > 0.5

    def test_five_models_on_tiny_fixture(self, corpus_dir):
        cfg = in_domain_cfg(corpus_dir, data_path=str(corpus_dir / "tiny.tsv"),
                            representation="hisk")
        table = run_in_domain(cfg)
        (cell,) = table.cells
        assert cell.n_runs == 5  # one trained model per fold
        assert cell.std == 0.0  # one repetition

    def test_determinism_same_seed(self, corpus_dir):
        cfg = in_domain_cfg(corpus_dir)
        first = emit_report(run_in_domain(cfg), "text")
        second = emit_report(run_in_domain(cfg), "text")
        assert first == second

    def test_different_seed_changes_folds(self, corpus_dir):
        a = run_in_domain(in_domain_cfg(corpus_dir, representation="hisk", seed=1))
        b = run_in_domain(in_domain_cfg(corpus_dir, representation="hisk", seed=2))
        assert a.cells[0].values != b.cells[0].values

    def test_warm_cache_is_byte_identical(self, corpus_dir, tmp_path):
        cache = tmp_path / "cache"
        cfg = in_domain_cfg(corpus_dir, cache_dir=str(cache))
        cold = emit_report(run_in_domain(cfg), "text")
        cached_files = list(cache.glob("hisk_*.km"))
        assert len(cached_files) == 1
        warm = emit_report(run_in_domain(cfg), "text")
        assert warm == cold

    @pytest.mark.parametrize("damage", [
        "truncated", "other-ids", "header-bit-flip", "hisk-normalized", "boswe",
        "zero-diagonal", "nan-entry", "asymmetric",
    ])
    def test_bad_cache_file_is_a_miss(self, corpus_dir, tmp_path, caplog, damage):
        cache = tmp_path / "cache"
        cfg = in_domain_cfg(corpus_dir, representation="hisk", cache_dir=str(cache))
        cold = emit_report(run_in_domain(cfg), "text")
        (cached,) = cache.iterdir()
        good = cached.read_bytes()
        raw = load_kernel_matrix(cached)
        if damage == "truncated":
            cached.write_bytes(good[:17])
        elif damage == "header-bit-flip":
            # The top bit of the row count (u32 LE at byte 8) flipped: the
            # file declares about 2**31 rows that it does not hold.
            cached.write_bytes(good[:11] + bytes([good[11] ^ 0x80]) + good[12:])
        elif damage == "other-ids":
            other = KernelMatrix(values=np.eye(2), row_ids=("x", "y"), col_ids=("x", "y"))
            save_kernel_matrix(other, cached)
        elif damage in ("hisk-normalized", "boswe"):
            # The kind byte (offset 16), which must be 0, set to 1 or 4.
            tag = {"hisk-normalized": 1, "boswe": 4}[damage]
            cached.write_bytes(good[:16] + bytes([tag]) + good[17:])
        else:
            values = raw.values.copy()
            if damage == "zero-diagonal":
                np.fill_diagonal(values, 0.0)
            elif damage == "nan-entry":
                values[0, 1] = values[1, 0] = np.nan
            else:
                values[0, 1] += 1.0
            save_kernel_matrix(replace(raw, values=values), cached)
        with caplog.at_level(logging.WARNING, logger="kaes.harness"):
            again = emit_report(run_in_domain(cfg), "text")
        assert again == cold
        assert cached.name in caplog.text
        assert list(cache.iterdir()) == [cached]
        assert cached.read_bytes() == good

    @pytest.mark.parametrize("failure", ["directory", "no-space"])
    @pytest.mark.parametrize("run", ["eval", "train"])
    def test_unusable_cache_costs_only_time(self, corpus_dir, tmp_path, monkeypatch, caplog,
                                            failure, run):
        def output(cfg):
            if run == "eval":
                return emit_report(run_in_domain(cfg), "text")
            buf = io.BytesIO()
            save_model(train_model(cfg, load_essays(cfg.data_path, cfg.prompt)), buf)
            return buf.getvalue()

        cfg = in_domain_cfg(corpus_dir, data_path=str(corpus_dir / "tiny.tsv"),
                            representation="hisk")
        want = output(cfg)
        cache = tmp_path / "cache"
        cfg = replace(cfg, cache_dir=str(cache))
        if failure == "directory":
            output(cfg)
            (entry,) = cache.iterdir()
            entry.unlink()
            entry.mkdir()
            left = [entry]
        else:
            def no_space(stream, doc_id):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            monkeypatch.setattr(kaes.string_kernel, "write_id", no_space)
            left = []
        with caplog.at_level(logging.WARNING, logger="kaes.harness"):
            assert output(cfg) == want
        assert f"cannot write cache file {cache / 'hisk_'}" in caplog.text
        assert list(cache.iterdir()) == left  # no temporary file is left

    def test_isolation_audit(self, corpus_dir, monkeypatch):
        cells, codebooks, points = record_cells(monkeypatch), [], []
        type_rows, fit_codebook = kaes.harness._type_rows, kaes.harness.fit_codebook

        def rows(embedded, ids):
            codebooks.append(tuple(ids))
            return type_rows(embedded, ids)

        def fit(vectors, **settings):
            points.append(vectors)
            return fit_codebook(vectors, **settings)

        monkeypatch.setattr(kaes.harness, "_type_rows", rows)
        monkeypatch.setattr(kaes.harness, "fit_codebook", fit)
        cfg = in_domain_cfg(corpus_dir)
        table = run_in_domain(cfg)
        assert table.cells[0].failed is None
        assert len(cells) == len(codebooks) == len(points) == 5
        essays = parse_asap_tsv((corpus_dir / "prompt1.tsv").read_bytes())
        all_ids, text = {e.id for e in essays}, {e.id: e.text for e in essays}
        vectors = load_word2vec_binary(cfg.embeddings_path)
        assert set().union(*(evaluation for _, evaluation in cells)) == all_ids
        for (train, evaluation), fitted, fitted_points in zip(cells, codebooks, points):
            assert set(train).isdisjoint(evaluation)
            assert set(train) | set(evaluation) == all_ids
            # Each fold's codebook sees its training essays and no other,
            # as the vectors of their embedded types in sorted token order.
            assert fitted == train
            types = sorted({t for eid in train for t in tokenize(text[eid]) if t in vectors.vocab})
            assert np.array_equal(fitted_points,
                                  vectors.vectors[[vectors.vocab[t] for t in types]])

    def test_failed_cells_recorded_not_raised(self, corpus_dir):
        # k larger than the number of embedded token types: every fold fails,
        # but the run itself completes and reports the reason.
        cfg = in_domain_cfg(corpus_dir, k=10_000)
        table = run_in_domain(cfg)
        (cell,) = table.cells
        assert cell.mean is None
        assert "distinct" in cell.failed

    def test_failure_note_names_an_exception_without_message(self, corpus_dir, monkeypatch):
        def out_of_memory(*args):
            raise MemoryError()

        monkeypatch.setattr("kaes.harness.normalized_hisk_gram", out_of_memory)
        (cell,) = run_in_domain(in_domain_cfg(corpus_dir, representation="hisk")).cells
        assert cell.failed == "prepare: MemoryError"

    def test_a_fold_plan_that_fails_fails_in_preparation(self, tmp_path):
        data = tmp_path / "forty.tsv"
        data.write_bytes(make_corpus_tsv(40, seed=5))
        cfg = ExperimentConfig(mode="in-domain", data_path=str(data), folds=41, seed=7)
        (cell,) = run_in_domain(cfg).cells
        assert (cell.n_runs, cell.failed) == (0, "prepare: cannot split 40 essays into 41 folds")

    def test_all_prompts_when_unset(self, corpus_dir):
        cfg = in_domain_cfg(corpus_dir, data_path=str(corpus_dir / "pair.tsv"),
                            prompt=None, representation="hisk")
        table = run_in_domain(cfg)
        assert [c.key for c in table.cells] == ["1", "2"]
        assert table.overall() is not None

    def test_mode_mismatch_rejected(self, corpus_dir):
        cfg = in_domain_cfg(corpus_dir)
        cfg.mode = "cross-domain"
        cfg.source, cfg.target = 1, 2
        with pytest.raises(KaesError):
            run_in_domain(cfg)

    def test_missing_embeddings_rejected_before_compute(self, corpus_dir):
        with pytest.raises(KaesError, match="embeddings"):
            run_in_domain(in_domain_cfg(corpus_dir, embeddings_path=None))

    def test_messy_text_end_to_end(self, tmp_path):
        # Windows-1252 high bytes, anonymization markers, quotes and CRLF all
        # flow through profiling and evaluation without corruption.
        rows = ["essay_id\tessay_set\tessay\tdomain1_score"]
        for i in range(15):
            count = i % 6
            text = (
                f'"Dear @PERSON1, my caf\xe9 visit was {i}% fun... '
                + "omega " * count
                + 'she said “wow”!"'
            )
            rows.append(f"{i}\t3\t{text}\t{min(count, 3)}")
        path = tmp_path / "messy.tsv"
        path.write_bytes(("\r\n".join(rows) + "\r\n").encode("cp1252"))
        cfg = ExperimentConfig(
            mode="in-domain", representation="hisk", data_path=str(path),
            prompt=3, repetitions=1, seed=4,
        )
        table = run_in_domain(cfg)
        (cell,) = table.cells
        assert cell.failed is None
        assert cell.n_runs == 5
        assert cell.mean > 0.5


class TestCrossDomain:
    def test_zero_subsample_runs(self, corpus_dir):
        table = run_cross_domain(cross_domain_cfg(corpus_dir, nt=(0,)))
        (cell,) = table.cells
        assert cell.n_t == 0
        assert cell.failed is None
        assert cell.n_runs == 5

    def test_training_size_is_source_plus_nt(self, corpus_dir, monkeypatch):
        cells = record_cells(monkeypatch)
        cfg = cross_domain_cfg(corpus_dir)
        table = run_cross_domain(cfg)
        assert [c.n_t for c in table.cells] == [0, 10]
        assert all(c.failed is None for c in table.cells)
        # The cells of each sub-sample size run in turn, five repetitions each.
        assert len(cells) == 2 * 5
        for n_t, (train, evaluation) in zip([0] * 5 + [10] * 5, cells):
            assert len(train) == 60 + n_t
            assert set(train).isdisjoint(evaluation)

    def test_determinism(self, corpus_dir):
        cfg = cross_domain_cfg(corpus_dir)
        assert emit_report(run_cross_domain(cfg), "csv") == emit_report(
            run_cross_domain(cfg), "csv"
        )

    def test_fused_cross_domain(self, corpus_dir):
        cfg = cross_domain_cfg(corpus_dir, representation="fused",
                       embeddings_path=str(corpus_dir / "emb.bin"), k=8, nt=(10,))
        table = run_cross_domain(cfg)
        (cell,) = table.cells
        assert cell.failed is None

    def test_a_subsample_larger_than_the_pool_fails_only_its_row(self, corpus_dir):
        cfg = cross_domain_cfg(corpus_dir, data_path=str(corpus_dir / "pair30.tsv"), nt=(0, 40))
        scored, failed = run_cross_domain(cfg).cells
        assert (scored.n_t, scored.n_runs, scored.failed) == (0, 5, None)
        assert (failed.n_t, failed.n_runs) == (40, 0)
        # Each target fold holds 6 of the 30 essays, so 24 are left to draw from.
        assert failed.failed == "; ".join(
            f"rep{rep}: sub-sample size 40 exceeds the 24 essays outside the eval fold"
            for rep in range(5))

    def test_a_target_too_small_to_split_fails_each_split(self, corpus_dir, tmp_path):
        # The source prompt's 30 essays and the first 3 of the target's.
        lines = (corpus_dir / "pair30.tsv").read_text().splitlines()[:1 + 30 + 3]
        data = tmp_path / "small_target.tsv"
        data.write_text("\n".join(lines) + "\n")
        cells = run_cross_domain(cross_domain_cfg(corpus_dir, data_path=str(data))).cells
        assert [(c.n_t, c.n_runs) for c in cells] == [(0, 0), (10, 0)]
        for cell in cells:
            assert cell.failed == "; ".join(
                f"rep{rep}: cannot split 3 essays into 5 folds" for rep in range(5))

    def test_requires_both_prompts(self, corpus_dir):
        cfg = cross_domain_cfg(corpus_dir, data_path=str(corpus_dir / "prompt1.tsv"))
        with pytest.raises(KaesError, match="both prompts"):
            run_cross_domain(cfg)


class TestBlankEssays:
    """An essay with no text once normalized is dropped from its prompt or pair."""

    @staticmethod
    def with_blank(tmp_path, tsv: bytes, at: int, prompt: int) -> tuple[Path, Path]:
        lines = tsv.decode().splitlines()
        clean, blank = tmp_path / "clean.tsv", tmp_path / "blank.tsv"
        clean.write_text("\n".join(lines) + "\n")
        blank.write_text("\n".join(lines[:at] + [f"999\t{prompt}\t   \t4"] + lines[at:]) + "\n")
        return clean, blank

    @staticmethod
    def outcome(run, cfg, path):
        cfg.data_path = str(path)
        table = run(cfg)
        assert all(c.failed is None for c in table.cells)
        return emit_report(table, "text"), [c.values for c in table.cells]

    @pytest.mark.parametrize("representation", ["hisk", "boswe", "fused"])
    def test_in_domain_scores_as_without_it(self, corpus_dir, tmp_path, caplog, representation):
        clean, blank = self.with_blank(tmp_path, make_corpus_tsv(30, seed=3), 10, 1)
        cfg = in_domain_cfg(corpus_dir, representation=representation)
        with caplog.at_level(logging.WARNING, logger="kaes.harness"):
            assert self.outcome(run_in_domain, cfg, blank) == self.outcome(
                run_in_domain, cfg, clean)
        assert "999" in caplog.text

    @pytest.mark.parametrize("representation", ["hisk", "fused"])
    def test_cross_domain_scores_as_without_it(self, corpus_dir, tmp_path, caplog,
                                               representation):
        tsv = make_corpus_tsv(30, seed=3, prompts=(1, 2))
        clean, blank = self.with_blank(tmp_path, tsv, 45, 2)
        cfg = cross_domain_cfg(corpus_dir, representation=representation, nt=(0, 5),
                               repetitions=2, embeddings_path=str(corpus_dir / "emb.bin"), k=8)
        with caplog.at_level(logging.WARNING, logger="kaes.harness"):
            assert self.outcome(run_cross_domain, cfg, blank) == self.outcome(
                run_cross_domain, cfg, clean)
        assert "999" in caplog.text


class TestAssignOnce:
    def test_cell_assigns_each_row_of_its_essays_once(self, corpus_dir, tmp_path, monkeypatch):
        # Some essays use a word that no other essay uses, so some eval folds
        # hold token types that their training folds lack.
        lines = (corpus_dir / "prompt1.tsv").read_text().splitlines()
        for i in range(1, 11):
            fields = lines[i].split("\t")
            fields[2] += f" decoy{i}"
            lines[i] = "\t".join(fields)
        (tmp_path / "data.tsv").write_text("\n".join(lines) + "\n")
        cfg = in_domain_cfg(corpus_dir, representation="boswe",
                            data_path=str(tmp_path / "data.tsv"),
                            embeddings_path=str(corpus_dir / "decoys.bin"))
        # Record the vectors that histograms (not k-means) pass to assign_batch.
        passed, fitting = [], []
        fit_codebook, assign_batch = kaes.harness.fit_codebook, Codebook.assign_batch

        def fit(*args, **kwargs):
            fitting.append(True)
            try:
                return fit_codebook(*args, **kwargs)
            finally:
                fitting.pop()

        def assign(codebook, vectors):
            if not fitting:
                passed.append(np.array(vectors))
            return assign_batch(codebook, vectors)

        monkeypatch.setattr(kaes.harness, "fit_codebook", fit)
        monkeypatch.setattr(Codebook, "assign_batch", assign)
        cells = record_cells(monkeypatch)
        table = run_in_domain(cfg)
        assert table.cells[0].failed is None
        text = {e.id: e.text for e in parse_asap_tsv(Path(cfg.data_path).read_bytes())}
        vectors = load_word2vec_binary(cfg.embeddings_path)

        def rows_of_types(ids):
            # One row per type, in sorted token order.
            types = sorted({t for eid in ids for t in tokenize(text[eid]) if t in vectors.vocab})
            return vectors.vectors[[vectors.vocab[t] for t in types]]

        assert len(passed) == len(cells) == 5
        for rows, (train, evaluation) in zip(passed, cells):
            assert np.array_equal(rows, rows_of_types(train + evaluation))
        # Prediction looks the model's labels up and assigns nothing.
        essays = load_essays(cfg.data_path)
        model = train_model(cfg, essays)
        passed.clear()
        predict_scores(model, essays[:12])
        assert passed == []


class TestScoringModel:
    @pytest.mark.parametrize("representation", ["hisk", "boswe", "fused"])
    def test_loaded_model_predicts_the_same_bytes(self, corpus_dir, monkeypatch,
                                                  representation):
        cfg = in_domain_cfg(corpus_dir, representation=representation)
        essays = load_essays(cfg.data_path, cfg.prompt)
        model = train_model(cfg, essays[:40])
        # The model keeps the support essays only, one text per row.
        assert np.all(model.svr.coefficients != 0.0)
        assert len(model.support_texts) == len(model.svr.train_ids) > 0
        buf = io.BytesIO()
        save_model(model, buf)
        loaded = load_model(io.BytesIO(buf.getvalue()))
        raw, predict = [], kaes.harness.predict
        monkeypatch.setattr(kaes.harness, "predict",
                            lambda svr, block: raw.append(predict(svr, block)) or raw[-1])
        scores = [predict_scores(m, essays[40:]) for m in (model, loaded)]
        assert scores[0] == scores[1]
        assert raw[0].tobytes() == raw[1].tobytes()


    def test_duplicate_ids_are_rejected(self, corpus_dir):
        cfg = in_domain_cfg(corpus_dir, representation="hisk")
        essays = load_essays(cfg.data_path, cfg.prompt)[:12]
        essays[3] = replace(essays[3], id=essays[2].id)
        with pytest.raises(KaesError, match="^duplicate essay ids in the training essays$"):
            train_model(cfg, essays)

    @pytest.mark.parametrize("representation", ["hisk", "boswe"])
    def test_duplicate_ids_to_score_are_rejected(self, corpus_dir, representation):
        cfg = in_domain_cfg(corpus_dir, representation=representation)
        essays = load_essays(cfg.data_path, cfg.prompt)
        model = train_model(cfg, essays[:30])
        held_out = essays[30:34]
        assert len({score for _, score in predict_scores(model, held_out)}) > 1
        held_out[1] = replace(held_out[1], id=held_out[0].id)
        with pytest.raises(KaesError, match=f"^duplicate essay id {held_out[0].id!r} in the "
                                            "essays to score$"):
            predict_scores(model, held_out)


class TestNormalizedBlocks:
    """sha256 of the normalized n-gram blocks, recorded when each raw block
    still carried its self-similarities beside its values."""

    ESSAYS = make_corpus_tsv(30, seed=12, prompts=(1, 2))

    @pytest.mark.parametrize("ngram, digest", [
        ((1, 15), "d9c9d38880dc0e44396d8b366c448d94620b63d2e8c2d2c8035bfada12239783"),
        ((2, 3), "b7975e9e770feae7f26f82c4af820464ae1109cf8fc10cf89df960fef05ebadb"),
    ])
    def test_gram_cold_and_warm(self, tmp_path, ngram, digest):
        essays = parse_asap_tsv(self.ESSAYS)
        cfg = ExperimentConfig(mode="in-domain", data_path="", cache_dir=str(tmp_path),
                               ngram_min=ngram[0], ngram_max=ngram[1])
        cold = kaes.harness.normalized_hisk_gram(essays, cfg)
        assert len(list(tmp_path.glob("hisk_*.km"))) == 1
        warm = kaes.harness.normalized_hisk_gram(essays, cfg)
        for gram in (cold, warm):
            assert hashlib.sha256(np.ascontiguousarray(gram.values, "<f8")).hexdigest() == digest

    @pytest.mark.parametrize("ngram, digest", [
        ((1, 15), "4fd83e4ea42fbf4b524658db56499e82503c779e0e4658e5a98c9560336569c7"),
        ((2, 3), "2170950235e0e7694a2665008f9622c4535dfbb459c66140072cc15237369c0d"),
    ])
    def test_predict_block(self, monkeypatch, ngram, digest):
        essays = parse_asap_tsv(self.ESSAYS)
        cfg = ExperimentConfig(mode="in-domain", data_path="", representation="hisk",
                               ngram_min=ngram[0], ngram_max=ngram[1], seed=3)
        model = train_model(cfg, essays[:20])
        blocks, kernel_block = [], kaes.harness.kernel_block

        def record(row_ids, col_ids, hisk, *args):
            blocks.append(hisk)
            return kernel_block(row_ids, col_ids, hisk, *args)

        monkeypatch.setattr(kaes.harness, "kernel_block", record)
        predict_scores(model, essays[20:])
        (block,) = blocks
        assert block.shape == (len(essays) - 20, len(model.svr.support_ids))
        assert hashlib.sha256(np.ascontiguousarray(block.values, "<f8")).hexdigest() == digest


def protocol_digest(table: ResultTable) -> str:
    """sha256 of a table's text and csv reports, then of each cell's
    full-precision kappas (f8 LE) and failure note."""
    digest = hashlib.sha256(emit_report(table, "text") + emit_report(table, "csv"))
    for cell in table.cells:
        digest.update(np.array(cell.values, "<f8").tobytes() + repr(cell.failed).encode())
    return digest.hexdigest()


class TestProtocolDigests:
    """sha256 of each protocol's reports and cells (see protocol_digest), the
    same on a cold and on a warm Gram cache.  CI also runs these with two
    BLAS threads: a report must not depend on BLAS threading."""

    @pytest.mark.parametrize("mode, representation, digest", [
        ("in-domain", "hisk",
         "1d04edde2ea5c5e03ba8a2caa6fe769273d8cd2122dbd2ea26c316e4500ceee1"),
        ("in-domain", "boswe",
         "42984daace14cf90b6c070b8183eb2315f7a3f038022d2f3afc2b941ee169312"),
        ("in-domain", "fused",
         "c5adb26dbfa4c9328d35d2ae4bab65d04126478472b8bea8b46e09cd9393b75e"),
        ("cross-domain", "hisk",
         "ccba07b67fc0d8a580b3166742dc5b32275daaf1d6d57480e7a8bbf983281b20"),
        ("cross-domain", "boswe",
         "e515b311b02fb732fea24700264655e0b6f03d3755bed650a16ce91946fb5355"),
        ("cross-domain", "fused",
         "1621b2240826327a4423b2bc13165bfce10a859afcd114283efa1b0bf62e337e"),
    ])
    def test_cold_and_warm(self, corpus_dir, tmp_path, mode, representation, digest):
        cfg = ExperimentConfig(mode=mode, representation=representation,
                               data_path=str(corpus_dir / "pair30.tsv"),
                               embeddings_path=str(corpus_dir / "emb.bin"),
                               cache_dir=str(tmp_path), k=8, repetitions=2, seed=7)
        if mode == "cross-domain":
            cfg.source, cfg.target, cfg.nt = 1, 2, (0, 5)
        run = run_in_domain if mode == "in-domain" else run_cross_domain
        assert [protocol_digest(run(cfg)) for _ in ("cold", "warm")] == [digest] * 2
        assert any(tmp_path.glob("hisk_*.km")) == (representation != "boswe")


class TestReferenceProtocol:
    """The in-domain protocol, ``train_model`` and ``predict_scores`` against
    the brute-force re-derivations in ``oracles``: codebook points and seeds,
    kernel blocks and fits bit for bit, kappas to 1e-12, and the scores of
    held-out essays."""

    @pytest.fixture(scope="class")
    def corpus(self, tmp_path_factory):
        """Short essays (the n-gram oracle rescans strings) and one blank one."""
        tmp = tmp_path_factory.mktemp("reference")
        lines = make_corpus_tsv(14, seed=4, prompts=(3,), filler=(3, 7)).decode().splitlines()
        (tmp / "data.tsv").write_text("\n".join(lines[:6] + ["99\t3\t  \t2"] + lines[6:]) + "\n")
        (tmp / "emb.bin").write_bytes(make_embeddings_bytes(decoys=5))
        return tmp, load_word2vec_reference((tmp / "emb.bin").read_bytes())

    @staticmethod
    def cfg(tmp, representation) -> ExperimentConfig:
        return ExperimentConfig(mode="in-domain", representation=representation,
                                data_path=str(tmp / "data.tsv"),
                                embeddings_path=str(tmp / "emb.bin"),
                                ngram_min=1, ngram_max=4, k=4, repetitions=2, seed=9)

    @staticmethod
    def record(monkeypatch) -> dict[str, list]:
        """The fast path's codebook inputs, fits and prediction blocks, in call order."""
        calls = {"codebooks": [], "fits": [], "predicts": []}
        fit_codebook, train_nu_svr = kaes.harness.fit_codebook, kaes.harness.train_nu_svr
        predict = kaes.harness.predict

        def codebook(vectors, k, seed, max_iters):
            calls["codebooks"].append((np.array(vectors), seed))
            return fit_codebook(vectors, k=k, seed=seed, max_iters=max_iters)

        def fit(kernel, y, config):
            calls["fits"].append((kernel, np.array(y), train_nu_svr(kernel, y, config)))
            return calls["fits"][-1][-1]

        def scores(model, kernel):
            calls["predicts"].append(kernel)
            return predict(model, kernel)

        monkeypatch.setattr(kaes.harness, "fit_codebook", codebook)
        monkeypatch.setattr(kaes.harness, "train_nu_svr", fit)
        monkeypatch.setattr(kaes.harness, "predict", scores)
        return calls

    @staticmethod
    def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
        return a.shape == b.shape and np.ascontiguousarray(a, "<f8").tobytes() == (
            np.ascontiguousarray(b, "<f8").tobytes())

    def check_fit(self, recorded, split):
        kernel, y, model = recorded
        assert kernel.row_ids == kernel.col_ids == split.train_ids
        assert self.same_bits(kernel.values, split.train_block)
        assert self.same_bits(y, split.y)
        coefficients, bias, epsilon_star, iterations, converged = split.fit
        assert self.same_bits(model.coefficients, coefficients)
        assert (model.bias, model.epsilon_star, model.iterations, model.converged) == (
            bias, epsilon_star, iterations, converged)

    @pytest.mark.parametrize("representation", ["hisk", "boswe", "fused"])
    def test_in_domain_splits(self, corpus, monkeypatch, representation):
        tmp, vectors = corpus
        cfg = self.cfg(tmp, representation)
        calls = self.record(monkeypatch)
        (cell,) = run_in_domain(cfg).cells
        reference = reference_in_domain(cfg, load_essays(cfg.data_path), vectors)
        assert cell.failed is None and len(reference) == cell.n_runs == 10
        assert [len(calls[name]) for name in ("fits", "predicts")] == [10, 10]
        assert len(calls["codebooks"]) == (0 if representation == "hisk" else 10)
        for s, (split, kappa) in enumerate(reference):
            assert "99" not in split.train_ids + split.eval_ids
            if split.codebook is not None:
                points, seed = calls["codebooks"][s]
                assert self.same_bits(points, split.points) and seed == split.seed
            self.check_fit(calls["fits"][s], split)
            block = calls["predicts"][s]
            assert (block.row_ids, block.col_ids) == (split.eval_ids, split.train_ids)
            assert self.same_bits(block.values, split.eval_block)
            assert cell.values[s] == pytest.approx(kappa, abs=1e-12)

    @pytest.mark.parametrize("representation", ["hisk", "boswe", "fused"])
    def test_train_model(self, corpus, monkeypatch, representation):
        tmp, vectors = corpus
        cfg = self.cfg(tmp, representation)
        essays = load_essays(cfg.data_path)
        calls = self.record(monkeypatch)
        model = train_model(cfg, essays)
        split = reference_train(cfg, essays, vectors)
        assert "99" not in split.train_ids and len(split.train_ids) == len(essays) - 1
        (fit,) = calls["fits"]
        self.check_fit(fit, split)
        kept = split.fit[0] != 0.0
        assert model.svr.train_ids == tuple(e for e, k in zip(split.train_ids, kept) if k)
        assert self.same_bits(model.svr.coefficients, split.fit[0][kept])
        assert model.svr.bias == split.fit[1]
        text = {e.id: e.text for e in essays}
        assert model.support_texts == tuple(text[eid] for eid in model.svr.train_ids)
        if split.codebook is None:
            assert model.super_words is None
        else:
            assert self.same_bits(calls["codebooks"][0][0], split.points)
            # Every token of the file that tokenize can produce, with its nearest centroid.
            tokens = sorted(t for t in vectors.vocab if tokenize(t) == [t])
            labels = nearest_centroid_linear(vectors.vectors[[vectors.vocab[t] for t in tokens]],
                                             split.codebook.centroids)
            assert model.super_words.k == cfg.k
            assert model.super_words.labels == dict(zip(tokens, labels.tolist()))
        # Held-out essays: one uses a word that no training essay has, one a
        # word the vectors file lacks, and one is blank.
        lines = make_corpus_tsv(6, seed=8, prompts=(3,), filler=(3, 7)).decode().splitlines()
        for i, word in ((1, "decoy2"), (2, "zebra")):
            fields = lines[i].split("\t")
            fields[2] += f" {word}"
            lines[i] = "\t".join(fields)
        held_out = parse_asap_tsv("\n".join(lines + ["9\t3\t \t1"]).encode())
        by_id = {e.id: e for e in essays}
        scores = [score for _, score in predict_scores(model, held_out)]
        assert scores == reference_predict(cfg, split, by_id, held_out, vectors)
        assert len(scores) == 6 and len(set(scores)) > 1


class TestVectorsLoad:
    """The protocols keep only the vectors of their essays' tokens, and score
    exactly as with every vector of the file loaded."""

    @pytest.mark.parametrize("mode,representation", [
        ("in-domain", "boswe"), ("in-domain", "fused"), ("cross-domain", "fused"),
    ])
    def test_filtered_load_scores_as_full_load(self, corpus_dir, tmp_path, monkeypatch, mode,
                                               representation):
        make_cfg, run = ((in_domain_cfg, run_in_domain) if mode == "in-domain"
                         else (cross_domain_cfg, run_cross_domain))
        cfg = make_cfg(corpus_dir, representation=representation, k=8,
                       embeddings_path=str(corpus_dir / "decoys.bin"))
        # The last essay alone uses one more word of the vectors file.
        lines = Path(cfg.data_path).read_text().splitlines()
        fields = lines[-1].split("\t")
        fields[2] += " decoy7"
        lines[-1] = "\t".join(fields)
        cfg.data_path = str(tmp_path / "data.tsv")
        Path(cfg.data_path).write_text("\n".join(lines) + "\n")

        def outcome(full: bool):
            with monkeypatch.context() as patch:
                loaded = record_vector_loads(patch, full)
                table = run(cfg)
            assert all(c.failed is None for c in table.cells)
            return emit_report(table, "text"), [c.values for c in table.cells], loaded

        report, values, (model,) = outcome(full=False)
        full_report, full_values, (full_model,) = outcome(full=True)
        assert (report, values) == (full_report, full_values)
        essays = parse_asap_tsv(Path(cfg.data_path).read_bytes())
        tokens = {t for e in essays for t in tokenize(e.text)}
        assert set(model.vocab) == tokens & set(full_model.vocab)
        assert "decoy7" in model.vocab
        assert len(model) < len(full_model)


class TestReports:
    def test_empty_table_header_only(self):
        table = ResultTable(mode="in-domain")
        text = emit_report(table, "text").decode()
        assert text.splitlines()[0].startswith("key")
        assert len(text.splitlines()) == 1
        csv_out = emit_report(table, "csv").decode()
        assert csv_out.splitlines() == ["key,n_t,representation,qwk_mean,qwk_std,runs,failed"]

    def test_three_decimal_rounding(self):
        cell = ResultCell(key="1", n_t=None, representation="hisk", mean=0.78499,
                          std=0.0, n_runs=1)
        table = ResultTable(mode="in-domain", cells=[cell])
        assert b" 0.785 " in emit_report(table, "text")

    def test_csv_round_trips_through_generic_reader(self):
        cells = [
            ResultCell(key="1->2", n_t=0, representation="fused", mean=0.5, std=0.01,
                       n_runs=5),
            ResultCell(key="1->2", n_t=10, representation="fused", mean=0.6, std=0.02,
                       n_runs=5),
        ]
        table = ResultTable(mode="cross-domain", cells=cells)
        raw = emit_report(table, "csv").decode()
        rows = list(csv.reader(io.StringIO(raw)))
        assert rows[0][0] == "key"
        assert len(rows) == 3

        rebuilt = table_from_csv(raw.encode())
        assert emit_report(rebuilt, "csv") == raw.encode()
        assert rebuilt.mode == "cross-domain"

    def test_unknown_format(self):
        with pytest.raises(KaesError):
            emit_report(ResultTable(mode="in-domain"), "yaml")

    @pytest.mark.parametrize("scored, row", [
        (True, "overall          -   0.800        -     1"),
        (False, "overall          -       -        -     0"),
    ], ids=["one-scored", "none-scored"])
    def test_overall_row_counts_the_prompts_it_averages(self, scored, row):
        cells = [ResultCell(key="1", n_t=None, representation="hisk", mean=0.8 if scored else None,
                            std=0.0 if scored else None, n_runs=5 if scored else 0,
                            failed=None if scored else "rep0/fold0: boom"),
                 ResultCell(key="2", n_t=None, representation="hisk", mean=None, std=None,
                            failed="prepare: cannot split 3 essays into 5 folds")]
        text = emit_report(ResultTable(mode="in-domain", cells=cells), "text").decode()
        assert text.splitlines()[-1] == row

    def test_failed_cell_visible(self):
        cell = ResultCell(key="3", n_t=None, representation="hisk", mean=None, std=None,
                          failed="prepare: boom")
        out = emit_report(ResultTable(mode="in-domain", cells=[cell]), "text").decode()
        assert "boom" in out


class TestConfigFile:
    def test_parse_and_comments(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# comment\nrepresentation=fused\nk = 16\n\nseed=3\n")
        assert _read_config(path) == {"representation": "fused", "k": 16, "seed": 3}

    def test_byte_order_mark(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_bytes(b"\xef\xbb\xbfdata=x.tsv\nprompt=1\n")
        assert _read_config(path) == {"data": "x.tsv", "prompt": 1}

    def test_comment_only_where_a_line_starts_with_hash(self, tmp_path):
        path = tmp_path / "inline.cfg"
        path.write_text("  # indented comment\nprompt=1  # first\n")
        with pytest.raises(KaesError, match=f"^{re.escape(str(path))}: line 2: "
                                            "prompt=1  # first is not a valid int$"):
            _read_config(path)

    def test_key_set_twice(self, tmp_path):
        path = tmp_path / "twice.cfg"
        path.write_text("k=8\nseed=1\nk=16\n")
        with pytest.raises(KaesError, match=f"^{re.escape(str(path))}: line 3: k is already "
                                            "set on line 1$"):
            _read_config(path)

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("representation fused\n")
        with pytest.raises(KaesError, match="line 1"):
            _read_config(path)

    def test_validate_catches_bad_prompt(self, corpus_dir):
        cfg = ExperimentConfig(mode="in-domain", representation="hisk",
                               data_path=str(corpus_dir / "prompt1.tsv"), prompt=99)
        with pytest.raises(KaesError, match="prompt"):
            cfg.validate()

    @pytest.mark.parametrize("setting, value", [
        ("k", "5"), ("k", True), ("repetitions", "2"), ("folds", 2.5), ("ngram_max", 3.5),
        ("ngram_min", None), ("nt", (1.5,)), ("seed", True), ("kmeans_iters", 6.0),
        ("prompt", True), ("vocab_limit", 10.0),
    ])
    def test_validate_names_a_setting_that_is_not_an_integer(self, setting, value):
        cfg = ExperimentConfig(mode="in-domain", data_path="data.tsv", **{setting: value})
        shown = value[0] if setting == "nt" else value
        flag = setting.replace("_", "-")
        with pytest.raises(KaesError, match=f"^--{flag} must be an integer, got {shown!r}$"):
            cfg.validate()

    @pytest.mark.parametrize("setting, value, message", [
        ("nt", 5, "--nt must be a list of sub-sample sizes, got 5"),
        ("nt", None, "--nt must be a list of sub-sample sizes, got None"),
        ("nt", "5", "--nt must be a list of sub-sample sizes, got '5'"),
        ("nt", (5, 5, 0), "--nt lists sub-sample size 5 more than once"),
        ("svr", None, "svr must be an SvrConfig, got None"),
        ("svr", "x", "svr must be an SvrConfig, got 'x'"),
    ])
    def test_validate_rejects_a_setting_of_the_wrong_kind(self, setting, value, message):
        cfg = ExperimentConfig(mode="in-domain", data_path="x", **{setting: value})
        with pytest.raises(KaesError, match=f"^{re.escape(message)}$"):
            cfg.validate()

    def test_validate_rejects_a_vocab_limit_of_0(self):
        # The command line's "--vocab-limit 0" reaches the config as None.
        cfg = ExperimentConfig(mode="in-domain", representation="boswe", data_path="x",
                               embeddings_path="vectors.bin", vocab_limit=0)
        with pytest.raises(KaesError, match="^vocab_limit=0 would scan no record; "
                                            "None scans every record$"):
            cfg.validate()

    def test_validate_takes_numpy_integers(self):
        ExperimentConfig(mode="in-domain", data_path="data.tsv", prompt=np.int64(1),
                         k=np.int32(4), seed=np.uint64(3), nt=(np.int8(2),)).validate()

    def test_load_essays_catches_bad_prompt(self, corpus_dir):
        # `kaes predict` and `ingest` select essays without an ExperimentConfig.
        with pytest.raises(KaesError, match="invalid prompt id 99"):
            load_essays(corpus_dir / "prompt1.tsv", 99)
