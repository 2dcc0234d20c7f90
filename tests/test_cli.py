from __future__ import annotations

import errno
import hashlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kaes
import kaes.cli
import kaes.harness
from kaes.cli import main
from kaes.corpus import ASAP_SCORE_RANGES, parse_asap_tsv, unscale_score
from kaes.embeddings import EmbeddingModel, load_word2vec_binary, tokenize
from kaes.harness import (
    ExperimentConfig, load_essays, load_model, predict_scores, save_model, train_model,
)
from kaes.string_kernel import (
    kernel_matrix,
    load_kernel_matrix,
    normalize_kernel,
    self_similarities,
)
from kaes.svr import predict

from synthesis import (
    make_corpus_tsv, make_embeddings_bytes, record_vector_loads, save_word2vec_binary,
)

# sha256 of the `kaes predict` output of a model trained on
# make_corpus_tsv(60, seed=11) (prompt 1, k=8, seed 1) scoring
# make_corpus_tsv(30, seed=12), recorded when `predict` still read the
# training essays' texts from --train-data.
PREDICTION_DIGESTS = {
    "hisk": "5c33855de9cf2becec33cdb59764525f7e7d085cda1e019000e9e41c6afa5f99",
    "boswe": "d2206b220c7b2baa74d6636889ecacc96d62b7c774df8e52481995e5707e37b9",
    "fused": "ca6d938aa7ba591eedb133e41c581355ffc0c8d3924ffca3a00b15226c52f91f",
}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("cli")
    (tmp / "data.tsv").write_bytes(make_corpus_tsv(60, seed=11))
    (tmp / "pair.tsv").write_bytes(make_corpus_tsv(40, seed=11, prompts=(1, 2)))
    (tmp / "emb.bin").write_bytes(make_embeddings_bytes())
    return tmp


EVAL_ARGS = [
    "eval-indomain", "--prompt", "1", "--representation", "hisk",
    "--repetitions", "1", "--seed", "3", "--format", "text",
]


def run_main(capsys, argv) -> tuple[int, str, str]:
    code = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCommands:
    def test_ingest_summary(self, workdir, capsys):
        code, out, _ = run_main(capsys, ["ingest", "--data", workdir / "data.tsv"])
        assert code == 0
        assert "prompt 1: 60 essays" in out
        assert "total: 60 essays" in out

    def test_eval_indomain_text(self, workdir, capsys):
        code, out, _ = run_main(capsys, ["eval-indomain", "--data", workdir / "data.tsv",
                                      *EVAL_ARGS[1:]])
        assert code == 0
        assert out.splitlines()[0].startswith("# mode=in-domain")
        assert any(line.startswith("1 ") for line in out.splitlines())

    def test_eval_crossdomain_with_nt(self, workdir, capsys):
        code, out, _ = run_main(capsys, [
            "eval-crossdomain", "--data", workdir / "pair.tsv", "--source", "1",
            "--target", "2", "--representation", "hisk", "--nt", "0,5",
            "--seed", "3", "--format", "csv",
        ])
        assert code == 0
        assert out.splitlines()[0] == "key,n_t,representation,qwk_mean,qwk_std,runs,failed"
        assert len(out.splitlines()) == 3

    def test_eval_writes_table_then_report_rerenders(self, workdir, tmp_path, capsys):
        table_path = tmp_path / "table.csv"
        code, text_out, _ = run_main(capsys, [
            "eval-indomain", "--data", workdir / "data.tsv", *EVAL_ARGS[1:],
            "--out", table_path,
        ])
        assert code == 0
        code, rerendered, _ = run_main(capsys, ["report", "--table", table_path,
                                             "--format", "text"])
        assert code == 0
        # Same table rows; the live run additionally carries a config header.
        assert rerendered.splitlines()[0].startswith("key")
        assert rerendered.splitlines()[1:] == [
            line for line in text_out.splitlines()[2:]
        ]

    def test_kernel_caches_matrix(self, workdir, tmp_path, capsys):
        cache = tmp_path / "cache"
        code, out, _ = run_main(capsys, [
            "kernel", "--data", workdir / "data.tsv", "--prompt", "1",
            "--cache-dir", cache,
        ])
        assert code == 0
        (path,) = cache.glob("hisk_*.km")
        assert load_kernel_matrix(path).shape == (60, 60)

    def test_kernel_fails_when_the_cache_cannot_be_written(self, workdir, tmp_path, capsys):
        # A cache entry that is a directory can be neither read nor replaced.
        cache = tmp_path / "cache"
        argv = ["kernel", "--data", workdir / "data.tsv", "--prompt", "1", "--cache-dir", cache]
        assert run_main(capsys, argv)[0] == 0
        (entry,) = cache.iterdir()
        entry.unlink()
        entry.mkdir()
        code, out, err = run_main(capsys, argv)
        assert code == 1 and out == ""
        assert err == f"error: [Errno {errno.EISDIR}] {os.strerror(errno.EISDIR)}: '{entry}'\n"
        assert list(cache.iterdir()) == [entry]

    @pytest.mark.parametrize("k", ["5000000000", "100000000000000000000"])
    def test_codebook_larger_than_the_vectors_fails_cleanly(self, workdir, tmp_path, capsys, k):
        code, out, err = run_main(capsys, [
            "train", "--data", workdir / "data.tsv", "--prompt", "1", "--representation",
            "boswe", "--embeddings", workdir / "emb.bin", "--k", k, "--out", tmp_path / "m.bin",
        ])
        assert code == 1 and out == ""
        assert err.startswith(f"error: need at least k={k} distinct vectors, got ")
        assert not (tmp_path / "m.bin").exists()

    def test_kernel_warms_gram_for_shared_fused_config(self, workdir, tmp_path, capsys,
                                                       monkeypatch):
        # `kernel` ignores the codebook and solver settings that fused `train` reads.
        cache = tmp_path / "cache"
        shared = tmp_path / "fused.cfg"
        shared.write_text(
            f"data={workdir / 'data.tsv'}\nprompt=1\nrepresentation=fused\n"
            f"embeddings={workdir / 'emb.bin'}\nk=8\nc=10\nfolds=3\ncache_dir={cache}\n"
        )
        code, _, err = run_main(capsys, ["kernel", "--config", shared])
        assert code == 0, err
        assert len(list(cache.glob("hisk_*.km"))) == 1

        def no_gram(*args, **kwargs):
            raise AssertionError("computed an n-gram Gram matrix")

        monkeypatch.setattr(kaes.harness, "kernel_matrix", no_gram)
        code, _, err = run_main(capsys, ["train", "--config", shared,
                                         "--out", tmp_path / "m.bin"])
        assert code == 0, err
        assert load_model(tmp_path / "m.bin").super_words is not None

    @pytest.mark.parametrize("argv, code, message", [
        (["codebook", "--k", "8", "--out", "cb.bin"], 2, "invalid choice: 'codebook'"),
        (["kernel", "--out", "k.km"], 2, "unrecognized arguments: --out k.km"),
        (["kernel"], 1, "error: missing required option --cache-dir"),
        *[([command, flag, value], 2, f"unrecognized arguments: {flag} {value}")
          for command, flags in (
              ("kernel", {"--representation": "hisk", "--embeddings": "e.bin", "--k": "8",
                          "--c": "10", "--nu": "0.5", "--kkt-tolerance": "0.01",
                          "--max-iterations": "100", "--kmeans-iters": "5",
                          "--vocab-limit": "10", "--seed": "1"}),
              ("predict", {"--c": "10", "--nu": "0.5", "--kkt-tolerance": "0.01",
                           "--max-iterations": "100", "--cache-dir": "cache"}),
              ("eval-crossdomain", {"--prompt": "1"}),
          )
          for flag, value in flags.items()],
        # `predict` takes its n-gram range and vocabulary limit from the model.
        *[(["predict", flag, value], 2, f"unrecognized arguments: {flag} {value}")
          for flag, value in (("--ngram-min", "2"), ("--ngram-max", "8"),
                              ("--vocab-limit", "10"))],
    ])
    def test_removed_command_and_options(self, workdir, capsys, argv, code, message):
        try:
            returned = main([str(a) for a in [*argv, "--data", workdir / "data.tsv"]])
        except SystemExit as exc:  # argparse rejects the command line
            returned = exc.code
        err = capsys.readouterr().err
        assert returned == code
        assert message in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("representation", ["hisk", "fused"])
    def test_train_then_predict(self, workdir, tmp_path, capsys, representation):
        model_path = tmp_path / f"model-{representation}.bin"
        argv = [
            "train", "--data", workdir / "data.tsv", "--prompt", "1",
            "--representation", representation, "--out", model_path,
            "--k", "8", "--seed", "1",
        ]
        if representation == "fused":
            argv += ["--embeddings", workdir / "emb.bin"]
        code, out, _ = run_main(capsys, argv)
        assert code == 0
        assert list(tmp_path.iterdir()) == [model_path]  # one file holds the whole model
        model = load_model(model_path)
        assert len(model.svr.train_ids) == 60
        assert model.representation == representation
        assert (model.super_words is None) == (representation == "hisk")

        pred_path = tmp_path / f"preds-{representation}.tsv"
        argv = [
            "predict", "--model", model_path, "--data", workdir / "data.tsv",
            "--representation", representation, "--out", pred_path, "--k", "8",
        ]
        if representation == "fused":
            argv += ["--embeddings", workdir / "emb.bin"]
        code, _, _ = run_main(capsys, argv)
        assert code == 0

        lines = pred_path.read_text().splitlines()
        assert lines[0] == "essay_id\tessay_set\tprediction"
        essays = parse_asap_tsv((workdir / "data.tsv").read_bytes())
        gold = {e.id: e.raw_score for e in essays}
        pairs = [(int(line.split("\t")[2]), gold[line.split("\t")[0]]) for line in lines[1:]]
        pred, actual = zip(*pairs)
        assert np.corrcoef(pred, actual)[0, 1] > 0.9

        if representation == "fused":
            # The top bit of the token count (the u32 LE after k, which starts
            # the super-word record) flipped: the record declares about 2**31
            # tokens that its token bytes do not hold.
            data = model_path.read_bytes()
            tokens = model.super_words.labels
            k_at = len(data) - (16 + sum(len(t.encode()) + 1 for t in tokens) + 4 * len(tokens))
            model_path.write_bytes(data[:k_at + 7] + bytes([data[k_at + 7] ^ 0x80])
                                   + data[k_at + 8:])
            code, _, err = run_main(capsys, argv)
            assert code == 1
            assert (f"error: at byte {k_at + 16}: super-word tokens are not "
                    f"{len(tokens) + 2**31} newline-ended tokens") in err
            model_path.write_bytes(data[:k_at])  # no super-word record at all
            code, _, err = run_main(capsys, argv)
            assert code == 1
            assert f"error: at byte {k_at}: truncated super-word header" in err

    def test_config_file_with_flag_override(self, workdir, tmp_path, capsys):
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(
            f"data={workdir / 'data.tsv'}\nrepresentation=hisk\nprompt=1\n"
            "repetitions=1\nseed=3\nformat=csv\n"
        )
        code, from_file, _ = run_main(capsys, ["eval-indomain", "--config", cfg_path])
        assert code == 0
        assert from_file.splitlines()[0].startswith("key,")
        code, overridden, _ = run_main(capsys, ["eval-indomain", "--config", cfg_path,
                                             "--format", "text"])
        assert code == 0
        assert overridden.splitlines()[0].startswith("#")

    @pytest.mark.parametrize("line", ["k=abc", "nu=high", "nt=0,five"])
    def test_unreadable_config_value_fails_cleanly(self, workdir, tmp_path, capsys, line):
        cfg_path = tmp_path / "bad.cfg"
        cfg_path.write_text(f"data={workdir / 'data.tsv'}\nprompt=1\n{line}\n")
        code, _, err = run_main(capsys, ["train", "--config", cfg_path,
                                         "--out", tmp_path / "m.model"])
        assert code == 1
        key, value = line.split("=")
        assert err.startswith("error: ") and key in err and value in err
        assert "Traceback" not in err
        if key != "nt":
            assert str(cfg_path) in err

    def test_config_file_that_is_not_utf8_fails_cleanly(self, workdir, tmp_path, capsys):
        cfg_path = tmp_path / "latin1.cfg"
        cfg_path.write_bytes(b"# caf\xe9\ndata=" + bytes(workdir / "data.tsv") + b"\n")
        code, out, err = run_main(capsys, EVAL_ARGS + ["--config", cfg_path])
        assert code == 1 and out == ""
        assert err.startswith(f"error: {cfg_path}: 'utf-8' codec can't decode byte 0xe9")
        assert "Traceback" not in err

    def test_train_reads_out_from_config(self, workdir, tmp_path, capsys):
        model = tmp_path / "m.bin"
        cfg_path = tmp_path / "train.cfg"
        cfg_path.write_text(f"data={workdir / 'data.tsv'}\nprompt=1\nout={model}\n")
        code, out, err = run_main(capsys, ["train", "--config", cfg_path])
        assert code == 0, err
        assert out.endswith(f"-> {model}\n")
        assert len(load_model(model).svr.train_ids) == 60

    def test_train_without_out_fails_cleanly(self, workdir, monkeypatch, capsys):
        monkeypatch.setattr(kaes.cli, "train_model", None)  # nothing is trained
        code, _, err = run_main(capsys, ["train", "--data", workdir / "data.tsv"])
        assert code == 1
        assert err == "error: missing required option --out\n"

    def test_train_on_two_prompts_asks_for_one(self, workdir, tmp_path, monkeypatch, capsys):
        model = tmp_path / "m.bin"
        model.write_bytes(b"old")
        train = ["train", "--data", workdir / "pair.tsv", "--out", model]
        with monkeypatch.context() as patch:
            patch.setattr(kaes.cli, "train_model", None)  # nothing is trained
            code, out, err = run_main(capsys, train)
        assert code == 1 and out == ""
        assert err == "error: the essays hold prompts 1, 2; a model scores one: choose it " \
                      "with --prompt\n"
        assert model.read_bytes() == b"old"
        code, out, err = run_main(capsys, [*train, "--prompt", "2"])
        assert code == 0, err
        assert out.startswith("model: 40/40 support vectors")

    @pytest.mark.parametrize("line", ["ngram-max=3", "kmeans_iter=5"])
    def test_unknown_config_key_fails(self, workdir, tmp_path, capsys, line):
        cfg_path = tmp_path / "typo.cfg"
        cfg_path.write_text(f"data={workdir / 'data.tsv'}\nprompt=1\n{line}\n")
        code, out, err = run_main(capsys, EVAL_ARGS + ["--config", cfg_path])
        assert code == 1 and out == ""
        key = line.split("=")[0]
        assert err == f"error: {cfg_path}: line 3: {key!r} is not a setting\n"

    def test_missing_required_flag_fails_cleanly(self, capsys):
        code, _, err = run_main(capsys, ["eval-indomain", "--prompt", "1"])
        assert code == 1
        assert "error: missing required option --data" in err

    @pytest.mark.parametrize("argv, minimum", [
        (["eval-indomain", "--prompt", "1", "--folds", "1"], "--folds must be at least 2"),
        (["eval-indomain", "--prompt", "1", "--folds", "0"], "--folds must be at least 2"),
        (["eval-indomain", "--prompt", "1", "--k", "0"], "--k must be at least 1"),
        (["eval-crossdomain", "--source", "1", "--target", "2", "--folds", "0"],
         "--folds must be at least 1"),
        (["eval-indomain", "--prompt", "1", "--repetitions", "0"],
         "--repetitions must be at least 1"),
        (["eval-crossdomain", "--source", "1", "--target", "2", "--nt", "0,-3"],
         "--nt sizes must be at least 0"),
        (["eval-indomain", "--prompt", "1", "--vocab-limit", "-5"],
         "--vocab-limit must be at least 0"),
        (["eval-indomain", "--prompt", "1", "--ngram-min", "0"],
         "--ngram-min must be at least 1"),
        (["eval-indomain", "--prompt", "1", "--ngram-min", "4", "--ngram-max", "3"],
         "--ngram-max must be at least --ngram-min (4), got 3"),
        (["eval-indomain", "--prompt", "1", "--kmeans-iters", "-1"],
         "--kmeans-iters must be at least 0"),
        (["eval-crossdomain", "--source", "1", "--target", "2", "--nt", ","],
         "--nt must list at least one sub-sample size"),
        (["eval-crossdomain", "--source", "1", "--target", "1"],
         "--source and --target must differ, got 1 for both"),
        # Solver and seed settings that cannot be solved or saved.
        (["eval-indomain", "--prompt", "1", "--c", "nan"], "c must be positive and finite"),
        (["eval-indomain", "--prompt", "1", "--c", "inf"], "c must be positive and finite"),
        (["eval-indomain", "--prompt", "1", "--kkt-tolerance", "nan"],
         "kkt_tolerance must be positive and finite"),
        (["eval-indomain", "--prompt", "1", "--max-iterations", "-1"],
         "max_iterations must be in [0, 2**64), got -1"),
        (["eval-indomain", "--prompt", "1", "--seed", "-1"], "--seed must be in [0, 2**64)"),
        (["train", "--max-iterations", "-1", "--out", "m.bin"],
         "max_iterations must be in [0, 2**64)"),
        (["train", "--seed", str(2**64), "--out", "m.bin"], "--seed must be in [0, 2**64)"),
        # The model file stores the n-gram range as u32 and the limit as u64.
        (["train", "--ngram-max", str(2**32), "--out", "m.bin"],
         f"--ngram-max must be below 2**32, got {2**32}"),
        (["train", "--vocab-limit", str(2**64), "--out", "m.bin"],
         f"--vocab-limit must be below 2**64, got {2**64}"),
    ])
    def test_too_few_folds_or_clusters_fail_up_front(self, workdir, capsys, monkeypatch,
                                                     argv, minimum):
        monkeypatch.setattr(kaes.harness, "load_essays", None)  # nothing is read
        code, out, err = run_main(capsys, [*argv, "--data", workdir / "pair.tsv"])
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: {minimum}")
        assert "Traceback" not in err

    def test_train_boswe_ignores_whitespace_only_essay(self, workdir, tmp_path, capsys):
        lines = make_corpus_tsv(30, seed=7).decode().splitlines()
        fields = lines[5].split("\t")
        fields[2] = "   "
        lines[5] = "\t".join(fields)
        data = tmp_path / "blank.tsv"
        data.write_text("\n".join(lines) + "\n")
        code, _, err = run_main(capsys, [
            "train", "--data", data, "--representation", "boswe", "--embeddings",
            workdir / "emb.bin", "--k", "8", "--out", tmp_path / "model.bin",
        ])
        assert code == 0, err

    @pytest.mark.parametrize("representation", ["hisk", "boswe", "fused"])
    def test_train_drops_blank_essay(self, workdir, tmp_path, capsys, caplog, representation):
        # The same corpus with essay 5's text blanked, and without essay 5.
        lines = make_corpus_tsv(30, seed=7).decode().splitlines()
        fields = lines[5].split("\t")
        blank_id = fields[0]
        fields[2] = "   "
        blank, clean = tmp_path / "blank.tsv", tmp_path / "clean.tsv"
        blank.write_text("\n".join(lines[:5] + ["\t".join(fields)] + lines[6:]) + "\n")
        clean.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        flags = ["--representation", representation, "--k", "8", "--seed", "1"]
        if representation != "hisk":
            flags += ["--embeddings", workdir / "emb.bin"]
        models = {}
        for name, data in (("blank", blank), ("clean", clean)):
            models[name] = tmp_path / f"{name}.bin"
            with caplog.at_level("WARNING", logger="kaes.harness"):
                code, _, err = run_main(capsys, ["train", "--data", data, *flags,
                                                 "--out", models[name]])
            assert code == 0, err
        assert f"dropping 1 blank essays: {blank_id}" in caplog.text
        assert models["blank"].read_bytes() == models["clean"].read_bytes()

    @pytest.mark.parametrize("representation", ["hisk", "boswe", "fused"])
    def test_predict_drops_blank_essay(self, workdir, tmp_path, capsys, caplog, representation):
        # The training corpus, as test data with essay 5's text blanked, and without essay 5.
        lines = make_corpus_tsv(30, seed=7).decode().splitlines()
        fields = lines[5].split("\t")
        blank_id = fields[0]
        fields[2] = "   "
        train, blank, clean = tmp_path / "train.tsv", tmp_path / "blank.tsv", tmp_path / "clean.tsv"
        train.write_text("\n".join(lines) + "\n")
        blank.write_text("\n".join(lines[:5] + ["\t".join(fields)] + lines[6:]) + "\n")
        clean.write_text("\n".join(lines[:5] + lines[6:]) + "\n")
        flags = ["--representation", representation, "--k", "8", "--seed", "1"]
        if representation != "hisk":
            flags += ["--embeddings", workdir / "emb.bin"]
        model = tmp_path / "model.bin"
        code, _, err = run_main(capsys, ["train", "--data", train, *flags, "--out", model])
        assert code == 0, err
        preds = {}
        for name, data in (("blank", blank), ("clean", clean)):
            preds[name] = tmp_path / f"{name}-preds.tsv"
            with caplog.at_level("WARNING", logger="kaes.harness"):
                code, _, err = run_main(capsys, [
                    "predict", "--data", data, "--model", model, *flags, "--out", preds[name]])
            assert code == 0, err
        assert f"dropping 1 blank essays: {blank_id}" in caplog.text
        assert preds["blank"].read_bytes() == preds["clean"].read_bytes()
        assert len(preds["clean"].read_text().splitlines()) == 30

    @pytest.mark.parametrize("command", ["train", "predict"])
    def test_non_finite_vector_fails_cleanly(self, workdir, tmp_path, capsys, command):
        # The NaN is in the vector of a training essay's token, or of a token
        # that only an essay given to `predict` uses.  `predict` reads no
        # vectors: `train` labels every token a scored essay could bring.
        data = tmp_path / "data.tsv"
        data.write_bytes(make_corpus_tsv(30, seed=7))
        vectors = load_word2vec_binary(io.BytesIO(make_embeddings_bytes(decoys=1)))
        token = "omega" if command == "train" else "decoy0"
        vectors.vectors[vectors.vocab[token], 3] = np.nan
        nan_vectors = tmp_path / "nan.bin"
        save_word2vec_binary(vectors, nan_vectors)
        code, out, err = run_main(capsys, ["train", "--data", data, "--representation", "boswe",
                                           "--k", "8", "--embeddings", nan_vectors,
                                           "--out", tmp_path / "model.bin"])
        assert code == 1 and out == ""
        assert err == (f"error: {nan_vectors}: NaN or infinite vectors of 1 tokens: "
                       f"{token!r}\n")
        assert not (tmp_path / "model.bin").exists()

    def test_retrained_hisk_model_drops_stale_codebook(self, workdir, tmp_path, capsys):
        common = ["--data", workdir / "data.tsv", "--prompt", "1", "--embeddings",
                  workdir / "emb.bin", "--k", "8", "--seed", "1"]
        model = tmp_path / "m.bin"
        for representation in ("boswe", "hisk"):
            code, _, err = run_main(capsys, ["train", *common, "--representation",
                                             representation, "--out", model])
            assert code == 0, err
        assert list(tmp_path.iterdir()) == [model]
        assert load_model(model).super_words is None
        code, out, err = run_main(capsys, ["predict", *common, "--representation", "boswe",
                                           "--model", model])
        assert code == 1 and out == ""
        assert err == ("error: --representation boswe does not match the model, "
                       "which was trained as hisk\n")

    def test_predict_hisk_refuses_model_with_codebook(self, workdir, tmp_path, capsys):
        common = ["--data", workdir / "data.tsv", "--prompt", "1", "--embeddings",
                  workdir / "emb.bin", "--k", "8", "--seed", "1"]
        model = tmp_path / "m.bin"
        code, _, err = run_main(capsys, ["train", *common, "--representation", "fused",
                                         "--out", model])
        assert code == 0, err
        code, out, err = run_main(capsys, ["predict", *common, "--representation", "hisk",
                                           "--model", model])
        assert code == 1 and out == ""
        assert err == ("error: --representation hisk does not match the model, "
                       "which was trained as fused\n")

    @pytest.mark.parametrize("trained, given", [("boswe", "fused"), ("hisk", "boswe")])
    def test_predict_refuses_another_representation(self, workdir, tmp_path, capsys,
                                                    trained, given):
        common = ["--data", workdir / "data.tsv", "--prompt", "1", "--embeddings",
                  workdir / "emb.bin", "--k", "8", "--seed", "1"]
        model = tmp_path / "m.bin"
        code, _, err = run_main(capsys, ["train", *common, "--representation", trained,
                                         "--out", model])
        assert code == 0, err
        code, out, err = run_main(capsys, ["predict", *common, "--representation", given,
                                           "--model", model])
        assert code == 1 and out == ""
        assert err == (f"error: --representation {given} does not match the model, "
                       f"which was trained as {trained}\n")

    def test_predict_takes_the_kernel_from_the_model(self, workdir, tmp_path, capsys):
        data = workdir / "data.tsv"
        model_path, preds = tmp_path / "m.bin", tmp_path / "preds.tsv"
        code, _, err = run_main(capsys, ["train", "--data", data, "--prompt", "1",
                                         "--ngram-min", "2", "--ngram-max", "3",
                                         "--out", model_path])
        assert code == 0, err
        # --k, --kmeans-iters and --seed are taken but not read, so not checked either.
        code, _, err = run_main(capsys, ["predict", "--data", data, "--model", model_path,
                                         "--k", "0", "--kmeans-iters", "-1", "--seed", "5",
                                         "--out", preds])
        assert code == 0, err
        model = load_model(model_path)
        assert (model.ngram_min, model.ngram_max) == (2, 3)
        essays = load_essays(data, 1)
        text = {e.id: e.text for e in essays}
        rows, cols = [e.text for e in essays], [text[eid] for eid in model.svr.support_ids]
        block = normalize_kernel(
            kernel_matrix(rows, cols, row_ids=[e.id for e in essays],
                          col_ids=model.svr.support_ids, n_min=2, n_max=3),
            self_similarities(rows, 2, 3), self_similarities(cols, 2, 3))
        lines = ["essay_id\tessay_set\tprediction"]
        lines += [f"{e.id}\t{e.prompt}\t{unscale_score(float(p), ASAP_SCORE_RANGES[1])}"
                  for e, p in zip(essays, predict(model.svr, block))]
        assert preds.read_text() == "\n".join(lines) + "\n"

    @pytest.mark.parametrize("representation", sorted(PREDICTION_DIGESTS))
    def test_predict_reads_no_training_tsv(self, workdir, tmp_path, capsys, representation):
        train, test, model = tmp_path / "train.tsv", tmp_path / "test.tsv", tmp_path / "m.bin"
        train.write_bytes(make_corpus_tsv(60, seed=11))
        test.write_bytes(make_corpus_tsv(30, seed=12))  # the same ids, other texts
        vectors = tmp_path / "emb.bin"
        vectors.write_bytes((workdir / "emb.bin").read_bytes())
        flags = ["--prompt", "1", "--representation", representation, "--k", "8", "--seed", "1"]
        if representation != "hisk":
            flags += ["--embeddings", vectors]
        code, _, err = run_main(capsys, ["train", "--data", train, *flags, "--out", model])
        assert code == 0, err
        train.unlink()
        vectors.unlink()
        # --train-data and --embeddings are taken and not read.
        code, out, err = run_main(capsys, ["predict", "--data", test, "--train-data", train,
                                           *flags, "--model", model])
        assert code == 0, err
        assert hashlib.sha256(out.encode()).hexdigest() == PREDICTION_DIGESTS[representation]

    @pytest.mark.parametrize("representation", ["boswe", "fused"])
    def test_predict_reads_no_vectors_file(self, workdir, tmp_path, capsys, monkeypatch,
                                           representation):
        vectors, model = tmp_path / "emb.bin", tmp_path / "m.bin"
        vectors.write_bytes(make_embeddings_bytes(decoys=3))
        common = ["--data", workdir / "data.tsv", "--prompt", "1", "--representation",
                  representation, "--k", "8", "--seed", "1"]
        code, _, err = run_main(capsys, ["train", *common, "--embeddings", vectors,
                                         "--out", model])
        assert code == 0, err
        code, expected, err = run_main(capsys, ["predict", *common, "--embeddings", vectors,
                                                "--model", model])
        assert code == 0, err
        vectors.unlink()

        def no_vectors(*args, **kwargs):
            raise AssertionError("loaded a vectors file")

        monkeypatch.setattr(kaes.harness, "load_word2vec_binary", no_vectors)
        # --embeddings is taken and not read: a missing file, or none at all.
        for flag in (["--embeddings", vectors], []):
            code, out, err = run_main(capsys, ["predict", *common, *flag, "--model", model])
            assert (code, out) == (0, expected), err

    def test_predict_loads_vectors_once(self, workdir, tmp_path, capsys, monkeypatch):
        # From train to predict the vectors file is loaded once: train reads it,
        # and predict scores with the super-words the model carries.
        common = ["--data", workdir / "data.tsv", "--prompt", "1", "--representation", "fused",
                  "--embeddings", workdir / "emb.bin", "--k", "8", "--seed", "1"]
        model = tmp_path / "model.bin"
        loaded = record_vector_loads(monkeypatch)
        code, _, err = run_main(capsys, ["train", *common, "--out", model])
        assert code == 0, err
        assert len(loaded) == 1
        code, _, err = run_main(capsys, ["predict", *common, "--model", model])
        assert code == 0, err
        assert len(loaded) == 1

    def test_id_and_text_with_an_undefined_cp1252_byte(self, workdir, tmp_path, capsys, caplog):
        # Parsing decodes byte 0x81, which Windows-1252 leaves undefined, to a lone surrogate.
        lines = make_corpus_tsv(30, seed=7).split(b"\n")
        lines[1] = b"x\x81" + lines[1][lines[1].index(b"\t"):]
        fields = lines[2].split(b"\t")
        fields[2] += b" caf\x81 omega"
        lines[2] = b"\t".join(fields)
        data, cache, model = tmp_path / "odd.tsv", tmp_path / "cache", tmp_path / "m.bin"
        data.write_bytes(b"\n".join(lines))
        common = ["--data", data, "--prompt", "1", "--representation", "fused",
                  "--embeddings", workdir / "emb.bin", "--k", "8", "--seed", "1"]
        code, _, err = run_main(capsys, ["kernel", "--data", data, "--cache-dir", cache])
        assert code == 0, err
        reports = []
        with caplog.at_level("INFO", logger="kaes.harness"):
            for where in (tmp_path / "cold", tmp_path / "cold", cache):  # cold, warm, `kernel`'s
                code, out, err = run_main(capsys, ["eval-indomain", *common, "--repetitions",
                                                   "1", "--cache-dir", where])
                assert code == 0, err
                reports.append(out)
            code, _, err = run_main(capsys, ["train", *common, "--cache-dir", cache,
                                             "--out", model])
            assert code == 0, err
        assert reports[0] == reports[1] == reports[2]
        assert caplog.text.count("loading cached Gram matrix") == 3
        assert "ignoring" not in caplog.text
        assert "x\udc81" in load_model(model).svr.train_ids
        code, _, err = run_main(capsys, ["predict", *common, "--model", model,
                                         "--out", tmp_path / "preds.tsv"])
        assert code == 0, err
        assert b"\nx\x81\t1\t" in (tmp_path / "preds.tsv").read_bytes()

    def test_id_with_a_cp1252_letter_comes_back_as_its_byte(self, tmp_path, capsys):
        # 0xE9 is the Windows-1252 letter \xe9; its UTF-8 bytes would be C3 A9.
        lines = make_corpus_tsv(20, seed=7).split(b"\n")
        lines[1] = b"caf\xe9" + lines[1][lines[1].index(b"\t"):]
        data, model = tmp_path / "latin.tsv", tmp_path / "m.bin"
        data.write_bytes(b"\n".join(lines))
        code, _, err = run_main(capsys, ["train", "--data", data, "--out", model])
        assert code == 0, err
        assert "caf\xe9" in load_model(model).svr.train_ids
        code, _, err = run_main(capsys, ["predict", "--data", data, "--model", model,
                                         "--out", tmp_path / "preds.tsv"])
        assert code == 0, err
        preds = (tmp_path / "preds.tsv").read_bytes()
        assert b"\ncaf\xe9\t1\t" in preds and b"caf\xc3\xa9" not in preds

    @pytest.mark.parametrize("representation", ["hisk", "boswe", "fused"])
    def test_predict_with_no_support_vectors_scores_the_bias(self, workdir, tmp_path, capsys,
                                                            representation):
        # Every prompt-1 essay scores 2, so the model fits a constant: no support vectors.
        lines = make_corpus_tsv(12, seed=5, prompts=(1, 2)).decode().splitlines()
        lines[1:13] = ["\t".join([*line.split("\t")[:3], "2"]) for line in lines[1:13]]
        data, model_path = tmp_path / "flat.tsv", tmp_path / "m.bin"
        data.write_text("\n".join(lines) + "\n")
        common = ["--data", data, "--embeddings", workdir / "emb.bin"]
        code, out, err = run_main(capsys, ["train", *common, "--prompt", "1", "--k", "4",
                                           "--representation", representation,
                                           "--out", model_path])
        assert code == 0, err
        assert out.startswith("model: 0/12 support vectors")
        code, out, err = run_main(capsys, ["predict", *common, "--model", model_path])
        assert code == 0, err
        bias = load_model(model_path).svr.bias
        # Each essay gets the bias on its own prompt's scale.
        expected = ["essay_id\tessay_set\tprediction"]
        expected += [f"{e.id}\t{e.prompt}\t{unscale_score(bias, ASAP_SCORE_RANGES[e.prompt])}"
                     for e in load_essays(data)]
        assert out == "\n".join(expected) + "\n"

    def test_train_reads_vectors_before_the_gram(self, workdir, tmp_path, capsys, monkeypatch):
        def no_gram(*args, **kwargs):
            raise AssertionError("computed an n-gram Gram matrix")

        monkeypatch.setattr(kaes.harness, "kernel_matrix", no_gram)
        cache, missing = tmp_path / "cache", tmp_path / "missing.bin"
        code, out, err = run_main(capsys, [
            "train", "--data", workdir / "data.tsv", "--prompt", "1", "--representation",
            "fused", "--embeddings", missing, "--cache-dir", cache, "--out", tmp_path / "m.bin",
        ])
        assert code == 1 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"
        assert not list(cache.glob("hisk_*.km"))

    @pytest.mark.parametrize("flag", ["data", "config", "model", "embeddings", "table"])
    def test_missing_input_file_fails_cleanly(self, workdir, tmp_path, capsys, flag):
        data, missing = workdir / "data.tsv", tmp_path / "missing"
        argv = {
            "data": ["ingest", "--data", missing],
            "config": ["ingest", "--config", missing],
            "model": ["predict", "--data", data, "--model", missing],
            "embeddings": ["train", "--data", data, "--representation", "boswe",
                           "--embeddings", missing, "--out", tmp_path / "boswe.bin"],
            "table": ["report", "--table", missing],
        }[flag]
        code, out, err = run_main(capsys, argv)
        assert code == 1 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{missing}'\n"

    @pytest.mark.parametrize("command, name", [
        ("train", "m.bin"), ("predict", "p.tsv"), ("eval-indomain", "t.csv"),
        ("eval-crossdomain", "t.csv"),
    ])
    def test_output_in_a_missing_directory_names_the_output(self, workdir, tmp_path, capsys,
                                                            monkeypatch, command, name):
        data, model = workdir / "data.tsv", tmp_path / "m.bin"
        extra = {"train": ["--prompt", "1"], "predict": ["--model", model],
                 "eval-indomain": ["--prompt", "1", "--repetitions", "1"],
                 "eval-crossdomain": ["--source", "1", "--target", "2", "--repetitions", "1"],
                 }[command]
        if command == "predict":
            code, _, err = run_main(capsys, ["train", "--data", data, "--prompt", "1",
                                             "--out", model])
            assert code == 0, err
        if command == "eval-crossdomain":
            data = workdir / "pair.tsv"

        def no_gram(*args, **kwargs):
            raise AssertionError("computed an n-gram Gram matrix")

        # The output is opened before any work, so a bad path fails first.
        monkeypatch.setattr(kaes.harness, "kernel_matrix", no_gram)
        out_path = tmp_path / "nodir" / name
        code, out, err = run_main(capsys, [command, "--data", data, *extra, "--out", out_path])
        assert code == 1 and out == ""
        assert err == f"error: [Errno 2] No such file or directory: '{out_path}'\n"
        assert not list(tmp_path.rglob("*.tmp"))

    def test_report_rejects_table_that_is_not_utf8(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_bytes(b"key,n_t,representation,qwk_mean,qwk_std,runs,failed\n"
                          b"1,,hisk,0.9\xff,0.0100,5,\n")
        code, out, err = run_main(capsys, ["report", "--table", table])
        assert code == 1 and out == ""
        assert err.startswith("error: result table is not UTF-8: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize("row, reason", [
        ("1,,hisk,0.900,0.0100,5", "not enough values to unpack (expected 7, got 6)"),
        ("1,,hisk,high,0.0100,5,", "could not convert string to float: 'high'"),
    ])
    def test_report_names_malformed_line(self, tmp_path, capsys, row, reason):
        table = tmp_path / "table.csv"
        table.write_text("key,n_t,representation,qwk_mean,qwk_std,runs,failed\n"
                         f"2,,hisk,0.800,0.0100,5,\n{row}\n")
        code, out, err = run_main(capsys, ["report", "--table", table])
        assert code == 1 and out == ""
        assert err == f"error: result table line 3: {reason}\n"

    @pytest.mark.parametrize("representation", ["hisk", "boswe", "fused"])
    def test_library_matches_commands(self, workdir, tmp_path, capsys, representation):
        data = workdir / "data.tsv"
        flags = ["--data", data, "--prompt", "1", "--representation", representation,
                 "--k", "8", "--seed", "1"]
        cfg = ExperimentConfig(mode="in-domain", data_path=str(data), prompt=1,
                               representation=representation, k=8, seed=1)
        if representation != "hisk":
            flags += ["--embeddings", workdir / "emb.bin"]
            cfg.embeddings_path = str(workdir / "emb.bin")
        model_path, preds = tmp_path / "model.bin", tmp_path / "preds.tsv"
        code, _, err = run_main(capsys, ["train", *flags, "--out", model_path])
        assert code == 0, err
        code, _, err = run_main(capsys, ["predict", *flags, "--model", model_path,
                                         "--out", preds])
        assert code == 0, err

        essays = load_essays(data, 1)
        model = train_model(cfg, essays)
        model_bytes = io.BytesIO()
        save_model(model, model_bytes)
        assert model_bytes.getvalue() == model_path.read_bytes()
        assert (model.super_words is None) == (representation == "hisk")
        scores = predict_scores(model, essays)
        lines = ["essay_id\tessay_set\tprediction"]
        lines += [f"{e.id}\t{e.prompt}\t{score}" for e, score in scores]
        assert ("\n".join(lines) + "\n").encode() == preds.read_bytes()

    def test_train_reads_gram_cached_by_kernel(self, workdir, tmp_path, capsys, monkeypatch):
        cache = tmp_path / "cache"
        code, _, _ = run_main(capsys, ["kernel", "--data", workdir / "data.tsv",
                                       "--prompt", "1", "--cache-dir", cache])
        assert code == 0
        train = ["train", "--data", workdir / "data.tsv", "--prompt", "1",
                 "--representation", "fused", "--embeddings", workdir / "emb.bin",
                 "--k", "8", "--seed", "1"]
        code, _, _ = run_main(capsys, [*train, "--out", tmp_path / "cold.bin"])
        assert code == 0

        def no_gram(*args, **kwargs):
            raise AssertionError("computed an n-gram Gram matrix")

        monkeypatch.setattr(kaes.harness, "kernel_matrix", no_gram)
        code, _, err = run_main(capsys, [*train, "--cache-dir", cache,
                                         "--out", tmp_path / "warm.bin"])
        assert code == 0, err
        assert (tmp_path / "warm.bin").read_bytes() == (tmp_path / "cold.bin").read_bytes()

    def test_kernel_drops_blank_essay(self, tmp_path, capsys, caplog, monkeypatch):
        lines = make_corpus_tsv(30, seed=7).decode().splitlines()
        fields = lines[5].split("\t")
        blank_id = fields[0]
        fields[2] = "   "
        lines[5] = "\t".join(fields)
        data, cache = tmp_path / "blank.tsv", tmp_path / "cache"
        data.write_text("\n".join(lines) + "\n")
        with caplog.at_level("WARNING", logger="kaes.harness"):
            code, _, err = run_main(capsys, ["kernel", "--data", data, "--cache-dir", cache])
        assert code == 0, err
        assert f"dropping 1 blank essays: {blank_id}" in caplog.text
        (cached,) = cache.glob("hisk_*.km")
        assert load_kernel_matrix(cached).shape == (29, 29)

        def no_gram(*args, **kwargs):
            raise AssertionError("computed an n-gram Gram matrix")

        monkeypatch.setattr(kaes.harness, "kernel_matrix", no_gram)
        caplog.clear()
        with caplog.at_level("INFO", logger="kaes.harness"):
            code, _, err = run_main(capsys, ["eval-indomain", "--data", data, *EVAL_ARGS[1:],
                                             "--cache-dir", cache])
        assert code == 0, err
        assert "loading cached Gram matrix hisk_" in caplog.text
        assert "ignoring" not in caplog.text

    def test_kernel_without_prompt_warms_each_prompts_gram(self, tmp_path, capsys, caplog):
        data, cache = tmp_path / "two.tsv", tmp_path / "cache"
        data.write_bytes(make_corpus_tsv(20, seed=1, prompts=(1, 2)))
        evaluate = ["eval-indomain", "--data", data, *EVAL_ARGS[3:]]  # every prompt
        code, cold, err = run_main(capsys, evaluate)
        assert code == 0, err
        code, _, err = run_main(capsys, ["kernel", "--data", data, "--cache-dir", cache])
        assert code == 0, err
        assert len(list(cache.glob("hisk_*.km"))) == 2
        with caplog.at_level("INFO", logger="kaes.harness"):
            code, warm, err = run_main(capsys, [*evaluate, "--cache-dir", cache])
        assert code == 0, err
        assert "computing" not in caplog.text
        assert caplog.text.count("loading cached Gram matrix hisk_") == 2
        assert warm == cold

    def test_commands_load_only_the_vectors_they_need(self, workdir, tmp_path, capsys,
                                                      monkeypatch):
        lines = (workdir / "data.tsv").read_text().splitlines()
        # One test essay uses a word of the vectors file that no training essay uses.
        fields = lines[31].split("\t")
        fields[2] += " decoy7"
        lines[31] = "\t".join(fields)
        train, test = tmp_path / "train.tsv", tmp_path / "test.tsv"
        train.write_text("\n".join(lines[:31]) + "\n")
        test.write_text("\n".join(lines[:1] + lines[31:]) + "\n")
        # The vectors file also holds tokens that tokenize cannot produce.
        table = load_word2vec_binary(io.BytesIO(make_embeddings_bytes(decoys=200)))
        odd = ["Omega", "omega_2", "@omega", "\u2460"]
        rng = np.random.default_rng(3)
        vectors = tmp_path / "decoys.bin"
        save_word2vec_binary(EmbeddingModel(
            table.dim, {**table.vocab, **{t: len(table) + i for i, t in enumerate(odd)}},
            np.vstack([table.vectors, rng.normal(size=(len(odd), table.dim))])), vectors)
        common = ["--prompt", "1", "--representation", "fused", "--embeddings", vectors,
                  "--k", "8", "--seed", "1"]

        def outputs(full: bool):
            out = tmp_path / ("full" if full else "kept")
            out.mkdir()
            with monkeypatch.context() as patch:
                loaded = record_vector_loads(patch, full)
                for argv in (
                    ["train", "--data", train, *common, "--out", out / "model.bin"],
                    ["predict", "--data", test, *common, "--model", out / "model.bin",
                     "--out", out / "preds.tsv"],
                ):
                    code, _, err = run_main(capsys, argv)
                    assert code == 0, err
            return [(out / name).read_bytes() for name in ("model.bin", "preds.tsv")], loaded

        # `train` loads once and `predict` not at all.
        (kept_model, kept_preds), (train_table,) = outputs(full=False)
        (full_model, full_preds), (full_table,) = outputs(full=True)
        assert kept_preds == full_preds
        # `train` keeps every token that an essay could bring, "decoy7" among them,
        # and labels each as a full load does.
        assert set(train_table.vocab) == {t for t in full_table.vocab if tokenize(t) == [t]}
        assert set(full_table.vocab) - set(train_table.vocab) == set(odd)
        assert "decoy7" in train_table.vocab
        kept_words = load_model(io.BytesIO(kept_model)).super_words.labels
        full_words = load_model(io.BytesIO(full_model)).super_words.labels
        assert set(kept_words) == set(train_table.vocab)
        assert kept_words == {t: full_words[t] for t in kept_words}


def child_env() -> dict[str, str]:
    """The environment for a child `python -m kaes.cli`, importing this kaes."""
    src = str(Path(kaes.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestProcessDeterminism:
    def test_identical_reports_across_processes(self, workdir):
        cmd = [sys.executable, "-m", "kaes.cli", "eval-indomain",
               "--data", str(workdir / "data.tsv"), *EVAL_ARGS[1:]]
        runs = [
            subprocess.run(cmd, capture_output=True, check=True, env=child_env()).stdout
            for _ in range(2)
        ]
        assert runs[0] == runs[1]
        assert runs[0].startswith(b"# mode=in-domain")

    def test_identical_fused_model_and_predictions_across_processes(self, workdir, tmp_path):
        outputs = []
        for run in ("a", "b"):
            out = tmp_path / run
            out.mkdir()
            common = ["--data", str(workdir / "data.tsv"), "--prompt", "1",
                      "--representation", "fused", "--embeddings", str(workdir / "emb.bin"),
                      "--k", "8", "--seed", "1"]
            subprocess.run([sys.executable, "-m", "kaes.cli", "train", *common,
                            "--out", str(out / "model.bin")],
                           capture_output=True, check=True, env=child_env())
            subprocess.run([sys.executable, "-m", "kaes.cli", "predict", *common,
                            "--model", str(out / "model.bin"), "--out", str(out / "preds.tsv")],
                           capture_output=True, check=True, env=child_env())
            outputs.append([(out / name).read_bytes()
                            for name in ("model.bin", "preds.tsv")])
        assert outputs[0] == outputs[1]
        assert all(outputs[0])
