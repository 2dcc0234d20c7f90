"""Tests of the benchmark itself: generator, span arithmetic, tiny workloads.

Run from the repository root with ``PYTHONPATH=src python -m pytest perfbench/tests``.
"""
from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
REPO = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import synth  # noqa: E402

from kaes.corpus import parse_asap_tsv  # noqa: E402
from kaes.embeddings import load_word2vec_binary, tokenize  # noqa: E402


def _declared(section: str) -> set[str]:
    return {m["name"] for m in json.loads((REPO / "BENCHMARK.json").read_text())[section]}


class TestGenerator:
    def test_same_seed_same_bytes(self, tmp_path):
        synth.generate(3, tmp_path / "a", n_essays=6, extra_words=20)
        synth.generate(3, tmp_path / "b", n_essays=6, extra_words=20)
        for name in ("essays-3.tsv", "vectors.bin"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_seeds_differ(self, tmp_path):
        assert synth.essays_tsv(1, 6) != synth.essays_tsv(2, 6)
        # The vectors file is the same for every seed, so one copy serves them all.
        synth.generate(1, tmp_path / "a", n_essays=6, extra_words=20)
        synth.generate(2, tmp_path / "b", n_essays=6, extra_words=20)
        assert ((tmp_path / "a" / "vectors.bin").read_bytes()
                == (tmp_path / "b" / "vectors.bin").read_bytes())

    def test_shape_of_essays_and_vectors(self, tmp_path):
        synth.generate(5, tmp_path, n_essays=20, extra_words=50)
        essays = parse_asap_tsv((tmp_path / "essays-5.tsv").read_bytes())
        assert len(essays) == 20 and {e.prompt for e in essays} == {synth.PROMPT}
        for e in essays:
            assert synth.MIN_WORDS <= len(e.text.split()) <= synth.MAX_WORDS
        model = load_word2vec_binary(tmp_path / "vectors.bin")
        assert model.dim == synth.DIM
        vocab = synth.vocabulary()
        assert len(model) == 50 + len(vocab.advanced) + sum(
            1 for r in range(len(vocab.common)) if r < 200 or r % synth.OMITTED_EVERY)
        tokens = [t for e in essays for t in tokenize(e.text)]
        oov = sum(t not in model.vocab for t in tokens) / len(tokens)
        assert 0.01 < oov < 0.25


def _span(name, start, end, parent=None):
    return spans.Span(name, "test", start, end, parent)


class TestSelfTime:
    def test_hand_built_tree(self):
        tree = [
            _span("harness.run_in_domain", 0.0, 10.0),  # 0
            _span("corpus.parse_asap_tsv", 0.5, 1.0, 0),  # 1
            _span("harness.normalized_hisk_gram", 1.0, 7.0, 0),  # 2
            _span("string_kernel.extract_ngram_counts", 1.0, 3.0, 2),  # 3
            _span("string_kernel.kernel_matrix", 3.0, 6.5, 2),  # 4
            _span("svr.train_nu_svr", 8.0, 9.0, 0),  # 5
        ]
        assert spans.self_times(tree) == pytest.approx([2.5, 0.5, 0.5, 2.0, 3.5, 1.0])
        assert spans.layer_self_times(tree) == pytest.approx(
            {"harness": 3.0, "corpus": 0.5, "string_kernel": 5.5, "svr": 1.0})
        assert sum(spans.layer_self_times(tree).values()) == pytest.approx(10.0)
        m = spans.layer_metrics(tree)
        assert m["harness.cache_misses"] == 1 and m["harness.cache_hits"] == 0
        assert m["harness.self_s"] == pytest.approx(3.0)
        assert m["string_kernel.gram_s"] == pytest.approx(3.5)

    def test_recorder_nests_calls(self):
        ticks = iter(range(100))
        rec = spans.Recorder(clock=lambda: float(next(ticks)))
        inner = rec.wrap(lambda: "x", "corpus.inner", "test")
        outer = rec.wrap(lambda: inner() + inner(), "harness.outer", "test")
        assert outer() == "xx" and rec.spans == []  # disabled: nothing recorded
        with rec.enabled_block():
            outer()
        assert [(s.name, s.parent) for s in rec.spans] == [
            ("harness.outer", None), ("corpus.inner", 0), ("corpus.inner", 0)]
        assert spans.self_times(rec.spans) == [3.0, 1.0, 1.0]

    def test_metric_names_match_benchmark_json(self):
        import workloads

        assert set(spans.METRICS) | set(workloads.TRACE_METRICS) == _declared("per_layer")


def test_steps_are_scaled_by_the_reference_samples_around_them():
    import reference
    import workloads

    nominal = reference.NOMINAL_S
    # Three steps; the machine runs at the reference speed, then half as fast.
    refs = [nominal, nominal, 2 * nominal, 2 * nominal]
    assert workloads.scaled([1.0, 3.0, 4.0], refs) == pytest.approx([1.0, 2.0, 2.0])


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    out = tmp_path_factory.mktemp("data")
    synth.generate(11, out, n_essays=20, extra_words=50)
    return out


def _tiny(workload):
    return dataclasses.replace(workload, essays=min(workload.essays, 15),
                               batch=min(workload.batch, 5), k=min(workload.k, 4),
                               kmeans_iters=min(workload.kmeans_iters, 2))


@pytest.mark.parametrize("name", ["hisk-cv-cold", "boswe-cv", "fused-score"])
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_at_tiny_size(name, trace, tiny_data, tmp_path):
    import workloads

    record = workloads.run(_tiny(workloads.WORKLOADS[name]), tiny_data / "essays-11.tsv",
                           tiny_data / "vectors.bin", tmp_path, 0.0, trace)
    assert record["problems"] == []
    assert record["failed"] == 0 and record["attempted"] > 0
    m = record["metrics"]
    if not trace:
        assert set(m) == _declared("end_to_end")
        assert all(v > 0 for v in m.values())
        return
    assert set(m) == _declared("per_layer")
    written = json.loads(json.dumps(record["spans"]))
    assert written and {"name", "via", "start", "end", "parent", "counts"} == set(written[0])
    # Layer self times account for the traced set-up and call, up to the
    # benchmark's own file reads between spans.
    traced = m["trace.setup_s"] + m["trace.wall_s"]
    assert 0 <= m["trace.remainder_s"] < 0.01 * traced
    string_kernel = [v for k, v in m.items() if k.startswith("string_kernel.")]
    boswe = [v for k, v in m.items() if k.startswith("boswe.")]
    if name == "boswe-cv":
        assert not any(string_kernel)
    if name == "hisk-cv-cold":
        assert not any(boswe)
        assert m["harness.cache_misses"] == 1
    if name == "fused-score":
        assert m["cli.train_s"] > 0 and m["cli.predict_s"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hisk-cv-cold", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
