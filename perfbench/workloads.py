"""The three benchmark workloads: set-up, the one timed call, and output checks.

Each workload isolates one pipeline layer (see ``perfbench/README.md``):

* ``hisk-cv-cold``: 5-fold in-domain cv on the n-gram kernel with an empty
  Gram cache on every call, so profiling and the pair loop dominate;
* ``boswe-cv``: 5-fold in-domain cv on super-word histograms with a
  codebook per fold, so k-means and token assignment dominate;
* ``fused-score``: ``kaes train --representation fused`` in set-up, then
  ``kaes predict`` on held-out essays, the only path through ``kaes.cli``.

Every ``kaes`` function is looked up through its module at call time, so the
span recorder of :mod:`spans` sees the calls when it is installed.
"""
from __future__ import annotations

import contextlib
import gc
import hashlib
import resource
import shutil
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import kaes.cli
import kaes.corpus
import kaes.embeddings
import kaes.harness
import kaes.metrics
from kaes.corpus import ASAP_SCORE_RANGES

import reference
import spans

PROMPT = 1
FOLDS = 5
KAES_SEED = 42  # the program's own seed; the workload seed only shapes the data
MIN_CALLS = 3
TRACE_METRICS = ("trace.setup_s", "trace.wall_s", "trace.remainder_s",
                 "trace.untraced_wall_s", "trace.overhead_s")


@dataclass(frozen=True)
class Workload:
    name: str
    representation: str
    essays: int  # cv: essays cross-validated; fused-score: training essays
    batch: int = 0  # fused-score: held-out essays scored by the timed call
    k: int = 0  # codebook size, where the representation has one
    kmeans_iters: int = 0

    @property
    def needs_embeddings(self) -> bool:
        return self.representation in ("boswe", "fused")

    @property
    def units_per_call(self) -> int:
        """Evaluation essays one timed call scores."""
        return self.batch if self.representation == "fused" else self.essays


WORKLOADS = {
    w.name: w
    for w in (
        Workload("hisk-cv-cold", "hisk", essays=60),
        Workload("boswe-cv", "boswe", essays=30, k=32, kmeans_iters=6),
        Workload("fused-score", "fused", essays=20, batch=20, k=32, kmeans_iters=6),
    )
}


@dataclass
class Call:
    """Outcome of one timed call, checked after the clock stopped."""

    seconds: float
    attempted: int
    failed: int
    qwk: float | None
    digest: str  # sha256 of the report and fold kappas, or of the prediction bytes
    problems: list[str] = field(default_factory=list)


class Runner:
    """Runs one workload on prepared inputs inside ``run_dir``."""

    def __init__(self, workload: Workload, essays: Path, vectors: Path, run_dir: Path):
        self.w = workload
        self.run_dir = run_dir
        self.vectors = str(vectors)
        rows = essays.read_bytes().split(b"\n")
        header, body = rows[0], [r for r in rows[1:] if r]
        needed = workload.essays + workload.batch
        if len(body) < needed:
            raise ValueError(f"{essays} holds {len(body)} essays, {workload.name} needs {needed}")
        self.train_tsv = run_dir / "train.tsv"
        self.train_tsv.write_bytes(b"\n".join([header, *body[:workload.essays]]) + b"\n")
        self.test_tsv = run_dir / "test.tsv"
        if workload.batch:
            self.test_tsv.write_bytes(
                b"\n".join([header, *body[workload.essays:needed]]) + b"\n")
        self.model = run_dir / "model.bin"
        self.model_digest: str | None = None
        self.calls = 0

    # -- set-up ---------------------------------------------------------

    def setup(self) -> tuple[float, list[str]]:
        """One set-up: parse, load embeddings if needed, and train for fused-score."""
        problems: list[str] = []
        start = time.perf_counter()
        essays = kaes.corpus.parse_asap_tsv(self.train_tsv.read_bytes(), prompt_filter=PROMPT)
        if self.w.representation == "fused":  # kaes train loads the vectors itself
            with contextlib.redirect_stdout(sys.stderr):  # keep stdout for the result
                code = kaes.cli.main(["train", *self._model_flags(),
                                      "--data", str(self.train_tsv), "--out", str(self.model)])
        elif self.w.needs_embeddings:
            kaes.embeddings.load_word2vec_binary(self.vectors)
        elapsed = time.perf_counter() - start
        if len(essays) != self.w.essays:
            problems.append(f"parsed {len(essays)} essays, expected {self.w.essays}")
        if self.w.representation == "fused":
            digest = hashlib.sha256(self.model.read_bytes()).hexdigest() if code == 0 else None
            if digest is None or self.model_digest not in (None, digest):
                problems.append(f"kaes train exited with {code} or wrote a different model")
            self.model_digest = digest
        return elapsed, problems

    def _model_flags(self) -> list[str]:
        flags = ["--prompt", str(PROMPT), "--representation", self.w.representation,
                 "--seed", str(KAES_SEED)]
        if self.w.needs_embeddings:
            flags += ["--embeddings", self.vectors, "--k", str(self.w.k),
                      "--kmeans-iters", str(self.w.kmeans_iters)]
        return flags

    # -- the timed call ---------------------------------------------------

    def call(self, traced=None) -> Call:
        """One timed call, then its output checks.

        ``traced`` (a context manager) wraps the timed part only, so the
        checks never show up in the trace.
        """
        self.calls += 1
        if self.w.representation == "fused":
            run, check = self._predict, self._check_predictions
        else:
            run, check = self._cross_validate, self._check_table
        if traced is None:
            return check(*run())
        with traced:
            result = run()
        return check(*result)

    def _cross_validate(self):
        cache = self.run_dir / f"cache-{self.calls}"
        codebook = {}
        if self.w.needs_embeddings:
            codebook = dict(embeddings_path=self.vectors, k=self.w.k,
                            kmeans_iters=self.w.kmeans_iters)
        cfg = kaes.harness.ExperimentConfig(
            mode="in-domain",
            representation=self.w.representation,
            data_path=str(self.train_tsv),
            prompt=PROMPT,
            cache_dir=str(cache) if self.w.representation == "hisk" else None,
            seed=KAES_SEED,
            folds=FOLDS,
            repetitions=1,
            **codebook,
        )
        start = time.perf_counter()
        table = kaes.harness.run_in_domain(cfg)
        return time.perf_counter() - start, table, cache

    def _check_table(self, elapsed: float, table, cache: Path) -> Call:
        # The report rounds kappas to 3 decimals; the fold kappas join the
        # digest at full precision so that any change of a score shows.
        report = kaes.harness.emit_report(table, "text")
        kappas = repr(sorted((c.key, c.values) for c in table.cells)).encode()
        attempted = FOLDS * len(table.cells)
        done = sum(c.n_runs for c in table.cells)
        out = Call(elapsed, attempted, attempted - done, None,
                   hashlib.sha256(report + b"\0" + kappas).hexdigest())
        if len(table.cells) != 1:
            out.problems.append(f"expected one result cell, got {len(table.cells)}")
        for cell in table.cells:
            if cell.failed is not None:
                out.problems.append(f"cell {cell.key} failed: {cell.failed}")
            out.qwk = cell.mean
        if self.w.representation == "hisk":
            written = sorted(p.name for p in cache.glob("hisk_*.km"))
            if len(written) != 1:
                out.problems.append(f"expected one hisk_*.km in the cold cache, found {written}")
            shutil.rmtree(cache, ignore_errors=True)
        return out

    def _predict(self):
        preds = self.run_dir / f"preds-{self.calls}.tsv"
        argv = ["predict", *self._model_flags(), "--data", str(self.test_tsv),
                "--train-data", str(self.train_tsv), "--model", str(self.model),
                "--out", str(preds)]
        start = time.perf_counter()
        code = kaes.cli.main(argv)
        return time.perf_counter() - start, code, preds

    def _check_predictions(self, elapsed: float, code: int, preds: Path) -> Call:
        batch = self.w.batch
        out = Call(elapsed, batch, 0, None, "")
        if code != 0 or not preds.exists():
            out.failed = batch
            out.problems.append(f"kaes predict exited with {code}")
            return out
        data = preds.read_bytes()
        preds.unlink()
        out.digest = hashlib.sha256(data).hexdigest()
        gold = {e.id: e.raw_score for e in kaes.corpus.parse_asap_tsv(self.test_tsv.read_bytes())}
        lines = data.decode("utf-8").splitlines()
        if not lines or lines[0] != "essay_id\tessay_set\tprediction":
            out.failed = batch
            out.problems.append("prediction output lacks its header")
            return out
        score_range = ASAP_SCORE_RANGES[PROMPT]
        predicted: dict[str, int] = {}
        for line in lines[1:]:
            essay_id, _, value = line.split("\t")
            if essay_id in gold and value.lstrip("-").isdigit() and score_range.contains(int(value)):
                predicted[essay_id] = int(value)
            else:
                out.problems.append(f"bad prediction line {line!r}")
        if len(lines) - 1 != batch or set(predicted) != set(gold):
            out.problems.append(f"{len(lines) - 1} predictions for {batch} essays")
        out.failed = batch - len(predicted)
        if predicted:
            ids = sorted(predicted)
            out.qwk = kaes.metrics.qwk([predicted[i] for i in ids], [gold[i] for i in ids],
                                       score_range).kappa
        return out


def _median(values) -> float:
    return float(statistics.median(values))


def _timed_calls(runner: Runner, seconds: float, traced=None):
    """Set-ups and calls until the next pair would overrun ``seconds``.

    Untraced, every call follows its own set-up, so set-up times are sampled
    across the whole run like call times are, and the reference task of
    :mod:`reference` is timed before, between and after them, so that every
    step has a speed sample on each side.  With ``traced`` (a function running
    one traced call), untraced and traced calls alternate instead and there
    are no set-ups or reference samples.  Garbage is collected before each
    step, so no step pays for or holds the memory of the one before.
    Returns (set-ups, untraced calls, traced calls, peak RSS in MB after the
    first pair, reference samples), with MIN_CALLS pairs at least; later pairs
    raise the peak only by allocator drift.
    """
    setups: list[tuple[float, list[str]]] = []
    plain: list[Call] = []
    with_trace: list[Call] = []
    refs: list[float] = []
    peak_mb = 0.0
    start = time.perf_counter()
    while True:
        if traced is None:
            refs.append(reference.sample())
            gc.collect()
            setups.append(runner.setup())
            refs.append(reference.sample())
        gc.collect()
        plain.append(runner.call())
        if not peak_mb:
            peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if traced is not None:
            gc.collect()
            with_trace.append(traced())
        elapsed = time.perf_counter() - start
        if len(plain) >= MIN_CALLS and elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
    if traced is None:
        refs.append(reference.sample())
    return setups, plain, with_trace, peak_mb, refs


def scaled(seconds: list[float], refs: list[float]) -> list[float]:
    """Step times at the reference speed: ``refs[i]`` and ``refs[i + 1]`` flank step ``i``."""
    return [t * reference.NOMINAL_S * 2.0 / (refs[i] + refs[i + 1])
            for i, t in enumerate(seconds)]


def _verdict(calls: list[Call], setup_problems: list[str]) -> tuple[list[str], int, int]:
    problems = list(setup_problems)
    for c in calls:
        problems += c.problems
    digests = {c.digest for c in calls}
    if len(digests) != 1:
        problems.append(f"outputs differ between calls: {sorted(digests)}")
    qwks = {c.qwk for c in calls}
    if len(qwks) != 1:
        problems.append(f"qwk differs between calls: {sorted(map(str, qwks))}")
    return problems, sum(c.attempted for c in calls), sum(c.failed for c in calls)


def run(workload: Workload, essays: Path, vectors: Path, run_dir: Path, seconds: float,
        trace: bool) -> dict:
    """Run one workload; returns the result record (metrics, checks, call times)."""
    runner = Runner(workload, essays, vectors, run_dir)
    if not trace:
        setups, calls, _, peak_mb, refs = _timed_calls(runner, seconds)
        problems, attempted, failed = _verdict(calls, [p for _, ps in setups for p in ps])
        # refs alternate with the steps: ref, set-up, ref, call, ref, set-up, ...
        steps = [t for (s, _), c in zip(setups, calls) for t in (s, c.seconds)]
        steps = scaled(steps, refs)
        wall = _median(steps[1::2])
        metrics = {
            "setup_s": _median(steps[0::2]),
            "wall_s": wall,
            "essays_per_s": workload.units_per_call / wall,
            "qwk": calls[0].qwk or 0.0,
            "peak_rss_mb": peak_mb,
        }
        return {
            "problems": problems, "attempted": attempted, "failed": failed,
            "metrics": metrics, "digest": calls[0].digest, "qwk": calls[0].qwk or 0.0,
            "essays_per_call": workload.units_per_call,
            "setup_times": [s for s, _ in setups], "call_times": [c.seconds for c in calls],
            "reference_times": refs, "reference_s": _median(refs),
            "raw_setup_s": _median(s for s, _ in setups),
            "raw_wall_s": _median(c.seconds for c in calls),
        }

    recorder = spans.Recorder()
    undo = spans.install(recorder, [kaes.harness, kaes.cli, kaes.corpus, kaes.embeddings])
    try:
        with recorder.enabled_block():
            setup_s, setup_problems = runner.setup()
        setup_spans = list(recorder.spans)
        last_spans: list[spans.Span] = []
        per_call: list[dict[str, float]] = []

        def traced() -> Call:
            recorder.spans = list(setup_spans)
            call = runner.call(traced=recorder.enabled_block())
            last_spans[:] = recorder.spans
            m = spans.layer_metrics(recorder.spans)
            m["trace.setup_s"] = setup_s
            m["trace.wall_s"] = call.seconds
            own = sum(m[f"{layer}.self_s"] for layer in spans.LAYERS)
            m["trace.remainder_s"] = setup_s + call.seconds - own
            per_call.append(m)
            return call

        _, plain, with_trace, _, _ = _timed_calls(runner, seconds, traced)
    finally:
        undo()
    problems, attempted, failed = _verdict(plain + with_trace, setup_problems)
    metrics = {name: _median(m[name] for m in per_call) for name in per_call[0]}
    metrics["trace.untraced_wall_s"] = _median(c.seconds for c in plain)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    return {
        "problems": problems, "attempted": attempted, "failed": failed,
        "metrics": metrics, "digest": plain[0].digest, "qwk": plain[0].qwk or 0.0,
        "essays_per_call": workload.units_per_call,
        "setup_times": [setup_s], "call_times": [c.seconds for c in plain + with_trace],
        "spans": spans.as_records(last_spans),
    }
